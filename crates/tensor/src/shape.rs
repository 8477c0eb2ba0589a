//! Shape arithmetic: strides, broadcasting and index iteration.
//!
//! Shapes are plain `Vec<usize>` in row-major (C) order. Broadcasting follows
//! NumPy semantics: shapes are aligned at the trailing dimension and a
//! dimension of size 1 stretches to match the other operand.

/// Number of elements described by `shape`. The empty shape is a scalar (1).
pub fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// Row-major strides for `shape`.
pub fn strides(shape: &[usize]) -> Vec<usize> {
    let mut s = vec![1usize; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        s[i] = s[i + 1] * shape[i + 1];
    }
    s
}

/// Broadcast two shapes, returning the output shape, or `None` when the
/// shapes are incompatible.
pub fn broadcast_shapes(a: &[usize], b: &[usize]) -> Option<Vec<usize>> {
    let rank = a.len().max(b.len());
    let mut out = vec![0usize; rank];
    for (i, slot) in out.iter_mut().enumerate() {
        let da = dim_from_right(a, rank - 1 - i);
        let db = dim_from_right(b, rank - 1 - i);
        *slot = match (da, db) {
            (x, y) if x == y => x,
            (1, y) => y,
            (x, 1) => x,
            _ => return None,
        };
    }
    Some(out)
}

fn dim_from_right(shape: &[usize], pos_from_left_of_out: usize) -> usize {
    // `pos_from_left_of_out` counts positions in the *output* rank; shapes
    // shorter than the output rank are implicitly left-padded with 1s.
    let rank = shape.len();
    let out_rank_pos = pos_from_left_of_out;
    // Index into `shape` once the implicit padding is removed.
    if out_rank_pos >= rank {
        1
    } else {
        shape[rank - 1 - out_rank_pos]
    }
}

/// Strides for reading `shape` as if broadcast to `out`: broadcast dimensions
/// get stride 0. Panics if the shapes are not broadcast-compatible.
pub fn broadcast_strides(shape: &[usize], out: &[usize]) -> Vec<usize> {
    assert!(shape.len() <= out.len(), "operand rank exceeds output rank");
    let base = strides(shape);
    let offset = out.len() - shape.len();
    let mut r = vec![0usize; out.len()];
    for i in 0..shape.len() {
        let (s, o) = (shape[i], out[offset + i]);
        assert!(s == o || s == 1, "shape {shape:?} not broadcastable to {out:?}");
        r[offset + i] = if s == 1 { 0 } else { base[i] };
    }
    r
}

/// Row-major odometer over a shape. Yields flat offsets for up to two
/// broadcast operands alongside the output offset.
pub struct Odometer<'a> {
    shape: &'a [usize],
    idx: Vec<usize>,
    done: bool,
}

impl<'a> Odometer<'a> {
    pub fn new(shape: &'a [usize]) -> Self {
        Odometer { shape, idx: vec![0; shape.len()], done: numel(shape) == 0 }
    }

    /// Current multi-index.
    pub fn index(&self) -> &[usize] {
        &self.idx
    }

    /// Flat offset of the current index under `strides`.
    pub fn offset(&self, strides: &[usize]) -> usize {
        self.idx.iter().zip(strides).map(|(i, s)| i * s).sum()
    }

    /// Advance; returns `false` once the iteration space is exhausted.
    pub fn step(&mut self) -> bool {
        if self.done {
            return false;
        }
        for d in (0..self.shape.len()).rev() {
            self.idx[d] += 1;
            if self.idx[d] < self.shape[d] {
                return true;
            }
            self.idx[d] = 0;
        }
        self.done = true;
        false
    }
}

/// Apply `f(out_off, a_off, b_off)` over every position of `out_shape`,
/// with `a`/`b` offsets computed under broadcast strides.
pub fn for_each_broadcast2(
    out_shape: &[usize],
    a_shape: &[usize],
    b_shape: &[usize],
    mut f: impl FnMut(usize, usize, usize),
) {
    let sa = broadcast_strides(a_shape, out_shape);
    let sb = broadcast_strides(b_shape, out_shape);
    if numel(out_shape) == 0 {
        return;
    }
    // Fast path: no actual broadcasting.
    if a_shape == out_shape && b_shape == out_shape {
        for i in 0..numel(out_shape) {
            f(i, i, i);
        }
        return;
    }
    let mut od = Odometer::new(out_shape);
    let mut out_off = 0usize;
    loop {
        f(out_off, od.offset(&sa), od.offset(&sb));
        out_off += 1;
        if !od.step() {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_strides() {
        assert_eq!(numel(&[2, 3, 4]), 24);
        assert_eq!(numel(&[]), 1);
        assert_eq!(strides(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides(&[5]), vec![1]);
        assert_eq!(strides(&[]), Vec::<usize>::new());
    }

    #[test]
    fn broadcast_basic() {
        assert_eq!(broadcast_shapes(&[2, 3], &[2, 3]), Some(vec![2, 3]));
        assert_eq!(broadcast_shapes(&[2, 3], &[3]), Some(vec![2, 3]));
        assert_eq!(broadcast_shapes(&[2, 1], &[1, 4]), Some(vec![2, 4]));
        assert_eq!(broadcast_shapes(&[2, 3], &[4]), None);
        assert_eq!(broadcast_shapes(&[], &[3]), Some(vec![3]));
    }

    #[test]
    fn broadcast_strides_zeroes_stretched_dims() {
        assert_eq!(broadcast_strides(&[3], &[2, 3]), vec![0, 1]);
        assert_eq!(broadcast_strides(&[2, 1], &[2, 4]), vec![1, 0]);
        assert_eq!(broadcast_strides(&[2, 3], &[2, 3]), vec![3, 1]);
    }

    #[test]
    fn odometer_visits_all_positions_in_order() {
        let shape = [2usize, 3];
        let st = strides(&shape);
        let mut od = Odometer::new(&shape);
        let mut seen = Vec::new();
        loop {
            seen.push(od.offset(&st));
            if !od.step() {
                break;
            }
        }
        assert_eq!(seen, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_broadcast2_bias_add_pattern() {
        let mut trips = Vec::new();
        for_each_broadcast2(&[2, 3], &[2, 3], &[3], |o, a, b| trips.push((o, a, b)));
        assert_eq!(trips.len(), 6);
        assert_eq!(trips[0], (0, 0, 0));
        assert_eq!(trips[4], (4, 4, 1));
        assert_eq!(trips[5], (5, 5, 2));
    }
}
