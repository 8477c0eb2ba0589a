//! The dense `f32` tensor value type.
//!
//! `Tensor` is a plain value: a shape plus a row-major `Vec<f32>`. All
//! differentiable computation happens in [`crate::graph::Graph`]; the methods
//! here are construction helpers and graph-free math used on inference-only
//! paths (policy sampling, metrics, simulators).

use crate::pool;
use crate::rng::Rng;
use crate::shape::{broadcast_shapes, for_each_broadcast2, numel, strides};
use serde::{Deserialize, Serialize};

/// A dense row-major `f32` tensor.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Build a tensor from raw parts. Panics when `data.len()` does not match
    /// the shape.
    pub fn from_vec(shape: impl Into<Vec<usize>>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            numel(&shape),
            data.len(),
            "shape {:?} wants {} elements, got {}",
            shape,
            numel(&shape),
            data.len()
        );
        Tensor { shape, data }
    }

    /// A scalar tensor (empty shape).
    pub fn scalar(v: f32) -> Self {
        Tensor { shape: vec![], data: vec![v] }
    }

    /// All-zeros tensor.
    pub fn zeros(shape: impl Into<Vec<usize>>) -> Self {
        let shape = shape.into();
        let n = numel(&shape);
        Tensor { shape, data: vec![0.0; n] }
    }

    /// All-ones tensor.
    pub fn ones(shape: impl Into<Vec<usize>>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Constant-filled tensor.
    pub fn full(shape: impl Into<Vec<usize>>, v: f32) -> Self {
        let shape = shape.into();
        let n = numel(&shape);
        Tensor { shape, data: vec![v; n] }
    }

    /// I.i.d. standard-normal entries scaled by `std`, drawn from `rng`.
    pub fn randn(shape: impl Into<Vec<usize>>, std: f32, rng: &mut Rng) -> Self {
        let shape = shape.into();
        let n = numel(&shape);
        let data = (0..n).map(|_| rng.normal() * std).collect();
        Tensor { shape, data }
    }

    /// I.i.d. uniform entries in `[lo, hi)`.
    pub fn rand_uniform(shape: impl Into<Vec<usize>>, lo: f32, hi: f32, rng: &mut Rng) -> Self {
        let shape = shape.into();
        let n = numel(&shape);
        let data = (0..n).map(|_| rng.uniform(lo, hi)).collect();
        Tensor { shape, data }
    }

    /// 1-D tensor holding `v`.
    pub fn from_slice(v: &[f32]) -> Self {
        Tensor { shape: vec![v.len()], data: v.to_vec() }
    }

    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    pub fn numel(&self) -> usize {
        self.data.len()
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Scalar value of a single-element tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "item() on tensor with {} elements", self.data.len());
        self.data[0]
    }

    /// Reinterpret with a new shape of identical element count.
    pub fn reshape(mut self, shape: impl Into<Vec<usize>>) -> Self {
        let shape = shape.into();
        assert_eq!(numel(&shape), self.data.len(), "reshape to incompatible shape {shape:?}");
        self.shape = shape;
        self
    }

    /// Element at a multi-index.
    pub fn at(&self, idx: &[usize]) -> f32 {
        let st = strides(&self.shape);
        debug_assert_eq!(idx.len(), self.shape.len());
        let off: usize = idx.iter().zip(&st).map(|(i, s)| i * s).sum();
        self.data[off]
    }

    /// Mutable element at a multi-index.
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f32 {
        let st = strides(&self.shape);
        let off: usize = idx.iter().zip(&st).map(|(i, s)| i * s).sum();
        &mut self.data[off]
    }

    /// Row `i` of a 2-D tensor.
    pub fn row(&self, i: usize) -> &[f32] {
        assert_eq!(self.shape.len(), 2, "row() needs a 2-D tensor");
        let cols = self.shape[1];
        &self.data[i * cols..(i + 1) * cols]
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Broadcasting elementwise combine; panics on incompatible shapes.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        let out_shape = broadcast_shapes(&self.shape, &other.shape)
            .unwrap_or_else(|| panic!("cannot broadcast {:?} with {:?}", self.shape, other.shape));
        let mut out = Tensor::zeros(out_shape.clone());
        for_each_broadcast2(&out_shape, &self.shape, &other.shape, |o, a, b| {
            out.data[o] = f(self.data[a], other.data[b]);
        });
        out
    }

    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// In-place elementwise `self += other` for identically shaped
    /// tensors: the residual-add of the inference hot path, without the
    /// broadcast machinery or an output allocation.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign needs matching shapes");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    pub fn scale(&self, c: f32) -> Tensor {
        self.map(|x| x * c)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Index of the maximum element (first on ties).
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// 2-D matrix multiply: `[m,k] x [k,n] -> [m,n]`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be 2-D");
        assert_eq!(other.shape.len(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dims {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        matmul_into(&self.data, &other.data, &mut out, m, k, n);
        Tensor { shape: vec![m, n], data: out }
    }

    /// Softmax over the last dimension (numerically stable).
    pub fn softmax_last(&self) -> Tensor {
        let mut out = self.clone();
        out.softmax_last_mut();
        out
    }

    /// In-place softmax over the last dimension: overwrites `self` without
    /// allocating. The inference paths use this; the cloning
    /// [`Tensor::softmax_last`] remains for taped forwards that must keep
    /// their input value alive.
    pub fn softmax_last_mut(&mut self) {
        assert!(!self.shape.is_empty(), "softmax needs rank >= 1");
        let cols = *self.shape.last().unwrap();
        let rows = self.data.len() / cols.max(1);
        for r in 0..rows {
            let s = &mut self.data[r * cols..(r + 1) * cols];
            softmax_in_place(s);
        }
    }

    /// L2 norm of all elements.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Transpose of a 2-D tensor (cache-blocked).
    pub fn t(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "t() needs a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        transpose_into(&self.data, &mut out, m, n);
        Tensor { shape: vec![n, m], data: out }
    }

    /// True when any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Slice `len` entries starting at `start` along `axis` (graph-free
    /// kernel; the differentiable version is [`crate::graph::Graph::narrow`]).
    pub fn narrow(&self, axis: usize, start: usize, len: usize) -> Tensor {
        assert!(axis < self.shape.len(), "narrow axis out of range");
        assert!(start + len <= self.shape[axis], "narrow slice out of bounds");
        let outer: usize = self.shape[..axis].iter().product();
        let inner: usize = self.shape[axis + 1..].iter().product();
        let d = self.shape[axis];
        let mut out_shape = self.shape.clone();
        out_shape[axis] = len;
        let mut out = vec![0.0f32; outer * len * inner];
        for o in 0..outer {
            let src = (o * d + start) * inner;
            out[o * len * inner..(o + 1) * len * inner]
                .copy_from_slice(&self.data[src..src + len * inner]);
        }
        Tensor { shape: out_shape, data: out }
    }

    /// Gather rows of a 2-D tensor by index (graph-free embedding lookup).
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        assert_eq!(self.shape.len(), 2, "gather_rows needs a 2-D tensor");
        let (n, d) = (self.shape[0], self.shape[1]);
        let mut out = Vec::with_capacity(indices.len() * d);
        for &i in indices {
            assert!(i < n, "row index {i} out of {n}");
            out.extend_from_slice(&self.data[i * d..(i + 1) * d]);
        }
        Tensor { shape: vec![indices.len(), d], data: out }
    }
}

/// Concatenate tensors along `axis` (graph-free kernel; all inputs must
/// agree on the other dims). This plus [`Tensor::narrow`] are the two
/// shape ops a KV cache leans on: append new keys/values, slice the live
/// prefix back out.
pub fn concat(parts: &[&Tensor], axis: usize) -> Tensor {
    assert!(!parts.is_empty(), "concat of nothing");
    let first = parts[0].shape().to_vec();
    let rank = first.len();
    assert!(axis < rank, "concat axis {axis} out of rank {rank}");
    let mut axis_total = 0usize;
    for p in parts {
        let s = p.shape();
        assert_eq!(s.len(), rank, "concat rank mismatch");
        for d in 0..rank {
            if d != axis {
                assert_eq!(s[d], first[d], "concat dim {d} mismatch");
            }
        }
        axis_total += s[axis];
    }
    let mut out_shape = first.clone();
    out_shape[axis] = axis_total;
    let outer: usize = first[..axis].iter().product();
    let inner: usize = first[axis + 1..].iter().product();
    let mut out = vec![0.0f32; crate::shape::numel(&out_shape)];
    let mut axis_off = 0usize;
    for p in parts {
        let len = p.shape()[axis];
        for o in 0..outer {
            let src = &p.data()[o * len * inner..(o + 1) * len * inner];
            let dst_start = (o * axis_total + axis_off) * inner;
            out[dst_start..dst_start + len * inner].copy_from_slice(src);
        }
        axis_off += len;
    }
    Tensor::from_vec(out_shape, out)
}

/// Rows per register-blocked pass: four output rows advance together so
/// every loaded `b` value is reused four times from registers.
const MR: usize = 4;
/// Column-block width of the register tile: one f32x8-style vector of
/// output columns per row, held in a fixed `[f32; NR]` accumulator array
/// the autovectorizer maps onto SIMD lanes.
const NR: usize = 8;
/// Inner-dimension tile: the `b` panel touched by one k-block stays
/// cache-resident while all row quads stream past it. Accumulation still
/// runs in ascending-`k` order, so tiling never changes the result.
const KC: usize = 512;
/// RHS widths below this use the packed-transpose dot kernel instead of
/// the register-tile kernel (too few columns to fill a lane block).
const N_SKINNY: usize = 8;

/// `out += a x b` for row-major matrices.
///
/// The kernel holds an MRxNR register accumulator tile per output block
/// (`matmul_blocked_wide`), is tiled over the inner dimension (`KC`),
/// and — for skinny right-hand sides — switches to a transposed-`B`
/// packing so both operands of every dot product are contiguous. Products
/// that [`pool::parallel_worthwhile`] accepts split their output rows
/// across the persistent worker pool ([`crate::pool`], `NT_THREADS`
/// knob). A row's result never depends on the band it lands in, so serial
/// and parallel execution are bit-identical; the wide kernels accumulate
/// each output element in ascending-`k` order through a single chain
/// (only the skinny dot kernel reassociates).
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if pool::parallel_worthwhile(m * k * n) && m > MR {
        // Contiguous row bands, each a multiple of MR so only the final
        // band can hit the remainder kernel.
        let band_rows = m.div_ceil(pool::num_threads()).next_multiple_of(MR);
        pool::for_each_block_mut(out, band_rows * n, |band, chunk| {
            let r0 = band * band_rows;
            let rows = chunk.len() / n;
            matmul_serial(&a[r0 * k..(r0 + rows) * k], b, chunk, rows, k, n);
        });
    } else {
        matmul_serial(a, b, out, m, k, n);
    }
}

fn matmul_serial(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    if n < N_SKINNY && k >= 16 {
        return matmul_dot_packed(a, b, out, m, k, n);
    }
    matmul_blocked_wide(a, b, out, m, k, n);
}

/// Wide-RHS register-tile kernel.
///
/// For each [`KC`] k-tile and each [`NR`]-wide column block, the block of
/// `b` is packed into a contiguous `[kc x NR]` panel once, then every
/// [`MR`]-row quad streams through it holding an `MR x NR` accumulator
/// tile in registers — `out` is loaded and stored once per (quad, block,
/// k-tile) instead of once per `k` step, which is where a plain axpy
/// kernel burns its bandwidth. Each `[f32; NR]` accumulator row is a fixed
/// f32x8-shaped array the autovectorizer maps onto SIMD lanes.
///
/// Every output element is still one accumulation chain in ascending-`k`
/// order (the tile is seeded from `out` and written back), so this is
/// bit-identical to a plain ascending-`k` axpy kernel and to its own
/// parallel row-band splits.
fn matmul_blocked_wide(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    if m < MR {
        // Fewer rows than one quad — the token-decode shape (m = 1..3).
        // A packed panel only pays for itself when a full quad streams
        // through it, so this path reads `b` directly instead.
        return matmul_narrow_direct(a, b, out, m, k, n);
    }
    let n_main = n - n % NR;
    let mut panel = vec![0.0f32; KC.min(k) * NR];
    for k0 in (0..k).step_by(KC) {
        let k1 = (k0 + KC).min(k);
        let kc = k1 - k0;
        for j0 in (0..n_main).step_by(NR) {
            // Pack this k-tile of the next NR columns of b: one
            // contiguous panel row per k step.
            let panel = &mut panel[..kc * NR];
            for (prow, kk) in panel.chunks_exact_mut(NR).zip(k0..k1) {
                prow.copy_from_slice(&b[kk * n + j0..kk * n + j0 + NR]);
            }
            let panel = &panel[..];
            let mut i = 0usize;
            while i + MR <= m {
                let a0 = &a[i * k..(i + 1) * k];
                let a1 = &a[(i + 1) * k..(i + 2) * k];
                let a2 = &a[(i + 2) * k..(i + 3) * k];
                let a3 = &a[(i + 3) * k..(i + 4) * k];
                let mut acc = [[0.0f32; NR]; MR];
                for (r, accr) in acc.iter_mut().enumerate() {
                    let o = (i + r) * n + j0;
                    accr.copy_from_slice(&out[o..o + NR]);
                }
                for (prow, kk) in panel.chunks_exact(NR).zip(k0..k1) {
                    let (x0, x1, x2, x3) = (a0[kk], a1[kk], a2[kk], a3[kk]);
                    for l in 0..NR {
                        acc[0][l] += x0 * prow[l];
                        acc[1][l] += x1 * prow[l];
                        acc[2][l] += x2 * prow[l];
                        acc[3][l] += x3 * prow[l];
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    let o = (i + r) * n + j0;
                    out[o..o + NR].copy_from_slice(accr);
                }
                i += MR;
            }
            // Remainder rows: one NR-wide accumulator vector per row.
            while i < m {
                let arow = &a[i * k..(i + 1) * k];
                let o = i * n + j0;
                let mut acc = [0.0f32; NR];
                acc.copy_from_slice(&out[o..o + NR]);
                for (prow, kk) in panel.chunks_exact(NR).zip(k0..k1) {
                    let x = arow[kk];
                    for l in 0..NR {
                        acc[l] += x * prow[l];
                    }
                }
                out[o..o + NR].copy_from_slice(&acc);
                i += 1;
            }
        }
        // Ragged column tail (n % NR): plain ascending-k axpy over the
        // last few columns, unpacked.
        if n_main < n {
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                let (os, oe) = (i * n + n_main, (i + 1) * n);
                for kk in k0..k1 {
                    let x = arow[kk];
                    let brow = &b[kk * n + n_main..(kk + 1) * n];
                    for (o, &bv) in out[os..oe].iter_mut().zip(brow) {
                        *o += x * bv;
                    }
                }
            }
        }
    }
}

/// Sub-quad row count (`m < MR`): the single-token decode shape. Each
/// row holds an [`NR`]-wide register accumulator per column block and
/// streams `b` directly, so `out` is loaded and stored once per (block,
/// k-tile) instead of once per `k` step, while skipping the panel pack
/// that only a full quad can amortize. Same ascending-`k` single-chain
/// accumulation as the quad path.
fn matmul_narrow_direct(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let n_main = n - n % NR;
    for k0 in (0..k).step_by(KC) {
        let k1 = (k0 + KC).min(k);
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            for j0 in (0..n_main).step_by(NR) {
                let o = i * n + j0;
                let mut acc = [0.0f32; NR];
                acc.copy_from_slice(&out[o..o + NR]);
                for kk in k0..k1 {
                    let x = arow[kk];
                    let brow = &b[kk * n + j0..kk * n + j0 + NR];
                    for l in 0..NR {
                        acc[l] += x * brow[l];
                    }
                }
                out[o..o + NR].copy_from_slice(&acc);
            }
            if n_main < n {
                let (os, oe) = (i * n + n_main, (i + 1) * n);
                for kk in k0..k1 {
                    let x = arow[kk];
                    let brow = &b[kk * n + n_main..(kk + 1) * n];
                    for (o, &bv) in out[os..oe].iter_mut().zip(brow) {
                        *o += x * bv;
                    }
                }
            }
        }
    }
}

/// Skinny-RHS kernel: packs `b` transposed so each output element is one
/// dot product over two contiguous slices, computed with eight partial
/// accumulators (reassociation within 1e-5 of the axpy kernel; every
/// consumer compares paths that share this same kernel).
fn matmul_dot_packed(a: &[f32], b: &[f32], out: &mut [f32], _m: usize, k: usize, n: usize) {
    let mut bt = vec![0.0f32; k * n];
    transpose_into(b, &mut bt, k, n);
    for (arow, orow) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (bcol, o) in bt.chunks_exact(k).zip(orow) {
            *o += dot8(arow, bcol);
        }
    }
}

/// Dot product with eight independent accumulator lanes.
fn dot8(x: &[f32], y: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    let xc = x.chunks_exact(8);
    let yc = y.chunks_exact(8);
    let (xr, yr) = (xc.remainder(), yc.remainder());
    for (xs, ys) in xc.zip(yc) {
        for l in 0..8 {
            acc[l] += xs[l] * ys[l];
        }
    }
    let mut tail = 0.0f32;
    for (a, b) in xr.iter().zip(yr) {
        tail += a * b;
    }
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7])) + tail
}

/// Cache-blocked out-of-place transpose: `src` is `[rows, cols]`
/// row-major, `dst` receives `[cols, rows]`. 32x32 tiles keep both the
/// read and the write side inside a few cache lines per pass.
pub fn transpose_into(src: &[f32], dst: &mut [f32], rows: usize, cols: usize) {
    const TB: usize = 32;
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    for r0 in (0..rows).step_by(TB) {
        let r1 = (r0 + TB).min(rows);
        for c0 in (0..cols).step_by(TB) {
            let c1 = (c0 + TB).min(cols);
            for r in r0..r1 {
                let srow = &src[r * cols..];
                for c in c0..c1 {
                    dst[c * rows + r] = srow[c];
                }
            }
        }
    }
}

pub(crate) const GELU_C: f32 = 0.797_884_6; // sqrt(2/pi)

/// Tanh-approximation GELU, shared by the taped forward, its backward and
/// the graph-free inference kernels (one definition keeps the cached and
/// uncached paths bit-identical).
pub fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + tanh_fast(GELU_C * (x + 0.044715 * x * x * x)))
}

/// `tanh` computed from a single `exp` — ~3x faster than libm's `tanhf`
/// on the hot MLP path, within a few ulp of it (every consumer goes
/// through [`gelu`], so taped and graph-free paths shift together).
pub(crate) fn tanh_fast(z: f32) -> f32 {
    // f32 tanh saturates to ±1.0 below |z| = 9 anyway; clamping also
    // keeps exp() finite.
    if z > 9.0 {
        return 1.0;
    }
    if z < -9.0 {
        return -1.0;
    }
    let e = (2.0 * z).exp();
    (e - 1.0) / (e + 1.0)
}

/// Numerically stable in-place softmax of a slice.
pub fn softmax_in_place(s: &mut [f32]) {
    if s.is_empty() {
        return;
    }
    let mx = s.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut z = 0.0f32;
    for v in s.iter_mut() {
        *v = (*v - mx).exp();
        z += *v;
    }
    if z > 0.0 {
        for v in s.iter_mut() {
            *v /= z;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.row(0), &[1., 2., 3.]);
        assert_eq!(t.numel(), 6);
        assert_eq!(Tensor::scalar(4.0).item(), 4.0);
    }

    #[test]
    #[should_panic]
    fn bad_shape_panics() {
        Tensor::from_vec([2, 2], vec![1.0]);
    }

    #[test]
    fn broadcast_add_bias() {
        let x = Tensor::from_vec([2, 3], vec![0., 0., 0., 1., 1., 1.]);
        let b = Tensor::from_slice(&[10., 20., 30.]);
        let y = x.add(&b);
        assert_eq!(y.data(), &[10., 20., 30., 11., 21., 31.]);
    }

    #[test]
    fn matmul_matches_hand_result() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec([3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.t().t(), a);
        assert_eq!(a.t().at(&[2, 1]), 6.0);
    }

    #[test]
    fn blocked_transpose_matches_indexing_across_tile_boundaries() {
        // Sizes straddling the 32x32 tile: exercises full tiles + ragged edges.
        let mut rng = Rng::seeded(40);
        for (m, n) in [(1, 1), (7, 33), (33, 7), (64, 64), (65, 31), (40, 100)] {
            let a = Tensor::randn([m, n], 1.0, &mut rng);
            let at = a.t();
            assert_eq!(at.shape(), &[n, m]);
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(at.at(&[j, i]), a.at(&[i, j]), "({i},{j}) of {m}x{n}");
                }
            }
        }
    }

    /// Naive triple loop, the pre-blocking reference semantics.
    fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                let av = a.data()[i * k + kk];
                for j in 0..n {
                    out[i * n + j] += av * b.data()[kk * n + j];
                }
            }
        }
        Tensor::from_vec([m, n], out)
    }

    #[test]
    fn blocked_matmul_matches_naive_reference() {
        // Shapes cover: quad rows + remainder rows, skinny-n dot kernel
        // (n < 8, k >= 16), k-tile boundaries, and zero entries (the old
        // kernel's skip branch must not have been load-bearing).
        let mut rng = Rng::seeded(41);
        for (m, k, n) in
            [(1, 4, 1), (4, 16, 3), (5, 48, 6), (7, 33, 1), (8, 48, 48), (13, 96, 20), (6, 600, 9)]
        {
            let mut a = Tensor::randn([m, k], 1.0, &mut rng);
            let b = Tensor::randn([k, n], 1.0, &mut rng);
            a.data_mut()[0] = 0.0; // exercise explicit zeros too
            let got = a.matmul(&b);
            let want = matmul_naive(&a, &b);
            for (x, y) in got.data().iter().zip(want.data()) {
                assert!((x - y).abs() < 1e-4, "{m}x{k}x{n}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec([2, 4], vec![1., 2., 3., 4., -1., 0., 1., 2.]);
        let s = t.softmax_last();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_last_mut_matches_cloning_softmax() {
        let mut rng = Rng::seeded(42);
        let t = Tensor::randn([3, 7], 2.0, &mut rng);
        let cloned = t.softmax_last();
        let mut inplace = t;
        inplace.softmax_last_mut();
        assert_eq!(cloned, inplace);
    }

    #[test]
    fn softmax_handles_extremes() {
        let t = Tensor::from_slice(&[1000.0, 0.0, -1000.0]);
        let s = t.softmax_last();
        assert!((s.data()[0] - 1.0).abs() < 1e-5);
        assert!(!s.has_non_finite());
    }

    #[test]
    fn argmax_first_on_ties() {
        let t = Tensor::from_slice(&[1.0, 3.0, 3.0, 2.0]);
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn randn_is_deterministic_under_seed() {
        let mut r1 = Rng::seeded(7);
        let mut r2 = Rng::seeded(7);
        let a = Tensor::randn([4, 4], 1.0, &mut r1);
        let b = Tensor::randn([4, 4], 1.0, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn narrow_kernel_slices_rows_and_cols() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.narrow(0, 1, 1).data(), &[4., 5., 6.]);
        assert_eq!(t.narrow(1, 1, 2).data(), &[2., 3., 5., 6.]);
        assert_eq!(t.narrow(1, 1, 2).shape(), &[2, 2]);
    }

    #[test]
    fn concat_kernel_roundtrips_with_narrow() {
        let a = Tensor::from_vec([2, 2], vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec([1, 2], vec![5., 6.]);
        let cat = concat(&[&a, &b], 0);
        assert_eq!(cat.shape(), &[3, 2]);
        assert_eq!(cat.narrow(0, 0, 2), a);
        assert_eq!(cat.narrow(0, 2, 1), b);
        // Column-axis concat too (the KV layout appends along time).
        let c = concat(&[&a, &a], 1);
        assert_eq!(c.shape(), &[2, 4]);
        assert_eq!(c.data(), &[1., 2., 1., 2., 3., 4., 3., 4.]);
    }

    #[test]
    fn gather_rows_kernel_matches_indexing() {
        let t = Tensor::from_vec([3, 2], vec![1., 2., 3., 4., 5., 6.]);
        let g = t.gather_rows(&[2, 0, 2]);
        assert_eq!(g.shape(), &[3, 2]);
        assert_eq!(g.data(), &[5., 6., 1., 2., 5., 6.]);
    }
}
