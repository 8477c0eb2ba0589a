//! The legacy wide GEMM kernel, kept as a test baseline: quad axpy
//! streaming full `n`-wide output rows, serial, tiled over `k` in blocks
//! of 512. `out += a x b` for row-major matrices. Every output
//! element is one accumulation chain in ascending-`k` order, the same
//! order as the library's register-tile kernels, so the two agree
//! bit-for-bit on every shape that does not take the skinny-RHS dot
//! kernel (`n < 8 && k >= 16`).
//!
//! Shared by `kernel_props.rs` (equivalence) and the `nt-bench`
//! `kernel_tier2` gate (speed).

const MR: usize = 4;
const KC: usize = 512;

pub fn quad_axpy(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!((a.len(), b.len(), out.len()), (m * k, k * n, m * n));
    for k0 in (0..k).step_by(KC) {
        let k1 = (k0 + KC).min(k);
        let mut quads = out.chunks_exact_mut(MR * n);
        let mut i = 0usize;
        for quad in &mut quads {
            let (r0, rest) = quad.split_at_mut(n);
            let (r1, rest) = rest.split_at_mut(n);
            let (r2, r3) = rest.split_at_mut(n);
            let a0 = &a[i * k..(i + 1) * k];
            let a1 = &a[(i + 1) * k..(i + 2) * k];
            let a2 = &a[(i + 2) * k..(i + 3) * k];
            let a3 = &a[(i + 3) * k..(i + 4) * k];
            for kk in k0..k1 {
                let brow = &b[kk * n..(kk + 1) * n];
                let (x0, x1, x2, x3) = (a0[kk], a1[kk], a2[kk], a3[kk]);
                for ((((d0, d1), d2), d3), &bv) in
                    r0.iter_mut().zip(r1.iter_mut()).zip(r2.iter_mut()).zip(r3.iter_mut()).zip(brow)
                {
                    *d0 += x0 * bv;
                    *d1 += x1 * bv;
                    *d2 += x2 * bv;
                    *d3 += x3 * bv;
                }
            }
            i += MR;
        }
        let tail = quads.into_remainder();
        for (arow, orow) in a[i * k..].chunks_exact(k).zip(tail.chunks_exact_mut(n)) {
            for kk in k0..k1 {
                let brow = &b[kk * n..(kk + 1) * n];
                let av = arow[kk];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    }
}
