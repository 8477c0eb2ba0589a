//! Kernel-equivalence property sweep for [`nt_tensor::tensor::matmul_into`]
//! across adversarial shapes: every m, n, k in
//! {1..9, 15, 16, 17, 63, 64, 65}, covering quad-row remainders, NR
//! column-tail remainders, KC boundaries and the skinny-RHS switch.
//!
//! - Against the legacy quad-axpy kernel (`common/quad_axpy.rs`):
//!   bit-for-bit on every shape outside the skinny-RHS switch
//!   (`n < 8 && k >= 16`), where both accumulate each element in
//!   ascending-`k` order through one chain. The skinny dot kernel
//!   reassociates, so it is held to the oracle only.
//! - Against a naive triple-loop oracle: 1e-4 on every shape.
//!
//! The `NT_THREADS` {1, 4} axis comes from the CI matrix, which runs
//! every test binary under both values — band splits never change
//! per-element accumulation order, so the sweep must pass identically
//! under either.

#[path = "common/quad_axpy.rs"]
mod quad_axpy;

use nt_tensor::tensor::matmul_into;
use nt_tensor::Rng;
use quad_axpy::quad_axpy;

fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for kk in 0..k {
            let av = a[i * k + kk];
            for j in 0..n {
                out[i * n + j] += av * b[kk * n + j];
            }
        }
    }
    out
}

#[test]
fn register_tile_kernel_matches_legacy_kernel_across_adversarial_shapes() {
    let dims: &[usize] = &[1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 63, 64, 65];
    let mut rng = Rng::seeded(60);
    let mut bitwise_shapes = 0usize;
    for &m in dims {
        for &k in dims {
            for &n in dims {
                let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
                let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
                let mut out = vec![0.0f32; m * n];
                matmul_into(&a, &b, &mut out, m, k, n);

                if !(n < 8 && k >= 16) {
                    let mut base = vec![0.0f32; m * n];
                    quad_axpy(&a, &b, &mut base, m, k, n);
                    for (i, (x, y)) in out.iter().zip(&base).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "{m}x{k}x{n} elem {i}: register tile {x} vs quad axpy {y}"
                        );
                    }
                    bitwise_shapes += 1;
                }
                let want = naive(&a, &b, m, k, n);
                for (i, (x, y)) in out.iter().zip(&want).enumerate() {
                    assert!((x - y).abs() < 1e-4, "{m}x{k}x{n} elem {i}: {x} vs naive {y}");
                }
            }
        }
    }
    // 15^3 shapes minus the 7 (n < 8) x 5 (k >= 16) x 15 (m) skinny ones.
    assert_eq!(bitwise_shapes, 15 * 15 * 15 - 7 * 5 * 15);
}

/// Both kernel families — register tile (wide RHS) and packed dot
/// (skinny RHS) — *add into* `out`, so seeding the output with a bias
/// must give bias + product.
#[test]
fn both_kernels_accumulate_into_seeded_output() {
    let mut rng = Rng::seeded(61);
    for (m, k, n) in [(5, 17, 11), (5, 17, 3)] {
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
        let seed: Vec<f32> = (0..m * n).map(|_| rng.normal()).collect();
        let mut base = vec![0.0f32; m * n];
        matmul_into(&a, &b, &mut base, m, k, n);
        let mut out = seed.clone();
        matmul_into(&a, &b, &mut out, m, k, n);
        for i in 0..m * n {
            assert!(
                (out[i] - (seed[i] + base[i])).abs() < 1e-5,
                "{m}x{k}x{n} elem {i} lost its seed"
            );
        }
    }
}
