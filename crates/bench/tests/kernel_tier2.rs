//! Release gates for the tier-2 kernels: persistent worker pool +
//! register-blocked GEMM. CI runs
//! `cargo test --release -p nt-bench --test kernel_tier2`.
//!
//! - **Kernel half.** On the 7b-sim serving GEMM shapes, timed in a tight
//!   loop, `matmul_into` must run ≥ 1.05x the legacy quad-axpy kernel
//!   (`nt-tensor`'s `tests/common/quad_axpy.rs`, run serially: both gate
//!   shapes sit below the spawn-era 4 Mi-MAC parallel threshold it was
//!   paired with). The two are interleaved best-of-5, so frequency drift
//!   hits both equally. End-to-end decode throughput is the benchmark's
//!   job (`fleetbench`), not this gate's.
//! - **Pool half.** The spawn-era build paid a `std::thread::scope` spawn
//!   on every parallel dispatch. The gate times the persistent pool's full
//!   round trip (publish, fan out, join) against that spawn and demands
//!   ≥ 5x at p50; measured gaps are 2-3 orders of magnitude.
//!
//! Correctness first, and unconditionally: batch-64 logits from a queued
//! B=64/K=4 fleet must match an unbatched single-session replay at 1e-5.
//! Element-level equivalence is pinned in
//! `crates/tensor/tests/kernel_props.rs` (GEMM, bit-for-bit against the
//! quad-axpy kernel) and `crates/nn/tests/attention_props.rs` (batched
//! attention).
//!
//! Everything lives in one `#[test]`, so the timing phases do not
//! interleave with other tests' load.

#![cfg(not(debug_assertions))]
#![allow(clippy::needless_range_loop)] // tick index drives parallel arrays

#[path = "../../tensor/tests/common/quad_axpy.rs"]
mod quad_axpy;

use netllm::{AdmissionPolicy, InferenceSession, NetLlmAbr, ServedTask, ShardedServer, Ticket};
use nt_abr::AbrObservation;
use nt_llm::{size_spec, Zoo};
use nt_tensor::tensor::matmul_into;
use quad_axpy::quad_axpy;
use std::time::Instant;

const BATCH: usize = 64;
const SHARDS: usize = 4;
const TICKS: usize = 12;

fn model(seed: u64) -> NetLlmAbr {
    let zoo = Zoo::new(std::env::temp_dir().join("netllm-kernel-tier2"));
    let mut m = NetLlmAbr::new(
        zoo.build_random(&size_spec("7b-sim")),
        netllm::AdaptMode::NoDomain,
        netllm::LoraSpec::default(),
        8,
        seed,
    );
    m.target_return = 2.0;
    m
}

/// One queued B=64/K=4 pass: per-(session, step) logits.
fn fleet_pass(m: &NetLlmAbr, streams: &[Vec<AbrObservation>]) -> Vec<Vec<Vec<f32>>> {
    let mut logits: Vec<Vec<Vec<f32>>> = vec![Vec::new(); BATCH];
    let mut server = ShardedServer::with_policy(SHARDS, AdmissionPolicy::LeastLoaded);
    let ids: Vec<_> = (0..BATCH).map(|_| server.join(m)).collect();
    for t in 0..TICKS {
        let tickets: Vec<Ticket> = ids
            .iter()
            .enumerate()
            .map(|(s, &id)| server.submit(id, streams[s][t].clone()).unwrap())
            .collect();
        let report = server.tick(m);
        assert_eq!(report.served, BATCH, "unbudgeted fleet must serve every submit");
        for ticket in tickets {
            let _ = server.poll(ticket).expect("ticket resolves in its tick");
        }
        for (s, &id) in ids.iter().enumerate() {
            logits[s].push(server.last_logits(id).to_vec());
        }
    }
    logits
}

#[test]
fn kernel_tier2_gate_equivalence_then_throughput_then_dispatch() {
    let workers = nt_tensor::pool::num_threads();
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let m = model(63);
    let streams: Vec<Vec<AbrObservation>> =
        (0..BATCH).map(|s| AbrObservation::synthetic_stream(14_000 + s as u64, TICKS)).collect();

    // ---- equivalence: batched fleet vs unbatched per-session replay ---
    let fleet_logits = fleet_pass(&m, &streams);
    for (s, obs) in streams.iter().enumerate() {
        let mut ep = m.new_slot(0);
        let mut sess = InferenceSession::new(&m.lm);
        for (i, o) in obs.iter().enumerate() {
            let plan = m.plan_step(&mut ep, o, &sess);
            if plan.reanchor {
                sess.clear();
            }
            let hidden = sess.append(&m.lm, &m.store, &plan.tokens);
            let out = m.settle_step(&mut ep, o, &hidden);
            for (x, y) in out.logits.iter().zip(&fleet_logits[s][i]) {
                assert!((x - y).abs() < 1e-5, "stream {s} step {i}: unbatched {x} vs batched {y}");
            }
        }
    }
    println!("kernel tier2 equivalence at B={BATCH}, K={SHARDS}: unbatched replay at 1e-5");

    // ---- GEMM microbench: the register tiles' SIMD bar ----------------
    // The 7b-sim serving matmuls, timed in a tight loop with the two
    // kernels interleaved per rep so frequency drift hits both equally.
    let mut rng = nt_tensor::Rng::seeded(3);
    let mut gemm_ratios = Vec::new();
    for &(gm, gk, gn) in &[(64usize, 48usize, 192usize), (64, 192, 48)] {
        let a: Vec<f32> = (0..gm * gk).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..gk * gn).map(|_| rng.normal()).collect();
        let reps = 200usize;
        let mut out = vec![0.0f32; gm * gn];
        let mut time_kernel = |legacy: bool| -> f64 {
            let t = Instant::now();
            for _ in 0..reps {
                out.iter_mut().for_each(|v| *v = 0.0);
                if legacy {
                    quad_axpy(&a, &b, &mut out, gm, gk, gn);
                } else {
                    matmul_into(&a, &b, &mut out, gm, gk, gn);
                }
            }
            t.elapsed().as_secs_f64()
        };
        let (mut legacy_s, mut new_s) = (f64::MAX, f64::MAX);
        for _ in 0..5 {
            legacy_s = legacy_s.min(time_kernel(true));
            new_s = new_s.min(time_kernel(false));
        }
        std::hint::black_box(&out);
        gemm_ratios.push((gm, gk, gn, legacy_s / new_s));
    }
    for &(gm, gk, gn, r) in &gemm_ratios {
        println!(
            "GEMM {gm}x{gk}x{gn} ({workers} pool workers / {hw} hw threads): blocked {r:.2}x \
             legacy quad axpy"
        );
        assert!(
            r >= 1.05,
            "register-blocked kernel must beat legacy axpy on the {gm}x{gk}x{gn} serving \
             GEMM: {r:.2}x < 1.05x"
        );
    }
    // ---- persistent-pool dispatch vs a per-call scoped spawn ----------
    let fan = workers.max(2);
    let p50 = |xs: &mut Vec<f64>| -> f64 {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let mut pool_ns: Vec<f64> = (0..2000)
        .map(|_| {
            let t = Instant::now();
            nt_tensor::pool::run_tasks(fan, |_| {});
            t.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    let mut spawn_ns: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..fan {
                    s.spawn(|| {});
                }
            });
            t.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    let (pool_p50, spawn_p50) = (p50(&mut pool_ns), p50(&mut spawn_ns));
    let dispatch_ratio = spawn_p50 / pool_p50.max(1.0);
    println!(
        "pool dispatch ({fan} tasks): p50 {pool_p50:.0} ns vs scoped spawn {spawn_p50:.0} ns \
         ({dispatch_ratio:.0}x)"
    );
    assert!(
        dispatch_ratio >= 5.0,
        "persistent-pool dispatch must beat a per-call scoped spawn by >= 5x at p50: \
         pool {pool_p50:.0} ns vs spawn {spawn_p50:.0} ns ({dispatch_ratio:.1}x)"
    );
}
