//! Release gates for the paged KV-cache memory subsystem at batch 64.
//!
//! The small-scale correctness of the subsystem (bit-compatibility of the
//! paged attention path, allocator invariants, eviction equivalence,
//! deferral backpressure) is pinned in `nt-nn`, `nt-llm`
//! (`tests/paged_pool.rs`) and `nt-netllm` (`tests/paged_serving.rs`).
//! This file gates the *operational* claims at serving scale, which debug
//! codegen would distort — CI runs
//! `cargo test --release -p nt-bench --test paged_memory`:
//!
//! - **Budget gate:** B=64 sessions on K=4 shards driven past a pool
//!   budget of ~40% of their contiguous footprint must (a) keep pool
//!   bytes ≤ budget after every tick (the pool makes this structural; the
//!   gate re-checks the reports), (b) re-anchor every evicted session to
//!   logits within 1e-5 of an unbatched replay that clears its session at
//!   the same ticks, and (c) resolve every ticket — deferral may delay an
//!   answer, never lose it.
//! - **Throughput gate:** with an ample budget (no evictions), paged
//!   serving must be ≥ 0.9x contiguous at B=64 — paging costs page-table
//!   indirection in the attention inner loop and a mutex per reservation,
//!   not a second copy of the math. `--nocapture` prints the measured
//!   ratios.

#![cfg(not(debug_assertions))]
#![allow(clippy::needless_range_loop)] // tick index drives several parallel arrays

use netllm::{
    AdmissionPolicy, EvictionPolicy, InferenceSession, NetLlmAbr, ServedTask, ShardedServer, Ticket,
};
use nt_abr::AbrObservation;
use nt_llm::{session_floor_bytes, size_spec, PageConfig, PagePool, Zoo};
use std::collections::VecDeque;
use std::time::Instant;

const BATCH: usize = 64;
const SHARDS: usize = 4;
const TICKS: usize = 12;

fn model(seed: u64) -> NetLlmAbr {
    let zoo = Zoo::new(std::env::temp_dir().join("netllm-paged-memory"));
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

fn streams(seed0: u64) -> Vec<Vec<AbrObservation>> {
    (0..BATCH).map(|s| AbrObservation::synthetic_stream(seed0 + s as u64, TICKS)).collect()
}

/// Contiguous queued reference: logits per (session, step) + end-of-run
/// KV bytes + best wall time.
#[allow(clippy::type_complexity)]
fn contiguous_reference(
    m: &NetLlmAbr,
    streams: &[Vec<AbrObservation>],
    reps: usize,
) -> (Vec<Vec<Vec<f32>>>, usize, f64) {
    let mut logits: Vec<Vec<Vec<f32>>> = vec![Vec::new(); BATCH];
    let mut best = f64::MAX;
    let mut end_bytes = 0usize;
    for rep in 0..reps {
        let mut server = ShardedServer::with_policy(SHARDS, AdmissionPolicy::LeastLoaded);
        let ids: Vec<_> = (0..BATCH).map(|_| server.join(m)).collect();
        if rep == 0 {
            for l in &mut logits {
                l.clear();
            }
        }
        let t0 = Instant::now();
        for t in 0..TICKS {
            let tickets: Vec<Ticket> = ids
                .iter()
                .enumerate()
                .map(|(s, &id)| server.submit(id, streams[s][t].clone()).unwrap())
                .collect();
            let report = server.tick(m);
            assert_eq!(report.served, BATCH);
            for ticket in tickets {
                let _ = server.poll(ticket).expect("contiguous ticket resolves in its tick");
            }
            if rep == 0 {
                for (s, &id) in ids.iter().enumerate() {
                    logits[s].push(server.last_logits(id).to_vec());
                }
            }
        }
        best = best.min(t0.elapsed().as_secs_f64());
        end_bytes = server.cache_bytes();
    }
    (logits, end_bytes, best)
}

#[test]
fn paged_memory_gate_b64_holds_budget_and_reanchors_to_reference() {
    let m = model(61);
    let obs = streams(12_000);
    let (_, contig_bytes, _) = contiguous_reference(&m, &obs, 1);

    // ~40% of the contiguous footprint: well past the one-full-session
    // floor, tight enough that the fleet cannot hold every prefix — the
    // guard must evict (and possibly defer) to serve the trace at all.
    let budget = (contig_bytes * 2 / 5).max(session_floor_bytes(&m.lm, 16));
    let lm = &m.lm;
    let pool = PagePool::for_model(lm, PageConfig { page_tokens: 16, budget_bytes: budget });
    let mut server = ShardedServer::with_memory(
        SHARDS,
        AdmissionPolicy::LeastLoaded,
        pool.clone(),
        EvictionPolicy::ColdestReanchor,
    );
    let ids: Vec<_> = (0..BATCH).map(|_| server.join(&m)).collect();

    let mut pending: Vec<VecDeque<Ticket>> = vec![VecDeque::new(); BATCH];
    let mut served: Vec<Vec<(u64, Vec<f32>)>> = vec![Vec::new(); BATCH];
    let mut evictions: Vec<(u64, u64)> = Vec::new();
    let mut deferrals = 0usize;
    let mut peak_bytes = 0usize;
    let mut ticks_run = 0u64;
    let drive = |server: &mut ShardedServer<NetLlmAbr>,
                 pending: &mut Vec<VecDeque<Ticket>>,
                 served: &mut Vec<Vec<(u64, Vec<f32>)>>,
                 evictions: &mut Vec<(u64, u64)>,
                 deferrals: &mut usize,
                 peak: &mut usize| {
        let report = server.tick(&m);
        assert!(
            report.memory.used_bytes <= budget,
            "tick {}: pool {}B over budget {budget}B",
            report.tick,
            report.memory.used_bytes
        );
        *peak = (*peak).max(report.memory.used_bytes);
        for &v in &report.memory.evicted {
            evictions.push((report.tick, v));
        }
        *deferrals += report.memory.deferred;
        for (s, q) in pending.iter_mut().enumerate() {
            if let Some(&front) = q.front() {
                if server.poll(front).is_some() {
                    q.pop_front();
                    served[s].push((report.tick, server.last_logits(ids[s]).to_vec()));
                }
            }
        }
        report.tick
    };
    for t in 0..TICKS {
        for (s, &id) in ids.iter().enumerate() {
            let ticket = server.submit(id, obs[s][t].clone()).expect("submit under the cap");
            pending[s].push_back(ticket);
        }
        ticks_run = drive(
            &mut server,
            &mut pending,
            &mut served,
            &mut evictions,
            &mut deferrals,
            &mut peak_bytes,
        );
    }
    // (c) no admission lost: deferred arrivals resolve on later ticks.
    for _ in 0..10 * TICKS {
        if pending.iter().all(VecDeque::is_empty) {
            break;
        }
        ticks_run = drive(
            &mut server,
            &mut pending,
            &mut served,
            &mut evictions,
            &mut deferrals,
            &mut peak_bytes,
        );
    }
    for (s, q) in pending.iter().enumerate() {
        assert!(q.is_empty(), "session {s} has unresolved tickets (admission lost)");
        assert_eq!(served[s].len(), TICKS, "session {s} lost decisions");
    }
    // (a) holds structurally; the gate demands the pressure was real.
    assert!(
        !evictions.is_empty(),
        "budget {budget}B (of {contig_bytes}B contiguous) must force evictions"
    );
    println!(
        "paged memory gate at B={BATCH}, K={SHARDS}: budget {budget}B held for {ticks_run} ticks \
         (peak {peak_bytes}B, {:.0}% of contiguous {contig_bytes}B), {} evictions, \
         {deferrals} deferrals",
        100.0 * peak_bytes as f64 / contig_bytes as f64,
        evictions.len()
    );
    drop(server);
    assert_eq!(pool.used_pages(), 0, "every page must be home after the fleet drops");

    // (b) evicted sessions re-anchor and converge: unbatched replay with
    // the scheduler's eviction points mirrored as forced clears.
    let mut evicted_sessions = 0usize;
    for (s, &id) in ids.iter().enumerate() {
        let was_evicted = evictions.iter().any(|&(_, v)| v == id);
        evicted_sessions += was_evicted as usize;
        let mut ep = m.new_slot(0);
        let mut sess = InferenceSession::new(&m.lm);
        let mut prev_tick = 0u64;
        for (i, o) in obs[s].iter().enumerate() {
            let (tick, want) = &served[s][i];
            if evictions.iter().any(|&(u, v)| v == id && u > prev_tick && u < *tick) {
                sess.clear();
            }
            let plan = m.plan_step(&mut ep, o, &sess);
            if plan.reanchor {
                sess.clear();
            }
            let hidden = sess.append(&m.lm, &m.store, &plan.tokens);
            let out = m.settle_step(&mut ep, o, &hidden);
            for (x, y) in out.logits.iter().zip(want) {
                assert!(
                    (x - y).abs() < 1e-5,
                    "session {s} step {i}: served {y} vs forced-clear replay {x}"
                );
            }
            prev_tick = *tick;
        }
    }
    assert!(evicted_sessions > 0, "at least one replayed session must have been evicted");
    println!("eviction convergence: {evicted_sessions}/{BATCH} sessions evicted, all at 1e-5");
}

#[test]
fn paged_throughput_at_b64_is_no_worse_than_contiguous() {
    let m = model(62);
    let obs = streams(13_000);
    let (contig_logits, contig_bytes, contig_best) = contiguous_reference(&m, &obs, 2);

    // Ample budget: 3x the contiguous footprint (plus page slack), so the
    // guard never fires and the comparison is pure data-path overhead.
    let pool = PagePool::for_model(
        &m.lm,
        PageConfig { page_tokens: 16, budget_bytes: 3 * contig_bytes + (1 << 20) },
    );
    let mut paged_best = f64::MAX;
    let mut paged_logits: Vec<Vec<Vec<f32>>> = vec![Vec::new(); BATCH];
    for rep in 0..2 {
        let mut server = ShardedServer::with_memory(
            SHARDS,
            AdmissionPolicy::LeastLoaded,
            pool.clone(),
            EvictionPolicy::ColdestReanchor,
        );
        let ids: Vec<_> = (0..BATCH).map(|_| server.join(&m)).collect();
        if rep == 0 {
            for l in &mut paged_logits {
                l.clear();
            }
        }
        let t0 = Instant::now();
        for t in 0..TICKS {
            let tickets: Vec<Ticket> = ids
                .iter()
                .enumerate()
                .map(|(s, &id)| server.submit(id, obs[s][t].clone()).unwrap())
                .collect();
            let report = server.tick(&m);
            assert_eq!(report.served, BATCH, "ample budget must not defer");
            assert!(report.memory.evicted.is_empty(), "ample budget must not evict");
            for ticket in tickets {
                let _ = server.poll(ticket).expect("ticket resolves in its tick");
            }
            if rep == 0 {
                for (s, &id) in ids.iter().enumerate() {
                    paged_logits[s].push(server.last_logits(id).to_vec());
                }
            }
        }
        paged_best = paged_best.min(t0.elapsed().as_secs_f64());
    }

    // Identical math first, then the timing bar.
    for s in 0..BATCH {
        for t in 0..TICKS {
            for (x, y) in contig_logits[s][t].iter().zip(&paged_logits[s][t]) {
                assert!((x - y).abs() < 1e-5, "stream {s} tick {t}: contiguous {x} vs paged {y}");
            }
        }
    }
    let decisions = (BATCH * TICKS) as f64;
    let ratio = contig_best / paged_best.max(1e-9);
    println!(
        "paged serving at B={BATCH}, K={SHARDS}: {:.1} dec/s vs contiguous {:.1} dec/s \
         ({ratio:.2}x)",
        decisions / paged_best,
        decisions / contig_best
    );
    assert!(
        ratio >= 0.9,
        "paged serving must stay within 10% of contiguous: contiguous {contig_best:.3}s vs \
         paged {paged_best:.3}s ({ratio:.2}x)"
    );
}
