//! Acceptance gates for the sharded fleet: CJS and VP served through
//! `ShardedServer`'s `submit → tick → poll` front end must match their unbatched `InferenceSession` paths at
//! 1e-5 (the CJS path exercises a candidate-token rollback inside every
//! batched step; ABR equivalence incl. steer/rebalance lives with the
//! router's unit tests), and on hosts where the shard fan-out can engage
//! (>= 4 pool workers on >= 4 hardware threads) a multi-shard fleet must
//! beat one shard's aggregate decision throughput.
//!
//! The logits-equivalence half always runs. The timing half is
//! release-only (debug codegen distorts the kernels it measures — CI runs
//! `cargo test --release -p nt-bench --test sharded_serving`). Per-shard
//! math is identical across shard counts, so on narrow hosts the honest
//! expectation is parity: there the gate enforces no-regression and
//! prints the measured ratio.

use netllm::{
    AdaptMode, CjsObs, GlobalSessionId, LoraSpec, NetLlmCjs, NetLlmVp, ServedTask, ShardedServer,
    VpQuery,
};
use nt_cjs::{generate_workload, run_workload, Scheduler, Srpt, WorkloadConfig};
use nt_llm::{size_spec, Zoo};
use nt_vp::{extract_samples, generate, jin2022_like, DatasetSpec, VpSample};
use std::time::Instant;

fn cjs_model(label: &str, window: usize, seed: u64) -> NetLlmCjs {
    let loaded =
        Zoo::new(std::env::temp_dir().join("sharded-serving-test")).build_random(&size_spec(label));
    let mut m = NetLlmCjs::new(loaded, AdaptMode::NoDomain, LoraSpec::default(), window, seed);
    m.target_return = -1.0;
    m
}

/// Decision-time observations recorded once with an existing scheduler;
/// replaying them open-loop lets batched and unbatched paths see the
/// exact same inputs.
fn record_cjs_obs(seed: u64, executors: usize) -> Vec<CjsObs> {
    let jobs = generate_workload(&WorkloadConfig { num_jobs: 4, mean_interarrival: 1.5, seed });
    let mut obs = Vec::new();
    let mut hook =
        |view: &nt_cjs::SchedView, _d: &nt_cjs::Decision| obs.push(CjsObs::from_view(view));
    run_workload(&mut Srpt, &jobs, executors, Some(&mut hook));
    obs
}

/// Submit one observation per session, run one tick, and poll every
/// ticket: the actions come back in `reqs` order.
fn serve_once<T>(
    server: &mut ShardedServer<T>,
    task: &T,
    reqs: Vec<(GlobalSessionId, T::Obs)>,
) -> Vec<T::Action>
where
    T: ServedTask + Sync,
    T::Obs: Sync,
    T::Slot: Send,
    T::Action: Send,
{
    let n = reqs.len();
    let tickets: Vec<_> = reqs
        .into_iter()
        .map(|(id, obs)| server.submit(id, obs).unwrap_or_else(|_| panic!("submit refused")))
        .collect();
    assert_eq!(server.tick(task).served, n, "one tick serves one arrival per session");
    tickets.into_iter().map(|t| server.poll(t).expect("served ticket must resolve")).collect()
}

#[test]
#[allow(clippy::needless_range_loop)]
fn sharded_cjs_matches_unbatched_rollouts_with_rollback() {
    // Six scheduling sessions across two shards: every tick appends
    // candidate tokens, rolls them back inside the batched step, and
    // re-appends the chosen action — and must still match the unbatched
    // decide_obs() replay chunk for chunk, across re-anchors.
    let window = 3usize;
    let mut m = cjs_model("0.35b-sim", window, 0x31);
    let streams: Vec<Vec<CjsObs>> = (0..6).map(|s| record_cjs_obs(40 + s as u64, 6)).collect();
    let ticks = streams.iter().map(Vec::len).min().unwrap().min(10);
    assert!(ticks > 2 * window, "probe must cross a re-anchor: only {ticks} ticks");

    let mut server = ShardedServer::new(2);
    let ids: Vec<_> = streams.iter().map(|_| server.join(&m)).collect();
    let mut served: Vec<Vec<(usize, usize, Vec<f32>)>> = vec![Vec::new(); streams.len()];
    for t in 0..ticks {
        let reqs: Vec<_> =
            ids.iter().enumerate().map(|(s, &id)| (id, streams[s][t].clone())).collect();
        let decisions = serve_once(&mut server, &m, reqs);
        for ((s, &id), d) in ids.iter().enumerate().zip(decisions) {
            served[s].push((d.candidate, d.cap, server.last_logits(id).to_vec()));
        }
    }
    drop(server);

    for (s, obs) in streams.iter().enumerate() {
        m.reset();
        for (t, o) in obs[..ticks].iter().enumerate() {
            let d = m.decide_obs(o);
            let (cand, cap, logits) = &served[s][t];
            assert_eq!(d.candidate, *cand, "stream {s} tick {t}: stage diverged");
            assert_eq!(d.cap, *cap, "stream {s} tick {t}: cap diverged");
            for (x, y) in m.last_logits().iter().zip(logits) {
                assert!((x - y).abs() < 1e-5, "stream {s} tick {t}: sharded {y} vs unbatched {x}");
            }
        }
    }
}

#[test]
fn sharded_vp_one_shot_slots_match_unbatched_eval() {
    // VP sessions join, answer once, and leave; the batched answers must
    // equal the unbatched one-shot eval at 1e-5.
    let loaded = Zoo::new(std::env::temp_dir().join("sharded-serving-test"))
        .build_random(&size_spec("0.35b-sim"));
    let mut m = NetLlmVp::new(loaded, AdaptMode::NoDomain, LoraSpec::default(), 8, 0x32);
    let ds = generate(&DatasetSpec { videos: 1, viewers: 2, secs: 20, ..jin2022_like() });
    let samples: Vec<VpSample> = extract_samples(&ds, &[0], &[0, 1], 10, 20, 5, 30);
    let pw = 6usize;

    let mut server = ShardedServer::new(2);
    let mut served: Vec<Vec<f32>> = Vec::new();
    for round in 0..3 {
        // Four one-shot slots per round, answered in one fleet tick.
        let ids: Vec<_> = (0..4).map(|_| server.join(&m)).collect();
        let queries: Vec<VpQuery> = (0..4)
            .map(|i| VpQuery { sample: samples[(4 * round + i) % samples.len()].clone(), pw })
            .collect();
        let reqs: Vec<_> = ids.iter().copied().zip(queries).collect();
        let _ = serve_once(&mut server, &m, reqs);
        for &id in &ids {
            served.push(server.last_logits(id).to_vec());
            let _ = server.leave(id);
        }
        assert_eq!(server.active(), 0, "one-shot slots must all be gone");
    }
    drop(server);

    for (i, logits) in served.iter().enumerate() {
        let v = m.forward_eval(&samples[i % samples.len()], pw);
        for (x, y) in v.data().iter().zip(logits) {
            assert!((x - y).abs() < 1e-5, "query {i}: sharded {y} vs unbatched {x}");
        }
    }
}

#[test]
#[allow(clippy::needless_range_loop)]
fn multi_shard_fleet_beats_single_shard_aggregate_throughput() {
    // Aggregate decision throughput of a CJS fleet (rollback pass in
    // every tick) at batch 16: K shards stepping on NT_THREADS workers
    // vs the same fleet behind one shard. Multi-shard and single-shard
    // answers are identical (checked below); the timing bar binds where
    // the fan-out can engage.
    const BATCH: usize = 16;
    let mut m = cjs_model("7b-sim", 8, 0x33);
    m.target_return = -1.0;
    let streams: Vec<Vec<CjsObs>> = (0..BATCH).map(|s| record_cjs_obs(900 + s as u64, 8)).collect();
    let ticks = streams.iter().map(Vec::len).min().unwrap().min(16);

    let workers = nt_tensor::pool::num_threads();
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let k = workers.clamp(2, 4);

    let run = |shards: usize| -> (std::time::Duration, Vec<Vec<Vec<f32>>>) {
        let mut best = std::time::Duration::MAX;
        let mut logits: Vec<Vec<Vec<f32>>> = vec![Vec::new(); BATCH];
        for _ in 0..2 {
            let mut server = ShardedServer::new(shards);
            let ids: Vec<_> = (0..BATCH).map(|_| server.join(&m)).collect();
            for l in logits.iter_mut() {
                l.clear();
            }
            let start = Instant::now();
            for t in 0..ticks {
                let reqs: Vec<_> =
                    ids.iter().enumerate().map(|(s, &id)| (id, streams[s][t].clone())).collect();
                let _ = serve_once(&mut server, &m, reqs);
                for (s, &id) in ids.iter().enumerate() {
                    logits[s].push(server.last_logits(id).to_vec());
                }
            }
            best = best.min(start.elapsed());
        }
        (best, logits)
    };
    // Warm-up (allocator, zoo weights already built above).
    let _ = run(1);
    let (single, single_logits) = run(1);
    let (sharded, sharded_logits) = run(k);

    // Same answers regardless of shard count.
    for s in 0..BATCH {
        for t in 0..ticks {
            for (x, y) in sharded_logits[s][t].iter().zip(&single_logits[s][t]) {
                assert!((x - y).abs() < 1e-5, "stream {s} tick {t}: {k}-shard {x} vs 1-shard {y}");
            }
        }
    }

    let speedup = single.as_secs_f64() / sharded.as_secs_f64().max(1e-9);
    let decisions = (BATCH * ticks) as f64;
    println!(
        "sharded CJS fleet at B={BATCH}: {k} shards {:.1} dec/s vs 1 shard {:.1} dec/s \
         ({speedup:.2}x, {workers} workers on {hw} hw threads)",
        decisions / sharded.as_secs_f64(),
        decisions / single.as_secs_f64()
    );
    #[cfg(not(debug_assertions))]
    if workers >= 4 && hw >= 4 {
        assert!(
            speedup >= 1.05,
            "{k} shards on {workers} workers must beat one shard's aggregate throughput: \
             sharded {sharded:?} vs single {single:?} ({speedup:.2}x)"
        );
    } else {
        assert!(
            speedup >= 0.85,
            "sharding regressed vs one shard on a {hw}-thread host: \
             sharded {sharded:?} vs single {single:?} ({speedup:.2}x)"
        );
    }
}
