//! Randomized trace-replay gate for continuous batching.
//!
//! A seeded RNG generates arrival/departure traces over a mixed
//! ABR + CJS + VP fleet — uniform and bursty interarrivals, mid-tick
//! joins, one-shot VP sessions, backlogged submissions (several queued
//! observations per session), departures that trigger rebalance-on-leave,
//! and CacheAware budget steering — and replays them through the
//! scheduled `submit → tick → poll` front end. Every session's served
//! actions and logits must match that adapter's unbatched
//! `InferenceSession` path at 1e-5: the queuing discipline may change
//! *when* a session advances, never *what* it answers.
//!
//! Traces are reproducible: the seed is printed (run the gate with
//! `--nocapture` so it lands in CI logs) and can be overridden with
//! `NT_TRACE_SEED=<decimal or 0xhex>` to replay a failing trace.
//!
//! The release-only half gates the scheduler's operational claims at
//! batch 64: `CacheAware` keeps every shard under its KV budget while the
//! queued path's aggregate throughput stays no worse than stepping the
//! same per-shard batches directly on K engines.

use netllm::{
    AdmissionPolicy, CjsObs, FleetAction, FleetObs, NetLlmAbr, NetLlmCjs, NetLlmFleet, NetLlmVp,
    ShardedServer, Ticket, FLEET_ABR, FLEET_CJS, FLEET_VP,
};
#[cfg(not(debug_assertions))]
use netllm::{ServingEngine, SessionId};
use nt_abr::{AbrObservation, AbrPolicy};
use nt_cjs::{generate_workload, run_workload, Scheduler, Srpt, WorkloadConfig};
use nt_llm::{size_spec, Zoo};
use nt_tensor::Rng;
use nt_vp::{extract_samples, generate, jin2022_like, DatasetSpec, VpSample};
use std::collections::VecDeque;

const DEFAULT_TRACE_SEED: u64 = 0xC01D_5EED;

/// The trace seed, `NT_TRACE_SEED` (decimal or `0x`-hex) overriding the
/// default — echoed by every trace test so a CI artifact pins the replay.
fn trace_seed() -> u64 {
    match std::env::var("NT_TRACE_SEED") {
        Ok(s) => {
            let s = s.trim();
            let parsed = match s.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse(),
            };
            parsed.unwrap_or_else(|_| panic!("unparseable NT_TRACE_SEED: {s:?}"))
        }
        Err(_) => DEFAULT_TRACE_SEED,
    }
}

fn record_cjs_obs(seed: u64) -> Vec<CjsObs> {
    let jobs = generate_workload(&WorkloadConfig { num_jobs: 6, mean_interarrival: 1.5, seed });
    let mut obs = Vec::new();
    let mut hook =
        |view: &nt_cjs::SchedView, _d: &nt_cjs::Decision| obs.push(CjsObs::from_view(view));
    run_workload(&mut Srpt, &jobs, 6, Some(&mut hook));
    obs
}

fn vp_samples() -> Vec<VpSample> {
    let ds = generate(&DatasetSpec { videos: 1, viewers: 2, secs: 20, ..jin2022_like() });
    extract_samples(&ds, &[0], &[0, 1], 10, 20, 5, 30)
}

struct Models {
    abr: NetLlmAbr,
    cjs: NetLlmCjs,
    vp: NetLlmVp,
}

fn build_models(window: usize) -> Models {
    let zoo = Zoo::new(std::env::temp_dir().join("netllm-continuous-batching"));
    let mut abr = NetLlmAbr::new(
        zoo.build_random(&size_spec("0.35b-sim")),
        netllm::AdaptMode::NoDomain,
        netllm::LoraSpec::default(),
        window,
        21,
    );
    abr.target_return = 2.0;
    let mut cjs = NetLlmCjs::new(
        zoo.build_random(&size_spec("0.35b-sim")),
        netllm::AdaptMode::NoDomain,
        netllm::LoraSpec::default(),
        window,
        22,
    );
    cjs.target_return = -1.0;
    let vp = NetLlmVp::new(
        zoo.build_random(&size_spec("0.35b-sim")),
        netllm::AdaptMode::NoDomain,
        netllm::LoraSpec::default(),
        8,
        23,
    );
    Models { abr, cjs, vp }
}

/// One persistent session's trace-side bookkeeping.
struct Sess {
    id: u64,
    /// `FLEET_ABR` or `FLEET_CJS` (VP one-shots are tracked separately).
    kind: usize,
    /// Index into the kind's stream pool.
    stream: usize,
    /// Next observation of the stream to submit.
    cursor: usize,
    /// Outstanding tickets, oldest first (FIFO per session).
    pending: VecDeque<Ticket>,
    /// Served `(action, logits)` in decision order.
    served: Vec<(FleetAction, Vec<f32>)>,
    alive: bool,
}

/// Replay one randomized trace through the scheduled front end and
/// compare every session against its unbatched reference. Returns the
/// event count (joins + submits + leaves).
fn run_trace(models: &mut Models, policy: AdmissionPolicy, bursty: bool, seed: u64) -> usize {
    const SHARDS: usize = 3;
    const TICKS: usize = 36;
    let pw = 6usize;

    let abr_streams: Vec<Vec<AbrObservation>> =
        (0..6).map(|s| AbrObservation::synthetic_stream(500 + s as u64, 30)).collect();
    let cjs_streams: Vec<Vec<CjsObs>> = (0..3).map(|s| record_cjs_obs(700 + s as u64)).collect();
    for (s, st) in cjs_streams.iter().enumerate() {
        assert!(st.len() >= 10, "CJS probe stream {s} too short: {}", st.len());
    }
    let samples = vp_samples();

    let mut rng = Rng::seeded(seed);
    let mut events = 0usize;
    let mut sessions: Vec<Sess> = Vec::new();
    let mut vp_served: Vec<(usize, Vec<f32>)> = Vec::new(); // (sample idx, logits)
    let mut next_abr = 0usize;
    let mut next_cjs = 0usize;

    {
        fn join_sess<'m>(
            server: &mut ShardedServer<NetLlmFleet<'m>>,
            fleet: &NetLlmFleet<'m>,
            sessions: &mut Vec<Sess>,
            kind: usize,
            stream: usize,
        ) {
            let id = server.join_group(fleet, kind);
            sessions.push(Sess {
                id,
                kind,
                stream,
                cursor: 0,
                pending: VecDeque::new(),
                served: Vec::new(),
                alive: true,
            });
        }
        let fleet = NetLlmFleet { abr: &models.abr, cjs: &models.cjs, vp: &models.vp };
        let mut server = ShardedServer::with_policy(SHARDS, policy);
        // Seed population: two ABR streams and one CJS stream.
        for _ in 0..2 {
            join_sess(&mut server, &fleet, &mut sessions, FLEET_ABR, next_abr);
            next_abr += 1;
            events += 1;
        }
        join_sess(&mut server, &fleet, &mut sessions, FLEET_CJS, next_cjs);
        next_cjs += 1;
        events += 1;

        let mut vp_in_flight: Vec<(u64, Ticket, usize)> = Vec::new();
        for tick in 0..TICKS {
            // Mid-stream joins, while the stream pools last.
            if rng.chance(0.25) && next_abr < abr_streams.len() {
                join_sess(&mut server, &fleet, &mut sessions, FLEET_ABR, next_abr);
                next_abr += 1;
                events += 1;
            }
            if rng.chance(0.15) && next_cjs < cjs_streams.len() {
                join_sess(&mut server, &fleet, &mut sessions, FLEET_CJS, next_cjs);
                next_cjs += 1;
                events += 1;
            }
            // One-shot VP sessions: join, ask, answer within this tick.
            if rng.chance(0.5) {
                let sample = rng.below(samples.len());
                let id = server.join_group(&fleet, FLEET_VP);
                let t = server
                    .submit(
                        id,
                        FleetObs::Vp(netllm::VpQuery { sample: samples[sample].clone(), pw }),
                    )
                    .expect("VP submit under the cap");
                vp_in_flight.push((id, t, sample));
                events += 1;
            }

            // Arrivals: uniform traces submit each session's next obs with
            // high probability; bursty traces alternate quiet windows with
            // bursts that backlog 2 observations at once (served across
            // the following ticks, FIFO).
            for s in sessions.iter_mut().filter(|s| s.alive) {
                let stream_len = match s.kind {
                    FLEET_ABR => abr_streams[s.stream].len(),
                    _ => cjs_streams[s.stream].len(),
                };
                let n = if bursty {
                    let burst = (tick / 3) % 2 == 1;
                    if burst && rng.chance(0.9) {
                        2
                    } else if !burst && rng.chance(0.15) {
                        1
                    } else {
                        0
                    }
                } else if rng.chance(0.8) {
                    1
                } else {
                    0
                };
                for _ in 0..n {
                    if s.cursor >= stream_len {
                        break;
                    }
                    let obs = match s.kind {
                        FLEET_ABR => FleetObs::Abr(abr_streams[s.stream][s.cursor].clone()),
                        _ => FleetObs::Cjs(cjs_streams[s.stream][s.cursor].clone()),
                    };
                    let t = server.submit(s.id, obs).expect("submit under the cap");
                    s.pending.push_back(t);
                    s.cursor += 1;
                    events += 1;
                }
            }

            let report = server.tick(&fleet);
            // A tick cycle never steers a session twice (the report is
            // deduplicated by construction; length-check the claim).
            let mut steered = report.steered.clone();
            steered.sort_unstable();
            steered.dedup();
            assert_eq!(steered.len(), report.steered.len(), "double steer: {report:?}");
            // CacheAware must hold every shard under its budget whenever
            // the budget is comfortably feasible fleet-wide.
            if let Some(budget) = policy.kv_budget() {
                let bytes = server.cache_bytes_per_shard();
                if server.cache_bytes() * 4 <= budget * SHARDS * 3 {
                    assert!(
                        bytes.iter().all(|&b| b <= budget),
                        "tick {tick}: shard over feasible KV budget {budget}: {bytes:?}"
                    );
                }
            }

            // Harvest: at most one decision per session per tick, FIFO.
            for s in sessions.iter_mut().filter(|s| s.alive) {
                if let Some(&front) = s.pending.front() {
                    if let Some(action) = server.poll(front) {
                        s.pending.pop_front();
                        s.served.push((action, server.last_logits(s.id).to_vec()));
                    }
                    if let Some(&second) = s.pending.front() {
                        assert!(
                            server.poll(second).is_none(),
                            "session {} served two decisions in one tick",
                            s.id
                        );
                    }
                }
            }
            for (id, t, sample) in std::mem::take(&mut vp_in_flight) {
                let _ = server.poll(t).expect("one-shot VP must answer within its tick");
                vp_served.push((sample, server.last_logits(id).to_vec()));
                assert!(server.leave(id).is_clean(), "a polled one-shot leaves nothing behind");
            }

            // Departures: only sessions with no outstanding work may
            // leave (leaving would drop their queued tickets).
            if rng.chance(0.2) {
                let idle: Vec<usize> = sessions
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.alive && s.pending.is_empty() && !s.served.is_empty())
                    .map(|(i, _)| i)
                    .collect();
                // Keep at least two persistent sessions live.
                if idle.len() >= 3 {
                    let victim = idle[rng.below(idle.len())];
                    let report = server.leave(sessions[victim].id);
                    assert!(report.is_clean(), "idle departures leave nothing behind");
                    sessions[victim].alive = false;
                    events += 1;
                }
            }
        }

        // Drain the backlog so every ticket resolves (no ticket lost).
        for _ in 0..64 {
            if sessions.iter().all(|s| s.pending.is_empty()) {
                break;
            }
            let _ = server.tick(&fleet);
            for s in sessions.iter_mut().filter(|s| s.alive) {
                if let Some(&front) = s.pending.front() {
                    if let Some(action) = server.poll(front) {
                        s.pending.pop_front();
                        s.served.push((action, server.last_logits(s.id).to_vec()));
                    }
                }
            }
        }
        for s in &sessions {
            assert!(s.pending.is_empty(), "session {} has unresolved tickets", s.id);
            assert_eq!(s.served.len(), s.cursor, "session {} lost decisions", s.id);
        }
    }

    // ---- unbatched references: the scheduler may change *when*, never
    // *what* ------------------------------------------------------------
    for s in &sessions {
        match s.kind {
            FLEET_ABR => {
                models.abr.reset();
                for (i, o) in abr_streams[s.stream][..s.served.len()].iter().enumerate() {
                    let act = models.abr.select(o);
                    let (sact, slogits) = &s.served[i];
                    assert_eq!(
                        act,
                        sact.clone().abr(),
                        "ABR stream {} step {i}: scheduled action diverged",
                        s.stream
                    );
                    for (x, y) in models.abr.last_logits().iter().zip(slogits) {
                        assert!(
                            (x - y).abs() < 1e-5,
                            "ABR stream {} step {i}: scheduled {y} vs unbatched {x}",
                            s.stream
                        );
                    }
                }
            }
            _ => {
                models.cjs.reset();
                for (i, o) in cjs_streams[s.stream][..s.served.len()].iter().enumerate() {
                    let d = models.cjs.decide_obs(o);
                    let (sact, slogits) = &s.served[i];
                    let sd = sact.clone().cjs();
                    assert_eq!(
                        (d.candidate, d.cap),
                        (sd.candidate, sd.cap),
                        "CJS stream {} step {i}: scheduled decision diverged",
                        s.stream
                    );
                    for (x, y) in models.cjs.last_logits().iter().zip(slogits) {
                        assert!(
                            (x - y).abs() < 1e-5,
                            "CJS stream {} step {i}: scheduled {y} vs unbatched {x}",
                            s.stream
                        );
                    }
                }
            }
        }
    }
    for (i, (sample, slogits)) in vp_served.iter().enumerate() {
        let v = models.vp.forward_eval(&samples[*sample], pw);
        assert_eq!(v.data().len(), slogits.len());
        for (x, y) in v.data().iter().zip(slogits) {
            assert!((x - y).abs() < 1e-5, "VP query {i}: scheduled {y} vs unbatched {x}");
        }
    }
    events
}

#[test]
fn uniform_trace_least_loaded_matches_unbatched_paths() {
    let seed = trace_seed();
    println!("continuous-batching uniform trace seed: {seed} (0x{seed:x})");
    let mut models = build_models(3);
    let events = run_trace(&mut models, AdmissionPolicy::LeastLoaded, false, seed);
    println!("uniform trace replayed {events} events");
    assert!(events >= 200, "trace too small to gate anything: {events} events");
}

#[test]
fn bursty_trace_cache_aware_matches_unbatched_paths() {
    let seed = trace_seed() ^ 0x0B00_57ED;
    println!("continuous-batching bursty trace seed: {seed} (0x{seed:x})");
    let mut models = build_models(3);
    // A small per-shard budget keeps the steering pass live through the
    // whole trace (sessions hold a few KB of KV each at this scale).
    let policy = AdmissionPolicy::CacheAware { budget_bytes: 96 * 1024 };
    let events = run_trace(&mut models, policy, true, seed);
    println!("bursty trace replayed {events} events");
    assert!(events >= 200, "trace too small to gate anything: {events} events");
}

/// Step every engine with a non-empty batch, fanning the busy engines
/// out over the kernel pool in contiguous bands — the fan-out
/// `ShardedServer::tick` runs its shards on.
#[cfg(not(debug_assertions))]
#[allow(clippy::type_complexity)]
fn step_fanned_out(
    engines: &mut [ServingEngine<NetLlmAbr>],
    m: &NetLlmAbr,
    per: &[Vec<(SessionId, &AbrObservation)>],
) {
    use std::sync::Mutex;
    let mut busy: Vec<(&mut ServingEngine<NetLlmAbr>, &[(SessionId, &AbrObservation)])> = engines
        .iter_mut()
        .zip(per)
        .filter(|(_, b)| !b.is_empty())
        .map(|(e, b)| (e, b.as_slice()))
        .collect();
    // One band per worker; with one worker `run_tasks` runs inline.
    let band_len = busy.len().div_ceil(nt_tensor::pool::num_threads().min(busy.len()));
    let bands: Vec<Mutex<Option<&mut [(&mut ServingEngine<NetLlmAbr>, &[_])]>>> =
        busy.chunks_mut(band_len).map(|band| Mutex::new(Some(band))).collect();
    nt_tensor::pool::run_tasks(bands.len(), |bi| {
        let band = bands[bi].lock().unwrap().take().expect("engine band dispatched twice");
        for (e, b) in band.iter_mut() {
            let _ = e.step(m, b);
        }
    });
}

/// Release-only operational gate at batch 64 (debug codegen distorts the
/// kernels the timing half measures — CI runs `cargo test --release -p
/// nt-bench --test continuous_batching`): the queued front end must match
/// the direct per-shard engine steps exactly-enough (1e-5), `CacheAware`
/// must keep every shard under its KV budget after every tick, and queued
/// aggregate throughput must be no worse than the direct steps (0.9x
/// noise floor — both sides run identical flops on the same pool
/// fan-out; the queue adds bookkeeping only).
#[cfg(not(debug_assertions))]
#[test]
#[allow(clippy::needless_range_loop)]
fn cache_aware_holds_budget_at_batch_64_without_losing_throughput() {
    use std::time::Instant;
    const BATCH: usize = 64;
    const SHARDS: usize = 4;
    let ticks = 10usize;
    let zoo = Zoo::new(std::env::temp_dir().join("netllm-continuous-batching"));
    let mut m = NetLlmAbr::new(
        zoo.build_random(&size_spec("7b-sim")),
        netllm::AdaptMode::NoDomain,
        netllm::LoraSpec::default(),
        8,
        31,
    );
    m.target_return = 2.0;
    let streams: Vec<Vec<AbrObservation>> =
        (0..BATCH).map(|s| AbrObservation::synthetic_stream(9000 + s as u64, ticks)).collect();

    // ---- direct baseline: the hash router's per-shard batches stepped
    // on K bare engines. Returns (seconds, logits, final KV bytes). ------
    let router = ShardedServer::<NetLlmAbr>::new(SHARDS);
    let home: Vec<usize> = (0..BATCH).map(|s| router.home_shard(s as u64)).collect();
    let run_direct = |record: bool| -> (f64, Vec<Vec<Vec<f32>>>, usize) {
        let mut engines: Vec<ServingEngine<NetLlmAbr>> =
            (0..SHARDS).map(|_| ServingEngine::new()).collect();
        let locals: Vec<SessionId> = home.iter().map(|&k| engines[k].join(&m)).collect();
        let mut logits: Vec<Vec<Vec<f32>>> = vec![Vec::new(); BATCH];
        let t0 = Instant::now();
        for t in 0..ticks {
            let mut per: Vec<Vec<(SessionId, &AbrObservation)>> = vec![Vec::new(); SHARDS];
            for s in 0..BATCH {
                per[home[s]].push((locals[s], &streams[s][t]));
            }
            step_fanned_out(&mut engines, &m, &per);
            if record {
                for s in 0..BATCH {
                    logits[s].push(engines[home[s]].last_logits(locals[s]).to_vec());
                }
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        (secs, logits, engines.iter().map(ServingEngine::cache_bytes).sum())
    };

    // ---- queued path: submit all, tick, poll. Returns (seconds, logits).
    let run_queued = |budget: usize, record: bool| -> (f64, Vec<Vec<Vec<f32>>>) {
        let mut server = ShardedServer::with_policy(
            SHARDS,
            AdmissionPolicy::CacheAware { budget_bytes: budget },
        );
        let ids: Vec<_> = (0..BATCH).map(|_| server.join(&m)).collect();
        let mut logits: Vec<Vec<Vec<f32>>> = vec![Vec::new(); BATCH];
        let t0 = Instant::now();
        for t in 0..ticks {
            let tickets: Vec<_> = ids
                .iter()
                .enumerate()
                .map(|(s, &id)| server.submit(id, streams[s][t].clone()).unwrap())
                .collect();
            let report = server.tick(&m);
            assert_eq!(report.served, BATCH);
            let bytes = server.cache_bytes_per_shard();
            assert!(
                bytes.iter().all(|&b| b <= budget),
                "tick {t}: shard over KV budget {budget}: {bytes:?} (steered {:?})",
                report.steered
            );
            for ticket in tickets {
                let _ = server.poll(ticket).expect("ticket must resolve after its tick");
            }
            if record {
                for (s, &id) in ids.iter().enumerate() {
                    logits[s].push(server.last_logits(id).to_vec());
                }
            }
        }
        (t0.elapsed().as_secs_f64(), logits)
    };

    // One recording run per side (doubling as warm-up), then REPS timed
    // runs interleaved direct/queued so machine drift hits both sides;
    // each side's best run is its estimate.
    const REPS: usize = 9;
    let (_, direct_logits, final_total_bytes) = run_direct(true);
    // Budget: 1.5x a perfectly balanced shard at end-of-run size —
    // feasible throughout, tight enough that hash-placement skew and
    // growth keep the steering pass honest.
    let budget = final_total_bytes / SHARDS * 3 / 2;
    let (_, queued_logits) = run_queued(budget, true);
    let (mut direct_best, mut queued_best) = (f64::MAX, f64::MAX);
    for _ in 0..REPS {
        direct_best = direct_best.min(run_direct(false).0);
        queued_best = queued_best.min(run_queued(budget, false).0);
    }

    // Queued serving and the direct engine steps are the same math.
    for s in 0..BATCH {
        for t in 0..ticks {
            for (x, y) in queued_logits[s][t].iter().zip(&direct_logits[s][t]) {
                assert!((x - y).abs() < 1e-5, "stream {s} tick {t}: queued {x} vs direct {y}");
            }
        }
    }

    let decisions = (BATCH * ticks) as f64;
    let ratio = direct_best / queued_best.max(1e-9);
    println!(
        "continuous batching at B={BATCH}, K={SHARDS}: queued {:.1} dec/s vs direct {:.1} dec/s \
         ({ratio:.2}x), KV budget {budget} B/shard held for {ticks} ticks",
        decisions / queued_best,
        decisions / direct_best
    );
    assert!(
        ratio >= 0.9,
        "queued serving must be no worse than the direct engine steps: direct \
         {direct_best:.3}s vs queued {queued_best:.3}s ({ratio:.2}x)"
    );
}
