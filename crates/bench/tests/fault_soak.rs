//! Standing adversarial fault-soak gate.
//!
//! Every [`nt_bench::TraceShape`] drives a mixed ABR + CJS (+ VP
//! one-shot) fleet on a paged 3-shard server while a seeded fault
//! schedule kills, stalls, poisons and batch-drops around it — including
//! a mid-tick kill with arrivals in flight, a double-kill that leaves a
//! single survivor (heavy-tail trace), and a kill aimed at the shard a
//! flash crowd was just pinned to. The invariants, per trace:
//!
//! - **no ticket hangs** — once the queues drain, every ticket issued is
//!   `Served` or `Failed` (or was explicitly handed back by `leave`);
//! - **replay fidelity** — each session's served logits equal the
//!   unbatched no-fault replay of exactly its served observations at
//!   1e-5 (poisoned/dropped observations are excluded on both sides —
//!   the episode log never consumed them);
//! - **no page leaks** — `used + free == capacity` at every tick across
//!   salvage, re-admission and capacity retirement.
//!
//! Trace seeds come from `NT_TRACE_SEED` and are echoed (run with
//! `--nocapture`; CI tees the log) so any failure is replayable.
//!
//! Release builds additionally gate **bounded degradation**: a B=64
//! session fleet on K=4 shards loses one shard mid-run and must return
//! to full per-tick service within declaration latency + slack, with
//! post-recovery throughput >= 0.9x a (K-1)-shard baseline's steady
//! state (the frozen `reports/BENCH_7.json` holds one run's timeline).

use netllm::{
    AdaptMode, AdmissionPolicy, CjsObs, EvictionPolicy, FaultPlan, FleetObs, HealthConfig,
    InferenceSession, LoraSpec, NetLlmAbr, NetLlmCjs, NetLlmFleet, NetLlmVp, RollbackPlan,
    ServedTask, ShardedServer, SubmitRetry, Ticket, TicketStatus, VpQuery, FLEET_ABR, FLEET_CJS,
    FLEET_VP,
};
use nt_abr::AbrObservation;
use nt_bench::{trace_seed, Trace, TraceConfig, TraceShape};
use nt_cjs::{generate_workload, run_workload, Srpt, WorkloadConfig};
use nt_llm::{size_spec, PageConfig, PagePool, Zoo};
use nt_tensor::Rng;
use nt_vp::{extract_samples, generate, jin2022_like, DatasetSpec, VpSample};
use std::collections::VecDeque;

const DEFAULT_SOAK_SEED: u64 = 0xFA17_5EED; // stable default
/// Pooled-value width of the VP one-shot queries (and their references).
const VP_PW: usize = 6;

#[cfg(debug_assertions)]
const SCALE: (usize, u64, usize) = (12, 24, 120); // (sessions, ticks, event floor)
#[cfg(not(debug_assertions))]
const SCALE: (usize, u64, usize) = (18, 36, 200);

fn record_cjs_obs(seed: u64) -> Vec<CjsObs> {
    let jobs = generate_workload(&WorkloadConfig { num_jobs: 8, mean_interarrival: 1.2, seed });
    let mut obs = Vec::new();
    let mut hook =
        |view: &nt_cjs::SchedView, _d: &nt_cjs::Decision| obs.push(CjsObs::from_view(view));
    run_workload(&mut Srpt, &jobs, 8, Some(&mut hook));
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
    let zoo = Zoo::new(std::env::temp_dir().join("netllm-fault-soak"));
    let mut abr = NetLlmAbr::new(
        zoo.build_random(&size_spec("0.35b-sim")),
        AdaptMode::NoDomain,
        LoraSpec::default(),
        window,
        51,
    );
    abr.target_return = 2.0;
    let mut cjs = NetLlmCjs::new(
        zoo.build_random(&size_spec("0.35b-sim")),
        AdaptMode::NoDomain,
        LoraSpec::default(),
        window,
        52,
    );
    cjs.target_return = -1.0;
    let vp = NetLlmVp::new(
        zoo.build_random(&size_spec("0.35b-sim")),
        AdaptMode::NoDomain,
        LoraSpec::default(),
        8,
        53,
    );
    Models { abr, cjs, vp }
}

/// One trace session's soak-side bookkeeping.
struct Sess {
    /// Joined id while alive (`None` before join and after leave).
    id: Option<u64>,
    /// The id ever granted — survives the leave, keys the clear log.
    gid: Option<u64>,
    /// `FLEET_ABR` or `FLEET_CJS`.
    kind: usize,
    /// Observations demanded by the trace so far.
    want: usize,
    /// Observations actually submitted (stream cursor).
    sent: usize,
    /// Outstanding `(obs index, ticket)`, oldest first.
    open: VecDeque<(usize, Ticket)>,
    /// `(obs index, tick, logits)` in serve order.
    served: Vec<(usize, u64, Vec<f32>)>,
    /// Observation indices whose tickets resolved `Failed`.
    failed: Vec<usize>,
    retry: SubmitRetry,
}

struct SoakOutcome {
    events: usize,
    kills: usize,
    tickets_failed: u64,
}

/// Replay one trace shape under its fault schedule and check every
/// invariant. Returns the event tally for the >= floor assertion.
#[allow(clippy::needless_range_loop)]
fn run_soak(models: &Models, vp_refs: &[Vec<f32>], shape: TraceShape, seed: u64) -> SoakOutcome {
    const SHARDS: usize = 3;
    const POOL_PAGES: usize = 80;
    let (sessions, ticks, _) = SCALE;
    // Flash-crowd backgrounds are deliberately quiet and heavy-tailed
    // lifetimes are mostly short — double the population so those traces
    // still clear the adversarial event floor.
    let sessions = match shape {
        TraceShape::FlashCrowd | TraceShape::HeavyTail => sessions * 2,
        _ => sessions,
    };
    let fleet = NetLlmFleet { abr: &models.abr, cjs: &models.cjs, vp: &models.vp };
    let trace = Trace::generate(&TraceConfig { shape, ticks, sessions, seed });
    let mut rng = Rng::seeded(seed ^ 0xD15A_57E5);

    let abr_streams: Vec<Vec<AbrObservation>> = (0..sessions)
        .map(|s| AbrObservation::synthetic_stream(seed ^ (1000 + s as u64), ticks as usize))
        .collect();
    let cjs_streams: Vec<Vec<CjsObs>> =
        (0..sessions).map(|s| record_cjs_obs(seed ^ (2000 + s as u64))).collect();
    let samples = vp_samples();
    let pw = VP_PW;

    // Fault schedule: every shape gets a seeded stall plus lazily
    // injected poison/drop-batch events; the kill pattern is the
    // adversarial part that varies per shape.
    let survivors = if shape == TraceShape::HeavyTail { 1 } else { 2 };
    let crowd_target = 0usize;
    let kill_plan = match shape {
        // The crowd is pinned onto `crowd_target` at join; kill exactly
        // that shard mid-tick two ticks into the hot window.
        TraceShape::FlashCrowd => FaultPlan::new().kill(trace.crowd_tick + 2, crowd_target),
        // Double-kill down to a single survivor.
        TraceShape::HeavyTail => FaultPlan::random_kills(seed, SHARDS, 1, 5, ticks * 2 / 3),
        _ => FaultPlan::random_kills(seed, SHARDS, 2, 5, ticks * 2 / 3),
    };
    let expected_kills = SHARDS - survivors;
    let stall_shard = rng.below(SHARDS);
    // Keep the poison clear of every kill's declaration window so it
    // deterministically lands on a healthy shard (a poison aimed at a
    // dying shard is consumed without firing — unmirrorable noise).
    let kill_ticks: Vec<u64> = kill_plan.events().iter().map(|e| e.at_tick).collect();
    let mut poison_tick = 0u64;
    for _ in 0..32 {
        let cand = 4 + rng.below((ticks / 2) as usize) as u64;
        if kill_ticks.iter().all(|&k| cand + 1 < k || cand > k + 3) {
            poison_tick = cand;
            break;
        }
    }
    let drop_tick = 4 + rng.below((ticks / 2) as usize) as u64;
    println!(
        "fault soak [{}]: seed {seed} (0x{seed:x}), kills {:?}, stall shard {stall_shard} @2, \
         poison @{poison_tick}, drop-batch @{drop_tick}",
        shape.label(),
        kill_plan.events()
    );

    let pool = PagePool::for_model(
        &models.abr.lm,
        PageConfig { page_tokens: 8, budget_bytes: POOL_PAGES * 768 },
    );
    let mut server: ShardedServer<NetLlmFleet> = ShardedServer::with_memory(
        SHARDS,
        AdmissionPolicy::LeastLoaded,
        pool.clone(),
        EvictionPolicy::ColdestReanchor,
    );
    server.set_health_config(HealthConfig::fast());
    server.inject(kill_plan);
    server.inject(FaultPlan::new().stall(2, stall_shard, 1));

    let mut sess: Vec<Sess> = (0..sessions)
        .map(|s| Sess {
            id: None,
            gid: None,
            kind: if s % 3 == 2 { FLEET_CJS } else { FLEET_ABR },
            want: 0,
            sent: 0,
            open: VecDeque::new(),
            served: Vec::new(),
            failed: Vec::new(),
            retry: SubmitRetry::new(),
        })
        .collect();
    // VP one-shots: `(sample idx, id, ticket once submitted, retry)`.
    let mut vp_open: Vec<(usize, u64, Option<Ticket>, SubmitRetry)> = Vec::new();
    let mut vp_served: Vec<(usize, Vec<f32>)> = Vec::new();
    let mut next_vp = 0usize;
    let mut events = 0usize;
    let mut kills = 0usize;
    // `(tick, global id)` of every KV drop the server performed — crash,
    // eviction or poison. The reference replay mirrors these clears: the
    // repo's recovery contract is "equal a session that re-anchored at
    // that tick" (see `ServingEngine::evict`), not the untouched natural
    // replay, because the ABR/CJS anchor slides to wherever the rebuild
    // happened.
    let mut clears: Vec<(u64, u64)> = Vec::new();

    let stream_len = |s: &Sess, i: usize| match s.kind {
        FLEET_CJS => cjs_streams[i].len(),
        _ => abr_streams[i].len(),
    };
    let obs_of = |kind: usize, i: usize, cursor: usize| -> FleetObs {
        match kind {
            FLEET_CJS => FleetObs::Cjs(cjs_streams[i][cursor].clone()),
            _ => FleetObs::Abr(abr_streams[i][cursor].clone()),
        }
    };

    for t in 1..=(ticks + 80) {
        let draining = t > ticks;
        if !draining {
            // Trace joins (flash-crowd members are pinned to the shard
            // the kill schedule targets).
            for s in 0..sessions {
                if trace.sessions[s].join_tick == t {
                    let id = server.join_group(&fleet, sess[s].kind);
                    if trace.crowd.contains(&s) && server.shard_of(id) != crowd_target {
                        server.steer(id, crowd_target);
                    }
                    sess[s].id = Some(id);
                    sess[s].gid = Some(id);
                    events += 1;
                }
            }
            // Trace leaves: outstanding work is handed back, not lost —
            // drop those tickets from the open set (their observations
            // never reached the episode log).
            for s in 0..sessions {
                if trace.sessions[s].leave_tick == t {
                    if let Some(id) = sess[s].id.take() {
                        let report = server.leave(id);
                        let dropped: Vec<Ticket> =
                            report.dropped_arrivals.iter().map(|&(tk, _)| tk).collect();
                        let polled: Vec<Ticket> =
                            report.unpolled.iter().map(|&(tk, _)| tk).collect();
                        sess[s]
                            .open
                            .retain(|(_, tk)| !dropped.contains(tk) && !polled.contains(tk));
                        assert!(sess[s].open.is_empty(), "leave left dangling tickets");
                        events += 1;
                    }
                }
            }
            // Trace demand.
            for &s in trace.submits_at(t) {
                if sess[s].id.is_some() && sess[s].want < stream_len(&sess[s], s) {
                    sess[s].want += 1;
                }
            }
            // A VP one-shot joins every few ticks, right through the
            // fault windows.
            if t % 4 == 2 {
                let id = server.join_group(&fleet, FLEET_VP);
                vp_open.push((next_vp % samples.len(), id, None, SubmitRetry::new()));
                next_vp += 1;
                events += 1;
            }
            // Lazily injected faults against live targets. The poison
            // victim must sit on a healthy shard or the fault is
            // swallowed (and its KV drop would be unmirrorable).
            if t == poison_tick {
                let healthy = server.healthy_shards();
                let live: Vec<u64> = sess
                    .iter()
                    .filter_map(|x| x.id)
                    .filter(|&id| healthy.contains(&server.shard_of(id)))
                    .collect();
                if !live.is_empty() {
                    let victim = live[rng.below(live.len())];
                    server.inject(FaultPlan::new().poison(t, victim));
                    clears.push((t, victim));
                    events += 1;
                }
            }
            if t == drop_tick {
                let healthy = server.healthy_shards();
                if !healthy.is_empty() {
                    let shard = healthy[rng.below(healthy.len())];
                    server.inject(FaultPlan::new().drop_batch(t, shard));
                    events += 1;
                }
            }
        }

        // Submit everything demanded (bursts may queue several arrivals
        // behind one session; the drain serves them FIFO one per tick).
        for s in 0..sessions {
            let Some(id) = sess[s].id else { continue };
            while sess[s].sent < sess[s].want && sess[s].retry.ready(t) {
                match server.submit(id, obs_of(sess[s].kind, s, sess[s].sent)) {
                    Ok(ticket) => {
                        let cursor = sess[s].sent;
                        sess[s].open.push_back((cursor, ticket));
                        sess[s].sent += 1;
                        sess[s].retry.succeeded();
                        events += 1;
                    }
                    Err(e) => {
                        sess[s].retry.refused(t, &e);
                        break;
                    }
                }
            }
        }
        for (k, id, ticket, retry) in vp_open.iter_mut() {
            if ticket.is_none() && retry.ready(t) {
                match server.submit(*id, FleetObs::Vp(VpQuery { sample: samples[*k].clone(), pw }))
                {
                    Ok(tk) => {
                        *ticket = Some(tk);
                        retry.succeeded();
                        events += 1;
                    }
                    Err(e) => retry.refused(t, &e),
                }
            }
        }

        // Shard homes before the tick: a kill this tick drops the KV of
        // exactly the sessions homed on the dead shard.
        let homes: Vec<(u64, usize)> =
            sess.iter().filter_map(|x| x.id.map(|id| (id, server.shard_of(id)))).collect();
        let report = server.tick(&fleet);
        kills += report.faults.killed.len();
        events += report.faults.killed.len()
            + report.faults.stalled.len()
            + report.faults.tickets_failed as usize;
        for &dead in &report.faults.killed {
            clears.extend(homes.iter().filter(|&&(_, h)| h == dead).map(|&(id, _)| (t, id)));
        }
        for &v in &report.memory.evicted {
            clears.push((t, v));
        }
        let stats = server.pool_stats().expect("soak fleet is paged");
        assert_eq!(
            stats.used_pages + stats.free_pages,
            stats.capacity_pages,
            "tick {t}: pool accounting broke under faults"
        );

        // Poll every open ticket (FIFO per session).
        for s in 0..sessions {
            let Some(id) = sess[s].id else { continue };
            while let Some(&(i, ticket)) = sess[s].open.front() {
                match server.poll_status(ticket) {
                    TicketStatus::Served(_) => {
                        sess[s].served.push((i, t, server.last_logits(id).to_vec()));
                        sess[s].open.pop_front();
                    }
                    TicketStatus::Failed => {
                        sess[s].failed.push(i);
                        sess[s].open.pop_front();
                    }
                    TicketStatus::Requeued | TicketStatus::Pending => break,
                }
            }
        }
        vp_open.retain_mut(|(k, id, ticket, _)| {
            let Some(tk) = *ticket else { return true };
            match server.poll_status(tk) {
                TicketStatus::Served(_) => {
                    vp_served.push((*k, server.last_logits(*id).to_vec()));
                    let _ = server.leave(*id);
                    false
                }
                TicketStatus::Failed => {
                    let _ = server.leave(*id);
                    false
                }
                TicketStatus::Requeued | TicketStatus::Pending => true,
            }
        });

        if draining
            && sess.iter().all(|x| x.open.is_empty())
            && vp_open.iter().all(|(_, _, tk, _)| tk.is_none())
        {
            break;
        }
    }

    // --- Invariant 1: no ticket hangs. -------------------------------
    for (s, x) in sess.iter().enumerate() {
        assert!(
            x.open.is_empty(),
            "[{}] session {s}: {} tickets never resolved",
            shape.label(),
            x.open.len()
        );
    }
    assert!(
        vp_open.iter().all(|(_, _, tk, _)| tk.is_none()),
        "[{}] VP one-shot tickets never resolved",
        shape.label()
    );
    let snap = server.metrics().snapshot();
    assert_eq!(snap.faults.shard_kills as usize, kills, "declarations match observed kills");
    assert_eq!(kills, expected_kills, "[{}] kill schedule must land fully", shape.label());
    drop(server);
    assert_eq!(pool.used_pages(), 0, "[{}] pages leaked after the server dropped", shape.label());

    // --- Invariant 2: served logits equal an unbatched replay of
    // exactly the served observations, with the server's KV drops
    // (crashes, evictions, poisons) mirrored as forced clears — the
    // recovery-equals-eviction contract at 1e-5. ----------------------
    for (s, x) in sess.iter().enumerate() {
        if x.served.is_empty() {
            continue;
        }
        let order: Vec<usize> = x.served.iter().map(|&(i, _, _)| i).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted, "[{}] session {s} served out of FIFO order", shape.label());
        let gid = x.gid.expect("a served session was joined");
        // Clear before the first obs served after each KV drop.
        let cleared_between =
            |prev: u64, tick: u64| clears.iter().any(|&(u, id)| id == gid && u > prev && u <= tick);
        match x.kind {
            FLEET_CJS => {
                let m = &models.cjs;
                let mut ep = m.new_slot(0);
                let mut is = InferenceSession::new(&m.lm);
                let mut prev = 0u64;
                for (n, &(i, tick, ref want)) in x.served.iter().enumerate() {
                    let o = &cjs_streams[s][i];
                    if cleared_between(prev, tick) {
                        is.clear();
                    }
                    let plan = m.plan_step(&mut ep, o, &is);
                    if plan.reanchor {
                        is.clear();
                    }
                    let hidden = is.append(&m.lm, &m.store, &plan.tokens);
                    let out = m.settle_step(&mut ep, o, &hidden);
                    if let Some(RollbackPlan { drop_rows, post_tokens }) = out.rollback {
                        is.truncate(is.len() - drop_rows);
                        let _ = is.append(&m.lm, &m.store, &post_tokens);
                    }
                    for (a, b) in out.logits.iter().zip(want) {
                        assert!(
                            (a - b).abs() < 1e-5,
                            "[{}] CJS session {s} serve {n} (obs {i}): replay {a} vs served {b}",
                            shape.label()
                        );
                    }
                    prev = tick;
                }
            }
            _ => {
                let m = &models.abr;
                let mut ep = m.new_slot(0);
                let mut is = InferenceSession::new(&m.lm);
                let mut prev = 0u64;
                for (n, &(i, tick, ref want)) in x.served.iter().enumerate() {
                    let o = &abr_streams[s][i];
                    if cleared_between(prev, tick) {
                        is.clear();
                    }
                    let plan = m.plan_step(&mut ep, o, &is);
                    if plan.reanchor {
                        is.clear();
                    }
                    let hidden = is.append(&m.lm, &m.store, &plan.tokens);
                    let out = m.settle_step(&mut ep, o, &hidden);
                    for (a, b) in out.logits.iter().zip(want) {
                        assert!(
                            (a - b).abs() < 1e-5,
                            "[{}] ABR session {s} serve {n} (obs {i}): replay {a} vs served {b}",
                            shape.label()
                        );
                    }
                    prev = tick;
                }
            }
        }
    }
    for (n, (k, got)) in vp_served.iter().enumerate() {
        for (a, b) in vp_refs[*k].iter().zip(got) {
            assert!(
                (a - b).abs() < 1e-5,
                "[{}] VP one-shot {n} (sample {k}): unbatched {a} vs served {b}",
                shape.label()
            );
        }
    }

    SoakOutcome { events, kills, tickets_failed: snap.faults.tickets_failed }
}

#[test]
fn adversarial_soak_over_every_trace_shape() {
    let (sessions, ticks, floor) = SCALE;
    let base = trace_seed(DEFAULT_SOAK_SEED);
    println!("fault soak base seed: {base} (0x{base:x}), {sessions} sessions x {ticks} ticks");
    let mut models = build_models(3);
    // VP one-shot references, computed once up front (`forward_eval`
    // needs `&mut`; the soak runs against a shared `&Models`).
    let vp_refs: Vec<Vec<f32>> =
        vp_samples().iter().map(|s| models.vp.forward_eval(s, VP_PW).data().to_vec()).collect();
    let mut total = 0usize;
    for (i, shape) in TraceShape::ALL.into_iter().enumerate() {
        let outcome = run_soak(&models, &vp_refs, shape, base ^ ((i as u64) << 8));
        println!(
            "fault soak [{}]: {} events, {} kills, {} failed tickets — all resolved",
            shape.label(),
            outcome.events,
            outcome.kills,
            outcome.tickets_failed
        );
        assert!(
            outcome.events >= floor,
            "[{}] trace too small to gate anything: {} events < {floor}",
            shape.label(),
            outcome.events
        );
        total += outcome.events;
    }
    println!("fault soak total: {total} events across {} shapes", TraceShape::ALL.len());
}

/// Bounded degradation under permanent capacity loss (release-only: the
/// timing half measures kernels debug codegen would distort). B=64
/// sessions on K=4 shards; one shard dies mid-tick at tick 8. Gates:
/// service returns to B decisions/tick within declaration latency +
/// slack, and the post-recovery window's throughput is >= 0.9x a
/// 3-shard baseline's steady state.
#[cfg(not(debug_assertions))]
#[test]
fn single_shard_kill_degrades_boundedly_at_b64() {
    use std::time::{Duration, Instant};

    const B: usize = 64;
    const K: usize = 4;
    const STEPS: usize = 16;
    const KILL_TICK: u64 = 8;
    const SLACK: u64 = 6;

    let loaded =
        Zoo::new(std::env::temp_dir().join("netllm-fault-soak")).build_random(&size_spec("7b-sim"));
    let mut m = NetLlmAbr::new(loaded, AdaptMode::NoDomain, LoraSpec::default(), 8, 54);
    m.target_return = 2.0;
    let streams: Vec<Vec<AbrObservation>> =
        (0..B).map(|s| AbrObservation::synthetic_stream(3000 + s as u64, STEPS)).collect();

    // (K-1)-shard baseline steady state: best per-tick wall clock at
    // full service over the *last* six ticks — the same session ages the
    // faulted run's post-recovery window sees (decode cost grows with
    // context length, so comparing early baseline ticks against late
    // recovered ticks would overstate the degradation). The best tick
    // measures achievable capacity; means absorb scheduler noise on a
    // shared machine. Best of 2 runs.
    let baseline = |shards: usize| -> Duration {
        let mut best = Duration::MAX;
        for _ in 0..2 {
            let mut server = ShardedServer::with_policy(shards, AdmissionPolicy::LeastLoaded);
            let ids: Vec<_> = (0..B).map(|_| server.join(&m)).collect();
            for t in 0..STEPS {
                for (s, &id) in ids.iter().enumerate() {
                    let _ = server.submit(id, streams[s][t].clone()).expect("healthy submit");
                }
                let start = Instant::now();
                let report = server.tick(&m);
                let dt = start.elapsed();
                assert_eq!(report.served, B);
                if t >= STEPS - 6 {
                    best = best.min(dt);
                }
            }
        }
        best
    };

    // Faulted run: kill one shard mid-tick, ride the dip, then measure
    // the recovered window. Returns (recovery tick, declared tick,
    // best post-recovery per-tick wall clock at full service).
    let faulted = || -> (u64, u64, Duration) {
        let mut server = ShardedServer::with_policy(K, AdmissionPolicy::LeastLoaded);
        server.set_health_config(HealthConfig::fast());
        let ids: Vec<_> = (0..B).map(|_| server.join(&m)).collect();
        let victim = server.shard_of(ids[0]);
        server.inject(FaultPlan::new().kill(KILL_TICK, victim));
        let mut retry: Vec<SubmitRetry> = (0..B).map(|_| SubmitRetry::new()).collect();
        let mut sent = vec![0usize; B];
        let mut open: Vec<VecDeque<Ticket>> = vec![VecDeque::new(); B];
        let mut declared = 0u64;
        let mut recovered = 0u64;
        let mut window = Duration::MAX;
        let mut window_ticks = 0u32;
        for t in 1..=(STEPS as u64 + 24) {
            for s in 0..B {
                while sent[s] < (t as usize).min(STEPS) && retry[s].ready(t) {
                    match server.submit(ids[s], streams[s][sent[s]].clone()) {
                        Ok(ticket) => {
                            open[s].push_back(ticket);
                            sent[s] += 1;
                            retry[s].succeeded();
                        }
                        Err(e) => {
                            retry[s].refused(t, &e);
                            break;
                        }
                    }
                }
            }
            let start = Instant::now();
            let report = server.tick(&m);
            let dt = start.elapsed();
            if !report.faults.declared_dead.is_empty() {
                declared = t;
            }
            if declared > 0 && recovered == 0 && report.served == B {
                recovered = t;
            }
            if recovered > 0 && t > recovered && window_ticks < 6 && report.served == B {
                window = window.min(dt);
                window_ticks += 1;
            }
            for q in open.iter_mut() {
                while let Some(&ticket) = q.front() {
                    match server.poll_status(ticket) {
                        TicketStatus::Served(_) => {
                            q.pop_front();
                        }
                        TicketStatus::Failed => panic!("a clean kill must not fail tickets"),
                        _ => break,
                    }
                }
            }
            if sent.iter().all(|&n| n == STEPS) && open.iter().all(VecDeque::is_empty) {
                break;
            }
        }
        assert!(open.iter().all(VecDeque::is_empty), "tickets hung after the kill");
        assert!(declared > 0, "the kill was never declared");
        assert!(recovered > 0, "service never returned to B decisions/tick");
        assert!(window_ticks > 0, "no full-service window after recovery");
        (recovered, declared, window)
    };

    let base = baseline(K - 1);
    let (r1, d1, w1) = faulted();
    let (r2, d2, w2) = faulted();
    let (recovered, declared, window) = if w1 <= w2 { (r1, d1, w1) } else { (r2, d2, w2) };
    let latency = recovered - KILL_TICK;
    let ratio = base.as_secs_f64() / window.as_secs_f64().max(1e-9);
    println!(
        "degradation gate: kill @{KILL_TICK}, declared @{declared}, full service @{recovered} \
         (latency {latency} ticks); post-recovery {window:?}/tick vs 3-shard baseline \
         {base:?}/tick ({ratio:.2}x)"
    );
    let declare_latency = declared - KILL_TICK;
    assert!(
        latency <= declare_latency + SLACK,
        "recovery took {latency} ticks (declaration {declare_latency} + slack {SLACK} allowed)"
    );
    assert!(
        ratio >= 0.9,
        "post-recovery throughput fell below 0.9x the (K-1)-shard steady state: \
         {window:?}/tick vs {base:?}/tick ({ratio:.2}x)"
    );
}
