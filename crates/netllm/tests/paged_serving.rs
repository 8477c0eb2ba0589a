//! Paged KV-cache serving: the memory subsystem end to end.
//!
//! - **Bit-compatibility:** a mixed ABR+CJS+VP fleet served from a page
//!   pool (ample budget) must reproduce the contiguous fleet's logits
//!   exactly — across CJS candidate rollbacks, ABR 2x-window re-anchors,
//!   a mid-stream migration and VP join/answer/leave churn.
//! - **Eviction:** under a deliberately tight budget the scheduled front
//!   end must hold pool bytes ≤ budget at every tick (hard, by
//!   construction), evict coldest-first, and every evicted session must
//!   re-anchor to exactly the logits of an unbatched replay that clears
//!   its session at the same points.
//! - **Deferral:** when eviction is disabled and a tick's demand exceeds
//!   the pool, drained arrivals are deferred (tickets stay pending) and
//!   resolve on later ticks — nothing is lost, nothing grows past the
//!   budget.
//! - **`plan_rows` exactness:** every adapter's declared row demand must
//!   equal what `plan_step` actually appends, including the
//!   evicted-session branch (that is what the memory guard reserves by).
//! - **`rebuild_rows` exactness:** the eviction price every adapter
//!   quotes must equal the extra rows the re-anchor replay actually
//!   appends (`plan_rows(cleared) − plan_rows(intact)`), and 0 when the
//!   next step re-anchors regardless — `CheapestRebuild` is only as
//!   honest as these quotes.
//! - **Victim protection:** the guard never evicts a session whose
//!   arrival is in the current drained batch; when every page holder is
//!   in the batch, the sacrifice is chosen by eviction-policy order
//!   (sparing the oldest arrival), never the just-deferred youngest.

use netllm::{
    AdaptMode, AdmissionPolicy, CjsObs, EvictionPolicy, FleetObs, FleetSlot, InferenceSession,
    LoraSpec, NetLlmAbr, NetLlmCjs, NetLlmFleet, NetLlmVp, RollbackPlan, ServedTask, ShardedServer,
    Ticket, VpQuery, FLEET_ABR, FLEET_CJS, FLEET_VP,
};
use nt_abr::AbrObservation;
use nt_cjs::{generate_workload, run_workload, Srpt, WorkloadConfig};
use nt_llm::{size_spec, PageConfig, PagePool, Zoo};
use nt_vp::{extract_samples, generate, jin2022_like, DatasetSpec, VpSample};
use std::collections::VecDeque;

fn record_cjs_obs(seed: u64) -> Vec<CjsObs> {
    let jobs = generate_workload(&WorkloadConfig { num_jobs: 4, mean_interarrival: 1.5, seed });
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
    let zoo = Zoo::new(std::env::temp_dir().join("netllm-paged-serving"));
    let mut abr = NetLlmAbr::new(
        zoo.build_random(&size_spec("0.35b-sim")),
        AdaptMode::NoDomain,
        LoraSpec::default(),
        window,
        31,
    );
    abr.target_return = 2.0;
    let mut cjs = NetLlmCjs::new(
        zoo.build_random(&size_spec("0.35b-sim")),
        AdaptMode::NoDomain,
        LoraSpec::default(),
        window,
        32,
    );
    cjs.target_return = -1.0;
    let vp = NetLlmVp::new(
        zoo.build_random(&size_spec("0.35b-sim")),
        AdaptMode::NoDomain,
        LoraSpec::default(),
        8,
        33,
    );
    Models { abr, cjs, vp }
}

/// Paged (ample budget) vs contiguous mixed fleet, same trace, same
/// mid-stream migration: logits must agree at 1e-5 tick for tick, and
/// every page must be home once the fleet drops.
#[test]
fn paged_mixed_fleet_matches_contiguous_including_migration() {
    let window = 3usize;
    let ticks = 8usize;
    let m = build_models(window);
    let fleet = NetLlmFleet { abr: &m.abr, cjs: &m.cjs, vp: &m.vp };

    let abr_streams: Vec<Vec<AbrObservation>> =
        (0..2).map(|s| AbrObservation::synthetic_stream(170 + s as u64, ticks)).collect();
    let cjs_obs = record_cjs_obs(19);
    assert!(cjs_obs.len() >= ticks, "CJS probe too short: {}", cjs_obs.len());
    let samples = vp_samples();
    let pw = 6usize;

    let pool = PagePool::for_model(&m.abr.lm, PageConfig { page_tokens: 8, budget_bytes: 1 << 20 });
    let mut all_logits: Vec<Vec<Vec<f32>>> = Vec::new(); // [run][tick*stream]
    for paged in [false, true] {
        let mut server = if paged {
            ShardedServer::with_memory(
                2,
                AdmissionPolicy::HashRoute,
                pool.clone(),
                EvictionPolicy::ColdestReanchor,
            )
        } else {
            ShardedServer::new(2)
        };
        let abr_ids: Vec<_> = (0..2).map(|_| server.join_group(&fleet, FLEET_ABR)).collect();
        let cjs_id = server.join_group(&fleet, FLEET_CJS);
        let mut logits: Vec<Vec<f32>> = Vec::new();
        for tick in 0..ticks {
            if tick == 3 {
                // Migration mid-stream: park/admit must stay bit-identical
                // in both memory modes (the KV cache moves as it is: every
                // shard draws from the same pool, or none does).
                let dest = 1 - server.shard_of(abr_ids[0]);
                server.steer(abr_ids[0], dest);
            }
            let vp_id = server.join_group(&fleet, FLEET_VP);
            let requests = [
                (abr_ids[0], FleetObs::Abr(abr_streams[0][tick].clone())),
                (
                    vp_id,
                    FleetObs::Vp(VpQuery { sample: samples[tick % samples.len()].clone(), pw }),
                ),
                (cjs_id, FleetObs::Cjs(cjs_obs[tick].clone())),
                (abr_ids[1], FleetObs::Abr(abr_streams[1][tick].clone())),
            ];
            let ids: Vec<_> = requests.iter().map(|&(id, _)| id).collect();
            let mut tickets: Vec<_> =
                requests.into_iter().map(|(id, o)| server.submit(id, o).unwrap()).collect();
            // A pooled fleet may defer an arrival; tick until each resolves
            // (every tick serves at least the oldest arrival).
            for _ in 0..ids.len() {
                let _ = server.tick(&fleet);
                tickets.retain(|&t| server.poll(t).is_none());
                if tickets.is_empty() {
                    break;
                }
            }
            assert!(tickets.is_empty(), "tick {tick}: deferred tickets never resolved");
            for &id in &ids {
                logits.push(server.last_logits(id).to_vec());
            }
            let _ = server.leave(vp_id);
            if paged {
                let stats = server.pool_stats().expect("memory fleet exposes its pool");
                assert!(stats.used_pages > 0, "tick {tick}: paged fleet holds pages");
                assert_eq!(
                    stats.used_pages + stats.free_pages,
                    stats.capacity_pages,
                    "pool accounting must balance"
                );
            }
        }
        drop(server);
        all_logits.push(logits);
    }
    assert!(ticks > 2 * window, "trace must cross the ABR re-anchor");
    for (i, (a, b)) in all_logits[0].iter().zip(&all_logits[1]).enumerate() {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-5, "answer {i}: contiguous {x} vs paged {y}");
        }
    }
    assert_eq!(pool.used_pages(), 0, "every page must be home after the fleet drops");
}

/// Tight budget, scheduled front end: pool bytes ≤ budget every tick,
/// evictions fire coldest-first, and every session — evicted or not —
/// matches an unbatched replay that clears its session exactly where the
/// scheduler did.
#[test]
fn eviction_under_pressure_reanchors_to_the_forced_clear_reference() {
    let window = 3usize;
    let steps = 10usize;
    const B: usize = 6;
    let m = build_models(window);

    let streams: Vec<Vec<AbrObservation>> =
        (0..B).map(|s| AbrObservation::synthetic_stream(900 + s as u64, steps)).collect();

    // One full-context session exactly (the `for_model` floor): 1 layer x
    // ceil(160/8) = 20 pages. Six growing sessions want ~24-36, so the
    // guard must evict to fit — the pressure this test is about.
    let pool =
        PagePool::for_model(&m.abr.lm, PageConfig { page_tokens: 8, budget_bytes: 20 * 768 });
    let budget = 20 * 768;
    let mut server = ShardedServer::with_memory(
        2,
        AdmissionPolicy::LeastLoaded,
        pool.clone(),
        EvictionPolicy::ColdestReanchor,
    );
    let ids: Vec<_> = (0..B).map(|_| server.join(&m.abr)).collect();

    let mut pending: Vec<VecDeque<Ticket>> = vec![VecDeque::new(); B];
    let mut served: Vec<Vec<(u64, Vec<f32>)>> = vec![Vec::new(); B]; // (tick, logits)
    let mut evictions: Vec<(u64, u64)> = Vec::new(); // (tick, session)
    let mut deferrals = 0usize;
    let harvest = |server: &mut ShardedServer<NetLlmAbr>,
                   pending: &mut Vec<VecDeque<Ticket>>,
                   served: &mut Vec<Vec<(u64, Vec<f32>)>>,
                   tick: u64| {
        for (s, q) in pending.iter_mut().enumerate() {
            if let Some(&front) = q.front() {
                if let Some(_action) = server.poll(front) {
                    q.pop_front();
                    served[s].push((tick, server.last_logits(ids[s]).to_vec()));
                }
            }
        }
    };
    #[allow(clippy::needless_range_loop)]
    for step in 0..steps {
        for (s, &id) in ids.iter().enumerate() {
            let t = server.submit(id, streams[s][step].clone()).expect("submit under the cap");
            pending[s].push_back(t);
        }
        let report = server.tick(&m.abr);
        assert!(
            report.memory.used_bytes <= budget,
            "tick {}: pool {}B over budget {budget}B",
            report.tick,
            report.memory.used_bytes
        );
        assert!(
            pool.used_bytes() <= budget,
            "the pool itself can never exceed its budget (hard bound)"
        );
        for &v in &report.memory.evicted {
            evictions.push((report.tick, v));
        }
        deferrals += report.memory.deferred;
        harvest(&mut server, &mut pending, &mut served, report.tick);
    }
    // Drain the deferral backlog: every ticket must resolve.
    for _ in 0..40 {
        if pending.iter().all(VecDeque::is_empty) {
            break;
        }
        let report = server.tick(&m.abr);
        assert!(report.memory.used_bytes <= budget);
        for &v in &report.memory.evicted {
            evictions.push((report.tick, v));
        }
        harvest(&mut server, &mut pending, &mut served, report.tick);
    }
    for (s, q) in pending.iter().enumerate() {
        assert!(q.is_empty(), "session {s} has unresolved tickets (admission lost)");
        assert_eq!(served[s].len(), steps, "session {s} lost decisions");
    }
    assert!(!evictions.is_empty(), "the tight budget must actually force evictions");
    println!(
        "eviction gate (debug scale): {} evictions, {deferrals} deferrals across {B} sessions",
        evictions.len()
    );
    drop(server);
    assert_eq!(pool.used_pages(), 0);

    // ---- unbatched replay, clearing exactly where the scheduler evicted:
    // the evicted sessions must re-anchor to the same logits at 1e-5.
    for (s, &id) in ids.iter().enumerate() {
        let mut ep = m.abr.new_slot(0);
        let mut sess = InferenceSession::new(&m.abr.lm);
        let mut prev_tick = 0u64;
        for (i, o) in streams[s].iter().enumerate() {
            let (tick, want) = &served[s][i];
            if evictions.iter().any(|&(u, v)| v == id && u > prev_tick && u < *tick) {
                sess.clear(); // mirror the eviction: re-anchor from scratch
            }
            let plan = m.abr.plan_step(&mut ep, o, &sess);
            if plan.reanchor {
                sess.clear();
            }
            let hidden = sess.append(&m.abr.lm, &m.abr.store, &plan.tokens);
            let out = m.abr.settle_step(&mut ep, o, &hidden);
            assert_eq!(out.logits.len(), want.len());
            for (x, y) in out.logits.iter().zip(want) {
                assert!(
                    (x - y).abs() < 1e-5,
                    "session {s} step {i}: served {y} vs forced-clear replay {x}"
                );
            }
            prev_tick = *tick;
        }
    }
}

/// Eviction disabled: a burst whose page demand exceeds the pool defers
/// the youngest arrivals (admission backpressure), serves them on later
/// ticks, and never loses a ticket or exceeds the budget.
#[test]
fn full_pool_defers_admission_instead_of_growing() {
    let m = build_models(3);
    let samples = vp_samples();
    let pw = 6usize;
    // 20 pages (the one-full-session floor); each VP query wants 3
    // (4 saliency patches + 9 history deltas + 6 query tokens = 19 rows
    // at 8/page), so 8 one-shot queries (24 pages) cannot all fit in one
    // tick — the youngest must defer.
    let budget = 20 * 768;
    let pool = PagePool::for_model(&m.vp.lm, PageConfig { page_tokens: 8, budget_bytes: budget });
    let mut server = ShardedServer::with_memory(
        2,
        AdmissionPolicy::LeastLoaded,
        pool.clone(),
        EvictionPolicy::None,
    );

    let mut open: Vec<(u64, Ticket)> = Vec::new();
    for q in 0..8 {
        let id = server.join(&m.vp);
        let ticket = server
            .submit(id, VpQuery { sample: samples[q % samples.len()].clone(), pw })
            .expect("submit under the queue cap");
        open.push((id, ticket));
    }
    let first = server.tick(&m.vp);
    assert!(first.memory.deferred > 0, "the burst must overflow the pool and defer");
    assert!(first.served > 0, "deferral must not starve the whole tick");
    assert_eq!(first.served + first.pending, 8, "deferred arrivals stay queued");
    assert!(first.memory.used_bytes <= budget);

    let mut answered = 0usize;
    for _ in 0..10 {
        open.retain(|&(id, ticket)| {
            // One-shot sessions leave as soon as they answer, freeing
            // their pages for the deferred arrivals behind them.
            if server.poll(ticket).is_some() {
                let report = server.leave(id);
                assert!(report.is_clean());
                answered += 1;
                false
            } else {
                true
            }
        });
        if open.is_empty() {
            break;
        }
        let report = server.tick(&m.vp);
        assert!(report.memory.used_bytes <= budget, "budget must hold while draining");
    }
    assert_eq!(answered, 8, "every deferred ticket must eventually resolve");
    assert_eq!(pool.used_pages(), 0, "one-shots left; every page is home");
}

/// A pool below the one-full-context-session floor is rejected at join
/// time with sizing guidance — below it, a session's re-anchor rebuild
/// could exceed the whole pool with nothing to evict, and the queued
/// front end would defer its arrival forever. `PagePool::for_model`
/// checks one backbone; the join-time assert covers pools built with
/// `PagePool::new` and heterogeneous fleets whose other backbones were
/// never validated.
#[test]
#[should_panic(expected = "page pool too small")]
fn joining_a_pool_below_the_session_floor_panics() {
    let m = build_models(3);
    // 5 pages; one full-context 0.35b-sim session needs 20.
    let pool =
        PagePool::new(m.abr.lm.cfg.d_model, PageConfig { page_tokens: 8, budget_bytes: 5 * 768 });
    let mut server = ShardedServer::with_memory(
        1,
        AdmissionPolicy::LeastLoaded,
        pool,
        EvictionPolicy::ColdestReanchor,
    );
    let _ = server.join(&m.abr);
}

/// Regression: a lone session that grows until its next plan must
/// re-anchor, while holding essentially the whole pool, must not wedge
/// admission. The guard pre-releases a re-anchoring session's pages (the
/// rebuild never reads them), so the rebuild always fits — without that,
/// demand (charged from empty) exceeds the free list forever, the
/// arrival defers every tick, and its ticket never resolves.
#[test]
fn reanchoring_giant_session_cannot_wedge_the_pool() {
    // Window 13: the context fills (`fits` fails near step 25) before the
    // 2x-window re-anchor would trigger (step 26), so the session holds
    // 19 of 20 pool pages at the exact tick its plan needs a 10-page
    // rebuild.
    let zoo = Zoo::new(std::env::temp_dir().join("netllm-paged-serving"));
    let mut m = NetLlmAbr::new(
        zoo.build_random(&size_spec("0.35b-sim")),
        AdaptMode::NoDomain,
        LoraSpec::default(),
        13,
        34,
    );
    m.target_return = 2.0;
    let pool = PagePool::for_model(&m.lm, PageConfig { page_tokens: 8, budget_bytes: 20 * 768 });
    let mut server = ShardedServer::with_memory(
        1,
        AdmissionPolicy::LeastLoaded,
        pool.clone(),
        EvictionPolicy::ColdestReanchor,
    );
    let id = server.join(&m);
    let stream = AbrObservation::synthetic_stream(601, 27);
    let mut max_held = 0usize;
    for (i, o) in stream.iter().enumerate() {
        let ticket = server.submit(id, o.clone()).expect("submit under the cap");
        let mut resolved = false;
        for _ in 0..6 {
            let report = server.tick(&m);
            assert!(report.memory.used_bytes <= 20 * 768);
            if server.poll(ticket).is_some() {
                resolved = true;
                break;
            }
        }
        assert!(resolved, "step {i}: ticket wedged — re-anchor rebuild never admitted");
        max_held = max_held.max(pool.used_pages());
    }
    assert!(max_held >= 19, "probe must actually fill the pool (held {max_held}/20)");
}

/// The adapters' `plan_rows` must predict `plan_step` exactly — rows and
/// clear flag — including the evicted-session (empty cache) branch. The
/// memory guard's reservations are only as sound as these counts.
#[test]
fn plan_rows_matches_actual_plan_for_every_adapter() {
    let window = 3usize;
    let m = build_models(window);

    // ---- ABR: incremental, natural re-anchor, and post-eviction steps --
    let stream = AbrObservation::synthetic_stream(501, 14);
    let mut ep = m.abr.new_slot(0);
    let mut sess = InferenceSession::new(&m.abr.lm);
    let mut reanchors = 0usize;
    for (i, o) in stream.iter().enumerate() {
        if i == 9 {
            sess.clear(); // simulated eviction mid-stream
        }
        let (rows, clears) = m.abr.plan_rows(&ep, o, &sess);
        let plan = m.abr.plan_step(&mut ep, o, &sess);
        assert_eq!(clears, plan.reanchor, "ABR step {i}: clear flag diverged");
        assert_eq!(rows, plan.tokens.shape()[0], "ABR step {i}: row count diverged");
        if plan.reanchor {
            sess.clear();
            reanchors += 1;
        }
        let hidden = sess.append(&m.abr.lm, &m.abr.store, &plan.tokens);
        let _ = m.abr.settle_step(&mut ep, o, &hidden);
    }
    assert!(reanchors >= 3, "probe must cover fresh, natural and evicted re-anchors");

    // ---- CJS: history rebuilds + candidate rollback --------------------
    let obs = record_cjs_obs(29);
    assert!(obs.len() > 2 * window + 2);
    let mut ep = m.cjs.new_slot(0);
    let mut sess = InferenceSession::new(&m.cjs.lm);
    for (i, o) in obs.iter().enumerate() {
        if i == 7 {
            sess.clear(); // simulated eviction
        }
        let (rows, clears) = m.cjs.plan_rows(&ep, o, &sess);
        let plan = m.cjs.plan_step(&mut ep, o, &sess);
        assert_eq!(clears, plan.reanchor, "CJS step {i}: clear flag diverged");
        assert_eq!(rows, plan.tokens.shape()[0], "CJS step {i}: row count diverged");
        if plan.reanchor {
            sess.clear();
        }
        let hidden = sess.append(&m.cjs.lm, &m.cjs.store, &plan.tokens);
        let out = m.cjs.settle_step(&mut ep, o, &hidden);
        if let Some(RollbackPlan { drop_rows, post_tokens }) = out.rollback {
            sess.truncate(sess.len() - drop_rows);
            let _ = sess.append(&m.cjs.lm, &m.cjs.store, &post_tokens);
        }
    }

    // ---- VP: one-shot query, always a clear ----------------------------
    let sample = &vp_samples()[0];
    let slot = m.vp.new_slot(0);
    let sess = InferenceSession::new(&m.vp.lm);
    let q = VpQuery { sample: sample.clone(), pw: 5 };
    let (rows, clears) = m.vp.plan_rows(&slot, &q, &sess);
    let mut slot = slot;
    let plan = m.vp.plan_step(&mut slot, &q, &sess);
    assert!(clears && plan.reanchor, "VP always rebuilds");
    assert_eq!(rows, plan.tokens.shape()[0], "VP row count diverged");
}

/// Property: `CheapestRebuild`'s price ([`ServedTask::rebuild_rows`])
/// equals the extra rows the re-anchor replay actually appends —
/// `plan_rows(cleared).0 − plan_rows(intact).0` whenever the intact plan
/// would not re-anchor, and 0 whenever it would (grown history or an
/// already-empty cache make the rebuild inevitable, so eviction costs
/// nothing extra). Checked at every step of live ABR and CJS streams
/// (incremental, natural re-anchor, post-eviction, candidate rollback), a
/// VP one-shot, and through the fleet's per-variant delegation. The
/// streams stay far below the context limit, so CJS's documented
/// conservative edge (`!fits` depends on the next observation) never
/// fires and the price must be exact.
#[test]
fn rebuild_rows_price_equals_the_reanchor_replay_delta() {
    let window = 3usize;
    let m = build_models(window);
    let fleet = NetLlmFleet { abr: &m.abr, cjs: &m.cjs, vp: &m.vp };

    // ---- ABR: incremental, natural re-anchor, post-eviction ------------
    let stream = AbrObservation::synthetic_stream(701, 14);
    let mut ep = m.abr.new_slot(0);
    let mut sess = InferenceSession::new(&m.abr.lm);
    let mut priced_steps = 0usize;
    for (i, o) in stream.iter().enumerate() {
        if i == 9 {
            sess.clear(); // simulated eviction mid-stream
        }
        let priced = m.abr.rebuild_rows(&ep, &sess);
        assert_eq!(
            fleet.rebuild_rows(&FleetSlot::Abr(ep.clone()), &sess),
            priced,
            "ABR step {i}: fleet delegation diverged from the adapter's price"
        );
        let (intact_rows, clears) = m.abr.plan_rows(&ep, o, &sess);
        if clears {
            assert_eq!(priced, 0, "ABR step {i}: an inevitable re-anchor must price 0");
        } else {
            let (cleared_rows, cleared_clears) =
                m.abr.plan_rows(&ep, o, &InferenceSession::new(&m.abr.lm));
            assert!(cleared_clears, "ABR step {i}: a cleared session must re-anchor");
            assert_eq!(
                priced,
                cleared_rows - intact_rows,
                "ABR step {i}: price != re-anchor replay delta"
            );
            priced_steps += 1;
        }
        let plan = m.abr.plan_step(&mut ep, o, &sess);
        if plan.reanchor {
            sess.clear();
        }
        let hidden = sess.append(&m.abr.lm, &m.abr.store, &plan.tokens);
        let _ = m.abr.settle_step(&mut ep, o, &hidden);
    }
    assert!(priced_steps >= 5, "ABR probe must exercise non-zero prices ({priced_steps})");

    // ---- CJS: history rebuilds + candidate rollback ---------------------
    let obs = record_cjs_obs(39);
    assert!(obs.len() > 2 * window + 2);
    let mut ep = m.cjs.new_slot(0);
    let mut sess = InferenceSession::new(&m.cjs.lm);
    priced_steps = 0;
    for (i, o) in obs.iter().enumerate() {
        if i == 7 {
            sess.clear(); // simulated eviction
        }
        let priced = m.cjs.rebuild_rows(&ep, &sess);
        assert_eq!(
            fleet.rebuild_rows(&FleetSlot::Cjs(ep.clone()), &sess),
            priced,
            "CJS step {i}: fleet delegation diverged from the adapter's price"
        );
        let (intact_rows, clears) = m.cjs.plan_rows(&ep, o, &sess);
        if clears {
            assert_eq!(priced, 0, "CJS step {i}: an inevitable re-anchor must price 0");
        } else {
            let (cleared_rows, cleared_clears) =
                m.cjs.plan_rows(&ep, o, &InferenceSession::new(&m.cjs.lm));
            assert!(cleared_clears, "CJS step {i}: a cleared session must re-anchor");
            assert_eq!(
                priced,
                cleared_rows - intact_rows,
                "CJS step {i}: price != re-anchor replay delta"
            );
            if priced > 0 {
                priced_steps += 1;
            }
        }
        let plan = m.cjs.plan_step(&mut ep, o, &sess);
        if plan.reanchor {
            sess.clear();
        }
        let hidden = sess.append(&m.cjs.lm, &m.cjs.store, &plan.tokens);
        let out = m.cjs.settle_step(&mut ep, o, &hidden);
        if let Some(RollbackPlan { drop_rows, post_tokens }) = out.rollback {
            sess.truncate(sess.len() - drop_rows);
            let _ = sess.append(&m.cjs.lm, &m.cjs.store, &post_tokens);
        }
    }
    assert!(priced_steps >= 3, "CJS probe must exercise non-zero prices ({priced_steps})");

    // ---- VP: one-shot, the rebuild is always inevitable -----------------
    let sample = &vp_samples()[0];
    let mut slot = m.vp.new_slot(0);
    let mut sess = InferenceSession::new(&m.vp.lm);
    let q = VpQuery { sample: sample.clone(), pw: 5 };
    assert_eq!(m.vp.rebuild_rows(&slot, &sess), 0, "VP prices 0 on an empty cache");
    let plan = m.vp.plan_step(&mut slot, &q, &sess);
    let _ = sess.append(&m.vp.lm, &m.vp.store, &plan.tokens);
    assert_eq!(m.vp.rebuild_rows(&slot, &sess), 0, "VP re-anchors every query: price 0");
    assert_eq!(fleet.rebuild_rows(&FleetSlot::Vp(slot), &sess), 0);
    let (_, clears) = m.vp.plan_rows(&slot, &q, &sess);
    assert!(clears, "a 0 price must coincide with an inevitable re-anchor");
}

/// Regression (defer-then-evict): when pool pressure hits a tick where
/// *every* page-holding session has an arrival in the drained batch, the
/// guard must sacrifice by eviction-policy order — here the coldest
/// session — sparing the oldest arrival, and the sacrifice's own arrival
/// is deferred so it is never served in the tick that cleared its cache.
/// Before the fix the victim-exclusion set was recomputed per loop
/// iteration: the guard deferred the *youngest* arrival for backpressure
/// and then evicted exactly that session on the next scan (it had left
/// the batch), undoing the deferral's whole point and picking the victim
/// by arrival-clock accident instead of policy order.
#[test]
fn memory_guard_sacrifices_by_policy_order_never_the_just_deferred_youngest() {
    let window = 3usize;
    const B: usize = 6;
    const COLD: usize = 3; // sits out ticks 1..=3: coldest, smallest cache
    const TICKS: usize = 5;
    let m = build_models(window);
    let streams: Vec<Vec<AbrObservation>> =
        (0..B).map(|s| AbrObservation::synthetic_stream(1100 + s as u64, TICKS)).collect();

    // 20 pages (the one-full-session floor). Five always-on sessions grow
    // 5→11→17→23→29 rows (1,2,3,3,4 pages at 8 rows/page), the cold one
    // holds 1 page, so tick 4 opens at 16 pages held / 4 free with a
    // 6-page demand — pressure with every page holder in the batch.
    let pool =
        PagePool::for_model(&m.abr.lm, PageConfig { page_tokens: 8, budget_bytes: 20 * 768 });
    let budget = 20 * 768;
    let mut server = ShardedServer::with_memory(
        2,
        AdmissionPolicy::LeastLoaded,
        pool.clone(),
        EvictionPolicy::ColdestReanchor,
    );
    let ids: Vec<_> = (0..B).map(|_| server.join(&m.abr)).collect();

    let mut pending: Vec<VecDeque<Ticket>> = vec![VecDeque::new(); B];
    let mut subs: Vec<Vec<AbrObservation>> = vec![Vec::new(); B]; // obs actually submitted
    let mut served: Vec<Vec<(u64, Vec<f32>)>> = vec![Vec::new(); B];
    let mut evictions: Vec<(u64, u64)> = Vec::new();
    let harvest = |server: &mut ShardedServer<NetLlmAbr>,
                   pending: &mut Vec<VecDeque<Ticket>>,
                   served: &mut Vec<Vec<(u64, Vec<f32>)>>,
                   tick: u64| {
        for (s, q) in pending.iter_mut().enumerate() {
            if let Some(&front) = q.front() {
                if server.poll(front).is_some() {
                    q.pop_front();
                    served[s].push((tick, server.last_logits(ids[s]).to_vec()));
                }
            }
        }
    };
    // `tick` is the schedule clock, not an index (the COLD skip window
    // and the pressure-tick assertions below read it directly).
    #[allow(clippy::needless_range_loop)]
    for tick in 0..TICKS {
        for (s, &id) in ids.iter().enumerate() {
            if s == COLD && (1..=3).contains(&tick) {
                continue;
            }
            let o = streams[s][tick].clone();
            let t = server.submit(id, o.clone()).expect("submit under the cap");
            pending[s].push_back(t);
            subs[s].push(o);
        }
        let report = server.tick(&m.abr);
        assert!(report.memory.used_bytes <= budget);
        for &v in &report.memory.evicted {
            evictions.push((report.tick, v));
        }
        if tick < TICKS - 1 {
            assert_eq!(
                (report.memory.evicted.len(), report.memory.deferred),
                (0, 0),
                "tick {tick}: warmup must stay pressure-free"
            );
        } else {
            // The pressure tick. Everyone is in the batch, so the old
            // code would defer the youngest arrival (session 5) and then
            // evict it; the fix sacrifices the policy's pick — the cold
            // session — and defers (not drops) its arrival.
            assert_eq!(
                report.memory.evicted,
                vec![ids[COLD]],
                "the sacrifice must be the coldest session, by policy order"
            );
            assert_eq!(report.memory.deferred, 1, "the sacrifice's arrival is deferred");
        }
        harvest(&mut server, &mut pending, &mut served, report.tick);
        if tick == TICKS - 1 {
            // Every spared session was served this tick; only the
            // sacrifice waits for the next one.
            for (s, q) in pending.iter().enumerate() {
                assert_eq!(q.len(), usize::from(s == COLD), "session {s} pending after pressure");
            }
        }
    }
    for _ in 0..20 {
        if pending.iter().all(VecDeque::is_empty) {
            break;
        }
        let report = server.tick(&m.abr);
        assert!(report.memory.used_bytes <= budget);
        for &v in &report.memory.evicted {
            evictions.push((report.tick, v));
        }
        harvest(&mut server, &mut pending, &mut served, report.tick);
    }
    for (s, q) in pending.iter().enumerate() {
        assert!(q.is_empty(), "session {s} has unresolved tickets (sacrifice lost its arrival)");
        assert_eq!(served[s].len(), subs[s].len(), "session {s} lost decisions");
    }
    drop(server);
    assert_eq!(pool.used_pages(), 0);

    // The evicted-then-rebuilt sessions must still match the unbatched
    // forced-clear replay exactly.
    for (s, &id) in ids.iter().enumerate() {
        let mut ep = m.abr.new_slot(0);
        let mut sess = InferenceSession::new(&m.abr.lm);
        let mut prev_tick = 0u64;
        for (i, o) in subs[s].iter().enumerate() {
            let (tick, want) = &served[s][i];
            if evictions.iter().any(|&(u, v)| v == id && u > prev_tick && u < *tick) {
                sess.clear();
            }
            let plan = m.abr.plan_step(&mut ep, o, &sess);
            if plan.reanchor {
                sess.clear();
            }
            let hidden = sess.append(&m.abr.lm, &m.abr.store, &plan.tokens);
            let out = m.abr.settle_step(&mut ep, o, &hidden);
            for (x, y) in out.logits.iter().zip(want) {
                assert!(
                    (x - y).abs() < 1e-5,
                    "session {s} step {i}: served {y} vs forced-clear replay {x}"
                );
            }
            prev_tick = *tick;
        }
    }
}
