//! Mixed-fleet equivalence: one sharded fleet serving interleaved
//! ABR + CJS + VP sessions must produce, for every session, logits
//! within 1e-5 of that adapter's unbatched `InferenceSession` path —
//! with a CJS candidate rollback and a VP join/leave inside the same
//! tick, and the ABR streams crossing their 2x-window re-anchor.

use netllm::{
    AdaptMode, CjsObs, FleetObs, LoraSpec, NetLlmAbr, NetLlmCjs, NetLlmFleet, NetLlmVp,
    ShardedServer, VpQuery, FLEET_ABR, FLEET_CJS, FLEET_VP,
};
use nt_abr::{AbrObservation, AbrPolicy};
use nt_cjs::{generate_workload, run_workload, Scheduler, Srpt, WorkloadConfig};
use nt_llm::{size_spec, Zoo};
use nt_vp::{extract_samples, generate, jin2022_like, DatasetSpec, VpSample};

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

#[test]
fn mixed_fleet_matches_each_adapters_unbatched_path() {
    let zoo = Zoo::new(std::env::temp_dir().join("netllm-mixed-fleet"));
    let window = 3usize;
    let ticks = 8usize;

    let mut m_abr = NetLlmAbr::new(
        zoo.build_random(&size_spec("0.35b-sim")),
        AdaptMode::NoDomain,
        LoraSpec::default(),
        window,
        21,
    );
    m_abr.target_return = 2.0;
    let mut m_cjs = NetLlmCjs::new(
        zoo.build_random(&size_spec("0.35b-sim")),
        AdaptMode::NoDomain,
        LoraSpec::default(),
        window,
        22,
    );
    m_cjs.target_return = -1.0;
    let mut m_vp = NetLlmVp::new(
        zoo.build_random(&size_spec("0.35b-sim")),
        AdaptMode::NoDomain,
        LoraSpec::default(),
        8,
        23,
    );

    let abr_streams: Vec<Vec<AbrObservation>> =
        (0..2).map(|s| AbrObservation::synthetic_stream(70 + s as u64, ticks)).collect();
    let cjs_obs = record_cjs_obs(9);
    assert!(cjs_obs.len() >= ticks, "CJS probe too short: {}", cjs_obs.len());
    let samples = vp_samples();
    let pw = 6usize;

    // ---- the fleet: 2 ABR + 1 CJS persistent, VP one-shots per tick ----
    let fleet = NetLlmFleet { abr: &m_abr, cjs: &m_cjs, vp: &m_vp };
    let mut server = ShardedServer::new(2);
    let abr_ids: Vec<_> = (0..2).map(|_| server.join_group(&fleet, FLEET_ABR)).collect();
    let cjs_id = server.join_group(&fleet, FLEET_CJS);

    let mut abr_served: Vec<Vec<(usize, Vec<f32>)>> = vec![Vec::new(); 2];
    let mut cjs_served: Vec<(usize, usize, Vec<f32>)> = Vec::new();
    let mut vp_served: Vec<Vec<f32>> = Vec::new();
    for tick in 0..ticks {
        // A VP session joins, answers once, and leaves — inside the same
        // tick that advances the ABR streams and triggers the CJS
        // candidate rollback.
        let vp_id = server.join_group(&fleet, FLEET_VP);
        let sample = &samples[tick % samples.len()];
        let requests = [
            (abr_ids[0], FleetObs::Abr(abr_streams[0][tick].clone())),
            (vp_id, FleetObs::Vp(VpQuery { sample: sample.clone(), pw })),
            (cjs_id, FleetObs::Cjs(cjs_obs[tick].clone())),
            (abr_ids[1], FleetObs::Abr(abr_streams[1][tick].clone())),
        ];
        let tickets: Vec<_> =
            requests.into_iter().map(|(id, o)| server.submit(id, o).unwrap()).collect();
        assert_eq!(server.tick(&fleet).served, 4, "one tick serves the whole batch");
        let actions: Vec<_> =
            tickets.into_iter().map(|t| server.poll(t).expect("served ticket resolves")).collect();
        let mut it = actions.into_iter();
        abr_served[0].push((it.next().unwrap().abr(), server.last_logits(abr_ids[0]).to_vec()));
        vp_served.push(server.last_logits(vp_id).to_vec());
        let _ = it.next().unwrap().vp();
        let d = it.next().unwrap().cjs();
        cjs_served.push((d.candidate, d.cap, server.last_logits(cjs_id).to_vec()));
        abr_served[1].push((it.next().unwrap().abr(), server.last_logits(abr_ids[1]).to_vec()));
        assert!(server.leave(vp_id).is_clean(), "a polled one-shot leaves nothing behind");
        assert_eq!(server.active(), 3, "one-shot VP slot must be gone after the tick");
    }
    // Release the fleet's borrows (the server's type carries the model
    // lifetimes) so the reference replays can drive the models directly;
    // `fleet` itself has no drop glue, so its borrows end with its last use.
    drop(server);

    // ---- ABR reference: each stream alone through select() -------------
    for (s, obs) in abr_streams.iter().enumerate() {
        m_abr.reset();
        for (tick, o) in obs.iter().enumerate() {
            let act = m_abr.select(o);
            let (bact, blogits) = &abr_served[s][tick];
            assert_eq!(act, *bact, "ABR stream {s} tick {tick}: action diverged");
            for (x, y) in m_abr.last_logits().iter().zip(blogits) {
                assert!(
                    (x - y).abs() < 1e-5,
                    "ABR stream {s} tick {tick}: fleet {y} vs unbatched {x}"
                );
            }
        }
        assert!(ticks > 2 * window, "ABR probe must cross a re-anchor");
    }

    // ---- CJS reference: the same obs through decide_obs() --------------
    m_cjs.reset();
    for (tick, o) in cjs_obs[..ticks].iter().enumerate() {
        let d = m_cjs.decide_obs(o);
        let (cand, cap, blogits) = &cjs_served[tick];
        assert_eq!(d.candidate, *cand, "CJS tick {tick}: stage diverged");
        assert_eq!(d.cap, *cap, "CJS tick {tick}: cap diverged");
        for (x, y) in m_cjs.last_logits().iter().zip(blogits) {
            assert!((x - y).abs() < 1e-5, "CJS tick {tick}: fleet {y} vs unbatched {x}");
        }
    }

    // ---- VP reference: one-shot eval per sample -------------------------
    for (tick, blogits) in vp_served.iter().enumerate() {
        let v = m_vp.forward_eval(&samples[tick % samples.len()], pw);
        assert_eq!(v.data().len(), blogits.len());
        for (x, y) in v.data().iter().zip(blogits) {
            assert!((x - y).abs() < 1e-5, "VP tick {tick}: fleet {y} vs unbatched {x}");
        }
    }
}
