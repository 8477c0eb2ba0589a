//! The correctness check: a sample of sessions' socket-served logits
//! against an unbatched, in-process replay of the same observation
//! sequence, at 1e-5.
//!
//! A pooled fleet may evict an idle session's KV cache between two of
//! its decisions; the session then re-anchors from its episode log. The
//! client cannot see when that happened, so where the intact replay
//! disagrees, the replay tries the step again from a cleared cache
//! (exactly what an eviction leaves) and accepts it only if that matches.
//! Fleets without a pool never evict, and get no second try.

use crate::client::{obs_at, Answers};
use netllm::{FleetSlot, InferenceSession, NetLlmFleet, ServedTask};
use nt_bench::{kind_of, ObsStreams};

/// Largest absolute logit difference accepted.
pub const TOLERANCE: f32 = 1e-5;

/// What the check covered.
#[derive(Debug, Default)]
pub struct Checked {
    pub sessions: usize,
    pub decisions: usize,
    /// Steps that matched only from a cleared cache (evictions).
    pub cleared_steps: usize,
    /// Sampled sessions with at least one such step.
    pub evicted_sessions: usize,
}

fn clone_slot(slot: &FleetSlot) -> FleetSlot {
    match slot {
        FleetSlot::Abr(e) => FleetSlot::Abr(e.clone()),
        FleetSlot::Cjs(e) => FleetSlot::Cjs(e.clone()),
        FleetSlot::Vp(v) => FleetSlot::Vp(*v),
    }
}

/// One unbatched decision: plan, append, settle, and the candidate
/// rollback — the engine's per-slot math without the batching.
fn step(
    fleet: &NetLlmFleet,
    group: usize,
    slot: &mut FleetSlot,
    sess: &mut InferenceSession,
    obs: &netllm::FleetObs,
) -> Vec<f32> {
    let (lm, store) = fleet.backbone(group);
    let plan = fleet.plan_step(slot, obs, sess);
    if plan.reanchor {
        sess.clear();
    }
    let hidden = sess.append(lm, store, &plan.tokens);
    let out = fleet.settle_step(slot, obs, &hidden);
    if let Some(rb) = out.rollback {
        sess.truncate(sess.len() - rb.drop_rows);
        sess.append(lm, store, &rb.post_tokens);
    }
    out.logits
}

fn matches(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(a, b)| (a - b).abs() <= TOLERANCE)
}

/// Replay every sampled session's served observations and compare.
/// `evictions` allows the cleared-cache second try.
pub fn check(
    fleet: &NetLlmFleet,
    streams: &ObsStreams,
    answers: &Answers,
    evictions: bool,
) -> Result<Checked, String> {
    let mut done = Checked::default();
    let mut sessions: Vec<_> = answers.iter().collect();
    sessions.sort_by_key(|(s, _)| **s);
    for (&s, served) in sessions {
        let group = kind_of(s);
        let mut slot = fleet.new_slot(group);
        let mut sess = InferenceSession::new(fleet.backbone(group).0);
        let mut cleared = 0usize;
        for (k, (i, want)) in served.iter().enumerate() {
            let obs = obs_at(streams, s, *i);
            let before = clone_slot(&slot);
            if matches(&step(fleet, group, &mut slot, &mut sess, &obs), want) {
                continue;
            }
            if evictions {
                slot = before;
                sess.clear();
                if matches(&step(fleet, group, &mut slot, &mut sess, &obs), want) {
                    cleared += 1;
                    continue;
                }
            }
            return Err(format!(
                "session {s} decision {k} (observation {i}): served logits differ from the \
                 unbatched replay by more than {TOLERANCE}"
            ));
        }
        done.sessions += 1;
        done.decisions += served.len();
        done.cleared_steps += cleared;
        done.evicted_sessions += usize::from(cleared > 0);
    }
    Ok(done)
}
