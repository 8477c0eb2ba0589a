//! A timing wrapper around [`NetLlmFleet`]: the same [`ServedTask`], with
//! every `plan_step` (the multimodal encoders) and `settle_step` (the
//! networking heads) timed and every [`StepPlan`]'s shape recorded. The
//! recorded shapes are what the backbone replay in `layers.rs` re-runs.
//! Delegation is verbatim, so served answers are bit-identical to the
//! unwrapped fleet (tested below).

use netllm::{
    FleetAction, FleetObs, FleetSlot, InferenceSession, NetLlmFleet, ServedTask, StepOutcome,
    StepPlan,
};
use nt_llm::TinyLm;
use nt_nn::ParamStore;
use nt_tensor::Tensor;
use std::sync::Mutex;
use std::time::Instant;

/// One wrapped hook call, in call order.
#[derive(Clone, Copy, Debug)]
pub enum Call {
    /// `plan_step`: rows planned, KV context they append after (0 when
    /// the plan re-anchors), and whether it re-anchors.
    Plan { group: usize, at: Instant, ns: u64, rows: usize, ctx: usize, reanchor: bool },
    /// `settle_step`; `rollback` is `(dropped rows, post rows)` when the
    /// head asked for a candidate rollback.
    Settle { group: usize, at: Instant, ns: u64, rollback: Option<(usize, usize)> },
}

/// [`NetLlmFleet`] with its plan and settle hooks timed.
pub struct TimedFleet<'m> {
    inner: NetLlmFleet<'m>,
    calls: Mutex<Vec<Call>>,
}

impl<'m> TimedFleet<'m> {
    pub fn new(inner: NetLlmFleet<'m>) -> Self {
        TimedFleet { inner, calls: Mutex::new(Vec::new()) }
    }

    /// Take the calls recorded so far.
    pub fn take_calls(&self) -> Vec<Call> {
        std::mem::take(&mut *self.calls.lock().expect("call log poisoned"))
    }

    fn record(&self, call: Call) {
        self.calls.lock().expect("call log poisoned").push(call);
    }
}

impl ServedTask for TimedFleet<'_> {
    type Obs = FleetObs;
    type Action = FleetAction;
    type Slot = FleetSlot;

    fn groups(&self) -> usize {
        self.inner.groups()
    }

    fn backbone(&self, group: usize) -> (&TinyLm, &ParamStore) {
        self.inner.backbone(group)
    }

    fn task_label(&self, group: usize) -> &'static str {
        self.inner.task_label(group)
    }

    fn group_of(&self, slot: &FleetSlot) -> usize {
        self.inner.group_of(slot)
    }

    fn new_slot(&self, group: usize) -> FleetSlot {
        self.inner.new_slot(group)
    }

    fn plan_rows(
        &self,
        slot: &FleetSlot,
        obs: &FleetObs,
        session: &InferenceSession,
    ) -> (usize, bool) {
        self.inner.plan_rows(slot, obs, session)
    }

    fn rebuild_rows(&self, slot: &FleetSlot, session: &InferenceSession) -> usize {
        self.inner.rebuild_rows(slot, session)
    }

    fn plan_step(
        &self,
        slot: &mut FleetSlot,
        obs: &FleetObs,
        session: &InferenceSession,
    ) -> StepPlan {
        let at = Instant::now();
        let plan = self.inner.plan_step(slot, obs, session);
        let ns = at.elapsed().as_nanos() as u64;
        let ctx = if plan.reanchor { 0 } else { session.len() };
        self.record(Call::Plan {
            group: self.inner.group_of(slot),
            at,
            ns,
            rows: plan.tokens.shape()[0],
            ctx,
            reanchor: plan.reanchor,
        });
        plan
    }

    fn settle_step(
        &self,
        slot: &mut FleetSlot,
        obs: &FleetObs,
        hidden: &Tensor,
    ) -> StepOutcome<FleetAction> {
        let at = Instant::now();
        let out = self.inner.settle_step(slot, obs, hidden);
        let ns = at.elapsed().as_nanos() as u64;
        let rollback = out.rollback.as_ref().map(|r| (r.drop_rows, r.post_tokens.shape()[0]));
        self.record(Call::Settle { group: self.inner.group_of(slot), at, ns, rollback });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netllm::{FleetModels, ShardedServer, TicketStatus};
    use nt_bench::{kind_of, ObsStreams};

    /// Serve `rounds` closed-loop rounds of a mixed fleet; returns every
    /// answer as (session, action, logits bits) in serve order.
    fn serve<T>(task: &T, sessions: usize, rounds: usize) -> Vec<(usize, String, Vec<u32>)>
    where
        T: ServedTask<Obs = FleetObs, Action = FleetAction> + Sync,
        T::Slot: Send,
    {
        let streams = ObsStreams::generate(sessions, rounds, 11);
        let mut server: ShardedServer<T> = ShardedServer::new(2);
        let ids: Vec<u64> = (0..sessions).map(|s| server.join_group(task, kind_of(s))).collect();
        let mut out = Vec::new();
        for r in 0..rounds {
            let tickets: Vec<_> = (0..sessions)
                .map(|s| {
                    let i = r % streams.len_for(s, rounds).max(1);
                    server.submit(ids[s], streams.obs(s, i)).expect("under the cap")
                })
                .collect();
            server.tick(task);
            for (s, t) in tickets.into_iter().enumerate() {
                let TicketStatus::Served(action) = server.poll_status(t) else {
                    panic!("round {r}: session {s} not served in one tick");
                };
                let bits = server.last_logits(ids[s]).iter().map(|x| x.to_bits()).collect();
                out.push((s, format!("{action:?}"), bits));
            }
        }
        out
    }

    #[test]
    fn wrapped_fleet_serves_bit_identical_answers() {
        let dir = std::env::temp_dir().join("fleetbench-wrap-test");
        let models = FleetModels::sized(&dir, "0.35b-sim", 4);
        let fleet = || NetLlmFleet { abr: &models.abr, cjs: &models.cjs, vp: &models.vp };
        let plain = serve(&fleet(), 9, 12);
        let timed = TimedFleet::new(fleet());
        let wrapped = serve(&timed, 9, 12);
        assert_eq!(plain, wrapped, "the timing wrapper changed an answer");
        let calls = timed.take_calls();
        let plans = calls.iter().filter(|c| matches!(c, Call::Plan { .. })).count();
        let settles = calls.iter().filter(|c| matches!(c, Call::Settle { .. })).count();
        assert_eq!((plans, settles), (9 * 12, 9 * 12), "one plan and one settle per answer");
    }
}
