//! Adapter-generic batched serving engine.
//!
//! One adapted model, many live network sessions: the [`ServingEngine`]
//! multiplexes concurrent adapter rollouts into batched backbone steps,
//! one per tick. Where B independent [`crate::InferenceSession`]s each
//! push a handful of token rows through every projection and MLP alone,
//! the engine stacks all B sessions' new rows into single `[N, d]` GEMMs
//! (`nt_llm::TinyLm::forward_embeddings_cached_batched`), while each slot
//! keeps its own ragged-length KV cache, episode state and re-anchoring
//! schedule — batching changes the arithmetic shape, never the answers
//! (gated at 1e-5 against each adapter's sequential path, including
//! re-anchor and rollback events).
//!
//! ```text
//!  stream 0 ─ obs ─┐  per-slot tokens    one batched    ┌─ action 0
//!  stream 1 ─ obs ─┤  plan_step(slot)    backbone       ├─ action 1
//!      ...         ├─────[rows]────────► step [N,d] ────┤   ...
//!  stream B ─ obs ─┘   (ragged rows)         │          └─ action B
//!                       slot KV caches ──────┘   settle_step per slot
//!                                                └─ rollback pass (CJS)
//! ```
//!
//! What used to be hard-coded ABR logic is now the [`ServedTask`] trait:
//! an adapter describes how an observation becomes token rows
//! ([`ServedTask::plan_step`] — including its re-anchor policy) and how
//! the new hidden rows become a decision ([`ServedTask::settle_step`] —
//! including an optional candidate rollback, the CJS pattern where
//! per-decision candidate tokens are `truncate`d out of the persistent
//! history and replaced by the chosen action token). ABR serves
//! incremental decision-transformer steps, CJS adds the rollback hook,
//! and VP runs one-shot eval slots that join, answer, and leave. A
//! heterogeneous fleet ([`crate::NetLlmFleet`]) serves all three in the
//! same tick; slots on different backbones never share a stacked GEMM
//! (separate weights), but every same-backbone run in the batch does.
//!
//! Join/leave never disturbs other slots: a slot owns its KV session and
//! episode state, and the batch is just "whichever slots got an
//! observation this tick". [`SessionId`]s are generation-versioned, so a
//! stale handle held across a leave/join recycle can never read another
//! stream's slot. Sharding across engines lives in
//! [`crate::ShardedServer`].

use crate::backbone::{append_batched, InferenceSession};
use nt_llm::{PagePool, SlotMap, TinyLm};
use nt_nn::ParamStore;
use nt_tensor::Tensor;
use std::sync::Mutex;

/// Token rows one slot contributes to a tick (built by
/// [`ServedTask::plan_step`]).
pub struct StepPlan {
    /// Embedded rows `[n, d_model]` to append to the slot's KV session.
    pub tokens: Tensor,
    /// Clear the KV session before appending (episode start or
    /// re-anchor rebuild).
    pub reanchor: bool,
}

/// Candidate rollback requested by [`ServedTask::settle_step`]: the final
/// `drop_rows` rows of the slot's session are not part of the persistent
/// history (e.g. CJS candidate tokens) — the engine truncates them away
/// and appends `post_tokens` (e.g. the chosen action token) in a second
/// batched backbone pass.
pub struct RollbackPlan {
    /// Rows to drop from the end of the slot's KV session.
    pub drop_rows: usize,
    /// Rows `[m, d_model]` appended after the rollback.
    pub post_tokens: Tensor,
}

/// What one slot's tick produced (built by [`ServedTask::settle_step`]).
pub struct StepOutcome<A> {
    /// The decision returned to the caller.
    pub action: A,
    /// Raw head outputs, kept readable via
    /// [`ServingEngine::last_logits`] (the equivalence gates compare
    /// these against the unbatched path).
    pub logits: Vec<f32>,
    /// Optional candidate rollback (see [`RollbackPlan`]).
    pub rollback: Option<RollbackPlan>,
}

/// An adapter that can be served by the [`ServingEngine`]: how an
/// observation becomes token rows, and how the resulting hidden rows
/// become a decision. Implemented by [`crate::NetLlmAbr`] (incremental
/// decision-transformer steps), [`crate::NetLlmCjs`] (adds candidate
/// rollback), [`crate::NetLlmVp`] (one-shot eval) and
/// [`crate::NetLlmFleet`] (all three behind one engine).
pub trait ServedTask {
    /// Per-tick observation a live session consumes.
    type Obs;
    /// The decision handed back to the caller.
    type Action;
    /// Per-session episode state: everything one live session carries
    /// between ticks besides its KV session.
    type Slot;

    /// Number of distinct backbones this task serves (a heterogeneous
    /// fleet has one per member task). Slots of different groups never
    /// share a stacked GEMM — they may run different weights.
    fn groups(&self) -> usize {
        1
    }

    /// Backbone + weights for `group`.
    fn backbone(&self, group: usize) -> (&TinyLm, &ParamStore);

    /// Human-readable adapter tag for `group` — stamps queued arrivals
    /// and the per-label serving counts in
    /// [`crate::sched::TickReport::served_by_label`].
    fn task_label(&self, group: usize) -> &'static str {
        let _ = group;
        "task"
    }

    /// The backbone group `slot` belongs to (stable for its lifetime).
    fn group_of(&self, slot: &Self::Slot) -> usize {
        let _ = slot;
        0
    }

    /// Fresh episode state for a session joining `group`.
    fn new_slot(&self, group: usize) -> Self::Slot;

    /// Phase-1 hook: settle the previous tick's realised outcome into the
    /// episode and build the token rows this tick appends. `session` is
    /// read-only here — ask for a clear via [`StepPlan::reanchor`]; the
    /// engine (or the unbatched caller) owns the append.
    fn plan_step(
        &self,
        slot: &mut Self::Slot,
        obs: &Self::Obs,
        session: &InferenceSession,
    ) -> StepPlan;

    /// Token rows the next [`ServedTask::plan_step`] for `(slot, obs)`
    /// will append, and whether it will clear the session first — computed
    /// *without* running the encoders and without mutating the slot, so
    /// the paged-memory scheduler can reserve pages (and evict or defer)
    /// ahead of the step. An upper bound is acceptable (over-estimates
    /// only cost deferrals); the adapters in this crate return the exact
    /// count (unit-tested against the actual plan). The default is the
    /// conservative worst case: fill the remaining context, no clear.
    fn plan_rows(
        &self,
        slot: &Self::Slot,
        obs: &Self::Obs,
        session: &InferenceSession,
    ) -> (usize, bool) {
        let _ = (slot, obs);
        (session.max_tokens() - session.len(), false)
    }

    /// Token rows the slot's *next* step would replay because its cache
    /// was cleared now — the price of evicting this session, computable
    /// without an observation (eviction candidates are idle; nothing of
    /// theirs is in flight). Exactly `plan_rows(cleared).0 -
    /// plan_rows(intact).0` whenever the intact plan would not re-anchor,
    /// and 0 when it would (grown history or an already-empty cache make
    /// the rebuild inevitable, so eviction costs nothing extra). An
    /// over-estimate is acceptable — it only demotes this session in a
    /// cost-priced victim scan; the adapters in this crate return the
    /// exact count (property-tested in `tests/paged_serving.rs`). The
    /// default mirrors `plan_rows`' conservative default: replay
    /// everything the cache holds.
    fn rebuild_rows(&self, slot: &Self::Slot, session: &InferenceSession) -> usize {
        let _ = slot;
        session.len()
    }

    /// Phase-3 hook: read the task head over this slot's new hidden rows
    /// `[n, d_model]` (exactly the rows planned this tick), commit the
    /// decision to the episode, and optionally request a candidate
    /// rollback.
    fn settle_step(
        &self,
        slot: &mut Self::Slot,
        obs: &Self::Obs,
        hidden: &Tensor,
    ) -> StepOutcome<Self::Action>;
}

/// One live session inside the engine.
struct EngineSlot<T: ServedTask> {
    state: T::Slot,
    session: InferenceSession,
    last_logits: Vec<f32>,
    gen: u32,
}

/// Stable, generation-versioned handle for a session served by a
/// [`ServingEngine`]. Slot indices are recycled after
/// [`ServingEngine::leave`], but each admission bumps the generation, so
/// a stale handle kept across a recycle panics instead of silently
/// reading the new occupant's state (`last_logits`, `step`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SessionId {
    idx: u32,
    gen: u32,
}

impl SessionId {
    /// The underlying slot index (recycled across generations).
    pub fn index(self) -> usize {
        self.idx as usize
    }
}

/// A session lifted out of an engine (KV cache + episode state), ready to
/// be re-admitted elsewhere — the migration unit behind
/// [`crate::ShardedServer`]'s steer/rebalance plumbing, and the salvage
/// unit of crash recovery (park off the dead engine, [`ParkedSlot::drop_kv`]
/// the pages the dead process can no longer address, admit on a
/// survivor).
pub struct ParkedSlot<T: ServedTask>(EngineSlot<T>);

impl<T: ServedTask> ParkedSlot<T> {
    /// Cached KV positions the parked session holds (per layer) — the
    /// rows a crash destroys and episode-log replay must rebuild.
    pub fn kv_rows(&self) -> usize {
        self.0.session.len()
    }

    /// Pool pages the parked session holds across layers (0 when
    /// contiguous).
    pub fn pages_held(&self) -> usize {
        self.0.session.pages_held()
    }

    /// Drop the KV cache — pages return to the pool — keeping the episode
    /// state. Crash salvage: the KV died with the shard, only the episode
    /// log survives; after re-admission the session re-anchors from it on
    /// its next step, exactly like an eviction.
    pub fn drop_kv(&mut self) {
        self.0.session.clear();
        self.0.last_logits.clear();
    }
}

/// Multiplexes many concurrent rollouts of a [`ServedTask`] over shared
/// model weights. The engine owns only per-session state; the model
/// (weights, encoders, heads) is borrowed per call, so one adapted
/// checkpoint can back any number of engines.
///
/// With a page pool attached ([`ServingEngine::with_page_pool`]) every
/// admitted session's KV cache is page-backed: total KV across the pool's
/// engines is hard-bounded by the pool budget, and the engine exposes the
/// memory-pressure mechanisms ([`ServingEngine::page_demand`],
/// [`ServingEngine::evict`], [`ServingEngine::pool_stats`]) that
/// `ShardedServer`'s eviction policy drives.
pub struct ServingEngine<T: ServedTask> {
    slots: SlotMap<EngineSlot<T>>,
    next_gen: u32,
    /// KV pages for admitted sessions come from here when set (possibly
    /// shared with other engines — the budget is global to the pool).
    pool: Option<PagePool>,
}

impl<T: ServedTask> Default for ServingEngine<T> {
    fn default() -> Self {
        ServingEngine { slots: SlotMap::new(), next_gen: 0, pool: None }
    }
}

impl<T: ServedTask> ServingEngine<T> {
    /// Engine with no live sessions (contiguous, unbounded KV caches).
    pub fn new() -> Self {
        ServingEngine::default()
    }

    /// Engine whose sessions draw KV pages from `pool`. Clones of one
    /// pool handle share one budget — a sharded fleet passes the same
    /// pool to every shard for a fleet-wide bound.
    pub fn with_page_pool(pool: PagePool) -> Self {
        ServingEngine { pool: Some(pool), ..ServingEngine::default() }
    }

    /// Occupancy of the attached pool (`None` for contiguous engines).
    pub fn pool_stats(&self) -> Option<nt_llm::PoolStats> {
        self.pool.as_ref().map(PagePool::stats)
    }

    /// Pages the batch `requests` could allocate this tick, assuming the
    /// worst case the task declares via [`ServedTask::plan_rows`]. Clears
    /// (re-anchors) are charged their full new size rather than netted
    /// against the pages they free, so the estimate is safe under any
    /// band/thread interleaving of frees and allocations inside the step.
    pub fn page_demand(&self, task: &T, requests: &[(SessionId, &T::Obs)]) -> usize {
        let Some(pool) = &self.pool else { return 0 };
        requests
            .iter()
            .map(|&(id, obs)| {
                self.check(id);
                let slot = self.slots.get(id.index());
                let (rows, clears) = task.plan_rows(&slot.state, obs, &slot.session);
                if clears {
                    // Counted from empty: the freed pages are not assumed
                    // reusable within this tick.
                    task.backbone(task.group_of(&slot.state)).0.cfg.n_layers * pool.pages_for(rows)
                } else {
                    slot.session.pages_needed(rows)
                }
            })
            .sum()
    }

    /// Return the pages of every batch session whose next plan clears
    /// (re-anchors) anyway: the rebuild never reads the old cache, so
    /// clearing it *before* the step is semantically free — the step's
    /// `plan_step` sees an empty session and takes the same rebuild
    /// branch with the same tokens. Doing it up front lets the memory
    /// guard count those pages as available under any thread
    /// interleaving, so a re-anchoring giant session can never wedge the
    /// pool against its own rebuild. Returns the pages freed. Not an
    /// eviction: answers are unchanged, so it is never reported as one.
    pub fn release_reanchor_pages(&mut self, task: &T, requests: &[(SessionId, &T::Obs)]) -> usize {
        if self.pool.is_none() {
            return 0;
        }
        let mut freed = 0usize;
        for &(id, obs) in requests {
            self.check(id);
            let slot = self.slots.get_mut(id.index());
            let (_, clears) = task.plan_rows(&slot.state, obs, &slot.session);
            if clears && slot.session.pages_held() > 0 {
                freed += slot.session.pages_held();
                slot.session.clear();
            }
        }
        freed
    }

    /// Reclaim a session's pages by dropping its KV cache (the episode
    /// state survives). The session re-anchors from its episode log on
    /// its next step — every adapter's `plan_step` rebuilds from an empty
    /// session — so subsequent answers equal a session that re-anchored
    /// at this tick. Returns the pages freed.
    pub fn evict(&mut self, id: SessionId) -> usize {
        self.check(id);
        let slot = self.slots.get_mut(id.index());
        let pages = slot.session.pages_held();
        slot.session.clear();
        pages
    }

    /// Pool pages held by one session (0 for contiguous sessions).
    pub fn pages_of(&self, id: SessionId) -> usize {
        self.check(id);
        self.slots.get(id.index()).session.pages_held()
    }

    /// Pool pages held across every live session (0 for contiguous
    /// engines) — this shard's half of the [`crate::sched::PagePressure`]
    /// snapshot.
    pub fn pages_held(&self) -> usize {
        self.slots.iter().map(|s| s.session.pages_held()).sum()
    }

    /// Token rows `id`'s next step would replay if its cache were
    /// cleared now ([`ServedTask::rebuild_rows`]) — the row half of a
    /// cost-priced eviction scan.
    pub fn rebuild_rows_of(&self, task: &T, id: SessionId) -> usize {
        self.check(id);
        let slot = self.slots.get(id.index());
        task.rebuild_rows(&slot.state, &slot.session)
    }

    /// Re-anchor rebuild price of evicting `id`: replayed rows times the
    /// session's backbone width (`d_model`) — rows through a wider
    /// backbone cost proportionally more GEMM work, so heterogeneous
    /// fleets compare victims in compute, not row counts.
    pub fn rebuild_cost_of(&self, task: &T, id: SessionId) -> usize {
        self.check(id);
        let slot = self.slots.get(id.index());
        let d_model = task.backbone(task.group_of(&slot.state)).0.cfg.d_model;
        task.rebuild_rows(&slot.state, &slot.session) * d_model
    }

    /// Cached KV positions one session holds (per layer) — what a fault
    /// that drops the cache costs in episode-replay rows.
    pub fn kv_rows_of(&self, id: SessionId) -> usize {
        self.check(id);
        self.slots.get(id.index()).session.len()
    }

    /// Admit a new session on backbone group 0 (the only group of a
    /// homogeneous task); returns its stable [`SessionId`].
    pub fn join(&mut self, task: &T) -> SessionId {
        self.join_group(task, 0)
    }

    /// Admit a new session on backbone `group` (heterogeneous fleets pick
    /// the member task here). The smallest free slot index is recycled,
    /// under a fresh generation.
    pub fn join_group(&mut self, task: &T, group: usize) -> SessionId {
        assert!(group < task.groups(), "group {group} out of range ({})", task.groups());
        let lm = task.backbone(group).0;
        let session = match &self.pool {
            Some(pool) => {
                // Below the pool's floor a single session's re-anchor
                // rebuild can exceed the whole pool with nothing left to
                // evict — the queued front end would defer its arrival
                // forever. `PagePool::for_model` checks one backbone; this
                // covers every backbone actually admitted (heterogeneous
                // fleets).
                if let Err(why) = pool.check_backs(lm) {
                    panic!("group {group}'s backbone: {why} — raise budget_bytes");
                }
                InferenceSession::paged(lm, pool)
            }
            None => InferenceSession::new(lm),
        };
        self.admit(ParkedSlot(EngineSlot {
            state: task.new_slot(group),
            session,
            last_logits: Vec::new(),
            gen: 0,
        }))
    }

    /// Remove a session, dropping its KV cache. Other slots are
    /// untouched; the freed index is recycled under a new generation.
    pub fn leave(&mut self, id: SessionId) {
        let _ = self.park(id);
    }

    /// Lift a session out of the engine without dropping it (KV cache and
    /// episode state intact) — re-admit it here or in another engine with
    /// [`ServingEngine::admit`].
    pub fn park(&mut self, id: SessionId) -> ParkedSlot<T> {
        self.check(id);
        ParkedSlot(self.slots.remove(id.index()))
    }

    /// Re-admit a parked session; returns its new id (the old one is
    /// dead: admission always bumps the generation). The session's KV
    /// cache moves as it is, so it must already draw from this engine's
    /// pool (or both must be pool-less): engines that trade sessions share
    /// one pool, as every shard of a `ShardedServer` does. Panics
    /// otherwise.
    pub fn admit(&mut self, parked: ParkedSlot<T>) -> SessionId {
        let mut slot = parked.0;
        assert!(
            slot.session.draws_from(self.pool.as_ref()),
            "parked session's KV cache draws from another pool than this engine's"
        );
        self.next_gen += 1;
        let gen = self.next_gen;
        slot.gen = gen;
        let idx = self.slots.insert(slot);
        SessionId { idx: idx as u32, gen }
    }

    /// Live session count.
    pub fn active(&self) -> usize {
        self.slots.active()
    }

    /// Head outputs of `id`'s most recent step (equivalence tests compare
    /// these against the unbatched path). Panics on a stale id whose slot
    /// index was recycled — versioning guarantees these are never another
    /// stream's logits.
    pub fn last_logits(&self, id: SessionId) -> &[f32] {
        self.check(id);
        &self.slots.get(id.index()).last_logits
    }

    /// Bytes held by every live session's KV cache.
    pub fn cache_bytes(&self) -> usize {
        self.slots.iter().map(|s| s.session.cache_bytes()).sum()
    }

    /// Bytes held by one session's KV cache (per-victim accounting for a
    /// cache-aware steering/eviction policy).
    pub fn cache_bytes_of(&self, id: SessionId) -> usize {
        self.check(id);
        self.slots.get(id.index()).session.cache_bytes()
    }

    /// Live sessions with their KV bytes — the enumeration an eviction or
    /// steering policy walks to pick a victim.
    pub fn sessions(&self) -> impl Iterator<Item = (SessionId, usize)> + '_ {
        self.slots
            .iter_entries()
            .map(|(idx, s)| (SessionId { idx: idx as u32, gen: s.gen }, s.session.cache_bytes()))
    }

    fn check(&self, id: SessionId) {
        assert_eq!(
            self.slots.get(id.index()).gen,
            id.gen,
            "stale session id: slot {} was recycled since this handle was issued",
            id.index()
        );
    }

    /// Serve one tick: each `(id, observation)` pair advances that
    /// session by one decision, all through batched backbone steps (one
    /// stacked GEMM per contiguous same-backbone run in the batch).
    /// Returns the decisions in request order.
    ///
    /// Per-slot semantics are identical to the adapter's unbatched path
    /// (`AbrPolicy::select`, `NetLlmCjs::decide_obs`, `NetLlmVp`'s
    /// one-shot eval): the trait hooks *are* that path, so the episode
    /// bookkeeping, re-anchor schedule and candidate rollback run the
    /// same code in both worlds.
    pub fn step(&mut self, task: &T, requests: &[(SessionId, &T::Obs)]) -> Vec<T::Action>
    where
        T: Sync,
        T::Obs: Sync,
        T::Slot: Send,
    {
        assert!(!requests.is_empty(), "empty serving batch");
        // Pull a distinct &mut slot per request, in request order, and
        // reject stale generations before touching any state.
        let mut picked = self.slots.get_distinct_mut(requests.iter().map(|&(id, _)| id.index()));
        for (slot, &(id, _)) in picked.iter().zip(requests) {
            assert_eq!(
                slot.gen,
                id.gen,
                "stale session id: slot {} was recycled since this handle was issued",
                id.index()
            );
        }

        // Phases 1+2 (per band): plan each slot's token rows, then run
        // batched backbone steps over the band. Bands are contiguous
        // request ranges; with NT_THREADS > 1 they fan out over the
        // persistent kernel pool ([`nt_tensor::pool::run_tasks`]) — each
        // band is an independent slice of slots (own KV caches, own
        // episode state), and band splits never change any per-element
        // accumulation order, so threaded and serial serving are
        // bit-identical. Band tasks carry the pool's worker flag (no
        // second layer of per-matmul parallelism), and an engine that is
        // *itself* inside a pool worker (a shard task) stays serial.
        let threads = if nt_tensor::pool::in_worker() {
            1
        } else {
            // Each spawned band must carry at least two slots so tiny
            // batches never pay a thread spawn per tick.
            nt_tensor::pool::num_threads().min(requests.len() / 2).max(1)
        };
        let band_len = requests.len().div_ceil(threads);
        let run_band =
            |slots: &mut [&mut EngineSlot<T>], reqs: &[(SessionId, &T::Obs)]| -> Vec<Tensor> {
                let mut parts: Vec<Tensor> = Vec::with_capacity(reqs.len());
                let mut rows = Vec::with_capacity(reqs.len());
                for (slot, &(_, obs)) in slots.iter_mut().zip(reqs) {
                    let plan = task.plan_step(&mut slot.state, obs, &slot.session);
                    if plan.reanchor {
                        slot.session.clear();
                    }
                    rows.push(plan.tokens.shape()[0]);
                    parts.push(plan.tokens);
                }
                // One batched backbone step per contiguous same-group
                // run (different groups may run different weights).
                let mut hidden_per_slot: Vec<Tensor> = Vec::with_capacity(reqs.len());
                let mut i = 0usize;
                while i < slots.len() {
                    let g = task.group_of(&slots[i].state);
                    let mut j = i + 1;
                    while j < slots.len() && task.group_of(&slots[j].state) == g {
                        j += 1;
                    }
                    let (lm, store) = task.backbone(g);
                    let refs: Vec<&Tensor> = parts[i..j].iter().collect();
                    let stacked = nt_tensor::concat(&refs, 0);
                    let mut sessions: Vec<&mut InferenceSession> =
                        slots[i..j].iter_mut().map(|s| &mut s.session).collect();
                    let hidden = append_batched(lm, store, &mut sessions, &stacked, &rows[i..j]);
                    let mut row = 0usize;
                    for &n in &rows[i..j] {
                        hidden_per_slot.push(hidden.narrow(0, row, n));
                        row += n;
                    }
                    i = j;
                }
                hidden_per_slot
            };
        let hidden: Vec<Tensor> = if threads <= 1 {
            run_band(&mut picked, requests)
        } else {
            // Each band's borrows travel to its pool task through a
            // take-once Mutex slot; outputs come back the same way.
            #[allow(clippy::type_complexity)]
            let bands: Vec<
                Mutex<Option<(&mut [&mut EngineSlot<T>], &[(SessionId, &T::Obs)])>>,
            > = picked
                .chunks_mut(band_len)
                .zip(requests.chunks(band_len))
                .map(|pair| Mutex::new(Some(pair)))
                .collect();
            let outs: Vec<Mutex<Option<Vec<Tensor>>>> =
                bands.iter().map(|_| Mutex::new(None)).collect();
            nt_tensor::pool::run_tasks(bands.len(), |bi| {
                let (slots, reqs) =
                    bands[bi].lock().unwrap().take().expect("serving band dispatched twice");
                *outs[bi].lock().unwrap() = Some(run_band(slots, reqs));
            });
            outs.into_iter()
                .flat_map(|m| m.into_inner().unwrap().expect("serving band skipped"))
                .collect()
        };

        // Phase 3: task heads over each slot's new hidden rows.
        let mut actions = Vec::with_capacity(requests.len());
        let mut rollbacks: Vec<Option<RollbackPlan>> = Vec::with_capacity(requests.len());
        for ((slot, &(_, obs)), h) in picked.iter_mut().zip(requests).zip(&hidden) {
            let out = task.settle_step(&mut slot.state, obs, h);
            slot.last_logits = out.logits;
            rollbacks.push(out.rollback);
            actions.push(out.action);
        }

        // Rollback pass: slots whose trailing rows are not persistent
        // history (CJS candidates) truncate them away, then their post
        // tokens (the chosen action) go through the backbone as one
        // batched append per same-group run. Per-slot math is identical
        // to the unbatched truncate-then-append — KV state is private to
        // each slot.
        let mut rb: Vec<(&mut EngineSlot<T>, Tensor)> = Vec::new();
        for (slot, plan) in picked.iter_mut().zip(rollbacks) {
            if let Some(RollbackPlan { drop_rows, post_tokens }) = plan {
                let keep = slot.session.len() - drop_rows;
                slot.session.truncate(keep);
                rb.push((slot, post_tokens));
            }
        }
        let mut i = 0usize;
        while i < rb.len() {
            let g = task.group_of(&rb[i].0.state);
            let mut j = i + 1;
            while j < rb.len() && task.group_of(&rb[j].0.state) == g {
                j += 1;
            }
            let (lm, store) = task.backbone(g);
            let refs: Vec<&Tensor> = rb[i..j].iter().map(|(_, t)| t).collect();
            let stacked = nt_tensor::concat(&refs, 0);
            let rows: Vec<usize> = rb[i..j].iter().map(|(_, t)| t.shape()[0]).collect();
            let mut sessions: Vec<&mut InferenceSession> =
                rb[i..j].iter_mut().map(|(s, _)| &mut s.session).collect();
            let _ = append_batched(lm, store, &mut sessions, &stacked, &rows);
            i = j;
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapt::{AdaptMode, LoraSpec};
    use crate::NetLlmAbr;
    use nt_abr::{AbrObservation, AbrPolicy};
    use nt_llm::{size_spec, Zoo};

    fn model(window: usize, seed: u64) -> NetLlmAbr {
        let loaded = Zoo::new(std::env::temp_dir().join("netllm-serving-test"))
            .build_random(&size_spec("7b-sim"));
        let mut m = NetLlmAbr::new(loaded, AdaptMode::NoDomain, LoraSpec::default(), window, seed);
        m.target_return = 2.0;
        m
    }

    fn obs_stream(seed: u64, len: usize) -> Vec<AbrObservation> {
        AbrObservation::synthetic_stream(seed, len)
    }

    #[test]
    fn batched_serving_matches_sequential_rollouts_through_reanchor() {
        // Three streams served in one engine must produce chunk-for-chunk
        // the same logits and actions as replaying each stream alone
        // through AbrPolicy::select on the same model — across staggered
        // joins (ragged prefixes) and past the 2x-window re-anchor.
        let window = 3;
        let mut m = model(window, 41);
        let streams: Vec<Vec<AbrObservation>> =
            (0..3).map(|s| obs_stream(100 + s as u64, 10)).collect();

        // Staggered joins: stream s starts at tick s.
        let mut engine = ServingEngine::new();
        let mut ids = Vec::new();
        let mut batched: Vec<Vec<(usize, Vec<f32>)>> = vec![Vec::new(); streams.len()];
        for tick in 0..streams[0].len() + streams.len() {
            if tick < streams.len() {
                ids.push(engine.join(&m));
            }
            let mut requests = Vec::new();
            for (s, obs) in streams.iter().enumerate() {
                if tick >= s && tick - s < obs.len() {
                    requests.push((ids[s], &obs[tick - s]));
                }
            }
            if requests.is_empty() {
                break;
            }
            let actions = engine.step(&m, &requests);
            for (req, act) in requests.iter().zip(actions) {
                let s = ids.iter().position(|&i| i == req.0).unwrap();
                batched[s].push((act, engine.last_logits(req.0).to_vec()));
            }
        }

        // Sequential reference: same model, one stream at a time.
        for (s, obs) in streams.iter().enumerate() {
            m.reset();
            let mut reanchored = false;
            for (chunk, o) in obs.iter().enumerate() {
                let act = m.select(o);
                let (bact, blogits) = &batched[s][chunk];
                assert_eq!(act, *bact, "stream {s} chunk {chunk}: action diverged");
                for (x, y) in m.last_logits().iter().zip(blogits) {
                    assert!(
                        (x - y).abs() < 1e-5,
                        "stream {s} chunk {chunk}: batched {y} vs sequential {x}"
                    );
                }
                reanchored |= chunk >= 2 * window;
            }
            assert!(reanchored, "probe must cross a re-anchor event");
        }
    }

    #[test]
    fn join_leave_recycles_ids_without_disturbing_survivors() {
        let mut m = model(4, 42);
        let mut engine = ServingEngine::new();
        let a = engine.join(&m);
        let b = engine.join(&m);
        let c = engine.join(&m);
        assert_eq!((a.index(), b.index(), c.index()), (0, 1, 2));
        let obs = obs_stream(7, 6);

        // Advance all three, then drop a and c mid-flight.
        let _ = engine.step(&m, &[(a, &obs[0]), (b, &obs[0]), (c, &obs[0])]);
        let _ = engine.step(&m, &[(a, &obs[1]), (b, &obs[1]), (c, &obs[1])]);
        engine.leave(a);
        engine.leave(c);
        assert_eq!(engine.active(), 1);
        let d = engine.join(&m);
        assert_eq!(d.index(), 0, "smallest freed index is recycled");
        assert_ne!(d, a, "recycled index carries a fresh generation");

        // The survivor must continue exactly like a sequential rollout.
        let mut expected: Vec<usize> = Vec::new();
        m.reset();
        for o in &obs {
            expected.push(m.select(o));
        }
        for (i, o) in obs.iter().enumerate().skip(2) {
            let got = engine.step(&m, &[(b, o), (d, &obs[i - 2])]);
            assert_eq!(got[0], expected[i], "survivor diverged after leave/join at chunk {i}");
        }
    }

    #[test]
    fn session_enumeration_matches_per_session_cache_accounting() {
        // The eviction/steering hooks: `sessions()` walks live sessions
        // with their KV bytes, consistent with `cache_bytes_of` and the
        // engine total.
        let m = model(4, 45);
        let mut engine = ServingEngine::new();
        let a = engine.join(&m);
        let b = engine.join(&m);
        assert_eq!(engine.cache_bytes_of(a), 0, "fresh sessions hold no KV");
        let obs = obs_stream(13, 2);
        // Advance only `a`: its bytes grow, `b`'s stay zero.
        let _ = engine.step(&m, &[(a, &obs[0])]);
        assert!(engine.cache_bytes_of(a) > 0);
        assert_eq!(engine.cache_bytes_of(b), 0);
        let listed: Vec<(SessionId, usize)> = engine.sessions().collect();
        assert_eq!(listed.len(), 2);
        assert_eq!(listed.iter().map(|&(_, bytes)| bytes).sum::<usize>(), engine.cache_bytes());
        for &(id, bytes) in &listed {
            assert_eq!(bytes, engine.cache_bytes_of(id));
        }
        // Ids from the enumeration carry the live generation (usable
        // handles, not stale ones).
        assert!(listed.iter().any(|&(id, _)| id == a));
        assert!(listed.iter().any(|&(id, _)| id == b));
    }

    #[test]
    #[should_panic(expected = "stale session id")]
    fn stale_id_cannot_read_recycled_slots_logits() {
        // A handle kept across leave/join recycle must not silently read
        // the new occupant's logits — the generation check rejects it.
        let m = model(4, 44);
        let mut engine = ServingEngine::new();
        let a = engine.join(&m);
        let obs = obs_stream(11, 2);
        let _ = engine.step(&m, &[(a, &obs[0])]);
        engine.leave(a);
        let b = engine.join(&m); // recycles index 0 under a new generation
        let _ = engine.step(&m, &[(b, &obs[1])]);
        let _ = engine.last_logits(a); // must panic, not alias b's slot
    }

    #[test]
    #[should_panic]
    fn duplicate_session_in_batch_panics() {
        let m = model(4, 43);
        let mut engine = ServingEngine::new();
        let a = engine.join(&m);
        let obs = obs_stream(9, 1);
        let _ = engine.step(&m, &[(a, &obs[0]), (a, &obs[0])]);
    }

    #[test]
    #[should_panic(expected = "draws from another pool")]
    fn admit_refuses_a_session_from_another_pool() {
        // A parked session moves with its KV cache as it is: an engine on a
        // different memory mode must refuse it, not copy it.
        let m = model(4, 45);
        let pool = nt_llm::PagePool::for_model(
            &m.lm,
            nt_llm::PageConfig { page_tokens: 16, budget_bytes: 1 << 20 },
        );
        let mut paged = ServingEngine::with_page_pool(pool);
        let id = paged.join(&m);
        let parked = paged.park(id);
        let _ = ServingEngine::<NetLlmAbr>::new().admit(parked);
    }
}
