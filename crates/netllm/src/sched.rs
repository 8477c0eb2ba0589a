//! Async admission queue + tick scheduling policies for continuous
//! batching.
//!
//! This module is the fleet's queuing discipline: arrivals enqueue
//! *asynchronously* into per-shard [`AdmissionQueue`]s (stamped with a
//! logical arrival clock and tagged with their adapter group), and each
//! shard drains its queue at tick boundaries — at most one arrival per
//! session per tick, FIFO within a session — so sessions join, answer and
//! leave mid-stream while the engine still gets dense batched steps.
//!
//! ```text
//!  submit(obs) ──► Ticket ─┐   per-shard queues     tick boundary
//!  submit(obs) ──► Ticket ─┤  ┌────────────────┐  drain ≤1/session
//!      ...                 ├─►│ q0 │ q1 │ … │qK ├──────► ServingEngine::step
//!  poll(Ticket) ◄─ actions ┘  └────────────────┘        per busy shard
//! ```
//!
//! Placement is pluggable via [`AdmissionPolicy`]: `HashRoute` keeps the
//! PR 3 FNV-1a session-hash behaviour, `LeastLoaded` admits to the shard
//! with the fewest live slots, and `CacheAware` admits to the shard
//! holding the fewest KV bytes *and* steers load off any shard whose KV
//! bytes cross a configurable budget (the tick scheduler migrates the
//! coldest — least-recently-served — session to the lightest shard).
//! Every policy is a pure function of the fleet view, so placement is
//! deterministic and unit-testable without a model.
//!
//! The scheduler lives in [`crate::ShardedServer`] (`submit`/`tick`/
//! `poll`); this module owns the data structures and the placement math.

use std::collections::VecDeque;

/// Fleet-wide session handle (mirrors `shard::GlobalSessionId`; duplicated
/// here as a plain alias so the queue stays free of engine types).
pub type SessionKey = u64;

/// Handle for one submitted observation: redeem it with
/// [`crate::ShardedServer::poll`] once the scheduler has served the tick
/// that answered it. Tickets are issued in submission order and are never
/// reused.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Ticket(pub u64);

/// One queued observation: who asked, when it arrived (logical clock),
/// which backbone group (adapter tag) will serve it, and the observation
/// itself.
#[derive(Debug)]
pub struct Arrival<O> {
    /// The ticket the submitter holds.
    pub ticket: Ticket,
    /// The session this observation advances.
    pub session: SessionKey,
    /// Backbone group of the session — the adapter tag
    /// ([`crate::ServedTask::task_label`] renders it for reports).
    pub group: usize,
    /// The observation to serve.
    pub obs: O,
}

impl<O> Arrival<O> {
    /// Logical arrival stamp: tickets are issued in submission order, so
    /// the ticket sequence *is* the fleet-wide monotonic arrival clock.
    pub fn stamp(&self) -> u64 {
        self.ticket.0
    }
}

/// Bounded FIFO of pending observations for one shard.
///
/// Invariants (property-tested in `tests/admission_queue.rs`):
/// - no ticket is lost or double-served: every pushed arrival leaves the
///   queue exactly once, via [`AdmissionQueue::drain_tick`] or
///   [`AdmissionQueue::remove_session`];
/// - FIFO within a session: a session's arrivals drain in push order
///   (drains take at most one arrival per session, so a backlogged
///   session advances one decision per tick, in order);
/// - backpressure on admission: [`AdmissionQueue::push`] refuses
///   (returning the arrival to the caller) instead of growing past the
///   cap, so submissions never push `len()` beyond `capacity()`. The one
///   sanctioned exception is [`AdmissionQueue::requeue`] — a steering
///   migration must never drop an already-ticketed arrival, so a move
///   onto a full queue may transiently exceed the cap (drained back down
///   at the following ticks; new `push`es stay refused meanwhile).
pub struct AdmissionQueue<O> {
    entries: VecDeque<Arrival<O>>,
    cap: usize,
}

impl<O> AdmissionQueue<O> {
    /// Empty queue refusing pushes beyond `cap` pending arrivals.
    pub fn with_capacity(cap: usize) -> Self {
        assert!(cap >= 1, "a queue needs capacity for at least one arrival");
        AdmissionQueue { entries: VecDeque::new(), cap }
    }

    /// Pending arrivals.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Backpressure cap.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Enqueue an arrival; at the cap the arrival comes back as `Err` so
    /// the caller can retry after a tick (backpressure, not silent drop).
    pub fn push(&mut self, arrival: Arrival<O>) -> Result<(), Arrival<O>> {
        if self.entries.len() >= self.cap {
            return Err(arrival);
        }
        self.entries.push_back(arrival);
        Ok(())
    }

    /// Re-enqueue an arrival that already holds a ticket (steering moves
    /// queued arrivals between shards; a move must never drop a ticket,
    /// so it bypasses the cap).
    pub fn requeue(&mut self, arrival: Arrival<O>) {
        self.entries.push_back(arrival);
    }

    /// Put already-drained arrivals back at the *head* of the queue, in
    /// the given order — the memory scheduler's deferral path: when the
    /// page pool cannot cover a tick's demand even after eviction, the
    /// youngest drained arrivals go back here so the next drain serves
    /// them first and FIFO-per-session is preserved. Bypasses the cap
    /// (the arrivals hold tickets already).
    pub fn requeue_front(&mut self, arrivals: Vec<Arrival<O>>) {
        for a in arrivals.into_iter().rev() {
            self.entries.push_front(a);
        }
    }

    /// Drain one tick's batch: arrivals in FIFO order, skipping (keeping
    /// queued) any session already taken this drain — a session advances
    /// at most one decision per tick, so within-session order is
    /// preserved and a batched engine step never sees a duplicate slot.
    pub fn drain_tick(&mut self) -> Vec<Arrival<O>> {
        let mut taken: std::collections::BTreeSet<SessionKey> = std::collections::BTreeSet::new();
        let mut batch = Vec::new();
        let mut kept = VecDeque::with_capacity(self.entries.len());
        for a in self.entries.drain(..) {
            if taken.insert(a.session) {
                batch.push(a);
            } else {
                kept.push_back(a);
            }
        }
        self.entries = kept;
        batch
    }

    /// Remove (and return) every pending arrival of `session`, in FIFO
    /// order — steering moves them to the destination shard's queue;
    /// leave drops them (their tickets never resolve).
    pub fn remove_session(&mut self, session: SessionKey) -> Vec<Arrival<O>> {
        let mut removed = Vec::new();
        let mut kept = VecDeque::with_capacity(self.entries.len());
        for a in self.entries.drain(..) {
            if a.session == session {
                removed.push(a);
            } else {
                kept.push_back(a);
            }
        }
        self.entries = kept;
        removed
    }

    /// Pending arrivals of one session (FIFO-depth view for tests and
    /// backpressure diagnostics).
    pub fn pending_of(&self, session: SessionKey) -> usize {
        self.entries.iter().filter(|a| a.session == session).count()
    }

    /// Drain the whole queue in FIFO order — the recovery path: when a
    /// shard is declared dead its backlog is redistributed to the
    /// surviving shards' queues (via [`AdmissionQueue::requeue`], so the
    /// move never drops a ticket).
    pub fn take_all(&mut self) -> Vec<Arrival<O>> {
        self.entries.drain(..).collect()
    }
}

/// Why [`crate::ShardedServer::submit`] refused an observation. Both
/// variants return the observation so nothing is silently lost — the
/// caller retries after the indicated condition clears (see
/// [`SubmitRetry`] for the deterministic backoff the harnesses use).
#[derive(PartialEq, Eq)]
pub enum SubmitError<O> {
    /// The session's shard queue is at its backpressure cap; a tick's
    /// drain frees space, so retry after the next tick.
    QueueFull {
        /// The refused observation, returned intact.
        obs: O,
    },
    /// The session's shard is Suspect (missed heartbeats) or mid-recovery;
    /// retry after a tick — the health checker will either revive the
    /// shard or re-admit the session on a survivor.
    RetryAfterTick {
        /// The refused observation, returned intact.
        obs: O,
    },
}

impl<O> SubmitError<O> {
    /// Recover the refused observation for a retry.
    pub fn into_obs(self) -> O {
        match self {
            SubmitError::QueueFull { obs } | SubmitError::RetryAfterTick { obs } => obs,
        }
    }

    pub fn is_queue_full(&self) -> bool {
        matches!(self, SubmitError::QueueFull { .. })
    }

    pub fn is_retry_after_tick(&self) -> bool {
        matches!(self, SubmitError::RetryAfterTick { .. })
    }
}

// Manual impl so `submit(..).unwrap()` works without `O: Debug` and the
// (arbitrarily large) observation never lands in a panic message.
impl<O> std::fmt::Debug for SubmitError<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { .. } => f.write_str("SubmitError::QueueFull"),
            SubmitError::RetryAfterTick { .. } => f.write_str("SubmitError::RetryAfterTick"),
        }
    }
}

/// Deterministic retry/backoff for refused submissions. `QueueFull` waits
/// exactly one tick (the next drain frees space); `RetryAfterTick` backs
/// off exponentially (1, 2, 4, … up to `max_backoff` ticks) while a shard
/// stays Suspect, and any success resets the backoff. Pure tick
/// arithmetic — no wall clock, no randomness — so a soak trace that uses
/// it replays identically from its seed.
#[derive(Clone, Copy, Debug)]
pub struct SubmitRetry {
    next_try: u64,
    backoff: u64,
    max_backoff: u64,
}

impl Default for SubmitRetry {
    fn default() -> Self {
        SubmitRetry::new()
    }
}

impl SubmitRetry {
    /// Helper with an 8-tick backoff cap.
    pub fn new() -> Self {
        SubmitRetry { next_try: 0, backoff: 1, max_backoff: 8 }
    }

    /// Helper with a custom backoff cap (>= 1).
    pub fn with_max_backoff(max_backoff: u64) -> Self {
        assert!(max_backoff >= 1, "backoff cap must be >= 1");
        SubmitRetry { next_try: 0, backoff: 1, max_backoff }
    }

    /// Whether a submission should be attempted at `tick`.
    pub fn ready(&self, tick: u64) -> bool {
        tick >= self.next_try
    }

    /// Record a refusal at `tick`; schedules the next attempt.
    pub fn refused<O>(&mut self, tick: u64, err: &SubmitError<O>) {
        match err {
            SubmitError::QueueFull { .. } => {
                self.next_try = tick + 1;
            }
            SubmitError::RetryAfterTick { .. } => {
                self.next_try = tick + self.backoff;
                self.backoff = (self.backoff * 2).min(self.max_backoff);
            }
        }
    }

    /// Record a success; resets the backoff.
    pub fn succeeded(&mut self) {
        self.next_try = 0;
        self.backoff = 1;
    }
}

/// Resolution state of a [`Ticket`] under faults, from
/// [`crate::ShardedServer::poll_status`]. `Served` and `Failed` are
/// terminal; `Requeued` means the arrival was displaced by a fault and is
/// queued again (it will resolve `Served` on a later tick); `Pending`
/// covers queued-and-undisturbed tickets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TicketStatus<A> {
    /// Queued or in flight; poll again after a tick.
    Pending,
    /// Served — the action, exactly once (terminal).
    Served(A),
    /// Displaced by a fault and re-queued; still owed an answer.
    Requeued,
    /// Lost to a fault (poisoned step or dropped batch); the submitter
    /// re-submits the observation if it still wants an answer (terminal).
    Failed,
}

impl<A> TicketStatus<A> {
    /// Whether this status is final (`Served` or `Failed`).
    pub fn is_terminal(&self) -> bool {
        matches!(self, TicketStatus::Served(_) | TicketStatus::Failed)
    }
}

/// FNV-1a over the id bytes: cheap, deterministic, and uncorrelated with
/// sequential id assignment (so consecutive joins spread across shards).
pub(crate) fn fnv1a(id: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in id.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// One shard's page-economy snapshot, the unit of the placement view a
/// [`AdmissionPolicy::PageAware`] policy steers by. In-process fleets
/// share one [`nt_llm::PagePool`], so every shard reports the same
/// `free_pages` (the global free list); per-process shards report their
/// own pool's. All-zero for fleets without a pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PagePressure {
    /// Pages the shard's pool can still lend without eviction.
    pub free_pages: usize,
    /// Pages the shard's resident sessions hold.
    pub held_pages: usize,
}

/// Pure per-shard fleet view one placement decision reads. Built by the
/// server at the join/recovery boundary; `place` never touches an engine,
/// so every policy is unit-testable from plain slices.
#[derive(Clone, Copy, Debug)]
pub struct PlacementView<'a> {
    /// Live slots per shard.
    pub active: &'a [usize],
    /// KV bytes held per shard.
    pub cache_bytes: &'a [usize],
    /// Page economy per shard (all-default without a pool).
    pub pressure: &'a [PagePressure],
    /// Resident sessions per shard on the joiner's backbone group — the
    /// batch-shape signal: same-backbone slots share stacked GEMMs, so
    /// co-locating them keeps the batched steps dense.
    pub same_backbone: &'a [usize],
    /// Pages the placed session needs immediately: 0 for a fresh join
    /// (its cache starts empty); a migrating or salvaged session's
    /// rebuild demand otherwise.
    pub need_pages: usize,
}

impl<'a> PlacementView<'a> {
    /// A view with no page economy and no backbone histogram — what the
    /// byte-denominated policies (`HashRoute`/`LeastLoaded`/`CacheAware`)
    /// read; `PageAware` placement over it degenerates to `LeastLoaded`.
    pub fn bytes_only(active: &'a [usize], cache_bytes: &'a [usize]) -> Self {
        PlacementView { active, cache_bytes, pressure: &[], same_backbone: &[], need_pages: 0 }
    }
}

/// The strictly-improving steer contract, extended to the page economy:
/// moving a victim carrying `victim_load` units (KV bytes for
/// `CacheAware`, pages for `PageAware`) from a shard at `src_load` to one
/// at `dest_load` is worthwhile only when the destination ends strictly
/// below where the source started (no ping-pong between equal-height
/// shards, no bouncing a session whose cache alone exceeds the budget)
/// *and* the destination pool's free list covers the victim's pages
/// (`None` for pool-less fleets) — a steer that lands on a shard with too
/// few free pages just converts into an eviction on arrival, re-anchoring
/// someone to move nobody's bytes. Pure; the steer passes and the
/// `sched.rs` unit tests share it.
pub fn steer_improves(
    src_load: usize,
    dest_load: usize,
    victim_load: usize,
    victim_pages: usize,
    dest_free_pages: Option<usize>,
) -> bool {
    victim_load > 0
        && dest_load + victim_load < src_load
        && dest_free_pages.is_none_or(|free| free >= victim_pages)
}

/// Where a joining session lands, and whether the tick scheduler steers
/// load between shards.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AdmissionPolicy {
    /// PR 3 behaviour: the session id's FNV-1a hash picks the shard —
    /// stateless, uniform in expectation, but blind to load and KV bytes.
    HashRoute,
    /// Admit to the shard with the fewest live slots; ties break to the
    /// lowest shard index (deterministic).
    LeastLoaded,
    /// Admit to the shard holding the fewest KV bytes (ties to the lowest
    /// index), and steer: whenever a shard's KV bytes cross
    /// `budget_bytes` at a tick boundary, the scheduler migrates the
    /// coldest session off it to the lightest shard, one session per tick
    /// per victim, until every shard fits or no eligible victim remains.
    /// A per-shard budget is only maintainable while fleet-wide bytes
    /// stay under `shards * budget_bytes`; past that the pass is
    /// best-effort (it still levels the skew).
    CacheAware {
        /// Per-shard KV-byte budget the steering pass enforces.
        budget_bytes: usize,
    },
    /// Admit by page pressure instead of raw bytes: prefer shards whose
    /// free pages cover the session's immediate need
    /// ([`PlacementView::need_pages`]) without triggering eviction, then
    /// the shard holding the fewest pages; ties break to the shard with
    /// the *most* resident same-backbone sessions (co-located
    /// same-backbone slots share stacked GEMMs, so the batch-shape
    /// tie-break keeps the batched steps dense), then the fewest live
    /// slots, then the lowest index. Steers like `CacheAware`, but
    /// denominated in pages: while a shard holds more than `budget_pages`,
    /// its coldest session migrates to the lightest shard — every move
    /// gated by [`steer_improves`], so a destination without the free
    /// pages to absorb the victim is never picked.
    PageAware {
        /// Per-shard held-pages budget the steering pass enforces.
        budget_pages: usize,
    },
}

impl AdmissionPolicy {
    /// Pick the shard a new session joins. Pure in the
    /// [`PlacementView`]: `id` is the new global session id; the view
    /// carries one entry per shard (the page/backbone slices may be
    /// empty for pool-less fleets — `PageAware` then places by live
    /// slots alone).
    pub fn place(&self, id: u64, view: &PlacementView) -> usize {
        let k = view.active.len();
        assert!(k >= 1 && view.cache_bytes.len() == k, "malformed fleet view");
        match self {
            AdmissionPolicy::HashRoute => (fnv1a(id) % k as u64) as usize,
            AdmissionPolicy::LeastLoaded => {
                (0..k).min_by_key(|&s| (view.active[s], s)).expect("non-empty fleet")
            }
            // KV-byte ties (e.g. a fleet that has not served yet) fall
            // back to live-slot count, then index — so cold joins still
            // spread instead of piling onto shard 0.
            AdmissionPolicy::CacheAware { .. } => (0..k)
                .min_by_key(|&s| (view.cache_bytes[s], view.active[s], s))
                .expect("non-empty fleet"),
            AdmissionPolicy::PageAware { .. } => {
                assert!(
                    view.pressure.is_empty() == view.same_backbone.is_empty(),
                    "malformed fleet view: page pressure and backbone histogram travel together"
                );
                if view.pressure.is_empty() {
                    // No page economy to read: fall back to live slots.
                    return (0..k).min_by_key(|&s| (view.active[s], s)).expect("non-empty fleet");
                }
                assert!(
                    view.pressure.len() == k && view.same_backbone.len() == k,
                    "malformed fleet view"
                );
                let key = |s: usize| {
                    (
                        view.pressure[s].held_pages,
                        // Most same-backbone residents first (denser
                        // stacked GEMMs) — inverted for min_by_key.
                        usize::MAX - view.same_backbone[s],
                        view.active[s],
                        s,
                    )
                };
                // Feasible shards (free pages cover the need, no eviction
                // on arrival) are preferred outright; when none is — the
                // whole fleet is under pressure — pick by pressure alone
                // and let the memory guard arbitrate.
                (0..k)
                    .filter(|&s| view.pressure[s].free_pages >= view.need_pages)
                    .min_by_key(|&s| key(s))
                    .unwrap_or_else(|| (0..k).min_by_key(|&s| key(s)).expect("non-empty fleet"))
            }
        }
    }

    /// The per-shard KV-byte budget this policy enforces, if any.
    pub fn kv_budget(&self) -> Option<usize> {
        match self {
            AdmissionPolicy::CacheAware { budget_bytes } => Some(*budget_bytes),
            _ => None,
        }
    }

    /// The per-shard held-pages budget this policy enforces, if any.
    pub fn page_budget(&self) -> Option<usize> {
        match self {
            AdmissionPolicy::PageAware { budget_pages } => Some(*budget_pages),
            _ => None,
        }
    }
}

/// How a memory-backed fleet reclaims KV pages when a tick's page demand
/// exceeds the pool's free list. Orthogonal to [`AdmissionPolicy`]: the
/// admission policy decides *where* sessions live, the eviction policy
/// decides *whose cache dies* under pressure.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EvictionPolicy {
    /// Never reclaim: under pressure the scheduler only defers drained
    /// arrivals back to the queues, youngest first. For operators who
    /// size the pool for the worst case and want deferral-only
    /// backpressure.
    None,
    /// Clear the coldest (least-recently-served) idle session's pages; it
    /// re-anchors from its episode log on its next step, exactly like a
    /// context-full re-anchor. Ties break to the session holding the most
    /// pages (biggest reclaim), then the lowest id (determinism) — the
    /// `last_served` + `heaviest` ordering.
    #[default]
    ColdestReanchor,
    /// Clear the idle session whose re-anchor rebuild is *cheapest*:
    /// each candidate is priced by [`crate::ServedTask::rebuild_rows`]
    /// (the extra token rows its next step replays because the cache is
    /// gone — 0 when that step re-anchors regardless) times its backbone
    /// width, so the victim is the one whose eviction costs the fleet
    /// the least recomputation. Ties break to the most pages held
    /// (biggest reclaim per re-anchor), then coldest, then lowest id.
    /// Age-blind by design: a hot session due a free re-anchor is a
    /// better victim than a cold one carrying a full window.
    CheapestRebuild,
}

/// What the memory guard did at one tick boundary (pool occupancy,
/// reclaims, deferrals) — `None`-pool fleets report an empty guard.
#[derive(Debug, Default, Clone)]
pub struct MemoryReport {
    /// Sessions whose KV pages were reclaimed this tick (they re-anchor
    /// on their next step).
    pub evicted: Vec<u64>,
    /// Drained arrivals pushed back to their queues because the pool
    /// could not cover them even after eviction (served on later ticks —
    /// their tickets stay pending, nothing is lost).
    pub deferred: usize,
    /// Pool bytes lent out at the end of the tick, after the step's
    /// allocations (≤ the pool budget, by construction — the pool never
    /// mints past it).
    pub used_bytes: usize,
}

/// What one [`crate::ShardedServer::tick`] did — the observable record of
/// a tick cycle (the leaves since the previous tick plus this tick's
/// drain, step and steering pass).
#[derive(Debug, Default)]
pub struct TickReport {
    /// Tick number (monotonic, starts at 1).
    pub tick: u64,
    /// Arrivals served (tickets now redeemable via `poll`).
    pub served: usize,
    /// Sessions steered during this tick cycle — by rebalance-on-leave
    /// since the previous tick or by the cache-aware pass of this one.
    /// Never contains duplicates: a session is steered at most once per
    /// tick cycle (double-migration is the regression `tests/admission.rs`
    /// pins down).
    pub steered: Vec<u64>,
    /// Arrivals still queued after the drain (backlogged sessions).
    pub pending: usize,
    /// Served counts per adapter tag ([`crate::ServedTask::task_label`]).
    pub served_by_label: Vec<(&'static str, usize)>,
    /// What the paged-memory guard did this tick (empty without a pool).
    pub memory: MemoryReport,
    /// What the fault layer did this tick (kills fired, deaths declared,
    /// sessions recovered, tickets failed/requeued — all-default on
    /// fault-free ticks).
    pub faults: crate::fault::FaultReport,
    /// Fleet-total wall-ns per tick phase, indexed by
    /// [`crate::metrics::TickPhase`] (per-shard spans summed for the
    /// per-shard phases; the whole pass for the fleet-wide ones). All
    /// zero when telemetry is off.
    pub phase_ns: [u64; crate::metrics::TICK_PHASES],
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrival(ticket: u64, session: u64) -> Arrival<u32> {
        Arrival { ticket: Ticket(ticket), session, group: 0, obs: ticket as u32 }
    }

    #[test]
    fn drain_takes_at_most_one_arrival_per_session_in_fifo_order() {
        let mut q = AdmissionQueue::with_capacity(16);
        for (t, s) in [(0u64, 7u64), (1, 7), (2, 3), (3, 7), (4, 3)] {
            q.push(arrival(t, s)).unwrap();
        }
        let batch: Vec<u64> = q.drain_tick().iter().map(|a| a.ticket.0).collect();
        assert_eq!(batch, vec![0, 2], "first arrival of each session, arrival order");
        let batch: Vec<u64> = q.drain_tick().iter().map(|a| a.ticket.0).collect();
        assert_eq!(batch, vec![1, 4]);
        let batch: Vec<u64> = q.drain_tick().iter().map(|a| a.ticket.0).collect();
        assert_eq!(batch, vec![3]);
        assert!(q.is_empty());
    }

    #[test]
    fn push_refuses_at_capacity_and_returns_the_arrival() {
        let mut q = AdmissionQueue::with_capacity(2);
        q.push(arrival(0, 1)).unwrap();
        q.push(arrival(1, 2)).unwrap();
        let back = q.push(arrival(2, 3)).unwrap_err();
        assert_eq!(back.ticket, Ticket(2), "refused arrival comes back intact");
        assert_eq!(q.len(), 2);
        // Draining frees capacity again.
        let _ = q.drain_tick();
        q.push(arrival(3, 4)).unwrap();
    }

    #[test]
    fn requeue_bypasses_the_cap_without_unblocking_push() {
        // A steering migration must never drop a ticketed arrival, so
        // `requeue` may transiently exceed the cap — while fresh `push`es
        // stay refused until drains bring the queue back down.
        let mut q = AdmissionQueue::with_capacity(2);
        q.push(arrival(0, 1)).unwrap();
        q.push(arrival(1, 2)).unwrap();
        q.requeue(arrival(2, 3)); // migrated in from another shard
        assert_eq!(q.len(), 3, "requeue lands above the cap");
        assert!(q.push(arrival(3, 4)).is_err(), "push stays refused while over the cap");
        assert_eq!(q.drain_tick().len(), 3, "distinct sessions all drain");
        assert!(q.is_empty());
        q.push(arrival(4, 5)).unwrap();
    }

    #[test]
    fn requeue_front_preserves_fifo_for_the_next_drain() {
        // Deferral pushes drained arrivals back to the head: the next
        // drain must serve them before anything that queued behind them,
        // in their original order.
        let mut q = AdmissionQueue::with_capacity(2);
        q.push(arrival(0, 1)).unwrap();
        q.push(arrival(1, 2)).unwrap();
        let drained = q.drain_tick();
        assert_eq!(drained.len(), 2);
        q.push(arrival(2, 3)).unwrap();
        q.requeue_front(drained); // both deferred, original order
        assert_eq!(q.len(), 3, "requeue_front bypasses the cap");
        let next: Vec<u64> = q.drain_tick().iter().map(|a| a.ticket.0).collect();
        assert_eq!(next, vec![0, 1, 2], "deferred arrivals drain first, FIFO preserved");
    }

    #[test]
    fn remove_session_extracts_only_that_sessions_arrivals() {
        let mut q = AdmissionQueue::with_capacity(8);
        for (t, s) in [(0u64, 1u64), (1, 2), (2, 1), (3, 2)] {
            q.push(arrival(t, s)).unwrap();
        }
        let moved: Vec<u64> = q.remove_session(2).iter().map(|a| a.ticket.0).collect();
        assert_eq!(moved, vec![1, 3], "session 2's arrivals, FIFO");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pending_of(1), 2);
        assert_eq!(q.pending_of(2), 0);
    }

    #[test]
    fn hash_route_matches_fnv_and_spreads() {
        let p = AdmissionPolicy::HashRoute;
        let active = [0usize; 3];
        let bytes = [0usize; 3];
        let mut seen = [false; 3];
        for id in 0..16u64 {
            let s = p.place(id, &PlacementView::bytes_only(&active, &bytes));
            assert_eq!(s, (fnv1a(id) % 3) as usize);
            seen[s] = true;
        }
        assert!(seen.iter().all(|&x| x), "16 sequential ids must touch every shard");
    }

    #[test]
    fn least_loaded_picks_fewest_slots_with_deterministic_ties() {
        let p = AdmissionPolicy::LeastLoaded;
        let v = |active: &'static [usize]| PlacementView::bytes_only(active, &[0, 0, 0]);
        assert_eq!(p.place(9, &v(&[3, 1, 2])), 1);
        // Ties break to the lowest shard index, independent of the id.
        assert_eq!(p.place(0, &v(&[2, 2, 2])), 0);
        assert_eq!(p.place(77, &v(&[2, 2, 2])), 0);
        assert_eq!(p.place(5, &v(&[2, 1, 1])), 1);
    }

    #[test]
    fn take_all_drains_fifo_and_empties_the_queue() {
        let mut q = AdmissionQueue::with_capacity(8);
        for (t, s) in [(0u64, 1u64), (1, 2), (2, 1)] {
            q.push(arrival(t, s)).unwrap();
        }
        let all: Vec<u64> = q.take_all().iter().map(|a| a.ticket.0).collect();
        assert_eq!(all, vec![0, 1, 2], "whole backlog, FIFO order");
        assert!(q.is_empty());
    }

    #[test]
    fn submit_retry_backs_off_on_suspect_and_resets_on_success() {
        let mut r = SubmitRetry::with_max_backoff(4);
        assert!(r.ready(0));
        // QueueFull: exactly one tick.
        r.refused(3, &SubmitError::QueueFull { obs: () });
        assert!(!r.ready(3));
        assert!(r.ready(4));
        // RetryAfterTick: 1, 2, 4, 4 … (capped) ticks between attempts.
        r.refused(4, &SubmitError::RetryAfterTick { obs: () });
        assert!(r.ready(5));
        r.refused(5, &SubmitError::RetryAfterTick { obs: () });
        assert!(!r.ready(6));
        assert!(r.ready(7));
        r.refused(7, &SubmitError::RetryAfterTick { obs: () });
        assert!(!r.ready(10));
        assert!(r.ready(11));
        r.refused(11, &SubmitError::RetryAfterTick { obs: () });
        assert!(r.ready(15), "backoff capped at 4 ticks");
        r.succeeded();
        assert!(r.ready(0), "success resets the schedule");
        assert_eq!(SubmitError::QueueFull { obs: 7u32 }.into_obs(), 7);
        assert!(TicketStatus::<u32>::Failed.is_terminal());
        assert!(!TicketStatus::<u32>::Requeued.is_terminal());
    }

    #[test]
    fn cache_aware_places_on_lightest_shard() {
        let p = AdmissionPolicy::CacheAware { budget_bytes: 1 << 20 };
        let v = |active: &'static [usize], bytes: &'static [usize]| {
            PlacementView::bytes_only(active, bytes)
        };
        assert_eq!(p.place(3, &v(&[1, 1, 1], &[500, 100, 300])), 1);
        // Byte ties fall back to live-slot count (cold joins spread),
        // then to the lowest index.
        assert_eq!(p.place(3, &v(&[9, 0, 0], &[200, 200, 400])), 1);
        assert_eq!(p.place(3, &v(&[2, 2, 9], &[200, 200, 400])), 0);
        assert_eq!(p.kv_budget(), Some(1 << 20));
        assert_eq!(AdmissionPolicy::LeastLoaded.kv_budget(), None);
        assert_eq!(p.page_budget(), None);
        assert_eq!(AdmissionPolicy::PageAware { budget_pages: 40 }.page_budget(), Some(40));
    }

    fn paged_view<'a>(
        active: &'a [usize],
        cache_bytes: &'a [usize],
        pressure: &'a [PagePressure],
        same_backbone: &'a [usize],
        need_pages: usize,
    ) -> PlacementView<'a> {
        PlacementView { active, cache_bytes, pressure, same_backbone, need_pages }
    }

    #[test]
    fn page_aware_places_on_least_page_pressure() {
        let p = AdmissionPolicy::PageAware { budget_pages: 100 };
        let pressure = [
            PagePressure { free_pages: 10, held_pages: 40 },
            PagePressure { free_pages: 10, held_pages: 12 },
            PagePressure { free_pages: 10, held_pages: 25 },
        ];
        // Fewest held pages wins regardless of KV bytes or slot count.
        let v = paged_view(&[1, 9, 1], &[100, 900, 100], &pressure, &[0, 0, 0], 0);
        assert_eq!(p.place(3, &v), 1);
        // Without a page economy the policy degenerates to LeastLoaded.
        assert_eq!(p.place(3, &PlacementView::bytes_only(&[2, 1, 2], &[0, 0, 0])), 1);
    }

    #[test]
    fn page_aware_prefers_destinations_whose_free_pages_cover_the_need() {
        let p = AdmissionPolicy::PageAware { budget_pages: 100 };
        // Shard 1 has the least pressure but cannot absorb 8 pages
        // without eviction; shard 2 can — feasibility beats pressure.
        let pressure = [
            PagePressure { free_pages: 2, held_pages: 40 },
            PagePressure { free_pages: 4, held_pages: 10 },
            PagePressure { free_pages: 9, held_pages: 25 },
        ];
        let v = paged_view(&[1, 1, 1], &[0, 0, 0], &pressure, &[0, 0, 0], 8);
        assert_eq!(p.place(3, &v), 2);
        // When no shard covers the need, fall back to pure pressure
        // (the memory guard arbitrates on arrival).
        let v = paged_view(&[1, 1, 1], &[0, 0, 0], &pressure, &[0, 0, 0], 64);
        assert_eq!(p.place(3, &v), 1);
        // Zero need (a fresh join): every shard is feasible.
        let v = paged_view(&[1, 1, 1], &[0, 0, 0], &pressure, &[0, 0, 0], 0);
        assert_eq!(p.place(3, &v), 1);
    }

    #[test]
    fn page_aware_ties_break_toward_same_backbone_residents() {
        let p = AdmissionPolicy::PageAware { budget_pages: 100 };
        // Equal pressure everywhere: the shard already hosting the most
        // same-backbone sessions wins (denser stacked GEMMs), then fewest
        // live slots, then index.
        let pressure = [PagePressure { free_pages: 10, held_pages: 20 }; 3];
        let v = paged_view(&[4, 4, 4], &[0, 0, 0], &pressure, &[1, 3, 0], 0);
        assert_eq!(p.place(3, &v), 1);
        let v = paged_view(&[4, 2, 4], &[0, 0, 0], &pressure, &[2, 2, 2], 0);
        assert_eq!(p.place(3, &v), 1);
        let v = paged_view(&[4, 4, 4], &[0, 0, 0], &pressure, &[2, 2, 2], 0);
        assert_eq!(p.place(3, &v), 0);
    }

    #[test]
    fn steer_improves_requires_strict_improvement_and_free_pages() {
        // The strictly-improving half (regression: CacheAware ping-pong).
        assert!(steer_improves(100, 10, 20, 0, None));
        assert!(!steer_improves(100, 90, 20, 0, None), "dest would end above src's start");
        assert!(!steer_improves(100, 80, 20, 0, None), "equal height is not an improvement");
        assert!(!steer_improves(100, 10, 0, 0, None), "an empty victim moves nothing");
        // The page-economy half (the satellite bugfix): a destination
        // whose pool lacks the victim's pages would evict on arrival —
        // the move is refused even though the byte math improves.
        assert!(steer_improves(100, 10, 20, 5, Some(5)));
        assert!(!steer_improves(100, 10, 20, 5, Some(4)), "too few free pages at the destination");
        assert!(steer_improves(100, 10, 20, 5, None), "pool-less fleets skip the page check");
    }
}
