//! Sharded serving: one logical fleet over K independent engines.
//!
//! A [`ShardedServer`] fronts K [`ServingEngine`] shards behind a route
//! table. Each shard is a complete engine — own slots, own KV caches, own
//! batched steps — so the shard boundary is clean: nothing is shared
//! between shards but the (read-only) model weights.
//!
//! One front end drives the fleet: [`ShardedServer::submit`] →
//! [`ShardedServer::tick`] → [`ShardedServer::poll`]. Observation
//! arrivals enqueue asynchronously into per-shard [`AdmissionQueue`]s
//! (stamped by a logical arrival clock, tagged with their adapter group)
//! and come back as [`Ticket`]s; each `tick` drains every shard's queue at
//! the tick boundary — at most one arrival per session, FIFO within a
//! session — steps the busy shards, and banks the actions for `poll`.
//! Sessions join, answer and leave mid-stream; a caller that wants a
//! whole batch answered submits it and ticks once.
//!
//! ```text
//!  submit(id,obs) ─► Ticket     ┌ q0 ─ drain ─► shard 0: ServingEngine ┐
//!    (arrival clock, adapter ──►│ q1 ─ drain ─► shard 1: ServingEngine ├─ tick ─► poll(Ticket)
//!     tag, backpressure cap)    └ qK ─ drain ─► shard K: ServingEngine ┘      ─► actions
//!                join ─► AdmissionPolicy: HashRoute | LeastLoaded |
//!                                         CacheAware | PageAware
//!                                 (NT_THREADS: one worker per busy shard)
//! ```
//!
//! Placement is pluggable ([`AdmissionPolicy`]): `HashRoute` keeps PR 3's
//! FNV-1a session-hash router, `LeastLoaded` admits to the shard with the
//! fewest live slots, `CacheAware` admits to the lightest shard by KV
//! bytes and *steers*: at every tick boundary, while a shard's KV bytes
//! exceed the policy's budget, the coldest (least-recently-served) session
//! is migrated to the lightest shard. `PageAware` runs the same pass
//! denominated in pool pages instead of bytes, placing by page pressure
//! with a same-backbone tie-break (see [`crate::sched`]); every steer —
//! byte- or page-denominated — is gated by [`steer_improves`], so a move
//! never lands on a shard whose pool lacks the victim's pages. Steering
//! and rebalance-on-leave ([`ShardedServer::leave`]) share one guard: a
//! session is steered at most once per tick cycle, so the two mechanisms
//! can both fire in a tick without double-migrating anyone
//! (regression-tested in `tests/admission.rs`).
//!
//! Migration ([`ShardedServer::steer`]) parks a session (KV cache +
//! episode state travel wholesale, queued arrivals follow) and re-admits
//! it on another shard — per-session math is untouched, so served answers
//! stay bit-identical across migrations. Today shards are per-core
//! (`NT_THREADS`-capped pool workers, pool-registered so per-matmul and
//! band parallelism never stack a second thread layer underneath); the
//! same route-table design extends to per-process and per-host shards
//! later — a shard is just an index.
//!
//! **Fault tolerance**: each shard is a recoverable failure domain. A
//! [`FaultPlan`] armed via [`ShardedServer::inject`] crashes/stalls
//! shards, poisons single steps or drops drained batches at exact tick
//! points; the per-tick
//! [`HealthChecker`] walks silent shards Healthy → Suspect (retry with
//! backoff — a stalled shard revives with all state intact) → Dead. On
//! death the shard's sessions are salvaged — KV pages died with the
//! process and are reclaimed, episode logs survive — re-placed on
//! surviving shards by the admission policy and re-anchored by the same
//! replay eviction uses, its queue backlog is redistributed, every
//! displaced ticket resolves `Requeued`/`Failed` via
//! [`ShardedServer::poll_status`] instead of hanging, and the dead
//! shard's pool budget share is permanently retired (degraded capacity →
//! deferral, never loss). Gated end to end by
//! `nt-bench/tests/fault_soak.rs`.

use crate::fault::{Fault, FaultPlan, FaultReport};
use crate::health::{HealthChecker, HealthConfig, Heartbeat};
use crate::metrics::{MetricsRegistry, TickPhase, TICK_PHASES};
use crate::sched::{
    fnv1a, steer_improves, AdmissionPolicy, AdmissionQueue, Arrival, EvictionPolicy, MemoryReport,
    PagePressure, PlacementView, SubmitError, TickReport, Ticket, TicketStatus,
};
use crate::serving::{ServedTask, ServingEngine, SessionId};
use crate::telemetry::{EventKind, SteerReason, TelemetryRing};
use nt_llm::{PagePool, PoolStats};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
use std::time::Instant;

/// Resident capacity of the fleet's event journal (see
/// [`crate::telemetry::TelemetryRing`]): enough to hold several dense
/// ticks' worth of events between scrapes without the journal growing
/// with load.
const JOURNAL_CAPACITY: usize = 4096;

/// Fleet-wide session handle issued by [`ShardedServer::join`].
pub type GlobalSessionId = u64;

/// Pending arrivals a shard's queue accepts before `submit` pushes back.
const DEFAULT_QUEUE_CAP: usize = 1024;

/// What [`ShardedServer::leave`] hands back: nothing of a departing
/// session is silently dropped — served-but-unpolled actions and
/// still-queued arrivals (whose tickets will now never resolve) come back
/// to the caller, oldest first.
#[must_use = "a departing session's unpolled actions and queued arrivals are returned, not dropped"]
#[derive(Debug)]
pub struct LeaveReport<A, O> {
    /// Served actions the session never polled, by ticket, oldest first.
    pub unpolled: Vec<(Ticket, A)>,
    /// Arrivals still queued at departure, by ticket, oldest first.
    pub dropped_arrivals: Vec<(Ticket, O)>,
}

impl<A, O> LeaveReport<A, O> {
    /// True when the session left nothing behind.
    pub fn is_clean(&self) -> bool {
        self.unpolled.is_empty() && self.dropped_arrivals.is_empty()
    }
}

/// K independent [`ServingEngine`] shards behind a route table, served
/// through one queue/tick/poll front end.
///
/// The front end in one breath — join, submit, tick until
/// served, poll, leave:
///
/// ```
/// use netllm::{AdaptMode, LoraSpec, NetLlmAbr, ShardedServer, TicketStatus};
/// use nt_abr::AbrObservation;
/// use nt_llm::{size_spec, Zoo};
///
/// let zoo = Zoo::new(std::env::temp_dir().join("netllm-shard-doctest"));
/// let abr = NetLlmAbr::new(
///     zoo.build_random(&size_spec("0.35b-sim")),
///     AdaptMode::NoDomain,
///     LoraSpec::default(),
///     4,  // observation window
///     7,  // adapter seed
/// );
/// let mut server: ShardedServer<NetLlmAbr> = ShardedServer::new(2);
/// let id = server.join(&abr);
/// let obs = AbrObservation::synthetic_stream(7, 1).remove(0);
/// let ticket = server.submit(id, obs).unwrap();
/// server.tick(&abr);
/// let TicketStatus::Served(rung) = server.poll_status(ticket) else {
///     panic!("one tick serves a lone arrival");
/// };
/// assert!(!server.last_logits(id).is_empty());
/// assert!(server.leave(id).is_clean());
/// # let _ = rung;
/// ```
pub struct ShardedServer<T: ServedTask> {
    shards: Vec<ServingEngine<T>>,
    /// Global id -> (shard, local id). A `BTreeMap` keeps every fleet
    /// walk (rebalance victim selection, steering) deterministic.
    routes: BTreeMap<GlobalSessionId, (usize, SessionId)>,
    /// Backbone group per session — the adapter tag queued arrivals carry.
    groups: BTreeMap<GlobalSessionId, usize>,
    next_id: GlobalSessionId,
    /// Placement (and, for `CacheAware`, steering) policy.
    policy: AdmissionPolicy,
    /// One pending-arrival queue per shard.
    queues: Vec<AdmissionQueue<T::Obs>>,
    /// Served-but-unpolled actions, by ticket (tagged with their
    /// session so `leave` can reclaim a departing session's answers).
    completed: BTreeMap<Ticket, (GlobalSessionId, T::Action)>,
    /// Tickets are issued in submission order, so the next ticket number
    /// doubles as the logical arrival clock stamped onto queued
    /// observations.
    next_ticket: u64,
    /// Tick counter (drives the coldest-session bookkeeping).
    tick_no: u64,
    /// Tick each session last produced an answer (coldest = smallest).
    last_served: BTreeMap<GlobalSessionId, u64>,
    /// Sessions already steered in the current tick cycle — rebalance and
    /// cache-aware steering both consult and feed this, so no session is
    /// migrated twice between consecutive tick boundaries.
    steered_this_tick: BTreeSet<GlobalSessionId>,
    /// Fleet-wide KV page pool (every shard's sessions draw from it); the
    /// global hard bound on KV memory when set.
    pool: Option<PagePool>,
    /// How the memory guard reclaims pages when a tick's demand exceeds
    /// the pool's free list.
    eviction: EvictionPolicy,
    /// Per-shard serving counters (served / steered / evicted / queue
    /// depth), shared with the benches via [`ShardedServer::metrics`].
    metrics: MetricsRegistry,
    /// Armed fault schedule ([`ShardedServer::inject`]); drained as ticks
    /// pass its events' fire points.
    faults: FaultPlan,
    /// Per-shard Healthy → Suspect → Dead state machines over the
    /// heartbeats each tick snapshots.
    health: HealthChecker,
    /// Ground truth of the simulated shard processes (what the health
    /// checker can only infer from missing beats).
    crashed: Vec<CrashState>,
    /// Tickets resolved `Failed` by a fault, not yet polled.
    failed: BTreeSet<Ticket>,
    /// Tickets whose arrivals a fault displaced back into a queue; the
    /// mark clears when the arrival is finally served.
    requeued: BTreeSet<Ticket>,
    /// Fleet width at construction — a dead shard keeps its index (routes
    /// stay dense), so this is the divisor for a shard's pool share.
    initial_shards: usize,
    /// Pool pages minted at construction (capacity shrinks as shards die).
    pool_minted: usize,
    /// Largest one-full-context-session page count over every backbone
    /// admitted so far — retirement never shrinks capacity below this, or
    /// a recovered giant session could defer forever.
    floor_pages: usize,
    /// Bounded event journal (tick spans, evictions, steers, faults) —
    /// the ordered companion to `metrics`' totals, drained by cursor via
    /// [`ShardedServer::journal`].
    journal: TelemetryRing,
    /// Whether tick-phase timing runs ([`ShardedServer::set_telemetry`]).
    /// Off, ticks take no clock readings and the journal drops writes —
    /// the baseline the BENCH_10 overhead gate compares against.
    telemetry: bool,
}

/// Simulated process state of one shard (the fault layer's ground truth).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CrashState {
    Up,
    Stalled { until: u64 },
    Down,
}

impl<T: ServedTask> ShardedServer<T> {
    /// A fleet of `num_shards` empty engines with PR 3's hash router.
    pub fn new(num_shards: usize) -> Self {
        Self::with_policy(num_shards, AdmissionPolicy::HashRoute)
    }

    /// A fleet of `num_shards` empty engines admitting under `policy`.
    pub fn with_policy(num_shards: usize, policy: AdmissionPolicy) -> Self {
        Self::build(num_shards, policy, None, EvictionPolicy::None)
    }

    /// A fleet whose sessions draw KV pages from one fleet-wide `pool`:
    /// total KV bytes are hard-bounded by the pool budget at every
    /// instant. Each tick boundary runs the memory guard — reserve pages
    /// for the tick's exact demand ([`ServedTask::plan_rows`]), reclaim
    /// under pressure per `eviction`, and defer drained arrivals back to
    /// their admission queues when even eviction cannot cover the tick
    /// (backpressure instead of OOM growth).
    pub fn with_memory(
        num_shards: usize,
        policy: AdmissionPolicy,
        pool: PagePool,
        eviction: EvictionPolicy,
    ) -> Self {
        Self::build(num_shards, policy, Some(pool), eviction)
    }

    fn build(
        num_shards: usize,
        policy: AdmissionPolicy,
        pool: Option<PagePool>,
        eviction: EvictionPolicy,
    ) -> Self {
        assert!(num_shards >= 1, "a fleet needs at least one shard");
        let pool_minted = pool.as_ref().map(PagePool::capacity_pages).unwrap_or(0);
        ShardedServer {
            shards: (0..num_shards)
                .map(|_| match &pool {
                    Some(p) => ServingEngine::with_page_pool(p.clone()),
                    None => ServingEngine::new(),
                })
                .collect(),
            routes: BTreeMap::new(),
            groups: BTreeMap::new(),
            next_id: 0,
            policy,
            queues: (0..num_shards)
                .map(|_| AdmissionQueue::with_capacity(DEFAULT_QUEUE_CAP))
                .collect(),
            completed: BTreeMap::new(),
            next_ticket: 0,
            tick_no: 0,
            last_served: BTreeMap::new(),
            steered_this_tick: BTreeSet::new(),
            pool,
            eviction,
            metrics: MetricsRegistry::new(num_shards),
            faults: FaultPlan::new(),
            health: HealthChecker::new(num_shards, HealthConfig::default()),
            crashed: vec![CrashState::Up; num_shards],
            failed: BTreeSet::new(),
            requeued: BTreeSet::new(),
            initial_shards: num_shards,
            pool_minted,
            floor_pages: 0,
            journal: TelemetryRing::new(JOURNAL_CAPACITY),
            telemetry: true,
        }
    }

    /// The fleet's per-shard metrics registry (see [`crate::metrics`]).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The fleet's event journal (see [`crate::telemetry`]). Readers
    /// drain it by cursor; the scrape endpoint serves it as
    /// `Frame::EventsBatch`.
    pub fn journal(&self) -> &TelemetryRing {
        &self.journal
    }

    /// Turn tick-phase timing and journal recording on/off (on by
    /// default). Off, [`ShardedServer::tick`] takes no clock readings,
    /// records no phase histograms and journals nothing — the counters in
    /// [`ShardedServer::metrics`] keep running either way.
    pub fn set_telemetry(&mut self, on: bool) {
        self.telemetry = on;
        self.journal.set_enabled(on);
    }

    /// Whether tick-phase timing and journal recording are on.
    pub fn telemetry(&self) -> bool {
        self.telemetry
    }

    /// The fleet logical clock: ticks run so far (the `clock` stamped on
    /// journal events).
    pub fn tick_count(&self) -> u64 {
        self.tick_no
    }

    /// Arm (or extend) the fault schedule. Events fire inside future
    /// [`ShardedServer::tick`]s at their exact logical-clock points;
    /// events whose tick already passed fire on the next tick.
    pub fn inject(&mut self, plan: FaultPlan) {
        self.faults.extend(plan);
    }

    /// The per-shard health state machines (read side: states, last
    /// heartbeats, configured thresholds).
    pub fn health(&self) -> &HealthChecker {
        &self.health
    }

    /// Replace the health thresholds. Only before any failure: retuning a
    /// checker with Suspect/Dead shards would rewrite history.
    pub fn set_health_config(&mut self, cfg: HealthConfig) {
        assert!(
            self.health.states().iter().all(|s| s.is_healthy())
                && self.crashed.iter().all(|c| *c == CrashState::Up),
            "cannot retune health thresholds after failures began"
        );
        self.health = HealthChecker::new(self.shards.len(), cfg);
    }

    /// Shards currently Healthy (placement, steering and rebalance only
    /// ever target these).
    pub fn healthy_shards(&self) -> Vec<usize> {
        self.health.healthy_shards()
    }

    /// Shards that are believed Healthy *and* whose process is actually
    /// up. The health checker only learns of a crash after
    /// `miss_threshold` silent probes, but a join or migration RPC
    /// against a dead process fails immediately (connection refused) and
    /// one against a stalled process hangs — so placement and steering
    /// skip dark shards without waiting for the declaration. The checker
    /// stays the sole authority for declaring death and salvaging.
    fn reachable_shards(&self) -> Vec<usize> {
        self.health
            .healthy_shards()
            .into_iter()
            .filter(|&s| self.crashed[s] == CrashState::Up)
            .collect()
    }

    /// Place `id` on a Healthy shard via the admission policy, evaluated
    /// over the surviving fleet view (`HashRoute` hashes into the healthy
    /// subset, so placement stays deterministic as the fleet degrades).
    /// Crashed-but-undeclared shards are skipped (fail-fast RPC); if
    /// *every* Healthy shard is dark — the undetected-total-loss window —
    /// fall back to the checker's view: the session lands on a doomed
    /// shard and the next declaration salvages it, exactly as if the RPC
    /// layer had raced the crash.
    /// `group` is the session's backbone group — the batch-shape signal
    /// `PageAware` ties break on (same-backbone slots share stacked
    /// GEMMs). Placement always charges `need_pages: 0`: a fresh join's
    /// cache starts empty, and a salvaged session's pages died with its
    /// shard — its rebuild allocates on the next step, where the memory
    /// guard arbitrates.
    fn place_on_healthy(&self, id: GlobalSessionId, group: usize) -> usize {
        let up = self.reachable_shards();
        let healthy = if up.is_empty() { self.health.healthy_shards() } else { up };
        assert!(
            !healthy.is_empty(),
            "no healthy shard left to place session {id} on — total fleet loss"
        );
        let active: Vec<usize> = healthy.iter().map(|&s| self.shards[s].active()).collect();
        let bytes: Vec<usize> = healthy.iter().map(|&s| self.shards[s].cache_bytes()).collect();
        // The page economy travels with the backbone histogram (the view
        // asserts they arrive together); both stay empty for pool-less
        // fleets, where PageAware degenerates to LeastLoaded.
        let (pressure, same_backbone) = match self.pool_stats() {
            Some(st) => {
                // One in-process pool serves every shard, so each shard
                // reports the same (global) free list.
                let pressure: Vec<PagePressure> = healthy
                    .iter()
                    .map(|&s| PagePressure {
                        free_pages: st.free_pages,
                        held_pages: self.shards[s].pages_held(),
                    })
                    .collect();
                let mut hist = vec![0usize; healthy.len()];
                for (sid, &(s, _)) in &self.routes {
                    if self.groups.get(sid) == Some(&group) {
                        if let Some(i) = healthy.iter().position(|&h| h == s) {
                            hist[i] += 1;
                        }
                    }
                }
                (pressure, hist)
            }
            None => (Vec::new(), Vec::new()),
        };
        let view = PlacementView {
            active: &active,
            cache_bytes: &bytes,
            pressure: &pressure,
            same_backbone: &same_backbone,
            need_pages: 0,
        };
        healthy[self.policy.place(id, &view)]
    }

    /// Occupancy of the fleet-wide pool (`None` for unbounded fleets).
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.pool.as_ref().map(PagePool::stats)
    }

    /// Replace the per-shard backpressure cap (only while no arrival is
    /// pending, so no ticket can be dropped by the swap).
    pub fn set_queue_capacity(&mut self, cap: usize) {
        assert!(self.pending() == 0, "cannot resize queues with arrivals pending");
        self.queues = (0..self.shards.len()).map(|_| AdmissionQueue::with_capacity(cap)).collect();
    }

    /// The active admission policy.
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// Swap the admission policy at runtime (placement applies to future
    /// joins; a new `CacheAware` budget applies from the next tick's
    /// steering pass). Live sessions and queues are untouched.
    pub fn set_policy(&mut self, policy: AdmissionPolicy) {
        self.policy = policy;
    }

    /// The shard currently serving `id`.
    pub fn shard_of(&self, id: GlobalSessionId) -> usize {
        self.routes.get(&id).expect("unknown session id").0
    }

    /// Shard count.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard the FNV-1a hash router would assign to `id` (the
    /// [`AdmissionPolicy::HashRoute`] placement).
    pub fn home_shard(&self, id: GlobalSessionId) -> usize {
        (fnv1a(id) % self.shards.len() as u64) as usize
    }

    /// Admit a session on backbone group 0 (homogeneous tasks).
    pub fn join(&mut self, task: &T) -> GlobalSessionId {
        self.join_group(task, 0)
    }

    /// Admit a session on backbone `group`; the admission policy places it
    /// from the current fleet view (live slots + KV bytes per Healthy
    /// shard — dead and suspect shards take no new sessions).
    pub fn join_group(&mut self, task: &T, group: usize) -> GlobalSessionId {
        let id = self.next_id;
        self.next_id += 1;
        let shard = self.place_on_healthy(id, group);
        if let Some(pool) = &self.pool {
            let lm = task.backbone(group).0;
            let floor = lm.cfg.n_layers * pool.pages_for(lm.cfg.max_seq);
            self.floor_pages = self.floor_pages.max(floor);
        }
        let local = self.shards[shard].join_group(task, group);
        self.routes.insert(id, (shard, local));
        self.groups.insert(id, group);
        id
    }

    /// Remove a session, dropping its KV cache (a paged cache returns
    /// every page to the pool). Nothing of the session lingers in the
    /// server — and nothing is silently dropped either: its
    /// served-but-unpolled actions and still-queued arrivals (whose
    /// tickets will now never resolve) come back in the [`LeaveReport`].
    /// Then rebalance: while departures leave the fullest shard ≥ 2
    /// sessions above the emptiest, steer the fullest shard's lowest-id
    /// session over (at most once per session per tick cycle).
    pub fn leave(&mut self, id: GlobalSessionId) -> LeaveReport<T::Action, T::Obs> {
        let (shard, local) = self.routes.remove(&id).expect("unknown session id");
        let dropped_arrivals: Vec<(Ticket, T::Obs)> =
            self.queues[shard].remove_session(id).into_iter().map(|a| (a.ticket, a.obs)).collect();
        // BTreeMap order: tickets ascending, i.e. oldest first.
        let banked: Vec<Ticket> = self
            .completed
            .iter()
            .filter(|(_, &(session, _))| session == id)
            .map(|(&t, _)| t)
            .collect();
        let unpolled: Vec<(Ticket, T::Action)> = banked
            .into_iter()
            .map(|t| {
                let (_, action) = self.completed.remove(&t).expect("ticket collected above");
                (t, action)
            })
            .collect();
        self.groups.remove(&id);
        self.last_served.remove(&id);
        self.steered_this_tick.remove(&id);
        for &(t, _) in &dropped_arrivals {
            // A dropped arrival's `Requeued` mark must not outlive it —
            // poll_status would otherwise promise an answer forever.
            self.requeued.remove(&t);
        }
        self.shards[shard].leave(local);
        while self.rebalance_once() {}
        LeaveReport { unpolled, dropped_arrivals }
    }

    /// One rebalance move, if the fleet is skewed. Returns whether a
    /// session moved. Sessions already steered this tick cycle are not
    /// eligible victims (no double-migration); only Healthy *and up*
    /// shards are balanced — a dead shard's permanent 0-occupancy must
    /// not attract the whole fleet, and during the undetected-crash
    /// window (killed, not yet declared) a dark shard can neither send
    /// nor receive a migration: a departure emptying it must not pull a
    /// live session's KV onto a process that will take it to the grave.
    fn rebalance_once(&mut self) -> bool {
        let healthy = self.reachable_shards();
        if healthy.len() < 2 {
            return false;
        }
        let (mut min_s, mut min_a) = (healthy[0], usize::MAX);
        let (mut max_s, mut max_a) = (healthy[0], 0usize);
        for &s in &healthy {
            let a = self.shards[s].active();
            if a < min_a {
                (min_s, min_a) = (s, a);
            }
            if a > max_a {
                (max_s, max_a) = (s, a);
            }
        }
        if max_a < min_a + 2 {
            return false;
        }
        let victim = self
            .routes
            .iter()
            .find(|(id, &(s, _))| s == max_s && !self.steered_this_tick.contains(id))
            .map(|(&id, _)| id);
        match victim {
            Some(v) => {
                self.steer_with(v, min_s, SteerReason::Rebalance);
                true
            }
            // Every candidate was already steered this tick cycle; leave
            // the skew for the next tick rather than double-migrate.
            None => false,
        }
    }

    /// Migrate a session to `dest` shard: its KV cache, episode state and
    /// queued arrivals move wholesale, so subsequent answers are
    /// bit-identical to never having moved. No-op when already home —
    /// and no-op when either endpoint's process is down: the transfer
    /// RPC fails fast against a crashed shard (even one the health
    /// checker has not yet declared), so the session stays where it is
    /// instead of marooning its KV on a dead process.
    pub fn steer(&mut self, id: GlobalSessionId, dest: usize) {
        self.steer_with(id, dest, SteerReason::Manual);
    }

    /// [`ShardedServer::steer`] with the trigger recorded: internal
    /// callers (rebalance, budget steering) tag their moves so the
    /// journal can say *why* a session moved, not just where.
    fn steer_with(&mut self, id: GlobalSessionId, dest: usize, reason: SteerReason) {
        assert!(dest < self.shards.len(), "shard {dest} out of range");
        let &(src, local) = self.routes.get(&id).expect("unknown session id");
        if src == dest
            || self.crashed[src] == CrashState::Down
            || self.crashed[dest] == CrashState::Down
        {
            return;
        }
        let parked = self.shards[src].park(local);
        let new_local = self.shards[dest].admit(parked);
        self.routes.insert(id, (dest, new_local));
        // Pending arrivals follow their session (bypassing the cap: a
        // move must never drop a ticket).
        for a in self.queues[src].remove_session(id) {
            self.queues[dest].requeue(a);
        }
        self.steered_this_tick.insert(id);
        self.metrics.record_steered(src);
        self.metrics.record_steered_in(dest);
        self.journal.record(
            self.tick_no,
            EventKind::Steer { src: src as u32, dst: dest as u32, session: id, reason },
        );
    }

    /// Live sessions across the fleet.
    pub fn active(&self) -> usize {
        self.shards.iter().map(ServingEngine::active).sum()
    }

    /// Live sessions per shard (the rebalance policy's balance view).
    pub fn active_per_shard(&self) -> Vec<usize> {
        self.shards.iter().map(ServingEngine::active).collect()
    }

    /// KV bytes held across the fleet.
    pub fn cache_bytes(&self) -> usize {
        self.shards.iter().map(ServingEngine::cache_bytes).sum()
    }

    /// KV bytes per shard — the accounting `CacheAware` admission and
    /// steering run on.
    pub fn cache_bytes_per_shard(&self) -> Vec<usize> {
        self.shards.iter().map(ServingEngine::cache_bytes).collect()
    }

    /// Head outputs of `id`'s most recent step.
    pub fn last_logits(&self, id: GlobalSessionId) -> &[f32] {
        let &(shard, local) = self.routes.get(&id).expect("unknown session id");
        self.shards[shard].last_logits(local)
    }

    // ---- front end: submit / tick / poll -------------------------------

    /// Enqueue an observation for `id`'s next decision. Returns the
    /// [`Ticket`] to redeem via [`ShardedServer::poll`] after a future
    /// [`ShardedServer::tick`] serves it — or a [`SubmitError`] carrying
    /// the observation back: [`SubmitError::QueueFull`] when the
    /// session's shard queue is at its backpressure cap (a tick's drain
    /// frees space), [`SubmitError::RetryAfterTick`] when its shard is
    /// Suspect (the health checker will revive it or re-admit the session
    /// on a survivor). Nothing is silently lost at either refusal;
    /// [`crate::SubmitRetry`] is the deterministic backoff loop callers
    /// use. Arrivals are stamped with a fleet-wide logical arrival clock
    /// (the ticket sequence — tickets are issued in submission order) and
    /// the session's adapter group; a session may hold any number of
    /// queued arrivals, served one per tick in FIFO order.
    pub fn submit(
        &mut self,
        id: GlobalSessionId,
        obs: T::Obs,
    ) -> Result<Ticket, SubmitError<T::Obs>> {
        let &(shard, _) = self.routes.get(&id).expect("unknown session id");
        if !self.health.state(shard).is_healthy() {
            // Suspect: the shard may revive (stall) or be declared dead
            // and its sessions re-admitted elsewhere — either way a tick
            // resolves it. Routes never point to Dead shards (recovery
            // re-routes at declaration).
            return Err(SubmitError::RetryAfterTick { obs });
        }
        let group = self.groups[&id];
        let seq = self.next_ticket;
        let arrival = Arrival { ticket: Ticket(seq), session: id, group, obs };
        match self.queues[shard].push(arrival) {
            Ok(()) => {
                self.next_ticket += 1;
                Ok(Ticket(seq))
            }
            Err(refused) => Err(SubmitError::QueueFull { obs: refused.obs }),
        }
    }

    /// Arrivals queued across the fleet.
    pub fn pending(&self) -> usize {
        self.queues.iter().map(AdmissionQueue::len).sum()
    }

    /// Arrivals queued for one session.
    pub fn pending_of(&self, id: GlobalSessionId) -> usize {
        let &(shard, _) = self.routes.get(&id).expect("unknown session id");
        self.queues[shard].pending_of(id)
    }

    /// Served-but-unpolled actions.
    pub fn ready(&self) -> usize {
        self.completed.len()
    }

    /// Redeem a ticket: `Some(action)` exactly once after the tick that
    /// served it, `None` while it is still queued (or after it was
    /// already polled, or after its session left).
    pub fn poll(&mut self, ticket: Ticket) -> Option<T::Action> {
        self.completed.remove(&ticket).map(|(_, action)| action)
    }

    /// Redeem a ticket with its fault-aware resolution: `Served(action)`
    /// or `Failed` exactly once (terminal — like [`ShardedServer::poll`],
    /// a resolved ticket is consumed), `Requeued` while a fault has
    /// displaced the arrival back into a queue (it will serve on a later
    /// tick), `Pending` otherwise. Under any injected fault schedule
    /// every ticket reaches `Served` or `Failed` once the queues drain —
    /// no ticket hangs (the fault-soak gate's first invariant).
    pub fn poll_status(&mut self, ticket: Ticket) -> TicketStatus<T::Action> {
        if let Some((_, action)) = self.completed.remove(&ticket) {
            self.requeued.remove(&ticket);
            return TicketStatus::Served(action);
        }
        if self.failed.remove(&ticket) {
            return TicketStatus::Failed;
        }
        if self.requeued.contains(&ticket) {
            return TicketStatus::Requeued;
        }
        TicketStatus::Pending
    }

    /// Coldest idle session holding pool pages — the
    /// [`EvictionPolicy::ColdestReanchor`] victim order: least recently
    /// served first, ties to the most pages held (biggest reclaim), then
    /// the lowest id. Sessions in `protected` (their arrival is in this
    /// tick's batch — drained or deferred) are never victims.
    fn coldest_idle_victim(
        &self,
        protected: &BTreeSet<GlobalSessionId>,
    ) -> Option<GlobalSessionId> {
        self.routes
            .iter()
            .filter(|(id, &(s, l))| {
                !protected.contains(id)
                    && self.health.state(s).is_healthy()
                    && self.shards[s].pages_of(l) > 0
            })
            .min_by_key(|(&id, &(s, l))| {
                (
                    self.last_served.get(&id).copied().unwrap_or(0),
                    usize::MAX - self.shards[s].pages_of(l),
                    id,
                )
            })
            .map(|(&id, _)| id)
    }

    /// Idle session whose re-anchor rebuild is cheapest — the
    /// [`EvictionPolicy::CheapestRebuild`] victim order: fewest priced
    /// rebuild rows × backbone width first
    /// ([`ServingEngine::rebuild_cost_of`], 0 whenever the session's next
    /// step re-anchors regardless), ties to the most pages held (biggest
    /// reclaim per re-anchor), then coldest, then the lowest id.
    /// Age-blind by design: a hot session due a free re-anchor beats a
    /// cold one carrying a full window.
    fn cheapest_rebuild_victim(
        &self,
        task: &T,
        protected: &BTreeSet<GlobalSessionId>,
    ) -> Option<GlobalSessionId> {
        self.routes
            .iter()
            .filter(|(id, &(s, l))| {
                !protected.contains(id)
                    && self.health.state(s).is_healthy()
                    && self.shards[s].pages_of(l) > 0
            })
            .min_by_key(|(&id, &(s, l))| {
                (
                    self.shards[s].rebuild_cost_of(task, l),
                    usize::MAX - self.shards[s].pages_of(l),
                    self.last_served.get(&id).copied().unwrap_or(0),
                    id,
                )
            })
            .map(|(&id, _)| id)
    }

    /// The active eviction policy's next victim, or `None` (under
    /// [`EvictionPolicy::None`], or when every page-holding session is
    /// protected).
    fn eviction_victim(
        &self,
        task: &T,
        protected: &BTreeSet<GlobalSessionId>,
    ) -> Option<GlobalSessionId> {
        match self.eviction {
            EvictionPolicy::None => None,
            EvictionPolicy::ColdestReanchor => self.coldest_idle_victim(protected),
            EvictionPolicy::CheapestRebuild => self.cheapest_rebuild_victim(task, protected),
        }
    }

    /// Reclaim `victim`'s pages, recording the eviction under the rebuild
    /// rows its next step will now replay (priced *before* the clear —
    /// an empty cache prices 0). Both policies account identically, so
    /// the BENCH_9 rebuild-row comparison is apples to apples.
    fn evict_session(&mut self, victim: GlobalSessionId, task: &T) {
        let &(s, l) = self.routes.get(&victim).expect("victim is routed");
        let rows = self.shards[s].rebuild_rows_of(task, l) as u64;
        let _ = self.shards[s].evict(l);
        self.metrics.record_evicted(s, rows);
        self.journal.record(
            self.tick_no,
            EventKind::Eviction { shard: s as u32, session: victim, rebuild_rows: rows },
        );
    }

    /// One shard's drained batch as `(local id, obs)` requests.
    fn requests_of<'a>(
        routes: &BTreeMap<GlobalSessionId, (usize, SessionId)>,
        shard: usize,
        batch: &'a [Arrival<T::Obs>],
    ) -> Vec<(SessionId, &'a T::Obs)> {
        batch
            .iter()
            .map(|a| {
                let &(s, local) = routes.get(&a.session).expect("queued session left the fleet");
                debug_assert_eq!(s, shard, "queued arrival on the wrong shard");
                (local, &a.obs)
            })
            .collect()
    }

    /// Pages the drained batches could allocate this tick (exact
    /// [`ServedTask::plan_rows`] counts; clears charged from empty so no
    /// band interleaving can starve a reservation).
    fn batch_demand(&self, task: &T, drained: &[Vec<Arrival<T::Obs>>]) -> usize {
        drained
            .iter()
            .enumerate()
            .map(|(s, batch)| {
                self.shards[s].page_demand(task, &Self::requests_of(&self.routes, s, batch))
            })
            .sum()
    }

    /// Pre-release the pages of every drained session whose plan clears
    /// (re-anchors) anyway — semantically free (the rebuild never reads
    /// them; see [`ServingEngine::release_reanchor_pages`]) and the
    /// reason a re-anchoring giant session can never wedge the pool
    /// against its own rebuild.
    fn release_reanchor_pages(&mut self, task: &T, drained: &[Vec<Arrival<T::Obs>>]) {
        for (s, batch) in drained.iter().enumerate() {
            let reqs = Self::requests_of(&self.routes, s, batch);
            let _ = self.shards[s].release_reanchor_pages(task, &reqs);
        }
    }

    /// Pop every arrival of `victim` out of the drained batch and requeue
    /// it at the *front* of its shard queue (FIFO preserved, ticket stays
    /// pending — the same mechanics as a backpressure deferral). Returns
    /// how many arrivals were deferred.
    fn defer_session(
        &mut self,
        victim: GlobalSessionId,
        drained: &mut [Vec<Arrival<T::Obs>>],
    ) -> usize {
        let mut deferred = 0usize;
        for (s, batch) in drained.iter_mut().enumerate() {
            let mut kept = Vec::with_capacity(batch.len());
            let mut back = Vec::new();
            for a in batch.drain(..) {
                if a.session == victim {
                    back.push(a);
                } else {
                    kept.push(a);
                }
            }
            *batch = kept;
            deferred += back.len();
            if !back.is_empty() {
                self.queues[s].requeue_front(back);
            }
        }
        deferred
    }

    /// The scheduled front end's memory guard, run between the drain and
    /// the step: re-anchoring sessions return their pages up front, then
    /// while the tick's page demand exceeds the pool's free list, reclaim
    /// the [`EvictionPolicy`]'s chosen victim's pages (it re-anchors on
    /// its next step). Victims are never sessions whose arrivals are in
    /// the drained batch — evicting work we are about to serve forces an
    /// immediate re-anchor of that very work (the pre-fix bug: the scan
    /// recomputed its exclusion set per iteration, so a just-deferred
    /// session — which serves next tick — was evicted by accident,
    /// undoing the deferral's whole point; regression-pinned in
    /// tests/paged_serving.rs).
    ///
    /// When pressure persists and every page-holding session is in the
    /// batch, one of them must yield or the pool freezes (nothing served
    /// → nothing grows or re-anchors → the same tick repeats forever).
    /// The guard then *sacrifices* one batch member — chosen by the
    /// eviction policy's own order, never the oldest arrival's session,
    /// so the tick always serves someone — deferring its arrival and
    /// reclaiming its pages as a single decision.
    ///
    /// When no victim remains at all, defer the globally youngest drained
    /// arrivals back to the front of their queues — admission
    /// backpressure instead of OOM growth, and their tickets stay
    /// pending, so nothing is lost. After this guard every reservation
    /// inside the step succeeds under any thread interleaving.
    /// (Evictions only grow the free list, so demand is recomputed only
    /// when a deferral shrinks the batch.)
    fn memory_guard(&mut self, task: &T, drained: &mut [Vec<Arrival<T::Obs>>]) -> MemoryReport {
        let mut report = MemoryReport::default();
        let Some(pool) = self.pool.clone() else { return report };
        self.release_reanchor_pages(task, drained);
        // Computed ONCE from the batch as drained: a session deferred for
        // backpressure stays protected for the rest of the tick.
        let protected: BTreeSet<GlobalSessionId> =
            drained.iter().flatten().map(|a| a.session).collect();
        let mut demand = self.batch_demand(task, drained);
        loop {
            if demand <= pool.free_pages() {
                break;
            }
            if let Some(victim) = self.eviction_victim(task, &protected) {
                self.evict_session(victim, task);
                report.evicted.push(victim);
                continue;
            }
            // Every page holder is in the batch. Sacrifice by policy
            // order, sparing the oldest arrival's session (progress
            // guarantee); defer-and-evict is one decision, so the victim
            // is never served in the tick that cleared its cache.
            let oldest = drained
                .iter()
                .flatten()
                .min_by_key(|a| a.ticket)
                .map(|a| a.session)
                .expect("demand > 0 implies a non-empty batch");
            if self.eviction != EvictionPolicy::None {
                let spare: BTreeSet<GlobalSessionId> = [oldest].into_iter().collect();
                if let Some(victim) = self.eviction_victim(task, &spare) {
                    report.deferred += self.defer_session(victim, drained);
                    self.evict_session(victim, task);
                    report.evicted.push(victim);
                    demand = self.batch_demand(task, drained);
                    continue;
                }
            }
            // No reclaimable victim anywhere: defer the globally youngest
            // drained arrival. The loop converges — every deferral
            // strictly shrinks the batch, and a batch of one always fits:
            // its session either grows incrementally (held + delta ≤ one
            // full-context session ≤ capacity) or re-anchors (pages
            // pre-released above, rebuild ≤ one full-context session ≤
            // capacity — the `for_model` floor; regression-tested in
            // tests/paged_serving.rs).
            let youngest = drained
                .iter()
                .enumerate()
                .filter_map(|(s, b)| b.last().map(|a| (a.ticket, s)))
                .max_by_key(|&(ticket, _)| ticket);
            let Some((_, s)) = youngest else { break };
            let arrival = drained[s].pop().expect("shard batch has a last element");
            self.queues[s].requeue_front(vec![arrival]);
            report.deferred += 1;
            demand = self.batch_demand(task, drained);
        }
        report
    }

    /// Serve one scheduled tick: every shard drains its queue at this
    /// tick boundary (at most one arrival per session, FIFO within a
    /// session), the memory guard reserves the tick's page demand
    /// (evicting / deferring under pressure — see
    /// [`ShardedServer::with_memory`]), busy shards run one batched
    /// [`ServingEngine::step`] each (on `NT_THREADS` pool workers), served
    /// actions are banked for [`ShardedServer::poll`], and — under
    /// [`AdmissionPolicy::CacheAware`] — the steering pass migrates the
    /// coldest sessions off any shard whose KV bytes crossed the budget.
    /// Per-slot math is independent of batching, sharding and queueing, so
    /// every served answer equals the session's unbatched replay (gated at
    /// 1e-5 in `nt-bench/tests/continuous_batching.rs`).
    pub fn tick(&mut self, task: &T) -> TickReport
    where
        T: Sync,
        T::Obs: Sync,
        T::Slot: Send,
        T::Action: Send,
    {
        self.tick_no += 1;
        let tick = self.tick_no;
        let k = self.shards.len();
        let mut faults = FaultReport::default();

        // Revive expired stalls (the transient class: state intact, the
        // next heartbeat snaps the shard back to Healthy).
        for s in 0..k {
            if let CrashState::Stalled { until } = self.crashed[s] {
                if tick >= until {
                    self.crashed[s] = CrashState::Up;
                }
            }
        }

        // Fire pre-drain faults: the shard is already dark when this
        // tick's heartbeats are snapshotted below.
        let mut plan = std::mem::take(&mut self.faults);
        for f in plan.take_due(tick, true) {
            match f {
                Fault::Kill { shard, .. } => {
                    if self.crashed[shard] != CrashState::Down {
                        self.crashed[shard] = CrashState::Down;
                        faults.killed.push(shard);
                    }
                }
                Fault::Stall { shard, ticks } => {
                    if self.crashed[shard] == CrashState::Up {
                        self.crashed[shard] = CrashState::Stalled { until: tick + ticks };
                        faults.stalled.push(shard);
                    }
                }
                f => unreachable!("{f:?} is not a pre-drain fault"),
            }
        }

        // Heartbeats + health observation. Recovery for newly-declared
        // deaths runs *before* the drain, so salvaged sessions' arrivals
        // (redistributed to survivors' queues) serve this same tick.
        let beats: Vec<Option<Heartbeat>> = (0..k)
            .map(|s| match self.crashed[s] {
                CrashState::Up => Some(Heartbeat {
                    tick,
                    occupancy: self.shards[s].active(),
                    queue_depth: self.queues[s].len(),
                    kv_bytes: self.shards[s].cache_bytes(),
                }),
                _ => None,
            })
            .collect();
        for s in self.health.observe(tick, &beats) {
            faults.declared_dead.push(s);
            self.metrics.record_shard_kill();
            self.journal.record(tick, EventKind::ShardDead { shard: s as u32 });
            self.recover_shard(s, &mut faults);
        }

        // Tick-phase attribution: wall-ns per phase, recorded into the
        // per-shard histograms when telemetry is on. `timing` gates every
        // clock reading so the off configuration takes none.
        let timing = self.telemetry;
        let mut phase_ns = [0u64; TICK_PHASES];

        // Drain the Healthy shards' queues at the boundary (a Suspect
        // shard's work waits — retry/backoff, not recovery), then reserve
        // the tick's page demand (evicting / deferring under pressure).
        let mut drained: Vec<Vec<Arrival<T::Obs>>> = Vec::with_capacity(k);
        for s in 0..k {
            let t0 = if timing { Some(Instant::now()) } else { None };
            let batch = if self.health.state(s).is_healthy() {
                self.queues[s].drain_tick()
            } else {
                Vec::new()
            };
            if let Some(t0) = t0 {
                let ns = t0.elapsed().as_nanos() as u64;
                self.metrics.record_phase_ns(s, TickPhase::Drain, ns);
                phase_ns[TickPhase::Drain as usize] += ns;
            }
            drained.push(batch);
        }

        // Fire mid-tick faults: after the drain, before the engine step —
        // drained arrivals are in flight and must be requeued or failed,
        // never lost.
        for f in plan.take_due(tick, false) {
            match f {
                Fault::Kill { shard, .. } => {
                    if self.crashed[shard] == CrashState::Down || self.health.state(shard).is_dead()
                    {
                        continue;
                    }
                    self.crashed[shard] = CrashState::Down;
                    faults.killed.push(shard);
                    // The drained batch is orphaned in the dead process:
                    // back to the head of its queue (FIFO preserved),
                    // redistributed with the backlog at declaration.
                    let orphans = std::mem::take(&mut drained[shard]);
                    let n = orphans.len() as u64;
                    for a in &orphans {
                        self.requeued.insert(a.ticket);
                    }
                    self.queues[shard].requeue_front(orphans);
                    faults.arrivals_requeued += n;
                    self.metrics.record_arrivals_requeued(n);
                }
                Fault::Poison { session } => {
                    let Some(&(s, local)) = self.routes.get(&session) else { continue };
                    if !self.health.state(s).is_healthy() {
                        continue;
                    }
                    // Torn step: the in-flight arrival fails, and the
                    // session's KV is untrusted (a CJS candidate may sit
                    // half-applied) — drop it; the episode log was never
                    // touched mid-step, so the next step re-anchors to
                    // exactly the pre-poison stream.
                    if let Some(pos) = drained[s].iter().position(|a| a.session == session) {
                        let a = drained[s].remove(pos);
                        self.failed.insert(a.ticket);
                        faults.tickets_failed += 1;
                        self.metrics.record_tickets_failed(1);
                    }
                    let rows = self.shards[s].kv_rows_of(local) as u64;
                    let _ = self.shards[s].evict(local);
                    faults.replay_rows += rows;
                    self.metrics.record_sessions_recovered(0, rows);
                }
                Fault::DropBatch { shard } => {
                    if !self.health.state(shard).is_healthy() {
                        continue;
                    }
                    let batch = std::mem::take(&mut drained[shard]);
                    let n = batch.len() as u64;
                    for a in batch {
                        self.failed.insert(a.ticket);
                    }
                    faults.tickets_failed += n;
                    self.metrics.record_tickets_failed(n);
                }
                f => unreachable!("{f:?} is not a mid-tick fault"),
            }
        }
        self.faults = plan;

        // The memory guard is a fleet-wide pass (one pool, one
        // reservation), so its span lands identically on every shard's
        // row — see [`TickPhase::MemoryGuard`].
        let t0 = if timing { Some(Instant::now()) } else { None };
        let mut memory = self.memory_guard(task, &mut drained);
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            for s in 0..k {
                self.metrics.record_phase_ns(s, TickPhase::MemoryGuard, ns);
            }
            phase_ns[TickPhase::MemoryGuard as usize] = ns;
        }
        let per: Vec<Vec<(SessionId, &T::Obs)>> = drained
            .iter()
            .enumerate()
            .map(|(s, batch)| Self::requests_of(&self.routes, s, batch))
            .collect();

        // Step the busy shards.
        let (results, step_ns) = self.step_partitioned(task, &per);
        phase_ns[TickPhase::PlanStep as usize] = step_ns.iter().sum();

        // Bank the actions under their tickets.
        let mut served = 0usize;
        let mut by_label: BTreeMap<&'static str, usize> = BTreeMap::new();
        for (s, (batch, actions)) in drained.into_iter().zip(results).enumerate() {
            debug_assert_eq!(batch.len(), actions.len(), "shard returned a ragged tick");
            let t0 = if timing && !batch.is_empty() { Some(Instant::now()) } else { None };
            let shard_served = batch.len();
            for (a, action) in batch.into_iter().zip(actions) {
                self.requeued.remove(&a.ticket); // displaced, now served
                self.completed.insert(a.ticket, (a.session, action));
                self.last_served.insert(a.session, tick);
                *by_label.entry(task.task_label(a.group)).or_default() += 1;
                served += 1;
            }
            if let Some(t0) = t0 {
                let ns = t0.elapsed().as_nanos() as u64;
                self.metrics.record_phase_ns(s, TickPhase::Settle, ns);
                phase_ns[TickPhase::Settle as usize] += ns;
                self.journal.record(
                    tick,
                    EventKind::TickSpan {
                        shard: s as u32,
                        served: shard_served as u32,
                        span_ns: step_ns[s],
                    },
                );
            }
        }
        for (&label, &n) in &by_label {
            self.metrics.record_label_served(label, n as u64);
        }

        // Cache-aware steering at the tick boundary (fleet-wide pass,
        // recorded like the memory guard above).
        let t0 = if timing { Some(Instant::now()) } else { None };
        self.cache_steer_pass();
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            for s in 0..k {
                self.metrics.record_phase_ns(s, TickPhase::Steer, ns);
            }
            phase_ns[TickPhase::Steer as usize] = ns;
        }

        // Close the tick cycle: report every steer since the previous
        // boundary (rebalance-on-leave + the pass above) and reset the
        // double-migration guard.
        let steered: Vec<GlobalSessionId> =
            std::mem::take(&mut self.steered_this_tick).into_iter().collect();
        if let Some(pool) = &self.pool {
            memory.used_bytes = pool.used_bytes();
        }
        for (s, q) in self.queues.iter().enumerate() {
            self.metrics.set_queue_depth(s, q.len() as u64);
            self.metrics.set_held_pages(s, self.shards[s].pages_held() as u64);
        }
        self.metrics.set_free_pages(self.pool_stats().map(|st| st.free_pages as u64).unwrap_or(0));
        faults.suspect = (0..k).filter(|&s| self.health.state(s).is_suspect()).collect();
        TickReport {
            tick,
            served,
            steered,
            pending: self.pending(),
            served_by_label: by_label.into_iter().collect(),
            memory,
            faults,
            phase_ns,
        }
    }

    /// Recover a shard the health checker just declared Dead: salvage
    /// every routed session (KV pages died with the process and are
    /// reclaimed to the pool; the episode log survives and re-anchors the
    /// session on its next step, exactly like an eviction), re-place each
    /// on a Healthy shard via the admission policy, redistribute the dead
    /// shard's queue backlog to the sessions' new homes (FIFO per session
    /// preserved — `requeue` appends in order and a session's arrivals
    /// only ever lived in this one queue), and permanently retire the
    /// shard's share of the pool budget, clamped so one full-context
    /// session still fits (degraded capacity defers, never wedges).
    fn recover_shard(&mut self, dead: usize, report: &mut FaultReport) {
        self.crashed[dead] = CrashState::Down; // a fatal stall ends here too
        let victims: Vec<GlobalSessionId> =
            self.routes.iter().filter(|(_, &(s, _))| s == dead).map(|(&id, _)| id).collect();
        let mut rows = 0u64;
        for &id in &victims {
            let &(_, local) = self.routes.get(&id).expect("victim is routed");
            let mut parked = self.shards[dead].park(local);
            rows += parked.kv_rows() as u64;
            parked.drop_kv();
            let dest = self.place_on_healthy(id, self.groups[&id]);
            let new_local = self.shards[dest].admit(parked);
            self.routes.insert(id, (dest, new_local));
        }
        report.sessions_recovered += victims.len() as u64;
        report.replay_rows += rows;
        self.metrics.record_sessions_recovered(victims.len() as u64, rows);
        self.journal.record(
            self.tick_no,
            EventKind::Recovery {
                shard: dead as u32,
                sessions: victims.len() as u32,
                replay_rows: rows,
            },
        );
        let backlog = self.queues[dead].take_all();
        let n = backlog.len() as u64;
        for a in backlog {
            let dest = self.routes.get(&a.session).expect("session recovered above").0;
            self.requeued.insert(a.ticket);
            self.queues[dest].requeue(a);
        }
        report.arrivals_requeued += n;
        self.metrics.record_arrivals_requeued(n);
        if let Some(pool) = &self.pool {
            let share = self.pool_minted / self.initial_shards;
            let ceiling = pool.capacity_pages().saturating_sub(self.floor_pages);
            let retired = pool.retire_pages(share.min(ceiling));
            report.retired_pages += retired as u64;
        }
    }

    /// The tick boundary's budget-enforcement pass: `CacheAware` steers
    /// by KV bytes, `PageAware` by held pool pages — same discipline,
    /// different denomination.
    fn cache_steer_pass(&mut self) {
        if let Some(budget) = self.policy.kv_budget() {
            self.steer_over_budget(budget, ServingEngine::cache_bytes, |e, l| e.cache_bytes_of(l));
        }
        if let Some(budget) = self.policy.page_budget() {
            self.steer_over_budget(budget, ServingEngine::pages_held, |e, l| e.pages_of(l));
        }
    }

    /// While any shard's load (per `shard_load`) exceeds `budget`, steer
    /// its coldest not-yet-steered session to the lightest shard —
    /// provided the move passes [`steer_improves`]: the destination plus
    /// the victim stays strictly below the source (no ping-pong between
    /// equal-height shards, no bouncing a session whose cache alone
    /// exceeds the budget) *and* the destination pool's free list covers
    /// the victim's pages, so a steer never converts into an eviction on
    /// arrival. (In-process fleets share one pool, making the page check
    /// conservative — the move itself is a no-op on the free list — but
    /// it is exactly the contract a per-process destination pool
    /// enforces.) Bounded by the once-per-tick guard (each session moves
    /// at most once), so the pass terminates even when the budget is
    /// infeasible fleet-wide.
    fn steer_over_budget(
        &mut self,
        budget: usize,
        shard_load: impl Fn(&ServingEngine<T>) -> usize,
        victim_load: impl Fn(&ServingEngine<T>, SessionId) -> usize,
    ) {
        // Only Healthy, up shards steer or receive — a dead shard's
        // permanent 0 load must never make it the designated
        // destination, including one whose crash no probe has missed yet
        // (`steer` would refuse the transfer and the pass would spin on
        // the same victim).
        let healthy = self.reachable_shards();
        if healthy.len() < 2 {
            return;
        }
        loop {
            let loads: Vec<usize> = self.shards.iter().map(&shard_load).collect();
            let free = self.pool_stats().map(|st| st.free_pages);
            let dest_for = |src: usize| {
                *healthy.iter().filter(|&&s| s != src).min_by_key(|&&s| (loads[s], s)).unwrap()
            };
            let eligible = |server: &Self, id: &GlobalSessionId, shard: usize, local: SessionId| {
                !server.steered_this_tick.contains(id)
                    && steer_improves(
                        loads[shard],
                        loads[dest_for(shard)],
                        victim_load(&server.shards[shard], local),
                        server.shards[shard].pages_of(local),
                        free,
                    )
            };
            // Hottest over-budget shard that still holds an eligible
            // victim — shards whose sessions were all steered already (or
            // whose moves would not improve anything) are passed over, not
            // a reason to abandon cooler over-budget shards that can
            // still be fixed.
            let src = healthy
                .iter()
                .copied()
                .filter(|&s| loads[s] > budget)
                .filter(|&s| {
                    self.routes.iter().any(|(id, &(ss, l))| ss == s && eligible(self, id, ss, l))
                })
                .max_by_key(|&s| (loads[s], s));
            let Some(src) = src else { break };
            // Coldest eligible session on the hot shard (ties: lowest id —
            // deterministic).
            let victim = self
                .routes
                .iter()
                .filter(|(id, &(s, l))| s == src && eligible(self, id, s, l))
                .min_by_key(|(&id, _)| (self.last_served.get(&id).copied().unwrap_or(0), id))
                .map(|(&id, _)| id)
                .expect("src was filtered on having an eligible victim");
            self.steer_with(victim, dest_for(src), SteerReason::OverBudget);
        }
    }

    /// Step every shard with a non-empty batch, fanning the busy shards
    /// out over `NT_THREADS` pool workers (contiguous bands of shards
    /// per worker). Returns one action vector per shard, in that shard's
    /// batch order (empty for idle shards), plus each shard's step
    /// wall-ns (all zero when telemetry is off — no clock readings are
    /// taken). Shard state is fully disjoint and per-slot math is
    /// independent of the fan-out, so any `NT_THREADS` produces identical
    /// logits; the per-shard spans feed the [`TickPhase::PlanStep`]
    /// histograms.
    #[allow(clippy::type_complexity)]
    fn step_partitioned(
        &mut self,
        task: &T,
        per: &[Vec<(SessionId, &T::Obs)>],
    ) -> (Vec<Vec<T::Action>>, Vec<u64>)
    where
        T: Sync,
        T::Obs: Sync,
        T::Slot: Send,
        T::Action: Send,
    {
        let k = self.shards.len();
        let timing = self.telemetry;
        #[allow(clippy::type_complexity)]
        let mut busy: Vec<(usize, &mut ServingEngine<T>, &[(SessionId, &T::Obs)])> = self
            .shards
            .iter_mut()
            .zip(per)
            .enumerate()
            .filter(|(_, (_, b))| !b.is_empty())
            .map(|(s, (e, b))| (s, e, b.as_slice()))
            .collect();
        let threads = if nt_tensor::pool::in_worker() {
            1
        } else {
            nt_tensor::pool::num_threads().min(busy.len())
        };
        let mut results: Vec<Option<Vec<T::Action>>> = (0..k).map(|_| None).collect();
        let mut step_ns = vec![0u64; k];
        let timed_step = |e: &mut ServingEngine<T>, b: &[(SessionId, &T::Obs)]| {
            if timing {
                let t0 = Instant::now();
                let r = e.step(task, b);
                (r, t0.elapsed().as_nanos() as u64)
            } else {
                (e.step(task, b), 0)
            }
        };
        if threads <= 1 {
            for (s, e, b) in busy {
                let (r, ns) = timed_step(e, b);
                results[s] = Some(r);
                step_ns[s] = ns;
            }
        } else {
            // Shard bands fan out over the persistent kernel pool; each
            // band's mutable borrows travel to its task through a
            // take-once Mutex slot and the answers come back the same way.
            let band_len = busy.len().div_ceil(threads);
            #[allow(clippy::type_complexity)]
            let bands: Vec<
                Mutex<Option<&mut [(usize, &mut ServingEngine<T>, &[(SessionId, &T::Obs)])]>>,
            > = busy.chunks_mut(band_len).map(|band| Mutex::new(Some(band))).collect();
            #[allow(clippy::type_complexity)]
            let outs: Vec<Mutex<Vec<(usize, Vec<T::Action>, u64)>>> =
                bands.iter().map(|_| Mutex::new(Vec::new())).collect();
            nt_tensor::pool::run_tasks(bands.len(), |bi| {
                let band = bands[bi].lock().unwrap().take().expect("shard band dispatched twice");
                let out: Vec<_> = band
                    .iter_mut()
                    .map(|(s, e, b)| {
                        let (r, ns) = timed_step(e, b);
                        (*s, r, ns)
                    })
                    .collect();
                *outs[bi].lock().unwrap() = out;
            });
            for m in outs {
                for (s, r, ns) in m.into_inner().unwrap() {
                    results[s] = Some(r);
                    step_ns[s] = ns;
                }
            }
        }
        let results: Vec<Vec<T::Action>> =
            results.into_iter().map(Option::unwrap_or_default).collect();
        for (s, r) in results.iter().enumerate() {
            if !r.is_empty() {
                self.metrics.record_served(s, r.len() as u64);
                if timing {
                    self.metrics.record_phase_ns(s, TickPhase::PlanStep, step_ns[s]);
                }
            }
        }
        (results, step_ns)
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
        let loaded = Zoo::new(std::env::temp_dir().join("netllm-shard-test"))
            .build_random(&size_spec("0.35b-sim"));
        let mut m = NetLlmAbr::new(loaded, AdaptMode::NoDomain, LoraSpec::default(), window, seed);
        m.target_return = 2.0;
        m
    }

    /// Submit one observation per session, run one tick, and poll every
    /// ticket: the actions come back in `reqs` order.
    fn serve_once(
        server: &mut ShardedServer<NetLlmAbr>,
        m: &NetLlmAbr,
        reqs: &[(GlobalSessionId, &AbrObservation)],
    ) -> Vec<usize> {
        let tickets: Vec<Ticket> =
            reqs.iter().map(|&(id, o)| server.submit(id, o.clone()).unwrap()).collect();
        let report = server.tick(m);
        assert_eq!(report.served, reqs.len(), "one tick serves one arrival per session");
        tickets.into_iter().map(|t| server.poll(t).expect("served ticket must resolve")).collect()
    }

    #[test]
    fn router_spreads_sessions_and_accounts_per_shard() {
        let m = model(4, 1);
        let mut server = ShardedServer::new(3);
        let ids: Vec<_> = (0..9).map(|_| server.join(&m)).collect();
        assert_eq!(server.active(), 9);
        // The hash router must touch every shard with 9 sequential ids.
        let per = server.active_per_shard();
        assert_eq!(per.iter().sum::<usize>(), 9);
        assert!(per.iter().all(|&a| a > 0), "router left a shard empty: {per:?}");
        // Sessions land where the hash says they do.
        for &id in &ids {
            assert_eq!(server.routes[&id].0, server.home_shard(id));
        }
        // Cache accounting is per shard and starts empty.
        assert_eq!(server.cache_bytes(), 0);
        let obs = AbrObservation::synthetic_stream(3, 1);
        let reqs: Vec<_> = ids.iter().map(|&id| (id, &obs[0])).collect();
        let _ = serve_once(&mut server, &m, &reqs);
        let bytes = server.cache_bytes_per_shard();
        assert_eq!(bytes.iter().sum::<usize>(), server.cache_bytes());
        assert!(bytes.iter().all(|&b| b > 0), "every busy shard holds KV bytes: {bytes:?}");
    }

    #[test]
    fn ticks_with_idle_shards_only_step_busy_engines() {
        // A fleet larger than the request set must serve correctly (and
        // answer in request order) when most shards have nothing to do.
        let mut m = model(3, 7);
        let mut server = ShardedServer::new(8);
        let a = server.join(&m);
        let b = server.join(&m);
        let obs = AbrObservation::synthetic_stream(5, 4);

        let mut expected: Vec<Vec<usize>> = Vec::new();
        for _ in 0..2 {
            m.reset();
            expected.push(obs.iter().map(|o| m.select(o)).collect());
        }
        for (t, o) in obs.iter().enumerate() {
            let got = serve_once(&mut server, &m, &[(a, o), (b, o)]);
            assert_eq!(got, vec![expected[0][t], expected[1][t]], "tick {t} diverged");
        }
    }

    #[test]
    fn steer_and_rebalance_preserve_session_answers() {
        // A session's decisions must be identical whether it stays home,
        // is steered mid-stream, or is dragged along by rebalance-on-leave.
        let mut m = model(3, 2);
        let streams: Vec<Vec<AbrObservation>> =
            (0..5).map(|s| AbrObservation::synthetic_stream(40 + s as u64, 8)).collect();

        // Reference: each stream alone through the unbatched path.
        let mut expected: Vec<Vec<(usize, Vec<f32>)>> = Vec::new();
        for obs in &streams {
            m.reset();
            expected.push(obs.iter().map(|o| (m.select(o), m.last_logits().to_vec())).collect());
        }

        let mut server = ShardedServer::new(2);
        let ids: Vec<_> = (0..streams.len()).map(|_| server.join(&m)).collect();
        for chunk in 0..streams[0].len() {
            // Mid-stream churn: steer stream 0 back and forth, and drop
            // stream 4 so rebalance-on-leave has something to fix.
            if chunk == 2 {
                server.steer(ids[0], 1 - server.home_shard(ids[0]));
            }
            if chunk == 4 {
                let report = server.leave(ids[4]);
                assert!(report.is_clean(), "fully polled sessions leave nothing behind");
                let per = server.active_per_shard();
                assert!(
                    per.iter().max().unwrap() - per.iter().min().unwrap() <= 1,
                    "rebalance-on-leave left the fleet skewed: {per:?}"
                );
            }
            let live = if chunk >= 4 { &ids[..4] } else { &ids[..] };
            let reqs: Vec<_> =
                live.iter().enumerate().map(|(s, &id)| (id, &streams[s][chunk])).collect();
            let actions = serve_once(&mut server, &m, &reqs);
            for (s, (&id, act)) in live.iter().zip(actions).enumerate() {
                let (eact, elogits) = &expected[s][chunk];
                assert_eq!(act, *eact, "stream {s} chunk {chunk}: sharded action diverged");
                for (x, y) in server.last_logits(id).iter().zip(elogits) {
                    assert!(
                        (x - y).abs() < 1e-5,
                        "stream {s} chunk {chunk}: sharded {x} vs unbatched {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn scheduled_ticks_serve_queued_arrivals_in_session_order() {
        // The continuous front end must serve a backlogged session one
        // decision per tick, FIFO, with logits equal to the unbatched
        // path — and tickets must resolve exactly once.
        let mut m = model(3, 11);
        let obs = AbrObservation::synthetic_stream(21, 4);
        let mut expected: Vec<(usize, Vec<f32>)> = Vec::new();
        m.reset();
        for o in &obs {
            expected.push((m.select(o), m.last_logits().to_vec()));
        }

        let mut server = ShardedServer::with_policy(2, AdmissionPolicy::LeastLoaded);
        let id = server.join(&m);
        // Backlog all four observations before any tick fires.
        let tickets: Vec<Ticket> =
            obs.iter().map(|o| server.submit(id, o.clone()).unwrap()).collect();
        assert_eq!(server.pending(), 4);
        for (t, ticket) in tickets.iter().enumerate() {
            assert_eq!(server.poll(*ticket), None, "ticket {t} must not resolve before its tick");
            let report = server.tick(&m);
            assert_eq!(report.served, 1, "one decision per session per tick");
            assert_eq!(report.pending, obs.len() - t - 1);
            let action = server.poll(*ticket).expect("served ticket must resolve");
            assert_eq!(action, expected[t].0, "tick {t}: scheduled action diverged");
            for (x, y) in server.last_logits(id).iter().zip(&expected[t].1) {
                assert!((x - y).abs() < 1e-5, "tick {t}: scheduled {x} vs unbatched {y}");
            }
            assert_eq!(server.poll(*ticket), None, "a ticket resolves exactly once");
        }
        // An empty tick is a no-op, not a panic.
        let report = server.tick(&m);
        assert_eq!((report.served, report.pending), (0, 0));
    }

    #[test]
    fn leave_reclaims_unpolled_actions_and_queued_arrivals() {
        // A session that departs without polling must leave no residue:
        // its queued arrivals are dropped and its served-but-unpolled
        // actions are reclaimed (long-running fleets otherwise leak one
        // banked action per crashed client).
        let m = model(3, 13);
        let obs = AbrObservation::synthetic_stream(23, 3);
        let mut server = ShardedServer::with_policy(1, AdmissionPolicy::LeastLoaded);
        let id = server.join(&m);
        let t0 = server.submit(id, obs[0].clone()).unwrap();
        let t1 = server.submit(id, obs[1].clone()).unwrap();
        let _ = server.tick(&m); // serves obs[0]; obs[1] stays queued
        assert_eq!((server.ready(), server.pending()), (1, 1));
        let report = server.leave(id);
        assert_eq!((server.ready(), server.pending()), (0, 0), "no residue after leave");
        assert_eq!(server.poll(t0), None, "a departed session's banked action is reclaimed");
        assert_eq!(server.poll(t1), None, "a dropped arrival's ticket never resolves");
        // ...but nothing was silently dropped: the report hands both back.
        assert!(!report.is_clean());
        let unpolled: Vec<Ticket> = report.unpolled.iter().map(|&(t, _)| t).collect();
        assert_eq!(unpolled, vec![t0], "the banked action comes back to the caller");
        let dropped: Vec<Ticket> = report.dropped_arrivals.iter().map(|&(t, _)| t).collect();
        assert_eq!(dropped, vec![t1], "the queued arrival comes back to the caller");
    }

    #[test]
    fn submit_pushes_back_at_the_queue_cap() {
        let m = model(3, 12);
        let mut server = ShardedServer::with_policy(1, AdmissionPolicy::LeastLoaded);
        let id = server.join(&m);
        server.set_queue_capacity(2);
        let obs = AbrObservation::synthetic_stream(22, 3);
        assert!(server.submit(id, obs[0].clone()).is_ok());
        assert!(server.submit(id, obs[1].clone()).is_ok());
        let refused = server.submit(id, obs[2].clone());
        let err = refused.expect_err("third submit must hit the backpressure cap");
        assert!(err.is_queue_full(), "a healthy shard at the cap refuses with QueueFull");
        let _ = server.tick(&m);
        assert!(server.submit(id, err.into_obs()).is_ok(), "a tick frees queue space");
    }

    #[test]
    fn killed_shard_recovers_sessions_and_resolves_every_ticket() {
        // Unit-scale recovery check (the full adversarial soak lives in
        // nt-bench/tests/fault_soak.rs): kill one of two shards mid-tick
        // with an arrival in flight; the health checker must declare it,
        // salvage its session onto the survivor, and resolve the orphaned
        // ticket as Requeued-then-Served — with logits equal to the
        // unbatched no-fault replay.
        let mut m = model(3, 17);
        let obs = AbrObservation::synthetic_stream(29, 6);
        let mut expected: Vec<(usize, Vec<f32>)> = Vec::new();
        m.reset();
        for o in &obs {
            expected.push((m.select(o), m.last_logits().to_vec()));
        }

        let mut server = ShardedServer::with_policy(2, AdmissionPolicy::LeastLoaded);
        server.set_health_config(crate::HealthConfig::fast());
        let id = server.join(&m);
        let home = server.shard_of(id);
        server.inject(FaultPlan::new().kill(3, home));
        let mut served = Vec::new();
        let mut tickets: std::collections::VecDeque<(usize, Ticket)> = Default::default();
        let mut next = 0usize;
        let mut retry = crate::SubmitRetry::new();
        for t in 1..=14u64 {
            if next < obs.len() && retry.ready(t) {
                match server.submit(id, obs[next].clone()) {
                    Ok(ticket) => {
                        tickets.push_back((next, ticket));
                        retry.succeeded();
                        next += 1;
                    }
                    Err(e) => {
                        assert!(e.is_retry_after_tick(), "suspect shard refuses with retry");
                        retry.refused(t, &e);
                    }
                }
            }
            let report = server.tick(&m);
            if report.tick == 3 {
                assert_eq!(report.faults.killed, vec![home], "kill fires at its tick");
            }
            if !report.faults.declared_dead.is_empty() {
                assert_eq!(report.faults.declared_dead, vec![home]);
                assert_eq!(report.faults.sessions_recovered, 1);
                assert_eq!(server.shard_of(id), 1 - home, "salvaged onto the survivor");
            }
            while let Some(&(i, ticket)) = tickets.front() {
                match server.poll_status(ticket) {
                    TicketStatus::Served(a) => {
                        assert_eq!(a, expected[i].0, "decision {i} diverged after recovery");
                        served.push(i);
                        tickets.pop_front();
                    }
                    TicketStatus::Failed => panic!("no fault here fails tickets"),
                    TicketStatus::Requeued | TicketStatus::Pending => break,
                }
            }
        }
        assert!(tickets.is_empty(), "every ticket must resolve — none may hang");
        assert_eq!(served, (0..obs.len()).collect::<Vec<_>>(), "all decisions served in order");
        for (x, y) in server.last_logits(id).iter().zip(&expected[obs.len() - 1].1) {
            assert!((x - y).abs() < 1e-5, "post-recovery logits diverged: {x} vs {y}");
        }
        let f = server.metrics().snapshot().faults;
        assert_eq!(f.shard_kills, 1);
        assert_eq!(f.sessions_recovered, 1);
        assert!(server.health().state(home).is_dead());
    }

    #[test]
    fn stalled_shard_revives_without_recovery() {
        // A transient stall shorter than the miss threshold must cost
        // only latency: no declaration, no salvage, answers identical.
        let mut m = model(3, 19);
        let obs = AbrObservation::synthetic_stream(31, 4);
        let mut expected: Vec<usize> = Vec::new();
        m.reset();
        for o in &obs {
            expected.push(m.select(o));
        }
        let mut server = ShardedServer::with_policy(2, AdmissionPolicy::LeastLoaded);
        let id = server.join(&m);
        let home = server.shard_of(id);
        server.inject(FaultPlan::new().stall(2, home, 2));
        let tickets: Vec<Ticket> =
            obs.iter().map(|o| server.submit(id, o.clone()).unwrap()).collect();
        for _ in 0..12 {
            let report = server.tick(&m);
            assert!(report.faults.declared_dead.is_empty(), "a short stall must not declare");
            assert_eq!(report.faults.sessions_recovered, 0);
        }
        assert_eq!(server.shard_of(id), home, "no migration for a transient fault");
        for (i, t) in tickets.iter().enumerate() {
            match server.poll_status(*t) {
                TicketStatus::Served(a) => assert_eq!(a, expected[i], "decision {i} diverged"),
                s => panic!("ticket {i} unresolved after revival: {s:?}"),
            }
        }
        assert_eq!(server.metrics().snapshot().faults.shard_kills, 0);
    }
}
