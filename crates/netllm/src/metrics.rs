//! Process metrics: atomic per-shard serving counters plus the kernel
//! pool's dispatch counters, behind one registry so the gates, the
//! benchmark (`fleetbench`) and the control plane read the same
//! numbers instead of each keeping private tallies.
//!
//! The registry is owned by [`crate::ShardedServer`] (one
//! [`ShardCounters`] row per shard) and updated from the serving paths
//! with relaxed atomics — counters are monotonic totals, `queue_depth` is
//! a gauge overwritten at every tick boundary. Readers take [`MetricsRegistry::snapshot`]s
//! and diff them for per-phase rates; nothing here locks or blocks the
//! serving hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of tick phases [`ShardedServer::tick`](crate::ShardedServer::tick)
/// attributes wall time to — see [`TickPhase`].
pub const TICK_PHASES: usize = 5;

/// One phase of a scheduled tick, the index into a shard's per-phase
/// latency histograms. `Drain`, `PlanStep` and `Settle` are measured per
/// shard; `MemoryGuard` and `Steer` are fleet-wide tick-boundary passes,
/// so their recorded duration is the whole pass, identical on every
/// shard's row (attributing a global rebalance to one shard would be
/// fiction).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TickPhase {
    /// Queue drain at the tick boundary (per shard).
    Drain = 0,
    /// Request planning + the batched engine step (per shard; dominated
    /// by the step).
    PlanStep = 1,
    /// Banking served actions under their tickets (per shard).
    Settle = 2,
    /// The paged-memory guard (fleet-wide pass).
    MemoryGuard = 3,
    /// The cache/page steering pass (fleet-wide pass).
    Steer = 4,
}

impl TickPhase {
    /// Every phase, in recording order.
    pub const ALL: [TickPhase; TICK_PHASES] =
        [Self::Drain, Self::PlanStep, Self::Settle, Self::MemoryGuard, Self::Steer];

    /// Stable short name (report keys, `nt-top` column headers).
    pub fn label(self) -> &'static str {
        match self {
            TickPhase::Drain => "drain",
            TickPhase::PlanStep => "plan+step",
            TickPhase::Settle => "settle",
            TickPhase::MemoryGuard => "memory-guard",
            TickPhase::Steer => "steer",
        }
    }
}

/// One shard's counters. All monotonic totals except `queue_depth` and
/// `held_pages` (gauges overwritten at every tick boundary).
#[derive(Debug, Default)]
pub struct ShardCounters {
    served: AtomicU64,
    steered: AtomicU64,
    steered_in: AtomicU64,
    evicted: AtomicU64,
    evicted_rebuild_rows: AtomicU64,
    queue_depth: AtomicU64,
    held_pages: AtomicU64,
    /// Wall-ns per tick phase ([`TickPhase`] order).
    phases: [LatencyCounters; TICK_PHASES],
    /// Submit→completion latency of tickets served by this shard.
    latency: LatencyCounters,
}

/// Plain-value copy of one shard's counters at a point in time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Decisions served by this shard.
    pub served: u64,
    /// Sessions steered *off* this shard (rebalance + cache-aware).
    pub steered: u64,
    /// Sessions steered *onto* this shard — the destination side of the
    /// same moves, so one row shows a shard's churn in both directions.
    pub steered_in: u64,
    /// Sessions whose KV cache this shard evicted under memory pressure.
    pub evicted: u64,
    /// Token rows those evictions priced for replay
    /// ([`crate::ServedTask::rebuild_rows`] at the moment of eviction,
    /// summed) — the eviction-*cost* counter the policy comparison in
    /// `tests/sched_gate.rs` reads; recorded identically under every
    /// eviction policy so the totals compare apples-to-apples.
    pub evicted_rebuild_rows: u64,
    /// Pending arrivals in this shard's queue at the last tick boundary.
    pub queue_depth: u64,
    /// Pool pages the shard's sessions held at the last tick boundary
    /// (gauge; 0 for pool-less fleets) — the page-pressure read path.
    pub held_pages: u64,
}

/// Plain-value copy of the kernel pool's cumulative dispatch counters
/// (re-exported from `nt_tensor::pool` so metrics consumers need one
/// import, not two).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolDispatchSnapshot {
    /// Configured pool width (`NT_THREADS` resolution).
    pub workers: u64,
    /// Parallel jobs published to the persistent pool since process start.
    pub dispatches: u64,
    /// Tasks fanned out across those jobs.
    pub tasks: u64,
}

/// Fleet-wide fault/recovery counters (monotonic totals). Per-event
/// detail lives on `TickReport::faults`; these are the cumulative numbers
/// the control-plane read path and `tests/fault_soak.rs` read.
#[derive(Debug, Default)]
pub struct FaultCounters {
    shard_kills: AtomicU64,
    sessions_recovered: AtomicU64,
    tickets_failed: AtomicU64,
    arrivals_requeued: AtomicU64,
    recovery_replay_rows: AtomicU64,
}

/// Plain-value copy of [`FaultCounters`] at a point in time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultSnapshot {
    /// Shards declared Dead by the health checker (kills and fatal
    /// stalls both land here — the declaration is what counts).
    pub shard_kills: u64,
    /// Sessions salvaged off dead shards and re-admitted to survivors.
    pub sessions_recovered: u64,
    /// Tickets resolved `Failed` (poisoned steps, dropped batches).
    pub tickets_failed: u64,
    /// Already-ticketed arrivals re-queued by the fault layer.
    pub arrivals_requeued: u64,
    /// KV rows crashes destroyed that episode-log replay must rebuild.
    pub recovery_replay_rows: u64,
}

/// Number of power-of-two latency buckets: bucket `i` counts samples with
/// `floor(log2(ns)) == i`, so the range spans 1 ns to ~1.2 s and beyond
/// (the last bucket is open-ended).
pub const LATENCY_BUCKETS: usize = 31;

/// Submit→completion latency totals for the network ingress (monotonic,
/// like every other counter here). Exact sums plus a log2 histogram:
/// enough for mean/max and bucket-resolution percentiles without the
/// serving path ever allocating. Precise percentiles for reports are
/// measured client-side (`fleetbench`).
#[derive(Debug, Default)]
pub struct LatencyCounters {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl LatencyCounters {
    /// Record one sample of `ns` nanoseconds: four relaxed atomic ops, no
    /// allocation, no branch beyond the bucket clamp.
    pub fn record(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        let bucket = (63 - ns.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// The counters as plain values.
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            count: self.count.load(Ordering::Relaxed),
            total_ns: self.total_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}

/// Plain-value copy of [`LatencyCounters`] at a point in time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (ns).
    pub total_ns: u64,
    /// Largest single sample (ns).
    pub max_ns: u64,
    /// Log2 histogram: `buckets[i]` counts samples in `[2^i, 2^(i+1))` ns
    /// (last bucket open-ended).
    pub buckets: Vec<u64>,
}

impl LatencySnapshot {
    /// Mean latency in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }

    /// Approximate `q`-quantile (`q` in `0.0..=1.0`) in milliseconds from
    /// the log2 histogram: the geometric mean of the edges of the bucket
    /// holding the nearest-rank sample (`2^i * sqrt(2)` ns for bucket
    /// `i`), still accurate to within a factor of two of the true value
    /// but centered instead of systematically high like the upper edge.
    pub fn approx_quantile_ms(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return (1u64 << i) as f64 * std::f64::consts::SQRT_2 / 1e6;
            }
        }
        self.max_ns as f64 / 1e6
    }
}

/// Plain-value copy of the ingress front end's counters at a point in
/// time (the `IngressStats` tally in `crate::ingress`, folded into
/// [`MetricsSnapshot`] so one scrape returns the whole read path).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngressSnapshot {
    /// Connections that completed the version handshake.
    pub connections: u64,
    /// Sessions granted via `Frame::Join`.
    pub sessions_joined: u64,
    /// `Frame::Submit`s accepted (ticket granted).
    pub submits: u64,
    /// `Frame::Submit`s refused with `Frame::Busy`.
    pub busy: u64,
    /// `Frame::Completion`s pushed.
    pub completions: u64,
    /// `Frame::Failed`s pushed (fault-resolved or leave-dropped).
    pub failed: u64,
    /// Tickets that resolved `Failed` after their connection vanished —
    /// the leave contract's "nothing vanishes" tally for departures that
    /// left no one to notify.
    pub failed_on_disconnect: u64,
    /// Connections dropped for protocol violations (bad handshake,
    /// foreign session id, observation/group mismatch, unparseable
    /// frame).
    pub protocol_errors: u64,
    /// Scheduler ticks run.
    pub ticks: u64,
}

/// Everything the registry knows, copied out at once.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub shards: Vec<ShardSnapshot>,
    pub pool: PoolDispatchSnapshot,
    pub faults: FaultSnapshot,
    /// Ingress submit→completion latency (zeroed unless an ingress front
    /// end is feeding this registry).
    pub ingress_latency: LatencySnapshot,
    /// Per-shard tick-phase wall-time histograms, indexed
    /// `[shard][TickPhase as usize]` (empty until a tick runs with
    /// telemetry on; see [`TickPhase`] for which phases are per-shard
    /// measurements vs fleet-wide passes).
    pub shard_phases: Vec<Vec<LatencySnapshot>>,
    /// Per-shard submit→completion latency, so tail latency is
    /// attributable to a shard instead of fleet-global.
    pub shard_latency: Vec<LatencySnapshot>,
    /// Decisions served per adapter label (sorted by label).
    pub served_by_label: Vec<(String, u64)>,
    /// Ingress front-end counters (zeroed unless an ingress scheduler
    /// composed this snapshot — the registry itself never sees them).
    pub ingress: IngressSnapshot,
    /// Fleet-pool free pages at the last tick boundary (gauge; 0 for
    /// pool-less fleets).
    pub pool_free_pages: u64,
}

impl MetricsSnapshot {
    /// Fleet-wide served total.
    pub fn served(&self) -> u64 {
        self.shards.iter().map(|s| s.served).sum()
    }

    /// Fleet-wide steer total.
    pub fn steered(&self) -> u64 {
        self.shards.iter().map(|s| s.steered).sum()
    }

    /// Fleet-wide eviction total.
    pub fn evicted(&self) -> u64 {
        self.shards.iter().map(|s| s.evicted).sum()
    }

    /// Fleet-wide replay rows priced at eviction time.
    pub fn evicted_rebuild_rows(&self) -> u64 {
        self.shards.iter().map(|s| s.evicted_rebuild_rows).sum()
    }

    /// Fleet-wide queued arrivals at the last tick boundary.
    pub fn queue_depth(&self) -> u64 {
        self.shards.iter().map(|s| s.queue_depth).sum()
    }

    /// Fleet-wide held pages at the last tick boundary.
    pub fn held_pages(&self) -> u64 {
        self.shards.iter().map(|s| s.held_pages).sum()
    }
}

/// Per-shard atomic counters for one serving fleet.
#[derive(Debug)]
pub struct MetricsRegistry {
    shards: Vec<ShardCounters>,
    faults: FaultCounters,
    ingress: LatencyCounters,
    /// Served totals per adapter label. Touched once per tick (not per
    /// decision), so a mutex is fine; the serving hot path never sees it.
    labels: Mutex<std::collections::BTreeMap<&'static str, u64>>,
    /// Fleet-pool free pages at the last tick boundary (gauge; 0 for
    /// pool-less fleets).
    pool_free_pages: AtomicU64,
}

impl MetricsRegistry {
    /// A zeroed registry with one counter row per shard.
    pub fn new(num_shards: usize) -> Self {
        MetricsRegistry {
            shards: (0..num_shards).map(|_| ShardCounters::default()).collect(),
            faults: FaultCounters::default(),
            ingress: LatencyCounters::default(),
            labels: Mutex::new(std::collections::BTreeMap::new()),
            pool_free_pages: AtomicU64::new(0),
        }
    }

    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// `n` decisions served by `shard`.
    pub fn record_served(&self, shard: usize, n: u64) {
        self.shards[shard].served.fetch_add(n, Ordering::Relaxed);
    }

    /// `n` decisions served under adapter `label` (called once per label
    /// per tick from the banking loop, never per decision).
    pub fn record_label_served(&self, label: &'static str, n: u64) {
        *self.labels.lock().unwrap().entry(label).or_insert(0) += n;
    }

    /// One session steered off `shard` (counted at the source).
    pub fn record_steered(&self, shard: usize) {
        self.shards[shard].steered.fetch_add(1, Ordering::Relaxed);
    }

    /// One session steered *onto* `shard` (the destination side of the
    /// same move [`record_steered`](Self::record_steered) counts at the
    /// source).
    pub fn record_steered_in(&self, shard: usize) {
        self.shards[shard].steered_in.fetch_add(1, Ordering::Relaxed);
    }

    /// `ns` wall-nanoseconds spent in `phase` on behalf of `shard` this
    /// tick (fleet-wide passes record the same span on every shard row —
    /// see [`TickPhase`]).
    pub fn record_phase_ns(&self, shard: usize, phase: TickPhase, ns: u64) {
        self.shards[shard].phases[phase as usize].record(ns);
    }

    /// One submit→completion latency sample of `ns` nanoseconds for a
    /// ticket served by `shard`.
    pub fn record_shard_latency(&self, shard: usize, ns: u64) {
        self.shards[shard].latency.record(ns);
    }

    /// One session's KV cache evicted from `shard`, priced at
    /// `rebuild_rows` replay rows ([`crate::ServedTask::rebuild_rows`] at
    /// the moment of eviction — 0 when its next step re-anchors anyway).
    pub fn record_evicted(&self, shard: usize, rebuild_rows: u64) {
        self.shards[shard].evicted.fetch_add(1, Ordering::Relaxed);
        self.shards[shard].evicted_rebuild_rows.fetch_add(rebuild_rows, Ordering::Relaxed);
    }

    /// Overwrite `shard`'s queue-depth gauge (tick boundary).
    pub fn set_queue_depth(&self, shard: usize, depth: u64) {
        self.shards[shard].queue_depth.store(depth, Ordering::Relaxed);
    }

    /// Overwrite `shard`'s held-pages gauge (tick boundary).
    pub fn set_held_pages(&self, shard: usize, pages: u64) {
        self.shards[shard].held_pages.store(pages, Ordering::Relaxed);
    }

    /// Overwrite the fleet pool's free-pages gauge (tick boundary).
    pub fn set_free_pages(&self, pages: u64) {
        self.pool_free_pages.store(pages, Ordering::Relaxed);
    }

    /// One shard declared Dead.
    pub fn record_shard_kill(&self) {
        self.faults.shard_kills.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` sessions salvaged and re-admitted, destroying `replay_rows` KV
    /// rows the episode-log replay must rebuild.
    pub fn record_sessions_recovered(&self, n: u64, replay_rows: u64) {
        self.faults.sessions_recovered.fetch_add(n, Ordering::Relaxed);
        self.faults.recovery_replay_rows.fetch_add(replay_rows, Ordering::Relaxed);
    }

    /// `n` tickets resolved `Failed` by a fault.
    pub fn record_tickets_failed(&self, n: u64) {
        self.faults.tickets_failed.fetch_add(n, Ordering::Relaxed);
    }

    /// `n` already-ticketed arrivals re-queued by the fault layer.
    pub fn record_arrivals_requeued(&self, n: u64) {
        self.faults.arrivals_requeued.fetch_add(n, Ordering::Relaxed);
    }

    /// One ingress submit→completion latency sample of `ns` nanoseconds.
    pub fn record_ingress_latency(&self, ns: u64) {
        self.ingress.record(ns);
    }

    /// The ingress latency counters as plain values.
    pub fn ingress_latency_snapshot(&self) -> LatencySnapshot {
        self.ingress.snapshot()
    }

    /// `shard`'s per-phase wall-time histograms as plain values
    /// ([`TickPhase`] order).
    pub fn shard_phase_snapshot(&self, shard: usize) -> Vec<LatencySnapshot> {
        self.shards[shard].phases.iter().map(|p| p.snapshot()).collect()
    }

    /// `shard`'s submit→completion latency histogram as plain values.
    pub fn shard_latency_snapshot(&self, shard: usize) -> LatencySnapshot {
        self.shards[shard].latency.snapshot()
    }

    /// The fleet-wide fault counters as plain values.
    pub fn fault_snapshot(&self) -> FaultSnapshot {
        FaultSnapshot {
            shard_kills: self.faults.shard_kills.load(Ordering::Relaxed),
            sessions_recovered: self.faults.sessions_recovered.load(Ordering::Relaxed),
            tickets_failed: self.faults.tickets_failed.load(Ordering::Relaxed),
            arrivals_requeued: self.faults.arrivals_requeued.load(Ordering::Relaxed),
            recovery_replay_rows: self.faults.recovery_replay_rows.load(Ordering::Relaxed),
        }
    }

    /// One shard's counters as plain values.
    pub fn shard(&self, shard: usize) -> ShardSnapshot {
        let s = &self.shards[shard];
        ShardSnapshot {
            served: s.served.load(Ordering::Relaxed),
            steered: s.steered.load(Ordering::Relaxed),
            steered_in: s.steered_in.load(Ordering::Relaxed),
            evicted: s.evicted.load(Ordering::Relaxed),
            evicted_rebuild_rows: s.evicted_rebuild_rows.load(Ordering::Relaxed),
            queue_depth: s.queue_depth.load(Ordering::Relaxed),
            held_pages: s.held_pages.load(Ordering::Relaxed),
        }
    }

    /// Every shard's counters plus the kernel pool's dispatch counters.
    /// The [`MetricsSnapshot::ingress`] field stays zeroed here — only an
    /// ingress scheduler (which owns those counters) fills it in.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            shards: (0..self.shards.len()).map(|s| self.shard(s)).collect(),
            pool: pool_dispatch_snapshot(),
            faults: self.fault_snapshot(),
            ingress_latency: self.ingress_latency_snapshot(),
            shard_phases: (0..self.shards.len()).map(|s| self.shard_phase_snapshot(s)).collect(),
            shard_latency: (0..self.shards.len()).map(|s| self.shard_latency_snapshot(s)).collect(),
            served_by_label: self
                .labels
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            ingress: IngressSnapshot::default(),
            pool_free_pages: self.pool_free_pages.load(Ordering::Relaxed),
        }
    }
}

/// The kernel pool's cumulative dispatch counters (see
/// `nt_tensor::pool::stats`), packaged for metrics consumers.
pub fn pool_dispatch_snapshot() -> PoolDispatchSnapshot {
    let s = nt_tensor::pool::stats();
    PoolDispatchSnapshot {
        workers: nt_tensor::pool::num_threads() as u64,
        dispatches: s.dispatches,
        tasks: s.tasks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_shard_and_total() {
        let m = MetricsRegistry::new(3);
        m.record_served(0, 5);
        m.record_served(2, 7);
        m.record_steered(1);
        m.record_steered_in(2);
        m.record_label_served("abr", 5);
        m.record_label_served("abr", 2);
        m.record_label_served("vp", 1);
        m.record_evicted(2, 17);
        m.record_evicted(2, 0); // a free victim still counts as an eviction
        m.set_queue_depth(1, 4);
        m.set_queue_depth(1, 2); // gauge overwrites, never accumulates
        m.set_held_pages(0, 9);
        m.set_held_pages(0, 6); // gauge overwrites
        m.set_free_pages(40);
        let snap = m.snapshot();
        assert_eq!(snap.shards[0].served, 5);
        assert_eq!(snap.shards[2].served, 7);
        assert_eq!(snap.served(), 12);
        assert_eq!(snap.steered(), 1);
        assert_eq!(snap.shards[1].steered, 1);
        assert_eq!(snap.shards[2].steered_in, 1);
        assert_eq!(snap.shards[1].steered_in, 0);
        assert_eq!(snap.served_by_label, vec![("abr".to_string(), 7), ("vp".to_string(), 1)]);
        assert_eq!(snap.evicted(), 2);
        assert_eq!(snap.evicted_rebuild_rows(), 17);
        assert_eq!(snap.shards[1].queue_depth, 2);
        assert_eq!(snap.queue_depth(), 2);
        assert_eq!((snap.shards[0].held_pages, snap.held_pages()), (6, 6));
        assert_eq!(snap.pool_free_pages, 40);
        assert_eq!(snap.pool.workers, nt_tensor::pool::num_threads() as u64);
    }

    #[test]
    fn latency_histogram_buckets_by_log2_and_quantiles_bound() {
        let m = MetricsRegistry::new(1);
        // 1µs x 9 samples, 1s x 1 sample: p50 lands in the microsecond
        // bucket, p99+ in the second-scale one.
        for _ in 0..9 {
            m.record_ingress_latency(1_000);
        }
        m.record_ingress_latency(1_000_000_000);
        let lat = m.ingress_latency_snapshot();
        assert_eq!(lat.count, 10);
        assert_eq!(lat.max_ns, 1_000_000_000);
        assert_eq!(lat.buckets.iter().sum::<u64>(), 10);
        let p50 = lat.approx_quantile_ms(0.5);
        assert!(p50 > 0.0005 && p50 < 0.005, "p50 ~1us, got {p50}ms");
        let p99 = lat.approx_quantile_ms(0.99);
        assert!(p99 > 500.0, "p99 ~1s, got {p99}ms");
        assert!((lat.mean_ms() - 100.0).abs() < 1.0);
    }

    #[test]
    fn quantile_uses_geometric_mean_of_bucket_edges() {
        let m = MetricsRegistry::new(1);
        // All samples in bucket 10 ([1024, 2048) ns): every quantile is
        // the bucket's geometric mean, 1024*sqrt(2) ns ≈ 1448 ns — inside
        // the bucket, not its upper edge.
        for _ in 0..100 {
            m.record_ingress_latency(1_500);
        }
        let lat = m.ingress_latency_snapshot();
        let p50 = lat.approx_quantile_ms(0.5);
        let expect = 1024.0 * std::f64::consts::SQRT_2 / 1e6;
        assert!((p50 - expect).abs() < 1e-9, "p50 {p50} != {expect}");
        // Within-2x bound against the true value (1500 ns).
        let truth = 1_500.0 / 1e6;
        assert!(p50 > truth / 2.0 && p50 < truth * 2.0);
        assert_eq!(p50, lat.approx_quantile_ms(0.01));
        assert_eq!(p50, lat.approx_quantile_ms(1.0));
    }

    #[test]
    fn phase_and_shard_latency_histograms_record_per_shard() {
        let m = MetricsRegistry::new(2);
        m.record_phase_ns(0, TickPhase::Drain, 1_000);
        m.record_phase_ns(0, TickPhase::PlanStep, 2_000);
        m.record_phase_ns(1, TickPhase::PlanStep, 4_000);
        m.record_shard_latency(1, 8_000);
        let snap = m.snapshot();
        assert_eq!(snap.shard_phases.len(), 2);
        assert_eq!(snap.shard_phases[0].len(), TICK_PHASES);
        assert_eq!(snap.shard_phases[0][TickPhase::Drain as usize].count, 1);
        assert_eq!(snap.shard_phases[0][TickPhase::PlanStep as usize].total_ns, 2_000);
        assert_eq!(snap.shard_phases[1][TickPhase::PlanStep as usize].total_ns, 4_000);
        assert_eq!(snap.shard_phases[1][TickPhase::Drain as usize].count, 0);
        assert_eq!(snap.shard_latency[1].count, 1);
        assert_eq!(snap.shard_latency[1].max_ns, 8_000);
        assert_eq!(snap.shard_latency[0].count, 0);
    }

    #[test]
    fn fault_counters_accumulate() {
        let m = MetricsRegistry::new(2);
        m.record_shard_kill();
        m.record_sessions_recovered(3, 40);
        m.record_tickets_failed(2);
        m.record_arrivals_requeued(5);
        m.record_sessions_recovered(1, 8);
        let f = m.snapshot().faults;
        assert_eq!(f.shard_kills, 1);
        assert_eq!(f.sessions_recovered, 4);
        assert_eq!(f.tickets_failed, 2);
        assert_eq!(f.arrivals_requeued, 5);
        assert_eq!(f.recovery_replay_rows, 48);
    }
}
