//! The three workloads, and the server shape each one serves through.
//! `README.md` next to this crate says why each was chosen and which
//! layers it stresses or bypasses.

use crate::schedule::Schedule;
use netllm::{
    AdmissionPolicy, EvictionPolicy, FleetModels, IngressConfig, ServedTask, ShardedServer,
};
use nt_llm::{PageConfig, PagePool, TinyLm};
use std::path::Path;
use std::time::Duration;

/// Positions per KV page in the pooled workload.
pub const PAGE_TOKENS: usize = 16;
/// RL context window of the ABR and CJS adapters.
pub const WINDOW: usize = 4;

/// How a workload's clients drive the fleet.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// `sessions` sessions for the whole run, each with exactly one
    /// decision outstanding.
    Closed { sessions: usize },
    /// Seeded heavy-tail session lifetimes over trace ticks of `slot`,
    /// Poisson arrivals of `rate` per second in aggregate.
    Open { sessions: usize, rate: f64, slot: Duration },
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Zoo size label of all three backbones.
    pub model: &'static str,
    pub shards: usize,
    /// Fleet-wide KV page budget; `None` serves without a pool.
    pub pool_pages: Option<usize>,
    pub load: Load,
    /// Latency limit of `within_limit_frac` (ms).
    pub limit_ms: f64,
    /// Closed-loop rounds every session completes during set-up.
    pub warm_rounds: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fleet_dense",
        model: "7b-sim",
        shards: 4,
        pool_pages: None,
        load: Load::Closed { sessions: 64 },
        limit_ms: 75.0,
        warm_rounds: 16,
    },
    Workload {
        name: "kv_tight",
        model: "7b-sim",
        shards: 4,
        pool_pages: Some(130),
        load: Load::Closed { sessions: 64 },
        limit_ms: 75.0,
        warm_rounds: 24,
    },
    Workload {
        name: "ingress_churn",
        model: "0.35b-sim",
        shards: 2,
        pool_pages: None,
        load: Load::Open { sessions: 400, rate: 500.0, slot: Duration::from_millis(50) },
        limit_ms: 50.0,
        warm_rounds: 48,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Sessions joined during set-up to warm an open-loop server (they leave
/// before the window).
pub const OPEN_WARM_SESSIONS: usize = 64;

impl Workload {
    pub fn models(&self, dir: &Path) -> FleetModels {
        FleetModels::sized(dir, self.model, WINDOW)
    }

    /// The open-loop schedule over `wall` (`None` for closed loops).
    pub fn schedule(&self, seed: u64, wall: Duration) -> Option<Schedule> {
        match self.load {
            Load::Open { sessions, rate, slot } => {
                Some(Schedule::churn(seed, wall, slot, sessions, rate))
            }
            Load::Closed { .. } => None,
        }
    }

    /// A fresh page pool at this workload's budget (every backbone of a
    /// fleet shares `d_model`, so one pool serves all three).
    pub fn pool(&self, lm: &TinyLm) -> Option<PagePool> {
        self.pool_pages.map(|pages| {
            let page_bytes = 2 * PAGE_TOKENS * lm.cfg.d_model * 4;
            PagePool::for_model(
                lm,
                PageConfig { page_tokens: PAGE_TOKENS, budget_bytes: pages * page_bytes },
            )
        })
    }

    fn policy(&self) -> (AdmissionPolicy, EvictionPolicy) {
        match self.pool_pages {
            Some(pages) => (
                AdmissionPolicy::PageAware { budget_pages: pages / self.shards },
                EvictionPolicy::CheapestRebuild,
            ),
            None => (AdmissionPolicy::HashRoute, EvictionPolicy::None),
        }
    }

    /// The ingress configuration: the defaults, with this workload's
    /// shards and (for the pooled workload) pool, placement and eviction.
    pub fn ingress(&self, lm: &TinyLm) -> IngressConfig {
        let (policy, eviction) = self.policy();
        IngressConfig {
            shards: self.shards,
            policy,
            pool: self.pool(lm),
            eviction,
            ..IngressConfig::default()
        }
    }

    /// The in-process twin of [`Workload::ingress`].
    pub fn server<T: ServedTask>(&self, lm: &TinyLm) -> ShardedServer<T> {
        let cfg = IngressConfig::default();
        let (policy, eviction) = self.policy();
        let mut server = match self.pool(lm) {
            Some(pool) => ShardedServer::with_memory(self.shards, policy, pool, eviction),
            None => ShardedServer::with_policy(self.shards, policy),
        };
        server.set_queue_capacity(cfg.queue_cap);
        server.set_telemetry(cfg.telemetry);
        server
    }
}
