//! Layer replays of a traced run, timed from outside the program:
//!
//! - the backbone: every batched append the in-process leg ran, rebuilt
//!   from the wrapper's recorded shapes (rows per slot, context length)
//!   and re-run through `netllm::append_batched` on the benchmark's own
//!   sessions with random embeddings;
//! - the kernels: `nt_tensor::matmul_into` at the decode GEMM shapes and
//!   a trivial `nt_tensor::pool::run_tasks` dispatch.
//!
//! FLOPs are computed from shapes, not counted: per layer, an append of
//! `n` rows after `c` cached ones costs `24·n·d²` in the projections and
//! MLP (`mlp_mult` 4) plus `4·d·(n·c + n(n+1)/2)` in attention.

use crate::wrap::Call;
use netllm::{append_batched, InferenceSession, ServedTask};
use nt_llm::PagePool;
use nt_tensor::{Rng, Tensor};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One batched backbone append: its group and `(context, rows)` per slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Batch {
    pub group: usize,
    pub slots: Vec<(usize, usize)>,
}

/// Split one contiguous same-group run per batch, as the engine does.
fn runs(slots: &[(usize, usize, usize)], out: &mut Vec<Batch>) {
    for run in slots.chunk_by(|a, b| a.0 == b.0) {
        out.push(Batch { group: run[0].0, slots: run.iter().map(|&(_, c, n)| (c, n)).collect() });
    }
}

/// Rebuild the backbone batches from one tick's wrapper calls. With one
/// kernel thread, each shard's engine step is a run of plans followed by
/// the matching run of settles; a plan after a settle starts the next
/// shard's step. A step appends its planned rows, then the rows of any
/// candidate rollbacks after truncating the candidates away.
pub fn batches(calls: &[Call]) -> Vec<Batch> {
    let mut out = Vec::new();
    let mut plans: Vec<(usize, usize, usize)> = Vec::new(); // (group, ctx, rows)
    let mut rollbacks: Vec<(usize, usize, usize)> = Vec::new();
    let mut settled = 0usize;
    let mut flush = |plans: &mut Vec<_>, rollbacks: &mut Vec<_>, settled: &mut usize| {
        runs(plans, &mut out);
        runs(rollbacks, &mut out);
        plans.clear();
        rollbacks.clear();
        *settled = 0;
    };
    for call in calls {
        match *call {
            Call::Plan { group, rows, ctx, .. } => {
                if settled > 0 {
                    flush(&mut plans, &mut rollbacks, &mut settled);
                }
                plans.push((group, ctx, rows));
            }
            Call::Settle { group, rollback, .. } => {
                if let Some((drop_rows, post)) = rollback {
                    let (_, ctx, rows) = plans[settled];
                    rollbacks.push((group, ctx + rows - drop_rows, post));
                }
                settled += 1;
            }
        }
    }
    flush(&mut plans, &mut rollbacks, &mut settled);
    out
}

/// Backbone FLOPs of appending `n` rows after `c` cached ones.
pub fn append_flops(layers: usize, d: usize, c: usize, n: usize) -> f64 {
    let (d, c, n) = (d as f64, c as f64, n as f64);
    layers as f64 * (24.0 * n * d * d + 4.0 * d * (n * c + n * (n + 1.0) / 2.0))
}

/// What the backbone replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    pub ns: u64,
    pub rows: u64,
    pub flops: f64,
}

/// Re-runs batches through `append_batched` on its own sessions. Each
/// slot's session is cut back to the recorded context (refilled, untimed,
/// when it is shorter); only the appends are timed. With a `pool` the
/// sessions are paged, like the pooled fleet's.
pub struct Replayer<'p> {
    pool: Option<&'p PagePool>,
    sessions: Vec<Vec<InferenceSession>>,
    rng: Rng,
    pub done: Replay,
}

impl<'p> Replayer<'p> {
    pub fn new(pool: Option<&'p PagePool>) -> Self {
        Replayer {
            pool,
            sessions: Vec::new(),
            rng: Rng::seeded(0xBAC4_B0E5),
            done: Replay::default(),
        }
    }

    pub fn run<T: ServedTask>(&mut self, task: &T, batches: &[Batch]) {
        self.sessions.resize_with(task.groups(), Vec::new);
        for b in batches {
            let (lm, store) = task.backbone(b.group);
            let d = lm.cfg.d_model;
            let sessions = &mut self.sessions[b.group];
            while sessions.len() < b.slots.len() {
                sessions.push(match self.pool {
                    Some(p) => InferenceSession::paged(lm, p),
                    None => InferenceSession::new(lm),
                });
            }
            for (sess, &(ctx, _)) in sessions.iter_mut().zip(&b.slots) {
                if sess.len() < ctx {
                    sess.clear();
                    sess.append(lm, store, &Tensor::randn([ctx, d], 0.5, &mut self.rng));
                }
                sess.truncate(ctx);
            }
            let rows: Vec<usize> = b.slots.iter().map(|s| s.1).collect();
            let total: usize = rows.iter().sum();
            let emb = Tensor::randn([total, d], 0.5, &mut self.rng);
            let mut refs: Vec<&mut InferenceSession> =
                sessions.iter_mut().take(rows.len()).collect();
            let t0 = Instant::now();
            black_box(append_batched(lm, store, &mut refs, &emb, &rows));
            self.done.ns += t0.elapsed().as_nanos() as u64;
            self.done.rows += total as u64;
            self.done.flops +=
                b.slots.iter().map(|&(c, n)| append_flops(lm.cfg.n_layers, d, c, n)).sum::<f64>();
        }
    }
}

/// GFLOP/s of `matmul_into` at `m x k x n`, over about `budget` of calls.
pub fn matmul_gflops(m: usize, k: usize, n: usize, budget: Duration) -> f64 {
    let mut rng = Rng::seeded(0x6E33);
    let a = Tensor::randn([m, k], 1.0, &mut rng);
    let b = Tensor::randn([k, n], 1.0, &mut rng);
    let mut c = vec![0.0f32; m * n];
    let (mut calls, t0) = (0u64, Instant::now());
    while t0.elapsed() < budget {
        for _ in 0..16 {
            nt_tensor::tensor::matmul_into(
                black_box(a.data()),
                black_box(b.data()),
                &mut c,
                m,
                k,
                n,
            );
            black_box(&c);
        }
        calls += 16;
    }
    2.0 * (m * k * n) as f64 * calls as f64 / t0.elapsed().as_nanos() as f64
}

/// Mean µs of one `pool::run_tasks` dispatch of two trivial tasks.
pub fn pool_dispatch_us(budget: Duration) -> f64 {
    let (mut calls, t0) = (0u64, Instant::now());
    while t0.elapsed() < budget {
        for _ in 0..64 {
            nt_tensor::pool::run_tasks(2, |i| {
                black_box(i);
            });
        }
        calls += 64;
    }
    t0.elapsed().as_nanos() as f64 / calls as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(group: usize, ctx: usize, rows: usize) -> Call {
        Call::Plan { group, at: Instant::now(), ns: 1, rows, ctx, reanchor: ctx == 0 }
    }

    fn settle(group: usize, rollback: Option<(usize, usize)>) -> Call {
        Call::Settle { group, at: Instant::now(), ns: 1, rollback }
    }

    #[test]
    fn calls_rebuild_per_shard_same_group_batches_and_rollbacks() {
        // Shard A: ABR, ABR, CJS (with a rollback); shard B: VP.
        let calls = [
            plan(0, 10, 3),
            plan(0, 0, 12),
            plan(1, 20, 5),
            settle(0, None),
            settle(0, None),
            settle(1, Some((4, 1))),
            plan(2, 0, 30),
            settle(2, None),
        ];
        assert_eq!(
            batches(&calls),
            vec![
                Batch { group: 0, slots: vec![(10, 3), (0, 12)] },
                Batch { group: 1, slots: vec![(20, 5)] },
                Batch { group: 1, slots: vec![(21, 1)] },
                Batch { group: 2, slots: vec![(0, 30)] },
            ]
        );
    }

    #[test]
    fn flops_follow_shapes() {
        // One row, empty cache, one layer: 24·d² + 4·d·1.
        assert_eq!(append_flops(1, 48, 0, 1), 24.0 * 48.0 * 48.0 + 4.0 * 48.0);
        // Attention grows with the cache; projections do not.
        let short = append_flops(2, 48, 0, 6);
        let long = append_flops(2, 48, 100, 6);
        assert_eq!(long - short, 2.0 * 4.0 * 48.0 * 600.0);
    }
}
