//! The shared inference engine behind every adapter (tentpole of the
//! "one backbone inference per answer" claim, §4.2).
//!
//! An [`InferenceSession`] owns the backbone's [`KvCache`] and the running
//! multimodal-token prefix: adapters append only the *new* token embeddings
//! of each environment step and read back hidden states for exactly those
//! rows, instead of re-encoding their entire prompt every step on the
//! gradient tape. Rollout inference therefore costs `O(new x total)`
//! attention per step rather than `O(total^2)`, with zero tape or
//! parameter-clone overhead (the graph-free eval path of `nt-nn`).
//!
//! Sessions grow until the backbone's context is full — or, in the
//! decision-transformer adapters, until the visible history reaches twice
//! the training window — then re-anchor: the caller rebuilds from its most
//! recent window of steps. Between re-anchors a model may therefore
//! condition on up to `2x` the history it was adapted on — a documented,
//! bounded deviation from the fixed-window seed behaviour (the
//! conditioning is unchanged; exact fixed-window semantics would force a
//! full re-encode every step, because sliding the window shifts every
//! token's absolute position).

use nt_llm::{KvCache, PagePool, TinyLm};
use nt_nn::ParamStore;
use nt_tensor::Tensor;

/// A cached inference session over a [`TinyLm`] backbone.
pub struct InferenceSession {
    cache: KvCache,
    max_tokens: usize,
}

impl InferenceSession {
    /// Fresh session shaped for `lm`, capped at the backbone's context.
    pub fn new(lm: &TinyLm) -> Self {
        InferenceSession { cache: KvCache::new(lm), max_tokens: lm.cfg.max_seq }
    }

    /// Fresh session whose KV cache draws fixed-size pages from `pool`:
    /// appends reserve pages, truncate/clear/drop return them, so the
    /// session can never grow past what the pool budget affords.
    pub fn paged(lm: &TinyLm, pool: &PagePool) -> Self {
        InferenceSession { cache: KvCache::new_paged(lm, pool), max_tokens: lm.cfg.max_seq }
    }

    /// Whether this session's KV cache draws from `pool` (`None`:
    /// contiguous).
    pub(crate) fn draws_from(&self, pool: Option<&PagePool>) -> bool {
        match (self.cache.pool(), pool) {
            (None, None) => true,
            (Some(mine), Some(other)) => mine.same_pool(other),
            _ => false,
        }
    }

    /// Pool pages held by this session's cache (0 when contiguous).
    pub fn pages_held(&self) -> usize {
        self.cache.pages_held()
    }

    /// Pages this session would have to allocate to append `rows` more
    /// token positions (0 when contiguous).
    pub fn pages_needed(&self, rows: usize) -> usize {
        self.cache.pages_needed(rows)
    }

    /// Number of token positions currently cached.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Context capacity in tokens.
    pub fn max_tokens(&self) -> usize {
        self.max_tokens
    }

    /// Whether `n` more tokens fit without re-anchoring.
    pub fn fits(&self, n: usize) -> bool {
        self.len() + n <= self.max_tokens
    }

    /// Forget the whole prefix (episode reset or re-anchor).
    pub fn clear(&mut self) {
        self.cache.clear();
    }

    /// Roll the prefix back to `len` tokens (e.g. discard candidate tokens
    /// that are not part of the persistent history).
    pub fn truncate(&mut self, len: usize) {
        self.cache.truncate(len);
    }

    /// Append token embeddings `[n, d_model]`, returning the backbone's
    /// hidden states `[n, d_model]` for the new rows only.
    pub fn append(&mut self, lm: &TinyLm, store: &ParamStore, emb: &Tensor) -> Tensor {
        lm.forward_embeddings_cached(store, emb, &mut self.cache)
    }

    /// Bytes held by the cached keys/values.
    pub fn cache_bytes(&self) -> usize {
        self.cache.bytes()
    }
}

/// Append token embeddings to many sessions in one batched backbone
/// forward: `emb` stacks each session's new rows (`[N, d_model]`, grouped
/// per `rows_per_slot`, ragged counts allowed), and the result is the
/// hidden states `[N, d_model]` in the same order. Equivalent to calling
/// [`InferenceSession::append`] per session, but the projections and MLPs
/// run as single stacked GEMMs across every session — the serving
/// engine's throughput lever.
pub fn append_batched(
    lm: &TinyLm,
    store: &ParamStore,
    sessions: &mut [&mut InferenceSession],
    emb: &Tensor,
    rows_per_slot: &[usize],
) -> Tensor {
    for (sess, &n) in sessions.iter().zip(rows_per_slot) {
        assert!(sess.fits(n), "session of {} cannot take {} more tokens", sess.len(), n);
    }
    let mut caches: Vec<&mut KvCache> = sessions.iter_mut().map(|s| &mut s.cache).collect();
    lm.forward_embeddings_cached_batched(store, emb, rows_per_slot, &mut caches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_llm::{size_spec, Zoo};
    use nt_nn::Fwd;
    use nt_tensor::Rng;

    #[test]
    fn session_matches_one_shot_embeddings_forward() {
        let loaded = Zoo::new(std::env::temp_dir().join("netllm-session-test"))
            .build_random(&size_spec("0.35b-sim"));
        let mut rng = Rng::seeded(1);
        let d = loaded.lm.cfg.d_model;
        let emb = Tensor::randn([9, d], 0.5, &mut rng);

        let mut f = Fwd::eval();
        let e = f.input(emb.clone());
        let full_node = loaded.lm.forward_embeddings(&mut f, &loaded.store, e);
        let full = f.g.value(full_node).clone();

        let mut sess = InferenceSession::new(&loaded.lm);
        let a = sess.append(&loaded.lm, &loaded.store, &emb.narrow(0, 0, 3));
        let b = sess.append(&loaded.lm, &loaded.store, &emb.narrow(0, 3, 6));
        assert_eq!(sess.len(), 9);
        let cached = nt_tensor::concat(&[&a, &b], 0);
        for (x, y) in full.data().iter().zip(cached.data()) {
            assert!((x - y).abs() < 1e-5, "session forward diverged: {x} vs {y}");
        }
    }

    #[test]
    fn truncate_then_reappend_is_consistent() {
        let loaded = Zoo::new(std::env::temp_dir().join("netllm-session-test2"))
            .build_random(&size_spec("0.35b-sim"));
        let mut rng = Rng::seeded(2);
        let d = loaded.lm.cfg.d_model;
        let prefix = Tensor::randn([4, d], 0.5, &mut rng);
        let cands = Tensor::randn([3, d], 0.5, &mut rng);
        let action = Tensor::randn([1, d], 0.5, &mut rng);

        // prefix + candidates, roll candidates back, then the action token.
        let mut sess = InferenceSession::new(&loaded.lm);
        sess.append(&loaded.lm, &loaded.store, &prefix);
        sess.append(&loaded.lm, &loaded.store, &cands);
        sess.truncate(4);
        let h_inc = sess.append(&loaded.lm, &loaded.store, &action);

        // Reference: prefix + action in one fresh session.
        let mut fresh = InferenceSession::new(&loaded.lm);
        fresh.append(&loaded.lm, &loaded.store, &prefix);
        let h_ref = fresh.append(&loaded.lm, &loaded.store, &action);
        for (x, y) in h_inc.data().iter().zip(h_ref.data()) {
            assert!((x - y).abs() < 1e-5, "rollback diverged: {x} vs {y}");
        }
    }
}
