//! The decoder-only Transformer backbone ("TinyLM").
//!
//! This is the stand-in for Llama2/OPT/Mistral in the reproduction: a causal
//! Transformer with learned positional embeddings, an LM head for the token
//! pathway, and two extra entry points NetLLM needs:
//!
//! - [`TinyLm::forward_embeddings`] — run the backbone over *pre-embedded*
//!   inputs (the multimodal encoder's token-like embeddings), returning
//!   hidden states for the networking head;
//! - [`TinyLm::attach_lora`] — freeze the backbone and attach low-rank
//!   adapters to every projection, the DD-LRNA parameter budget.
//!
//! Generation decodes incrementally against a [`KvCache`]: each emitted
//! token appends one position per layer instead of re-running the whole
//! sequence, and [`DecodeSession`] reuses the longest shared prefix across
//! calls. The per-answer *inference count* of the Figure 2 latency account
//! is unchanged — token decoding still costs one backbone inference per
//! token, each inference is just no longer quadratic in the prompt. The
//! uncached [`TinyLm::next_token_logits`] is kept as the reference path;
//! `nt-bench`'s `latency` bench and the logits-equivalence tests compare
//! the two.

use crate::paged::PagePool;
use crate::tokenizer::EOS;
use nt_nn::{
    AttnKv, Embedding, Fwd, Init, KvStorage, LayerNorm, Linear, PagedAttnKv, ParamStore,
    TransformerBlock,
};
use nt_tensor::{NodeId, Rng, Tensor};
use serde::{Deserialize, Serialize};

/// Architecture hyper-parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LmConfig {
    pub vocab: usize,
    pub d_model: usize,
    pub n_layers: usize,
    pub n_heads: usize,
    pub mlp_mult: usize,
    pub max_seq: usize,
    pub dropout: f32,
}

impl LmConfig {
    /// The default backbone used when none is specified (the "Llama2-7B" of
    /// the reproduction). `max_seq` leaves room for the prompt-learning
    /// templates of the Figure 2 comparison (position table only; attention
    /// cost scales with actual sequence length).
    pub fn base(vocab: usize) -> Self {
        LmConfig {
            vocab,
            d_model: 48,
            n_layers: 2,
            n_heads: 4,
            mlp_mult: 4,
            max_seq: 160,
            dropout: 0.0,
        }
    }
}

/// Decoder-only causal Transformer with LM head.
pub struct TinyLm {
    pub cfg: LmConfig,
    pub tok_emb: Embedding,
    pub pos_emb: Embedding,
    pub blocks: Vec<TransformerBlock>,
    pub ln_f: LayerNorm,
    pub lm_head: Linear,
}

/// Where a [`KvCache`]'s rows live: one contiguous buffer per layer (the
/// reference layout) or page tables over a shared [`PagePool`] (the
/// memory-bounded layout). The attention kernels are generic over
/// [`KvStorage`], so the two backings are bit-identical — only allocation
/// granularity differs.
enum KvBacking {
    Contig(Vec<AttnKv>),
    Paged { layers: Vec<PagedAttnKv>, pool: PagePool },
}

/// Per-layer key/value cache for incremental decoding. Filling position `t`
/// costs `O(t)` attention instead of the `O(t^2)` of a full re-forward, and
/// the cache is the *only* state the incremental path carries — weights stay
/// in the [`ParamStore`] untouched.
///
/// Two backings share every code path: the default contiguous buffers grow
/// unboundedly (until a re-anchor clears them), while [`KvCache::new_paged`]
/// draws fixed-size pages from a [`PagePool`] — appends reserve pages,
/// truncate/clear/drop return them, so total KV across every paged session
/// is hard-bounded by the pool budget.
pub struct KvCache {
    backing: KvBacking,
}

impl KvCache {
    /// Empty cache shaped for `lm` (contiguous per-layer buffers).
    pub fn new(lm: &TinyLm) -> Self {
        KvCache {
            backing: KvBacking::Contig(
                (0..lm.cfg.n_layers).map(|_| AttnKv::empty(lm.cfg.d_model)).collect(),
            ),
        }
    }

    /// Empty cache shaped for `lm`, backed by pages from `pool`. Appends
    /// allocate pages ([`KvCache::reserve`] runs inside the forward
    /// paths); truncate, clear and drop return them.
    pub fn new_paged(lm: &TinyLm, pool: &PagePool) -> Self {
        assert_eq!(
            pool.dim(),
            lm.cfg.d_model,
            "page pool sized for dim {} cannot back a dim-{} model",
            pool.dim(),
            lm.cfg.d_model
        );
        KvCache {
            backing: KvBacking::Paged {
                layers: (0..lm.cfg.n_layers)
                    .map(|_| PagedAttnKv::new(pool.page_tokens(), lm.cfg.d_model))
                    .collect(),
                pool: pool.clone(),
            },
        }
    }

    /// Whether this cache draws from a [`PagePool`].
    pub fn is_paged(&self) -> bool {
        matches!(self.backing, KvBacking::Paged { .. })
    }

    /// The pool a paged cache draws from.
    pub fn pool(&self) -> Option<&PagePool> {
        match &self.backing {
            KvBacking::Paged { pool, .. } => Some(pool),
            KvBacking::Contig(_) => None,
        }
    }

    /// Number of cached positions.
    pub fn len(&self) -> usize {
        match &self.backing {
            KvBacking::Contig(layers) => layers.first().map_or(0, AttnKv::len),
            KvBacking::Paged { layers, .. } => layers.first().map_or(0, KvStorage::len),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forget everything (a paged cache returns every page to the pool).
    pub fn clear(&mut self) {
        self.truncate(0);
    }

    /// Roll back to the first `len` positions (prefix reuse after a
    /// divergence or a speculative suffix). Pages the shorter prefix no
    /// longer touches go straight back to the pool.
    pub fn truncate(&mut self, len: usize) {
        match &mut self.backing {
            KvBacking::Contig(layers) => {
                for kv in layers {
                    kv.truncate(len);
                }
            }
            KvBacking::Paged { layers, pool } => {
                for kv in layers {
                    kv.truncate(len);
                    pool.release_pages(kv.release_unused());
                }
            }
        }
    }

    /// Bytes held by cached keys/values across all layers. Paged caches
    /// charge whole pages (including a partially-filled tail page) — the
    /// honest number a memory budget accounts for.
    pub fn bytes(&self) -> usize {
        match &self.backing {
            KvBacking::Contig(layers) => layers.iter().map(AttnKv::bytes).sum(),
            KvBacking::Paged { layers, .. } => layers.iter().map(PagedAttnKv::bytes).sum(),
        }
    }

    /// Pages held across all layers (0 for a contiguous cache).
    pub fn pages_held(&self) -> usize {
        match &self.backing {
            KvBacking::Contig(_) => 0,
            KvBacking::Paged { layers, .. } => layers.iter().map(PagedAttnKv::pages_held).sum(),
        }
    }

    /// Pages a paged cache would have to allocate to append `rows` more
    /// positions (0 for contiguous caches).
    pub fn pages_needed(&self, rows: usize) -> usize {
        match &self.backing {
            KvBacking::Contig(_) => 0,
            KvBacking::Paged { layers, pool } => {
                let want = pool.pages_for(self.len() + rows);
                layers.iter().map(|l| want.saturating_sub(l.pages_held())).sum()
            }
        }
    }

    /// Ensure capacity for `rows` more positions, allocating pages from
    /// the pool for a paged cache (all layers, all-or-nothing). Returns
    /// `false` — taking nothing — when the pool cannot supply them; the
    /// caller must evict, defer, or fail. Contiguous caches always
    /// succeed (they grow their buffers lazily).
    pub fn try_reserve(&mut self, rows: usize) -> bool {
        let need = self.pages_needed(rows);
        if need == 0 {
            return true;
        }
        let KvBacking::Paged { layers, pool } = &mut self.backing else { return true };
        let want = pool.pages_for(KvStorage::len(&layers[0]) + rows);
        let Some(mut pages) = pool.alloc_pages(need) else { return false };
        for layer in layers {
            while layer.pages_held() < want {
                layer.push_page(pages.pop().expect("allocation covered every layer"));
            }
        }
        true
    }

    /// [`KvCache::try_reserve`] that panics when the pool is exhausted —
    /// the forward paths call this; serving layers keep it from firing by
    /// evicting or deferring ahead of the step.
    pub fn reserve(&mut self, rows: usize) {
        if !self.try_reserve(rows) {
            let pool = self.pool().expect("only paged caches can exhaust");
            panic!(
                "KV page pool exhausted: need {} pages for {rows} more rows, {} free of {} \
                 (raise the budget, evict sessions, or defer admission)",
                self.pages_needed(rows),
                pool.free_pages(),
                pool.capacity_pages()
            );
        }
    }
}

impl Drop for KvCache {
    /// A dropped paged cache returns every page — leave/recycle can never
    /// leak pool capacity.
    fn drop(&mut self) {
        if let KvBacking::Paged { layers, pool } = &mut self.backing {
            for l in layers {
                l.truncate(0);
                pool.release_pages(l.release_unused());
            }
        }
    }
}

/// A token-pathway decode session: the cache plus the ids it was built
/// from, so repeated [`TinyLm::next_token_logits_cached`] calls reuse the
/// longest shared prefix automatically.
pub struct DecodeSession {
    cache: KvCache,
    ids: Vec<usize>,
}

impl DecodeSession {
    /// Ids currently materialised in the cache.
    pub fn ids(&self) -> &[usize] {
        &self.ids
    }
}

/// A slot registry with stable ids: the bookkeeping every batched server
/// needs — smallest-free-id admission, removal that never disturbs other
/// slots, and distinct `&mut` extraction for a batch of ids. Shared by
/// [`BatchedDecodeSession`] (token pathway) and `nt-netllm`'s
/// `ServingEngine` (adapter rollouts).
pub struct SlotMap<T> {
    slots: Vec<Option<T>>,
}

impl<T> Default for SlotMap<T> {
    fn default() -> Self {
        SlotMap { slots: Vec::new() }
    }
}

impl<T> SlotMap<T> {
    /// Empty registry.
    pub fn new() -> Self {
        SlotMap { slots: Vec::new() }
    }

    /// Insert, returning the stable id (smallest free, recycled after
    /// [`SlotMap::remove`]).
    pub fn insert(&mut self, value: T) -> usize {
        match self.slots.iter().position(Option::is_none) {
            Some(i) => {
                self.slots[i] = Some(value);
                i
            }
            None => {
                self.slots.push(Some(value));
                self.slots.len() - 1
            }
        }
    }

    /// Remove a slot, freeing its id. Panics when the id is not live.
    pub fn remove(&mut self, id: usize) -> T {
        self.slots[id].take().unwrap_or_else(|| panic!("slot {id} is not live"))
    }

    /// Live slot count.
    pub fn active(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Shared access to a live slot (panics otherwise).
    pub fn get(&self, id: usize) -> &T {
        self.slots.get(id).and_then(Option::as_ref).expect("slot not live")
    }

    /// Exclusive access to a live slot (panics otherwise).
    pub fn get_mut(&mut self, id: usize) -> &mut T {
        self.slots.get_mut(id).and_then(Option::as_mut).expect("slot not live")
    }

    /// Iterate over live slots.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }

    /// Iterate over live slots with their stable ids — the enumeration an
    /// eviction policy walks to pick a victim (coldest, heaviest, …).
    pub fn iter_entries(&self) -> impl Iterator<Item = (usize, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| s.as_ref().map(|v| (i, v)))
    }

    /// Distinct `&mut` per requested id, in request order. Panics when an
    /// id is not live or appears twice — the invariant a batched step
    /// relies on.
    pub fn get_distinct_mut(&mut self, ids: impl Iterator<Item = usize>) -> Vec<&mut T> {
        let mut by_id: Vec<Option<&mut T>> = self.slots.iter_mut().map(|o| o.as_mut()).collect();
        ids.map(|id| {
            by_id
                .get_mut(id)
                .and_then(Option::take)
                .unwrap_or_else(|| panic!("slot {id} not live (or duplicated in batch)"))
        })
        .collect()
    }
}

/// One sequence inside a [`BatchedDecodeSession`].
struct BatchSlot {
    cache: KvCache,
    ids: Vec<usize>,
}

/// Many independent decode sessions that advance through the backbone
/// *together*: each batched call runs the projections and MLPs as single
/// stacked GEMMs over every sequence's new tokens, while each slot keeps
/// its own ragged-length KV cache and prefix-reuse bookkeeping.
///
/// Slots join and leave at any time without disturbing the others — a
/// slot id stays stable for the slot's lifetime and is recycled only
/// after `leave`.
#[derive(Default)]
pub struct BatchedDecodeSession {
    slots: SlotMap<BatchSlot>,
}

impl BatchedDecodeSession {
    /// Empty session (slots join later).
    pub fn new() -> Self {
        BatchedDecodeSession { slots: SlotMap::new() }
    }

    /// Add a fresh sequence; returns its stable slot id (smallest free).
    pub fn join(&mut self, lm: &TinyLm) -> usize {
        self.slots.insert(BatchSlot { cache: KvCache::new(lm), ids: Vec::new() })
    }

    /// Add a fresh sequence whose KV cache draws pages from `pool`;
    /// appends reserve pages, truncate and leave return them. Paged and
    /// contiguous slots cannot share one batched call (the whole batch
    /// must use one backing).
    pub fn join_paged(&mut self, lm: &TinyLm, pool: &PagePool) -> usize {
        self.slots.insert(BatchSlot { cache: KvCache::new_paged(lm, pool), ids: Vec::new() })
    }

    /// Drop a sequence, freeing its cache and recycling its id. Other
    /// slots are untouched.
    pub fn leave(&mut self, slot: usize) {
        let _ = self.slots.remove(slot);
    }

    /// Number of active sequences.
    pub fn active(&self) -> usize {
        self.slots.active()
    }

    /// Ids currently materialised in `slot`'s cache.
    pub fn ids(&self, slot: usize) -> &[usize] {
        &self.slots.get(slot).ids
    }

    /// Cached positions in `slot`.
    pub fn len(&self, slot: usize) -> usize {
        self.slots.get(slot).cache.len()
    }

    /// Roll `slot` back to its first `len` tokens, dropping the cached
    /// suffix (candidate or speculative tokens that must not become part
    /// of the persistent history). The next batched call re-decodes from
    /// the kept prefix; other slots are untouched.
    pub fn truncate(&mut self, slot: usize, len: usize) {
        let s = self.slots.get_mut(slot);
        assert!(len <= s.ids.len(), "cannot truncate slot {slot} of {} to {len}", s.ids.len());
        s.cache.truncate(len);
        s.ids.truncate(len);
    }

    /// True when no slot is active.
    pub fn is_empty(&self) -> bool {
        self.active() == 0
    }

    /// Bytes held by every active slot's KV cache.
    pub fn bytes(&self) -> usize {
        self.slots.iter().map(|s| s.cache.bytes()).sum()
    }

    /// Bytes held by one slot's KV cache — the per-slot accounting a
    /// cache-aware admission/eviction policy steers on.
    pub fn bytes_of(&self, slot: usize) -> usize {
        self.slots.get(slot).cache.bytes()
    }

    /// The slot holding the most KV bytes, `(slot, bytes)` — the victim a
    /// memory-pressure eviction hook picks when a budget is crossed.
    pub fn heaviest(&self) -> Option<(usize, usize)> {
        self.slots
            .iter_entries()
            .map(|(i, s)| (i, s.cache.bytes()))
            .max_by_key(|&(i, b)| (b, usize::MAX - i))
    }

    /// Pool pages held across every active slot (0 when the session is
    /// contiguous) — the allocator-invariant view the paging proptests
    /// reconcile against the pool's own accounting.
    pub fn pages_held(&self) -> usize {
        self.slots.iter().map(|s| s.cache.pages_held()).sum()
    }

    /// Pages held by one slot's cache.
    pub fn pages_of(&self, slot: usize) -> usize {
        self.slots.get(slot).cache.pages_held()
    }
}

impl TinyLm {
    /// Build with fresh random weights. All parameters are prefixed `llm.`
    /// so they can be frozen as a group.
    pub fn new(store: &mut ParamStore, cfg: LmConfig, rng: &mut Rng) -> Self {
        let tok_emb = Embedding::new(store, "llm.tok", cfg.vocab, cfg.d_model, rng);
        let pos_emb = Embedding::new(store, "llm.pos", cfg.max_seq, cfg.d_model, rng);
        let blocks = (0..cfg.n_layers)
            .map(|l| {
                TransformerBlock::new(
                    store,
                    &format!("llm.block{l}"),
                    cfg.d_model,
                    cfg.n_heads,
                    cfg.mlp_mult,
                    cfg.dropout,
                    rng,
                )
            })
            .collect();
        let ln_f = LayerNorm::new(store, "llm.ln_f", cfg.d_model);
        let lm_head =
            Linear::new(store, "llm.lm_head", cfg.d_model, cfg.vocab, false, Init::Xavier, rng);
        TinyLm { cfg, tok_emb, pos_emb, blocks, ln_f, lm_head }
    }

    /// Freeze the whole backbone (pre-trained knowledge is preserved) and
    /// attach rank-`r` LoRA adapters to every attention and MLP projection.
    /// Returns the number of trainable adapter parameters added.
    pub fn attach_lora(
        &mut self,
        store: &mut ParamStore,
        r: usize,
        alpha: f32,
        rng: &mut Rng,
    ) -> usize {
        store.freeze_prefix("llm.");
        let before = store.num_trainable();
        for blk in &mut self.blocks {
            for lin in blk.attn.projections_mut() {
                lin.attach_lora(store, r, alpha, rng);
            }
            blk.mlp.up.attach_lora(store, r, alpha, rng);
            blk.mlp.down.attach_lora(store, r, alpha, rng);
        }
        store.num_trainable() - before
    }

    /// Remove all adapters (the "no domain knowledge" ablation of Fig 13).
    pub fn detach_lora(&mut self) {
        for blk in &mut self.blocks {
            for lin in blk.attn.projections_mut() {
                lin.detach_lora();
            }
            blk.mlp.up.detach_lora();
            blk.mlp.down.detach_lora();
        }
    }

    /// Backbone over token ids -> hidden states `[t, d_model]`.
    pub fn forward_hidden(&self, f: &mut Fwd, store: &ParamStore, ids: &[usize]) -> NodeId {
        assert!(!ids.is_empty(), "empty input sequence");
        assert!(
            ids.len() <= self.cfg.max_seq,
            "sequence {} exceeds max_seq {}",
            ids.len(),
            self.cfg.max_seq
        );
        let emb = self.tok_emb.forward(f, store, ids);
        self.backbone(f, store, emb, ids.len())
    }

    /// Backbone over already-embedded inputs `[t, d_model]` (the NetLLM
    /// multimodal pathway).
    pub fn forward_embeddings(&self, f: &mut Fwd, store: &ParamStore, emb: NodeId) -> NodeId {
        let t = f.g.value(emb).shape()[0];
        assert!(t <= self.cfg.max_seq, "sequence {t} exceeds max_seq {}", self.cfg.max_seq);
        self.backbone(f, store, emb, t)
    }

    fn backbone(&self, f: &mut Fwd, store: &ParamStore, emb: NodeId, t: usize) -> NodeId {
        let pos: Vec<usize> = (0..t).collect();
        let p = self.pos_emb.forward(f, store, &pos);
        let mut x = f.g.add(emb, p);
        for blk in &self.blocks {
            x = blk.forward(f, store, x, true);
        }
        self.ln_f.forward(f, store, x)
    }

    /// Token logits `[t, vocab]`.
    pub fn forward_logits(&self, f: &mut Fwd, store: &ParamStore, ids: &[usize]) -> NodeId {
        let h = self.forward_hidden(f, store, ids);
        self.lm_head.forward(f, store, h)
    }

    /// Next-token logits for the last position only, by full re-forward on
    /// a no-tape graph. This is the uncached reference path; production
    /// decoding goes through [`TinyLm::next_token_logits_cached`]. Running
    /// it no-tape keeps the cached-vs-uncached benches an apples-to-apples
    /// comparison of incremental decode, not of tape bookkeeping.
    pub fn next_token_logits(&self, store: &ParamStore, ids: &[usize]) -> Tensor {
        let mut f = Fwd::eval_no_tape();
        let h = self.forward_hidden(&mut f, store, ids);
        let t = f.g.value(h).shape()[0];
        let last = f.g.narrow(h, 0, t - 1, 1);
        let logits = self.lm_head.forward(&mut f, store, last);
        f.g.value(logits).clone()
    }

    /// Incremental backbone forward over *pre-embedded* new rows, extending
    /// `cache`. The first new row occupies absolute position `cache.len()`.
    /// Returns hidden states `[t_new, d_model]` for the new rows only.
    pub fn forward_embeddings_cached(
        &self,
        store: &ParamStore,
        emb_new: &Tensor,
        cache: &mut KvCache,
    ) -> Tensor {
        let t_new = emb_new.shape()[0];
        assert!(t_new > 0, "empty incremental input");
        let start = cache.len();
        assert!(
            start + t_new <= self.cfg.max_seq,
            "cache {} + new {} exceeds max_seq {}",
            start,
            t_new,
            self.cfg.max_seq
        );
        let pos: Vec<usize> = (start..start + t_new).collect();
        let p = self.pos_emb.eval(store, &pos);
        let mut x = emb_new.add(&p);
        cache.reserve(t_new);
        match &mut cache.backing {
            KvBacking::Contig(layers) => {
                for (blk, kv) in self.blocks.iter().zip(layers) {
                    x = blk.eval_cached(store, &x, kv);
                }
            }
            KvBacking::Paged { layers, .. } => {
                for (blk, kv) in self.blocks.iter().zip(layers) {
                    x = blk.eval_cached(store, &x, kv);
                }
            }
        }
        self.ln_f.eval(store, &x)
    }

    /// Batched incremental backbone forward over pre-embedded new rows of
    /// many independent sequences. `emb_new` stacks every slot's new rows
    /// (`[N, d_model]`, grouped per `rows_per_slot`); `caches[s]` holds
    /// slot `s`'s KV state and may sit at any prefix length (ragged).
    /// Returns hidden states `[N, d_model]` for the new rows only, in the
    /// same slot order.
    ///
    /// The projections, MLPs and layer-norms run as single stacked passes
    /// over all `N` rows — one GEMM instead of one per sequence — which is
    /// where batched serving earns its throughput.
    pub fn forward_embeddings_cached_batched(
        &self,
        store: &ParamStore,
        emb_new: &Tensor,
        rows_per_slot: &[usize],
        caches: &mut [&mut KvCache],
    ) -> Tensor {
        let total = emb_new.shape()[0];
        assert_eq!(rows_per_slot.len(), caches.len(), "one row count per cache");
        assert_eq!(rows_per_slot.iter().sum::<usize>(), total, "row counts must cover emb_new");
        assert!(total > 0, "empty batched input");
        // Ragged positions: each slot's rows continue from its own prefix.
        let mut pos = Vec::with_capacity(total);
        for (cache, &n) in caches.iter().zip(rows_per_slot) {
            let start = cache.len();
            assert!(
                start + n <= self.cfg.max_seq,
                "slot cache {} + new {} exceeds max_seq {}",
                start,
                n,
                self.cfg.max_seq
            );
            pos.extend(start..start + n);
        }
        let p = self.pos_emb.eval(store, &pos);
        let mut x = emb_new.add(&p);
        for (cache, &n) in caches.iter_mut().zip(rows_per_slot) {
            cache.reserve(n);
        }
        // The backing must be uniform across the batch: the stacked
        // attention pass runs one monomorphized kernel per layer.
        let paged = caches.first().is_some_and(|c| c.is_paged());
        assert!(
            caches.iter().all(|c| c.is_paged() == paged),
            "a batched step cannot mix paged and contiguous KV caches"
        );
        for (l, blk) in self.blocks.iter().enumerate() {
            x = if paged {
                let mut kvs: Vec<&mut PagedAttnKv> = caches
                    .iter_mut()
                    .map(|c| match &mut c.backing {
                        KvBacking::Paged { layers, .. } => &mut layers[l],
                        KvBacking::Contig(_) => unreachable!("uniform backing asserted above"),
                    })
                    .collect();
                blk.eval_cached_batched(store, &x, rows_per_slot, &mut kvs)
            } else {
                let mut kvs: Vec<&mut AttnKv> = caches
                    .iter_mut()
                    .map(|c| match &mut c.backing {
                        KvBacking::Contig(layers) => &mut layers[l],
                        KvBacking::Paged { .. } => unreachable!("uniform backing asserted above"),
                    })
                    .collect();
                blk.eval_cached_batched(store, &x, rows_per_slot, &mut kvs)
            };
        }
        self.ln_f.eval(store, &x)
    }

    /// Start an empty batched decode session (sequences join later).
    pub fn start_batched_session(&self) -> BatchedDecodeSession {
        BatchedDecodeSession::new()
    }

    /// Batched analogue of [`TinyLm::next_token_logits_cached`]: one
    /// `(slot, ids)` request per sequence (slots must be distinct and
    /// active). Each slot reuses its longest shared prefix independently,
    /// then every slot's unseen tokens go through the backbone in one
    /// batched forward. Returns `[B, vocab]` next-token logits in request
    /// order; equivalent to B separate cached calls within 1e-5 (tested,
    /// including ragged prefixes and divergence rollbacks).
    pub fn next_token_logits_batched(
        &self,
        store: &ParamStore,
        requests: &[(usize, &[usize])],
        session: &mut BatchedDecodeSession,
    ) -> Tensor {
        assert!(!requests.is_empty(), "empty request batch");
        for &(sid, ids) in requests {
            assert!(!ids.is_empty(), "empty input sequence for slot {sid}");
        }
        // Pull a distinct &mut slot per request, in request order.
        let mut picked = session.slots.get_distinct_mut(requests.iter().map(|&(sid, _)| sid));
        // Per-slot prefix reuse, identical to the single-session path.
        let mut rows_per_slot = Vec::with_capacity(requests.len());
        let mut new_ids = Vec::new();
        for (slot, &(_, ids)) in picked.iter_mut().zip(requests) {
            let mut shared = slot.ids.iter().zip(ids).take_while(|(a, b)| a == b).count();
            shared = shared.min(ids.len() - 1);
            slot.cache.truncate(shared);
            slot.ids.truncate(shared);
            rows_per_slot.push(ids.len() - shared);
            new_ids.extend_from_slice(&ids[shared..]);
            slot.ids.extend_from_slice(&ids[shared..]);
        }
        let emb = self.tok_emb.eval(store, &new_ids);
        let mut caches: Vec<&mut KvCache> = picked.iter_mut().map(|s| &mut s.cache).collect();
        let hidden =
            self.forward_embeddings_cached_batched(store, &emb, &rows_per_slot, &mut caches);
        // Last new row of each slot carries its next-token hidden state.
        let mut last_rows = Vec::with_capacity(requests.len());
        let mut row = 0usize;
        for &n in &rows_per_slot {
            row += n;
            last_rows.push(row - 1);
        }
        let gathered = hidden.gather_rows(&last_rows); // [B, d]
        self.lm_head.eval(store, &gathered)
    }

    /// Incremental forward over new token ids (embeds then defers to
    /// [`TinyLm::forward_embeddings_cached`]).
    pub fn forward_hidden_cached(
        &self,
        store: &ParamStore,
        new_ids: &[usize],
        cache: &mut KvCache,
    ) -> Tensor {
        let emb = self.tok_emb.eval(store, new_ids);
        self.forward_embeddings_cached(store, &emb, cache)
    }

    /// Start an empty decode session.
    pub fn start_session(&self) -> DecodeSession {
        DecodeSession { cache: KvCache::new(self), ids: Vec::new() }
    }

    /// Next-token logits for `ids`, reusing the session's cached prefix:
    /// only the tokens past the longest prefix shared with the previous call
    /// are pushed through the backbone. Equivalent to
    /// [`TinyLm::next_token_logits`] within float tolerance (tested), but
    /// `O(new x total)` instead of `O(total^2)` per call.
    pub fn next_token_logits_cached(
        &self,
        store: &ParamStore,
        ids: &[usize],
        session: &mut DecodeSession,
    ) -> Tensor {
        assert!(!ids.is_empty(), "empty input sequence");
        let mut shared = session.ids.iter().zip(ids).take_while(|(a, b)| a == b).count();
        // The hidden state of the last shared position is not cached as an
        // output, so always recompute at least the final token.
        shared = shared.min(ids.len() - 1);
        session.cache.truncate(shared);
        session.ids.truncate(shared);
        let hidden = self.forward_hidden_cached(store, &ids[shared..], &mut session.cache);
        session.ids.extend_from_slice(&ids[shared..]);
        let t_new = hidden.shape()[0];
        let last = hidden.narrow(0, t_new - 1, 1);
        self.lm_head.eval(store, &last)
    }

    /// Autoregressive sampling with KV-cached incremental decoding. Stops at
    /// EOS or `max_new` tokens. Returns the generated ids (prompt excluded)
    /// and the number of backbone inferences performed (= tokens generated;
    /// the Fig 2 latency account counts inferences, not their cost).
    pub fn generate(
        &self,
        store: &ParamStore,
        prompt: &[usize],
        max_new: usize,
        temperature: f32,
        rng: &mut Rng,
    ) -> (Vec<usize>, usize) {
        let mut session = self.start_session();
        let mut ids = prompt.to_vec();
        let mut out = Vec::new();
        let mut inferences = 0;
        for _ in 0..max_new {
            if ids.len() >= self.cfg.max_seq {
                break;
            }
            let logits = self.next_token_logits_cached(store, &ids, &mut session);
            inferences += 1;
            let next = sample_logits(logits.row(0), temperature, rng);
            if next == EOS {
                break;
            }
            ids.push(next);
            out.push(next);
        }
        (out, inferences)
    }

    /// Mean next-token cross-entropy of the model on a sequence (teacher
    /// forcing): predicts `ids[1..]` from `ids[..len-1]`.
    pub fn sequence_loss(&self, f: &mut Fwd, store: &ParamStore, ids: &[usize]) -> NodeId {
        assert!(ids.len() >= 2, "need at least 2 tokens");
        let inputs = &ids[..ids.len() - 1];
        let targets = &ids[1..];
        let logits = self.forward_logits(f, store, inputs);
        f.g.cross_entropy(logits, targets)
    }

    /// Total parameter count of the backbone + LM head.
    pub fn num_params(&self, store: &ParamStore) -> usize {
        store
            .ids()
            .filter(|&id| store.name(id).starts_with("llm."))
            .map(|id| store.data(id).numel())
            .sum()
    }
}

/// Temperature sampling over a logits row; temperature 0 is argmax.
pub fn sample_logits(logits: &[f32], temperature: f32, rng: &mut Rng) -> usize {
    if temperature <= 0.0 {
        let mut best = 0;
        for (i, &v) in logits.iter().enumerate() {
            if v > logits[best] {
                best = i;
            }
        }
        return best;
    }
    let mut scaled: Vec<f32> = logits.iter().map(|&x| x / temperature).collect();
    nt_tensor::tensor::softmax_in_place(&mut scaled);
    rng.categorical(&scaled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::Tokenizer;

    fn tiny(store: &mut ParamStore) -> TinyLm {
        let mut rng = Rng::seeded(1);
        let cfg = LmConfig {
            vocab: 16,
            d_model: 16,
            n_layers: 1,
            n_heads: 2,
            mlp_mult: 2,
            max_seq: 16,
            dropout: 0.0,
        };
        TinyLm::new(store, cfg, &mut rng)
    }

    #[test]
    fn hidden_and_logit_shapes() {
        let mut s = ParamStore::new();
        let lm = tiny(&mut s);
        let mut f = Fwd::eval();
        let h = lm.forward_hidden(&mut f, &s, &[1, 2, 3]);
        assert_eq!(f.g.value(h).shape(), &[3, 16]);
        let mut f2 = Fwd::eval();
        let l = lm.forward_logits(&mut f2, &s, &[1, 2, 3]);
        assert_eq!(f2.g.value(l).shape(), &[3, 16]);
    }

    #[test]
    fn embeddings_pathway_matches_token_pathway() {
        // forward_embeddings(tok_emb(ids)) == forward_hidden(ids)
        let mut s = ParamStore::new();
        let lm = tiny(&mut s);
        let ids = [4usize, 5, 6, 7];
        let mut f1 = Fwd::eval();
        let h1 = lm.forward_hidden(&mut f1, &s, &ids);
        let v1 = f1.g.value(h1).clone();
        let mut f2 = Fwd::eval();
        let emb = lm.tok_emb.forward(&mut f2, &s, &ids);
        let h2 = lm.forward_embeddings(&mut f2, &s, emb);
        let v2 = f2.g.value(h2).clone();
        for (a, b) in v1.data().iter().zip(v2.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn eviction_hooks_enumerate_slots_and_pick_the_heaviest() {
        let mut s = ParamStore::new();
        let lm = tiny(&mut s);
        let mut batched = BatchedDecodeSession::new();
        let a = batched.join(&lm);
        let b = batched.join(&lm);
        let c = batched.join(&lm);
        assert_eq!(batched.heaviest(), Some((0, 0)), "byte ties resolve to the lowest slot id");
        // Grow b's cache past a's; leave c empty.
        let _ = lm.next_token_logits_batched(
            &s,
            &[(a, &[1usize, 2][..]), (b, &[3, 4, 5, 6][..])],
            &mut batched,
        );
        assert_eq!(batched.bytes_of(c), 0);
        assert!(batched.bytes_of(b) > batched.bytes_of(a));
        let (slot, bytes) = batched.heaviest().expect("three live slots");
        assert_eq!((slot, bytes), (b, batched.bytes_of(b)));
        assert_eq!(
            batched.bytes_of(a) + batched.bytes_of(b) + batched.bytes_of(c),
            batched.bytes()
        );
        // iter_entries walks live slots with their stable ids.
        batched.leave(a);
        let ids: Vec<usize> = batched.slots.iter_entries().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![b, c]);
    }

    #[test]
    fn paged_batched_decode_is_bit_identical_to_contiguous() {
        // The same ragged batched decode through pool-backed slots must be
        // byte-for-byte the contiguous result, across appends, divergence
        // rollbacks and page-boundary crossings — and every page must be
        // back in the pool once the slots leave.
        use crate::paged::{PageConfig, PagePool};
        let mut s = ParamStore::new();
        let lm = tiny(&mut s);
        let pool = PagePool::for_model(&lm, PageConfig { page_tokens: 4, budget_bytes: 1 << 16 });
        let mut rng = Rng::seeded(41);
        let prompts: Vec<Vec<usize>> = [3usize, 7, 1, 5]
            .iter()
            .map(|&len| (0..len).map(|_| rng.below(16)).collect())
            .collect();

        let mut flat = lm.start_batched_session();
        let mut paged = lm.start_batched_session();
        let flat_slots: Vec<usize> = prompts.iter().map(|_| flat.join(&lm)).collect();
        let paged_slots: Vec<usize> =
            prompts.iter().map(|_| paged.join_paged(&lm, &pool)).collect();
        let mut seqs = prompts.clone();
        for step in 0..5 {
            let freqs: Vec<(usize, &[usize])> =
                flat_slots.iter().zip(&seqs).map(|(&sid, ids)| (sid, ids.as_slice())).collect();
            let preqs: Vec<(usize, &[usize])> =
                paged_slots.iter().zip(&seqs).map(|(&sid, ids)| (sid, ids.as_slice())).collect();
            let want = lm.next_token_logits_batched(&s, &freqs, &mut flat);
            let got = lm.next_token_logits_batched(&s, &preqs, &mut paged);
            assert_eq!(want.data(), got.data(), "step {step}: paged decode diverged");
            for (b, seq) in seqs.iter_mut().enumerate() {
                let next = want
                    .row(b)
                    .iter()
                    .enumerate()
                    .max_by(|a, c| a.1.partial_cmp(c.1).unwrap())
                    .unwrap()
                    .0;
                seq.push((next + b) % 16);
                if step == 2 && b == 1 {
                    // Divergence: rewrite the suffix so prefix-reuse
                    // truncates mid-page next step.
                    let keep = seq.len() / 2;
                    seq.truncate(keep.max(1));
                    seq.push((next + 7) % 16);
                }
            }
            // Pool accounting matches the slots' page tables at each step.
            assert_eq!(pool.used_pages(), paged.pages_held());
            assert!(pool.used_pages() + pool.free_pages() == pool.capacity_pages());
        }
        // Truncate releases whole pages; leave releases everything.
        paged.truncate(paged_slots[0], 1);
        assert_eq!(pool.used_pages(), paged.pages_held());
        for &slot in &paged_slots {
            paged.leave(slot);
        }
        assert_eq!(pool.used_pages(), 0, "leave must return every page");
    }

    #[test]
    fn cached_logits_match_full_forward_for_random_prompts() {
        // The KV-cached incremental path must reproduce the full re-forward
        // logits within 1e-5 at every prefix of random prompts.
        let mut s = ParamStore::new();
        let lm = tiny(&mut s);
        let mut rng = Rng::seeded(11);
        for trial in 0..5 {
            let len = 3 + rng.below(12);
            let ids: Vec<usize> = (0..len).map(|_| rng.below(16)).collect();
            let mut session = lm.start_session();
            for t in 1..=len {
                let cached = lm.next_token_logits_cached(&s, &ids[..t], &mut session);
                let full = lm.next_token_logits(&s, &ids[..t]);
                assert_eq!(cached.shape(), full.shape());
                for (a, b) in cached.data().iter().zip(full.data()) {
                    assert!(
                        (a - b).abs() < 1e-5,
                        "trial {trial}, prefix {t}: cached {a} vs full {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn cached_logits_match_full_forward_with_lora() {
        let mut s = ParamStore::new();
        let mut lm = tiny(&mut s);
        let mut rng = Rng::seeded(12);
        lm.attach_lora(&mut s, 2, 4.0, &mut rng);
        // Give the zero-initialised B matrices real values so the LoRA
        // branch contributes.
        let ids_all: Vec<usize> = s.ids().collect();
        for id in ids_all {
            if s.name(id).contains("lora_b") {
                let shape = s.data(id).shape().to_vec();
                *s.data_mut(id) = Tensor::randn(shape, 0.3, &mut rng);
            }
        }
        let ids = [1usize, 4, 9, 2, 7, 5];
        let mut session = lm.start_session();
        for t in 1..=ids.len() {
            let cached = lm.next_token_logits_cached(&s, &ids[..t], &mut session);
            let full = lm.next_token_logits(&s, &ids[..t]);
            for (a, b) in cached.data().iter().zip(full.data()) {
                assert!((a - b).abs() < 1e-5, "LoRA cached {a} vs full {b}");
            }
        }
    }

    #[test]
    fn session_reuses_prefix_and_recovers_from_divergence() {
        let mut s = ParamStore::new();
        let lm = tiny(&mut s);
        let a = [1usize, 4, 5, 6, 7, 8];
        let b = [1usize, 4, 5, 9, 3, 2]; // shares 3-token prefix with `a`
        let mut session = lm.start_session();
        let _ = lm.next_token_logits_cached(&s, &a, &mut session);
        assert_eq!(session.ids(), &a);
        let cached = lm.next_token_logits_cached(&s, &b, &mut session);
        assert_eq!(session.ids(), &b);
        let full = lm.next_token_logits(&s, &b);
        for (x, y) in cached.data().iter().zip(full.data()) {
            assert!((x - y).abs() < 1e-5, "post-divergence cached {x} vs full {y}");
        }
    }

    #[test]
    fn cached_embeddings_pathway_matches_one_shot() {
        let mut s = ParamStore::new();
        let lm = tiny(&mut s);
        let mut rng = Rng::seeded(13);
        let emb = Tensor::randn([6, 16], 0.5, &mut rng);
        let mut f = Fwd::eval();
        let e = f.input(emb.clone());
        let full_node = lm.forward_embeddings(&mut f, &s, e);
        let full = f.g.value(full_node).clone();

        let mut cache = KvCache::new(&lm);
        let first = lm.forward_embeddings_cached(&s, &emb.narrow(0, 0, 4), &mut cache);
        let second = lm.forward_embeddings_cached(&s, &emb.narrow(0, 4, 2), &mut cache);
        assert_eq!(cache.len(), 6);
        let cached = nt_tensor::concat(&[&first, &second], 0);
        for (a, b) in full.data().iter().zip(cached.data()) {
            assert!((a - b).abs() < 1e-5, "cached embeddings pathway diverged: {a} vs {b}");
        }
    }

    #[test]
    fn batched_decode_matches_independent_sessions_with_ragged_prefixes() {
        // Four sequences of different lengths decode together; every
        // batched step must match four single-session cached calls.
        let mut s = ParamStore::new();
        let lm = tiny(&mut s);
        let mut rng = Rng::seeded(31);
        let prompts: Vec<Vec<usize>> = [3usize, 7, 1, 5]
            .iter()
            .map(|&len| (0..len).map(|_| rng.below(16)).collect())
            .collect();

        let mut batched = lm.start_batched_session();
        let slots: Vec<usize> = prompts.iter().map(|_| batched.join(&lm)).collect();
        let mut singles: Vec<DecodeSession> = prompts.iter().map(|_| lm.start_session()).collect();
        let mut seqs = prompts.clone();

        for step in 0..6 {
            let requests: Vec<(usize, &[usize])> =
                slots.iter().zip(&seqs).map(|(&sid, ids)| (sid, ids.as_slice())).collect();
            let logits = lm.next_token_logits_batched(&s, &requests, &mut batched);
            assert_eq!(logits.shape(), &[4, 16]);
            for (b, (seq, single)) in seqs.iter_mut().zip(singles.iter_mut()).enumerate() {
                let want = lm.next_token_logits_cached(&s, seq, single);
                for (x, y) in logits.row(b).iter().zip(want.data()) {
                    assert!(
                        (x - y).abs() < 1e-5,
                        "step {step} slot {b}: batched {x} vs single {y}"
                    );
                }
                // Greedy-extend each sequence so prefixes stay ragged.
                let next = logits
                    .row(b)
                    .iter()
                    .enumerate()
                    .max_by(|a, c| a.1.partial_cmp(c.1).unwrap())
                    .unwrap()
                    .0;
                seq.push((next + b) % 16); // per-slot divergence
            }
        }
    }

    #[test]
    fn batched_session_join_leave_recycles_without_disturbing_others() {
        let mut s = ParamStore::new();
        let lm = tiny(&mut s);
        let mut batched = lm.start_batched_session();
        let a = batched.join(&lm);
        let b = batched.join(&lm);
        let c = batched.join(&lm);
        assert_eq!((a, b, c), (0, 1, 2));

        let ids_b = [1usize, 2, 3, 4];
        let _ = lm.next_token_logits_batched(&s, &[(b, &ids_b)], &mut batched);
        assert_eq!(batched.ids(b), &ids_b);

        // Leaving a and c must not touch b; the freed ids are recycled.
        batched.leave(a);
        batched.leave(c);
        assert_eq!(batched.active(), 1);
        let d = batched.join(&lm);
        assert_eq!(d, 0, "smallest freed id is reused");
        assert_eq!(batched.ids(b), &ids_b, "surviving slot untouched by leave/join");

        // b's cached prefix still matches a fresh single-session result.
        let grown = [1usize, 2, 3, 4, 9];
        let got = lm.next_token_logits_batched(&s, &[(b, &grown)], &mut batched);
        let mut fresh = lm.start_session();
        let want = lm.next_token_logits_cached(&s, &grown, &mut fresh);
        for (x, y) in got.row(0).iter().zip(want.data()) {
            assert!((x - y).abs() < 1e-5, "post-leave decode diverged: {x} vs {y}");
        }
    }

    #[test]
    fn batched_truncate_rolls_back_candidate_suffix() {
        // Speculative/candidate rollback inside a batched session: decode
        // a suffix, truncate it away, and the slot must continue exactly
        // like a session that never saw the suffix — while a co-resident
        // slot is unaffected.
        let mut s = ParamStore::new();
        let lm = tiny(&mut s);
        let mut batched = lm.start_batched_session();
        let a = batched.join(&lm);
        let b = batched.join(&lm);

        let base = [1usize, 4, 5];
        let spec = [1usize, 4, 5, 9, 3]; // candidate suffix [9, 3]
        let other = [2usize, 7];
        let _ = lm.next_token_logits_batched(&s, &[(a, &spec), (b, &other)], &mut batched);
        assert_eq!(batched.len(a), 5);
        batched.truncate(a, base.len());
        assert_eq!(batched.len(a), 3);
        assert_eq!(batched.ids(a), &base);
        assert_eq!(batched.ids(b), &other, "co-resident slot untouched by rollback");

        // Continue with a different suffix; must match a fresh session.
        let cont = [1usize, 4, 5, 2];
        let got = lm.next_token_logits_batched(&s, &[(a, &cont)], &mut batched);
        let mut fresh = lm.start_session();
        let want = lm.next_token_logits_cached(&s, &cont, &mut fresh);
        for (x, y) in got.row(0).iter().zip(want.data()) {
            assert!((x - y).abs() < 1e-5, "post-rollback decode diverged: {x} vs {y}");
        }
    }

    #[test]
    #[should_panic]
    fn batched_decode_rejects_duplicate_slots() {
        let mut s = ParamStore::new();
        let lm = tiny(&mut s);
        let mut batched = lm.start_batched_session();
        let a = batched.join(&lm);
        let ids = [1usize, 2];
        let _ = lm.next_token_logits_batched(&s, &[(a, &ids), (a, &ids)], &mut batched);
    }

    #[test]
    fn generate_counts_one_inference_per_token() {
        let mut s = ParamStore::new();
        let lm = tiny(&mut s);
        let mut rng = Rng::seeded(2);
        let (out, inf) = lm.generate(&s, &[1, 4, 5], 6, 0.0, &mut rng);
        assert!(inf >= out.len());
        assert!(inf <= 6);
    }

    #[test]
    fn generate_respects_max_seq() {
        let mut s = ParamStore::new();
        let lm = tiny(&mut s);
        let mut rng = Rng::seeded(3);
        let prompt: Vec<usize> = (0..14).map(|i| 4 + (i % 8)).collect();
        let (out, _) = lm.generate(&s, &prompt, 100, 1.0, &mut rng);
        assert!(prompt.len() + out.len() <= 16);
    }

    #[test]
    fn lora_freezes_backbone_and_adds_small_fraction() {
        let mut s = ParamStore::new();
        let mut lm = tiny(&mut s);
        let total = s.num_params();
        let mut rng = Rng::seeded(4);
        let added = lm.attach_lora(&mut s, 2, 4.0, &mut rng);
        assert!(added > 0);
        assert_eq!(s.num_trainable(), added, "only adapters trainable");
        assert!((added as f32) / (total as f32) < 0.5, "adapters must be a small fraction");
    }

    #[test]
    fn sequence_loss_is_finite_and_differentiable() {
        let mut s = ParamStore::new();
        let lm = tiny(&mut s);
        let mut f = Fwd::eval();
        let l = lm.sequence_loss(&mut f, &s, &[1, 4, 5, 6, 2]);
        let v = f.g.value(l).item();
        assert!(v.is_finite() && v > 0.0);
        let grads = f.backward(l);
        assert!(grads.len() > 5);
    }

    #[test]
    fn sample_logits_temperature_zero_is_argmax() {
        let mut rng = Rng::seeded(5);
        assert_eq!(sample_logits(&[0.0, 5.0, 1.0], 0.0, &mut rng), 1);
    }

    #[test]
    fn vocab_matches_tokenizer() {
        let t = Tokenizer::new();
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(6);
        let lm = TinyLm::new(&mut s, LmConfig::base(t.vocab_size()), &mut rng);
        assert_eq!(lm.cfg.vocab, t.vocab_size());
    }
}
