//! The parallel experiment engine: a deterministic scoped-thread map and
//! content-addressed caches of embeddings, transforms and trained models.
//!
//! Experiments in this crate are embarrassingly parallel at two grains —
//! per-sample (transform, embed, classify) and per-round (seeds, sweep
//! points) — and they recompute the same embeddings over and over: every
//! game embeds each module once to train and once per challenge, and the
//! benchmark sweeps replay the same modules across many design points.
//!
//! Four primitives exploit that without touching any experiment's
//! results:
//!
//! - [`par_map`] (re-exported from [`yali_par`], where `yali-ml`'s
//!   data-parallel trainers share it) fans a slice out over
//!   `std::thread::scope` workers and returns outputs **in input order**.
//!   Each `(index, item)` pair is handed to the same closure it would meet
//!   serially, so any experiment whose per-item work is a pure function of
//!   `(index, item)` produces byte-identical results at every thread count
//!   (including 1). Worker count comes from the `YALI_THREADS` environment
//!   variable, or the machine's available parallelism when unset.
//! - [`EmbedCache`] memoizes [`EmbeddingKind::embed`] keyed by the 64-bit
//!   structural hash of the module ([`yali_ir::Module::content_hash`])
//!   plus the embedding kind. The hash ignores module names and arena
//!   numbering — exactly the things embeddings cannot observe — so a
//!   cache hit returns the same embedding the recomputation would.
//!   [`CacheStats`] exposes hit/miss/insert counters.
//! - [`TransformCache`] does the same for [`Transformer::apply`], keyed by
//!   a hash of the printed source program plus the transformer and seed —
//!   the complete input of that pure function. Sweeps that pit many
//!   models against the same transformed corpus stop re-obfuscating it
//!   per design point. Game 3's challenge pipeline — the evader, then the
//!   classifier's `-O3` normalizer — is one cached transform in the same
//!   cache ([`transform_normalized_cached`]), keyed by source hash,
//!   evader, normalizer and seed, so the models of a sweep share one
//!   normalization of their challenges and a resumed sweep reads it back
//!   from the store instead of re-optimizing.
//! - [`ModelCache`] is the trained-model store: serialized classifier
//!   blobs keyed by a digest of the complete training input (embedding,
//!   model, training knobs, training-set content hashes, labels). Arena,
//!   game, discover, and malware sweeps that revisit a design point load
//!   the fitted model instead of retraining it; weights round-trip via
//!   `f64::to_bits`, so a loaded model classifies byte-identically to the
//!   one the retrain would produce.
//!
//! `YALI_CACHE=0` bypasses all three caches.
//!
//! With `YALI_STORE=dir` set, the *global* instances of all three caches
//! additionally read through the persistent [`crate::store`]: a memory
//! miss consults the disk index before computing, and a computed artifact
//! is published to disk as it enters memory. Warm artifacts therefore
//! survive the process and are shared by the workers of a `yali-grid`
//! sweep. Locally constructed caches ([`EmbedCache::new`] etc.) stay
//! memory-only — their counter semantics are part of the unit-test
//! contract — and a disk hit still counts as a memory *miss* in
//! [`CacheStats`]; the disk traffic is accounted separately in
//! [`crate::store::StoreStats`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::transformer::Transformer;
use yali_embed::{Embedding, EmbeddingKind};
use yali_opt::OptLevel;

pub use yali_par::{par_for_each_mut, par_map, par_map_with, worker_count};

/// Snapshot of [`EmbedCache`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute the embedding.
    pub misses: u64,
    /// Entries actually stored (≤ misses: concurrent misses on one key
    /// store once).
    pub inserts: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hits over total lookups (0.0 when nothing was looked up). This is
    /// the number [`crate::report::RunReport`] publishes per cache.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Alias of [`CacheStats::hit_ratio`] (the original name).
    pub fn hit_rate(&self) -> f64 {
        self.hit_ratio()
    }
}

/// The hit/miss/insert counter trio shared by [`EmbedCache`],
/// [`TransformCache`], and [`ModelCache`] (formerly copy-pasted into each).
#[derive(Debug, Default)]
struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

impl CacheCounters {
    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a first-writer insert (concurrent misses on one key store
    /// once, so inserts ≤ misses).
    fn insert(&self) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self, entries: usize) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            entries,
        }
    }

    fn reset(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.inserts.store(0, Ordering::Relaxed);
    }
}

const SHARDS: usize = 16;

/// A sharded, content-addressed embedding cache.
///
/// Keys are `(Module::content_hash(), EmbeddingKind)`. The structural hash
/// normalizes away module names and instruction-arena numbering, so any
/// two modules that print identically share one entry — in particular the
/// same transformed module reached through different experiment paths.
pub struct EmbedCache {
    shards: Vec<Mutex<HashMap<(u64, EmbeddingKind), Embedding>>>,
    counters: CacheCounters,
    /// Whether memory misses read through the persistent store. Only the
    /// global instance attaches; local instances keep the exact counter
    /// semantics the unit tests pin down.
    attached: bool,
}

impl Default for EmbedCache {
    fn default() -> Self {
        EmbedCache::new()
    }
}

impl EmbedCache {
    /// An empty, memory-only cache.
    pub fn new() -> EmbedCache {
        EmbedCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            counters: CacheCounters::default(),
            attached: false,
        }
    }

    /// The process-wide cache used by the experiment drivers. Reads
    /// through the persistent store when `YALI_STORE` is active.
    pub fn global() -> &'static EmbedCache {
        static GLOBAL: OnceLock<EmbedCache> = OnceLock::new();
        GLOBAL.get_or_init(|| EmbedCache {
            attached: true,
            ..EmbedCache::new()
        })
    }

    fn shard(&self, key: u64) -> &Mutex<HashMap<(u64, EmbeddingKind), Embedding>> {
        // Spread the (already well-mixed) FNV hash across shards.
        &self.shards[(key as usize) % SHARDS]
    }

    /// Computes (or recalls) `kind`'s embedding of `m`.
    pub fn embed(&self, m: &yali_ir::Module, kind: EmbeddingKind) -> Embedding {
        let key = (m.content_hash(), kind);
        if let Some(e) = self.shard(key.0).lock().unwrap().get(&key) {
            self.counters.hit();
            return e.clone();
        }
        self.counters.miss();
        // Disk layer: a store hit skips the computation and warms memory.
        let store = if self.attached { crate::store::active() } else { None };
        if let Some(store) = &store {
            let skey = crate::store::embed_key(key.0, kind);
            if let Some(e) = store
                .get(crate::store::Namespace::Embed, skey)
                .and_then(|bytes| crate::store::decode_embedding(&bytes))
            {
                let mut shard = self.shard(key.0).lock().unwrap();
                if shard.insert(key, e.clone()).is_none() {
                    self.counters.insert();
                }
                return e;
            }
        }
        // Compute outside the lock: embeddings dominate the cost and other
        // keys in the shard must not wait on this one.
        let e = kind.embed(m);
        let mut shard = self.shard(key.0).lock().unwrap();
        if shard.insert(key, e.clone()).is_none() {
            self.counters.insert();
            drop(shard);
            if let Some(store) = &store {
                let skey = crate::store::embed_key(key.0, kind);
                store.put(
                    crate::store::Namespace::Embed,
                    skey,
                    &crate::store::encode_embedding(&e),
                );
            }
        }
        e
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.counters
            .snapshot(self.shards.iter().map(|s| s.lock().unwrap().len()).sum())
    }

    /// Empties the cache and zeroes the counters.
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().unwrap().clear();
        }
        self.counters.reset();
    }
}

/// Whether the global caches are in use. `YALI_CACHE=0` (or `off`)
/// bypasses them entirely — every transform and embedding is recomputed,
/// which is the pre-engine behavior (useful as a benchmark baseline and
/// when bisecting a suspected cache bug).
pub fn caching_enabled() -> bool {
    !matches!(
        std::env::var("YALI_CACHE").as_deref(),
        Ok("0") | Ok("off") | Ok("false")
    )
}

/// Embeds through the global [`EmbedCache`] (or directly, under
/// `YALI_CACHE=0`). Under observability every embedding is a `embed.one`
/// span; with a trace sink attached the open event carries the module's
/// content hash, so a timeline can tell recomputes from replays.
pub fn embed_cached(m: &yali_ir::Module, kind: EmbeddingKind) -> Embedding {
    let _span = if yali_obs::trace_on() {
        yali_obs::span_attr!("embed.one", "module", m.content_hash())
    } else {
        yali_obs::span!("embed.one")
    };
    if !caching_enabled() {
        return kind.embed(m);
    }
    EmbedCache::global().embed(m, kind)
}

/// A transform-cache key: `(source hash, transformer, normalizer, seed)`.
type TransformKey = (u64, Transformer, Option<OptLevel>, u64);

/// One transform-cache shard: key → module.
type TransformShard = Mutex<HashMap<TransformKey, yali_ir::Module>>;

/// A content-addressed cache for [`Transformer::apply`] and for Game 3's
/// challenge pipeline, the evader's transform followed by the
/// classifier's `-O<level>` normalization.
///
/// Both are pure functions of `(program, transformer, normalizer, seed)`;
/// the key hashes the printed source (stable across clones) plus the
/// other three, so a hit returns the module the recomputation would
/// produce. This is what keeps sweeps from re-obfuscating one corpus once
/// per design point, and from re-optimizing the same Game 3 challenges
/// once per model.
pub struct TransformCache {
    shards: Vec<TransformShard>,
    counters: CacheCounters,
    /// See [`EmbedCache`]: only the global instance reads through disk.
    attached: bool,
}

impl Default for TransformCache {
    fn default() -> Self {
        TransformCache::new()
    }
}

impl TransformCache {
    /// An empty, memory-only cache.
    pub fn new() -> TransformCache {
        TransformCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            counters: CacheCounters::default(),
            attached: false,
        }
    }

    /// The process-wide cache used by the experiment drivers. Reads
    /// through the persistent store when `YALI_STORE` is active.
    pub fn global() -> &'static TransformCache {
        static GLOBAL: OnceLock<TransformCache> = OnceLock::new();
        GLOBAL.get_or_init(|| TransformCache {
            attached: true,
            ..TransformCache::new()
        })
    }

    /// Applies (or recalls) `t` to `program` under `seed`.
    pub fn apply(&self, program: &yali_minic::Program, t: Transformer, seed: u64) -> yali_ir::Module {
        self.apply_normalized(program, t, None, seed)
    }

    /// Applies (or recalls) `t` to `program` under `seed`, then optimizes
    /// the result at `normalizer` if one is given. A normalized module is
    /// an entry of its own, published to the store under its own key, so
    /// a replayed Game 3 challenge costs one lookup and no `optimize`.
    pub fn apply_normalized(
        &self,
        program: &yali_minic::Program,
        t: Transformer,
        normalizer: Option<OptLevel>,
        seed: u64,
    ) -> yali_ir::Module {
        let mut h = yali_ir::Fnv64::new();
        h.write_str(&yali_minic::print(program));
        self.lookup(program, (h.finish(), t, normalizer, seed))
    }

    fn lookup(&self, program: &yali_minic::Program, key: TransformKey) -> yali_ir::Module {
        let (source_hash, t, normalizer, seed) = key;
        let shard = &self.shards[(source_hash as usize) % SHARDS];
        if let Some(m) = shard.lock().unwrap().get(&key) {
            self.counters.hit();
            return m.clone();
        }
        self.counters.miss();
        let store = if self.attached { crate::store::active() } else { None };
        let skey = match normalizer {
            None => crate::store::transform_key(source_hash, t.name(), seed),
            Some(level) => {
                crate::store::normalized_transform_key(source_hash, t.name(), level.flag(), seed)
            }
        };
        if let Some(store) = &store {
            if let Some(m) = store
                .get(crate::store::Namespace::Transform, skey)
                .and_then(|bytes| crate::store::decode_module(&bytes))
            {
                if shard.lock().unwrap().insert(key, m.clone()).is_none() {
                    self.counters.insert();
                }
                return m;
            }
        }
        let m = match normalizer {
            None => t.apply(program, seed),
            // The transform's own output comes through the cache: Games 1
            // and 2 have usually computed it already.
            Some(level) => {
                let mut m = self.lookup(program, (source_hash, t, None, seed));
                yali_opt::optimize(&mut m, level);
                m
            }
        };
        if shard.lock().unwrap().insert(key, m.clone()).is_none() {
            self.counters.insert();
            if let Some(store) = &store {
                store.put(
                    crate::store::Namespace::Transform,
                    skey,
                    &crate::store::encode_module(&m),
                );
            }
        }
        m
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.counters
            .snapshot(self.shards.iter().map(|s| s.lock().unwrap().len()).sum())
    }

    /// Empties the cache and zeroes the counters.
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().unwrap().clear();
        }
        self.counters.reset();
    }
}

/// Transforms through the global [`TransformCache`] (or directly, under
/// `YALI_CACHE=0`).
pub fn transform_cached(program: &yali_minic::Program, t: Transformer, seed: u64) -> yali_ir::Module {
    transform_normalized_cached(program, t, None, seed)
}

/// [`transform_cached`], then an optional `-O<level>` normalization of
/// the result, as one cached transform (Game 3's challenges). Under
/// `YALI_CACHE=0` this is the uncached reference: `t.apply`, then
/// `optimize`.
pub fn transform_normalized_cached(
    program: &yali_minic::Program,
    t: Transformer,
    normalizer: Option<OptLevel>,
    seed: u64,
) -> yali_ir::Module {
    let _span = yali_obs::span!("transform.one");
    if !caching_enabled() {
        let mut m = t.apply(program, seed);
        if let Some(level) = normalizer {
            yali_opt::optimize(&mut m, level);
        }
        return m;
    }
    TransformCache::global().apply_normalized(program, t, normalizer, seed)
}

/// The content-addressed trained-model store.
///
/// Values are serialized model blobs ([`crate::arena::TrainedClassifier`]
/// and `VectorClassifier` byte encodings); keys digest the complete
/// training input, so a hit deserializes to the model the retrain would
/// have produced, bit for bit. Blobs are shared via `Arc`: a hit clones a
/// pointer, not the weights.
pub struct ModelCache {
    shards: Vec<Mutex<HashMap<u64, Arc<Vec<u8>>>>>,
    counters: CacheCounters,
    /// See [`EmbedCache`]: only the global instance reads through disk.
    attached: bool,
}

impl Default for ModelCache {
    fn default() -> Self {
        ModelCache::new()
    }
}

impl ModelCache {
    /// An empty, memory-only store.
    pub fn new() -> ModelCache {
        ModelCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            counters: CacheCounters::default(),
            attached: false,
        }
    }

    /// The process-wide store used by the experiment drivers. Reads
    /// through the persistent store when `YALI_STORE` is active.
    pub fn global() -> &'static ModelCache {
        static GLOBAL: OnceLock<ModelCache> = OnceLock::new();
        GLOBAL.get_or_init(|| ModelCache {
            attached: true,
            ..ModelCache::new()
        })
    }

    /// Looks up a model blob, counting the hit or miss.
    pub fn get(&self, key: u64) -> Option<Arc<Vec<u8>>> {
        let found = self.shards[(key as usize) % SHARDS]
            .lock()
            .unwrap()
            .get(&key)
            .cloned();
        match found {
            Some(b) => {
                self.counters.hit();
                Some(b)
            }
            None => {
                self.counters.miss();
                if self.attached {
                    if let Some(store) = crate::store::active() {
                        if let Some(blob) = store
                            .get(crate::store::Namespace::Model, key)
                            .and_then(|bytes| crate::store::decode_model(&bytes))
                        {
                            let blob = Arc::new(blob);
                            let mut shard =
                                self.shards[(key as usize) % SHARDS].lock().unwrap();
                            if shard.insert(key, blob.clone()).is_none() {
                                self.counters.insert();
                            }
                            return Some(blob);
                        }
                    }
                }
                None
            }
        }
    }

    /// Stores a freshly trained model's blob (first writer wins; a
    /// concurrent trainer of the same key stores once).
    pub fn insert(&self, key: u64, bytes: Vec<u8>) {
        let mut shard = self.shards[(key as usize) % SHARDS].lock().unwrap();
        let encoded = if self.attached {
            Some(crate::store::encode_model(&bytes))
        } else {
            None
        };
        if shard.insert(key, Arc::new(bytes)).is_none() {
            self.counters.insert();
            drop(shard);
            if let Some(encoded) = encoded {
                if let Some(store) = crate::store::active() {
                    store.put(crate::store::Namespace::Model, key, &encoded);
                }
            }
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.counters
            .snapshot(self.shards.iter().map(|s| s.lock().unwrap().len()).sum())
    }

    /// Empties the store and zeroes the counters.
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().unwrap().clear();
        }
        self.counters.reset();
    }
}

/// Clears all global caches (benchmarks use this to measure cold starts).
pub fn clear_caches() {
    EmbedCache::global().clear();
    TransformCache::global().clear();
    ModelCache::global().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module(src: &str) -> yali_ir::Module {
        yali_minic::compile(src).expect("test program compiles")
    }

    #[test]
    fn par_map_preserves_order_at_every_thread_count() {
        let items: Vec<u64> = (0..103).collect();
        let serial = par_map_with(1, &items, |i, &v| v * v + i as u64);
        for threads in [2, 3, 8, 32] {
            let parallel = par_map_with(threads, &items, |i, &v| v * v + i as u64);
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_degenerate_sizes() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_with(4, &empty, |_, &v| v).is_empty());
        assert_eq!(par_map_with(4, &[7u32], |i, &v| v + i as u32), vec![7]);
        assert_eq!(
            par_map_with(64, &[1u32, 2], |_, &v| v * 10),
            vec![10, 20],
            "more threads than chunks"
        );
    }

    #[test]
    fn par_for_each_mut_equals_the_serial_loop() {
        let mut a: Vec<usize> = (0..57).collect();
        let mut b = a.clone();
        for (i, t) in a.iter_mut().enumerate() {
            *t = *t * 3 + i;
        }
        par_for_each_mut(&mut b, |i, t| *t = *t * 3 + i);
        assert_eq!(a, b);
    }

    #[test]
    fn cache_hits_on_structurally_equal_modules() {
        let cache = EmbedCache::new();
        let m1 = module("int f(int a) { return a * a + 3; }");
        let e1 = cache.embed(&m1, EmbeddingKind::Histogram);
        let e2 = cache.embed(&m1, EmbeddingKind::Histogram);
        assert_eq!(e1, e2);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.entries), (1, 1, 1, 1));
    }

    #[test]
    fn cache_distinguishes_kinds_and_contents() {
        let cache = EmbedCache::new();
        let m1 = module("int f(int a) { return a + 1; }");
        let m2 = module("int f(int a) { return a - 1; }");
        cache.embed(&m1, EmbeddingKind::Histogram);
        cache.embed(&m1, EmbeddingKind::Milepost);
        cache.embed(&m2, EmbeddingKind::Histogram);
        let s = cache.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.entries, 3);
    }

    #[test]
    fn cached_equals_uncached() {
        let cache = EmbedCache::new();
        let m = module("int g(int x) { int s = 0; while (x > 0) { s = s + x; x = x - 1; } return s; }");
        for kind in EmbeddingKind::ALL {
            assert_eq!(cache.embed(&m, kind), kind.embed(&m), "{kind}");
            // Second round: answered from cache, still identical.
            assert_eq!(cache.embed(&m, kind), kind.embed(&m), "{kind} cached");
        }
        assert_eq!(cache.stats().hits, EmbeddingKind::ALL.len() as u64);
    }

    #[test]
    fn clear_resets_everything() {
        let cache = EmbedCache::new();
        cache.embed(&module("int f() { return 4; }"), EmbeddingKind::Histogram);
        cache.clear();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.entries), (0, 0, 0, 0));
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn cache_is_shared_across_threads() {
        let cache = EmbedCache::new();
        let ms: Vec<yali_ir::Module> =
            (0..8).map(|_| module("int f(int a) { return a * 2; }")).collect();
        let embs = par_map_with(4, &ms, |_, m| cache.embed(m, EmbeddingKind::Histogram));
        assert!(embs.windows(2).all(|w| w[0] == w[1]));
        let s = cache.stats();
        // All eight modules share one key; at least one lookup computed.
        assert_eq!(s.entries, 1);
        assert_eq!(s.hits + s.misses, 8);
        assert!(s.misses >= 1);
    }

    #[test]
    fn transform_cache_matches_direct_application() {
        let cache = TransformCache::new();
        let p = yali_minic::parse("int f(int a) { return a * 3 + 1; }").unwrap();
        for t in [
            Transformer::None,
            Transformer::Opt(yali_opt::OptLevel::O3),
            Transformer::Ir(yali_obf::IrObf::Fla),
        ] {
            let direct = t.apply(&p, 9);
            let cold = cache.apply(&p, t, 9);
            let warm = cache.apply(&p, t, 9);
            assert_eq!(yali_ir::print_module(&direct), yali_ir::print_module(&cold), "{t}");
            assert_eq!(yali_ir::print_module(&direct), yali_ir::print_module(&warm), "{t}");
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (3, 3, 3));
    }

    #[test]
    fn transform_cache_distinguishes_seeds_and_programs() {
        let cache = TransformCache::new();
        let p1 = yali_minic::parse("int f(int a) { return a + 2; }").unwrap();
        let p2 = yali_minic::parse("int f(int a) { return a - 2; }").unwrap();
        let t = Transformer::Ir(yali_obf::IrObf::Bcf);
        cache.apply(&p1, t, 1);
        cache.apply(&p1, t, 2); // same program, new seed: distinct entry
        cache.apply(&p2, t, 1); // new program: distinct entry
        cache.apply(&p1, Transformer::None, 1); // new transformer
        let s = cache.stats();
        assert_eq!((s.hits, s.entries), (0, 4));
    }

    #[test]
    fn normalized_transform_matches_the_direct_pipeline() {
        let cache = TransformCache::new();
        let p = yali_minic::parse(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s = s + i * 2; } return s; }",
        )
        .unwrap();
        let t = Transformer::Ir(yali_obf::IrObf::Fla);
        let mut direct = t.apply(&p, 4);
        yali_opt::optimize(&mut direct, OptLevel::O3);
        let cold = cache.apply_normalized(&p, t, Some(OptLevel::O3), 4);
        let warm = cache.apply_normalized(&p, t, Some(OptLevel::O3), 4);
        assert_eq!(yali_ir::print_module(&direct), yali_ir::print_module(&cold));
        assert_eq!(yali_ir::print_module(&direct), yali_ir::print_module(&warm));
        // The cold call missed on the pipeline and on the evader's own
        // output; the warm call is one hit and runs nothing.
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 2));
        // The plain transform is still its own entry: a hit, unoptimized.
        let plain = cache.apply(&p, t, 4);
        assert_eq!(
            yali_ir::print_module(&plain),
            yali_ir::print_module(&t.apply(&p, 4))
        );
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn model_cache_counts_and_clears() {
        let cache = ModelCache::new();
        assert!(cache.get(42).is_none());
        cache.insert(42, vec![1, 2, 3]);
        cache.insert(42, vec![1, 2, 3]); // same key: no second entry
        assert_eq!(cache.get(42).unwrap().as_slice(), &[1, 2, 3]);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.entries), (1, 1, 1, 1));
        cache.clear();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.entries), (0, 0, 0, 0));
    }

    #[test]
    fn attached_caches_read_through_the_store() {
        let dir = std::env::temp_dir().join(format!(
            "yali_engine_store_test_{}_{}",
            std::process::id(),
            yali_obs::epoch_ns()
        ));
        crate::store::set_store_dir(Some(&dir)).unwrap();

        // Publish via one attached cache, then recall via a second one
        // with empty memory: the artifact must come back from disk.
        let m = module("int readthrough(int a) { return a * 7 + 5; }");
        let writer = EmbedCache { attached: true, ..EmbedCache::new() };
        let e = writer.embed(&m, EmbeddingKind::Histogram);
        let reader = EmbedCache { attached: true, ..EmbedCache::new() };
        let before = crate::store::active_stats().unwrap().disk_hits;
        assert_eq!(reader.embed(&m, EmbeddingKind::Histogram), e);
        assert!(
            crate::store::active_stats().unwrap().disk_hits > before,
            "second cache must hit the disk, not recompute"
        );
        let s = reader.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (0, 1, 1), "disk hit is a memory miss");

        // Same story for models.
        let mc1 = ModelCache { attached: true, ..ModelCache::new() };
        mc1.insert(0xfeed_beef, vec![4, 5, 6]);
        let mc2 = ModelCache { attached: true, ..ModelCache::new() };
        assert_eq!(mc2.get(0xfeed_beef).unwrap().as_slice(), &[4, 5, 6]);

        // And transforms: the recalled module embeds identically.
        let p = yali_minic::parse("int readthrough(int a) { return a - 9; }").unwrap();
        let t = Transformer::Ir(yali_obf::IrObf::Fla);
        let tc1 = TransformCache { attached: true, ..TransformCache::new() };
        let direct = tc1.apply(&p, t, 3);
        let tc2 = TransformCache { attached: true, ..TransformCache::new() };
        let from_disk = tc2.apply(&p, t, 3);
        assert_eq!(yali_ir::print_module(&from_disk), yali_ir::print_module(&direct));
        assert_eq!(from_disk.content_hash(), direct.content_hash());

        // And the normalized pipeline, under its own store key.
        let tc3 = TransformCache { attached: true, ..TransformCache::new() };
        let normalized = tc3.apply_normalized(&p, t, Some(OptLevel::O3), 3);
        let tc4 = TransformCache { attached: true, ..TransformCache::new() };
        let recalled = tc4.apply_normalized(&p, t, Some(OptLevel::O3), 3);
        assert_eq!(yali_ir::print_module(&recalled), yali_ir::print_module(&normalized));
        let s = tc4.stats();
        assert_eq!(
            (s.hits, s.misses, s.inserts),
            (0, 1, 1),
            "a disk hit, with no lookup of the evader's own output"
        );

        crate::store::set_store_dir(None).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn experiment_types_are_send_and_sync() {
        fn ok<T: Send + Sync>() {}
        ok::<Embedding>();
        ok::<EmbeddingKind>();
        ok::<crate::Transformer>();
        ok::<yali_ml::VectorClassifier>();
        ok::<yali_ml::Dgcnn>();
        ok::<crate::arena::TrainedClassifier>();
        ok::<EmbedCache>();
    }
}
