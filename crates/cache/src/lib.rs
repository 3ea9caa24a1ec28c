//! Content-addressed, deterministic column-artifact cache.
//!
//! The paper's interactive setting (§6.5: ~0.1 s suggestion latency)
//! assumes featurisation is cheap, but join-candidate enumeration and the
//! groupby/pivot featurisers re-derive MinHash sketches and column
//! statistics for the *same* columns dozens of times across enumeration,
//! training, and evaluation. This crate interns those statistics once per
//! distinct column content:
//!
//! * [`column_fingerprint`] — a 128-bit multiset digest of a column's cells
//!   (row-order insensitive, edit sensitive) used as the cache key, so
//!   invalidation is structural: changed content is a different key.
//! * [`ColumnArtifacts`] — the sketch + statistics bundle, computed by
//!   delegating to the same `Column` methods featurisers previously called,
//!   so a hit is bit-identical to recomputation.
//! * [`ColumnCache`] — a sharded LRU keyed by fingerprint, returning
//!   `Arc`-interned artifacts.
//! * [`durable`] — the checksummed record format, atomic publish and tmp
//!   sweep behind the on-disk shard tier ([`DiskCache`]) and the corpus
//!   sample store.
//!
//! # Determinism contract
//!
//! `cache.{hits,misses,evictions}` are mirrored into the `autosuggest-obs`
//! deterministic section, so they must be byte-identical at any
//! `AUTOSUGGEST_THREADS`. Two design choices guarantee this:
//!
//! * Artifacts are computed *inside* the owning shard's lock (single-flight
//!   per key): the first lookup of a fingerprint is a miss and every later
//!   lookup is a hit, no matter how threads interleave, so
//!   `misses = distinct fingerprints` and `hits = lookups − misses`.
//! * Sketches are cached at [`BASE_SKETCH_K`], an upper bound on every
//!   sketch size the pipeline requests, and smaller sizes are derived
//!   exactly by truncation — so no entry is ever re-built at a larger `k`
//!   (which would otherwise count an order-dependent extra miss).
//!
//! Eviction counts are deterministic whenever the key *set* per shard is
//! (victim choice may vary with arrival order, but the number of evictions
//! depends only on how many distinct keys pass through a shard). The
//! default capacity is sized so the repro workload never evicts.
//!
//! The cache is on by default; `AUTOSUGGEST_CACHE=0` (or `off`/`false`)
//! disables it process-wide, and [`ColumnCache::set_enabled`] toggles it at
//! runtime for A/B timing runs.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod artifacts;
mod disk;
pub mod durable;
mod fingerprint;
mod pair;
mod sketch;

pub use artifacts::{dtype_slot, ColumnArtifacts, BASE_SKETCH_K};
pub use disk::{
    decode_column, decode_tuples, encode_column, encode_tuples, DiskCache, DiskStats,
    DEFAULT_DISK_BUDGET, DISK_CORRUPT_COUNTER, DISK_EVICTIONS_COUNTER, DISK_HITS_COUNTER,
    DISK_MISSES_COUNTER, DISK_WRITES_COUNTER,
};
pub use fingerprint::{column_fingerprint, table_fingerprint, ColumnFingerprint};
pub use pair::{
    KeyTupleSet, PairCache, PairOverlap, DEFAULT_PAIR_CAPACITY, DEFAULT_TUPLE_CAPACITY,
    PAIR_EVICTIONS_COUNTER, PAIR_HITS_COUNTER, PAIR_MISSES_COUNTER, TUPLE_EVICTIONS_COUNTER,
    TUPLE_HITS_COUNTER, TUPLE_MISSES_COUNTER,
};
pub use sketch::MinHashSketch;

use autosuggest_dataframe::Column;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

const SHARDS: usize = 16;

/// Default total capacity (entries across all shards). Generous relative to
/// the repro corpus (a few thousand distinct columns) so the standard
/// pipeline never evicts and the eviction counter stays at zero
/// deterministically.
pub const DEFAULT_CAPACITY: usize = 32_768;

/// Names under which the cache mirrors its counters into `autosuggest-obs`
/// (deterministic section).
pub const HITS_COUNTER: &str = "cache.hits";
pub const MISSES_COUNTER: &str = "cache.misses";
pub const EVICTIONS_COUNTER: &str = "cache.evictions";

#[derive(Debug, Clone)]
struct Entry {
    artifacts: Arc<ColumnArtifacts>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<ColumnFingerprint, Entry>,
    tick: u64,
}

/// Cumulative cache counters (monotonic until [`ColumnCache::clear`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl CacheStats {
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hits over lookups; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Counter-wise difference from an earlier snapshot.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }
}

/// A sharded, content-addressed LRU of [`ColumnArtifacts`].
pub struct ColumnCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    enabled: AtomicBool,
    /// Optional persistent tier consulted on in-memory misses (see
    /// [`DiskCache`]); attached from `AUTOSUGGEST_CACHE_DIR` on the global
    /// instance, `None` on plain `new()` instances.
    disk: Mutex<Option<Arc<DiskCache>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Recover the guard from a poisoned mutex: shard state is a plain
/// map + tick that is valid after any interrupted mutation, so a panic in
/// another thread must not cascade (same policy as `autosuggest-parallel`).
fn lock_recover<'a>(m: &'a Mutex<Shard>) -> MutexGuard<'a, Shard> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

pub(crate) fn env_enabled() -> bool {
    match std::env::var("AUTOSUGGEST_CACHE") {
        Ok(v) => !matches!(v.trim().to_ascii_lowercase().as_str(), "0" | "off" | "false"),
        Err(_) => true,
    }
}

/// The process-wide disk tier from `AUTOSUGGEST_CACHE_DIR`, opened once and
/// shared by the column and pair caches (a single size ledger and counter
/// set per directory). `None` when the env var is unset or unusable.
pub fn default_disk() -> Option<Arc<DiskCache>> {
    static GLOBAL: OnceLock<Option<Arc<DiskCache>>> = OnceLock::new();
    GLOBAL.get_or_init(DiskCache::from_env).clone()
}

/// Attach (or detach, with `None`) a disk tier on both global caches —
/// used by the repro harness's disk-warm sweep and by tests.
pub fn attach_disk(disk: Option<Arc<DiskCache>>) {
    ColumnCache::global().set_disk(disk.clone());
    PairCache::global().set_disk(disk);
}

/// Toggle every global cache tier at once (A/B timing runs).
pub fn set_all_enabled(on: bool) {
    ColumnCache::global().set_enabled(on);
    PairCache::global().set_enabled(on);
}

/// Drop every in-memory entry in the global tiers (disk shards are kept —
/// clearing memory is exactly what produces a "disk-warm" cold start).
pub fn clear_memory() {
    ColumnCache::global().clear();
    PairCache::global().clear();
}

/// Per-tier counter snapshot across the global caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierStats {
    pub column: CacheStats,
    pub tuple: CacheStats,
    pub pair: CacheStats,
    pub disk: DiskStats,
}

impl TierStats {
    /// Per-tier counter deltas since an earlier snapshot.
    pub fn since(&self, earlier: &TierStats) -> TierStats {
        TierStats {
            column: self.column.since(&earlier.column),
            tuple: self.tuple.since(&earlier.tuple),
            pair: self.pair.since(&earlier.pair),
            disk: self.disk.since(&earlier.disk),
        }
    }
}

/// Snapshot all four tiers of the global caches (disk counters are zero
/// when no disk tier is attached).
pub fn tier_stats() -> TierStats {
    let column_cache = ColumnCache::global();
    let pair_cache = PairCache::global();
    TierStats {
        column: column_cache.stats(),
        tuple: pair_cache.tuple_stats(),
        pair: pair_cache.pair_stats(),
        disk: column_cache.disk().map(|d| d.stats()).unwrap_or_default(),
    }
}

impl ColumnCache {
    /// A cache holding at most `capacity` entries in total (rounded up to at
    /// least one entry per shard).
    pub fn new(capacity: usize) -> Self {
        ColumnCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity: capacity.div_ceil(SHARDS).max(1),
            enabled: AtomicBool::new(true),
            disk: Mutex::new(None),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The process-wide cache used by the featurisers, initialised on first
    /// use with [`DEFAULT_CAPACITY`], the `AUTOSUGGEST_CACHE` env gate, and
    /// the `AUTOSUGGEST_CACHE_DIR` disk tier when configured.
    pub fn global() -> &'static ColumnCache {
        static GLOBAL: OnceLock<ColumnCache> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cache = ColumnCache::new(DEFAULT_CAPACITY);
            cache.enabled.store(env_enabled(), Ordering::Relaxed);
            cache.set_disk(default_disk());
            cache
        })
    }

    /// Attach (or detach) a persistent disk tier for column-artifact shards.
    pub fn set_disk(&self, disk: Option<Arc<DiskCache>>) {
        match self.disk.lock() {
            Ok(mut g) => *g = disk,
            Err(poisoned) => *poisoned.into_inner() = disk,
        }
    }

    /// The currently attached disk tier, if any.
    pub fn disk(&self) -> Option<Arc<DiskCache>> {
        match self.disk.lock() {
            Ok(g) => g.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    /// Whether lookups consult the cache (otherwise they recompute).
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Toggle the cache at runtime (used by the repro harness for the
    /// cache-on/off timing comparison).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Fetch (or compute and intern) the artifacts for a column, with a
    /// sketch usable at size `sketch_k`.
    ///
    /// The artifact computation runs *inside* the owning shard's lock so
    /// that concurrent first lookups of one fingerprint cannot both count
    /// as misses — the hit/miss counters stay deterministic across thread
    /// counts (see the crate docs).
    pub fn get_or_compute(&self, col: &Column, sketch_k: usize) -> Arc<ColumnArtifacts> {
        if !self.enabled() {
            return Arc::new(ColumnArtifacts::compute(col, sketch_k));
        }
        let fp = column_fingerprint(col);
        let shard_idx = ((fp.0 >> 64) as u64 % SHARDS as u64) as usize;
        let mut evicted = 0u64;
        let (artifacts, hit) = {
            let mut guard = lock_recover(&self.shards[shard_idx]);
            let shard = &mut *guard;
            shard.tick += 1;
            let tick = shard.tick;
            // A cached entry only satisfies the request if its sketch is at
            // least as large as asked; entries are built at
            // max(sketch_k, BASE_SKETCH_K), so with pipeline-sized ks the
            // upgrade branch never runs.
            match shard.map.get_mut(&fp) {
                Some(entry) if entry.artifacts.sketch().k() >= sketch_k => {
                    entry.last_used = tick;
                    (entry.artifacts.clone(), true)
                }
                stale => {
                    let needs_insert = stale.is_none();
                    // In-memory miss: consult the persistent tier before
                    // recomputing. Still inside the shard lock, so the
                    // single-flight argument extends to disk — each
                    // distinct fingerprint is probed (and stored) at most
                    // once per process, keeping `cache.disk.*` counters
                    // thread-invariant.
                    let disk = self.disk();
                    let loaded = disk
                        .as_ref()
                        .and_then(|d| d.load_column(fp, sketch_k))
                        .map(Arc::new);
                    let artifacts = match loaded {
                        Some(a) => a,
                        None => {
                            let a = Arc::new(ColumnArtifacts::compute(col, sketch_k));
                            if let Some(d) = &disk {
                                // Overwrite is only reachable when an
                                // existing shard's sketch was too small
                                // for this request (the upgrade path).
                                d.store_column(fp, &a, true);
                            }
                            a
                        }
                    };
                    if needs_insert && shard.map.len() >= self.per_shard_capacity {
                        // Evict the least-recently-used entry; ties (possible
                        // only before any entry is re-touched) break on the
                        // smaller fingerprint for determinism.
                        let victim = shard
                            .map
                            .iter()
                            .min_by_key(|(k, e)| (e.last_used, **k))
                            .map(|(k, _)| *k);
                        if let Some(v) = victim {
                            shard.map.remove(&v);
                            evicted = 1;
                        }
                    }
                    shard.map.insert(fp, Entry { artifacts: Arc::clone(&artifacts), last_used: tick });
                    (artifacts, false)
                }
            }
        };
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            autosuggest_obs::counter_add(HITS_COUNTER, 1);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            autosuggest_obs::counter_add(MISSES_COUNTER, 1);
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            autosuggest_obs::counter_add(EVICTIONS_COUNTER, evicted);
        }
        artifacts
    }

    /// Fetch artifacts with the base sketch size — the entry point for
    /// featurisers that only need statistics, not a specific sketch `k`.
    pub fn artifacts(&self, col: &Column) -> Arc<ColumnArtifacts> {
        self.get_or_compute(col, BASE_SKETCH_K)
    }

    /// Snapshot the cumulative counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Number of interned entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_recover(s).map.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry and reset the counters (used between deterministic
    /// trace runs so each run observes a cold cache).
    pub fn clear(&self) {
        for s in &self.shards {
            let mut guard = lock_recover(s);
            guard.map.clear();
            guard.tick = 0;
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosuggest_dataframe::Value;

    fn int_col(name: &str, lo: i64, hi: i64) -> Column {
        Column::new(name, (lo..hi).map(Value::Int).collect::<Vec<_>>())
    }

    #[test]
    fn hit_miss_counting_and_interning() {
        let cache = ColumnCache::new(64);
        let a = int_col("a", 0, 100);
        let a_permuted = {
            let mut vals: Vec<Value> = a.values().to_vec();
            vals.reverse();
            Column::new("other_name", vals)
        };
        let first = cache.artifacts(&a);
        let second = cache.artifacts(&a);
        let third = cache.artifacts(&a_permuted);
        // Same content (up to row order and name) → one interned allocation.
        assert!(Arc::ptr_eq(&first, &second));
        assert!(Arc::ptr_eq(&first, &third));
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 1, evictions: 0 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn hit_is_bit_identical_to_recompute() {
        let cache = ColumnCache::new(64);
        let col = Column::new(
            "c",
            vec![Value::Int(5), Value::Float(2.5), Value::Null, Value::Str("x".into())],
        );
        cache.artifacts(&col);
        let cached = cache.artifacts(&col);
        let direct = ColumnArtifacts::compute(&col, BASE_SKETCH_K);
        assert_eq!(cached.distinct_count(), direct.distinct_count());
        assert_eq!(cached.null_fraction(), direct.null_fraction());
        assert_eq!(cached.min_max(), direct.min_max());
        assert_eq!(cached.dtype(), direct.dtype());
        assert_eq!(cached.dtype_counts(), direct.dtype_counts());
        assert_eq!(cached.peak_frequency(), direct.peak_frequency());
        assert_eq!(cached.sketch().jaccard(direct.sketch()), 1.0);
    }

    #[test]
    fn disabled_cache_recomputes_and_counts_nothing() {
        let cache = ColumnCache::new(64);
        cache.set_enabled(false);
        let col = int_col("a", 0, 50);
        let x = cache.get_or_compute(&col, 32);
        let y = cache.get_or_compute(&col, 32);
        assert!(!Arc::ptr_eq(&x, &y));
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!(cache.len(), 0);
        cache.set_enabled(true);
        cache.get_or_compute(&col, 32);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn eviction_respects_capacity_and_counts() {
        // Capacity 16 → one entry per shard; the second distinct key landing
        // in any shard evicts the first.
        let cache = ColumnCache::new(16);
        let cols: Vec<Column> = (0..40).map(|i| int_col("c", i * 100, i * 100 + 50)).collect();
        for c in &cols {
            cache.artifacts(c);
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 40);
        assert_eq!(stats.hits, 0);
        assert!(cache.len() <= 16);
        assert_eq!(stats.evictions, 40 - cache.len() as u64);
    }

    #[test]
    fn lru_prefers_to_evict_least_recently_used() {
        let cache = ColumnCache::new(16);
        // Find three distinct columns that map to the same shard.
        let mut same_shard: Vec<Column> = Vec::new();
        let mut want_shard = None;
        for i in 0..1000 {
            let c = int_col("c", i * 1000, i * 1000 + 10);
            let fp = column_fingerprint(&c);
            let shard = ((fp.0 >> 64) as u64 % SHARDS as u64) as usize;
            match want_shard {
                None => {
                    want_shard = Some(shard);
                    same_shard.push(c);
                }
                Some(w) if w == shard => same_shard.push(c),
                _ => {}
            }
            if same_shard.len() == 3 {
                break;
            }
        }
        let [a, b, c] = &same_shard[..] else {
            panic!("could not find three same-shard columns");
        };
        // Capacity per shard is ceil(16/16)=1... too tight to show recency.
        // Use a dedicated two-entry shard capacity instead.
        let cache2 = ColumnCache::new(2 * SHARDS);
        cache2.artifacts(a);
        cache2.artifacts(b);
        cache2.artifacts(a); // touch a → b is now LRU
        cache2.artifacts(c); // evicts b
        drop(cache);
        assert_eq!(cache2.stats().evictions, 1);
        let before = cache2.stats();
        cache2.artifacts(a);
        assert_eq!(cache2.stats().since(&before), CacheStats { hits: 1, misses: 0, evictions: 0 });
        let before = cache2.stats();
        cache2.artifacts(b); // was evicted → miss (and evicts again)
        assert_eq!(cache2.stats().since(&before).misses, 1);
    }

    #[test]
    fn concurrent_access_has_deterministic_counters() {
        // 4 threads × the same 8 columns: single-flight inside the shard
        // lock guarantees exactly 8 misses and 24 hits regardless of
        // interleaving.
        let cache = Arc::new(ColumnCache::new(256));
        let cols: Arc<Vec<Column>> =
            Arc::new((0..8).map(|i| int_col("c", i * 10, i * 10 + 5)).collect());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let cols = Arc::clone(&cols);
                std::thread::spawn(move || {
                    for c in cols.iter() {
                        cache.artifacts(c);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.stats(), CacheStats { hits: 24, misses: 8, evictions: 0 });
    }

    #[test]
    fn clear_resets_entries_and_counters() {
        let cache = ColumnCache::new(64);
        cache.artifacts(&int_col("a", 0, 10));
        cache.artifacts(&int_col("a", 0, 10));
        assert_ne!(cache.stats(), CacheStats::default());
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
        assert!(cache.is_empty());
    }

    #[test]
    fn obs_counters_mirror_lookups() {
        let ((), snap) = autosuggest_obs::with_local_registry(|| {
            let cache = ColumnCache::new(64);
            let col = int_col("a", 0, 30);
            cache.artifacts(&col);
            cache.artifacts(&col);
        });
        let text = snap.deterministic_value().to_string();
        assert!(text.contains("cache.hits"), "missing cache.hits in {text}");
        assert!(text.contains("cache.misses"), "missing cache.misses in {text}");
    }

    #[test]
    fn oversized_sketch_request_still_exact() {
        let cache = ColumnCache::new(64);
        let col = int_col("a", 0, 2000);
        let art = cache.get_or_compute(&col, 64);
        assert_eq!(art.sketch().k(), BASE_SKETCH_K);
        // Asking for a sketch larger than the cached base re-computes and
        // re-interns at the bigger size (counts as a miss).
        let big = cache.get_or_compute(&col, 512);
        assert_eq!(big.sketch().k(), 512);
        assert_eq!(cache.stats().misses, 2);
        // And the upgraded entry now serves small requests as hits.
        let again = cache.get_or_compute(&col, 64);
        assert!(Arc::ptr_eq(&big, &again));
        assert_eq!(cache.stats().hits, 1);
    }
}
