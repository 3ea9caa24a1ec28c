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
//! `AUTOSUGGEST_THREADS`. Every in-memory tier is one sharded LRU that
//! computes a missing value inside the owning shard's lock (single-flight
//! per key; see the `lru` module), and artifacts are always built at one
//! sketch size, [`BASE_SKETCH_K`], from which every smaller sketch the
//! pipeline asks for is derived exactly by truncation — so no entry is
//! ever rebuilt, and `misses = distinct fingerprints`. The default
//! capacity is sized so the repro workload never evicts.
//!
//! The cache is on by default; [`set_all_enabled`] toggles every tier at
//! runtime for A/B runs.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod artifacts;
mod disk;
pub mod durable;
mod fingerprint;
mod lru;
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
use lru::{lock_recover, ShardedLru};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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
    lru: ShardedLru<ColumnFingerprint, Arc<ColumnArtifacts>>,
    enabled: AtomicBool,
    /// Optional persistent tier consulted on in-memory misses (see
    /// [`DiskCache`]); attached from `AUTOSUGGEST_CACHE_DIR` on the global
    /// instance, `None` on plain `new()` instances.
    disk: Mutex<Option<Arc<DiskCache>>>,
}

/// The process-wide disk tier from `AUTOSUGGEST_CACHE_DIR`, opened once and
/// shared by the column and pair caches (a single size ledger and counter
/// set per directory). `None` when the env var is unset or unusable.
pub fn default_disk() -> Option<Arc<DiskCache>> {
    static GLOBAL: OnceLock<Option<Arc<DiskCache>>> = OnceLock::new();
    GLOBAL.get_or_init(DiskCache::from_env).clone()
}

/// Toggle every global cache tier at once (A/B runs).
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
            lru: ShardedLru::new(capacity, [HITS_COUNTER, MISSES_COUNTER, EVICTIONS_COUNTER]),
            enabled: AtomicBool::new(true),
            disk: Mutex::new(None),
        }
    }

    /// The process-wide cache used by the featurisers, initialised on first
    /// use with [`DEFAULT_CAPACITY`] and the `AUTOSUGGEST_CACHE_DIR` disk
    /// tier when configured.
    pub fn global() -> &'static ColumnCache {
        static GLOBAL: OnceLock<ColumnCache> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cache = ColumnCache::new(DEFAULT_CAPACITY);
            cache.set_disk(default_disk());
            cache
        })
    }

    /// Attach (or detach) a persistent disk tier for column-artifact shards.
    pub fn set_disk(&self, disk: Option<Arc<DiskCache>>) {
        *lock_recover(&self.disk) = disk;
    }

    /// The currently attached disk tier, if any.
    pub fn disk(&self) -> Option<Arc<DiskCache>> {
        lock_recover(&self.disk).clone()
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

    /// Fetch (or compute and intern) the artifacts for a column.
    ///
    /// An in-memory miss probes the disk tier before computing, and stores
    /// what it computed. Both run inside the LRU's shard lock, so the
    /// single-flight argument extends to disk: each distinct fingerprint is
    /// probed (and stored) at most once per process, keeping the
    /// `cache.disk.*` counters thread-invariant.
    pub fn artifacts(&self, col: &Column) -> Arc<ColumnArtifacts> {
        if !self.enabled() {
            return Arc::new(ColumnArtifacts::compute(col));
        }
        let fp = column_fingerprint(col);
        self.lru.get_or_insert_with(fp, (fp.0 >> 64) as u64, || {
            let disk = self.disk();
            if let Some(a) = disk.as_ref().and_then(|d| d.load_column(fp)) {
                return Arc::new(a);
            }
            let a = Arc::new(ColumnArtifacts::compute(col));
            if let Some(d) = &disk {
                d.store_column(fp, &a);
            }
            a
        })
    }

    /// Snapshot the cumulative counters.
    pub fn stats(&self) -> CacheStats {
        self.lru.stats()
    }

    /// Number of interned entries across all shards.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry and reset the counters (used between deterministic
    /// trace runs so each run observes a cold cache).
    pub fn clear(&self) {
        self.lru.clear();
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
        let direct = ColumnArtifacts::compute(&col);
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
        let x = cache.artifacts(&col);
        let y = cache.artifacts(&col);
        assert!(!Arc::ptr_eq(&x, &y));
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!(cache.len(), 0);
        cache.set_enabled(true);
        cache.artifacts(&col);
        assert_eq!(cache.stats().misses, 1);
    }
}
