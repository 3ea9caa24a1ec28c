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
//!
//! The cache lives in process memory only; nothing is kept on disk between
//! processes. The join featuriser's key-tuple sets are not cached here: a
//! caller featurises each table pair's candidates in one
//! `features::join_features_batch` call, which builds each distinct column
//! tuple's set once for that call.
//!
//! # Determinism contract
//!
//! `cache.{hits,misses,evictions}` are mirrored into the `autosuggest-obs`
//! deterministic section, so they must be byte-identical at any
//! `AUTOSUGGEST_THREADS`. The cache is one sharded LRU that computes a
//! missing value inside the owning shard's lock (single-flight per key; see
//! the `lru` module), and artifacts are always built at one sketch size,
//! [`BASE_SKETCH_K`], from which every smaller sketch the pipeline asks for
//! is derived exactly by truncation — so no entry is ever rebuilt, and
//! `misses = distinct fingerprints`. The default capacity is sized so the
//! repro workload never evicts.
//!
//! The cache is always on. It never changes an answer: a hit is the value a
//! recomputation would produce, so a cold run (after [`clear_memory`]) and
//! a warm run answer alike.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod artifacts;
mod fingerprint;
mod lru;
mod sketch;

pub use artifacts::{dtype_slot, ColumnArtifacts, BASE_SKETCH_K};
pub use fingerprint::{column_fingerprint, table_row_fingerprint, ColumnFingerprint};
pub use sketch::MinHashSketch;

use autosuggest_dataframe::Column;
use lru::ShardedLru;
use std::sync::{Arc, OnceLock};

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
}

/// Drop every entry in the global cache and reset its counters.
pub fn clear_memory() {
    ColumnCache::global().clear();
}

/// Counter snapshot of the global cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierStats {
    pub column: CacheStats,
    /// Always zero: there is no tuple-set tier. Kept because perfbench
    /// still reads it.
    pub tuple: CacheStats,
    /// Always zero: there is no pair-overlap tier. Kept because perfbench
    /// still reads it.
    pub pair: CacheStats,
}

impl TierStats {
    /// Per-tier counter deltas since an earlier snapshot.
    pub fn since(&self, earlier: &TierStats) -> TierStats {
        TierStats {
            column: self.column.since(&earlier.column),
            tuple: self.tuple.since(&earlier.tuple),
            pair: self.pair.since(&earlier.pair),
        }
    }
}

/// Snapshot the global cache's counters.
pub fn tier_stats() -> TierStats {
    TierStats { column: ColumnCache::global().stats(), ..TierStats::default() }
}

impl ColumnCache {
    /// A cache holding at most `capacity` entries in total (rounded up to at
    /// least one entry per shard).
    pub fn new(capacity: usize) -> Self {
        ColumnCache {
            lru: ShardedLru::new(capacity, [HITS_COUNTER, MISSES_COUNTER, EVICTIONS_COUNTER]),
        }
    }

    /// The process-wide cache used by the featurisers, initialised on first
    /// use with [`DEFAULT_CAPACITY`].
    pub fn global() -> &'static ColumnCache {
        static GLOBAL: OnceLock<ColumnCache> = OnceLock::new();
        GLOBAL.get_or_init(|| ColumnCache::new(DEFAULT_CAPACITY))
    }

    /// Fetch (or compute and intern) the artifacts for a column.
    pub fn artifacts(&self, col: &Column) -> Arc<ColumnArtifacts> {
        let fp = column_fingerprint(col);
        self.lru.get_or_insert_with(fp, (fp.0 >> 64) as u64, || {
            Arc::new(ColumnArtifacts::compute(col))
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
}
