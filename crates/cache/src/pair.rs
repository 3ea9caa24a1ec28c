//! Pair-aware cache tier: key-tuple sets and pair-level overlap results.
//!
//! The §4.1 join featuriser needs, for every candidate `(S, S')`, the set
//! of distinct non-null key-*tuple* hashes on each side and the exact
//! intersection of the two sets (containment, jaccard and distinct-ratio
//! all derive from those three numbers). Before this tier, every candidate
//! pair rebuilt both hash sets and re-ran the intersection even though the
//! same column tuples recur across dozens of candidates per table pair.
//!
//! Two `ShardedLru` tiers memoize that work, with the same single-flight
//! and deterministic-counter discipline as the column cache:
//!
//! * **Tuple-set tier** — `tuple fingerprint → Arc<KeyTupleSet>`: the
//!   sorted, deduplicated tuple hashes of one `(table, column tuple)`. The
//!   fingerprint is a [`tagged multiset fingerprint`] of the *tuple hash
//!   stream itself* (tagged with the tuple width), so it keys the exact
//!   row-aligned content: two column tuples share an entry iff they produce
//!   the same multiset of key tuples. (Keying by per-column fingerprints
//!   would be unsound for multi-column tuples — two tables whose columns
//!   are multiset-equal but row-aligned differently have different tuple
//!   sets.)
//! * **Pair tier** — `ordered (fingerprint, fingerprint) → intersection
//!   size`: the expensive exact overlap between two tuple sets, computed
//!   once per distinct content pair via a linear merge over the sorted
//!   hashes. Keys are normalised to `(min, max)` so both lookup directions
//!   share one entry (intersection is symmetric; the direction-sensitive
//!   containments are derived by the caller from the two set sizes).
//!
//! Counters mirror into the deterministic obs section as `cache.tuple.*`
//! and `cache.pair.*`.
//!
//! [`tagged multiset fingerprint`]: crate::fingerprint

use crate::fingerprint::tagged_multiset_fingerprint;
use crate::lru::ShardedLru;
use crate::{CacheStats, ColumnFingerprint, DEFAULT_CAPACITY};
use autosuggest_dataframe::DataFrame;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// Obs counter names for the tuple-set tier (deterministic section).
pub const TUPLE_HITS_COUNTER: &str = "cache.tuple.hits";
pub const TUPLE_MISSES_COUNTER: &str = "cache.tuple.misses";
pub const TUPLE_EVICTIONS_COUNTER: &str = "cache.tuple.evictions";

/// Obs counter names for the pair tier (deterministic section).
pub const PAIR_HITS_COUNTER: &str = "cache.pair.hits";
pub const PAIR_MISSES_COUNTER: &str = "cache.pair.misses";
pub const PAIR_EVICTIONS_COUNTER: &str = "cache.pair.evictions";

/// Domain tag separating tuple-set fingerprints (of a given width) from
/// column-value fingerprints.
fn width_tag(width: usize) -> u64 {
    0x7455_504c_4553_4554u64 ^ (width as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Hash one key tuple exactly as `features::candidates` historically did:
/// a `DefaultHasher` fed each cell in column order.
fn tuple_hash(vals: &[&autosuggest_dataframe::Value]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for v in vals {
        v.hash(&mut h);
    }
    h.finish()
}

/// The interned result for one `(table, column tuple)`: the distinct
/// non-null key-tuple hashes, sorted ascending, plus the content
/// fingerprint they are keyed under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyTupleSet {
    fingerprint: ColumnFingerprint,
    width: usize,
    /// Distinct tuple hashes, sorted ascending (supports linear-merge
    /// intersection and exact binary-search membership).
    hashes: Vec<u64>,
}

impl KeyTupleSet {
    /// Hash every non-null key tuple of `cols` in row order (rows with any
    /// null key cell are skipped, matching `key_tuple_hashes`), without
    /// deduplicating. This is the unavoidable per-lookup pass: it both
    /// derives the content fingerprint and feeds the (cached) dedup.
    pub fn raw_tuple_hashes(df: &DataFrame, cols: &[usize]) -> Vec<u64> {
        let mut out = Vec::with_capacity(df.num_rows());
        let mut vals = Vec::with_capacity(cols.len());
        'row: for i in 0..df.num_rows() {
            vals.clear();
            for &c in cols {
                let v = df.column_at(c).get(i);
                if v.is_null() {
                    continue 'row;
                }
                vals.push(v);
            }
            out.push(tuple_hash(&vals));
        }
        out
    }

    /// Fingerprint a raw tuple-hash stream: a width-tagged multiset digest,
    /// so equal fingerprints mean equal tuple multisets (up to row order)
    /// and tuples of different widths can never collide.
    pub fn fingerprint_hashes(raw: &[u64], width: usize) -> ColumnFingerprint {
        tagged_multiset_fingerprint(raw.iter().copied(), raw.len(), width_tag(width))
    }

    /// Compute the full set directly (the cache-off path).
    pub fn compute(df: &DataFrame, cols: &[usize]) -> KeyTupleSet {
        let raw = Self::raw_tuple_hashes(df, cols);
        let fingerprint = Self::fingerprint_hashes(&raw, cols.len());
        Self::from_raw(raw, cols.len(), fingerprint)
    }

    fn from_raw(mut raw: Vec<u64>, width: usize, fingerprint: ColumnFingerprint) -> KeyTupleSet {
        raw.sort_unstable();
        raw.dedup();
        KeyTupleSet { fingerprint, width, hashes: raw }
    }

    pub fn fingerprint(&self) -> ColumnFingerprint {
        self.fingerprint
    }

    /// Tuple width (number of key columns).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of distinct non-null key tuples.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The distinct tuple hashes, sorted ascending.
    pub fn hashes(&self) -> &[u64] {
        &self.hashes
    }

    /// Exact `|self ∩ other|` via a linear merge over the sorted hashes —
    /// the same count a `HashSet::intersection` of the two sets produces.
    pub fn intersection_size(&self, other: &KeyTupleSet) -> usize {
        let (a, b) = (&self.hashes, &other.hashes);
        let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }
}

/// The memoized pair-level overlap between two tuple sets. Containment and
/// jaccard derive from this plus the (known) set sizes, so only the
/// symmetric intersection is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairOverlap {
    pub intersection: usize,
}

/// Default entry budgets. Tuple sets carry a `Vec<u64>` per table-rows, so
/// their tier is smaller than the (tiny) pair-overlap tier.
pub const DEFAULT_TUPLE_CAPACITY: usize = 8_192;
pub const DEFAULT_PAIR_CAPACITY: usize = DEFAULT_CAPACITY;

/// The pair-aware cache tier: interned [`KeyTupleSet`]s plus memoized
/// pair-level intersections.
pub struct PairCache {
    sets: ShardedLru<ColumnFingerprint, Arc<KeyTupleSet>>,
    pairs: ShardedLru<(ColumnFingerprint, ColumnFingerprint), PairOverlap>,
}

impl PairCache {
    pub fn new(tuple_capacity: usize, pair_capacity: usize) -> Self {
        PairCache {
            sets: ShardedLru::new(
                tuple_capacity,
                [TUPLE_HITS_COUNTER, TUPLE_MISSES_COUNTER, TUPLE_EVICTIONS_COUNTER],
            ),
            pairs: ShardedLru::new(
                pair_capacity,
                [PAIR_HITS_COUNTER, PAIR_MISSES_COUNTER, PAIR_EVICTIONS_COUNTER],
            ),
        }
    }

    /// The process-wide pair tier used by the join featuriser.
    pub fn global() -> &'static PairCache {
        static GLOBAL: OnceLock<PairCache> = OnceLock::new();
        GLOBAL.get_or_init(|| PairCache::new(DEFAULT_TUPLE_CAPACITY, DEFAULT_PAIR_CAPACITY))
    }

    /// Fetch (or compute and intern) the distinct key-tuple set for
    /// `(df, cols)`.
    ///
    /// The per-call cost is one hashing pass over the rows (which derives
    /// the content key); the dedup/sort happens at most once per distinct
    /// content. Callers batching many candidates should additionally
    /// memoize by column tuple via `features::join_features_batch`, which
    /// skips even the hashing pass for repeated tuples within a request.
    pub fn key_tuples(&self, df: &DataFrame, cols: &[usize]) -> Arc<KeyTupleSet> {
        let raw = KeyTupleSet::raw_tuple_hashes(df, cols);
        let fp = KeyTupleSet::fingerprint_hashes(&raw, cols.len());
        self.sets.get_or_insert_with(fp, (fp.0 >> 64) as u64, || {
            Arc::new(KeyTupleSet::from_raw(raw, cols.len(), fp))
        })
    }

    /// Exact `|left ∩ right|`, memoized under the normalised (unordered)
    /// fingerprint pair.
    pub fn intersection(&self, left: &KeyTupleSet, right: &KeyTupleSet) -> usize {
        let (a, b) = (left.fingerprint(), right.fingerprint());
        let key = if a <= b { (a, b) } else { (b, a) };
        let shard_sel = (key.0 .0 >> 64) as u64 ^ (key.1 .0 as u64);
        self.pairs
            .get_or_insert_with(key, shard_sel, || PairOverlap {
                intersection: left.intersection_size(right),
            })
            .intersection
    }

    /// Counters for the tuple-set tier.
    pub fn tuple_stats(&self) -> CacheStats {
        self.sets.stats()
    }

    /// Counters for the pair-overlap tier.
    pub fn pair_stats(&self) -> CacheStats {
        self.pairs.stats()
    }

    /// Interned entries (tuple sets, pair overlaps).
    pub fn len(&self) -> (usize, usize) {
        (self.sets.len(), self.pairs.len())
    }

    pub fn is_empty(&self) -> bool {
        self.sets.len() == 0 && self.pairs.len() == 0
    }

    /// Drop every entry and reset the counters in both tiers.
    pub fn clear(&self) {
        self.sets.clear();
        self.pairs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosuggest_dataframe::Value;
    use std::collections::HashSet;

    fn df(cols: Vec<(&str, Vec<Value>)>) -> DataFrame {
        DataFrame::from_columns(cols).unwrap()
    }

    fn ints(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&i| Value::Int(i)).collect()
    }

    #[test]
    fn key_tuple_set_matches_hashset_semantics() {
        // Null rows skipped, duplicates collapsed — same contract as
        // features::candidates::key_tuple_hashes.
        let t = df(vec![
            ("a", vec![Value::Int(1), Value::Null, Value::Int(1), Value::Int(2)]),
            ("b", vec![Value::Int(5), Value::Int(6), Value::Int(5), Value::Int(7)]),
        ]);
        let set = KeyTupleSet::compute(&t, &[0, 1]);
        assert_eq!(set.len(), 2); // (1,5) twice → once; null row skipped
        assert_eq!(set.width(), 2);
        assert!(set.hashes().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn intersection_matches_hashset_intersection() {
        let l = df(vec![("a", ints(&[1, 2, 3, 4, 5]))]);
        let r = df(vec![("a", ints(&[4, 5, 6, 7]))]);
        let ls = KeyTupleSet::compute(&l, &[0]);
        let rs = KeyTupleSet::compute(&r, &[0]);
        let lh: HashSet<u64> = ls.hashes().iter().copied().collect();
        let rh: HashSet<u64> = rs.hashes().iter().copied().collect();
        assert_eq!(ls.intersection_size(&rs), lh.intersection(&rh).count());
        assert_eq!(ls.intersection_size(&rs), 2);
        assert_eq!(rs.intersection_size(&ls), 2);
    }

    #[test]
    fn fingerprint_is_row_order_insensitive_and_alignment_sensitive() {
        // Whole-row permutation → same tuple multiset → same fingerprint.
        let t1 = df(vec![("a", ints(&[1, 2])), ("b", ints(&[10, 20]))]);
        let t2 = df(vec![("a", ints(&[2, 1])), ("b", ints(&[20, 10]))]);
        assert_eq!(
            KeyTupleSet::compute(&t1, &[0, 1]).fingerprint(),
            KeyTupleSet::compute(&t2, &[0, 1]).fingerprint()
        );
        // Re-pairing values across columns (same per-column multisets!)
        // changes the tuples and must change the fingerprint — the case a
        // per-column-fingerprint key would conflate.
        let misaligned = df(vec![("a", ints(&[1, 2])), ("b", ints(&[20, 10]))]);
        assert_ne!(
            KeyTupleSet::compute(&t1, &[0, 1]).fingerprint(),
            KeyTupleSet::compute(&misaligned, &[0, 1]).fingerprint()
        );
    }

    #[test]
    fn width_is_part_of_the_key() {
        // A single column's tuple stream for width 1 vs the same hashes in
        // a different role must not collide (tag mixes the width in).
        let t = df(vec![("a", ints(&[1, 2, 3]))]);
        let raw = KeyTupleSet::raw_tuple_hashes(&t, &[0]);
        assert_ne!(
            KeyTupleSet::fingerprint_hashes(&raw, 1),
            KeyTupleSet::fingerprint_hashes(&raw, 2)
        );
    }

    #[test]
    fn tuple_tier_interns_and_counts_deterministically() {
        let cache = PairCache::new(64, 64);
        let t = df(vec![("a", ints(&[1, 2, 3]))]);
        let s1 = cache.key_tuples(&t, &[0]);
        let s2 = cache.key_tuples(&t, &[0]);
        assert!(Arc::ptr_eq(&s1, &s2));
        assert_eq!(cache.tuple_stats(), CacheStats { hits: 1, misses: 1, evictions: 0 });
    }

    #[test]
    fn pair_tier_is_symmetric_and_single_entry() {
        let cache = PairCache::new(64, 64);
        let l = df(vec![("a", ints(&[1, 2, 3]))]);
        let r = df(vec![("a", ints(&[2, 3, 4]))]);
        let ls = cache.key_tuples(&l, &[0]);
        let rs = cache.key_tuples(&r, &[0]);
        assert_eq!(cache.intersection(&ls, &rs), 2);
        assert_eq!(cache.intersection(&rs, &ls), 2);
        // Both directions share the normalised key: 1 miss + 1 hit.
        assert_eq!(cache.pair_stats(), CacheStats { hits: 1, misses: 1, evictions: 0 });
        assert_eq!(cache.len().1, 1);
    }

    #[test]
    fn concurrent_lookups_have_deterministic_counters() {
        let cache = Arc::new(PairCache::new(256, 256));
        let tables: Arc<Vec<DataFrame>> = Arc::new(
            (0..8).map(|i| df(vec![("a", ints(&[i, i + 1, i + 2]))])).collect(),
        );
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let tables = Arc::clone(&tables);
                std::thread::spawn(move || {
                    let sets: Vec<_> =
                        tables.iter().map(|t| cache.key_tuples(t, &[0])).collect();
                    for w in sets.windows(2) {
                        cache.intersection(&w[0], &w[1]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // 4 threads × 8 tuple lookups: 8 distinct → 8 misses, 24 hits.
        assert_eq!(cache.tuple_stats(), CacheStats { hits: 24, misses: 8, evictions: 0 });
        // 4 threads × 7 pair lookups: 7 distinct → 7 misses, 21 hits.
        assert_eq!(cache.pair_stats(), CacheStats { hits: 21, misses: 7, evictions: 0 });
    }

    #[test]
    fn clear_resets_both_tiers() {
        let cache = PairCache::new(64, 64);
        let t = df(vec![("a", ints(&[1, 2]))]);
        let s = cache.key_tuples(&t, &[0]);
        cache.intersection(&s, &s);
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.tuple_stats(), CacheStats::default());
        assert_eq!(cache.pair_stats(), CacheStats::default());
    }

    #[test]
    fn obs_counters_mirror_lookups() {
        let ((), snap) = autosuggest_obs::with_local_registry(|| {
            let cache = PairCache::new(64, 64);
            let t = df(vec![("a", ints(&[1, 2, 3]))]);
            let s = cache.key_tuples(&t, &[0]);
            cache.key_tuples(&t, &[0]);
            cache.intersection(&s, &s);
        });
        let det = snap.deterministic_value().to_string();
        for name in
            [TUPLE_HITS_COUNTER, TUPLE_MISSES_COUNTER, PAIR_MISSES_COUNTER]
        {
            assert!(det.contains(name), "missing {name} in {det}");
        }
    }
}
