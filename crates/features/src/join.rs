//! Join-candidate features (§4.1) — the eight groups of Table 4.
//!
//! [`join_features_batch`] is the one featuriser: a caller enumerates a
//! table pair's candidates once, featurises them in one call and lets every
//! ranker read the same vectors. Within a call, each distinct key-column
//! tuple's set of key-tuple hashes is built once and shared by every
//! candidate that uses it; per-column dtypes and ranges come from the
//! process-wide column cache (`autosuggest_cache`).

use crate::candidates::JoinCandidate;
use autosuggest_cache::{ColumnArtifacts, ColumnCache};
use autosuggest_dataframe::{DataFrame, DType, Value};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Names of the join feature vector entries, in extraction order.
pub const JOIN_FEATURE_NAMES: [&str; 18] = [
    "distinct_ratio_left",
    "distinct_ratio_right",
    "distinct_ratio_max",
    "jaccard_similarity",
    "containment_left_in_right",
    "containment_right_in_left",
    "containment_max",
    "range_overlap",
    "key_is_string",
    "key_is_int",
    "key_is_float",
    "leftness_abs_left",
    "leftness_rel_left",
    "leftness_abs_right",
    "leftness_rel_right",
    "sortedness",
    "single_column",
    "table_stats_row_ratio",
];

/// Feature-index → feature-group mapping used to aggregate GBDT importances
/// into the eight groups of Table 4.
pub const JOIN_FEATURE_GROUPS: [(usize, &str); 18] = [
    (0, "distinct-val-ratio"),
    (1, "distinct-val-ratio"),
    (2, "distinct-val-ratio"),
    (3, "val-overlap"),
    (4, "val-overlap"),
    (5, "val-overlap"),
    (6, "val-overlap"),
    (7, "val-range-overlap"),
    (8, "col-val-types"),
    (9, "col-val-types"),
    (10, "col-val-types"),
    (11, "left-ness"),
    (12, "left-ness"),
    (13, "left-ness"),
    (14, "left-ness"),
    (15, "sorted-ness"),
    (16, "single-col-candidate"),
    (17, "table-stats"),
];

/// The extracted feature vector for one join candidate, with named access
/// for tests and explanations.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinFeatures {
    pub values: Vec<f64>,
}

impl JoinFeatures {
    pub fn get(&self, name: &str) -> f64 {
        let idx = JOIN_FEATURE_NAMES
            .iter()
            .position(|&n| n == name)
            .unwrap_or_else(|| panic!("unknown join feature {name:?}"));
        self.values[idx]
    }
}

/// Hash one key tuple: a `DefaultHasher` fed each cell in column order.
fn tuple_hash(vals: &[&Value]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for v in vals {
        v.hash(&mut h);
    }
    h.finish()
}

/// The distinct non-null key-tuple hashes of one `(table, column tuple)`,
/// sorted ascending. Containment, jaccard and the distinct ratio all derive
/// from two such sets' sizes and their intersection.
#[derive(Debug)]
struct KeyTupleSet {
    hashes: Vec<u64>,
}

impl KeyTupleSet {
    /// Hash every key tuple of `cols` and deduplicate. Rows with any null
    /// key cell are skipped: a null never matches in a join.
    fn new(df: &DataFrame, cols: &[usize]) -> KeyTupleSet {
        let mut hashes = Vec::with_capacity(df.num_rows());
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
            hashes.push(tuple_hash(&vals));
        }
        hashes.sort_unstable();
        hashes.dedup();
        KeyTupleSet { hashes }
    }

    /// Number of distinct non-null key tuples.
    fn len(&self) -> usize {
        self.hashes.len()
    }

    fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Exact `|self ∩ other|` via a linear merge over the sorted hashes —
    /// the same count a `HashSet::intersection` of the two sets produces.
    fn intersection_size(&self, other: &KeyTupleSet) -> usize {
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

/// Extract the §4.1 feature vector of every candidate of one table pair.
///
/// Candidates repeat column tuples heavily (every two-column candidate
/// reuses two single-column candidates' columns), so each distinct
/// `(side, column tuple)` builds its set of key-tuple hashes once per call,
/// fanned out over the pool; candidates are then featurised across the pool
/// from those sets. Output order matches `cands`, and each vector is the one
/// a one-element call would produce. Featurise a case's candidates in one
/// call and let every consumer read the vectors.
pub fn join_features_batch(
    left: &DataFrame,
    right: &DataFrame,
    cands: &[JoinCandidate],
) -> Vec<JoinFeatures> {
    let mut ltuples: Vec<&[usize]> = Vec::new();
    let mut rtuples: Vec<&[usize]> = Vec::new();
    for cand in cands {
        if !ltuples.contains(&cand.left_cols.as_slice()) {
            ltuples.push(&cand.left_cols);
        }
        if !rtuples.contains(&cand.right_cols.as_slice()) {
            rtuples.push(&cand.right_cols);
        }
    }
    let pool = autosuggest_parallel::Pool::global().with_min_items(8);
    let lsets = pool.par_map(&ltuples, |cols| KeyTupleSet::new(left, cols));
    let rsets = pool.par_map(&rtuples, |cols| KeyTupleSet::new(right, cols));
    let lmap: HashMap<&[usize], &KeyTupleSet> = ltuples.iter().copied().zip(&lsets).collect();
    let rmap: HashMap<&[usize], &KeyTupleSet> = rtuples.iter().copied().zip(&rsets).collect();
    pool.with_min_items(16).par_map(cands, |cand| {
        let lkeys = lmap[cand.left_cols.as_slice()];
        let rkeys = rmap[cand.right_cols.as_slice()];
        join_features_with_sets(left, right, cand, lkeys, rkeys)
    })
}

/// The feature computation proper, over precomputed key-tuple sets.
fn join_features_with_sets(
    left: &DataFrame,
    right: &DataFrame,
    cand: &JoinCandidate,
    lkeys: &KeyTupleSet,
    rkeys: &KeyTupleSet,
) -> JoinFeatures {
    assert_eq!(cand.left_cols.len(), cand.right_cols.len());
    assert!(!cand.left_cols.is_empty());

    let lrows = left.num_rows().max(1);
    let rrows = right.num_rows().max(1);

    // Distinct-value-ratio over key tuples.
    let distinct_l = lkeys.len() as f64 / lrows as f64;
    let distinct_r = rkeys.len() as f64 / rrows as f64;

    // Exact value overlap on tuple hashes (tables at replay scale are small
    // enough to afford exact sets; sketches are only for pruning).
    let inter = lkeys.intersection_size(rkeys) as f64;
    let union = (lkeys.len() + rkeys.len()) as f64 - inter;
    let jaccard = if union > 0.0 { inter / union } else { 0.0 };
    let cont_l = if !lkeys.is_empty() { inter / lkeys.len() as f64 } else { 0.0 };
    let cont_r = if !rkeys.is_empty() { inter / rkeys.len() as f64 } else { 0.0 };

    // Per-key-column dtypes and numeric ranges come from the
    // content-addressed cache: key columns recur across the many candidates
    // of one table pair, so these statistics are fetched once per distinct
    // column content (artifact values delegate to the same `Column` methods
    // previously called inline). Sorted-ness stays a direct column call —
    // it is row-order-sensitive and deliberately not cached.
    let cache = ColumnCache::global();
    let larts: Vec<Arc<ColumnArtifacts>> =
        cand.left_cols.iter().map(|&c| cache.artifacts(left.column_at(c))).collect();
    let rarts: Vec<Arc<ColumnArtifacts>> =
        cand.right_cols.iter().map(|&c| cache.artifacts(right.column_at(c))).collect();

    // Value-range-overlap: only defined for single-column numeric pairs;
    // multi-column candidates average their per-position overlaps.
    let mut range_overlaps = Vec::with_capacity(cand.left_cols.len());
    for (lcol, rcol) in larts.iter().zip(&rarts) {
        if lcol.dtype().is_numeric() && rcol.dtype().is_numeric() {
            if let (Some((llo, lhi)), Some((rlo, rhi))) =
                (lcol.min_max(), rcol.min_max())
            {
                let inter = (lhi.min(rhi) - llo.max(rlo)).max(0.0);
                let uni = (lhi.max(rhi) - llo.min(rlo)).max(f64::EPSILON);
                // Point ranges (single distinct value) count as full overlap
                // when they coincide.
                let ov = if uni <= f64::EPSILON { 1.0 } else { inter / uni };
                range_overlaps.push(ov);
            } else {
                range_overlaps.push(0.0);
            }
        } else if lcol.dtype() == DType::Str && rcol.dtype() == DType::Str {
            // For strings, range overlap is undefined; use the value overlap
            // itself as the stand-in (string overlap is trustworthy, §4.1).
            range_overlaps.push(jaccard);
        } else {
            range_overlaps.push(0.0);
        }
    }
    let range_overlap =
        range_overlaps.iter().sum::<f64>() / range_overlaps.len() as f64;

    // Key dtype indicators (unified across positions: "string key" only when
    // every key column is a string, etc.).
    let all_dtype = |want: fn(DType) -> bool| -> f64 {
        let ok = larts
            .iter()
            .zip(&rarts)
            .all(|(l, r)| want(l.dtype()) && want(r.dtype()));
        if ok {
            1.0
        } else {
            0.0
        }
    };
    let key_is_string = all_dtype(|d| d == DType::Str);
    let key_is_int = all_dtype(|d| d == DType::Int);
    let key_is_float = all_dtype(|d| matches!(d, DType::Float | DType::Int));

    // Left-ness: average column positions, absolute and relative.
    let avg = |cols: &[usize]| cols.iter().sum::<usize>() as f64 / cols.len() as f64;
    let labs = avg(&cand.left_cols);
    let rabs = avg(&cand.right_cols);
    let lrel = labs / left.num_columns().max(1) as f64;
    let rrel = rabs / right.num_columns().max(1) as f64;

    // Sorted-ness: fraction of key columns that are sorted, both sides.
    let sorted_frac = {
        let mut sorted = 0usize;
        let mut total = 0usize;
        for &c in &cand.left_cols {
            total += 1;
            if left.column_at(c).is_sorted() {
                sorted += 1;
            }
        }
        for &c in &cand.right_cols {
            total += 1;
            if right.column_at(c).is_sorted() {
                sorted += 1;
            }
        }
        sorted as f64 / total as f64
    };

    let single = if cand.left_cols.len() == 1 { 1.0 } else { 0.0 };
    let row_ratio = lrows as f64 / rrows as f64;

    JoinFeatures {
        values: vec![
            distinct_l,
            distinct_r,
            distinct_l.max(distinct_r),
            jaccard,
            cont_l,
            cont_r,
            cont_l.max(cont_r),
            range_overlap,
            key_is_string,
            key_is_int,
            key_is_float,
            labs,
            lrel,
            rabs,
            rrel,
            sorted_frac,
            single,
            row_ratio.min(100.0),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn featurise_one(left: &DataFrame, right: &DataFrame, cand: &JoinCandidate) -> JoinFeatures {
        join_features_batch(left, right, std::slice::from_ref(cand)).remove(0)
    }

    fn ints(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&i| Value::Int(i)).collect()
    }

    #[test]
    fn key_tuple_set_matches_hashset_semantics() {
        // Null rows skipped, duplicates collapsed — the contract of a
        // `HashSet` of the non-null tuple hashes.
        let t = DataFrame::from_columns(vec![
            ("a", vec![Value::Int(1), Value::Null, Value::Int(1), Value::Int(2)]),
            ("b", vec![Value::Int(5), Value::Int(6), Value::Int(5), Value::Int(7)]),
        ])
        .unwrap();
        let set = KeyTupleSet::new(&t, &[0, 1]);
        assert_eq!(set.len(), 2); // (1,5) twice → once; null row skipped
        assert!(set.hashes.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn intersection_matches_hashset_intersection() {
        let l = DataFrame::from_columns(vec![("a", ints(&[1, 2, 3, 4, 5]))]).unwrap();
        let r = DataFrame::from_columns(vec![("a", ints(&[4, 5, 6, 7]))]).unwrap();
        let ls = KeyTupleSet::new(&l, &[0]);
        let rs = KeyTupleSet::new(&r, &[0]);
        let lh: HashSet<u64> = ls.hashes.iter().copied().collect();
        let rh: HashSet<u64> = rs.hashes.iter().copied().collect();
        assert_eq!(ls.intersection_size(&rs), lh.intersection(&rh).count());
        assert_eq!(ls.intersection_size(&rs), 2);
        assert_eq!(rs.intersection_size(&ls), 2);
    }

    #[test]
    fn tuple_sets_are_row_aligned() {
        // Re-pairing values across columns keeps every per-column multiset
        // but changes the tuples, so the overlap must drop.
        let t = DataFrame::from_columns(vec![("a", ints(&[1, 2])), ("b", ints(&[10, 20]))]).unwrap();
        let crossed =
            DataFrame::from_columns(vec![("a", ints(&[1, 2])), ("b", ints(&[20, 10]))]).unwrap();
        let ts = KeyTupleSet::new(&t, &[0, 1]);
        assert_eq!(ts.intersection_size(&KeyTupleSet::new(&t, &[0, 1])), 2);
        assert_eq!(ts.intersection_size(&KeyTupleSet::new(&crossed, &[0, 1])), 0);
    }

    fn books() -> (DataFrame, DataFrame) {
        // Fig. 5 of the paper: the title columns are the true join despite
        // imperfect containment; rank/weeks have accidental full containment.
        let left = DataFrame::from_columns(vec![
            (
                "title",
                ["dune", "it", "emma", "holes"]
                    .iter()
                    .map(|s| Value::Str((*s).into()))
                    .collect(),
            ),
            ("rank_on_list", (1..=4).map(Value::Int).collect()),
        ])
        .unwrap();
        let right = DataFrame::from_columns(vec![
            (
                "title_on_list",
                ["dune", "emma", "gatsby"]
                    .iter()
                    .map(|s| Value::Str((*s).into()))
                    .collect(),
            ),
            ("weeks_on_list", vec![Value::Int(2), Value::Int(3), Value::Int(1)]),
        ])
        .unwrap();
        (left, right)
    }

    #[test]
    fn feature_vector_matches_name_table() {
        let (l, r) = books();
        let f = featurise_one(&l, &r, &JoinCandidate { left_cols: vec![0], right_cols: vec![0] });
        assert_eq!(f.values.len(), JOIN_FEATURE_NAMES.len());
        assert_eq!(f.values.len(), JOIN_FEATURE_GROUPS.len());
    }

    #[test]
    fn title_pair_has_partial_overlap_and_string_type() {
        let (l, r) = books();
        let f = featurise_one(&l, &r, &JoinCandidate { left_cols: vec![0], right_cols: vec![0] });
        // 2 shared titles of 5 distinct → jaccard 0.4.
        assert!((f.get("jaccard_similarity") - 2.0 / 5.0).abs() < 1e-9);
        assert_eq!(f.get("key_is_string"), 1.0);
        assert_eq!(f.get("leftness_abs_left"), 0.0);
        assert_eq!(f.get("single_column"), 1.0);
    }

    #[test]
    fn accidental_integer_containment_scores_high_overlap_low_range_signal() {
        // rank 1..=4 fully contains weeks {1,2,3}: high containment, but the
        // int-type indicator (not string) lets the model discount it.
        let (l, r) = books();
        let f = featurise_one(&l, &r, &JoinCandidate { left_cols: vec![1], right_cols: vec![1] });
        assert_eq!(f.get("containment_right_in_left"), 1.0);
        assert_eq!(f.get("key_is_string"), 0.0);
        assert_eq!(f.get("key_is_int"), 1.0);
    }

    #[test]
    fn distinct_ratio_detects_keys() {
        let (l, r) = books();
        let f = featurise_one(&l, &r, &JoinCandidate { left_cols: vec![0], right_cols: vec![0] });
        assert_eq!(f.get("distinct_ratio_left"), 1.0);
        assert_eq!(f.get("distinct_ratio_right"), 1.0);
    }

    #[test]
    fn range_overlap_for_disjoint_int_ranges_is_zero() {
        let l = DataFrame::from_columns(vec![("a", (0..10).map(Value::Int).collect())]).unwrap();
        let r = DataFrame::from_columns(vec![(
            "b",
            (100..110).map(Value::Int).collect(),
        )])
        .unwrap();
        let f = featurise_one(&l, &r, &JoinCandidate { left_cols: vec![0], right_cols: vec![0] });
        assert_eq!(f.get("range_overlap"), 0.0);
    }

    #[test]
    fn multi_column_candidate_features() {
        let l = DataFrame::from_columns(vec![
            ("a", (0..6).map(Value::Int).collect()),
            ("b", (0..6).map(|i| Value::Int(i % 2)).collect()),
        ])
        .unwrap();
        let f = featurise_one(
            &l,
            &l.clone(),
            &JoinCandidate { left_cols: vec![0, 1], right_cols: vec![0, 1] },
        );
        assert_eq!(f.get("single_column"), 0.0);
        assert_eq!(f.get("jaccard_similarity"), 1.0);
        assert_eq!(f.get("leftness_abs_left"), 0.5);
    }

    #[test]
    fn row_ratio_is_capped() {
        let l = DataFrame::from_columns(vec![(
            "a",
            (0..5000).map(|i| Value::Int(i % 50)).collect(),
        )])
        .unwrap();
        let r = DataFrame::from_columns(vec![("a", (0..50).map(Value::Int).collect())]).unwrap();
        let f = featurise_one(&l, &r, &JoinCandidate { left_cols: vec![0], right_cols: vec![0] });
        assert_eq!(f.get("table_stats_row_ratio"), 100.0);
    }

    #[test]
    #[should_panic(expected = "unknown join feature")]
    fn unknown_feature_name_panics() {
        let (l, r) = books();
        featurise_one(&l, &r, &JoinCandidate { left_cols: vec![0], right_cols: vec![0] })
            .get("bogus");
    }
}
