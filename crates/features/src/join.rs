//! Join-candidate features (§4.1) — the eight groups of Table 4.

use crate::candidates::JoinCandidate;
use autosuggest_cache::{ColumnArtifacts, ColumnCache, KeyTupleSet, PairCache};
use autosuggest_dataframe::{DataFrame, DType};
use std::collections::HashMap;
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

/// Extract the §4.1 feature vector for candidate `(S, S')`.
///
/// Key-tuple sets and the pair-level intersection come from the pair-aware
/// cache tier (`autosuggest_cache::PairCache`): each distinct
/// `(content, key tuple)` builds its set once and each distinct content
/// *pair* intersects once, process-wide. Callers featurising many
/// candidates for one table pair should prefer [`join_features_batch`],
/// which additionally hoists the per-tuple hashing pass out of the
/// per-candidate path.
pub fn join_features(
    left: &DataFrame,
    right: &DataFrame,
    cand: &JoinCandidate,
) -> JoinFeatures {
    let pairs = PairCache::global();
    let lkeys = pairs.key_tuples(left, &cand.left_cols);
    let rkeys = pairs.key_tuples(right, &cand.right_cols);
    join_features_with_sets(left, right, cand, &lkeys, &rkeys)
}

/// Extract feature vectors for every candidate of one table pair, sharing
/// key-tuple sets across candidates.
///
/// This is the hot batched path: each distinct `(side, column tuple)` of
/// the request is hashed and fetched exactly once (candidates repeat
/// tuples heavily — every two-column candidate reuses two single-column
/// sets' columns, and `rank_candidates`/training touch the same tuples for
/// hundreds of candidates), then candidates are featurised across the pool
/// with the memoized sets. Output order matches `cands`; every vector is
/// bit-identical to calling [`join_features`] per candidate.
pub fn join_features_batch(
    left: &DataFrame,
    right: &DataFrame,
    cands: &[JoinCandidate],
) -> Vec<JoinFeatures> {
    let pairs = PairCache::global();
    // Distinct column tuples per side, in first-appearance order so cache
    // counters stay independent of the candidate mix.
    let mut ltuples: Vec<Vec<usize>> = Vec::new();
    let mut rtuples: Vec<Vec<usize>> = Vec::new();
    for cand in cands {
        if !ltuples.contains(&cand.left_cols) {
            ltuples.push(cand.left_cols.clone());
        }
        if !rtuples.contains(&cand.right_cols) {
            rtuples.push(cand.right_cols.clone());
        }
    }
    // One fetch per distinct tuple — the expensive pass — fanned out over
    // the pool (single-flight keeps the counters thread-invariant).
    let pool = autosuggest_parallel::Pool::global().with_min_items(8);
    let lsets: Vec<Arc<KeyTupleSet>> =
        pool.par_map(&ltuples, |cols| pairs.key_tuples(left, cols));
    let rsets: Vec<Arc<KeyTupleSet>> =
        pool.par_map(&rtuples, |cols| pairs.key_tuples(right, cols));
    let lmap: HashMap<&[usize], &Arc<KeyTupleSet>> =
        ltuples.iter().map(|t| t.as_slice()).zip(&lsets).collect();
    let rmap: HashMap<&[usize], &Arc<KeyTupleSet>> =
        rtuples.iter().map(|t| t.as_slice()).zip(&rsets).collect();
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
    // enough to afford exact sets; sketches are only for pruning). The
    // intersection size is memoized per distinct content pair.
    let inter = PairCache::global().intersection(lkeys, rkeys) as f64;
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
    use autosuggest_dataframe::Value;

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
        let f = join_features(&l, &r, &JoinCandidate { left_cols: vec![0], right_cols: vec![0] });
        assert_eq!(f.values.len(), JOIN_FEATURE_NAMES.len());
        assert_eq!(f.values.len(), JOIN_FEATURE_GROUPS.len());
    }

    #[test]
    fn title_pair_has_partial_overlap_and_string_type() {
        let (l, r) = books();
        let f = join_features(&l, &r, &JoinCandidate { left_cols: vec![0], right_cols: vec![0] });
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
        let f = join_features(&l, &r, &JoinCandidate { left_cols: vec![1], right_cols: vec![1] });
        assert_eq!(f.get("containment_right_in_left"), 1.0);
        assert_eq!(f.get("key_is_string"), 0.0);
        assert_eq!(f.get("key_is_int"), 1.0);
    }

    #[test]
    fn distinct_ratio_detects_keys() {
        let (l, r) = books();
        let f = join_features(&l, &r, &JoinCandidate { left_cols: vec![0], right_cols: vec![0] });
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
        let f = join_features(&l, &r, &JoinCandidate { left_cols: vec![0], right_cols: vec![0] });
        assert_eq!(f.get("range_overlap"), 0.0);
    }

    #[test]
    fn multi_column_candidate_features() {
        let l = DataFrame::from_columns(vec![
            ("a", (0..6).map(Value::Int).collect()),
            ("b", (0..6).map(|i| Value::Int(i % 2)).collect()),
        ])
        .unwrap();
        let f = join_features(
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
        let f = join_features(&l, &r, &JoinCandidate { left_cols: vec![0], right_cols: vec![0] });
        assert_eq!(f.get("table_stats_row_ratio"), 100.0);
    }

    #[test]
    #[should_panic(expected = "unknown join feature")]
    fn unknown_feature_name_panics() {
        let (l, r) = books();
        join_features(&l, &r, &JoinCandidate { left_cols: vec![0], right_cols: vec![0] })
            .get("bogus");
    }
}
