//! Join-candidate enumeration with type and sketch pruning (§4.1, fn. 2).

use autosuggest_cache::{ColumnArtifacts, ColumnCache, MinHashSketch, BASE_SKETCH_K};
use autosuggest_dataframe::{DataFrame, DType};
use autosuggest_obs as obs;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// A candidate join: column index sets `S ⊆ T` and `S' ⊆ T'` with
/// `|S| = |S'|`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinCandidate {
    pub left_cols: Vec<usize>,
    pub right_cols: Vec<usize>,
}

/// Sketch size for the containment pre-check, truncated from the cached
/// base sketch.
pub const JOIN_SKETCH_K: usize = 64;
const _: () = assert!(JOIN_SKETCH_K <= BASE_SKETCH_K);

/// Knobs for candidate enumeration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CandidateParams {
    /// Single-column pairs whose best-direction containment estimate falls
    /// below this are pruned (kept lax: pruning must not drop ground truth).
    pub min_containment: f64,
    /// Maximum key width; 2 covers the multi-column joins seen in notebooks.
    pub max_width: usize,
    /// Cap on emitted candidates (safety valve for very wide tables).
    pub max_candidates: usize,
}

impl Default for CandidateParams {
    fn default() -> Self {
        CandidateParams {
            min_containment: 0.02,
            max_width: 2,
            max_candidates: 2_000,
        }
    }
}

/// Distinct non-null tuple hashes for a column set.
///
/// Delegates to the canonical implementation in `autosuggest_cache`
/// ([`autosuggest_cache::KeyTupleSet`]) so the null-skip and hashing
/// semantics live in exactly one place; the featuriser's hot path uses the
/// cached `PairCache::key_tuples` instead of this eager set.
pub fn key_tuple_hashes(df: &DataFrame, cols: &[usize]) -> HashSet<u64> {
    autosuggest_cache::KeyTupleSet::compute(df, cols)
        .hashes()
        .iter()
        .copied()
        .collect()
}

/// Enumerate join candidates between `left` and `right`.
///
/// Single-column pairs are kept when their dtypes unify (footnote 2's
/// type-mismatch pruning) and the sketched containment in either direction
/// clears `min_containment`. Two-column candidates are built from ordered
/// pairs of surviving single-column candidates that use distinct columns on
/// both sides.
pub fn enumerate_join_candidates(
    left: &DataFrame,
    right: &DataFrame,
    params: &CandidateParams,
) -> Vec<JoinCandidate> {
    let _span = obs::span("enumerate_join_candidates");
    let out = enumerate_inner(left, right, params);
    obs::counter_add("features.join_candidates", out.len() as u64);
    out
}

fn enumerate_inner(
    left: &DataFrame,
    right: &DataFrame,
    params: &CandidateParams,
) -> Vec<JoinCandidate> {
    // Per-column sketches and dtypes come from the content-addressed cache:
    // the same column enumerated against many partners (or re-enumerated
    // across training and evaluation) is fingerprinted and computed once.
    // Cached artifacts delegate to the same `Column` methods used before,
    // and `sketch_at` truncation is exact, so hits are bit-identical to
    // recomputation. Artifact fetches are independent per column; run them
    // across the pool (order preserved, so downstream indices are
    // unaffected).
    let pool = autosuggest_parallel::Pool::global().with_min_items(8);
    let cache = ColumnCache::global();
    let lart: Vec<std::sync::Arc<ColumnArtifacts>> =
        pool.par_map(left.columns(), |c| cache.artifacts(c));
    let rart: Vec<std::sync::Arc<ColumnArtifacts>> =
        pool.par_map(right.columns(), |c| cache.artifacts(c));
    let ltypes: Vec<DType> = lart.iter().map(|a| a.dtype()).collect();
    let rtypes: Vec<DType> = rart.iter().map(|a| a.dtype()).collect();
    let lsketch: Vec<MinHashSketch> = lart.iter().map(|a| a.sketch_at(JOIN_SKETCH_K)).collect();
    let rsketch: Vec<MinHashSketch> = rart.iter().map(|a| a.sketch_at(JOIN_SKETCH_K)).collect();

    // One parallel task per left column; flattening the per-`li` rows in
    // order reproduces the sequential lexicographic (li, ri) enumeration.
    let mut singles: Vec<(usize, usize)> = pool
        .par_map_indexed(left.num_columns(), |li| {
            let mut row: Vec<(usize, usize)> = Vec::new();
            for ri in 0..right.num_columns() {
                if ltypes[li].unify(rtypes[ri]).is_none() {
                    continue;
                }
                if ltypes[li] == DType::Null && rtypes[ri] == DType::Null {
                    continue;
                }
                let c = lsketch[li]
                    .containment_in(&rsketch[ri])
                    .max(rsketch[ri].containment_in(&lsketch[li]));
                if c >= params.min_containment {
                    row.push((li, ri));
                }
            }
            row
        })
        .into_iter()
        .flatten()
        .collect();

    // Apply the cap to the singles *before* deriving anything from them, so
    // two-column candidates can only combine singles that are themselves
    // emitted — a pair never references a constituent the cap dropped.
    singles.truncate(params.max_candidates);

    let mut out: Vec<JoinCandidate> = singles
        .iter()
        .map(|&(l, r)| JoinCandidate { left_cols: vec![l], right_cols: vec![r] })
        .collect();

    if params.max_width >= 2 {
        'pairs: for (i, &(l1, r1)) in singles.iter().enumerate() {
            for &(l2, r2) in &singles[i + 1..] {
                if l1 == l2 || r1 == r2 {
                    continue;
                }
                if out.len() >= params.max_candidates {
                    break 'pairs;
                }
                out.push(JoinCandidate {
                    left_cols: vec![l1, l2],
                    right_cols: vec![r1, r2],
                });
            }
        }
    }
    out.truncate(params.max_candidates);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosuggest_dataframe::Value;

    fn strcol(vals: &[&str]) -> Vec<Value> {
        vals.iter().map(|s| Value::Str((*s).into())).collect()
    }

    fn intcol(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&i| Value::Int(i)).collect()
    }

    #[test]
    fn type_mismatch_is_pruned() {
        let l = DataFrame::from_columns(vec![("name", strcol(&["a", "b"]))]).unwrap();
        let r = DataFrame::from_columns(vec![("id", intcol(&[1, 2]))]).unwrap();
        let cands = enumerate_join_candidates(&l, &r, &CandidateParams::default());
        assert!(cands.is_empty());
    }

    #[test]
    fn overlapping_columns_survive() {
        let l = DataFrame::from_columns(vec![
            ("title", strcol(&["dune", "it", "emma"])),
            ("rank", intcol(&[1, 2, 3])),
        ])
        .unwrap();
        let r = DataFrame::from_columns(vec![
            ("title_on_list", strcol(&["dune", "emma"])),
            ("weeks", intcol(&[3, 9])),
        ])
        .unwrap();
        let cands = enumerate_join_candidates(&l, &r, &CandidateParams::default());
        assert!(cands.contains(&JoinCandidate { left_cols: vec![0], right_cols: vec![0] }));
        // rank ↔ weeks also survives (ints with overlapping values) — the
        // ranking model, not the enumerator, must demote it.
        assert!(cands.contains(&JoinCandidate { left_cols: vec![1], right_cols: vec![1] }));
    }

    #[test]
    fn disjoint_value_sets_are_pruned() {
        let l = DataFrame::from_columns(vec![("a", strcol(&["x", "y"]))]).unwrap();
        let r = DataFrame::from_columns(vec![("b", strcol(&["p", "q"]))]).unwrap();
        let cands = enumerate_join_candidates(&l, &r, &CandidateParams::default());
        assert!(cands.is_empty());
    }

    #[test]
    fn multi_column_candidates_combine_singles() {
        let l = DataFrame::from_columns(vec![
            ("c1", strcol(&["a", "b"])),
            ("c2", intcol(&[1, 2])),
        ])
        .unwrap();
        let r = DataFrame::from_columns(vec![
            ("d1", strcol(&["a", "b"])),
            ("d2", intcol(&[1, 2])),
        ])
        .unwrap();
        let cands = enumerate_join_candidates(&l, &r, &CandidateParams::default());
        assert!(cands
            .iter()
            .any(|c| c.left_cols == vec![0, 1] && c.right_cols == vec![0, 1]));
        // No candidate reuses a column on one side.
        for c in &cands {
            let mut l = c.left_cols.clone();
            l.dedup();
            assert_eq!(l.len(), c.left_cols.len());
        }
    }

    #[test]
    fn candidate_cap_is_respected() {
        let cols: Vec<(String, Vec<Value>)> = (0..30)
            .map(|i| (format!("c{i}"), intcol(&[1, 2, 3])))
            .collect();
        let frame = |prefix: &str| {
            DataFrame::new(
                cols.iter()
                    .map(|(n, v)| {
                        autosuggest_dataframe::Column::new(format!("{prefix}{n}"), v.clone())
                    })
                    .collect(),
            )
            .unwrap()
        };
        let params = CandidateParams { max_candidates: 50, ..Default::default() };
        let cands = enumerate_join_candidates(&frame("l"), &frame("r"), &params);
        assert_eq!(cands.len(), 50);
    }

    /// A `n`-column frame of identical int columns: every (li, ri) pair
    /// survives pruning, so singles = n² in lexicographic order.
    fn dense_frame(prefix: &str, n: usize) -> DataFrame {
        DataFrame::new(
            (0..n)
                .map(|i| {
                    autosuggest_dataframe::Column::new(
                        format!("{prefix}{i}"),
                        intcol(&[1, 2, 3]),
                    )
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn cap_below_singles_count_emits_exactly_the_first_singles() {
        // 5×5 identical int columns → 25 surviving singles; a cap of 9
        // must keep exactly the first 9 singles of the lexicographic
        // enumeration and emit no pairs built from dropped singles.
        let params = CandidateParams { max_candidates: 9, ..Default::default() };
        let cands = enumerate_join_candidates(&dense_frame("l", 5), &dense_frame("r", 5), &params);
        let expected: Vec<JoinCandidate> = (0..5)
            .flat_map(|l| (0..5).map(move |r| (l, r)))
            .take(9)
            .map(|(l, r)| JoinCandidate { left_cols: vec![l], right_cols: vec![r] })
            .collect();
        assert_eq!(cands, expected);
    }

    #[test]
    fn pair_constituents_are_always_emitted_singles() {
        // Cap sits between the singles count (16) and the uncapped total,
        // so the pair loop runs while the cap binds. Every emitted pair
        // must decompose into two singles that are themselves in the
        // output — the invariant the untruncated-`singles` pair loop
        // violated by construction.
        let params = CandidateParams { max_candidates: 20, ..Default::default() };
        let cands = enumerate_join_candidates(&dense_frame("l", 4), &dense_frame("r", 4), &params);
        assert_eq!(cands.len(), 20);
        let singles: HashSet<(usize, usize)> = cands
            .iter()
            .filter(|c| c.left_cols.len() == 1)
            .map(|c| (c.left_cols[0], c.right_cols[0]))
            .collect();
        assert_eq!(singles.len(), 16);
        for c in cands.iter().filter(|c| c.left_cols.len() == 2) {
            for w in 0..2 {
                assert!(
                    singles.contains(&(c.left_cols[w], c.right_cols[w])),
                    "pair {c:?} references a single that was not emitted"
                );
            }
        }
    }

    #[test]
    fn capped_enumeration_is_a_prefix_of_the_uncapped_one() {
        // Tightening the cap must only ever drop a suffix, never reorder or
        // substitute candidates.
        let uncapped = enumerate_join_candidates(
            &dense_frame("l", 4),
            &dense_frame("r", 4),
            &CandidateParams::default(),
        );
        for cap in [1, 7, 16, 21, 40, uncapped.len()] {
            let params = CandidateParams { max_candidates: cap, ..Default::default() };
            let capped =
                enumerate_join_candidates(&dense_frame("l", 4), &dense_frame("r", 4), &params);
            assert_eq!(capped.len(), cap.min(uncapped.len()));
            assert_eq!(capped[..], uncapped[..capped.len()]);
        }
    }

    #[test]
    fn key_tuple_hashes_skip_null_rows() {
        let df = DataFrame::from_columns(vec![
            ("a", vec![Value::Int(1), Value::Null, Value::Int(1)]),
            ("b", vec![Value::Int(2), Value::Int(3), Value::Int(2)]),
        ])
        .unwrap();
        let hashes = key_tuple_hashes(&df, &[0, 1]);
        assert_eq!(hashes.len(), 1); // row 1 skipped, rows 0 and 2 identical
    }
}
