//! Column-pair affinity/compatibility features (§4.3–4.4).
//!
//! The paper's §4.3 names two features — emptiness-reduction-ratio and
//! column-position-difference — and defers the full feature list to the
//! extended version. Those two alone cannot distinguish a cluster of
//! FD-linked id columns (Company/Ticker/Sector) from a collapsible value
//! block (2006/2007/2008): both are internally "affine". The additional
//! *stackability* signals below capture what Unpivot compatibility really
//! means — the columns' cells could live in one column: shared dtype
//! (relative to the rest of the table), overlapping numeric ranges, and
//! similar cardinalities.

use autosuggest_dataframe::{DType, DataFrame, Value};
use serde::{Deserialize, Serialize};
use std::cell::OnceCell;
use std::collections::HashSet;

/// Names of the affinity feature vector entries.
pub const AFFINITY_FEATURE_NAMES: [&str; 11] = [
    "emptiness_reduction_log",
    "position_diff_abs",
    "position_diff_rel",
    "dtype_match",
    "both_numeric",
    "range_overlap",
    "value_jaccard",
    "distinct_ratio_similarity",
    "same_dtype_fraction",
    "pair_min_distinct_log",
    "pair_max_distinct_log",
];

/// Extracted affinity features for one ordered pair of columns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AffinityFeatures {
    pub values: Vec<f64>,
}

impl AffinityFeatures {
    pub fn get(&self, name: &str) -> f64 {
        let idx = AFFINITY_FEATURE_NAMES
            .iter()
            .position(|&n| n == name)
            .unwrap_or_else(|| panic!("unknown affinity feature {name:?}"));
        self.values[idx]
    }
}

/// Emptiness-reduction-ratio of §4.3:
/// `|distinct(Ci)| · |distinct(Cj)| / |distinct(Ci, Cj)|`.
///
/// A high ratio means the joint domain is far smaller than the cross
/// product — arranging the two columns on *different* pivot sides would
/// materialise that cross product as mostly-NULL cells (Fig. 8), so they
/// belong together.
pub fn emptiness_reduction_ratio(df: &DataFrame, ci: usize, cj: usize) -> f64 {
    AffinityProfile::new(df).emptiness_reduction_ratio(ci, cj)
}

/// Extract affinity features for columns at positions `ci`, `cj` of `df`.
pub fn affinity_features(df: &DataFrame, ci: usize, cj: usize) -> AffinityFeatures {
    AffinityProfile::new(df).features(ci, cj)
}

/// What the pair features read of one column.
struct ColumnProfile<'a> {
    distinct: HashSet<&'a Value>,
    range: Option<(f64, f64)>,
    /// Each cell's value fingerprint, `None` for a null.
    cells: Vec<Option<u64>>,
}

/// The per-column inputs of the affinity features of one table, each
/// computed on first use and kept. A sweep over the column pairs of a
/// table (an affinity graph, a training case) then makes one pass per
/// column instead of several per pair; every feature is bit-identical to
/// profiling the pair from scratch.
pub struct AffinityProfile<'a> {
    df: &'a DataFrame,
    dtypes: OnceCell<Vec<DType>>,
    columns: Vec<OnceCell<ColumnProfile<'a>>>,
}

impl<'a> AffinityProfile<'a> {
    pub fn new(df: &'a DataFrame) -> Self {
        AffinityProfile {
            df,
            dtypes: OnceCell::new(),
            columns: df.columns().iter().map(|_| OnceCell::new()).collect(),
        }
    }

    fn dtypes(&self) -> &[DType] {
        self.dtypes.get_or_init(|| self.df.columns().iter().map(|c| c.dtype()).collect())
    }

    fn column(&self, i: usize) -> &ColumnProfile<'a> {
        self.columns[i].get_or_init(|| {
            let col = self.df.column_at(i);
            ColumnProfile {
                distinct: col.distinct_set(),
                range: col.numeric_range(),
                cells: col
                    .values()
                    .iter()
                    .map(|v| (!v.is_null()).then(|| v.fingerprint()))
                    .collect(),
            }
        })
    }

    /// [`emptiness_reduction_ratio`] of columns `ci`, `cj`.
    pub fn emptiness_reduction_ratio(&self, ci: usize, cj: usize) -> f64 {
        let (a, b) = (self.column(ci), self.column(cj));
        let da = a.distinct.len().max(1) as f64;
        let db = b.distinct.len().max(1) as f64;
        let mut joint: Vec<(u64, u64)> =
            a.cells.iter().zip(&b.cells).filter_map(|(x, y)| Some(((*x)?, (*y)?))).collect();
        joint.sort_unstable();
        joint.dedup();
        da * db / joint.len().max(1) as f64
    }

    /// [`affinity_features`] of columns `ci`, `cj`.
    pub fn features(&self, ci: usize, cj: usize) -> AffinityFeatures {
        assert_ne!(ci, cj, "affinity is defined between distinct columns");
        let (a, b) = (self.column(ci), self.column(cj));
        let err = self.emptiness_reduction_ratio(ci, cj);
        let pos_diff = ci.abs_diff(cj) as f64;
        let ncols = self.df.num_columns().max(2) as f64;
        let dtypes = self.dtypes();
        let (da, db) = (dtypes[ci], dtypes[cj]);
        let dtype_match = if da == db { 1.0 } else { 0.0 };
        let both_numeric = if da.is_numeric() && db.is_numeric() { 1.0 } else { 0.0 };

        let range_overlap = match (a.range, b.range) {
            (Some((alo, ahi)), Some((blo, bhi))) => {
                let inter = (ahi.min(bhi) - alo.max(blo)).max(0.0);
                let uni = (ahi.max(bhi) - alo.min(blo)).max(f64::EPSILON);
                if uni <= f64::EPSILON { 1.0 } else { inter / uni }
            }
            _ => 0.0,
        };

        let (na, nb) = (a.distinct.len(), b.distinct.len());
        let inter = a.distinct.intersection(&b.distinct).count() as f64;
        let union = (na + nb) as f64 - inter;
        let value_jaccard = if union > 0.0 { inter / union } else { 0.0 };

        let ratio = |c: &ColumnProfile<'_>| {
            let rows = c.cells.len();
            if rows == 0 { 0.0 } else { c.distinct.len() as f64 / rows as f64 }
        };
        let (ra, rb) = (ratio(a), ratio(b));
        let distinct_sim = if ra.max(rb) > 0.0 { ra.min(rb) / ra.max(rb) } else { 1.0 };

        // How much of the table shares this pair's dtype: a matching pair from
        // the dominant column type (a wide value block) scores high; a matching
        // pair of minority-type id columns scores low.
        let same_dtype_fraction = if dtype_match > 0.0 {
            dtypes.iter().filter(|&&d| d == da).count() as f64 / ncols
        } else {
            0.0
        };

        AffinityFeatures {
            values: vec![
                err.ln(),
                pos_diff,
                pos_diff / (ncols - 1.0),
                dtype_match,
                both_numeric,
                range_overlap,
                value_jaccard,
                distinct_sim,
                same_dtype_fraction,
                (1.0 + na.min(nb) as f64).ln(),
                (1.0 + na.max(nb) as f64).ln(),
            ],
        }
    }
}

/// Convenience for heuristic baselines: raw ERR without the log transform.
pub fn raw_err(df: &DataFrame, ci: usize, cj: usize) -> f64 {
    emptiness_reduction_ratio(df, ci, cj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosuggest_dataframe::Value;

    /// 20 sectors × 5 companies each (company determines sector), 3 years.
    fn filings() -> DataFrame {
        let mut sector = Vec::new();
        let mut company = Vec::new();
        let mut year = Vec::new();
        for s in 0..20 {
            for c in 0..5 {
                for y in 0..3 {
                    sector.push(Value::Str(format!("sector{s}")));
                    company.push(Value::Str(format!("co{s}_{c}")));
                    year.push(Value::Int(2006 + y));
                }
            }
        }
        DataFrame::from_columns(vec![
            ("sector", sector),
            ("company", company),
            ("year", year),
        ])
        .unwrap()
    }

    /// Wide pivot-shaped table: 2 string ids + 4 float year columns.
    fn wide() -> DataFrame {
        let n = 10;
        DataFrame::from_columns(vec![
            ("name", (0..n).map(|i| Value::Str(format!("co{i}"))).collect()),
            (
                "sector",
                (0..n).map(|i| Value::Str(format!("s{}", i % 3))).collect(),
            ),
            ("2006", (0..n).map(|i| Value::Float(100.0 + i as f64)).collect()),
            ("2007", (0..n).map(|i| Value::Float(102.0 + i as f64)).collect()),
            ("2008", (0..n).map(|i| Value::Float(104.0 + i as f64)).collect()),
            ("2009", (0..n).map(|i| Value::Float(106.0 + i as f64)).collect()),
        ])
        .unwrap()
    }

    #[test]
    fn fd_pair_has_high_reduction_ratio() {
        let df = filings();
        let err = emptiness_reduction_ratio(&df, 0, 1);
        assert!((err - 20.0).abs() < 1e-9, "err = {err}");
    }

    #[test]
    fn independent_pair_has_ratio_one() {
        let df = filings();
        let err = emptiness_reduction_ratio(&df, 0, 2);
        assert!((err - 1.0).abs() < 1e-9, "err = {err}");
    }

    #[test]
    fn position_difference_features() {
        let df = filings();
        let f = affinity_features(&df, 0, 2);
        assert_eq!(f.get("position_diff_abs"), 2.0);
        assert_eq!(f.get("position_diff_rel"), 1.0);
    }

    #[test]
    fn log_err_feature_ordering() {
        let df = filings();
        let fd = affinity_features(&df, 0, 1);
        let indep = affinity_features(&df, 0, 2);
        assert!(fd.get("emptiness_reduction_log") > indep.get("emptiness_reduction_log"));
    }

    #[test]
    fn stackability_separates_value_block_from_id_pair() {
        let df = wide();
        let value_pair = affinity_features(&df, 2, 3);
        let id_pair = affinity_features(&df, 0, 1);
        assert_eq!(value_pair.get("both_numeric"), 1.0);
        assert_eq!(id_pair.get("both_numeric"), 0.0);
        assert!(value_pair.get("range_overlap") > 0.5);
        assert!(
            value_pair.get("same_dtype_fraction") > id_pair.get("same_dtype_fraction"),
            "value block is the dominant type"
        );
        assert!(value_pair.get("distinct_ratio_similarity") > 0.9);
    }

    #[test]
    fn value_jaccard_detects_shared_domains() {
        let df = DataFrame::from_columns(vec![
            ("a", (0..10).map(Value::Int).collect()),
            ("b", (0..10).map(Value::Int).collect()),
            ("c", (100..110).map(Value::Int).collect()),
        ])
        .unwrap();
        assert_eq!(affinity_features(&df, 0, 1).get("value_jaccard"), 1.0);
        assert_eq!(affinity_features(&df, 0, 2).get("value_jaccard"), 0.0);
    }

    #[test]
    fn nulls_are_ignored_in_joint_domain() {
        let df = DataFrame::from_columns(vec![
            ("a", vec![Value::Str("x".into()), Value::Null, Value::Str("x".into())]),
            ("b", vec![Value::Int(1), Value::Int(2), Value::Int(1)]),
        ])
        .unwrap();
        assert!((emptiness_reduction_ratio(&df, 0, 1) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn feature_vector_aligned_with_names() {
        let df = filings();
        let f = affinity_features(&df, 0, 1);
        assert_eq!(f.values.len(), AFFINITY_FEATURE_NAMES.len());
    }

    /// The features computed straight from the `Column` statistics, pair
    /// by pair: the reference the shared per-column profile must match.
    fn per_pair_features(df: &DataFrame, ci: usize, cj: usize) -> Vec<f64> {
        let (a, b) = (df.column_at(ci), df.column_at(cj));
        let mut joint = HashSet::new();
        for i in 0..df.num_rows() {
            if !a.get(i).is_null() && !b.get(i).is_null() {
                joint.insert((a.get(i).fingerprint(), b.get(i).fingerprint()));
            }
        }
        let (na, nb) = (a.distinct_count(), b.distinct_count());
        let err = na.max(1) as f64 * nb.max(1) as f64 / joint.len().max(1) as f64;
        let pos_diff = ci.abs_diff(cj) as f64;
        let ncols = df.num_columns().max(2) as f64;
        let same_dtype = a.dtype() == b.dtype();
        let range_overlap = match (a.numeric_range(), b.numeric_range()) {
            (Some((alo, ahi)), Some((blo, bhi))) => {
                let uni = (ahi.max(bhi) - alo.min(blo)).max(f64::EPSILON);
                let inter = (ahi.min(bhi) - alo.max(blo)).max(0.0);
                if uni <= f64::EPSILON { 1.0 } else { inter / uni }
            }
            _ => 0.0,
        };
        let inter = a.distinct_set().intersection(&b.distinct_set()).count() as f64;
        let union = (na + nb) as f64 - inter;
        let (ra, rb) = (a.distinct_ratio(), b.distinct_ratio());
        let same_count = df.columns().iter().filter(|c| c.dtype() == a.dtype()).count();
        vec![
            err.ln(),
            pos_diff,
            pos_diff / (ncols - 1.0),
            if same_dtype { 1.0 } else { 0.0 },
            if a.dtype().is_numeric() && b.dtype().is_numeric() { 1.0 } else { 0.0 },
            range_overlap,
            if union > 0.0 { inter / union } else { 0.0 },
            if ra.max(rb) > 0.0 { ra.min(rb) / ra.max(rb) } else { 1.0 },
            if same_dtype { same_count as f64 / ncols } else { 0.0 },
            (1.0 + na.min(nb) as f64).ln(),
            (1.0 + na.max(nb) as f64).ln(),
        ]
    }

    #[test]
    fn profile_matches_per_pair_statistics_bit_for_bit() {
        use Value::{Float, Int, Null};
        let mixed = DataFrame::from_columns(vec![
            ("k", vec![Value::Str("x".into()), Null, Value::Str("y".into()), Null]),
            ("f", vec![Float(f64::NAN), Float(1e308), Null, Float(-0.0)]),
            ("i", vec![Int(1), Int(1), Float(1.0), Null]),
            ("n", vec![Null; 4]),
            ("inf", vec![Float(f64::INFINITY), Float(f64::NEG_INFINITY), Int(3), Int(3)]),
        ])
        .unwrap();
        let empty =
            DataFrame::from_columns(vec![("a", vec![]), ("b", vec![]), ("c", vec![])]).unwrap();
        for df in [filings(), wide(), mixed, empty] {
            let profile = AffinityProfile::new(&df);
            for ci in 0..df.num_columns() {
                for cj in (0..df.num_columns()).filter(|&cj| cj != ci) {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let want = bits(&per_pair_features(&df, ci, cj));
                    assert_eq!(bits(&profile.features(ci, cj).values), want, "({ci}, {cj})");
                    assert_eq!(bits(&affinity_features(&df, ci, cj).values), want, "({ci}, {cj})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "distinct columns")]
    fn same_column_panics() {
        affinity_features(&filings(), 1, 1);
    }
}
