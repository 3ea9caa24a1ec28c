//! Per-column GroupBy/Aggregation features (§4.2) — the groups of Table 7.

use autosuggest_cache::{ColumnArtifacts, ColumnCache};
use autosuggest_dataframe::{Column, DType};
use std::collections::HashMap;

/// Names of the GroupBy feature vector entries, in extraction order.
pub const GROUPBY_FEATURE_NAMES: [&str; 15] = [
    "distinct_count_log",
    "distinct_ratio",
    "dtype_string",
    "dtype_int",
    "dtype_float",
    "dtype_date",
    "dtype_bool",
    "leftness_abs",
    "leftness_rel",
    "emptiness",
    "value_range_log",
    "distinct_over_range",
    "peak_freq_abs_log",
    "peak_freq_ratio",
    "name_prior",
];

/// Feature-index → group mapping for Table 7 importances.
pub const GROUPBY_FEATURE_GROUPS: [(usize, &str); 15] = [
    (0, "distinct-val"),
    (1, "distinct-val"),
    (2, "col-type"),
    (3, "col-type"),
    (4, "col-type"),
    (5, "col-type"),
    (6, "col-type"),
    (7, "left-ness"),
    (8, "left-ness"),
    (9, "emptiness"),
    (10, "val-range"),
    (11, "val-range"),
    (12, "peak-freq"),
    (13, "peak-freq"),
    (14, "col-name-freq"),
];

/// Column-name prior learned from training data: how often a (lowercased)
/// name was used as a GroupBy dimension vs. an Aggregation measure.
///
/// This is the paper's *col-name-freq* feature: "given the name of a column
/// C, we look it up in the training data (without this C)" — the lookup
/// excludes the test column by construction because the prior is fit on the
/// training split only.
#[derive(Debug, Clone, Default)]
pub struct ColumnNamePrior {
    counts: HashMap<String, (u64, u64)>,
}

impl ColumnNamePrior {
    /// Record one observed usage of `name`.
    pub fn observe(&mut self, name: &str, used_as_groupby: bool) {
        let slot = self.counts.entry(name.to_lowercase()).or_insert((0, 0));
        if used_as_groupby {
            slot.0 += 1;
        } else {
            slot.1 += 1;
        }
    }

    /// Smoothed log-odds that `name` is a GroupBy column; 0 for unseen
    /// names (no prior either way).
    pub fn log_odds(&self, name: &str) -> f64 {
        match self.counts.get(&name.to_lowercase()) {
            None => 0.0,
            Some(&(g, a)) => ((g as f64 + 0.5) / (a as f64 + 0.5)).ln(),
        }
    }

    pub fn len(&self) -> usize {
        self.counts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

/// The extracted per-column feature vector.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupByFeatures {
    pub values: Vec<f64>,
}

impl GroupByFeatures {
    pub fn get(&self, name: &str) -> f64 {
        let idx = GROUPBY_FEATURE_NAMES
            .iter()
            .position(|&n| n == name)
            .unwrap_or_else(|| panic!("unknown groupby feature {name:?}"));
        self.values[idx]
    }
}

/// Extract the §4.2 feature vector for column `col` at position `position`
/// of a table with `num_columns` columns.
///
/// Column statistics are fetched through the content-addressed cache — the
/// same column featurised repeatedly (candidate sweeps, training vs.
/// evaluation passes) computes its artifacts once. The name and position
/// inputs are not part of the cached content, so they are passed alongside.
pub fn groupby_features(
    col: &Column,
    position: usize,
    num_columns: usize,
    prior: &ColumnNamePrior,
) -> GroupByFeatures {
    let art = ColumnCache::global().artifacts(col);
    groupby_features_from_artifacts(col.name(), &art, position, num_columns, prior)
}

/// The featuriser body, operating on pre-computed [`ColumnArtifacts`]
/// (exposed so batched callers can warm artifacts once and featurise many
/// positions without re-hashing the column).
pub fn groupby_features_from_artifacts(
    name: &str,
    art: &ColumnArtifacts,
    position: usize,
    num_columns: usize,
    prior: &ColumnNamePrior,
) -> GroupByFeatures {
    let distinct = art.distinct_count();
    let dtype = art.dtype();
    let one = |d: DType| if dtype == d { 1.0 } else { 0.0 };

    let (range_log, distinct_over_range) = match art.min_max() {
        Some((lo, hi)) => {
            let span = (hi - lo).max(0.0);
            (
                (1.0 + span).ln(),
                if span > 0.0 { (distinct as f64 / span).min(10.0) } else { 10.0 },
            )
        }
        None => (0.0, 0.0),
    };

    let peak = art.peak_frequency();
    let rows = art.len().max(1);

    GroupByFeatures {
        values: vec![
            (1.0 + distinct as f64).ln(),
            art.distinct_ratio(),
            one(DType::Str),
            one(DType::Int),
            one(DType::Float),
            one(DType::Date),
            one(DType::Bool),
            position as f64,
            position as f64 / num_columns.max(1) as f64,
            art.null_fraction(),
            range_log,
            distinct_over_range,
            (1.0 + peak as f64).ln(),
            peak as f64 / rows as f64,
            prior.log_odds(name),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosuggest_dataframe::Value;

    fn str_col(name: &str, vals: &[&str]) -> Column {
        Column::new(name, vals.iter().map(|s| Value::Str((*s).into())).collect())
    }

    fn float_col(name: &str, vals: &[f64]) -> Column {
        Column::new(name, vals.iter().map(|&f| Value::Float(f)).collect())
    }

    #[test]
    fn dimension_column_profile() {
        let c = str_col("sector", &["a", "a", "b", "b", "b", "c"]);
        let f = groupby_features(&c, 0, 7, &ColumnNamePrior::default());
        assert_eq!(f.get("dtype_string"), 1.0);
        assert_eq!(f.get("dtype_float"), 0.0);
        assert!((f.get("distinct_ratio") - 0.5).abs() < 1e-12);
        assert!((f.get("peak_freq_ratio") - 0.5).abs() < 1e-12);
        assert_eq!(f.get("leftness_rel"), 0.0);
    }

    #[test]
    fn measure_column_profile() {
        let c = float_col("revenue", &[472.07, 489.22, 210.66, 271.73]);
        let f = groupby_features(&c, 6, 7, &ColumnNamePrior::default());
        assert_eq!(f.get("dtype_float"), 1.0);
        assert_eq!(f.get("distinct_ratio"), 1.0);
        assert!(f.get("leftness_rel") > 0.8);
        assert!(f.get("value_range_log") > 0.0);
    }

    #[test]
    fn year_column_small_range() {
        // Years: numeric but low-cardinality and dense in a tiny range —
        // the *value-range* signal the paper describes.
        let vals: Vec<Value> = (0..30).map(|i| Value::Int(2006 + i % 3)).collect();
        let c = Column::new("year", vals);
        let f = groupby_features(&c, 3, 7, &ColumnNamePrior::default());
        assert!(f.get("distinct_over_range") >= 1.0);
        assert!(f.get("distinct_ratio") < 0.2);
    }

    #[test]
    fn name_prior_learns_log_odds() {
        let mut prior = ColumnNamePrior::default();
        for _ in 0..9 {
            prior.observe("Year", true);
        }
        prior.observe("year", false);
        assert!(prior.log_odds("YEAR") > 1.0);
        assert_eq!(prior.log_odds("unseen_column"), 0.0);
        for _ in 0..9 {
            prior.observe("revenue", false);
        }
        assert!(prior.log_odds("revenue") < 0.0);
    }

    #[test]
    fn prior_feeds_the_feature_vector() {
        let mut prior = ColumnNamePrior::default();
        for _ in 0..5 {
            prior.observe("company", true);
        }
        let c = str_col("company", &["x", "y"]);
        let f = groupby_features(&c, 0, 2, &prior);
        assert!(f.get("name_prior") > 0.0);
    }

    #[test]
    fn emptiness_reflected() {
        let c = Column::new("c", vec![Value::Null, Value::Int(1), Value::Null, Value::Int(2)]);
        let f = groupby_features(&c, 0, 1, &ColumnNamePrior::default());
        assert!((f.get("emptiness") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn feature_vector_aligned_with_names() {
        let c = str_col("c", &["a"]);
        let f = groupby_features(&c, 0, 1, &ColumnNamePrior::default());
        assert_eq!(f.values.len(), GROUPBY_FEATURE_NAMES.len());
        assert_eq!(f.values.len(), GROUPBY_FEATURE_GROUPS.len());
    }

    #[test]
    fn constant_numeric_column_has_max_density() {
        let c = float_col("k", &[5.0, 5.0, 5.0]);
        let f = groupby_features(&c, 0, 1, &ColumnNamePrior::default());
        assert_eq!(f.get("distinct_over_range"), 10.0); // zero span → capped
    }
}
