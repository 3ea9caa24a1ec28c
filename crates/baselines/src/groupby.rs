//! GroupBy column prediction baselines (Table 6).
//!
//! Each method scores every column of a table; higher = more likely a
//! GroupBy (dimension) column. Aggregation columns should sink to the
//! bottom of the ranking.

use autosuggest_dataframe::{DataFrame, DType};
use std::collections::HashMap;

/// **SQL-history** (SnipSuggest): recommend by how frequently each column
/// *name* appeared as a GroupBy key in historical (training) queries.
#[derive(Debug, Clone, Default)]
pub struct SqlHistory {
    groupby_counts: HashMap<String, u64>,
    agg_counts: HashMap<String, u64>,
}

impl SqlHistory {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one historical usage.
    pub fn observe(&mut self, column_name: &str, used_as_groupby: bool) {
        let slot = if used_as_groupby {
            &mut self.groupby_counts
        } else {
            &mut self.agg_counts
        };
        *slot.entry(column_name.to_lowercase()).or_insert(0) += 1;
    }

    pub fn scores(&self, df: &DataFrame) -> Vec<f64> {
        df.columns()
            .iter()
            .map(|c| {
                let name = c.name().to_lowercase();
                let g = self.groupby_counts.get(&name).copied().unwrap_or(0) as f64;
                let a = self.agg_counts.get(&name).copied().unwrap_or(0) as f64;
                // Frequency as groupby, discounted by agg usage; unseen
                // names score 0 (the "no history" failure mode the paper
                // notes).
                (g + 0.5) / (g + a + 1.0) * (g + 1.0).ln().max(0.0)
            })
            .collect()
    }
}

/// **Coarse-grained-types** (Ordonez): categorical → GroupBy, numeric
/// (including numeric-looking strings) → Aggregation.
pub fn coarse_type_scores(df: &DataFrame) -> Vec<f64> {
    df.columns()
        .iter()
        .map(|c| match c.dtype() {
            DType::Str | DType::Bool => 1.0,
            DType::Null => 0.5,
            // All numerics — int, float, date — are "measures".
            _ => 0.0,
        })
        .collect()
}

/// **Fine-grained-types** (ShowMe / Tableau field roles): refines the
/// coarse rule with fine types — date-times and zip/year-like integers are
/// dimensions even though they are numbers.
pub fn fine_type_scores(df: &DataFrame) -> Vec<f64> {
    df.columns()
        .iter()
        .map(|c| match c.dtype() {
            DType::Str | DType::Bool => 1.0,
            DType::Date => 0.9,
            DType::Int => {
                // Year-like or zip-like small ranges are dimensions.
                match c.numeric_range() {
                    Some((lo, hi)) if (1800.0..=2200.0).contains(&lo) && hi <= 2200.0 => 0.8,
                    Some((lo, hi)) if lo >= 0.0 && hi <= 99999.0 && c.distinct_count() <= 1000 => {
                        0.4
                    }
                    _ => 0.1,
                }
            }
            _ => 0.0,
        })
        .collect()
}

/// **Min-Cardinality**: pick the lowest-cardinality columns as GroupBy —
/// the surprisingly strong heuristic of Table 6.
pub fn min_cardinality_scores(df: &DataFrame) -> Vec<f64> {
    df.columns()
        .iter()
        .map(|c| 1.0 / c.distinct_count().max(1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosuggest_dataframe::Value;

    fn filings() -> DataFrame {
        DataFrame::from_columns(vec![
            (
                "sector",
                (0..12).map(|i| Value::Str(format!("s{}", i % 3))).collect(),
            ),
            ("year", (0..12).map(|i| Value::Int(2006 + i % 3)).collect()),
            (
                "revenue",
                (0..12).map(|i| Value::Float(i as f64 * 13.7 + 100.0)).collect(),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn coarse_types_miss_numeric_dimensions() {
        let s = coarse_type_scores(&filings());
        // year (int) is wrongly scored as a measure — the documented
        // weakness that keeps this baseline at 0.47 in Table 6.
        assert_eq!(s[1], 0.0);
        assert_eq!(s[0], 1.0);
    }

    #[test]
    fn fine_types_recover_year() {
        let s = fine_type_scores(&filings());
        assert!(s[1] > 0.5, "year must be a dimension: {s:?}");
        assert_eq!(s[2], 0.0);
    }

    #[test]
    fn min_cardinality_ranks_dimensions_first() {
        let s = min_cardinality_scores(&filings());
        let order = autosuggest_ranking::rank_desc(&s);
        // sector and year (3 distinct) above revenue (12 distinct).
        assert!(order[0] < 2 && order[1] < 2);
        assert_eq!(order[2], 2);
    }

    #[test]
    fn sql_history_learns_from_observations() {
        let mut h = SqlHistory::new();
        for _ in 0..10 {
            h.observe("year", true);
            h.observe("revenue", false);
        }
        let s = h.scores(&filings());
        assert!(s[1] > s[2], "year should outscore revenue: {s:?}");
        // Unseen column names give no signal.
        let unseen = DataFrame::from_columns(vec![(
            "mystery",
            vec![Value::Str("x".into())],
        )])
        .unwrap();
        assert!(h.scores(&unseen)[0] < 0.5);
    }
}
