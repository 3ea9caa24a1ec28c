//! `groupby` + aggregation.

use crate::column::Column;
use crate::error::{DataFrameError, Result};
use crate::frame::DataFrame;
use crate::value::{DType, Value};
use std::collections::HashMap;
use std::fmt;

/// Aggregation functions supported by [`groupby`] and
/// [`crate::ops::pivot_table`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Agg {
    Sum,
    Mean,
    Count,
    Min,
    Max,
    /// First non-null value in the group (Pandas `first`).
    First,
}

impl Agg {
    pub const ALL: [Agg; 6] = [Agg::Sum, Agg::Mean, Agg::Count, Agg::Min, Agg::Max, Agg::First];

    pub fn as_str(self) -> &'static str {
        match self {
            Agg::Sum => "sum",
            Agg::Mean => "mean",
            Agg::Count => "count",
            Agg::Min => "min",
            Agg::Max => "max",
            Agg::First => "first",
        }
    }

    pub fn parse(s: &str) -> Option<Agg> {
        match s {
            "sum" => Some(Agg::Sum),
            "mean" | "avg" => Some(Agg::Mean),
            "count" => Some(Agg::Count),
            "min" => Some(Agg::Min),
            "max" => Some(Agg::Max),
            "first" => Some(Agg::First),
            _ => None,
        }
    }

    /// Apply the aggregation to a set of values. Nulls are skipped, as in
    /// Pandas. Returns `Null` for an empty (or all-null) group, except
    /// `Count` which returns 0.
    pub fn apply(self, values: &[&Value]) -> Value {
        let non_null: Vec<&&Value> = values.iter().filter(|v| !v.is_null()).collect();
        match self {
            Agg::Count => Value::Int(non_null.len() as i64),
            Agg::First => non_null.first().map(|v| (**v).clone()).unwrap_or(Value::Null),
            Agg::Min => non_null.iter().min().map(|v| (**v).clone()).unwrap_or(Value::Null),
            Agg::Max => non_null.iter().max().map(|v| (**v).clone()).unwrap_or(Value::Null),
            Agg::Sum | Agg::Mean => {
                let nums: Vec<f64> = non_null.iter().filter_map(|v| v.as_f64()).collect();
                if nums.is_empty() {
                    return Value::Null;
                }
                let sum: f64 = nums.iter().sum();
                let out = if self == Agg::Sum { sum } else { sum / nums.len() as f64 };
                // Preserve integer-ness of pure-int sums, as Pandas does.
                let all_int = non_null.iter().all(|v| matches!(***v, Value::Int(_)));
                if self == Agg::Sum && all_int {
                    Value::Int(out as i64)
                } else {
                    Value::Float(out)
                }
            }
        }
    }
}

impl fmt::Display for Agg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Group `df` by the `keys` columns and aggregate each `(column, agg)` pair.
///
/// The output has one row per distinct key tuple, key columns first, then one
/// column per aggregation named `<col>_<agg>` when a column is aggregated
/// more than once, or just `<col>` otherwise (matching the common Pandas
/// `df.groupby(k)[c].sum()` shape). Groups appear in order of first
/// occurrence, like `groupby(sort=False)`.
pub fn groupby(df: &DataFrame, keys: &[&str], aggs: &[(&str, Agg)]) -> Result<DataFrame> {
    if keys.is_empty() {
        return Err(DataFrameError::InvalidArgument(
            "groupby requires at least one key column".into(),
        ));
    }
    let key_idx: Vec<usize> = keys
        .iter()
        .map(|n| df.column_index(n))
        .collect::<Result<_>>()?;
    for (name, agg) in aggs {
        let col = df.column(name)?;
        if matches!(agg, Agg::Sum | Agg::Mean)
            && !col.dtype().is_numeric()
            && col.dtype() != DType::Null
            && col.dtype() != DType::Bool
        {
            return Err(DataFrameError::TypeError(format!(
                "cannot {agg} non-numeric column {name:?}"
            )));
        }
    }

    // Bucket row indices per key tuple, preserving first-seen order.
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut buckets: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for i in 0..df.num_rows() {
        let key: Vec<Value> = key_idx
            .iter()
            .map(|&k| df.column_at(k).get(i).clone())
            .collect();
        // Pandas drops rows whose group key is null.
        if key.iter().any(Value::is_null) {
            continue;
        }
        let slot = *buckets.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[slot].push(i);
    }

    let mut out_cols: Vec<Column> = Vec::new();
    for (pos, &name) in keys.iter().enumerate() {
        out_cols.push(Column::new(
            name,
            order.iter().map(|k| k[pos].clone()).collect(),
        ));
    }

    // Determine output names, disambiguating repeated source columns.
    let mut per_col_count: HashMap<&str, usize> = HashMap::new();
    for (name, _) in aggs {
        *per_col_count.entry(*name).or_insert(0) += 1;
    }
    for (name, agg) in aggs {
        let src = df.column(name)?;
        let out_name = if per_col_count[name] > 1 {
            format!("{name}_{agg}")
        } else {
            (*name).to_string()
        };
        let mut vals = Vec::with_capacity(groups.len());
        for rows in &groups {
            let group_vals: Vec<&Value> = rows.iter().map(|&r| src.get(r)).collect();
            vals.push(agg.apply(&group_vals));
        }
        out_cols.push(Column::new(out_name, vals));
    }
    DataFrame::new(out_cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn revenue_table() -> DataFrame {
        DataFrame::from_columns(vec![
            (
                "company",
                vec![
                    Value::Str("AERO".into()),
                    Value::Str("AERO".into()),
                    Value::Str("YORK".into()),
                    Value::Str("YORK".into()),
                ],
            ),
            (
                "year",
                vec![Value::Int(2006), Value::Int(2006), Value::Int(2006), Value::Int(2007)],
            ),
            (
                "revenue",
                vec![
                    Value::Float(472.07),
                    Value::Float(489.22),
                    Value::Float(271.73),
                    Value::Float(300.0),
                ],
            ),
        ])
        .unwrap()
    }

    #[test]
    fn sum_by_two_keys() {
        let out = groupby(
            &revenue_table(),
            &["company", "year"],
            &[("revenue", Agg::Sum)],
        )
        .unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(
            out.column("revenue").unwrap().get(0),
            &Value::Float(472.07 + 489.22)
        );
    }

    #[test]
    fn mean_count_min_max() {
        let out = groupby(
            &revenue_table(),
            &["company"],
            &[
                ("revenue", Agg::Mean),
                ("revenue", Agg::Count),
                ("revenue", Agg::Min),
                ("revenue", Agg::Max),
            ],
        )
        .unwrap();
        assert_eq!(
            out.column_names(),
            vec![
                "company",
                "revenue_mean",
                "revenue_count",
                "revenue_min",
                "revenue_max"
            ]
        );
        assert_eq!(out.column("revenue_count").unwrap().get(0), &Value::Int(2));
        assert_eq!(
            out.column("revenue_max").unwrap().get(0),
            &Value::Float(489.22)
        );
    }

    #[test]
    fn integer_sum_stays_integer() {
        let df = DataFrame::from_columns(vec![
            ("g", vec![Value::Str("a".into()), Value::Str("a".into())]),
            ("v", vec![Value::Int(2), Value::Int(3)]),
        ])
        .unwrap();
        let out = groupby(&df, &["g"], &[("v", Agg::Sum)]).unwrap();
        assert_eq!(out.column("v").unwrap().get(0), &Value::Int(5));
    }

    #[test]
    fn null_group_keys_are_dropped() {
        let df = DataFrame::from_columns(vec![
            ("g", vec![Value::Null, Value::Str("a".into())]),
            ("v", vec![Value::Int(1), Value::Int(2)]),
        ])
        .unwrap();
        let out = groupby(&df, &["g"], &[("v", Agg::Sum)]).unwrap();
        assert_eq!(out.num_rows(), 1);
    }

    #[test]
    fn null_values_skipped_in_aggregation() {
        let df = DataFrame::from_columns(vec![
            ("g", vec![Value::Str("a".into()), Value::Str("a".into())]),
            ("v", vec![Value::Null, Value::Int(2)]),
        ])
        .unwrap();
        let out = groupby(
            &df,
            &["g"],
            &[("v", Agg::Mean), ("v", Agg::Count)],
        )
        .unwrap();
        assert_eq!(out.column("v_mean").unwrap().get(0), &Value::Float(2.0));
        assert_eq!(out.column("v_count").unwrap().get(0), &Value::Int(1));
    }

    #[test]
    fn sum_of_string_column_is_type_error() {
        let df = DataFrame::from_columns(vec![
            ("g", vec![Value::Str("a".into())]),
            ("s", vec![Value::Str("text".into())]),
        ])
        .unwrap();
        assert!(matches!(
            groupby(&df, &["g"], &[("s", Agg::Sum)]),
            Err(DataFrameError::TypeError(_))
        ));
        // But count and first are fine.
        assert!(groupby(&df, &["g"], &[("s", Agg::Count)]).is_ok());
        assert!(groupby(&df, &["g"], &[("s", Agg::First)]).is_ok());
    }

    #[test]
    fn groups_preserve_first_seen_order() {
        let df = DataFrame::from_columns(vec![
            (
                "g",
                vec![
                    Value::Str("z".into()),
                    Value::Str("a".into()),
                    Value::Str("z".into()),
                ],
            ),
            ("v", vec![Value::Int(1), Value::Int(2), Value::Int(3)]),
        ])
        .unwrap();
        let out = groupby(&df, &["g"], &[("v", Agg::Sum)]).unwrap();
        assert_eq!(out.column("g").unwrap().get(0), &Value::Str("z".into()));
        assert_eq!(out.column("v").unwrap().get(0), &Value::Int(4));
    }

    #[test]
    fn empty_keys_rejected() {
        assert!(groupby(&revenue_table(), &[], &[("revenue", Agg::Sum)]).is_err());
    }

    #[test]
    fn agg_parse_roundtrip() {
        for a in Agg::ALL {
            assert_eq!(Agg::parse(a.as_str()), Some(a));
        }
        assert_eq!(Agg::parse("avg"), Some(Agg::Mean));
        assert_eq!(Agg::parse("median"), None);
    }
}
