//! `dropna` / `fillna`: missing-data handling.

use crate::column::Column;
use crate::error::Result;
use crate::frame::DataFrame;
use crate::value::Value;

/// Row-dropping policy for [`dropna`], mirroring Pandas' `how=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropHow {
    /// Drop a row if *any* considered cell is null.
    Any,
    /// Drop a row only if *all* considered cells are null.
    All,
}

/// Drop rows containing nulls. `subset` restricts which columns are
/// inspected (`None` inspects all), exactly like `pd.dropna`.
pub fn dropna(df: &DataFrame, how: DropHow, subset: Option<&[&str]>) -> Result<DataFrame> {
    let cols: Vec<usize> = match subset {
        Some(names) => names
            .iter()
            .map(|n| df.column_index(n))
            .collect::<Result<_>>()?,
        None => (0..df.num_columns()).collect(),
    };
    if cols.is_empty() {
        return Ok(df.clone());
    }
    let keep: Vec<usize> = (0..df.num_rows())
        .filter(|&i| {
            let nulls = cols
                .iter()
                .filter(|&&c| df.column_at(c).get(i).is_null())
                .count();
            match how {
                DropHow::Any => nulls == 0,
                DropHow::All => nulls < cols.len(),
            }
        })
        .collect();
    Ok(df.take(&keep))
}

/// Replace nulls in the named columns with `value` (`pd.fillna` with a
/// scalar on selected columns).
pub fn fillna(df: &DataFrame, columns: &[&str], value: &Value) -> Result<DataFrame> {
    let target: Vec<usize> = columns
        .iter()
        .map(|n| df.column_index(n))
        .collect::<Result<_>>()?;
    let out = df
        .columns()
        .iter()
        .enumerate()
        .map(|(ci, c)| {
            if target.contains(&ci) {
                Column::new(
                    c.name(),
                    c.values()
                        .iter()
                        .map(|v| if v.is_null() { value.clone() } else { v.clone() })
                        .collect(),
                )
            } else {
                c.clone()
            }
        })
        .collect();
    DataFrame::new(out)
}

/// Replace nulls in *all* columns with `value`.
pub fn fillna_all(df: &DataFrame, value: &Value) -> Result<DataFrame> {
    let names: Vec<&str> = df.column_names();
    fillna(df, &names, value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn holey() -> DataFrame {
        DataFrame::from_columns(vec![
            ("a", vec![Value::Int(1), Value::Null, Value::Null]),
            ("b", vec![Value::Str("x".into()), Value::Str("y".into()), Value::Null]),
        ])
        .unwrap()
    }

    #[test]
    fn dropna_any_removes_rows_with_any_null() {
        let out = dropna(&holey(), DropHow::Any, None).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.column("a").unwrap().get(0), &Value::Int(1));
    }

    #[test]
    fn dropna_all_keeps_partial_rows() {
        let out = dropna(&holey(), DropHow::All, None).unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn dropna_subset_only_inspects_named_columns() {
        let out = dropna(&holey(), DropHow::Any, Some(&["b"])).unwrap();
        assert_eq!(out.num_rows(), 2); // row 1 kept: b non-null though a is
    }

    #[test]
    fn dropna_unknown_subset_errors() {
        assert!(dropna(&holey(), DropHow::Any, Some(&["zzz"])).is_err());
    }

    #[test]
    fn fillna_replaces_only_targeted_columns() {
        let out = fillna(&holey(), &["a"], &Value::Int(0)).unwrap();
        assert_eq!(out.column("a").unwrap().null_count(), 0);
        assert_eq!(out.column("b").unwrap().null_count(), 1);
    }

    #[test]
    fn fillna_all_clears_every_null() {
        let out = fillna_all(&holey(), &Value::Str("?".into())).unwrap();
        for c in out.columns() {
            assert_eq!(c.null_count(), 0);
        }
    }

    #[test]
    fn fillna_preserves_non_null_cells() {
        let out = fillna_all(&holey(), &Value::Int(0)).unwrap();
        assert_eq!(out.column("b").unwrap().get(0), &Value::Str("x".into()));
    }
}
