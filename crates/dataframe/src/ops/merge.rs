//! `merge`: relational join with Pandas semantics.

use crate::column::Column;
use crate::error::{DataFrameError, Result};
use crate::frame::DataFrame;
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;

/// The join type (`how=` in Pandas).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinType {
    Inner,
    Left,
    Right,
    Outer,
}

impl JoinType {
    pub const ALL: [JoinType; 4] = [
        JoinType::Inner,
        JoinType::Left,
        JoinType::Right,
        JoinType::Outer,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            JoinType::Inner => "inner",
            JoinType::Left => "left",
            JoinType::Right => "right",
            JoinType::Outer => "outer",
        }
    }

    pub fn parse(s: &str) -> Option<JoinType> {
        match s {
            "inner" => Some(JoinType::Inner),
            "left" => Some(JoinType::Left),
            "right" => Some(JoinType::Right),
            "outer" | "full" => Some(JoinType::Outer),
            _ => None,
        }
    }
}

impl fmt::Display for JoinType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Join `left` and `right` on equality of `left_on` / `right_on` columns.
///
/// Pandas semantics reproduced here:
/// * multi-column keys match positionally;
/// * rows whose key contains a NULL never match (SQL/Pandas null semantics);
/// * non-key columns appearing in both inputs get `_x` / `_y` suffixes;
/// * `Left`/`Right`/`Outer` emit non-matching rows padded with NULLs;
/// * output row order is left-table order, then (for Right/Outer) unmatched
///   right rows in right-table order — matching `pd.merge`'s observable order
///   for sorted inputs.
pub fn merge(
    left: &DataFrame,
    right: &DataFrame,
    left_on: &[&str],
    right_on: &[&str],
    how: JoinType,
) -> Result<DataFrame> {
    if left_on.is_empty() || left_on.len() != right_on.len() {
        return Err(DataFrameError::InvalidArgument(format!(
            "left_on has {} columns, right_on has {}; need equal non-zero arity",
            left_on.len(),
            right_on.len()
        )));
    }
    let lkey_idx: Vec<usize> = left_on
        .iter()
        .map(|n| left.column_index(n))
        .collect::<Result<_>>()?;
    let rkey_idx: Vec<usize> = right_on
        .iter()
        .map(|n| right.column_index(n))
        .collect::<Result<_>>()?;

    // Hash the right side: key tuple -> row indices.
    let mut table: HashMap<Vec<&Value>, Vec<usize>> = HashMap::new();
    'rrow: for i in 0..right.num_rows() {
        let mut key = Vec::with_capacity(rkey_idx.len());
        for &k in &rkey_idx {
            let v = right.column_at(k).get(i);
            if v.is_null() {
                continue 'rrow;
            }
            key.push(v);
        }
        table.entry(key).or_default().push(i);
    }

    // Probe with the left side.
    let mut left_rows: Vec<usize> = Vec::new();
    let mut right_rows: Vec<Option<usize>> = Vec::new();
    let mut right_matched = vec![false; right.num_rows()];
    for i in 0..left.num_rows() {
        let mut key = Vec::with_capacity(lkey_idx.len());
        let mut has_null = false;
        for &k in &lkey_idx {
            let v = left.column_at(k).get(i);
            if v.is_null() {
                has_null = true;
                break;
            }
            key.push(v);
        }
        let matches = if has_null { None } else { table.get(&key) };
        match matches {
            Some(rows) => {
                for &r in rows {
                    left_rows.push(i);
                    right_rows.push(Some(r));
                    right_matched[r] = true;
                }
            }
            None => {
                if matches!(how, JoinType::Left | JoinType::Outer) {
                    left_rows.push(i);
                    right_rows.push(None);
                }
            }
        }
    }
    // Unmatched right rows for Right/Outer joins.
    let mut extra_right: Vec<usize> = Vec::new();
    if matches!(how, JoinType::Right | JoinType::Outer) {
        extra_right.extend((0..right.num_rows()).filter(|&r| !right_matched[r]));
    }
    // An inner-like Right join keeps only matching left rows, which the probe
    // already produced; for Right we must also drop left-only rows, which the
    // probe never emitted (they required Left/Outer). So no further work.

    // Column naming: key columns merge when names coincide; duplicated
    // non-key names get suffixes.
    let key_pairs: Vec<(usize, usize)> = lkey_idx
        .iter()
        .copied()
        .zip(rkey_idx.iter().copied())
        .collect();
    let mut out_cols: Vec<Column> = Vec::new();

    let right_name_set: std::collections::HashSet<&str> =
        right.column_names().into_iter().collect();
    let left_name_set: std::collections::HashSet<&str> =
        left.column_names().into_iter().collect();

    let suffix_name = |name: &str, other_side: &std::collections::HashSet<&str>, suf: &str| {
        if other_side.contains(name) {
            format!("{name}{suf}")
        } else {
            name.to_string()
        }
    };

    // Emit all left columns.
    for (ci, col) in left.columns().iter().enumerate() {
        let is_shared_key = key_pairs
            .iter()
            .any(|&(l, r)| l == ci && left.column_at(l).name() == right.column_at(r).name());
        let name = if is_shared_key {
            col.name().to_string()
        } else {
            suffix_name(col.name(), &right_name_set, "_x")
        };
        let mut values: Vec<Value> = Vec::with_capacity(left_rows.len() + extra_right.len());
        for &li in &left_rows {
            values.push(col.get(li).clone());
        }
        // For unmatched right rows: shared key columns take the right key
        // value (coalesce, as Pandas does); others are NULL.
        if is_shared_key {
            let r_idx = key_pairs
                .iter()
                .find(|&&(l, _)| l == ci)
                .map(|&(_, r)| r)
                .expect("shared key");
            for &ri in &extra_right {
                values.push(right.column_at(r_idx).get(ri).clone());
            }
        } else {
            values.extend(std::iter::repeat_n(Value::Null, extra_right.len()));
        }
        out_cols.push(Column::new(name, values));
    }

    // Emit right columns, skipping key columns that merged into left ones.
    for (ci, col) in right.columns().iter().enumerate() {
        let merged_into_left = key_pairs
            .iter()
            .any(|&(l, r)| r == ci && left.column_at(l).name() == right.column_at(r).name());
        if merged_into_left {
            continue;
        }
        let name = suffix_name(col.name(), &left_name_set, "_y");
        let mut values: Vec<Value> = Vec::with_capacity(left_rows.len() + extra_right.len());
        for ri in &right_rows {
            values.push(match ri {
                Some(r) => col.get(*r).clone(),
                None => Value::Null,
            });
        }
        for &ri in &extra_right {
            values.push(col.get(ri).clone());
        }
        out_cols.push(Column::new(name, values));
    }

    DataFrame::new(out_cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn left() -> DataFrame {
        DataFrame::from_columns(vec![
            ("k", vec![Value::Int(1), Value::Int(2), Value::Int(3)]),
            (
                "lv",
                vec![
                    Value::Str("a".into()),
                    Value::Str("b".into()),
                    Value::Str("c".into()),
                ],
            ),
        ])
        .unwrap()
    }

    fn right() -> DataFrame {
        DataFrame::from_columns(vec![
            ("k", vec![Value::Int(2), Value::Int(3), Value::Int(4)]),
            (
                "rv",
                vec![
                    Value::Str("x".into()),
                    Value::Str("y".into()),
                    Value::Str("z".into()),
                ],
            ),
        ])
        .unwrap()
    }

    #[test]
    fn inner_join_matches_intersection() {
        let out = merge(&left(), &right(), &["k"], &["k"], JoinType::Inner).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.column_names(), vec!["k", "lv", "rv"]);
        assert_eq!(
            out.column("k").unwrap().values(),
            &[Value::Int(2), Value::Int(3)]
        );
    }

    #[test]
    fn left_join_pads_nulls() {
        let out = merge(&left(), &right(), &["k"], &["k"], JoinType::Left).unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.column("rv").unwrap().get(0), &Value::Null);
        assert_eq!(out.column("rv").unwrap().get(1), &Value::Str("x".into()));
    }

    #[test]
    fn right_join_keeps_all_right_rows() {
        let out = merge(&left(), &right(), &["k"], &["k"], JoinType::Right).unwrap();
        assert_eq!(out.num_rows(), 3);
        // k=4 row present with NULL lv, and its key coalesced.
        let krow = (0..3)
            .find(|&i| out.column("k").unwrap().get(i) == &Value::Int(4))
            .unwrap();
        assert_eq!(out.column("lv").unwrap().get(krow), &Value::Null);
    }

    #[test]
    fn outer_join_is_union() {
        let out = merge(&left(), &right(), &["k"], &["k"], JoinType::Outer).unwrap();
        assert_eq!(out.num_rows(), 4);
    }

    #[test]
    fn duplicate_keys_produce_cross_product() {
        let l = DataFrame::from_columns(vec![(
            "k",
            vec![Value::Int(1), Value::Int(1)],
        )])
        .unwrap();
        let r = DataFrame::from_columns(vec![
            ("k", vec![Value::Int(1), Value::Int(1), Value::Int(1)]),
            ("v", vec![Value::Int(7), Value::Int(8), Value::Int(9)]),
        ])
        .unwrap();
        let out = merge(&l, &r, &["k"], &["k"], JoinType::Inner).unwrap();
        assert_eq!(out.num_rows(), 6);
    }

    #[test]
    fn null_keys_never_match() {
        let l = DataFrame::from_columns(vec![("k", vec![Value::Null, Value::Int(1)])]).unwrap();
        let r = DataFrame::from_columns(vec![("k", vec![Value::Null, Value::Int(1)])]).unwrap();
        let inner = merge(&l, &r, &["k"], &["k"], JoinType::Inner).unwrap();
        assert_eq!(inner.num_rows(), 1);
        let outer = merge(&l, &r, &["k"], &["k"], JoinType::Outer).unwrap();
        assert_eq!(outer.num_rows(), 3); // matched pair + two null singletons
    }

    #[test]
    fn different_key_names_keep_both_columns() {
        let l = DataFrame::from_columns(vec![
            ("title", vec![Value::Str("dune".into())]),
            ("rank", vec![Value::Int(1)]),
        ])
        .unwrap();
        let r = DataFrame::from_columns(vec![
            ("title_on_list", vec![Value::Str("dune".into())]),
            ("weeks", vec![Value::Int(12)]),
        ])
        .unwrap();
        let out = merge(&l, &r, &["title"], &["title_on_list"], JoinType::Inner).unwrap();
        assert_eq!(
            out.column_names(),
            vec!["title", "rank", "title_on_list", "weeks"]
        );
    }

    #[test]
    fn overlapping_non_key_columns_are_suffixed() {
        let l = DataFrame::from_columns(vec![
            ("k", vec![Value::Int(1)]),
            ("v", vec![Value::Int(10)]),
        ])
        .unwrap();
        let r = DataFrame::from_columns(vec![
            ("k", vec![Value::Int(1)]),
            ("v", vec![Value::Int(20)]),
        ])
        .unwrap();
        let out = merge(&l, &r, &["k"], &["k"], JoinType::Inner).unwrap();
        assert_eq!(out.column_names(), vec!["k", "v_x", "v_y"]);
        assert_eq!(out.column("v_x").unwrap().get(0), &Value::Int(10));
        assert_eq!(out.column("v_y").unwrap().get(0), &Value::Int(20));
    }

    #[test]
    fn multi_column_join() {
        let l = DataFrame::from_columns(vec![
            ("a", vec![Value::Int(1), Value::Int(1)]),
            ("b", vec![Value::Int(1), Value::Int(2)]),
            ("lv", vec![Value::Int(100), Value::Int(200)]),
        ])
        .unwrap();
        let r = DataFrame::from_columns(vec![
            ("a", vec![Value::Int(1)]),
            ("b", vec![Value::Int(2)]),
            ("rv", vec![Value::Int(7)]),
        ])
        .unwrap();
        let out = merge(&l, &r, &["a", "b"], &["a", "b"], JoinType::Inner).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.column("lv").unwrap().get(0), &Value::Int(200));
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let err = merge(&left(), &right(), &["k"], &[], JoinType::Inner).unwrap_err();
        assert!(matches!(err, DataFrameError::InvalidArgument(_)));
    }

    #[test]
    fn join_type_parse_roundtrip() {
        for jt in JoinType::ALL {
            assert_eq!(JoinType::parse(jt.as_str()), Some(jt));
        }
        assert_eq!(JoinType::parse("full"), Some(JoinType::Outer));
        assert_eq!(JoinType::parse("cross"), None);
    }
}
