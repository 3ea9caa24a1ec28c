//! Unpivot column-selection baselines (Table 9).
//!
//! Each method selects the subset of columns an Unpivot should collapse.

use autosuggest_dataframe::{Column, DataFrame, DType};
use crate::join::name_similarity;

/// A value-pattern signature: the shape of a column's rendered values
/// (character classes + length buckets), as used by the
/// **Pattern-similarity** heuristic of [58].
fn pattern_signature(col: &Column) -> (DType, u8, u8) {
    let mut digits = 0usize;
    let mut alphas = 0usize;
    let mut others = 0usize;
    let mut len_sum = 0usize;
    let mut n = 0usize;
    for v in col.non_null().take(50) {
        let s = v.render();
        for ch in s.chars() {
            if ch.is_ascii_digit() {
                digits += 1;
            } else if ch.is_alphabetic() {
                alphas += 1;
            } else {
                others += 1;
            }
        }
        len_sum += s.chars().count();
        n += 1;
    }
    if n == 0 {
        return (col.dtype(), 0, 0);
    }
    let total = (digits + alphas + others).max(1);
    // Dominant character class: 0=digit, 1=alpha, 2=mixed.
    let class = if digits * 10 >= total * 8 {
        0
    } else if alphas * 10 >= total * 8 {
        1
    } else {
        2
    };
    let avg_len = (len_sum / n).min(255) as u8;
    (col.dtype(), class, avg_len / 3) // bucketise length
}

/// **Pattern-similarity** \[58\]: collapse the largest group of columns whose
/// value patterns are identical.
pub fn pattern_similarity_select(df: &DataFrame) -> Vec<usize> {
    largest_group_by_key(df, pattern_signature)
}

/// **Col-name-similarity** \[79\]: cluster columns by name similarity
/// (Jaccard over trigrams); collapse the largest cluster.
pub fn col_name_similarity_select(df: &DataFrame) -> Vec<usize> {
    let n = df.num_columns();
    if n < 2 {
        return vec![];
    }
    // Single-link clustering with a fixed threshold.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let r = find(parent, parent[x]);
            parent[x] = r;
        }
        parent[x]
    }
    for i in 0..n {
        for j in (i + 1)..n {
            let sim = name_similarity(df.column_at(i).name(), df.column_at(j).name());
            if sim >= 0.4 {
                let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                parent[a] = b;
            }
        }
    }
    largest_component(&mut parent, n)
}

/// **Data-type** \[79\]: collapse the largest group of columns sharing a
/// dtype.
pub fn data_type_select(df: &DataFrame) -> Vec<usize> {
    largest_group_by_key(df, |c| c.dtype())
}

/// **Contiguous-type** \[79\]: like Data-type, but the collapsed columns must
/// be contiguous in the table — pick the longest same-dtype run.
pub fn contiguous_type_select(df: &DataFrame) -> Vec<usize> {
    let n = df.num_columns();
    if n == 0 {
        return vec![];
    }
    let types: Vec<DType> = df.columns().iter().map(Column::dtype).collect();
    let mut best: (usize, usize) = (0, 0); // (start, len)
    let mut run_start = 0usize;
    for i in 1..=n {
        if i == n || types[i] != types[run_start] {
            let len = i - run_start;
            // Prefer the longest run; among equals prefer the later one
            // (value blocks sit to the right of id columns).
            if len >= best.1 {
                best = (run_start, len);
            }
            run_start = i;
        }
    }
    (best.0..best.0 + best.1).collect()
}

fn largest_group_by_key<K: std::hash::Hash + Eq>(
    df: &DataFrame,
    key: impl Fn(&Column) -> K,
) -> Vec<usize> {
    let mut groups: std::collections::HashMap<K, Vec<usize>> = std::collections::HashMap::new();
    for (i, c) in df.columns().iter().enumerate() {
        groups.entry(key(c)).or_default().push(i);
    }
    groups
        .into_values()
        .max_by_key(|v| (v.len(), std::cmp::Reverse(v[0])))
        .unwrap_or_default()
}

fn largest_component(parent: &mut Vec<usize>, n: usize) -> Vec<usize> {
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let r = find(parent, parent[x]);
            parent[x] = r;
        }
        parent[x]
    }
    let mut comps: std::collections::HashMap<usize, Vec<usize>> =
        std::collections::HashMap::new();
    for i in 0..n {
        let r = find(parent, i);
        comps.entry(r).or_default().push(i);
    }
    comps
        .into_values()
        .max_by_key(|v| (v.len(), std::cmp::Reverse(v[0])))
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosuggest_dataframe::Value;

    /// name, sector (strings) + year columns 2006..2008 (floats) — Fig. 11.
    fn wide() -> DataFrame {
        DataFrame::from_columns(vec![
            (
                "name",
                (0..5).map(|i| Value::Str(format!("co{i}"))).collect(),
            ),
            (
                "sector",
                (0..5).map(|i| Value::Str(format!("s{}", i % 2))).collect(),
            ),
            ("2006", (0..5).map(|i| Value::Float(i as f64 + 0.5)).collect()),
            ("2007", (0..5).map(|i| Value::Float(i as f64 + 1.5)).collect()),
            ("2008", (0..5).map(|i| Value::Float(i as f64 + 2.5)).collect()),
        ])
        .unwrap()
    }

    #[test]
    fn data_type_selects_float_block() {
        assert_eq!(data_type_select(&wide()), vec![2, 3, 4]);
    }

    #[test]
    fn contiguous_type_selects_trailing_run() {
        assert_eq!(contiguous_type_select(&wide()), vec![2, 3, 4]);
        // With an interrupting string column, the run is cut short.
        let df = DataFrame::from_columns(vec![
            ("a", vec![Value::Float(1.0)]),
            ("x", vec![Value::Str("s".into())]),
            ("b", vec![Value::Float(2.0)]),
            ("c", vec![Value::Float(3.0)]),
        ])
        .unwrap();
        assert_eq!(contiguous_type_select(&df), vec![2, 3]);
    }

    #[test]
    fn name_similarity_clusters_year_columns() {
        let sel = col_name_similarity_select(&wide());
        // The year names 2006/2007/2008 share the "200" trigram cluster.
        assert!(sel.contains(&2) && sel.contains(&3) && sel.contains(&4), "{sel:?}");
        assert!(!sel.contains(&0));
    }

    #[test]
    fn pattern_similarity_separates_numeric_patterns() {
        let sel = pattern_similarity_select(&wide());
        assert_eq!(sel, vec![2, 3, 4]);
    }

    #[test]
    fn data_type_fails_when_id_shares_type_with_block() {
        // The documented weakness: an extra float id column is absorbed.
        let df = DataFrame::from_columns(vec![
            ("score_id", (0..4).map(|i| Value::Float(i as f64)).collect()),
            ("name", (0..4).map(|i| Value::Str(format!("n{i}"))).collect()),
            ("2006", (0..4).map(|i| Value::Float(i as f64 + 9.0)).collect()),
            ("2007", (0..4).map(|i| Value::Float(i as f64 + 8.0)).collect()),
        ])
        .unwrap();
        let sel = data_type_select(&df);
        assert!(sel.contains(&0), "the float id gets wrongly collapsed");
        // Contiguous-type avoids this specific trap.
        assert_eq!(contiguous_type_select(&df), vec![2, 3]);
    }

    #[test]
    fn empty_and_tiny_frames_are_safe() {
        let empty = DataFrame::empty();
        assert!(contiguous_type_select(&empty).is_empty());
        assert!(col_name_similarity_select(&empty).is_empty());
    }
}
