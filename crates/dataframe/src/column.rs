//! A named column of values, with the statistics the feature extractors need.

use crate::value::{DType, Value};
use std::collections::HashMap;

/// A named column of [`Value`]s.
///
/// Columns expose the cheap statistics (distinct counts, emptiness, ranges,
/// sortedness, peak frequency) that the paper's feature extractors consume;
/// computing them here keeps `autosuggest-features` free of storage details.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    name: String,
    values: Vec<Value>,
}

impl Column {
    pub fn new(name: impl Into<String>, values: Vec<Value>) -> Self {
        Column { name: name.into(), values }
    }

    /// An empty column with a name, useful as a builder target.
    pub fn empty(name: impl Into<String>) -> Self {
        Column { name: name.into(), values: Vec::new() }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn rename(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    pub fn values_mut(&mut self) -> &mut Vec<Value> {
        &mut self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    pub fn push(&mut self, v: Value) {
        self.values.push(v);
    }

    /// Infer the column dtype by unifying the dtypes of all non-null values.
    /// Mixed incompatible types degrade to `Str` (Pandas' `object` dtype).
    pub fn dtype(&self) -> DType {
        let mut acc = DType::Null;
        for v in &self.values {
            let d = v.dtype();
            if d == DType::Null {
                continue;
            }
            acc = match acc.unify(d) {
                Some(u) => u,
                None => return DType::Str,
            };
        }
        acc
    }

    /// Number of null cells.
    pub fn null_count(&self) -> usize {
        self.values.iter().filter(|v| v.is_null()).count()
    }

    /// Fraction of cells that are null; 0 for an empty column.
    pub fn emptiness(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.null_count() as f64 / self.values.len() as f64
        }
    }

    /// Number of distinct non-null values.
    pub fn distinct_count(&self) -> usize {
        let mut seen = std::collections::HashSet::with_capacity(self.values.len());
        for v in &self.values {
            if !v.is_null() {
                seen.insert(v);
            }
        }
        seen.len()
    }

    /// Distinct non-null values divided by row count (the paper's
    /// *distinct-value-ratio*); 0 for an empty column.
    pub fn distinct_ratio(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.distinct_count() as f64 / self.values.len() as f64
        }
    }

    /// Min and max over the numeric views of non-null values, if the column
    /// has any numeric content.
    pub fn numeric_range(&self) -> Option<(f64, f64)> {
        let mut range: Option<(f64, f64)> = None;
        for v in &self.values {
            if let Some(x) = v.as_f64() {
                range = Some(match range {
                    None => (x, x),
                    Some((lo, hi)) => (lo.min(x), hi.max(x)),
                });
            }
        }
        range
    }

    /// Whether the non-null values appear in non-decreasing or non-increasing
    /// order (the paper's *sorted-ness* join feature).
    pub fn is_sorted(&self) -> bool {
        let non_null: Vec<&Value> = self.values.iter().filter(|v| !v.is_null()).collect();
        if non_null.len() < 2 {
            return true;
        }
        non_null.windows(2).all(|w| w[0] <= w[1])
            || non_null.windows(2).all(|w| w[0] >= w[1])
    }

    /// Count of the most frequent non-null value (the paper's
    /// *peak-frequency* GroupBy feature). Zero for an all-null column.
    pub fn peak_frequency(&self) -> usize {
        let mut counts: HashMap<&Value, usize> = HashMap::new();
        for v in &self.values {
            if !v.is_null() {
                *counts.entry(v).or_insert(0) += 1;
            }
        }
        counts.values().copied().max().unwrap_or(0)
    }

    /// Iterate over non-null values.
    pub fn non_null(&self) -> impl Iterator<Item = &Value> {
        self.values.iter().filter(|v| !v.is_null())
    }

    /// Build the distinct set of non-null values (used for overlap features
    /// and containment checks).
    pub fn distinct_set(&self) -> std::collections::HashSet<&Value> {
        self.non_null().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(vals: Vec<Value>) -> Column {
        Column::new("c", vals)
    }

    #[test]
    fn dtype_inference_mixed_numeric() {
        let c = col(vec![Value::Int(1), Value::Float(2.5), Value::Null]);
        assert_eq!(c.dtype(), DType::Float);
    }

    #[test]
    fn dtype_inference_incompatible_degrades_to_str() {
        let c = col(vec![Value::Int(1), Value::Str("a".into())]);
        assert_eq!(c.dtype(), DType::Str);
    }

    #[test]
    fn dtype_all_null() {
        let c = col(vec![Value::Null, Value::Null]);
        assert_eq!(c.dtype(), DType::Null);
    }

    #[test]
    fn distinct_and_emptiness() {
        let c = col(vec![
            Value::Int(1),
            Value::Int(1),
            Value::Int(2),
            Value::Null,
        ]);
        assert_eq!(c.distinct_count(), 2);
        assert_eq!(c.null_count(), 1);
        assert!((c.emptiness() - 0.25).abs() < 1e-12);
        assert!((c.distinct_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sortedness_detects_both_directions() {
        assert!(col(vec![Value::Int(1), Value::Int(2), Value::Int(2)]).is_sorted());
        assert!(col(vec![Value::Int(3), Value::Int(2), Value::Int(1)]).is_sorted());
        assert!(!col(vec![Value::Int(1), Value::Int(3), Value::Int(2)]).is_sorted());
        // Nulls are skipped.
        assert!(col(vec![Value::Null, Value::Int(1), Value::Int(5)]).is_sorted());
    }

    #[test]
    fn numeric_range_ignores_strings() {
        let c = col(vec![Value::Int(3), Value::Int(-1), Value::Str("x".into())]);
        assert_eq!(c.numeric_range(), Some((-1.0, 3.0)));
        let s = col(vec![Value::Str("x".into())]);
        assert_eq!(s.numeric_range(), None);
    }

    #[test]
    fn peak_frequency_counts_mode() {
        let c = col(vec![
            Value::Str("a".into()),
            Value::Str("a".into()),
            Value::Str("b".into()),
            Value::Null,
        ]);
        assert_eq!(c.peak_frequency(), 2);
        assert_eq!(col(vec![Value::Null]).peak_frequency(), 0);
    }

    #[test]
    fn empty_column_statistics_are_safe() {
        let c = Column::empty("e");
        assert_eq!(c.distinct_count(), 0);
        assert_eq!(c.emptiness(), 0.0);
        assert!(c.is_sorted());
        assert_eq!(c.numeric_range(), None);
    }
}
