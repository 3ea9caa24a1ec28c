//! The [`DataFrame`]: an ordered collection of equal-length named columns.

use crate::column::Column;
use crate::error::{DataFrameError, Result};
use crate::schema::{Field, Schema};
use crate::value::Value;
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A two-dimensional, column-oriented table.
///
/// Invariants: all columns have the same length and unique names. Both are
/// enforced at construction and by every mutating method.
#[derive(Debug, Clone, PartialEq)]
pub struct DataFrame {
    columns: Vec<Column>,
}

impl DataFrame {
    /// A frame with no columns and no rows.
    pub fn empty() -> Self {
        DataFrame { columns: Vec::new() }
    }

    /// Build from `(name, values)` pairs, validating the invariants.
    pub fn from_columns(cols: Vec<(&str, Vec<Value>)>) -> Result<Self> {
        DataFrame::new(
            cols.into_iter()
                .map(|(name, values)| Column::new(name, values))
                .collect(),
        )
    }

    /// Build from pre-constructed columns, validating the invariants.
    pub fn new(columns: Vec<Column>) -> Result<Self> {
        if let Some(first) = columns.first() {
            let expected = first.len();
            for c in &columns {
                if c.len() != expected {
                    return Err(DataFrameError::LengthMismatch {
                        expected,
                        got: c.len(),
                        column: c.name().to_string(),
                    });
                }
            }
        }
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            if !seen.insert(c.name()) {
                return Err(DataFrameError::DuplicateColumn { name: c.name().to_string() });
            }
        }
        Ok(DataFrame { columns })
    }

    /// Build from row-major data given column names. All rows must have
    /// exactly one value per column.
    pub fn from_rows(names: &[&str], rows: Vec<Vec<Value>>) -> Result<Self> {
        for (i, r) in rows.iter().enumerate() {
            if r.len() != names.len() {
                return Err(DataFrameError::InvalidArgument(format!(
                    "row {i} has {} values, expected {}",
                    r.len(),
                    names.len()
                )));
            }
        }
        let mut columns: Vec<Column> = names
            .iter()
            .map(|n| Column::new(*n, Vec::with_capacity(rows.len())))
            .collect();
        for row in rows {
            for (c, v) in columns.iter_mut().zip(row) {
                c.push(v);
            }
        }
        DataFrame::new(columns)
    }

    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The schema (names + inferred dtypes) of the frame.
    pub fn schema(&self) -> Schema {
        Schema::new(
            self.columns
                .iter()
                .map(|c| Field::new(c.name(), c.dtype()))
                .collect(),
        )
    }

    /// Column names in order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(Column::name).collect()
    }

    /// Look up a column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.columns
            .iter()
            .find(|c| c.name() == name)
            .ok_or_else(|| DataFrameError::ColumnNotFound { name: name.to_string() })
    }

    /// Position of a column by name.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name() == name)
            .ok_or_else(|| DataFrameError::ColumnNotFound { name: name.to_string() })
    }

    pub fn column_at(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Mutable access to a column by position. The caller must preserve the
    /// frame invariants (length; renames must keep names unique).
    pub fn column_at_mut(&mut self, idx: usize) -> &mut Column {
        &mut self.columns[idx]
    }

    /// Append a column; must match the row count and have a fresh name.
    pub fn add_column(&mut self, column: Column) -> Result<()> {
        if !self.columns.is_empty() && column.len() != self.num_rows() {
            return Err(DataFrameError::LengthMismatch {
                expected: self.num_rows(),
                got: column.len(),
                column: column.name().to_string(),
            });
        }
        if self.columns.iter().any(|c| c.name() == column.name()) {
            return Err(DataFrameError::DuplicateColumn { name: column.name().to_string() });
        }
        self.columns.push(column);
        Ok(())
    }

    /// A new frame containing only the named columns, in the given order.
    pub fn select(&self, names: &[&str]) -> Result<DataFrame> {
        let mut cols = Vec::with_capacity(names.len());
        for n in names {
            cols.push(self.column(n)?.clone());
        }
        DataFrame::new(cols)
    }

    /// A new frame containing the rows at `indices` (duplicates allowed).
    pub fn take(&self, indices: &[usize]) -> DataFrame {
        let columns = self
            .columns
            .iter()
            .map(|c| {
                Column::new(
                    c.name(),
                    indices.iter().map(|&i| c.get(i).clone()).collect(),
                )
            })
            .collect();
        DataFrame { columns }
    }

    /// The first `n` rows.
    pub fn head(&self, n: usize) -> DataFrame {
        let n = n.min(self.num_rows());
        let idx: Vec<usize> = (0..n).collect();
        self.take(&idx)
    }

    /// One row as a vector of owned values.
    pub fn row(&self, idx: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(idx).clone()).collect()
    }

    /// Iterate rows as owned value vectors (allocates per row; fine for the
    /// moderate table sizes replay produces).
    pub fn rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.num_rows()).map(move |i| self.row(i))
    }

    /// A stable content hash of schema + data. The replay data-flow graph
    /// (§3.3) identifies each (versioned) frame by this id.
    pub fn content_hash(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for c in &self.columns {
            c.name().hash(&mut h);
            for v in c.values() {
                v.hash(&mut h);
            }
            0xfeed_u16.hash(&mut h);
        }
        h.finish()
    }

    /// Rows where `predicate` returns true.
    pub fn filter<F: Fn(usize) -> bool>(&self, predicate: F) -> DataFrame {
        let idx: Vec<usize> = (0..self.num_rows()).filter(|&i| predicate(i)).collect();
        self.take(&idx)
    }

    /// Sort rows ascending by the named columns (stable).
    pub fn sort_by(&self, names: &[&str]) -> Result<DataFrame> {
        let key_idx: Vec<usize> = names
            .iter()
            .map(|n| self.column_index(n))
            .collect::<Result<_>>()?;
        let mut order: Vec<usize> = (0..self.num_rows()).collect();
        order.sort_by(|&a, &b| {
            for &k in &key_idx {
                let c = &self.columns[k];
                let ord = c.get(a).cmp(c.get(b));
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        Ok(self.take(&order))
    }
}

impl fmt::Display for DataFrame {
    /// Render up to 10 rows as an aligned text table, the way replay logs
    /// show frames.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let show = self.num_rows().min(10);
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.name().len()).collect();
        let rendered: Vec<Vec<String>> = (0..show)
            .map(|i| {
                self.columns
                    .iter()
                    .enumerate()
                    .map(|(j, c)| {
                        let s = c.get(i).render();
                        widths[j] = widths[j].max(s.len());
                        s
                    })
                    .collect()
            })
            .collect();
        for (j, c) in self.columns.iter().enumerate() {
            if j > 0 {
                f.write_str("  ")?;
            }
            write!(f, "{:<w$}", c.name(), w = widths[j])?;
        }
        writeln!(f)?;
        for row in rendered {
            for (j, cell) in row.iter().enumerate() {
                if j > 0 {
                    f.write_str("  ")?;
                }
                write!(f, "{:<w$}", cell, w = widths[j])?;
            }
            writeln!(f)?;
        }
        if self.num_rows() > show {
            writeln!(f, "... {} more rows", self.num_rows() - show)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DType;

    fn sample() -> DataFrame {
        DataFrame::from_columns(vec![
            ("id", vec![Value::Int(1), Value::Int(2), Value::Int(3)]),
            (
                "name",
                vec![
                    Value::Str("a".into()),
                    Value::Str("b".into()),
                    Value::Str("c".into()),
                ],
            ),
        ])
        .unwrap()
    }

    #[test]
    fn construction_validates_lengths() {
        let err = DataFrame::from_columns(vec![
            ("a", vec![Value::Int(1)]),
            ("b", vec![Value::Int(1), Value::Int(2)]),
        ])
        .unwrap_err();
        assert!(matches!(err, DataFrameError::LengthMismatch { .. }));
    }

    #[test]
    fn construction_validates_unique_names() {
        let err = DataFrame::from_columns(vec![
            ("a", vec![Value::Int(1)]),
            ("a", vec![Value::Int(2)]),
        ])
        .unwrap_err();
        assert!(matches!(err, DataFrameError::DuplicateColumn { .. }));
    }

    #[test]
    fn from_rows_roundtrip() {
        let df = DataFrame::from_rows(
            &["x", "y"],
            vec![
                vec![Value::Int(1), Value::Str("p".into())],
                vec![Value::Int(2), Value::Str("q".into())],
            ],
        )
        .unwrap();
        assert_eq!(df.num_rows(), 2);
        assert_eq!(df.row(1), vec![Value::Int(2), Value::Str("q".into())]);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = DataFrame::from_rows(&["x", "y"], vec![vec![Value::Int(1)]]).unwrap_err();
        assert!(matches!(err, DataFrameError::InvalidArgument(_)));
    }

    #[test]
    fn select_and_take() {
        let df = sample();
        let sel = df.select(&["name"]).unwrap();
        assert_eq!(sel.num_columns(), 1);
        let taken = df.take(&[2, 0, 0]);
        assert_eq!(taken.num_rows(), 3);
        assert_eq!(taken.column("id").unwrap().get(0), &Value::Int(3));
        assert_eq!(taken.column("id").unwrap().get(1), &Value::Int(1));
    }

    #[test]
    fn schema_reports_inferred_types() {
        let df = sample();
        let schema = df.schema();
        assert_eq!(schema.field(0).dtype, DType::Int);
        assert_eq!(schema.field(1).dtype, DType::Str);
    }

    #[test]
    fn content_hash_is_sensitive_to_data_and_names() {
        let a = sample();
        let mut b = sample();
        assert_eq!(a.content_hash(), b.content_hash());
        b.columns[0].values_mut()[0] = Value::Int(99);
        assert_ne!(a.content_hash(), b.content_hash());
        let renamed = DataFrame::from_columns(vec![
            ("idx", vec![Value::Int(1), Value::Int(2), Value::Int(3)]),
            (
                "name",
                vec![
                    Value::Str("a".into()),
                    Value::Str("b".into()),
                    Value::Str("c".into()),
                ],
            ),
        ])
        .unwrap();
        assert_ne!(a.content_hash(), renamed.content_hash());
    }

    #[test]
    fn sort_by_multiple_keys() {
        let df = DataFrame::from_columns(vec![
            ("g", vec![Value::Int(2), Value::Int(1), Value::Int(2)]),
            ("v", vec![Value::Int(9), Value::Int(5), Value::Int(1)]),
        ])
        .unwrap();
        let sorted = df.sort_by(&["g", "v"]).unwrap();
        assert_eq!(
            sorted.column("v").unwrap().values(),
            &[Value::Int(5), Value::Int(1), Value::Int(9)]
        );
    }

    #[test]
    fn filter_by_row_predicate() {
        let df = sample();
        let ids = df.column_index("id").unwrap();
        let f = df.filter(|i| df.column_at(ids).get(i) > &Value::Int(1));
        assert_eq!(f.num_rows(), 2);
    }

    #[test]
    fn add_column_checks_invariants() {
        let mut df = sample();
        assert!(df
            .add_column(Column::new("id", vec![Value::Int(0); 3]))
            .is_err());
        assert!(df
            .add_column(Column::new("z", vec![Value::Int(0); 2]))
            .is_err());
        assert!(df
            .add_column(Column::new("z", vec![Value::Int(0); 3]))
            .is_ok());
        assert_eq!(df.num_columns(), 3);
    }

    #[test]
    fn display_renders_header() {
        let s = sample().to_string();
        assert!(s.starts_with("id"));
        assert!(s.contains("name"));
    }

    #[test]
    fn empty_frame_behaviour() {
        let df = DataFrame::empty();
        assert_eq!(df.num_rows(), 0);
        assert_eq!(df.num_columns(), 0);
        assert_eq!(df.head(5).num_rows(), 0);
    }
}
