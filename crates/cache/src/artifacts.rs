//! Interned per-column statistics bundles.

use crate::sketch::MinHashSketch;
use autosuggest_dataframe::{Column, DType};

/// The one sketch size artifacts are built at. Every consumer asks for
/// `k ≤ BASE_SKETCH_K` (join enumeration uses
/// `features::candidates::JOIN_SKETCH_K`, checked at compile time), and
/// [`MinHashSketch::truncated`] derives the exact smaller sketch from the
/// cached one, so one entry serves every requested size without
/// recomputation.
pub const BASE_SKETCH_K: usize = 256;

/// The row-order-invariant statistics of a column, computed once per
/// distinct content fingerprint and shared via `Arc` by every consumer.
///
/// Everything here is derived from the column's *multiset* of values —
/// order-sensitive statistics such as `Column::is_sorted` are deliberately
/// excluded because the cache key (see [`column_fingerprint`]) identifies
/// columns up to row permutation.
///
/// [`column_fingerprint`]: crate::column_fingerprint
#[derive(Debug, Clone)]
pub struct ColumnArtifacts {
    len: usize,
    null_count: usize,
    distinct_count: usize,
    min_max: Option<(f64, f64)>,
    dtype: DType,
    dtype_counts: [u64; 6],
    peak_frequency: usize,
    sketch: MinHashSketch,
}

impl ColumnArtifacts {
    /// Compute the full bundle for a column. Statistics delegate to the
    /// `Column` methods the featurisers previously called directly, so a
    /// cache hit is bit-identical to recomputation.
    pub fn compute(col: &Column) -> ColumnArtifacts {
        let mut dtype_counts = [0u64; 6];
        for v in col.values() {
            dtype_counts[dtype_slot(v.dtype())] += 1;
        }
        ColumnArtifacts {
            len: col.len(),
            null_count: col.null_count(),
            distinct_count: col.distinct_count(),
            min_max: col.numeric_range(),
            dtype: col.dtype(),
            dtype_counts,
            peak_frequency: col.peak_frequency(),
            sketch: MinHashSketch::from_hashes(
                col.non_null().map(|v| v.fingerprint()),
                BASE_SKETCH_K,
            ),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn null_count(&self) -> usize {
        self.null_count
    }

    /// Fraction of cells that are null; 0 for an empty column
    /// (matches `Column::emptiness`).
    pub fn null_fraction(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.null_count as f64 / self.len as f64
        }
    }

    pub fn distinct_count(&self) -> usize {
        self.distinct_count
    }

    /// Distinct non-null values over row count; 0 for an empty column
    /// (matches `Column::distinct_ratio`).
    pub fn distinct_ratio(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.distinct_count as f64 / self.len as f64
        }
    }

    /// Min/max over numeric views of non-null values
    /// (matches `Column::numeric_range`).
    pub fn min_max(&self) -> Option<(f64, f64)> {
        self.min_max
    }

    /// Unified column dtype (matches `Column::dtype`).
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Per-value dtype histogram, indexed by [`dtype_slot`].
    pub fn dtype_counts(&self) -> &[u64; 6] {
        &self.dtype_counts
    }

    /// Count of the most frequent non-null value
    /// (matches `Column::peak_frequency`).
    pub fn peak_frequency(&self) -> usize {
        self.peak_frequency
    }

    /// The cached sketch at [`BASE_SKETCH_K`].
    pub fn sketch(&self) -> &MinHashSketch {
        &self.sketch
    }

    /// The exact bottom-`k` sketch of this column for `k ≤ BASE_SKETCH_K`,
    /// derived from the cached base sketch.
    pub fn sketch_at(&self, k: usize) -> MinHashSketch {
        self.sketch.truncated(k)
    }
}

/// Stable histogram slot for a dtype (the enum is `#[non_exhaustive]`-free
/// and fixed at six variants).
pub fn dtype_slot(d: DType) -> usize {
    match d {
        DType::Null => 0,
        DType::Bool => 1,
        DType::Int => 2,
        DType::Float => 3,
        DType::Str => 4,
        DType::Date => 5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosuggest_dataframe::Value;

    #[test]
    fn artifacts_match_direct_column_statistics() {
        let col = Column::new(
            "c",
            vec![
                Value::Int(3),
                Value::Int(3),
                Value::Float(1.5),
                Value::Null,
                Value::Int(-2),
            ],
        );
        let art = ColumnArtifacts::compute(&col);
        assert_eq!(art.len(), col.len());
        assert_eq!(art.null_count(), col.null_count());
        assert_eq!(art.null_fraction(), col.emptiness());
        assert_eq!(art.distinct_count(), col.distinct_count());
        assert_eq!(art.distinct_ratio(), col.distinct_ratio());
        assert_eq!(art.min_max(), col.numeric_range());
        assert_eq!(art.dtype(), col.dtype());
        assert_eq!(art.peak_frequency(), col.peak_frequency());
        assert_eq!(art.dtype_counts(), &[1, 0, 3, 1, 0, 0]);
    }

    #[test]
    fn sketch_at_matches_direct_build() {
        let col = Column::new("c", (0..500).map(Value::Int).collect::<Vec<_>>());
        let art = ColumnArtifacts::compute(&col);
        assert_eq!(art.sketch().k(), BASE_SKETCH_K);
        let direct = MinHashSketch::from_hashes(col.non_null().map(|v| v.fingerprint()), 64);
        let derived = art.sketch_at(64);
        assert_eq!(derived.k(), direct.k());
        assert_eq!(derived.cardinality(), direct.cardinality());
        assert_eq!(derived.jaccard(&direct), 1.0);
    }

    #[test]
    fn empty_column_artifacts() {
        let art = ColumnArtifacts::compute(&Column::empty("e"));
        assert!(art.is_empty());
        assert_eq!(art.null_fraction(), 0.0);
        assert_eq!(art.distinct_ratio(), 0.0);
        assert_eq!(art.min_max(), None);
        assert_eq!(art.dtype(), DType::Null);
        assert_eq!(art.peak_frequency(), 0);
    }
}
