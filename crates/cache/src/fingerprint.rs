//! Content-addressed column and table fingerprints.
//!
//! A [`ColumnFingerprint`] is a 128-bit digest of a column's *multiset of
//! cell values* — two columns fingerprint equal iff they hold the same
//! values with the same multiplicities, regardless of row order and of the
//! column's name. That is exactly the equivalence class under which every
//! cached [`ColumnArtifacts`] statistic (sketch, distinct count, null
//! fraction, min/max, dtype histogram, peak frequency) is invariant, so the
//! fingerprint doubles as the cache key and the invalidation rule: editing
//! any cell changes the key, so stale entries are unreachable by
//! construction and never need explicit invalidation.
//!
//! Row-order insensitivity is achieved by folding per-value digests with
//! commutative reductions (wrapping sums over two independently mixed
//! lanes) rather than a sequential hasher. Order-*sensitive* statistics
//! (e.g. `Column::is_sorted`) are deliberately excluded from the cached
//! artifacts for this reason.
//!
//! [`ColumnArtifacts`]: crate::ColumnArtifacts

use crate::dtype_slot;
use autosuggest_dataframe::{Column, DataFrame};
use std::fmt;

/// 128-bit content fingerprint of a column's multiset of values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnFingerprint(pub u128);

impl fmt::Display for ColumnFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// splitmix64 finaliser: a strong 64-bit mixer with distinct odd constants
/// per lane so the two commutative sums are statistically independent.
fn mix(mut x: u64, c1: u64, c2: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(c1);
    x ^= x >> 27;
    x = x.wrapping_mul(c2);
    x ^ (x >> 31)
}

const LANE_A: (u64, u64) = (0xbf58_476d_1ce4_e5b9, 0x94d0_49bb_1331_11eb);
const LANE_B: (u64, u64) = (0xff51_afd7_ed55_8ccd, 0xc4ce_b9fe_1a85_ec53);

/// Fingerprint a column's values. Nulls participate (through
/// `Value::fingerprint`, which gives all nulls one canonical digest), so an
/// all-null column and an empty column fingerprint differently.
///
/// Each value digest is salted with its dtype slot. `Value::hash` hashes
/// `Int`, `Float` and `Date` through their `f64` view so that joins match
/// `5 == 5.0`, but the cached artifacts carry the column's dtype, so
/// `[1, 2]` as `Int` and `[1.0, 2.0]` as `Float` must be different keys.
pub fn column_fingerprint(col: &Column) -> ColumnFingerprint {
    multiset_fingerprint(col.values().iter().map(cell_digest), col.len(), 0)
}

/// One cell's digest: its value hash salted with its dtype slot (see
/// [`column_fingerprint`]).
fn cell_digest(v: &autosuggest_dataframe::Value) -> u64 {
    v.fingerprint() ^ mix(dtype_slot(v.dtype()) as u64, LANE_A.0, LANE_A.1)
}

/// Fold pre-hashed digests into a 128-bit multiset fingerprint under a
/// domain `tag`, so fingerprints of different kinds (column value multisets
/// under `tag = 0`, table row multisets under a schema tag) cannot collide
/// by construction.
///
/// Commutative fold: each lane sums an independently mixed view of every
/// digest, so permuting rows cannot change the result, while any single-cell
/// edit shifts both lanes. Seeding with the length separates e.g. `[x]` from
/// `[x, x]` even under the (impossible for mixed sums) event of a lane
/// collision on values alone.
fn multiset_fingerprint<I: IntoIterator<Item = u64>>(
    hashes: I,
    len: usize,
    tag: u64,
) -> ColumnFingerprint {
    let mut lane_a = mix(len as u64 ^ 0x9e37_79b9_7f4a_7c15, LANE_A.0, LANE_A.1);
    let mut lane_b = mix(len as u64 ^ 0x2545_f491_4f6c_dd1d, LANE_B.0, LANE_B.1);
    if tag != 0 {
        lane_a ^= mix(tag, LANE_B.0, LANE_B.1);
        lane_b ^= mix(tag, LANE_A.0, LANE_A.1);
    }
    for h in hashes {
        lane_a = lane_a.wrapping_add(mix(h, LANE_A.0, LANE_A.1));
        lane_b = lane_b.wrapping_add(mix(h, LANE_B.0, LANE_B.1));
    }
    ColumnFingerprint(((lane_a as u128) << 64) | lane_b as u128)
}

/// Domain tag separating row-aligned table fingerprints from column
/// multisets.
const ROW_TAG: u64 = 0x524f_5753_4554_0001;

/// Fingerprint a whole table *row-aligned*: the multiset of its rows, each
/// row's cell digests chained in schema order, under the ordered column
/// names. Two tables fingerprint equal iff they hold the same rows under
/// the same schema, in any row order.
///
/// Column fingerprints fold each column's multiset on its own, so two
/// tables whose columns are multiset-equal but paired differently across
/// rows share them. That is sound for per-column artifacts but not for a
/// result that reads several cells of one row — e.g. the
/// emptiness-reduction ratio of a column pair — which must key on this.
pub fn table_row_fingerprint(df: &DataFrame) -> ColumnFingerprint {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for col in df.columns() {
        col.name().hash(&mut h);
    }
    df.num_columns().hash(&mut h);
    let schema = h.finish();
    let rows = (0..df.num_rows()).map(|i| {
        df.columns()
            .iter()
            .fold(schema, |acc, col| mix(acc ^ cell_digest(col.get(i)), LANE_B.0, LANE_B.1))
    });
    multiset_fingerprint(rows, df.num_rows(), ROW_TAG ^ schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosuggest_dataframe::Value;

    fn col(vals: Vec<Value>) -> Column {
        Column::new("c", vals)
    }

    #[test]
    fn stable_across_row_order() {
        let a = col(vec![Value::Int(1), Value::Str("x".into()), Value::Null, Value::Int(1)]);
        let b = col(vec![Value::Null, Value::Int(1), Value::Int(1), Value::Str("x".into())]);
        assert_eq!(column_fingerprint(&a), column_fingerprint(&b));
    }

    #[test]
    fn sensitive_to_value_edits() {
        let base = col(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        let edited = col(vec![Value::Int(1), Value::Int(2), Value::Int(4)]);
        let nulled = col(vec![Value::Int(1), Value::Int(2), Value::Null]);
        let shorter = col(vec![Value::Int(1), Value::Int(2)]);
        let dup = col(vec![Value::Int(1), Value::Int(2), Value::Int(2)]);
        let f = column_fingerprint(&base);
        assert_ne!(f, column_fingerprint(&edited));
        assert_ne!(f, column_fingerprint(&nulled));
        assert_ne!(f, column_fingerprint(&shorter));
        assert_ne!(f, column_fingerprint(&dup));
    }

    #[test]
    fn multiplicity_matters() {
        // A multiset fingerprint must distinguish [x] from [x, x]; a plain
        // XOR fold would not.
        let once = col(vec![Value::Int(7)]);
        let twice = col(vec![Value::Int(7), Value::Int(7)]);
        let thrice = col(vec![Value::Int(7), Value::Int(7), Value::Int(7)]);
        let f1 = column_fingerprint(&once);
        let f2 = column_fingerprint(&twice);
        let f3 = column_fingerprint(&thrice);
        assert_ne!(f1, f2);
        assert_ne!(f2, f3);
        assert_ne!(f1, f3);
    }

    #[test]
    fn column_fingerprint_of_a_mixed_column_is_pinned() {
        // Cache keys must not move when the fold is refactored.
        let mixed = col(vec![
            Value::Int(3),
            Value::Float(2.5),
            Value::Str("north".into()),
            Value::Null,
            Value::Bool(true),
            Value::Date(19_000),
            Value::Int(3),
        ]);
        assert_eq!(
            column_fingerprint(&mixed).to_string(),
            "926f34e7ec477559be9cdda6700875df"
        );
    }

    #[test]
    fn name_is_not_part_of_the_column_key() {
        let a = Column::new("alpha", vec![Value::Int(1), Value::Int(2)]);
        let b = Column::new("beta", vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(column_fingerprint(&a), column_fingerprint(&b));
    }

    #[test]
    fn empty_vs_all_null_differ() {
        let empty = Column::empty("e");
        let nulls = col(vec![Value::Null, Value::Null]);
        assert_ne!(column_fingerprint(&empty), column_fingerprint(&nulls));
    }

    #[test]
    fn row_fingerprint_is_row_aligned() {
        let table = |a: [i64; 4], b: [&str; 4]| {
            DataFrame::from_columns(vec![
                ("a", a.iter().map(|&v| Value::Int(v)).collect()),
                ("b", b.iter().map(|&v| Value::Str(v.into())).collect()),
            ])
            .unwrap()
        };
        let paired = table([1, 1, 2, 2], ["x", "x", "y", "y"]);
        // The same rows in another order: one key.
        let reordered = table([2, 1, 2, 1], ["y", "x", "y", "x"]);
        assert_eq!(table_row_fingerprint(&paired), table_row_fingerprint(&reordered));
        // The same column multisets paired differently across rows: every
        // column fingerprint collides, the row-aligned one does not.
        let crossed = table([1, 1, 2, 2], ["x", "y", "x", "y"]);
        for (p, c) in paired.columns().iter().zip(crossed.columns()) {
            assert_eq!(column_fingerprint(p), column_fingerprint(c));
        }
        assert_ne!(table_row_fingerprint(&paired), table_row_fingerprint(&crossed));
        // Swapped column order and a renamed column are different tables.
        let swapped = DataFrame::from_columns(vec![
            ("b", paired.columns()[1].values().to_vec()),
            ("a", paired.columns()[0].values().to_vec()),
        ])
        .unwrap();
        assert_ne!(table_row_fingerprint(&paired), table_row_fingerprint(&swapped));
        let renamed = DataFrame::from_columns(vec![
            ("a2", paired.columns()[0].values().to_vec()),
            ("b", paired.columns()[1].values().to_vec()),
        ])
        .unwrap();
        assert_ne!(table_row_fingerprint(&paired), table_row_fingerprint(&renamed));
        // Schema edits still separate tables with no rows.
        let empty = |names: &[&str]| {
            DataFrame::from_columns(names.iter().map(|&n| (n, Vec::new())).collect()).unwrap()
        };
        let a = table_row_fingerprint(&empty(&["a"]));
        assert_ne!(a, table_row_fingerprint(&empty(&["a", "b"])));
        assert_ne!(a, table_row_fingerprint(&empty(&["b"])));
    }
}
