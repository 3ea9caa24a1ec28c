//! Bottom-k MinHash sketches for cheap containment pre-checks.
//!
//! Footnote 2 of the paper prunes join candidates with "sketch-based
//! containment-checks" before featurising. A bottom-k sketch keeps the `k`
//! smallest 64-bit hashes of a value set; the Jaccard similarity of two sets
//! is estimated from the overlap of their merged bottom-k, and containment
//! follows from Jaccard plus the (known) set sizes.
//!
//! Sketches built at different `k` remain comparable: [`MinHashSketch::jaccard`]
//! compares on the shared `min(k)` prefix, and [`MinHashSketch::truncated`]
//! produces the *exact* bottom-k' sketch of the same value set for any
//! `k' ≤ k` — which is what lets the column cache store one sketch per
//! column at a base size and serve every smaller request from it.

use serde::{Deserialize, Serialize};

/// A bottom-k sketch of a set of hashed values.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MinHashSketch {
    k: usize,
    /// The `k` smallest hashes, sorted ascending.
    mins: Vec<u64>,
    /// Exact distinct count of the underlying set.
    cardinality: usize,
}

impl MinHashSketch {
    /// Build from an iterator of value hashes (callers hash [`Value`]s with
    /// their `fingerprint`).
    ///
    /// [`Value`]: autosuggest_dataframe::Value
    pub fn from_hashes<I: IntoIterator<Item = u64>>(hashes: I, k: usize) -> Self {
        assert!(k > 0);
        let mut all: Vec<u64> = hashes.into_iter().collect();
        all.sort_unstable();
        all.dedup();
        let cardinality = all.len();
        all.truncate(k);
        MinHashSketch { k, mins: all, cardinality }
    }

    pub fn cardinality(&self) -> usize {
        self.cardinality
    }

    /// The sketch size this was built with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The exact bottom-`k'` sketch of the same value set, for `k' ≤ k`.
    ///
    /// Because `mins` holds the `k` smallest distinct hashes in ascending
    /// order, its first `k'` entries are exactly what
    /// [`MinHashSketch::from_hashes`] with `k'` would have kept — the result
    /// is bit-identical to building at the smaller size directly. Requests
    /// larger than the built size clamp to `k` (the sketch cannot invent
    /// hashes it never stored).
    pub fn truncated(&self, k: usize) -> MinHashSketch {
        assert!(k > 0);
        let k = k.min(self.k);
        let mut mins = self.mins.clone();
        mins.truncate(k);
        MinHashSketch { k, mins, cardinality: self.cardinality }
    }

    /// Estimate the Jaccard similarity with another sketch (exact when both
    /// sets fit within `k`).
    ///
    /// Sketches of different sizes are compared on the shared
    /// `min(self.k, other.k)` prefix — each side's prefix is itself a valid
    /// bottom-k sketch of its set, so the estimate degrades gracefully to
    /// the smaller size instead of panicking. For equal `k` the result is
    /// identical to the historical same-size implementation.
    pub fn jaccard(&self, other: &MinHashSketch) -> f64 {
        let k = self.k.min(other.k);
        if self.cardinality == 0 && other.cardinality == 0 {
            return 1.0;
        }
        if self.mins.is_empty() || other.mins.is_empty() {
            return 0.0;
        }
        let a = &self.mins[..self.mins.len().min(k)];
        let b = &other.mins[..other.mins.len().min(k)];
        // Merge the two bottom-k lists, keep the k smallest distinct hashes
        // of the union, and count how many appear in both sketches.
        let mut merged: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        merged.sort_unstable();
        merged.dedup();
        merged.truncate(k);
        let both = merged
            .iter()
            .filter(|h| a.binary_search(h).is_ok() && b.binary_search(h).is_ok())
            .count();
        both as f64 / merged.len() as f64
    }

    /// Estimate the containment of `self`'s set within `other`'s set:
    /// `|A ∩ B| / |A|`, derived from the Jaccard estimate and exact
    /// cardinalities.
    pub fn containment_in(&self, other: &MinHashSketch) -> f64 {
        if self.cardinality == 0 {
            return 1.0;
        }
        let j = self.jaccard(other);
        // |A∩B| = J/(1+J) · (|A|+|B|)
        let inter = j / (1.0 + j) * (self.cardinality + other.cardinality) as f64;
        (inter / self.cardinality as f64).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch(vals: std::ops::Range<u64>, k: usize) -> MinHashSketch {
        MinHashSketch::from_hashes(vals.map(mix), k)
    }

    /// A cheap 64-bit mixer so consecutive integers behave like hashes.
    fn mix(x: u64) -> u64 {
        let mut h = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 32;
        h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
        h ^ (h >> 32)
    }

    #[test]
    fn identical_sets_have_jaccard_one() {
        let a = sketch(0..1000, 64);
        let b = sketch(0..1000, 64);
        assert_eq!(a.jaccard(&b), 1.0);
        assert_eq!(a.containment_in(&b), 1.0);
    }

    #[test]
    fn disjoint_sets_have_jaccard_zero() {
        let a = sketch(0..500, 64);
        let b = sketch(10_000..10_500, 64);
        assert_eq!(a.jaccard(&b), 0.0);
        assert_eq!(a.containment_in(&b), 0.0);
    }

    #[test]
    fn small_sets_are_exact() {
        // Both sets fit inside k, so the estimate is exact: |∩|=5, |∪|=15.
        let a = sketch(0..10, 64);
        let b = sketch(5..15, 64);
        assert!((a.jaccard(&b) - 5.0 / 15.0).abs() < 1e-12);
        assert!((a.containment_in(&b) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn large_set_estimate_is_close() {
        // 50% overlap on sets much larger than k.
        let a = sketch(0..20_000, 128);
        let b = sketch(10_000..30_000, 128);
        let true_j = 10_000.0 / 30_000.0;
        assert!((a.jaccard(&b) - true_j).abs() < 0.12, "estimate {}", a.jaccard(&b));
    }

    #[test]
    fn subset_containment_near_one() {
        let a = sketch(0..100, 64);
        let b = sketch(0..10_000, 64);
        assert!(a.containment_in(&b) > 0.6, "got {}", a.containment_in(&b));
    }

    #[test]
    fn empty_set_edge_cases() {
        let e = MinHashSketch::from_hashes(std::iter::empty(), 16);
        let a = sketch(0..10, 16);
        assert_eq!(e.jaccard(&e), 1.0);
        assert_eq!(e.containment_in(&a), 1.0);
        assert_eq!(a.jaccard(&e), 0.0);
    }

    #[test]
    fn mismatched_k_degrades_to_shared_prefix() {
        // Regression: comparing sketches built at different k used to panic.
        // Now the estimate is computed on the min(k) prefix and must equal
        // comparing both sketches truncated to that size.
        let a = sketch(0..5_000, 32);
        let b = sketch(2_500..7_500, 128);
        let j = a.jaccard(&b);
        let j_sym = b.jaccard(&a);
        let j_trunc = a.truncated(32).jaccard(&b.truncated(32));
        assert_eq!(j, j_trunc);
        assert_eq!(j_sym, j_trunc);
        let true_j = 2_500.0 / 7_500.0;
        assert!((j - true_j).abs() < 0.25, "estimate {j} too far from {true_j}");
        // Containment stays within [0, 1] across the mismatch as well.
        let c = a.containment_in(&b);
        assert!((0.0..=1.0).contains(&c));
    }

    #[test]
    fn equal_k_behaviour_is_unchanged_by_the_prefix_rule() {
        // For same-size sketches the min(k) prefix is the whole sketch, so
        // the estimate must match the exact small-set value as before.
        let a = sketch(0..10, 64);
        let b = sketch(5..15, 64);
        assert!((a.jaccard(&b) - 5.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn truncated_is_bit_identical_to_building_small() {
        let hashes: Vec<u64> = (0..3_000).map(mix).collect();
        let big = MinHashSketch::from_hashes(hashes.iter().copied(), 256);
        let small = MinHashSketch::from_hashes(hashes.iter().copied(), 64);
        let t = big.truncated(64);
        assert_eq!(t.k(), small.k());
        assert_eq!(t.cardinality(), small.cardinality());
        assert_eq!(t.mins, small.mins);
        // Truncating beyond the built size clamps instead of inventing data.
        let clamped = small.truncated(512);
        assert_eq!(clamped.k(), 64);
        assert_eq!(clamped.mins, small.mins);
    }
}
