//! Leakage-safe train/test splitting (§6.1).
//!
//! "We split the data 80%:20% into train and test, while making sure that
//! examples involving the same files/data-sets are either all in train or
//! all in test to avoid data leakage." Each notebook carries a
//! `dataset_group`; the split hashes the *group*, so everything derived
//! from the same files lands on the same side.

use std::hash::{Hash, Hasher};

/// Index sets of a grouped split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitSets {
    pub train: Vec<usize>,
    pub test: Vec<usize>,
}

/// The split rule: `group` is on the test side iff the hash of
/// `(seed, group)` falls below `test_frac · u64::MAX`. A pure function of
/// the group, so every item derived from the same files lands on the same
/// side, whatever else is being split alongside it.
pub fn is_test_group(group: &str, test_frac: f64, seed: u64) -> bool {
    assert!((0.0..=1.0).contains(&test_frac));
    let mut h = std::collections::hash_map::DefaultHasher::new();
    seed.hash(&mut h);
    group.hash(&mut h);
    h.finish() < (test_frac * u64::MAX as f64) as u64
}

/// Split items `(1 - test_frac) : test_frac` by [`is_test_group`] on each
/// item's group key.
/// Deterministic in `seed`; items sharing a group always land together.
pub fn grouped_split<T, F>(items: &[T], group_of: F, test_frac: f64, seed: u64) -> SplitSets
where
    F: Fn(&T) -> &str,
{
    let (test, train) = (0..items.len())
        .partition(|&i| is_test_group(group_of(&items[i]), test_frac, seed));
    SplitSets { train, test }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_stay_together() {
        let items: Vec<(String, usize)> = (0..300)
            .map(|i| (format!("group-{}", i / 3), i))
            .collect();
        let split = grouped_split(&items, |x| x.0.as_str(), 0.2, 9);
        for idx in &split.test {
            let g = &items[*idx].0;
            // No member of this group may be in train.
            for t in &split.train {
                assert_ne!(&items[*t].0, g, "group {g} leaked across the split");
            }
        }
    }

    #[test]
    fn fraction_is_approximately_respected() {
        let items: Vec<String> = (0..2000).map(|i| format!("g{i}")).collect();
        let split = grouped_split(&items, |s| s.as_str(), 0.2, 1);
        let frac = split.test.len() as f64 / items.len() as f64;
        assert!((0.15..=0.25).contains(&frac), "test fraction {frac}");
        assert_eq!(split.test.len() + split.train.len(), items.len());
    }

    #[test]
    fn deterministic_in_seed() {
        let items: Vec<String> = (0..100).map(|i| format!("g{i}")).collect();
        let a = grouped_split(&items, |s| s.as_str(), 0.2, 5);
        let b = grouped_split(&items, |s| s.as_str(), 0.2, 5);
        assert_eq!(a, b);
        let c = grouped_split(&items, |s| s.as_str(), 0.2, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn extreme_fractions() {
        let items: Vec<String> = (0..50).map(|i| format!("g{i}")).collect();
        assert!(grouped_split(&items, |s| s.as_str(), 0.0, 1).test.is_empty());
        assert!(grouped_split(&items, |s| s.as_str(), 1.0, 1).train.is_empty());
    }
}
