//! Leakage-safe train/test splitting (§6.1).
//!
//! "We split the data 80%:20% into train and test, while making sure that
//! examples involving the same files/data-sets are either all in train or
//! all in test to avoid data leakage." Each notebook carries a
//! `dataset_group`; the split hashes the *group*, so everything derived
//! from the same files lands on the same side.

use std::hash::{Hash, Hasher};

/// Share of dataset groups on the test side (the paper's 80:20 split).
const TEST_FRACTION: f64 = 0.2;
/// Seed mixed into each group's hash.
const SPLIT_SEED: u64 = 17;

/// The split rule: `group` is on the test side iff the hash of
/// `(SPLIT_SEED, group)` falls below `TEST_FRACTION · u64::MAX`. A pure
/// function of the group, so every item derived from the same files lands
/// on the same side, whatever else is being split alongside it.
pub fn is_test_group(group: &str) -> bool {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    SPLIT_SEED.hash(&mut h);
    group.hash(&mut h);
    h.finish() < (TEST_FRACTION * u64::MAX as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_is_approximately_respected() {
        let groups: Vec<String> = (0..2000).map(|i| format!("g{i}")).collect();
        let test = groups.iter().filter(|g| is_test_group(g)).count();
        let frac = test as f64 / groups.len() as f64;
        assert!((0.15..=0.25).contains(&frac), "test fraction {frac}");
    }

    #[test]
    fn deterministic() {
        let groups: Vec<String> = (0..100).map(|i| format!("g{i}")).collect();
        let sides = || groups.iter().map(|g| is_test_group(g)).collect::<Vec<_>>();
        let first = sides();
        assert_eq!(first, sides());
        assert!(first.contains(&true) && first.contains(&false));
    }
}
