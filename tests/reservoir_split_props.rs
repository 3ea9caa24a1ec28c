//! Seeded property tests for `corpus::grouped_split`, the leakage-safe
//! train/test split. Cases come from a seeded `StdRng`, same idiom as
//! `tests/properties.rs` — deterministic, no external framework.
//!
//! The edges pinned here are exactly the ones config arithmetic can
//! produce: a 1-notebook shard and extreme test fractions — plus the
//! invariant that makes streamed replay safe: a group's side is a pure
//! function of `(seed, group)`, so however shards or threads batch the
//! notebooks, no group ever changes side.

use auto_suggest::corpus::grouped_split;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 64;

#[test]
fn split_single_item_shard_lands_wholly_on_one_side() {
    // The 1-notebook-shard edge: a split over a single item must place it
    // on exactly one side, for any fraction and seed.
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xb0f_0005 + case);
        let items = vec![format!("group-{}", rng.random_range(0u32..1000))];
        let frac = rng.random_range(0..=10) as f64 / 10.0;
        let split = grouped_split(&items, |s| s.as_str(), frac, rng.random_range(0..u64::MAX));
        assert_eq!(split.train.len() + split.test.len(), 1, "case {case}");
        assert!(split.train == vec![0] || split.test == vec![0]);
    }
}

#[test]
fn split_partitions_indices_and_respects_extreme_fractions() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xb0f_0006 + case);
        let n = rng.random_range(1usize..200);
        let items: Vec<String> =
            (0..n).map(|_| format!("g{}", rng.random_range(0u32..50))).collect();
        let seed = rng.random_range(0..u64::MAX);

        // frac 0.0 / 1.0 are total: everything on one side.
        assert!(grouped_split(&items, |s| s.as_str(), 0.0, seed).test.is_empty());
        assert!(grouped_split(&items, |s| s.as_str(), 1.0, seed).train.is_empty());

        // Any fraction partitions [0, n) exactly, preserving index order.
        let frac = rng.random_range(1..10) as f64 / 10.0;
        let split = grouped_split(&items, |s| s.as_str(), frac, seed);
        let mut all: Vec<usize> = split.train.iter().chain(&split.test).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>(), "case {case}: not a partition");
        assert!(split.train.windows(2).all(|w| w[0] < w[1]));
        assert!(split.test.windows(2).all(|w| w[0] < w[1]));
    }
}

#[test]
fn split_groups_never_straddle_and_membership_is_population_independent() {
    // Group side-assignment is a pure function of (seed, group): adding or
    // removing other notebooks (the thread/shard count changing what is in
    // a batch) can never flip an existing group's side.
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xb0f_0007 + case);
        let n = rng.random_range(2usize..120);
        let items: Vec<String> =
            (0..n).map(|_| format!("g{}", rng.random_range(0u32..12))).collect();
        let seed = rng.random_range(0..u64::MAX);
        let split = grouped_split(&items, |s| s.as_str(), 0.3, seed);

        let side_of = |idx: &usize| split.test.contains(idx);
        for i in 0..n {
            for j in 0..n {
                if items[i] == items[j] {
                    assert_eq!(
                        side_of(&i),
                        side_of(&j),
                        "case {case}: group {} straddles the split",
                        items[i]
                    );
                }
            }
        }

        // Re-splitting any subset keeps each group on its original side.
        let subset: Vec<String> =
            items.iter().filter(|_| rng.random_range(0..2) == 0).cloned().collect();
        let sub_split = grouped_split(&subset, |s| s.as_str(), 0.3, seed);
        for (k, g) in subset.iter().enumerate() {
            let full_side = (0..n).find(|i| &items[*i] == g).map(|i| side_of(&i));
            assert_eq!(
                Some(sub_split.test.contains(&k)),
                full_side,
                "case {case}: group {g} flipped sides in a subset"
            );
        }
    }
}
