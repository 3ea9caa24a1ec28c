//! Next-operator baselines (Table 11).
//!
//! The N-gram model lives in `autosuggest_nn::NgramModel`; the RNN-only and
//! Single-Operators variants are configurations of the core predictor. This
//! module provides the Random baseline.

use autosuggest_corpus::OpKind;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// **Random**: a uniformly random permutation of the 7 sequence operators
/// per query (seeded per-call so evaluation is reproducible).
pub struct RandomNextOp {
    seed: u64,
}

impl RandomNextOp {
    pub fn new(seed: u64) -> Self {
        RandomNextOp { seed }
    }

    /// Ranked operator ids for the `query_idx`-th test case.
    pub fn predict_ranked(&self, query_idx: usize) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ (query_idx as u64).wrapping_mul(0x9e37));
        let mut order: Vec<usize> = (0..OpKind::SEQUENCE_OPS.len()).collect();
        order.shuffle(&mut rng);
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_is_a_permutation_and_deterministic() {
        let r = RandomNextOp::new(5);
        let a = r.predict_ranked(3);
        let b = r.predict_ranked(3);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..7).collect::<Vec<_>>());
        // Different queries shuffle differently (almost surely).
        assert_ne!(r.predict_ranked(0), r.predict_ranked(1));
    }
}
