//! N-gram language model with MLE estimates and backoff.
//!
//! The Table 11 baseline: "N-gram [66] is another popular language modeling
//! approach … implemented with trigrams and MLE". Contexts unseen at
//! training time back off to shorter n-grams, ending at the unigram
//! distribution (uniform if even that is empty).

use std::collections::HashMap;

/// An order-`n` MLE language model over symbol ids `0..vocab`.
#[derive(Debug, Clone)]
pub struct NgramModel {
    order: usize,
    vocab: usize,
    /// Context (up to `order-1` symbols) → next-symbol counts.
    counts: HashMap<Vec<usize>, Vec<u64>>,
}

impl NgramModel {
    /// `order` = 3 gives the paper's trigram model.
    pub fn new(order: usize, vocab: usize) -> Self {
        assert!(order >= 1, "order must be at least 1");
        assert!(vocab > 0);
        NgramModel { order, vocab, counts: HashMap::new() }
    }

    pub fn order(&self) -> usize {
        self.order
    }

    /// Accumulate counts from operator sequences. Every context length from
    /// 0 to `order-1` is counted so backoff has mass at each level.
    pub fn train(&mut self, sequences: &[Vec<usize>]) {
        for seq in sequences {
            for (i, &next) in seq.iter().enumerate() {
                assert!(next < self.vocab, "symbol out of vocabulary");
                let max_ctx = (self.order - 1).min(i);
                for ctx_len in 0..=max_ctx {
                    let ctx = seq[i - ctx_len..i].to_vec();
                    let slot = self
                        .counts
                        .entry(ctx)
                        .or_insert_with(|| vec![0; self.vocab]);
                    slot[next] += 1;
                }
            }
        }
    }

    /// Next-symbol distribution after `prefix`, backing off from the longest
    /// usable context to the unigram, then uniform.
    pub fn predict_dist(&self, prefix: &[usize]) -> Vec<f64> {
        let max_ctx = (self.order - 1).min(prefix.len());
        for ctx_len in (0..=max_ctx).rev() {
            let ctx = &prefix[prefix.len() - ctx_len..];
            if let Some(slot) = self.counts.get(ctx) {
                let total: u64 = slot.iter().sum();
                if total > 0 {
                    return slot.iter().map(|&c| c as f64 / total as f64).collect();
                }
            }
        }
        vec![1.0 / self.vocab as f64; self.vocab]
    }

    /// Symbols ranked by descending probability after `prefix`.
    pub fn predict_ranked(&self, prefix: &[usize]) -> Vec<usize> {
        let p = self.predict_dist(prefix);
        let mut order: Vec<usize> = (0..self.vocab).collect();
        order.sort_by(|&a, &b| p[b].total_cmp(&p[a]).then(a.cmp(&b)));
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigram_memorises_deterministic_pattern() {
        let mut m = NgramModel::new(3, 4);
        // Pattern: 0 1 2 0 1 2 ...
        m.train(&[vec![0, 1, 2, 0, 1, 2, 0, 1, 2]]);
        assert_eq!(m.predict_ranked(&[0, 1])[0], 2);
        assert_eq!(m.predict_ranked(&[1, 2])[0], 0);
    }

    #[test]
    fn backs_off_to_bigram_then_unigram() {
        let mut m = NgramModel::new(3, 3);
        m.train(&[vec![0, 1, 0, 1, 0, 1]]);
        // Unseen trigram context (2, 0) backs off to bigram (0,) → 1.
        assert_eq!(m.predict_ranked(&[2, 0])[0], 1);
        // Entirely unseen context backs off to the unigram distribution,
        // where 0 and 1 tie (3 each) and symbol order breaks the tie.
        let dist = m.predict_dist(&[2, 2]);
        assert!((dist[0] - 0.5).abs() < 1e-12);
        assert_eq!(dist[2], 0.0);
    }

    #[test]
    fn untrained_model_is_uniform() {
        let m = NgramModel::new(3, 5);
        let d = m.predict_dist(&[1, 2]);
        assert!(d.iter().all(|&p| (p - 0.2).abs() < 1e-12));
    }

    #[test]
    fn empty_prefix_uses_unigram() {
        let mut m = NgramModel::new(2, 3);
        m.train(&[vec![2, 2, 2, 0]]);
        assert_eq!(m.predict_ranked(&[])[0], 2);
    }

    #[test]
    fn distribution_sums_to_one() {
        let mut m = NgramModel::new(3, 6);
        m.train(&[vec![0, 3, 5, 1], vec![3, 3, 2]]);
        for prefix in [vec![], vec![3], vec![0, 3], vec![5, 5]] {
            let d = m.predict_dist(&prefix);
            assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn oov_symbol_panics() {
        NgramModel::new(2, 2).train(&[vec![5]]);
    }

    #[test]
    fn unigram_model_ignores_context() {
        let mut m = NgramModel::new(1, 3);
        m.train(&[vec![1, 1, 0]]);
        assert_eq!(m.predict_dist(&[0]), m.predict_dist(&[2]));
        assert_eq!(m.predict_ranked(&[0])[0], 1);
    }
}
