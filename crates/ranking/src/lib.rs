//! Evaluation metrics for ranked suggestions (§6.4 of the paper).
//!
//! Auto-Suggest presents predictions as ranked lists, so quality is scored
//! with IR metrics: precision@k and NDCG@k (with the paper's convention
//! that once every relevant item has been retrieved, lower-ranked positions
//! are not penalised), recall@k for next-operator prediction, table-level
//! *full-accuracy*, and set precision/recall/F1 for Unpivot column
//! selection (Table 9). [`rank_desc`] is the one score-to-ranking rule every
//! predictor and baseline uses.

pub mod metrics;

pub use metrics::{
    full_accuracy, mean, ndcg_at_k, precision_at_k, recall_at_k, set_prf, Prf,
};

/// Indices of `scores` by descending score, ties broken by ascending index.
pub fn rank_desc(scores: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    order
}

#[cfg(test)]
mod tests {
    use super::rank_desc;

    #[test]
    fn rank_desc_is_descending_and_stable_on_ties() {
        assert_eq!(rank_desc(&[0.5, 0.9, 0.5]), vec![1, 0, 2]);
        assert_eq!(rank_desc(&[0.1, 0.9, 0.5]), vec![1, 2, 0]);
        assert_eq!(rank_desc(&[]), Vec::<usize>::new());
    }
}
