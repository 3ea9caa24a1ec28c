//! Gradient boosting over regression trees (squared loss).

use crate::data::Dataset;
use crate::tree::{Grower, Presorted, RegressionTree, TreeParams};
use autosuggest_obs as obs;

/// Shrinkage applied to each tree's contribution.
pub const LEARNING_RATE: f64 = 0.1;

/// Hyper-parameters for the boosted ensemble.
#[derive(Debug, Clone)]
pub struct GbdtParams {
    /// Number of boosting rounds (trees).
    pub n_trees: usize,
    /// Per-tree parameters.
    pub tree: TreeParams,
}

impl Default for GbdtParams {
    fn default() -> Self {
        GbdtParams { n_trees: 100, tree: TreeParams::default() }
    }
}

/// A fitted gradient-boosted ensemble.
///
/// Under squared loss the negative gradient is the residual, so each round
/// fits a [`RegressionTree`] to the current residuals and adds it with
/// shrinkage — the classic least-squares boosting the paper's point-wise
/// rankers use.
#[derive(Debug, Clone)]
pub struct Gbdt {
    base: f64,
    trees: Vec<RegressionTree>,
    feature_names: Vec<String>,
}

impl Gbdt {
    /// Train on `data` with the given parameters.
    ///
    /// Panics if `data` is empty — the corpus filter guarantees non-empty
    /// training sets, and silently producing a constant model would mask
    /// upstream bugs.
    pub fn fit(data: &Dataset, params: &GbdtParams) -> Self {
        assert!(!data.is_empty(), "cannot fit GBDT on an empty dataset");
        let _fit_span = obs::span("gbdt_fit");
        let fit_started = std::time::Instant::now();
        obs::counter_add("gbdt.fits", 1);
        obs::counter_add("gbdt.rounds", params.n_trees as u64);
        let n = data.len();
        let base = data.labels().iter().sum::<f64>() / n as f64;
        let mut preds = vec![base; n];
        let mut trees = Vec::with_capacity(params.n_trees);
        let mut residuals = vec![0.0; n];
        // Every round trains on all rows, so the presorted feature lists
        // (target-independent) and the tree's work arena are built once.
        let idx: Vec<usize> = (0..n).collect();
        let presorted = Presorted::build(data, &idx);
        let mut grower = Grower::new(&presorted);
        for _ in 0..params.n_trees {
            let _tree_span = obs::span("gbdt_tree");
            for (i, (r, p)) in residuals.iter_mut().zip(&preds).enumerate() {
                *r = data.label(i) - p;
            }
            let scan_started = std::time::Instant::now();
            let tree = grower.fit(&residuals, &params.tree);
            obs::observe_since("gbdt.split_scan_seconds", scan_started);
            // A leaf holds exactly the rows `tree.predict` routes to it, so
            // adding its value row by row is the per-row predict update.
            for (rows, value) in grower.leaves() {
                for &i in rows {
                    preds[i] += LEARNING_RATE * value;
                }
            }
            trees.push(tree);
        }
        obs::observe_since("gbdt.fit_seconds", fit_started);
        Gbdt { base, trees, feature_names: data.feature_names().to_vec() }
    }

    /// Predict the regression score for one feature vector.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.base + LEARNING_RATE * self.trees.iter().map(|t| t.predict(x)).sum::<f64>()
    }

    /// Gain-based feature importance, normalised to sum to 1 (all-zero when
    /// no split was ever made). Index order matches `feature_names`.
    pub fn feature_importance(&self) -> Vec<f64> {
        let mut imp = vec![0.0; self.feature_names.len()];
        for t in &self.trees {
            t.accumulate_importance(&mut imp);
        }
        crate::importance::normalize(&mut imp);
        imp
    }

    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(rows: Vec<Vec<f64>>, labels: Vec<f64>) -> Dataset {
        let names = (0..rows[0].len()).map(|i| format!("f{i}")).collect();
        Dataset::new(names, rows, labels).unwrap()
    }

    #[test]
    fn learns_a_linear_function() {
        let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 / 200.0]).collect();
        let labels: Vec<f64> = rows.iter().map(|r| 3.0 * r[0] - 1.0).collect();
        let data = dataset(rows, labels);
        let model = Gbdt::fit(&data, &GbdtParams::default());
        for &x in &[0.1, 0.5, 0.9] {
            let want = 3.0 * x - 1.0;
            assert!((model.predict(&[x]) - want).abs() < 0.15, "at x={x}");
        }
    }

    #[test]
    fn learns_xor_interaction() {
        // XOR needs depth ≥ 2 trees — a sanity check that splits compose.
        // Cell counts are deliberately unequal: on perfectly balanced XOR no
        // single split has positive gain, so a greedy tree (correctly)
        // refuses to split at all.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for a in 0..2usize {
            for b in 0..2usize {
                for _ in 0..(8 + 3 * a + 5 * b) {
                    rows.push(vec![a as f64, b as f64]);
                    labels.push(((a + b) % 2) as f64);
                }
            }
        }
        let data = dataset(rows, labels);
        let model = Gbdt::fit(&data, &GbdtParams::default());
        assert!(model.predict(&[0.0, 1.0]) > 0.8);
        assert!(model.predict(&[1.0, 1.0]) < 0.2);
    }

    #[test]
    fn binary_labels_rank_positives_above_negatives() {
        // The actual usage pattern: point-wise ranking with 0/1 labels.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..100 {
            let good = i % 4 == 0;
            rows.push(vec![
                if good { 0.9 } else { 0.2 } + (i % 7) as f64 * 0.01,
                (i % 13) as f64, // noise feature
            ]);
            labels.push(if good { 1.0 } else { 0.0 });
        }
        let data = dataset(rows, labels);
        let model = Gbdt::fit(&data, &GbdtParams::default());
        assert!(model.predict(&[0.92, 5.0]) > model.predict(&[0.22, 5.0]));
    }

    #[test]
    fn importance_concentrates_on_signal_feature() {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..120 {
            let signal = (i % 2) as f64;
            rows.push(vec![(i % 11) as f64, signal, (i % 5) as f64]);
            labels.push(signal * 10.0);
        }
        let data = dataset(rows, labels);
        let model = Gbdt::fit(&data, &GbdtParams::default());
        let imp = model.feature_importance();
        assert!(imp[1] > 0.9, "importance {imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_across_fits() {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, (i * i % 17) as f64]).collect();
        let labels: Vec<f64> = (0..50).map(|i| (i % 3) as f64).collect();
        let data = dataset(rows, labels);
        let a = Gbdt::fit(&data, &GbdtParams::default());
        let b = Gbdt::fit(&data, &GbdtParams::default());
        for i in 0..50 {
            assert_eq!(a.predict(data.row(i)), b.predict(data.row(i)));
        }
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let data = Dataset::new(vec!["a".into()], vec![], vec![]).unwrap();
        Gbdt::fit(&data, &GbdtParams::default());
    }
}
