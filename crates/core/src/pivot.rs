//! Pivot index/header prediction (§4.3, Table 8): a learned column-pair
//! affinity model + the AMPT optimization.

use autosuggest_corpus::replay::{OpInvocation, OpParams};
use autosuggest_dataframe::DataFrame;
use autosuggest_features::{AffinityProfile, AFFINITY_FEATURE_NAMES};
use autosuggest_gbdt::{Dataset, Gbdt, GbdtParams};
use autosuggest_graph::{ampt_exact, ampt_min_cut, AffinityGraph, AmptSolution};

/// The learned pairwise affinity/compatibility regressor shared by Pivot
/// and Unpivot (§4.4 reuses "the same regression model and features").
///
/// Trained on pairs of columns from real pivot/melt invocations: same-side
/// pairs are positive examples (+1), cross-side pairs negative (−1).
#[derive(Debug, Clone)]
pub struct CompatibilityModel {
    model: Gbdt,
}

/// Ground truth of a pivot invocation: (index column ids, header column
/// ids) resolved against the input frame.
pub fn pivot_ground_truth(inv: &OpInvocation) -> Option<(Vec<usize>, Vec<usize>)> {
    let OpParams::Pivot { index, header, .. } = &inv.params else { return None };
    let df = inv.inputs.first()?;
    let idx: Option<Vec<usize>> = index.iter().map(|n| df.column_index(n).ok()).collect();
    let hdr: Option<Vec<usize>> = header.iter().map(|n| df.column_index(n).ok()).collect();
    Some((idx?, hdr?))
}

/// Ground truth of a melt invocation: (id column ids, collapsed column ids).
pub fn melt_ground_truth(inv: &OpInvocation) -> Option<(Vec<usize>, Vec<usize>)> {
    let OpParams::Melt { id_vars, value_vars, .. } = &inv.params else { return None };
    let df = inv.inputs.first()?;
    let ids: Option<Vec<usize>> = id_vars.iter().map(|n| df.column_index(n).ok()).collect();
    let vals: Option<Vec<usize>> =
        value_vars.iter().map(|n| df.column_index(n).ok()).collect();
    Some((ids?, vals?))
}

/// Cap on pairs contributed per invocation, so a single 25-column melt does
/// not dominate the training set.
const MAX_PAIRS_PER_SIDE: usize = 40;

impl CompatibilityModel {
    /// Train from pivot and melt invocations.
    pub fn train(
        pivot_invs: &[&OpInvocation],
        melt_invs: &[&OpInvocation],
        gbdt: &GbdtParams,
    ) -> Option<Self> {
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut labels: Vec<f64> = Vec::new();

        let add_pair = |profile: &AffinityProfile<'_>, a: usize, b: usize, label: f64,
                            rows: &mut Vec<Vec<f64>>, labels: &mut Vec<f64>| {
            rows.push(profile.features(a, b).values);
            labels.push(label);
        };

        for inv in pivot_invs {
            let Some((index, header)) = pivot_ground_truth(inv) else { continue };
            let profile = AffinityProfile::new(&inv.inputs[0]);
            let mut n = 0;
            for (i, &a) in index.iter().enumerate() {
                for &b in &index[i + 1..] {
                    if n < MAX_PAIRS_PER_SIDE {
                        add_pair(&profile, a, b, 1.0, &mut rows, &mut labels);
                        n += 1;
                    }
                }
            }
            for (i, &a) in header.iter().enumerate() {
                for &b in &header[i + 1..] {
                    if n < 2 * MAX_PAIRS_PER_SIDE {
                        add_pair(&profile, a, b, 1.0, &mut rows, &mut labels);
                        n += 1;
                    }
                }
            }
            let mut m = 0;
            for &a in &index {
                for &b in &header {
                    if m < MAX_PAIRS_PER_SIDE {
                        add_pair(&profile, a, b, -1.0, &mut rows, &mut labels);
                        m += 1;
                    }
                }
            }
        }
        for inv in melt_invs {
            let Some((ids, vals)) = melt_ground_truth(inv) else { continue };
            let profile = AffinityProfile::new(&inv.inputs[0]);
            // Collapsed columns are mutually compatible; (collapsed, id)
            // pairs are not; and id pairs are *also* negative for the
            // compatibility notion — id columns were available to collapse
            // and the author chose not to stack them. Without these
            // negatives, CMUT ties FD-linked id clusters against the true
            // value block (both are internally "affine").
            let mut n = 0;
            for (i, &a) in vals.iter().enumerate() {
                for &b in &vals[i + 1..] {
                    if n < MAX_PAIRS_PER_SIDE {
                        add_pair(&profile, a, b, 1.0, &mut rows, &mut labels);
                        n += 1;
                    }
                }
            }
            let mut m = 0;
            for &a in &vals {
                for &b in &ids {
                    if m < MAX_PAIRS_PER_SIDE {
                        add_pair(&profile, a, b, -1.0, &mut rows, &mut labels);
                        m += 1;
                    }
                }
            }
            for (i, &a) in ids.iter().enumerate() {
                for &b in &ids[i + 1..] {
                    add_pair(&profile, a, b, -1.0, &mut rows, &mut labels);
                }
            }
        }
        if rows.is_empty() {
            return None;
        }
        let names = AFFINITY_FEATURE_NAMES.iter().map(|s| s.to_string()).collect();
        let data = Dataset::new(names, rows, labels).ok()?;
        Some(CompatibilityModel { model: Gbdt::fit(&data, gbdt) })
    }

    /// Affinity score for a column pair, clamped to the training label
    /// range `[-1, 1]`.
    pub fn score(&self, df: &DataFrame, a: usize, b: usize) -> f64 {
        self.score_profiled(&AffinityProfile::new(df), a, b)
    }

    fn score_profiled(&self, profile: &AffinityProfile<'_>, a: usize, b: usize) -> f64 {
        self.model.predict(&profile.features(a, b).values).clamp(-1.0, 1.0)
    }

    /// Build the affinity graph over an arbitrary set of columns of `df`
    /// (vertices are positions within `cols`). Each column is profiled
    /// once for all of its pairs.
    pub fn graph(&self, df: &DataFrame, cols: &[usize]) -> AffinityGraph {
        let profile = AffinityProfile::new(df);
        let mut g = AffinityGraph::new(cols.len());
        for i in 0..cols.len() {
            for j in (i + 1)..cols.len() {
                g.set(i, j, self.score_profiled(&profile, cols[i], cols[j]));
            }
        }
        g
    }
}

/// A predicted pivot configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PivotSuggestion {
    pub index: Vec<String>,
    pub header: Vec<String>,
    pub objective: f64,
}

/// The AMPT-based index/header splitter.
#[derive(Debug, Clone)]
pub struct PivotPredictor {
    compat: CompatibilityModel,
}

impl PivotPredictor {
    pub fn new(compat: CompatibilityModel) -> Self {
        PivotPredictor { compat }
    }

    pub fn compatibility(&self) -> &CompatibilityModel {
        &self.compat
    }

    /// Split the user-selected dimension columns into index vs. header
    /// (Lemma 1: exact for the handful of dimensions pivots have; the
    /// min-cut path covers pathological widths).
    pub fn split(&self, df: &DataFrame, dims: &[usize]) -> Option<AmptSolution> {
        if dims.len() < 2 {
            return None;
        }
        let g = self.compat.graph(df, dims);
        let sol = if dims.len() <= 16 { ampt_exact(&g) } else { ampt_min_cut(&g) }?;
        // Orient: the larger side is the index (pivot tables are wider than
        // tall only when the header is the small categorical set).
        let (index, header) = if sol.index.len() >= sol.header.len() {
            (sol.index, sol.header)
        } else {
            (sol.header, sol.index)
        };
        Some(AmptSolution { index, header, objective: sol.objective })
    }

    /// Named suggestion for the end-user API.
    pub fn suggest(&self, df: &DataFrame, dims: &[usize]) -> Option<PivotSuggestion> {
        let sol = self.split(df, dims)?;
        Some(PivotSuggestion {
            index: sol
                .index
                .iter()
                .map(|&i| df.column_at(dims[i]).name().to_string())
                .collect(),
            header: sol
                .header
                .iter()
                .map(|&i| df.column_at(dims[i]).name().to_string())
                .collect(),
            objective: sol.objective,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosuggest_corpus::{CorpusConfig, CorpusGenerator, OpKind, ReplayEngine};

    fn train_small() -> (PivotPredictor, Vec<OpInvocation>) {
        let mut cfg = CorpusConfig::small(41);
        cfg.plant_failures = false;
        cfg.join_notebooks = 0;
        cfg.groupby_notebooks = 0;
        cfg.json_notebooks = 0;
        cfg.flow_notebooks = 0;
        cfg.pivot_notebooks = 25;
        cfg.unpivot_notebooks = 10;
        let corpus = CorpusGenerator::new(cfg).generate();
        let engine = ReplayEngine::new(corpus.repository.clone());
        let mut pivots = Vec::new();
        let mut melts = Vec::new();
        for nb in &corpus.notebooks {
            for inv in engine.replay(nb).invocations {
                match inv.op {
                    OpKind::Pivot => pivots.push(inv),
                    OpKind::Melt => melts.push(inv),
                    _ => {}
                }
            }
        }
        let (pivots, _) = autosuggest_corpus::filter_invocations(pivots);
        let (melts, _) = autosuggest_corpus::filter_invocations(melts);
        let prefs: Vec<&OpInvocation> = pivots.iter().collect();
        let mrefs: Vec<&OpInvocation> = melts.iter().collect();
        let gbdt = GbdtParams { n_trees: 40, ..Default::default() };
        let compat = CompatibilityModel::train(&prefs, &mrefs, &gbdt).unwrap();
        (PivotPredictor::new(compat), pivots)
    }

    #[test]
    fn recovers_planted_splits_on_training_cases() {
        let (model, pivots) = train_small();
        let mut correct = 0;
        let mut total = 0;
        for inv in pivots.iter().take(20) {
            let (index, header) = pivot_ground_truth(inv).unwrap();
            let mut dims: Vec<usize> = index.iter().chain(&header).copied().collect();
            dims.sort_unstable();
            let Some(sol) = model.split(&inv.inputs[0], &dims) else { continue };
            let pred_index: Vec<usize> = sol.index.iter().map(|&i| dims[i]).collect();
            let pred_header: Vec<usize> = sol.header.iter().map(|&i| dims[i]).collect();
            let mut truth_index = index.clone();
            truth_index.sort_unstable();
            let mut truth_header = header.clone();
            truth_header.sort_unstable();
            total += 1;
            let exact = (pred_index == truth_index && pred_header == truth_header)
                || (pred_index == truth_header && pred_header == truth_index);
            if exact {
                correct += 1;
            }
        }
        assert!(total >= 10);
        assert!(
            correct as f64 / total as f64 > 0.6,
            "split accuracy {correct}/{total}"
        );
    }

    #[test]
    fn compatibility_scores_are_clamped() {
        let (model, pivots) = train_small();
        let df = &pivots[0].inputs[0];
        for a in 0..df.num_columns() {
            for b in (a + 1)..df.num_columns() {
                let s = model.compatibility().score(df, a, b);
                assert!((-1.0..=1.0).contains(&s));
            }
        }
    }

    #[test]
    fn single_dimension_has_no_split() {
        let (model, pivots) = train_small();
        assert!(model.split(&pivots[0].inputs[0], &[0]).is_none());
    }

    #[test]
    fn suggest_names_the_columns() {
        let (model, pivots) = train_small();
        let inv = &pivots[0];
        let (index, header) = pivot_ground_truth(inv).unwrap();
        let dims: Vec<usize> = index.iter().chain(&header).copied().collect();
        let s = model.suggest(&inv.inputs[0], &dims).unwrap();
        assert!(!s.index.is_empty() && !s.header.is_empty());
    }
}
