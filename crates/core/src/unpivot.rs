//! Unpivot column selection (§4.4, Table 9): the CMUT optimization over
//! the learned compatibility graph.

use crate::pivot::CompatibilityModel;
use autosuggest_dataframe::DataFrame;
use autosuggest_graph::{cmut_greedy, CmutSolution};

/// A predicted Unpivot: the columns to collapse.
#[derive(Debug, Clone, PartialEq)]
pub struct UnpivotSuggestion {
    pub collapse: Vec<String>,
    pub objective: f64,
}

/// CMUT-based Unpivot predictor, reusing the Pivot compatibility model.
#[derive(Debug, Clone)]
pub struct UnpivotPredictor {
    compat: CompatibilityModel,
}

impl UnpivotPredictor {
    pub fn new(compat: CompatibilityModel) -> Self {
        UnpivotPredictor { compat }
    }

    /// Select the column indices to collapse (the paper's greedy, §4.4).
    /// `None` when the table has fewer than 3 columns (no strict subset of
    /// size ≥ 2 exists).
    pub fn select(&self, df: &DataFrame) -> Option<CmutSolution> {
        let cols: Vec<usize> = (0..df.num_columns()).collect();
        if cols.len() < 3 {
            return None;
        }
        let g = self.compat.graph(df, &cols);
        cmut_greedy(&g)
    }

    /// Named suggestion for the end-user API.
    pub fn suggest(&self, df: &DataFrame) -> Option<UnpivotSuggestion> {
        let sol = self.select(df)?;
        Some(UnpivotSuggestion {
            collapse: sol
                .selected
                .iter()
                .map(|&i| df.column_at(i).name().to_string())
                .collect(),
            objective: sol.objective,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pivot::{melt_ground_truth, CompatibilityModel};
    use autosuggest_corpus::replay::OpInvocation;
    use autosuggest_corpus::{CorpusConfig, CorpusGenerator, OpKind, ReplayEngine};
    use autosuggest_gbdt::GbdtParams;
    use autosuggest_ranking::set_prf;

    fn train_small() -> (UnpivotPredictor, Vec<OpInvocation>) {
        let mut cfg = CorpusConfig::small(51);
        cfg.plant_failures = false;
        cfg.join_notebooks = 0;
        cfg.groupby_notebooks = 0;
        cfg.json_notebooks = 0;
        cfg.flow_notebooks = 0;
        cfg.pivot_notebooks = 10;
        cfg.unpivot_notebooks = 25;
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
        let (melts, _) = autosuggest_corpus::filter_invocations(melts);
        let prefs: Vec<&OpInvocation> = pivots.iter().collect();
        let mrefs: Vec<&OpInvocation> = melts.iter().collect();
        let gbdt = GbdtParams { n_trees: 40, ..Default::default() };
        let compat = CompatibilityModel::train(&prefs, &mrefs, &gbdt).unwrap();
        (UnpivotPredictor::new(compat), melts)
    }

    #[test]
    fn selects_collapse_blocks_with_high_f1() {
        let (model, melts) = train_small();
        let mut f1s = Vec::new();
        for inv in melts.iter().take(15) {
            let (_, truth) = melt_ground_truth(inv).unwrap();
            let Some(sol) = model.select(&inv.inputs[0]) else { continue };
            f1s.push(set_prf(&sol.selected, &truth).f1);
        }
        assert!(f1s.len() >= 8);
        let mean: f64 = f1s.iter().sum::<f64>() / f1s.len() as f64;
        assert!(mean > 0.75, "mean column F1 {mean} over {} cases", f1s.len());
    }

    #[test]
    fn tiny_tables_have_no_selection() {
        let (model, _) = train_small();
        let df = autosuggest_dataframe::DataFrame::from_columns(vec![
            ("a", vec![autosuggest_dataframe::Value::Int(1)]),
            ("b", vec![autosuggest_dataframe::Value::Int(2)]),
        ])
        .unwrap();
        assert!(model.select(&df).is_none());
    }

    #[test]
    fn suggestion_names_match_selection() {
        let (model, melts) = train_small();
        let df = &melts[0].inputs[0];
        let sol = model.select(df).unwrap();
        let sug = model.suggest(df).unwrap();
        assert_eq!(sol.selected.len(), sug.collapse.len());
        for (&i, name) in sol.selected.iter().zip(&sug.collapse) {
            assert_eq!(df.column_at(i).name(), name);
        }
    }
}
