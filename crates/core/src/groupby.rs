//! GroupBy vs. Aggregation column prediction (§4.2, Tables 6–7).

use autosuggest_corpus::replay::{OpInvocation, OpParams};
use autosuggest_dataframe::DataFrame;
use autosuggest_features::groupby::GROUPBY_FEATURE_GROUPS;
use autosuggest_features::{groupby_features, ColumnNamePrior, GROUPBY_FEATURE_NAMES};
use autosuggest_gbdt::{aggregate_importance, Dataset, Gbdt, GbdtParams};
use autosuggest_ranking::rank_desc;

/// A ranked GroupBy column suggestion.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupBySuggestion {
    pub column: String,
    /// Higher = more dimension-like (GroupBy); lower = measure-like.
    pub score: f64,
}

/// The learned per-column GroupBy/Aggregation classifier.
#[derive(Debug, Clone)]
pub struct GroupByAggPredictor {
    model: Gbdt,
    prior: ColumnNamePrior,
}

/// Labelled columns of one groupby invocation: (column index, is_groupby).
pub fn labelled_columns(inv: &OpInvocation) -> Vec<(usize, bool)> {
    let OpParams::GroupBy { keys, aggs, .. } = &inv.params else {
        return vec![];
    };
    let Some(df) = inv.inputs.first() else { return vec![] };
    let mut out = Vec::new();
    for k in keys {
        if let Ok(i) = df.column_index(k) {
            out.push((i, true));
        }
    }
    for (a, _) in aggs {
        if let Ok(i) = df.column_index(a) {
            out.push((i, false));
        }
    }
    out
}

impl GroupByAggPredictor {
    /// Train from groupby invocations. The column-name prior is fit on the
    /// same training invocations, so a test column's own usage never leaks
    /// into its feature (§4.2's "without this C").
    pub fn train(invocations: &[&OpInvocation], gbdt: &GbdtParams) -> Option<Self> {
        let mut prior = ColumnNamePrior::default();
        for inv in invocations {
            if let Some(df) = inv.inputs.first() {
                for (ci, is_gb) in labelled_columns(inv) {
                    prior.observe(df.column_at(ci).name(), is_gb);
                }
            }
        }
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for inv in invocations {
            let Some(df) = inv.inputs.first() else { continue };
            for (ci, is_gb) in labelled_columns(inv) {
                rows.push(
                    groupby_features(df.column_at(ci), ci, df.num_columns(), &prior).values,
                );
                labels.push(if is_gb { 1.0 } else { 0.0 });
            }
        }
        if rows.is_empty() {
            return None;
        }
        let names = GROUPBY_FEATURE_NAMES.iter().map(|s| s.to_string()).collect();
        let data = Dataset::new(names, rows, labels).ok()?;
        Some(GroupByAggPredictor { model: Gbdt::fit(&data, gbdt), prior })
    }

    /// GroupBy-ness score for every column of `df` (higher = dimension).
    pub fn scores(&self, df: &DataFrame) -> Vec<f64> {
        df.columns()
            .iter()
            .enumerate()
            .map(|(i, c)| {
                self.model
                    .predict(&groupby_features(c, i, df.num_columns(), &self.prior).values)
            })
            .collect()
    }

    /// Ranked GroupBy suggestions (most dimension-like first) — the ranked
    /// list a UI wizard would show.
    pub fn suggest(&self, df: &DataFrame) -> Vec<GroupBySuggestion> {
        let scores = self.scores(df);
        rank_desc(&scores)
            .into_iter()
            .map(|i| GroupBySuggestion {
                column: df.column_at(i).name().to_string(),
                score: scores[i],
            })
            .collect()
    }

    /// Feature-group importances (Table 7).
    pub fn importance_by_group(&self) -> Vec<(String, f64)> {
        aggregate_importance(&self.model.feature_importance(), &GROUPBY_FEATURE_GROUPS)
    }

    pub fn prior(&self) -> &ColumnNamePrior {
        &self.prior
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosuggest_corpus::{CorpusConfig, CorpusGenerator, OpKind, ReplayEngine};

    fn train_small() -> (GroupByAggPredictor, Vec<OpInvocation>) {
        let mut cfg = CorpusConfig::small(31);
        cfg.plant_failures = false;
        cfg.join_notebooks = 0;
        cfg.pivot_notebooks = 0;
        cfg.unpivot_notebooks = 0;
        cfg.json_notebooks = 0;
        cfg.flow_notebooks = 0;
        cfg.groupby_notebooks = 30;
        let corpus = CorpusGenerator::new(cfg).generate();
        let engine = ReplayEngine::new(corpus.repository.clone());
        let mut invs = Vec::new();
        for nb in &corpus.notebooks {
            invs.extend(
                engine
                    .replay(nb)
                    .invocations
                    .into_iter()
                    .filter(|i| i.op == OpKind::GroupBy),
            );
        }
        let (filtered, _) = autosuggest_corpus::filter_invocations(invs);
        let refs: Vec<&OpInvocation> = filtered.iter().collect();
        let gbdt = GbdtParams { n_trees: 40, ..Default::default() };
        (GroupByAggPredictor::train(&refs, &gbdt).unwrap(), filtered)
    }

    #[test]
    fn ranks_dimensions_above_measures_in_sample() {
        let (model, invs) = train_small();
        let mut correct = 0;
        let mut total = 0;
        for inv in invs.iter().take(20) {
            let df = &inv.inputs[0];
            let scores = model.scores(df);
            for (ci, is_gb) in labelled_columns(inv) {
                for (cj, is_gb2) in labelled_columns(inv) {
                    if is_gb && !is_gb2 {
                        total += 1;
                        if scores[ci] > scores[cj] {
                            correct += 1;
                        }
                    }
                }
            }
        }
        assert!(total > 0);
        assert!(
            correct as f64 / total as f64 > 0.85,
            "pairwise accuracy {correct}/{total}"
        );
    }

    #[test]
    fn suggest_is_sorted_and_complete() {
        let (model, invs) = train_small();
        let df = &invs[0].inputs[0];
        let s = model.suggest(df);
        assert_eq!(s.len(), df.num_columns());
        for w in s.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn prior_knows_common_dimension_names() {
        let (model, _) = train_small();
        // "year" appears as a GroupBy key throughout the corpus.
        assert!(model.prior().log_odds("year") > 0.0);
    }

    #[test]
    fn importance_sums_to_one() {
        let (model, _) = train_small();
        let total: f64 = model.importance_by_group().iter().map(|(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    fn empty_training_returns_none() {
        assert!(GroupByAggPredictor::train(&[], &GbdtParams::default()).is_none());
    }
}
