//! Join column prediction (§4.1): point-wise ranking of join candidates
//! with gradient boosted trees.

use autosuggest_corpus::replay::{OpInvocation, OpParams};
use autosuggest_features::{
    enumerate_join_candidates, join_features, join_features_batch, CandidateParams, JoinCandidate,
    JOIN_FEATURE_GROUPS, JOIN_FEATURE_NAMES,
};
use autosuggest_dataframe::DataFrame;
use autosuggest_gbdt::{aggregate_importance, Dataset, Gbdt, GbdtParams};

/// One ranked join suggestion.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinSuggestion {
    pub left_cols: Vec<String>,
    pub right_cols: Vec<String>,
    pub score: f64,
}

/// Resolve the ground-truth candidate of a merge invocation (column names
/// from the logged parameters → column indices in the logged inputs).
/// Returns `None` when the logged columns are missing from the inputs
/// (cannot happen for invocations replay produced, but guards stale logs).
pub fn ground_truth_candidate(inv: &OpInvocation) -> Option<JoinCandidate> {
    let OpParams::Merge { left_on, right_on, .. } = &inv.params else {
        return None;
    };
    let left = inv.inputs.first()?;
    let right = inv.inputs.get(1)?;
    let left_cols: Option<Vec<usize>> =
        left_on.iter().map(|n| left.column_index(n).ok()).collect();
    let right_cols: Option<Vec<usize>> =
        right_on.iter().map(|n| right.column_index(n).ok()).collect();
    Some(JoinCandidate { left_cols: left_cols?, right_cols: right_cols? })
}

/// Enumerate candidates for evaluation/training, guaranteeing the ground
/// truth is present (pruning must never silently delete the right answer —
/// every compared method ranks the same candidate set, as in §6.5.1).
pub fn candidates_with_truth(
    left: &DataFrame,
    right: &DataFrame,
    truth: &JoinCandidate,
    params: &CandidateParams,
) -> Vec<JoinCandidate> {
    let mut cands = enumerate_join_candidates(left, right, params);
    if !cands.contains(truth) {
        cands.push(truth.clone());
    }
    cands
}

/// The learned join-column ranker.
#[derive(Debug, Clone)]
pub struct JoinColumnPredictor {
    model: Gbdt,
    cand_params: CandidateParams,
}

impl JoinColumnPredictor {
    /// Train from merge invocations. Negative candidates are capped per
    /// case to keep the label distribution workable (point-wise ranking
    /// with 0/1 labels, §4.1).
    pub fn train(
        invocations: &[&OpInvocation],
        gbdt: &GbdtParams,
        cand_params: CandidateParams,
    ) -> Option<Self> {
        const MAX_NEGATIVES: usize = 40;
        // Candidate enumeration + feature extraction per invocation is the
        // expensive part of training; invocations are independent, so fan
        // them out and concatenate the per-invocation rows in input order.
        let per_invocation = autosuggest_parallel::par_map(invocations, |inv| {
            let mut rows: Vec<Vec<f64>> = Vec::new();
            let mut labels: Vec<f64> = Vec::new();
            let Some(truth) = ground_truth_candidate(inv) else {
                return (rows, labels);
            };
            let left = &inv.inputs[0];
            let right = &inv.inputs[1];
            let cands = candidates_with_truth(left, right, &truth, &cand_params);
            // Select kept candidates first (truth + capped negatives), then
            // featurise the kept set in one batch so each distinct key-column
            // tuple is hashed once per table rather than once per candidate.
            let mut kept: Vec<&JoinCandidate> = Vec::with_capacity(cands.len());
            let mut negatives = 0usize;
            for cand in &cands {
                let is_truth = *cand == truth;
                if !is_truth {
                    negatives += 1;
                    if negatives > MAX_NEGATIVES {
                        continue;
                    }
                }
                kept.push(cand);
                labels.push(if is_truth { 1.0 } else { 0.0 });
            }
            let kept_owned: Vec<JoinCandidate> = kept.into_iter().cloned().collect();
            rows.extend(
                join_features_batch(left, right, &kept_owned)
                    .into_iter()
                    .map(|f| f.values),
            );
            (rows, labels)
        });
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut labels: Vec<f64> = Vec::new();
        for (r, l) in per_invocation {
            rows.extend(r);
            labels.extend(l);
        }
        if rows.is_empty() {
            return None;
        }
        let names = JOIN_FEATURE_NAMES.iter().map(|s| s.to_string()).collect();
        let data = Dataset::new(names, rows, labels).ok()?;
        Some(JoinColumnPredictor { model: Gbdt::fit(&data, gbdt), cand_params })
    }

    /// Score one candidate.
    pub fn score(&self, left: &DataFrame, right: &DataFrame, cand: &JoinCandidate) -> f64 {
        self.model.predict(&join_features(left, right, cand).values)
    }

    /// Rank an explicit candidate list (descending), returning indices.
    pub fn rank_candidates(
        &self,
        left: &DataFrame,
        right: &DataFrame,
        cands: &[JoinCandidate],
    ) -> Vec<usize> {
        // Wide tables can enumerate thousands of candidates; featurise the
        // whole pool in one batch (each distinct key-column tuple hashed
        // once per table) and score the rows (input order preserved,
        // tie-break unchanged).
        let feats = join_features_batch(left, right, cands);
        let scores: Vec<f64> = autosuggest_parallel::Pool::global()
            .with_min_items(64)
            .par_map(&feats, |f| self.model.predict(&f.values));
        let mut order: Vec<usize> = (0..cands.len()).collect();
        order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
        order
    }

    /// Produce ranked join suggestions for two tables (the Fig. 1 API).
    pub fn suggest(&self, left: &DataFrame, right: &DataFrame, top_k: usize) -> Vec<JoinSuggestion> {
        let cands = enumerate_join_candidates(left, right, &self.cand_params);
        let order = self.rank_candidates(left, right, &cands);
        order
            .into_iter()
            .take(top_k)
            .map(|i| {
                let c = &cands[i];
                JoinSuggestion {
                    left_cols: c
                        .left_cols
                        .iter()
                        .map(|&ci| left.column_at(ci).name().to_string())
                        .collect(),
                    right_cols: c
                        .right_cols
                        .iter()
                        .map(|&ci| right.column_at(ci).name().to_string())
                        .collect(),
                    score: self.score(left, right, c),
                }
            })
            .collect()
    }

    /// Feature-group importances (Table 4).
    pub fn importance_by_group(&self) -> Vec<(String, f64)> {
        aggregate_importance(&self.model.feature_importance(), &JOIN_FEATURE_GROUPS)
    }

    pub fn candidate_params(&self) -> &CandidateParams {
        &self.cand_params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosuggest_corpus::{CorpusConfig, CorpusGenerator, OpKind, ReplayEngine};

    fn train_small() -> (JoinColumnPredictor, Vec<OpInvocation>) {
        let mut cfg = CorpusConfig::small(21);
        cfg.plant_failures = false;
        cfg.groupby_notebooks = 0;
        cfg.pivot_notebooks = 0;
        cfg.unpivot_notebooks = 0;
        cfg.json_notebooks = 0;
        cfg.flow_notebooks = 0;
        cfg.join_notebooks = 25;
        let corpus = CorpusGenerator::new(cfg).generate();
        let engine = ReplayEngine::new(corpus.repository.clone());
        let mut invs: Vec<OpInvocation> = Vec::new();
        for nb in &corpus.notebooks {
            invs.extend(
                engine
                    .replay(nb)
                    .invocations
                    .into_iter()
                    .filter(|i| i.op == OpKind::Merge),
            );
        }
        let (filtered, _) = autosuggest_corpus::filter_invocations(invs, 5);
        let refs: Vec<&OpInvocation> = filtered.iter().collect();
        let gbdt = GbdtParams { n_trees: 40, ..Default::default() };
        let model =
            JoinColumnPredictor::train(&refs, &gbdt, CandidateParams::default()).unwrap();
        (model, filtered)
    }

    #[test]
    fn learns_to_rank_planted_joins_first() {
        let (model, invs) = train_small();
        // Evaluate on the training cases themselves (fit sanity, not
        // generalisation — the integration tests do the held-out split).
        let mut hits = 0;
        let mut total = 0;
        for inv in &invs {
            let truth = ground_truth_candidate(inv).unwrap();
            let cands = candidates_with_truth(
                &inv.inputs[0],
                &inv.inputs[1],
                &truth,
                model.candidate_params(),
            );
            let best = model.rank_candidates(&inv.inputs[0], &inv.inputs[1], &cands)[0];
            total += 1;
            if cands[best] == truth {
                hits += 1;
            }
        }
        assert!(total >= 10, "need enough cases, got {total}");
        assert!(
            hits as f64 / total as f64 > 0.8,
            "training-set precision {hits}/{total}"
        );
    }

    #[test]
    fn suggest_returns_named_columns() {
        let (model, invs) = train_small();
        let inv = &invs[0];
        let suggestions = model.suggest(&inv.inputs[0], &inv.inputs[1], 3);
        assert!(!suggestions.is_empty());
        assert!(suggestions[0].score >= suggestions.last().unwrap().score);
        assert!(!suggestions[0].left_cols.is_empty());
    }

    #[test]
    fn importance_groups_cover_the_table4_vocabulary() {
        let (model, _) = train_small();
        let imp = model.importance_by_group();
        let total: f64 = imp.iter().map(|(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-6, "importances sum to {total}");
        let names: Vec<&str> = imp.iter().map(|(n, _)| n.as_str()).collect();
        for expected in [
            "left-ness",
            "val-overlap",
            "val-range-overlap",
            "distinct-val-ratio",
        ] {
            assert!(names.contains(&expected), "missing group {expected}");
        }
    }

    #[test]
    fn train_returns_none_without_data() {
        let gbdt = GbdtParams::default();
        assert!(JoinColumnPredictor::train(&[], &gbdt, CandidateParams::default()).is_none());
    }
}
