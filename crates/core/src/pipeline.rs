//! The end-to-end Auto-Suggest pipeline: corpus → replay → logs → models.

use crate::groupby::{GroupByAggPredictor, GroupBySuggestion};
use crate::join::{JoinColumnPredictor, JoinSuggestion};
use crate::join_type::JoinTypePredictor;
use crate::nextop::{single_op_scores, NextOpConfig, NextOpExample, NextOpMode, NextOpPredictor};
use crate::pivot::{CompatibilityModel, PivotPredictor, PivotSuggestion};
use crate::unpivot::{UnpivotPredictor, UnpivotSuggestion};
use autosuggest_cache::{table_fingerprint, ColumnCache};
use autosuggest_dataframe::DataFrame;
use autosuggest_corpus::replay::OpInvocation;
use autosuggest_corpus::{
    filter_invocations, is_test_group, CorpusConfig, CorpusGenerator, FaultSpec, FilterStats,
    OpKind, ReplayEngine, ReplayReport, RobustnessStats,
};
use autosuggest_features::CandidateParams;
use autosuggest_gbdt::GbdtParams;
use autosuggest_obs as obs;
use autosuggest_nn::NgramModel;

/// End-to-end training configuration.
#[derive(Debug, Clone)]
pub struct AutoSuggestConfig {
    pub corpus: CorpusConfig,
    pub gbdt: GbdtParams,
    pub candidates: CandidateParams,
    pub nextop: NextOpConfig,
    /// Test fraction of the grouped 80/20 split (§6.1).
    pub test_fraction: f64,
    /// Seed for the grouped split.
    pub split_seed: u64,
    /// Deterministic fault injection into replay. `None` (the default)
    /// falls back to the `AUTOSUGGEST_FAULTS` environment variable.
    pub faults: Option<FaultSpec>,
}

impl Default for AutoSuggestConfig {
    fn default() -> Self {
        AutoSuggestConfig {
            corpus: CorpusConfig::default(),
            gbdt: GbdtParams::default(),
            candidates: CandidateParams::default(),
            nextop: NextOpConfig::default(),
            test_fraction: 0.2,
            split_seed: 17,
            faults: None,
        }
    }
}

impl AutoSuggestConfig {
    /// A configuration sized for tests: small corpus, light models.
    pub fn fast(seed: u64) -> Self {
        AutoSuggestConfig {
            corpus: CorpusConfig::small(seed),
            gbdt: GbdtParams { n_trees: 40, ..Default::default() },
            nextop: NextOpConfig { epochs: 25, ..Default::default() },
            ..Default::default()
        }
    }
}

/// All trained predictors.
pub struct TrainedModels {
    pub join: Option<JoinColumnPredictor>,
    pub join_type: Option<JoinTypePredictor>,
    pub groupby: Option<GroupByAggPredictor>,
    pub pivot: Option<PivotPredictor>,
    pub unpivot: Option<UnpivotPredictor>,
    pub nextop_full: NextOpPredictor,
    pub nextop_rnn_only: NextOpPredictor,
    pub nextop_single_ops: NextOpPredictor,
    pub ngram: NgramModel,
}

/// Held-out test data for the evaluation harness.
pub struct TestData {
    pub join: Vec<OpInvocation>,
    pub groupby: Vec<OpInvocation>,
    pub pivot: Vec<OpInvocation>,
    pub melt: Vec<OpInvocation>,
    pub nextop: Vec<NextOpExample>,
}

/// Training-side data kept for baselines that need "history"
/// (SQL-history, vendors' priors) and for diagnostics.
pub struct TrainData {
    pub join: Vec<OpInvocation>,
    pub groupby: Vec<OpInvocation>,
    pub pivot: Vec<OpInvocation>,
    pub melt: Vec<OpInvocation>,
    pub nextop: Vec<NextOpExample>,
    pub sequences: Vec<Vec<usize>>,
}

/// The trained Auto-Suggest system plus everything the evaluation needs.
pub struct AutoSuggest {
    pub models: TrainedModels,
    pub train: TrainData,
    pub test: TestData,
    /// All replay reports (corpus statistics, Tables 2 and 10).
    pub reports: Vec<ReplayReport>,
    pub filter_stats: FilterStats,
    /// Failure/retry/quarantine accounting from corpus replay.
    pub robustness: RobustnessStats,
    pub config: AutoSuggestConfig,
}

/// Wall-clock time of one pipeline stage, reported by
/// [`AutoSuggest::train_timed`].
#[derive(Debug, Clone)]
pub struct StageTiming {
    pub stage: &'static str,
    pub seconds: f64,
}

/// Record one pipeline stage's wall clock and restart the stopwatch.
fn lap(timings: &mut Vec<StageTiming>, stage: &'static str, start: &mut std::time::Instant) {
    let seconds = start.elapsed().as_secs_f64();
    obs::observe(&format!("pipeline.{stage}_seconds"), seconds);
    timings.push(StageTiming { stage, seconds });
    *start = std::time::Instant::now();
}

impl AutoSuggest {
    /// Run the whole offline pipeline of Fig. 3: generate (stand-in for
    /// crawl), replay + instrument, filter, split without leakage, train
    /// every predictor.
    pub fn train(config: AutoSuggestConfig) -> AutoSuggest {
        Self::train_timed(config).0
    }

    /// [`AutoSuggest::train`], also returning per-stage wall-clock timings
    /// (consumed by `perfbench`'s `train-eval` workload).
    pub fn train_timed(config: AutoSuggestConfig) -> (AutoSuggest, Vec<StageTiming>) {
        let _train_span = obs::span("train");
        let mut timings: Vec<StageTiming> = Vec::new();
        let mut stage_start = std::time::Instant::now();

        let corpus = {
            let _s = obs::span("generate_corpus");
            CorpusGenerator::new(config.corpus.clone()).generate()
        };
        lap(&mut timings, "generate_corpus", &mut stage_start);

        // Replay fan-out: notebooks are independent, and the pool returns
        // reports in notebook order, so the log stream is bit-identical to
        // the sequential one at any thread count. Panics are isolated per
        // notebook and retryable failures quarantined with bounded retry.
        let (reports, robustness) = {
            let _s = obs::span("replay");
            let faults = config.faults.clone().or_else(FaultSpec::from_env);
            let engine = ReplayEngine::new(corpus.repository.clone()).with_faults(faults);
            engine.replay_corpus(&corpus.notebooks)
        };
        lap(&mut timings, "replay", &mut stage_start);

        let split_span = obs::span("filter_and_split");
        let all_invocations: Vec<OpInvocation> = reports
            .iter()
            .flat_map(|r| r.invocations.iter().cloned())
            .collect();
        let (filtered, filter_stats) = filter_invocations(all_invocations, 5);

        // Grouped 80/20 split (§6.1): group key = dataset_group.
        let (test_invs, train_invs): (Vec<OpInvocation>, Vec<OpInvocation>) =
            filtered.into_iter().partition(|inv| {
                is_test_group(&inv.dataset_group, config.test_fraction, config.split_seed)
            });

        let of_kind = |invs: &[OpInvocation], k: OpKind| -> Vec<OpInvocation> {
            invs.iter().filter(|i| i.op == k).cloned().collect()
        };
        let train_join = of_kind(&train_invs, OpKind::Merge);
        let train_groupby = of_kind(&train_invs, OpKind::GroupBy);
        let train_pivot = of_kind(&train_invs, OpKind::Pivot);
        let train_melt = of_kind(&train_invs, OpKind::Melt);
        drop(split_span);
        lap(&mut timings, "filter_and_split", &mut stage_start);

        let predictors_span = obs::span("train_predictors");
        fn refs(v: &[OpInvocation]) -> Vec<&OpInvocation> {
            v.iter().collect()
        }
        let join =
            JoinColumnPredictor::train(&refs(&train_join), &config.gbdt, config.candidates.clone());
        let join_type = JoinTypePredictor::train(&refs(&train_join), &config.gbdt);
        let groupby = GroupByAggPredictor::train(&refs(&train_groupby), &config.gbdt);
        let compat =
            CompatibilityModel::train(&refs(&train_pivot), &refs(&train_melt), &config.gbdt);
        let (pivot, unpivot) =
            (compat.clone().map(PivotPredictor::new), compat.map(UnpivotPredictor::new));
        // Gauges are last-write-wins, so they are only ever set here, on
        // the sequential training path — never from pool tasks.
        if let Some(j) = &join {
            for (group, v) in j.importance_by_group() {
                obs::gauge_set(&format!("importance.join.{group}"), v);
            }
        }
        if let Some(g) = &groupby {
            for (group, v) in g.importance_by_group() {
                obs::gauge_set(&format!("importance.groupby.{group}"), v);
            }
        }
        drop(predictors_span);
        lap(&mut timings, "train_predictors", &mut stage_start);
        let nextop_span = obs::span("train_nextop");

        // Next-operator examples from per-notebook invocation streams,
        // split on the same dataset groups. Scoring each step's input table
        // with the single-operator models dominates this stage, and reports
        // are independent — fan out per report, fold in report order.
        let mut train_examples: Vec<NextOpExample> = Vec::new();
        let mut test_examples: Vec<NextOpExample> = Vec::new();
        let mut train_sequences: Vec<Vec<usize>> = Vec::new();
        if let (Some(gb), Some(pv)) = (&groupby, &pivot) {
            let per_report = autosuggest_parallel::par_map(&reports, |report| {
                let stream: Vec<&OpInvocation> = report
                    .invocations
                    .iter()
                    .filter(|i| i.op.sequence_id().is_some())
                    .collect();
                if stream.len() < 2 {
                    return None;
                }
                let is_test =
                    is_test_group(&report.dataset_group, config.test_fraction, config.split_seed);
                let mut prefix: Vec<usize> = Vec::new();
                let mut examples = Vec::new();
                for inv in &stream {
                    let Some(label) = inv.op.sequence_id() else { continue };
                    let scores = single_op_scores(&inv.inputs[0], gb, pv.compatibility());
                    examples.push(NextOpExample {
                        prefix: prefix.clone(),
                        table_scores: scores,
                        label,
                    });
                    prefix.push(label);
                }
                Some((is_test, examples, prefix))
            });
            for (is_test, examples, prefix) in per_report.into_iter().flatten() {
                if is_test {
                    test_examples.extend(examples);
                } else {
                    train_sequences.push(prefix);
                    train_examples.extend(examples);
                }
            }
        }

        let nextop_full = NextOpPredictor::train(
            NextOpConfig { mode: NextOpMode::Full, ..config.nextop.clone() },
            &train_examples,
        );
        let nextop_rnn_only = NextOpPredictor::train(
            NextOpConfig { mode: NextOpMode::RnnOnly, ..config.nextop.clone() },
            &train_examples,
        );
        let nextop_single_ops = NextOpPredictor::train(
            NextOpConfig { mode: NextOpMode::SingleOperators, ..config.nextop.clone() },
            &[],
        );
        let mut ngram = NgramModel::new(3, crate::nextop::NUM_OPS);
        ngram.train(&train_sequences);
        drop(nextop_span);
        lap(&mut timings, "train_nextop", &mut stage_start);

        let system = AutoSuggest {
            models: TrainedModels {
                join,
                join_type,
                groupby,
                pivot,
                unpivot,
                nextop_full,
                nextop_rnn_only,
                nextop_single_ops,
                ngram,
            },
            train: TrainData {
                join: train_join,
                groupby: train_groupby,
                pivot: train_pivot,
                melt: train_melt,
                nextop: train_examples,
                sequences: train_sequences,
            },
            test: TestData {
                join: of_kind(&test_invs, OpKind::Merge),
                groupby: of_kind(&test_invs, OpKind::GroupBy),
                pivot: of_kind(&test_invs, OpKind::Pivot),
                melt: of_kind(&test_invs, OpKind::Melt),
                nextop: test_examples,
            },
            reports,
            filter_stats,
            robustness,
            config,
        };
        (system, timings)
    }
}

/// One interactive suggestion request against a trained system. Tables are
/// borrowed so a batch over many requests can reference shared frames
/// without cloning.
#[derive(Debug, Clone, Copy)]
pub enum SuggestRequest<'a> {
    /// Rank join column candidates between two tables (§4.1).
    Join {
        left: &'a DataFrame,
        right: &'a DataFrame,
        top_k: usize,
    },
    /// Rank every column as GroupBy dimension vs. Aggregation measure
    /// (§4.2).
    GroupBy { table: &'a DataFrame },
    /// Predict index/header among the given dimension columns (§4.3).
    Pivot { table: &'a DataFrame, dims: &'a [usize] },
    /// Predict the column set to collapse (§4.4).
    Unpivot { table: &'a DataFrame },
}

impl SuggestRequest<'_> {
    /// The tables this request featurises (one for single-table operators,
    /// two for Join).
    fn tables(&self) -> Vec<&DataFrame> {
        match self {
            SuggestRequest::Join { left, right, .. } => vec![left, right],
            SuggestRequest::GroupBy { table }
            | SuggestRequest::Pivot { table, .. }
            | SuggestRequest::Unpivot { table } => vec![table],
        }
    }
}

/// The answer to one [`SuggestRequest`], mirroring the per-operator
/// `suggest` return types.
#[derive(Debug, Clone, PartialEq)]
pub enum SuggestResponse {
    Join(Vec<JoinSuggestion>),
    GroupBy(Vec<GroupBySuggestion>),
    Pivot(Option<PivotSuggestion>),
    Unpivot(Option<UnpivotSuggestion>),
    /// The model for the requested operator was not trained on this corpus
    /// (the payload names the missing model).
    Unavailable(&'static str),
}

/// Obs counter names for the interactive suggest path (deterministic
/// section; see the warm-phase gating note on [`TrainedModels::warm_tables`]).
pub const WARM_COLUMNS_COUNTER: &str = "suggest.warm_columns";

/// The served half of a trained system: keep the models, drop the replayed
/// corpus and the train/test invocations.
impl From<AutoSuggest> for TrainedModels {
    fn from(system: AutoSuggest) -> TrainedModels {
        system.models
    }
}

impl TrainedModels {
    /// Answer one interactive request with the trained models.
    pub fn suggest(&self, req: &SuggestRequest<'_>) -> SuggestResponse {
        match req {
            SuggestRequest::Join { left, right, top_k } => match &self.join {
                Some(j) => SuggestResponse::Join(j.suggest(left, right, *top_k)),
                None => SuggestResponse::Unavailable("join"),
            },
            SuggestRequest::GroupBy { table } => match &self.groupby {
                Some(g) => SuggestResponse::GroupBy(g.suggest(table)),
                None => SuggestResponse::Unavailable("groupby"),
            },
            SuggestRequest::Pivot { table, dims } => match &self.pivot {
                Some(p) => SuggestResponse::Pivot(p.suggest(table, dims)),
                None => SuggestResponse::Unavailable("pivot"),
            },
            SuggestRequest::Unpivot { table } => match &self.unpivot {
                Some(u) => SuggestResponse::Unpivot(u.suggest(table)),
                None => SuggestResponse::Unavailable("unpivot"),
            },
        }
    }

    /// Answer a batch of requests, deduplicating tables across requests
    /// before featurising.
    ///
    /// Interactive sessions ask several questions about the same frames
    /// (e.g. join + groupby on one table, or one table joined against many
    /// partners). Distinct tables — identified by content fingerprint, so
    /// clones of one frame collapse — have their column artifacts warmed
    /// exactly once across the pool; the per-request featurisers then hit
    /// the cache instead of re-sketching shared columns per request.
    /// Responses come back in request order and are identical to calling
    /// [`TrainedModels::suggest`] sequentially.
    pub fn suggest_batch(&self, reqs: &[SuggestRequest<'_>]) -> Vec<SuggestResponse> {
        let _span = obs::span("suggest_batch");
        obs::counter_add("suggest.batch_requests", reqs.len() as u64);
        self.warm_tables(reqs);
        autosuggest_parallel::par_map(reqs, |req| self.suggest(req))
    }

    /// Pre-warm the column cache for every distinct table across `reqs`,
    /// so the per-request featurisers hit the cache instead of re-sketching
    /// shared columns per request. Returns the number of columns warmed.
    ///
    /// The warm phase only runs when the global column cache is enabled:
    /// with the cache switched off the warmed artifacts would be computed,
    /// discarded, and recomputed per request — pure wasted work. The
    /// `suggest.warm_columns` counter counts every column pushed through
    /// the warm phase, so a disabled cache must leave it untouched.
    pub fn warm_tables(&self, reqs: &[SuggestRequest<'_>]) -> usize {
        // Deduplicate tables by content fingerprint, keeping first-seen
        // order so the warm-up workload is deterministic.
        let mut seen = std::collections::HashSet::new();
        let mut distinct: Vec<&DataFrame> = Vec::new();
        for req in reqs {
            for table in req.tables() {
                if seen.insert(table_fingerprint(table)) {
                    distinct.push(table);
                }
            }
        }
        obs::counter_add("suggest.batch_distinct_tables", distinct.len() as u64);

        let cache = ColumnCache::global();
        if !cache.enabled() {
            return 0;
        }
        // Warm every distinct column once (columns of deduplicated tables
        // are themselves deduplicated by the cache's content addressing).
        let cols: Vec<&autosuggest_dataframe::Column> =
            distinct.iter().flat_map(|t| t.columns()).collect();
        obs::counter_add(WARM_COLUMNS_COUNTER, cols.len() as u64);
        autosuggest_parallel::par_map(&cols, |c| {
            cache.artifacts(c);
        });
        cols.len()
    }

    /// [`TrainedModels::suggest`] with panic isolation: a panic anywhere in
    /// this request's featurisation or model scoring is caught and returned
    /// as `Err` with the panic message, leaving the process (and any other
    /// request sharing a batch with this one) untouched. The serving layer
    /// builds its micro-batch executor on this so one poisoned request can
    /// never take down the daemon.
    pub fn suggest_guarded(&self, req: &SuggestRequest<'_>) -> Result<SuggestResponse, String> {
        let ambient = obs::ambient();
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            obs::with_ambient(&ambient, || self.suggest(req))
        }))
        .map_err(|payload| autosuggest_parallel::panic_message(payload.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_training_produces_all_models_and_disjoint_splits() {
        let system = AutoSuggest::train(AutoSuggestConfig::fast(3));
        assert!(system.models.join.is_some());
        assert!(system.models.join_type.is_some());
        assert!(system.models.groupby.is_some());
        assert!(system.models.pivot.is_some());
        assert!(system.models.unpivot.is_some());
        assert!(!system.train.join.is_empty());
        // Test sets are non-empty and leak-free at the group level.
        let train_groups: std::collections::HashSet<&str> = system
            .train
            .join
            .iter()
            .map(|i| i.dataset_group.as_str())
            .collect();
        for t in &system.test.join {
            assert!(
                !train_groups.contains(t.dataset_group.as_str()),
                "group {} leaked into both sides",
                t.dataset_group
            );
        }
        assert!(!system.test.nextop.is_empty() || !system.train.nextop.is_empty());
        assert!(system.filter_stats.kept > 0);
        assert_eq!(system.robustness.total_injected(), 0);
    }

    #[test]
    fn zero_groupby_sequence_corpus_trains_without_panicking() {
        // Regression: a replay log with no groupby (and no sequence)
        // notebooks used to panic in single-operator scoring; now the
        // next-op stage degrades to empty example sets.
        let mut config = AutoSuggestConfig::fast(5);
        config.corpus.join_notebooks = 0;
        config.corpus.groupby_notebooks = 0;
        config.corpus.pivot_notebooks = 0;
        config.corpus.unpivot_notebooks = 0;
        config.corpus.flow_notebooks = 0;
        let system = AutoSuggest::train(config);
        assert!(system.models.groupby.is_none());
        assert!(system.models.pivot.is_none());
        assert!(system.train.nextop.is_empty());
        assert!(system.test.nextop.is_empty());
    }

    #[test]
    fn zero_column_table_scores_are_all_zero() {
        let system = AutoSuggest::train(AutoSuggestConfig::fast(3));
        let (Some(gb), Some(pv)) = (&system.models.groupby, &system.models.pivot) else {
            panic!("fast config trains groupby and pivot models");
        };
        let scores = crate::nextop::single_op_scores(
            &autosuggest_dataframe::DataFrame::empty(),
            gb,
            pv.compatibility(),
        );
        assert_eq!(scores, vec![0.0; crate::nextop::NUM_OPS]);
    }
}
