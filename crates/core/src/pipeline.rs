//! The end-to-end Auto-Suggest pipeline: corpus → replay → logs → models.

use crate::groupby::{GroupByAggPredictor, GroupBySuggestion};
use crate::join::{JoinColumnPredictor, JoinSuggestion};
use crate::join_type::JoinTypePredictor;
use crate::nextop::{single_op_scores, NextOpConfig, NextOpExample, NextOpMode, NextOpPredictor};
use crate::pivot::{CompatibilityModel, PivotPredictor, PivotSuggestion};
use crate::unpivot::{UnpivotPredictor, UnpivotSuggestion};
use autosuggest_cache::table_row_fingerprint;
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
    /// injects no faults.
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

/// One split side's invocations of the four single-operator families,
/// each in corpus order.
#[derive(Default)]
struct ByFamily {
    join: Vec<OpInvocation>,
    groupby: Vec<OpInvocation>,
    pivot: Vec<OpInvocation>,
    melt: Vec<OpInvocation>,
}

impl ByFamily {
    fn push(&mut self, inv: OpInvocation) {
        match inv.op {
            OpKind::Merge => self.join.push(inv),
            OpKind::GroupBy => self.groupby.push(inv),
            OpKind::Pivot => self.pivot.push(inv),
            OpKind::Melt => self.melt.push(inv),
            _ => {}
        }
    }
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
            let engine =
                ReplayEngine::new(corpus.repository.clone()).with_faults(config.faults.clone());
            engine.replay_corpus(&corpus.notebooks)
        };
        lap(&mut timings, "replay", &mut stage_start);

        let split_span = obs::span("filter_and_split");
        let all_invocations: Vec<OpInvocation> = reports
            .iter()
            .flat_map(|r| r.invocations.iter().cloned())
            .collect();
        let (filtered, filter_stats) = filter_invocations(all_invocations, 5);

        // Grouped 80/20 split (§6.1): group key = dataset_group. One moving
        // pass buckets each kept invocation by side and family, in order.
        let (mut train, mut test) = (ByFamily::default(), ByFamily::default());
        for inv in filtered {
            if is_test_group(&inv.dataset_group, config.test_fraction, config.split_seed) {
                test.push(inv);
            } else {
                train.push(inv);
            }
        }
        drop(split_span);
        lap(&mut timings, "filter_and_split", &mut stage_start);

        let predictors_span = obs::span("train_predictors");
        fn refs(v: &[OpInvocation]) -> Vec<&OpInvocation> {
            v.iter().collect()
        }
        let (join_refs, groupby_refs) = (refs(&train.join), refs(&train.groupby));
        let (pivot_refs, melt_refs) = (refs(&train.pivot), refs(&train.melt));
        // The families share no state (the column cache is deterministic
        // under concurrent use), so the two halves train side by side.
        let ((join, join_type), (groupby, compat)) = autosuggest_parallel::join(
            || {
                (
                    JoinColumnPredictor::train(&join_refs, &config.gbdt, config.candidates.clone()),
                    JoinTypePredictor::train(&join_refs, &config.gbdt),
                )
            },
            || {
                (
                    GroupByAggPredictor::train(&groupby_refs, &config.gbdt),
                    CompatibilityModel::train(&pivot_refs, &melt_refs, &config.gbdt),
                )
            },
        );
        let (pivot, unpivot) =
            (compat.clone().map(PivotPredictor::new), compat.map(UnpivotPredictor::new));
        // Gauges are last-write-wins, so they are only ever set here, on
        // the caller once both halves have trained — never from pool tasks.
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
        // with the single-operator models dominates this stage, and input
        // tables repeat (one op's output feeds the next; datasets recur
        // across notebooks), so each distinct table is scored once. The
        // examples are still assembled per report on the pool and folded
        // in report order.
        let mut train_examples: Vec<NextOpExample> = Vec::new();
        let mut test_examples: Vec<NextOpExample> = Vec::new();
        let mut train_sequences: Vec<Vec<usize>> = Vec::new();
        if let (Some(gb), Some(pv)) = (&groupby, &pivot) {
            let started = std::time::Instant::now();
            let streams: Vec<(&ReplayReport, Vec<&OpInvocation>)> = reports
                .iter()
                .map(|report| {
                    let stream = report
                        .invocations
                        .iter()
                        .filter(|i| i.op.sequence_id().is_some())
                        .collect::<Vec<_>>();
                    (report, stream)
                })
                .filter(|(_, stream)| stream.len() >= 2)
                .collect();
            let inputs: Vec<&DataFrame> = streams
                .iter()
                .flat_map(|(_, stream)| stream.iter().map(|inv| &*inv.inputs[0]))
                .collect();
            // The scores read cells of several columns in one row (the
            // pivot affinity's emptiness-reduction ratio), so the memo keys
            // on the row-aligned fingerprint.
            let keys = autosuggest_parallel::par_map(&inputs, |t| table_row_fingerprint(t));
            let (distinct, slots) = first_seen(inputs.iter().copied().zip(keys));
            obs::counter_add("nextop.tables_scored", inputs.len() as u64);
            obs::counter_add("nextop.tables_distinct", distinct.len() as u64);
            let scores = autosuggest_parallel::par_map(&distinct, |t| {
                single_op_scores(t, gb, pv.compatibility())
            });
            let offsets: Vec<usize> = streams
                .iter()
                .scan(0, |next, (_, stream)| {
                    let at = *next;
                    *next += stream.len();
                    Some(at)
                })
                .collect();
            let per_report = autosuggest_parallel::par_map_indexed(streams.len(), |r| {
                let (report, stream) = &streams[r];
                let is_test =
                    is_test_group(&report.dataset_group, config.test_fraction, config.split_seed);
                let mut prefix: Vec<usize> = Vec::new();
                let mut examples = Vec::with_capacity(stream.len());
                for (inv, &slot) in stream.iter().zip(&slots[offsets[r]..]) {
                    let Some(label) = inv.op.sequence_id() else { continue };
                    examples.push(NextOpExample {
                        prefix: prefix.clone(),
                        table_scores: scores[slot].clone(),
                        label,
                    });
                    prefix.push(label);
                }
                (is_test, examples, prefix)
            });
            for (is_test, examples, prefix) in per_report {
                if is_test {
                    test_examples.extend(examples);
                } else {
                    train_sequences.push(prefix);
                    train_examples.extend(examples);
                }
            }
            obs::observe_since("nextop.scoring_seconds", started);
        }

        // The two RNN variants share no state and each seeds its own RNG
        // from its config, so training them side by side is bit-identical
        // to training them one after the other (at one thread the pool runs
        // them inline).
        let modes = [NextOpMode::Full, NextOpMode::RnnOnly];
        let trained = autosuggest_parallel::par_map(&modes, |&mode| {
            NextOpPredictor::train(NextOpConfig { mode, ..config.nextop.clone() }, &train_examples)
        });
        let [nextop_full, nextop_rnn_only]: [NextOpPredictor; 2] = match trained.try_into() {
            Ok(pair) => pair,
            Err(_) => unreachable!("par_map returns one model per mode"),
        };
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
                join: train.join,
                groupby: train.groupby,
                pivot: train.pivot,
                melt: train.melt,
                nextop: train_examples,
                sequences: train_sequences,
            },
            test: TestData {
                join: test.join,
                groupby: test.groupby,
                pivot: test.pivot,
                melt: test.melt,
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
/// borrowed, so requests over shared frames need not clone them.
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
}

/// First-seen deduplication of keyed tables: the distinct tables in the
/// order their key first appears, and each input's slot in that list.
fn first_seen<'a, K: Eq + std::hash::Hash>(
    keyed: impl IntoIterator<Item = (&'a DataFrame, K)>,
) -> (Vec<&'a DataFrame>, Vec<usize>) {
    let mut slot_of = std::collections::HashMap::new();
    let mut distinct = Vec::new();
    let slots = keyed
        .into_iter()
        .map(|(table, key)| {
            *slot_of.entry(key).or_insert_with(|| {
                distinct.push(table);
                distinct.len() - 1
            })
        })
        .collect();
    (distinct, slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosuggest_dataframe::Value;

    /// One `fast(3)` training shared by the tests below, with the metrics
    /// it recorded into a registry of its own.
    fn fast3() -> &'static (AutoSuggest, obs::MetricsSnapshot) {
        static SYSTEM: std::sync::OnceLock<(AutoSuggest, obs::MetricsSnapshot)> =
            std::sync::OnceLock::new();
        SYSTEM.get_or_init(|| {
            obs::with_local_registry(|| AutoSuggest::train(AutoSuggestConfig::fast(3)))
        })
    }

    #[test]
    fn end_to_end_training_produces_all_models_and_disjoint_splits() {
        let system = &fast3().0;
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
    fn score_memo_changes_no_next_op_example() {
        let (system, metrics) = fast3();
        let (Some(gb), Some(pv)) = (&system.models.groupby, &system.models.pivot) else {
            panic!("fast config trains groupby and pivot models");
        };
        // Reference: one scoring call per invocation, in report order.
        let (mut train, mut test) = (Vec::new(), Vec::new());
        for report in &system.reports {
            let stream: Vec<&OpInvocation> =
                report.invocations.iter().filter(|i| i.op.sequence_id().is_some()).collect();
            if stream.len() < 2 {
                continue;
            }
            let config = &system.config;
            let is_test =
                is_test_group(&report.dataset_group, config.test_fraction, config.split_seed);
            let mut prefix = Vec::new();
            for inv in stream {
                let label = inv.op.sequence_id().unwrap();
                let scores = single_op_scores(&inv.inputs[0], gb, pv.compatibility());
                let scores: Vec<u64> = scores.iter().map(|x| x.to_bits()).collect();
                let side = if is_test { &mut test } else { &mut train };
                side.push((prefix.clone(), scores, label));
                prefix.push(label);
            }
        }
        let bits = |examples: &[NextOpExample]| -> Vec<(Vec<usize>, Vec<u64>, usize)> {
            examples
                .iter()
                .map(|e| {
                    let scores = e.table_scores.iter().map(|x| x.to_bits()).collect();
                    (e.prefix.clone(), scores, e.label)
                })
                .collect()
        };
        assert!(!train.is_empty() && !test.is_empty());
        assert_eq!(bits(&system.train.nextop), train);
        assert_eq!(bits(&system.test.nextop), test);

        let scored = metrics.counters["nextop.tables_scored"];
        let distinct = metrics.counters["nextop.tables_distinct"];
        assert_eq!(scored as usize, system.train.nextop.len() + system.test.nextop.len());
        assert!(distinct < scored, "{distinct} distinct of {scored} scored tables");
    }

    #[test]
    fn adversarial_tables_score_finite_and_bounded() {
        let (system, _) = fast3();
        let (Some(gb), Some(pv)) = (&system.models.groupby, &system.models.pivot) else {
            panic!("fast config trains groupby and pivot models");
        };
        let floats = |name, vals: &[f64]| (name, vals.iter().map(|&v| Value::Float(v)).collect());
        let strs = |name, vals: &[&str]| (name, vals.iter().map(|&v| Value::Str(v.into())).collect());
        let frame = |cols: Vec<(&str, Vec<Value>)>| DataFrame::from_columns(cols).unwrap();
        let cases = [
            ("zero columns", DataFrame::empty()),
            ("zero rows, 1 column", frame(vec![("a", vec![])])),
            ("zero rows, 3 columns", frame(vec![("a", vec![]), ("b", vec![]), ("c", vec![])])),
            (
                "3 all-null columns",
                frame(vec![
                    ("a", vec![Value::Null; 4]),
                    ("b", vec![Value::Null; 4]),
                    ("c", vec![Value::Null; 4]),
                ]),
            ),
            (
                "one row with a NaN",
                frame(vec![
                    ("k", vec![Value::Str("x".into())]),
                    floats("v", &[f64::NAN]),
                    ("n", vec![Value::Int(1)]),
                ]),
            ),
            (
                "infinities and extremes",
                frame(vec![
                    ("k", ["a", "b", "c", "d"].iter().map(|&s| Value::Str(s.into())).collect()),
                    floats("inf", &[f64::INFINITY, f64::NEG_INFINITY, 1.0, f64::INFINITY]),
                    floats("big", &[1e308, -1e308, 1e308, 0.0]),
                    floats("mix", &[f64::NEG_INFINITY, -1e308, 1e308, f64::INFINITY]),
                ]),
            ),
            (
                "unicode and locale-formatted numbers",
                frame(vec![
                    strs("amount", &["1.234,5", "2.000,75", "\u{2212}3,5", "1\u{202f}234,5"]),
                    strs("na\u{ef}ve", &["\u{6771}\u{4eac}", "Z\u{fc}rich", "\u{1f642}", "e\u{301}"]),
                    strs("pct", &["12,5 %", "1e3", "\u{663}\u{66b}\u{665}", "NaN"]),
                    ("id", (0..4).map(Value::Int).collect()),
                ]),
            ),
            (
                "high-overlap near-key columns",
                frame(vec![
                    ("id", (0..50).map(Value::Int).collect()),
                    ("id_next", (1..51).map(Value::Int).collect()),
                    ("id_dup", (0..50).map(|i| Value::Int(i.min(48))).collect()),
                    ("key", (0..50).map(|i| Value::Str(format!("k{i}"))).collect()),
                    ("key_dup", (0..50).map(|i| Value::Str(format!("k{}", i / 2 * 2))).collect()),
                ]),
            ),
        ];
        for (name, table) in &cases {
            let scores = single_op_scores(table, gb, pv.compatibility());
            assert_eq!(scores.len(), crate::nextop::NUM_OPS, "{name}");
            for s in &scores {
                assert!(s.is_finite() && (0.0..=1.0).contains(s), "{name}: {scores:?}");
            }
            // The predictors a `/suggest` reaches directly: one score per
            // column, and a split of exactly the requested dimensions.
            let ranked = gb.suggest(table);
            assert_eq!(ranked.len(), table.num_columns(), "{name}");
            for s in &ranked {
                assert!(s.score.is_finite() && (0.0..=1.0).contains(&s.score), "{name}: {s:?}");
            }
            let dims: Vec<usize> = (0..table.num_columns()).collect();
            if let Some(s) = pv.suggest(table, &dims) {
                assert!(s.objective.is_finite(), "{name}: {s:?}");
                assert_eq!(s.index.len() + s.header.len(), dims.len(), "{name}: {s:?}");
            }
        }
        // The join, join-type and unpivot featurisers over every pair.
        let models = &system.models;
        let (Some(join), Some(join_type), Some(unpivot)) =
            (&models.join, &models.join_type, &models.unpivot)
        else {
            panic!("fast config trains join, join-type and unpivot models");
        };
        for (left_name, left) in &cases {
            for (right_name, right) in &cases {
                let pair = format!("{left_name} / {right_name}");
                for s in join.suggest(left, right, 3) {
                    assert!(s.score.is_finite(), "{pair}: {s:?}");
                }
                let candidates =
                    autosuggest_features::enumerate_join_candidates(left, right, join.candidate_params());
                for cand in &candidates {
                    let scores = join_type.scores(left, right, cand);
                    assert!(scores.iter().all(|s| s.is_finite()), "{pair}: {scores:?}");
                }
            }
            if let Some(s) = unpivot.suggest(left) {
                assert!(s.objective.is_finite(), "{left_name}: {s:?}");
            }
        }
        let zero_columns = single_op_scores(&DataFrame::empty(), gb, pv.compatibility());
        assert_eq!(zero_columns, vec![0.0; crate::nextop::NUM_OPS]);
    }
}
