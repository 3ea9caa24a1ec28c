//! Incremental retraining: fold a grown corpus into an already-trained
//! system without paying for a stop-the-world full retrain.
//!
//! ## How the delta path stays *exact*
//!
//! [`AutoSuggest::retrain`] never tries to "patch" models. It
//! reconstructs the same inputs a full [`AutoSuggest::train`] on the new
//! config would see, but skips the work whose outputs it can prove are
//! already in hand:
//!
//! 1. **Corpus generation is content-addressed.** Notebook ids, RNG
//!    streams, and table contents are pure functions of
//!    `(corpus seed, archetype, per-archetype ordinal)`, so growing an
//!    archetype's notebook count leaves every existing notebook
//!    bit-identical. Retrain verifies the previous corpus is a prefix
//!    of the new one (same seed/table config/failure planting, previous
//!    notebook ids ⊆ new ids) before reusing anything.
//! 2. **Replay reports are reused by notebook id.** Replay (and fault
//!    injection, which keys on `(spec seed, notebook id, cell index)`) is
//!    per-notebook deterministic, so only genuinely new notebooks are
//!    replayed; the merged report stream — previous reports cloned,
//!    new reports spliced in canonical corpus order — is bit-identical to
//!    replaying the whole union. Robustness accounting merges additively.
//! 3. **Models are carried by input identity.** The shared
//!    model-building back half ([`AutoSuggest::build_from_reports`], the
//!    same code the full pipeline runs) re-derives each family's training
//!    set from the merged logs and clones the previous model whenever the
//!    set and hyper-parameters are unchanged — sound because training is
//!    deterministic, so retraining would reproduce the same bits anyway.
//!
//! Any gate failure (different corpus seed, changed fault spec, shrunk
//! corpus, …) falls back to the full path — correctness never depends on
//! the gates firing, they only decide how much work is skipped.

use crate::pipeline::{AutoSuggest, AutoSuggestConfig, StageTiming};
use autosuggest_corpus::replay::ReplayReport;
use autosuggest_corpus::{
    CorpusGenerator, FaultSpec, Notebook, OpKind, ReplayEngine, RobustnessStats,
};
use autosuggest_obs as obs;
use std::collections::HashMap;

/// What changed between the previous snapshot and the new corpus.
#[derive(Debug, Clone, Default)]
pub struct RetrainDelta {
    /// Notebooks in the previous system's corpus.
    pub prev_notebooks: usize,
    /// Notebooks in the new (union) corpus.
    pub union_notebooks: usize,
    /// Notebooks that had to be replayed (new ids).
    pub replayed_notebooks: usize,
    /// Replay reports lifted from the previous system unchanged.
    pub reused_reports: usize,
    /// Invocation counts per operator across the newly replayed
    /// notebooks, sorted by operator name.
    pub new_invocations_per_op: Vec<(String, usize)>,
}

/// Outcome summary of one [`AutoSuggest::retrain`] run.
#[derive(Debug, Clone)]
pub struct RetrainReport {
    pub delta: RetrainDelta,
    /// Model families cloned from the previous system.
    pub carried: Vec<&'static str>,
    /// Model families retrained on the merged logs.
    pub rebuilt: Vec<&'static str>,
    /// True when a reuse gate failed and retrain replayed everything
    /// (the result is still correct — just not cheaper).
    pub full_replay_fallback: bool,
    /// Per-stage wall clock, same stage names as `train_timed`.
    pub timings: Vec<StageTiming>,
    /// Total retrain wall clock.
    pub seconds: f64,
}

/// Additive merge of replay robustness accounting: `prev` and `new` cover
/// disjoint notebook sets, and every field is a per-notebook (or
/// per-event) count. The fault spec must already have been checked equal,
/// and the previous one is kept verbatim.
fn merge_robustness(prev: &RobustnessStats, new: &RobustnessStats) -> RobustnessStats {
    let mut merged = prev.clone();
    merged.merge_from(new);
    merged.fault_spec = prev.fault_spec.clone();
    merged
}

impl AutoSuggest {
    /// Retrain `prev` against `config`, reusing every replay report and
    /// model the gates can prove unchanged; families whose inputs changed
    /// retrain from scratch. The result is bit-for-bit identical to
    /// [`AutoSuggest::train`] on `config`. See the module docs for the
    /// exactness argument.
    pub fn retrain(prev: &AutoSuggest, config: AutoSuggestConfig) -> (AutoSuggest, RetrainReport) {
        let _span = obs::span("retrain");
        let started = std::time::Instant::now();
        obs::counter_add("retrain.runs", 1);
        let mut timings: Vec<StageTiming> = Vec::new();
        let mut stage_start = std::time::Instant::now();

        let corpus = {
            let _s = obs::span("retrain.generate");
            CorpusGenerator::new(config.corpus.clone()).generate()
        };
        crate::pipeline::lap(&mut timings, "generate_corpus", &mut stage_start);

        // Reuse gates. Every check guards a specific assumption the merge
        // relies on; see the module docs.
        let prev_reports: HashMap<&str, &ReplayReport> =
            prev.reports.iter().map(|r| (r.notebook_id.as_str(), r)).collect();
        let union_ids: std::collections::HashSet<&str> =
            corpus.notebooks.iter().map(|nb| nb.id.as_str()).collect();
        let faults = config.faults.clone().or_else(FaultSpec::from_env);
        let corpus_compatible = {
            let (a, b) = (&prev.config.corpus, &config.corpus);
            a.seed == b.seed
                && a.plant_failures == b.plant_failures
                && format!("{:?}", a.tables) == format!("{:?}", b.tables)
        };
        // The previous *corpus* membership, not the previous report set:
        // notebooks whose replay failed outright left no report but were
        // still seen (and accounted for in `prev.robustness`) — replaying
        // them again would deterministically fail again while
        // double-counting their failures. Corpus generation is a pure
        // function of its config, so the id set regenerates exactly; when
        // the configs are identical the union ids are already that set.
        let prev_ids: std::collections::HashSet<String> = if corpus_compatible {
            if format!("{:?}", prev.config.corpus) == format!("{:?}", config.corpus) {
                union_ids.iter().map(|s| s.to_string()).collect()
            } else {
                let _s = obs::span("retrain.generate");
                CorpusGenerator::new(prev.config.corpus.clone())
                    .generate()
                    .notebooks
                    .iter()
                    .map(|nb| nb.id.clone())
                    .collect()
            }
        } else {
            Default::default()
        };
        let reuse_ok = corpus_compatible
            && faults.as_ref().map(FaultSpec::render) == prev.robustness.fault_spec
            && prev_ids.iter().all(|id| union_ids.contains(id.as_str()));

        let mut delta = RetrainDelta {
            prev_notebooks: if reuse_ok { prev_ids.len() } else { prev.reports.len() },
            union_notebooks: corpus.notebooks.len(),
            ..Default::default()
        };
        let engine = ReplayEngine::new(corpus.repository.clone()).with_faults(faults);
        let (reports, robustness) = if reuse_ok {
            let _s = obs::span("retrain.replay_delta");
            let new_notebooks: Vec<Notebook> = corpus
                .notebooks
                .iter()
                .filter(|nb| !prev_ids.contains(nb.id.as_str()))
                .cloned()
                .collect();
            delta.replayed_notebooks = new_notebooks.len();
            delta.reused_reports = prev.reports.len();
            let (new_reports, new_stats) = engine.replay_corpus(&new_notebooks);
            let mut per_op: HashMap<OpKind, usize> = HashMap::new();
            for report in &new_reports {
                for inv in &report.invocations {
                    *per_op.entry(inv.op).or_insert(0) += 1;
                }
            }
            delta.new_invocations_per_op =
                per_op.into_iter().map(|(k, n)| (format!("{k:?}"), n)).collect();
            delta.new_invocations_per_op.sort();
            // Splice: previous reports (cloned) and fresh reports, in
            // canonical corpus order — bit-identical to a full replay.
            let mut fresh: HashMap<String, ReplayReport> =
                new_reports.into_iter().map(|r| (r.notebook_id.clone(), r)).collect();
            let merged: Vec<ReplayReport> = corpus
                .notebooks
                .iter()
                .filter_map(|nb| match prev_reports.get(nb.id.as_str()) {
                    Some(r) => Some((*r).clone()),
                    None => fresh.remove(nb.id.as_str()),
                })
                .collect();
            (merged, merge_robustness(&prev.robustness, &new_stats))
        } else {
            obs::counter_add("retrain.full_replay_fallbacks", 1);
            delta.replayed_notebooks = corpus.notebooks.len();
            engine.replay_corpus(&corpus.notebooks)
        };
        crate::pipeline::lap(&mut timings, "replay", &mut stage_start);
        obs::counter_add("retrain.notebooks_replayed", delta.replayed_notebooks as u64);
        obs::counter_add("retrain.reports_reused", delta.reused_reports as u64);

        let (system, outcome) = AutoSuggest::build_from_reports(
            config,
            reports,
            robustness,
            reuse_ok.then_some(prev),
            &mut timings,
        );

        obs::counter_add("retrain.models_carried", outcome.carried.len() as u64);
        obs::counter_add("retrain.models_rebuilt", outcome.rebuilt.len() as u64);
        let seconds = started.elapsed().as_secs_f64();
        obs::observe("retrain.seconds", seconds);
        let report = RetrainReport {
            delta,
            carried: outcome.carried,
            rebuilt: outcome.rebuilt,
            full_replay_fallback: !reuse_ok,
            timings,
            seconds,
        };
        (system, report)
    }
}
