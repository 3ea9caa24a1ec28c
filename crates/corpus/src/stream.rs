//! Bounded-memory streamed corpus replay (generate → replay → spill,
//! shard by shard), the scale path behind `repro --corpus-scale`.
//!
//! The in-memory pipeline materialises the whole corpus and all replay
//! reports at once, so RSS grows linearly with corpus size. Streaming
//! exploits two structural facts:
//!
//! 1. **Notebooks are pure functions of their jobs.** Every notebook is
//!    derived solely from `(corpus seed, archetype, ordinal)` (see
//!    `nbgen::derive_seed`), so any contiguous sharding of the canonical
//!    job list, generated independently, concatenates back to the full
//!    corpus exactly.
//! 2. **Replay is per-notebook.** `replay_corpus` rounds act on notebooks
//!    independently and its [`RobustnessStats`] are purely additive, so
//!    replaying disjoint shards and merging stats in shard order equals
//!    one full-corpus sweep. A shard's dataset-repository delta contains
//!    every file/URL its notebooks can reference (basenames embed the
//!    notebook serial), so shard-scoped repair behaves identically too.
//!
//! Each replayed shard is spilled to a [`SampleStore`] and dropped from
//! memory; the manifest of completed shards makes a killed run resumable
//! from where it stopped, gated on a [`corpus_id`] so a store built for a
//! different configuration is never resumed into. Equivalence with the
//! in-memory path is pinned by `tests/streamed_replay_equivalence.rs`.

use crate::durable::{fnv64, ByteWriter};
use crate::faults::{FaultSpec, RobustnessStats};
use crate::nbgen::{corpus_jobs, generate_jobs, scenario_of, CorpusConfig};
use crate::replay::{ReplayConfig, ReplayEngine};
use crate::store::{ReportSkeleton, SampleStore};
use autosuggest_obs as obs;
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;

/// Streamed-replay knobs.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Notebook-generation jobs per shard. Peak RSS is proportional to
    /// this, not to corpus size.
    pub shard_size: usize,
    /// Stop (successfully) after replaying this many *new* shards —
    /// simulates a killed run for the resume tests.
    pub abort_after_shards: Option<usize>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig { shard_size: 256, abort_after_shards: None }
    }
}

/// What a streamed replay did.
#[derive(Debug, Clone)]
pub struct StreamSummary {
    /// Merged robustness accounting across all completed shards,
    /// identical to what one full in-memory `replay_corpus` would return.
    pub stats: RobustnessStats,
    pub total_shards: usize,
    /// Shards replayed by this run.
    pub shards_replayed: usize,
    /// Shards reused from the manifest (already complete on open).
    pub shards_resumed: usize,
    /// Reports across all completed shards.
    pub notebooks: usize,
    /// Invocation records across all completed shards.
    pub invocations: usize,
    /// True when `abort_after_shards` stopped the run early.
    pub aborted: bool,
}

/// Content-addressed identity of a streamed corpus: `cfg`'s generation
/// fields, the rendered fault spec and the replay budgets, in a fixed
/// encoding, so a store written under any different setting fails the
/// resume gate and is rebuilt while renaming a field moves nothing. The
/// destructuring is exhaustive, so a new setting must be encoded here.
pub fn corpus_id(cfg: &CorpusConfig, faults: Option<&FaultSpec>) -> String {
    let CorpusConfig { seed, join_notebooks: join, groupby_notebooks: groupby, pivot_notebooks: pivot,
        unpivot_notebooks: unpivot, json_notebooks: json, flow_notebooks: flow, plant_failures } = *cfg;
    let ReplayConfig { cell_row_budget, max_retries, max_notebook_rounds } = ReplayConfig::default();
    let mut w = ByteWriter::default();
    w.put_u64(seed);
    [join, groupby, pivot, unpivot, json, flow].into_iter().for_each(|n| w.put_usize(n));
    w.put_bool(plant_failures);
    w.put_str(&faults.map(FaultSpec::render).unwrap_or_default());
    [cell_row_budget, max_retries, max_notebook_rounds].into_iter().for_each(|n| w.put_usize(n));
    format!("{:016x}", fnv64(&w.into_bytes()))
}

/// Generate and replay `cfg`'s corpus shard by shard, spilling each shard's
/// reports into a [`SampleStore`] under `root`. Shards already present in a
/// compatible manifest are skipped (their stats come from the read that
/// verified them on open);
/// everything else is generated, replayed, written, and dropped — memory
/// holds at most one shard of notebooks and reports at a time.
pub fn replay_corpus_streamed(
    cfg: &CorpusConfig,
    faults: Option<FaultSpec>,
    root: impl Into<PathBuf>,
    opts: &StreamConfig,
) -> io::Result<(SampleStore, StreamSummary)> {
    let _span = obs::span("replay_streamed");
    let shard_size = opts.shard_size.max(1);
    let jobs = corpus_jobs(cfg);
    let total_shards = jobs.chunks(shard_size).count();
    let id = corpus_id(cfg, faults.as_ref());
    let mut store = SampleStore::open(root, &id, shard_size, total_shards)?;

    let mut summary = StreamSummary {
        stats: RobustnessStats::default(),
        total_shards,
        shards_replayed: 0,
        shards_resumed: 0,
        notebooks: 0,
        invocations: 0,
        aborted: false,
    };

    for (shard_id, chunk) in jobs.chunks(shard_size).enumerate() {
        if let Some(stats) = store.resumed_stats(shard_id) {
            summary.stats.merge_from(stats);
            if let Some(meta) = store.shard_meta(shard_id) {
                summary.notebooks += meta.notebooks;
                summary.invocations += meta.invocations;
            }
            summary.shards_resumed += 1;
            continue;
        }
        if let Some(limit) = opts.abort_after_shards {
            if summary.shards_replayed >= limit {
                summary.aborted = true;
                break;
            }
        }
        let generated = generate_jobs(cfg, chunk);
        let engine = ReplayEngine::new(generated.repository).with_faults(faults.clone());
        let (reports, stats) = engine.replay_corpus(&generated.notebooks);
        store.write_shard(shard_id, &reports, &stats)?;
        summary.stats.merge_from(&stats);
        summary.notebooks += reports.len();
        summary.invocations += reports.iter().map(|r| r.invocations.len()).sum::<usize>();
        summary.shards_replayed += 1;
    }

    obs::counter_add("stream.shards_replayed", summary.shards_replayed as u64);
    obs::counter_add("stream.notebooks", summary.notebooks as u64);
    Ok((store, summary))
}

/// Per-scenario (notebook archetype) replay accounting, streamed out of a
/// store one shard at a time — the wrangling-benchmark-style slice view
/// (accuracy should be reported per scenario, not only as corpus means).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScenarioStats {
    pub notebooks: usize,
    pub replayed_ok: usize,
    pub invocations: usize,
    pub cells_executed: usize,
    pub cell_retries: usize,
}

/// Scan every stored report and bucket counts by scenario, where the
/// scenario is the archetype embedded in the notebook id ([`scenario_of`];
/// anything unparseable buckets under "other"). Counts from the report
/// skeletons (`SampleStore::skeletons`): every shard byte is read and
/// verified, but no frame or invocation is decoded. Streaming: holds one
/// shard's skeletons at a time.
pub fn scan_scenario_stats(store: &SampleStore) -> io::Result<BTreeMap<String, ScenarioStats>> {
    let mut out: BTreeMap<String, ScenarioStats> = BTreeMap::new();
    for skeleton in store.skeletons() {
        let ReportSkeleton { report, invocations } = skeleton?;
        let scenario = scenario_of(&report.notebook_id).unwrap_or("other");
        let slot = out.entry(scenario.to_string()).or_default();
        slot.notebooks += 1;
        if matches!(report.outcome, crate::replay::ReplayOutcome::Success) {
            slot.replayed_ok += 1;
        }
        slot.invocations += invocations;
        slot.cells_executed += report.cells_executed;
        slot.cell_retries += report.cell_retries;
    }
    Ok(out)
}

/// Render scenario stats as a deterministic fixed-order text table — the
/// output `repro --corpus-scale` prints to stdout and CI byte-diffs across
/// thread counts and resume boundaries.
pub fn render_scenario_stats(stats: &BTreeMap<String, ScenarioStats>) -> String {
    let mut out = String::from(
        "scenario       notebooks  replayed_ok  invocations  cells_executed  cell_retries\n",
    );
    for (scenario, s) in stats {
        out.push_str(&format!(
            "{:<14} {:>9}  {:>11}  {:>11}  {:>14}  {:>12}\n",
            scenario, s.notebooks, s.replayed_ok, s.invocations, s.cells_executed, s.cell_retries,
        ));
    }
    let totals = stats.values().fold(ScenarioStats::default(), |mut acc, s| {
        acc.notebooks += s.notebooks;
        acc.replayed_ok += s.replayed_ok;
        acc.invocations += s.invocations;
        acc.cells_executed += s.cells_executed;
        acc.cell_retries += s.cell_retries;
        acc
    });
    out.push_str(&format!(
        "{:<14} {:>9}  {:>11}  {:>11}  {:>14}  {:>12}\n",
        "total",
        totals.notebooks,
        totals.replayed_ok,
        totals.invocations,
        totals.cells_executed,
        totals.cell_retries,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_id_is_sensitive_to_config_and_faults() {
        let a = CorpusConfig::small(1);
        let b = CorpusConfig::small(2);
        assert_ne!(corpus_id(&a, None), corpus_id(&b, None));
        let spec = FaultSpec::parse("seed=1;io=0.5").ok();
        assert_ne!(corpus_id(&a, None), corpus_id(&a, spec.as_ref()));
        assert_eq!(corpus_id(&a, None), corpus_id(&a, None));
        let unplanted = CorpusConfig { plant_failures: false, ..a.clone() };
        assert_ne!(corpus_id(&a, None), corpus_id(&unplanted, None));
    }

    /// The id is a fixed encoding of its inputs: renaming a field or
    /// changing a `Debug` rendering must not move it, and a new input must
    /// move it on purpose (update this literal and say so).
    #[test]
    fn corpus_id_is_pinned() {
        assert_eq!(corpus_id(&CorpusConfig::small(1), None), "064cbf6265421bf2");
    }

    /// A run killed after 2 shards and resumed reads each resumed shard
    /// file once (the verifying read on open) before the scan reads every
    /// shard once more.
    #[test]
    fn resumed_shards_are_read_once_before_the_scan() {
        let cfg = CorpusConfig {
            join_notebooks: 6,
            groupby_notebooks: 4,
            pivot_notebooks: 3,
            unpivot_notebooks: 2,
            json_notebooks: 2,
            flow_notebooks: 5,
            ..CorpusConfig::small(5)
        };
        let dir = std::env::temp_dir().join(format!("autosuggest-stream-reads-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = StreamConfig { shard_size: 4, abort_after_shards: Some(2) };
        replay_corpus_streamed(&cfg, None, &dir, &opts).expect("killed run");
        let opts = StreamConfig { abort_after_shards: None, ..opts };
        let ((store, summary), snap) = obs::with_local_registry(|| {
            replay_corpus_streamed(&cfg, None, &dir, &opts).expect("resumed run")
        });
        let reads = |snap: &obs::MetricsSnapshot| snap.counters.get("store.shard_reads").copied();
        assert_eq!((summary.shards_resumed, reads(&snap)), (2, Some(2)));
        assert!(summary.shards_replayed > 0);
        let (_, snap) = obs::with_local_registry(|| scan_scenario_stats(&store).expect("scan"));
        assert_eq!(reads(&snap), Some(summary.total_shards as u64));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
