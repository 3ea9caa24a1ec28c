//! The determinism checker: one workload run at 1 thread and at N
//! threads in-process, compared section by section.
//!
//! The evaluation tables are only comparable from run to run because
//! every layer is bit-identical at any thread count. [`check`] runs a
//! [`Workload`] twice through `set_thread_override`, each side under its
//! own local obs registry on a cold cache, and reports the first
//! [`Difference`] it finds, in this order:
//!
//! 1. `stdout`: what `repro` prints for the workload (the rendered tables,
//!    or the per-scenario replay stats in corpus-scale mode), by line;
//! 2. the structural sections, by JSON path: `replay` (one line per
//!    replayed notebook with its invocations' output hashes, the filter
//!    counts and the split sizes), `robustness` (replay failure and retry
//!    accounting), `rows` (every selected golden table's rows as f64 bit
//!    patterns), `scores` (trained-model scores on held-out cases, as bit
//!    patterns) and `trace` (the snapshot's deterministic section);
//! 3. `files`: in corpus-scale mode, every shard file and the manifest of
//!    the two sample stores, by byte offset.
//!
//! `repro --check-determinism N` and the determinism test files
//! (`tests/determinism_across_threads.rs`, `tests/trace_determinism.rs`,
//! `tests/determinism.rs`) call it.

use crate::tables::{self, ReproContext, GOLDEN_TABLES};
use autosuggest_core::nextop::NextOpPredictor;
use autosuggest_core::{AutoSuggest, AutoSuggestConfig};
use autosuggest_corpus::{CorpusConfig, FaultSpec, RobustnessStats, StreamConfig};
use autosuggest_obs as obs;
use autosuggest_parallel::set_thread_override;
use serde_json::{json, Map, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::Mutex;

/// What each side of a check runs.
pub enum Workload {
    /// Train `config` and evaluate `targets`, as `repro [--fast] <targets>`.
    Tables { config: AutoSuggestConfig, targets: Vec<String> },
    /// Stream-replay `corpus` into a fresh sample store and scan it back,
    /// as `repro --corpus-scale`.
    CorpusScale { corpus: CorpusConfig, faults: Option<FaultSpec>, shard_size: usize },
}

/// Everything one side of a check produced.
#[derive(Debug)]
pub struct Run {
    /// What `repro` prints on stdout for the workload.
    pub stdout: String,
    /// The structural sections (`replay`, `robustness`, `rows`, `scores`,
    /// `trace`), compared leaf by leaf.
    pub sections: Map,
    /// Corpus-scale mode: every file of the sample store, by relative path.
    pub files: BTreeMap<String, Vec<u8>>,
    /// The side's whole obs snapshot, timing included.
    pub snapshot: obs::MetricsSnapshot,
}

/// Where two runs first differ, with both sides' values there.
#[derive(Debug, PartialEq, Eq)]
pub struct Difference {
    /// `stdout line 12`, a JSON path such as `/trace/counters/cache.hits`,
    /// or `file shards/shard-00000.asg byte 100`.
    pub at: String,
    pub left: String,
    pub right: String,
}

impl fmt::Display for Difference {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} vs {}", self.at, self.left, self.right)
    }
}

/// Run `workload` at 1 thread and at `threads`: the 1-thread run when the
/// two agree, else the first difference.
pub fn check(workload: &Workload, threads: usize) -> Result<Run, Difference> {
    let single = run(workload, 1);
    match first_difference(&single, &run(workload, threads)) {
        None => Ok(single),
        Some(difference) => Err(difference),
    }
}

/// The thread override, the caches and the obs ambient are process-wide,
/// so runs never overlap.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

/// Run `workload` once at `threads` under a fresh local registry and a
/// cold cache.
pub fn run(workload: &Workload, threads: usize) -> Run {
    let _guard = EXCLUSIVE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    set_thread_override(Some(threads));
    autosuggest_cache::clear_memory();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match workload {
        Workload::Tables { config, targets } => run_tables(config.clone(), targets),
        Workload::CorpusScale { corpus, faults, shard_size } => {
            run_corpus_scale(corpus, faults.clone(), *shard_size, threads)
        }
    }));
    set_thread_override(None);
    outcome.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

fn run_tables(config: AutoSuggestConfig, targets: &[String]) -> Run {
    let ((ctx, stdout), snapshot) = obs::with_local_registry(|| {
        let _span = obs::span("repro");
        let ctx = ReproContext::build(config);
        let stdout = tables::evaluate(&ctx, targets);
        (ctx, stdout)
    });
    // Rows and scores re-run evaluators; their counters stay out of the trace.
    let (mut sections, _) = obs::with_local_registry(|| {
        let mut rows = Map::new();
        for (name, rows_fn) in GOLDEN_TABLES.iter().filter(|(n, _)| tables::selects(targets, n)) {
            let rendered = rows_fn(&ctx)
                .iter()
                .map(|r| json!({"method": r.method.clone(), "values": bit_patterns(&r.values)}))
                .collect();
            rows.insert(name.to_string(), Value::Array(rendered));
        }
        let mut sections = Map::new();
        sections.insert("rows".to_string(), Value::Object(rows));
        sections.insert("scores".to_string(), model_scores(&ctx.system));
        sections
    });
    sections.insert("replay".to_string(), replay_value(&ctx.system));
    sections.insert("robustness".to_string(), robustness_value(&ctx.system.robustness));
    sections.insert("trace".to_string(), snapshot.deterministic_value());
    Run { stdout, sections, files: BTreeMap::new(), snapshot }
}

fn run_corpus_scale(
    corpus: &CorpusConfig,
    faults: Option<FaultSpec>,
    shard_size: usize,
    threads: usize,
) -> Run {
    let root = std::env::temp_dir()
        .join(format!("autosuggest-determinism-{}-{threads}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let opts = StreamConfig { shard_size, abort_after_shards: None };
    let ((summary, stdout), snapshot) = obs::with_local_registry(|| {
        let (store, summary) =
            autosuggest_corpus::replay_corpus_streamed(corpus, faults, &root, &opts)
                .unwrap_or_else(|e| panic!("streamed replay into {}: {e}", root.display()));
        let stats = autosuggest_corpus::scan_scenario_stats(&store)
            .unwrap_or_else(|e| panic!("scanning {}: {e}", root.display()));
        (summary, autosuggest_corpus::stream::render_scenario_stats(&stats))
    });
    let mut files = BTreeMap::new();
    read_tree(&root, &root, &mut files)
        .unwrap_or_else(|e| panic!("reading {}: {e}", root.display()));
    let _ = std::fs::remove_dir_all(&root);
    let mut sections = Map::new();
    sections.insert("robustness".to_string(), robustness_value(&summary.stats));
    sections.insert("trace".to_string(), snapshot.deterministic_value());
    Run { stdout, sections, files, snapshot }
}

/// Every file under `dir`, keyed by its path relative to `root`.
fn read_tree(root: &Path, dir: &Path, files: &mut BTreeMap<String, Vec<u8>>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            read_tree(root, &path, files)?;
        } else {
            let name = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().into_owned();
            files.insert(name, std::fs::read(&path)?);
        }
    }
    Ok(())
}

/// Each value as its exact bit pattern, with the value for the reader.
fn bit_patterns(values: &[f64]) -> Value {
    let pattern = |v: &f64| Value::from(format!("{:016x} ({v})", v.to_bits()));
    Value::Array(values.iter().map(pattern).collect())
}

/// What replay, the filter and the split produced.
fn replay_value(system: &AutoSuggest) -> Value {
    let notebooks: Vec<Value> = system
        .reports
        .iter()
        .map(|r| {
            let outputs: Vec<String> = r
                .invocations
                .iter()
                .map(|i| format!("{:?}:{:016x}", i.op, i.output_hash))
                .collect();
            Value::from(format!(
                "{} {:?} cells={} retries={} injected={:?} {}",
                r.notebook_id,
                r.outcome,
                r.cells_executed,
                r.cell_retries,
                r.injected_faults,
                outputs.join(" "),
            ))
        })
        .collect();
    let test = &system.test;
    json!({
        "notebooks": Value::Array(notebooks),
        "filter": format!("{:?}", system.filter_stats),
        "test_split":
            [test.join.len(), test.groupby.len(), test.pivot.len(), test.melt.len(), test.nextop.len()],
    })
}

/// Scores of every trained model on held-out cases: join candidates and
/// GroupBy columns of the first five test cases, every next-op example's
/// single-operator table scores, and both next-op RNNs' rankings.
fn model_scores(system: &AutoSuggest) -> Value {
    let models = &system.models;
    let mut join = Vec::new();
    if let Some(model) = &models.join {
        for case in system.test.join.iter().take(5) {
            let (left, right) = (&case.inputs[0], &case.inputs[1]);
            let candidates = autosuggest_features::enumerate_join_candidates(left, right);
            join.push(bit_patterns(&model.scores(left, right, &candidates)));
        }
    }
    let mut groupby = Vec::new();
    if let Some(model) = &models.groupby {
        for df in system.test.groupby.iter().take(5).filter_map(|case| case.inputs.first()) {
            let scores: Vec<f64> = model.suggest(df).iter().map(|s| s.score).collect();
            groupby.push(bit_patterns(&scores));
        }
    }
    let nextop: Vec<Value> = system
        .test
        .nextop
        .iter()
        .map(|e| {
            let ranked =
                |m: &NextOpPredictor| format!("{:?}", m.predict_ranked(&e.prefix, &e.table_scores));
            json!({
                "table_scores": bit_patterns(&e.table_scores),
                "full": ranked(&models.nextop_full),
                "rnn_only": ranked(&models.nextop_rnn_only),
            })
        })
        .collect();
    json!({"join": join, "groupby": groupby, "nextop": nextop})
}

/// The robustness accounting under its `replay.*` trace names.
fn robustness_value(stats: &RobustnessStats) -> Value {
    let (_, snapshot) = obs::with_local_registry(|| stats.record_obs());
    let counters = snapshot.deterministic_value().get("counters").cloned();
    json!({"fault_spec": stats.fault_spec.clone(), "counters": counters})
}

/// The first difference between two runs: stdout by line, then the
/// sections by JSON path, then the store files by byte offset.
pub fn first_difference(left: &Run, right: &Run) -> Option<Difference> {
    let sections = |run: &Run| Value::Object(run.sections.clone());
    stdout_difference(&left.stdout, &right.stdout)
        .or_else(|| json_difference("", &sections(left), &sections(right)))
        .or_else(|| files_difference(&left.files, &right.files))
}

fn stdout_difference(left: &str, right: &str) -> Option<Difference> {
    let (l, r): (Vec<&str>, Vec<&str>) = (left.lines().collect(), right.lines().collect());
    let i = (0..l.len().max(r.len())).find(|&i| l.get(i) != r.get(i))?;
    let show = |s: Option<&&str>| s.map_or("end of output".to_string(), |s| format!("{s:?}"));
    Some(Difference {
        at: format!("stdout line {}", i + 1),
        left: show(l.get(i)),
        right: show(r.get(i)),
    })
}

/// Leaves compare by their rendering, the bytes a trace file would hold.
fn json_difference(path: &str, left: &Value, right: &Value) -> Option<Difference> {
    let show = |v: Option<&Value>| v.map_or("absent".to_string(), Value::to_string);
    match (left, right) {
        (Value::Object(l), Value::Object(r)) => {
            let keys: BTreeSet<&String> = l.keys().chain(r.keys()).collect();
            keys.into_iter().find_map(|k| {
                let at = format!("{path}/{k}");
                match (l.get(k), r.get(k)) {
                    (Some(a), Some(b)) => json_difference(&at, a, b),
                    (a, b) => Some(Difference { at, left: show(a), right: show(b) }),
                }
            })
        }
        (Value::Array(l), Value::Array(r)) => (0..l.len().max(r.len())).find_map(|i| {
            let at = format!("{path}/{i}");
            match (l.get(i), r.get(i)) {
                (Some(a), Some(b)) => json_difference(&at, a, b),
                (a, b) => Some(Difference { at, left: show(a), right: show(b) }),
            }
        }),
        _ if left.to_string() == right.to_string() => None,
        _ => Some(Difference {
            at: path.to_string(),
            left: show(Some(left)),
            right: show(Some(right)),
        }),
    }
}

fn files_difference(
    left: &BTreeMap<String, Vec<u8>>,
    right: &BTreeMap<String, Vec<u8>>,
) -> Option<Difference> {
    let names: BTreeSet<&String> = left.keys().chain(right.keys()).collect();
    names.into_iter().find_map(|name| {
        let size =
            |f: Option<&Vec<u8>>| f.map_or("absent".to_string(), |b| format!("{} bytes", b.len()));
        match (left.get(name), right.get(name)) {
            (Some(a), Some(b)) => {
                let offset = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i))?;
                let byte = |f: &[u8]| {
                    f.get(offset).map_or("end of file".to_string(), |v| format!("{v:#04x}"))
                };
                Some(Difference {
                    at: format!("file {name} byte {offset}"),
                    left: byte(a),
                    right: byte(b),
                })
            }
            (a, b) => {
                Some(Difference { at: format!("file {name}"), left: size(a), right: size(b) })
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run whose `cache.hits` counter, Table 4 cell and first shard's
    /// last byte are the given values.
    fn run(hits: u64, cell: f64, byte: u8) -> Run {
        let mut sections = Map::new();
        sections.insert(
            "trace".to_string(),
            json!({
                "counters": {"cache.hits": hits, "gbdt.fits": 3},
                "gauges": {"importance.join.left-ness": 0.25},
            }),
        );
        sections.insert(
            "rows".to_string(),
            json!({"table4": [{"method": "left-ness", "values": bit_patterns(&[0.25, cell])}]}),
        );
        let mut files = BTreeMap::new();
        files.insert("manifest.json".to_string(), b"{\"version\":2}".to_vec());
        files.insert("shards/shard-00000.asg".to_string(), vec![0x41, 0x53, 0x47, 0x53, 0, byte]);
        Run {
            stdout: format!("== Table 4 ==\nleft-ness {cell:>10.3}\n"),
            sections,
            files,
            snapshot: obs::MetricsSnapshot::default(),
        }
    }

    fn base() -> Run {
        run(12, 0.5, 3)
    }

    #[test]
    fn each_report_names_the_difference() {
        assert_eq!(first_difference(&base(), &base()), None);

        let diff = first_difference(&base(), &run(13, 0.5, 3)).expect("counter difference");
        assert_eq!(diff.to_string(), "/trace/counters/cache.hits: 12 vs 13");

        // A table cell moves the printed line first...
        let diff = first_difference(&base(), &run(12, 0.625, 3)).expect("cell difference");
        let (was, is) = ("\"left-ness      0.500\"", "\"left-ness      0.625\"");
        assert_eq!(diff.to_string(), format!("stdout line 2: {was} vs {is}"));
        // ...and a move below the printed precision still shows in the row bits.
        let diff = first_difference(&base(), &run(12, 0.5000000000000001, 3)).expect("bits");
        assert_eq!(diff.at, "/rows/table4/0/values/1");
        assert!(diff.left.starts_with("\"3fe0000000000000"), "{diff}");
        assert!(diff.right.starts_with("\"3fe0000000000001"), "{diff}");

        let diff = first_difference(&base(), &run(12, 0.5, 2)).expect("store byte difference");
        assert_eq!(diff.to_string(), "file shards/shard-00000.asg byte 5: 0x03 vs 0x02");
    }

    #[test]
    fn missing_keys_files_and_lines_are_differences() {
        let differs = |edit: fn(&mut Run)| {
            let mut other = base();
            edit(&mut other);
            first_difference(&base(), &other).expect("a difference").to_string()
        };
        assert_eq!(
            differs(|r| {
                r.sections.insert(
                    "trace".to_string(),
                    json!({"counters": {"cache.hits": 12, "gbdt.fits": 3}}),
                );
            }),
            "/trace/gauges: {\"importance.join.left-ness\":0.25} vs absent"
        );
        assert_eq!(
            differs(|r| r.stdout.push_str("extra\n")),
            "stdout line 3: end of output vs \"extra\""
        );
        assert_eq!(
            differs(|r| drop(r.files.remove("manifest.json"))),
            "file manifest.json: 13 bytes vs absent"
        );
        assert_eq!(
            differs(|r| r.files.get_mut("manifest.json").unwrap().push(b'\n')),
            "file manifest.json byte 13: end of file vs 0x0a"
        );
    }
}
