//! The parallel runtime's core contract: every result is bit-identical
//! regardless of thread count. The determinism checker
//! (`autosuggest_bench::determinism`) trains and evaluates the fast
//! configuration at 1 thread and at 4 — corpus generation, replay
//! fan-out, GBDT split scans and prediction batching, candidate
//! enumeration — and compares every replay log line, trained-model score,
//! golden row and robustness counter exactly, clean and under seeded
//! fault injection. It switches the thread width in-process through
//! `set_thread_override` and serialises its runs.

use auto_suggest::core::AutoSuggestConfig;
use auto_suggest::corpus::FaultSpec;
use autosuggest_bench::determinism::{self, Run, Workload};
use autosuggest_bench::tables::GOLDEN_TABLES;
use serde_json::Value;
use std::sync::OnceLock;

/// The fast configuration under the fault spec `faults` (a rate-free one
/// injects nothing); every golden table.
fn fast_tables(seed: u64, faults: &str) -> Workload {
    let mut config = AutoSuggestConfig::fast(seed);
    config.faults = Some(FaultSpec::parse(faults).expect("valid fault spec"));
    let targets = GOLDEN_TABLES.iter().map(|(name, _)| name.to_string()).collect();
    Workload::Tables { config, targets }
}

fn checked(workload: &Workload) -> Run {
    determinism::check(workload, 4).unwrap_or_else(|diff| panic!("1 and 4 threads differ at {diff}"))
}

/// One clean check, shared by the tests that read its replay and score
/// sections.
fn clean() -> &'static Run {
    static CLEAN: OnceLock<Run> = OnceLock::new();
    // A rate-free spec: injection off.
    CLEAN.get_or_init(|| checked(&fast_tables(9, "seed=0")))
}

fn non_empty(section: &Value, key: &str) -> bool {
    section.get(key).and_then(Value::as_array).is_some_and(|a| !a.is_empty())
}

#[test]
fn replay_logs_are_bit_identical_across_thread_counts() {
    let replay = &clean().sections["replay"];
    let notebooks = replay.get("notebooks").and_then(Value::as_array).expect("replay log");
    let mut lines = notebooks.iter().filter_map(Value::as_str);
    // Each invocation is logged as `Op:outputhash`.
    assert!(lines.any(|line| line.contains(':')), "no invocation output hashes in the log");
}

#[test]
fn trained_models_are_bit_identical_across_thread_counts() {
    let scores = &clean().sections["scores"];
    for model in ["join", "groupby", "nextop"] {
        assert!(non_empty(scores, model), "no {model} scores");
    }
    let rows = clean().sections["rows"].as_object().expect("golden rows");
    assert_eq!(rows.len(), GOLDEN_TABLES.len());
}

#[test]
fn fault_injection_is_deterministic_across_thread_counts() {
    let run = checked(&fast_tables(7, "panic=0.08,io=0.06,timeout=0.05,seed=11,transient=0.5"));
    let counters = &run.snapshot.counters;
    let injected: u64 = counters
        .iter()
        .filter(|(name, _)| name.starts_with("replay.faults.") && name.ends_with(".injected"))
        .map(|(_, n)| n)
        .sum();
    assert!(injected > 0, "the fault spec injected nothing");
    assert!(counters.get("replay.cell_retries").copied().unwrap_or(0) > 0);
}
