//! The observability layer's core contract: the deterministic section of a
//! metrics snapshot — counters, non-timing gauges, and the span tree with
//! call counts — is bit-identical at any thread count. Only the timing
//! section (histograms over wall-clock, span nanos) may vary.
//!
//! The determinism checker (`autosuggest_bench::determinism`) trains and
//! evaluates the fast configuration under an isolated local registry at 1
//! thread and at 4 and compares the deterministic section by JSON path.

use auto_suggest::core::AutoSuggestConfig;
use auto_suggest::obs;
use autosuggest_bench::determinism::{self, Run, Workload};
use autosuggest_bench::tables::GOLDEN_TABLES;
use serde_json::Value;
use std::sync::OnceLock;

/// The fast configuration without fault injection, checked at 1 vs 4
/// threads once per binary.
fn clean() -> &'static Run {
    static CLEAN: OnceLock<Run> = OnceLock::new();
    CLEAN.get_or_init(|| {
        let config = AutoSuggestConfig::fast(7);
        let targets = GOLDEN_TABLES.iter().map(|(name, _)| name.to_string()).collect();
        determinism::check(&Workload::Tables { config, targets }, 4)
            .unwrap_or_else(|diff| panic!("1 and 4 threads differ at {diff}"))
    })
}

/// Whether the span tree of the deterministic section has a span `name`.
fn has_span(node: &Value, name: &str) -> bool {
    node.get("children")
        .and_then(Value::as_object)
        .is_some_and(|kids| kids.iter().any(|(k, child)| k == name || has_span(child, name)))
}

#[test]
fn deterministic_trace_section_is_bit_identical_across_thread_counts() {
    let trace = &clean().sections["trace"];
    let counters = trace.get("counters").and_then(Value::as_object);
    assert!(counters.is_some_and(|c| !c.is_empty()), "no counters in {trace}");
    assert!(trace.get("spans").is_some(), "no span tree in {trace}");
}

#[test]
fn trace_covers_the_pipeline_and_separates_timing() {
    let run = clean();
    let trace = &run.sections["trace"];
    // The span tree must cover the training and evaluation stages...
    for span in
        ["train", "generate_corpus", "replay", "filter_and_split", "train_predictors", "evaluate"]
    {
        assert!(trace.get("spans").is_some_and(|s| has_span(s, span)), "span {span} missing");
    }
    // ...and the headline counters must be present and nonzero.
    for name in [
        "corpus.notebooks_generated",
        "replay.cells_executed",
        "gbdt.fits",
        "cache.hits",
        "nextop.tables_scored",
        "nextop.tables_distinct",
    ] {
        let count = run.snapshot.counters.get(name).copied().unwrap_or(0);
        assert!(count > 0, "counter {name} missing or zero");
    }
    // Wall-clock measurements live only in the timing section.
    let (det, timing) = (trace.to_string(), run.snapshot.timing_value().to_string());
    for histo in ["pipeline.", "replay.notebook_seconds", "gbdt.split_scan_seconds"] {
        assert!(timing.contains(histo), "timing histogram {histo} missing");
        assert!(!det.contains(histo), "{histo} leaked into the deterministic view");
    }
    // The registry was local: the process-global snapshot is untouched.
    assert!(!obs::snapshot().counters.contains_key("gbdt.fits"));
}

#[test]
fn local_registries_isolate_concurrent_measurements() {
    // Two nested local registries must not bleed counters into each other
    // or into the global registry.
    let (_, outer) = obs::with_local_registry(|| {
        obs::counter_add("outer.only", 1);
        let (_, inner) = obs::with_local_registry(|| {
            obs::counter_add("inner.only", 1);
        });
        assert!(inner.counters.contains_key("inner.only"));
        assert!(!inner.counters.contains_key("outer.only"));
    });
    assert!(outer.counters.contains_key("outer.only"));
    assert!(!outer.counters.contains_key("inner.only"));
    assert!(!obs::snapshot().counters.contains_key("outer.only"));
    assert!(!obs::snapshot().counters.contains_key("inner.only"));
}
