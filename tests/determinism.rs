//! Full-pipeline determinism: identical seeds must yield identical trained
//! systems — a hard requirement for reproducible evaluation tables. The
//! determinism checker (`autosuggest_bench::determinism`) does the
//! comparison: every printed table, golden row, trained-model score,
//! replay log line, robustness counter and deterministic trace entry.
//! Agreement across thread counts is pinned by
//! `tests/determinism_across_threads.rs` and `tests/trace_determinism.rs`.

use auto_suggest::core::AutoSuggestConfig;
use auto_suggest::corpus::{CorpusConfig, FaultSpec};
use autosuggest_bench::determinism::{self, Workload};
use autosuggest_bench::tables::GOLDEN_TABLES;

#[test]
fn same_seed_same_models_and_data() {
    let mut config = AutoSuggestConfig::fast(55);
    // A rate-free spec: injection off whatever `AUTOSUGGEST_FAULTS` says.
    config.faults = Some(FaultSpec::parse("seed=0").expect("valid fault spec"));
    let targets = GOLDEN_TABLES.iter().map(|(name, _)| name.to_string()).collect();
    let workload = Workload::Tables { config, targets };
    let (a, b) = (determinism::run(&workload, 1), determinism::run(&workload, 1));
    assert!(!a.stdout.is_empty());
    if let Some(diff) = determinism::first_difference(&a, &b) {
        panic!("two runs of one seed differ at {diff}");
    }
}

#[test]
fn different_seeds_differ() {
    // Paranoia against seed plumbing bugs: the checker must see two
    // corpora, not one. Replaying them is enough; nothing is trained.
    let corpus = |seed| Workload::CorpusScale {
        corpus: CorpusConfig::small(seed),
        faults: None,
        shard_size: 64,
    };
    let a = determinism::run(&corpus(1), 1);
    let b = determinism::run(&corpus(2), 1);
    assert!(determinism::first_difference(&a, &b).is_some());
    assert_ne!(a.files, b.files, "two seeds stored the same shards");
}
