//! Cross-crate replay integration: corpus → replay → filter → split.

use auto_suggest::corpus::durable::fnv64;
use auto_suggest::corpus::{
    filter_invocations, grouped_split, CorpusConfig, CorpusGenerator, FaultSpec, OpKind,
    ReplayEngine, ReplayOutcome,
};
use std::sync::Arc;

#[test]
fn corpus_replay_filter_split_pipeline() {
    let cfg = CorpusConfig::small(101);
    let corpus = CorpusGenerator::new(cfg).generate();
    let engine = ReplayEngine::new(corpus.repository.clone());

    let mut invocations = Vec::new();
    let mut successes = 0;
    let mut recovered_files = 0;
    let mut installed_packages = 0;
    for nb in &corpus.notebooks {
        let report = engine.replay(nb);
        if report.outcome == ReplayOutcome::Success {
            successes += 1;
        }
        recovered_files += report.files_recovered.len();
        installed_packages += report.packages_installed.len();
        invocations.extend(report.invocations);
    }
    // The repair machinery must actually fire on a planted-failure corpus.
    assert!(recovered_files > 10, "file repairs: {recovered_files}");
    assert!(installed_packages > 5, "package installs: {installed_packages}");
    assert!(successes > corpus.notebooks.len() / 4);

    let total = invocations.len();
    let (filtered, stats) = filter_invocations(invocations, 5);
    assert_eq!(stats.total, total);
    assert_eq!(stats.kept, filtered.len());
    assert!(stats.dropped_duplicate > 0, "loop-duplicates must be planted and dropped");
    assert_eq!(
        stats.kept + stats.dropped_duplicate + stats.dropped_tiny,
        stats.total
    );

    // Every operator class appears post-filtering.
    for op in [OpKind::Merge, OpKind::GroupBy, OpKind::Pivot, OpKind::Melt] {
        assert!(
            filtered.iter().any(|i| i.op == op),
            "no {op} invocations survived filtering"
        );
    }

    // Grouped split keeps dataset groups intact.
    let split = grouped_split(&filtered, |i| i.dataset_group.as_str(), 0.2, 3);
    let test_groups: std::collections::HashSet<&str> = split
        .test
        .iter()
        .map(|&i| filtered[i].dataset_group.as_str())
        .collect();
    for &i in &split.train {
        assert!(!test_groups.contains(filtered[i].dataset_group.as_str()));
    }
}

/// Replay hashes each frame once and shares it between its readers, with
/// faults on so retried cells are covered: every logged input hash is its
/// frame's content hash, and every hash is the one the deep-copying replay
/// logged.
#[test]
fn logged_hashes_match_their_shared_frames_under_faults() {
    let corpus = CorpusGenerator::new(CorpusConfig::small(404)).generate();
    let faults = FaultSpec::parse("seed=7,panic=0.15,io=0.15").unwrap();
    let engine = ReplayEngine::new(corpus.repository.clone()).with_faults(Some(faults));
    let (reports, stats) = engine.replay_corpus(&corpus.notebooks);
    assert!(stats.cell_retries > 0 && stats.total_injected() > 0);

    let mut digest = Vec::new();
    let (mut invocations, mut shared) = (0, 0);
    for report in &reports {
        for (k, inv) in report.invocations.iter().enumerate() {
            invocations += 1;
            assert_eq!(inv.input_hashes.len(), inv.inputs.len());
            let at = format!("{} cell {}", inv.notebook_id, inv.cell_index);
            for (&hash, frame) in inv.input_hashes.iter().zip(&inv.inputs) {
                assert_eq!(hash, frame.content_hash(), "{at}");
                digest.extend(hash.to_le_bytes());
                let mut earlier = report.invocations[..k].iter().flat_map(|i| &i.inputs);
                shared += earlier.any(|f| Arc::ptr_eq(f, frame)) as usize;
            }
            digest.extend(inv.output_hash.to_le_bytes());
        }
    }
    assert_eq!(invocations, 112);
    assert!(shared > 0, "no invocation shares a frame with an earlier reader");
    // Recorded from the replay that deep-copied every input.
    assert_eq!(fnv64(&digest), 0x0953_1de6_74d9_b071);
}

#[test]
fn replay_is_deterministic() {
    let corpus = CorpusGenerator::new(CorpusConfig::small(202)).generate();
    let engine = ReplayEngine::new(corpus.repository.clone());
    for nb in corpus.notebooks.iter().take(20) {
        let a = engine.replay(nb);
        let b = engine.replay(nb);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.invocations.len(), b.invocations.len());
        for (x, y) in a.invocations.iter().zip(&b.invocations) {
            assert_eq!(x.output_hash, y.output_hash);
        }
    }
}

#[test]
fn flow_graphs_capture_multi_step_pipelines() {
    let mut cfg = CorpusConfig::small(303);
    cfg.plant_failures = false;
    let corpus = CorpusGenerator::new(cfg).generate();
    let engine = ReplayEngine::new(corpus.repository.clone());
    let mut max_len = 0;
    let mut with_sources = 0;
    for nb in &corpus.notebooks {
        let report = engine.replay(nb);
        let seq = report.flow.op_sequence();
        max_len = max_len.max(seq.len());
        if !report.flow.source_frames().is_empty() {
            with_sources += 1;
        }
    }
    assert!(max_len >= 3, "longest pipeline {max_len}");
    assert!(with_sources > corpus.notebooks.len() / 2);
}
