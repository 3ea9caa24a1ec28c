//! The parallel runtime's core contract: every result is bit-identical
//! regardless of thread count. This exercises the full stack — corpus
//! generation, replay fan-out, GBDT split scans and prediction batching,
//! candidate enumeration — at 1 thread vs 4 and compares outputs exactly.
//!
//! Thread width is switched in-process via `set_thread_override` (the
//! `AUTOSUGGEST_THREADS` env var is read once per process, so an env-based
//! sweep would need subprocesses).

use auto_suggest::core::{AutoSuggest, AutoSuggestConfig};
use auto_suggest::corpus::{CorpusConfig, CorpusGenerator, FaultSpec, ReplayEngine};
use auto_suggest::parallel::set_thread_override;
use std::sync::Mutex;

/// The thread override is process-global, so tests that sweep it must not
/// overlap (cargo runs `#[test]`s concurrently by default).
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Compact, fully-ordered textual log of one replay sweep.
fn replay_fingerprint(threads: usize) -> String {
    set_thread_override(Some(threads));
    let corpus = CorpusGenerator::new(CorpusConfig::small(9)).generate();
    let engine = ReplayEngine::new(corpus.repository.clone());
    let mut log = String::new();
    for nb in &corpus.notebooks {
        let report = engine.replay(nb);
        log.push_str(&format!(
            "{} {:?} cells={} inv={}\n",
            nb.id,
            report.outcome,
            report.cells_executed,
            report.invocations.len(),
        ));
        for inv in &report.invocations {
            log.push_str(&format!(
                "  {:?} in={:?} out={}x{} hash={:016x}\n",
                inv.op,
                inv.inputs.iter().map(|d| (d.num_rows(), d.num_columns())).collect::<Vec<_>>(),
                inv.output_rows,
                inv.output_cols,
                inv.output_hash,
            ));
        }
    }
    set_thread_override(None);
    log
}

#[test]
fn replay_logs_are_bit_identical_across_thread_counts() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let one = replay_fingerprint(1);
    let four = replay_fingerprint(4);
    assert!(!one.is_empty());
    assert_eq!(one, four, "replay diverged between 1 and 4 threads");
}

/// Train the full fast pipeline and fingerprint every learned artefact
/// that could be perturbed by a non-deterministic reduction: GBDT scores
/// on held-out cases, next-op table scores and rankings, and the
/// test-split composition itself.
fn pipeline_fingerprint(threads: usize) -> String {
    set_thread_override(Some(threads));
    let system = AutoSuggest::train(AutoSuggestConfig::fast(7));
    let mut log = format!(
        "splits join={} groupby={} pivot={} melt={} nextop={}\n",
        system.test.join.len(),
        system.test.groupby.len(),
        system.test.pivot.len(),
        system.test.melt.len(),
        system.test.nextop.len(),
    );
    if let Some(join) = &system.models.join {
        for case in system.test.join.iter().take(5) {
            let cands = auto_suggest::features::enumerate_join_candidates(
                &case.inputs[0],
                &case.inputs[1],
                join.candidate_params(),
            );
            log.push_str(&format!("cands={}\n", cands.len()));
            for c in cands.iter().take(20) {
                // Full bit pattern: the exact f64, not a rounded rendering.
                let score = join.score(&case.inputs[0], &case.inputs[1], c);
                log.push_str(&format!(
                    "  {:?}/{:?} {:016x}\n",
                    c.left_cols,
                    c.right_cols,
                    score.to_bits()
                ));
            }
        }
    }
    if let Some(gb) = &system.models.groupby {
        for case in system.test.groupby.iter().take(5) {
            if let Some(df) = case.inputs.first() {
                for s in gb.suggest(df) {
                    log.push_str(&format!("gb {} {:016x}\n", s.column, s.score.to_bits()));
                }
            }
        }
    }
    // Next-op artefacts: the memoised table scores of every held-out
    // example, and the rankings of the RNN pair trained side by side.
    for e in &system.test.nextop {
        log.push_str(&format!("nextop {:?} {}", e.prefix, e.label));
        for s in &e.table_scores {
            log.push_str(&format!(" {:016x}", s.to_bits()));
        }
        log.push('\n');
    }
    for e in system.test.nextop.iter().take(20) {
        log.push_str(&format!(
            "ranked full={:?} rnn_only={:?}\n",
            system.models.nextop_full.predict_ranked(&e.prefix, &e.table_scores),
            system.models.nextop_rnn_only.predict_ranked(&e.prefix, &e.table_scores),
        ));
    }
    set_thread_override(None);
    log
}

#[test]
fn trained_models_are_bit_identical_across_thread_counts() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let one = pipeline_fingerprint(1);
    let four = pipeline_fingerprint(4);
    assert!(one.contains("splits"));
    assert_eq!(one, four, "trained pipeline diverged between 1 and 4 threads");
}

/// Full quarantine-with-retry sweep under seeded fault injection: replay
/// logs, injected-fault traces, retry counters, and quarantine lists must
/// all be pure functions of the spec, never of scheduling.
fn fault_injection_fingerprint(threads: usize) -> String {
    set_thread_override(Some(threads));
    let spec = FaultSpec::parse("panic=0.08,io=0.06,timeout=0.05,seed=11,transient=0.5")
        .expect("valid spec");
    let corpus = CorpusGenerator::new(CorpusConfig::small(9)).generate();
    let engine = ReplayEngine::new(corpus.repository.clone()).with_faults(Some(spec));
    let (reports, stats) = engine.replay_corpus(&corpus.notebooks);
    assert_eq!(reports.len(), corpus.notebooks.len());
    assert!(stats.total_injected() > 0, "spec injected nothing");
    let mut log = String::new();
    for r in &reports {
        log.push_str(&format!(
            "{} {:?} cells={} inv={} retries={} injected={:?}\n",
            r.notebook_id,
            r.outcome,
            r.cells_executed,
            r.invocations.len(),
            r.cell_retries,
            r.injected_faults,
        ));
    }
    log.push_str(&format!("{stats:?}\n"));
    set_thread_override(None);
    log
}

#[test]
fn fault_injection_is_deterministic_across_thread_counts() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let one = fault_injection_fingerprint(1);
    let four = fault_injection_fingerprint(4);
    assert!(one.contains("injected"));
    assert_eq!(
        one, four,
        "fault-injected replay diverged between 1 and 4 threads"
    );
}
