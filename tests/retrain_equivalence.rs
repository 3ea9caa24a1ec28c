//! Equivalence suite for incremental retraining.
//!
//! The load-bearing claim: `AutoSuggest::retrain(&prev, union_config)` is
//! **bit-for-bit identical** to `AutoSuggest::train(union_config)` —
//! every served suggestion, every next-op ranking — while replaying only
//! the notebooks the previous snapshot has not seen. The suite pins that
//! incremental retrain ≡ full union training (suggestion fingerprints
//! bitwise), that the empty delta carries every model and replays
//! nothing, that fingerprints are thread-count-invariant, and that a
//! seeded property loop over random base/delta splits never finds a
//! divergence.

use auto_suggest::core::wire;
use auto_suggest::core::{AutoSuggest, AutoSuggestConfig, SuggestRequest};
use auto_suggest::dataframe::{DataFrame, Value as Cell};
use auto_suggest::parallel::set_thread_override;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// The thread override is process-global; tests that sweep it serialise.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// A corpus sized for many trainings per test: big enough that every model
/// family trains, small enough for debug builds.
fn tiny_config(seed: u64) -> AutoSuggestConfig {
    let mut config = AutoSuggestConfig::fast(seed);
    config.corpus.join_notebooks = 12;
    config.corpus.groupby_notebooks = 10;
    config.corpus.pivot_notebooks = 10;
    config.corpus.unpivot_notebooks = 6;
    config.corpus.json_notebooks = 3;
    config.corpus.flow_notebooks = 12;
    config.gbdt.n_trees = 12;
    config.nextop.epochs = 6;
    config
}

/// `base` grown by new notebooks in two archetypes (join feeds the single
/// -operator models, flow feeds next-op sequences).
fn grown_config(base: &AutoSuggestConfig) -> AutoSuggestConfig {
    let mut union = base.clone();
    union.corpus.join_notebooks += 4;
    union.corpus.flow_notebooks += 5;
    union
}

fn probe_tables() -> (DataFrame, DataFrame, DataFrame, DataFrame) {
    let customers = DataFrame::from_columns(vec![
        ("customer_id", (0..24).map(Cell::Int).collect()),
        (
            "segment",
            (0..24).map(|i| Cell::Str(["retail", "wholesale"][i % 2].to_string())).collect(),
        ),
        ("balance", (0..24).map(|i| Cell::Float(i as f64 * 1.5)).collect()),
    ])
    .unwrap();
    let orders = DataFrame::from_columns(vec![
        ("customer_id", (0..24).map(|i| Cell::Int(i % 8)).collect()),
        ("total", (0..24).map(|i| Cell::Float(100.0 + i as f64)).collect()),
    ])
    .unwrap();
    let sales = DataFrame::from_columns(vec![
        ("region", (0..32).map(|i| Cell::Str(["n", "s", "e", "w"][i % 4].to_string())).collect()),
        ("year", (0..32).map(|i| Cell::Int(2020 + (i as i64 % 3))).collect()),
        ("revenue", (0..32).map(|i| Cell::Float(i as f64 * 7.25)).collect()),
    ])
    .unwrap();
    let wide = DataFrame::from_columns(vec![
        ("id", (0..16).map(Cell::Int).collect()),
        ("q1", (0..16).map(|i| Cell::Float(i as f64)).collect()),
        ("q2", (0..16).map(|i| Cell::Float(i as f64 + 0.5)).collect()),
    ])
    .unwrap();
    (customers, orders, sales, wide)
}

/// Bitwise fingerprint of a system's *served behaviour*: wire renderings
/// of every suggestion kind plus next-op rankings over fixed prefixes.
fn fingerprint(system: &AutoSuggest) -> Vec<String> {
    let (customers, orders, sales, wide) = probe_tables();
    let requests = [
        SuggestRequest::Join { left: &customers, right: &orders, top_k: 3 },
        SuggestRequest::GroupBy { table: &sales },
        SuggestRequest::Pivot { table: &sales, dims: &[0, 1] },
        SuggestRequest::Unpivot { table: &wide },
    ];
    let mut parts: Vec<String> = requests
        .iter()
        .map(|r| wire::encode_response(&system.suggest(r)).to_string())
        .collect();
    let scores = [0.4, 0.1, 0.0, 0.8, 0.2, 0.6, 0.3];
    for prefix in [&[][..], &[3][..], &[3, 6][..], &[0, 1, 5][..]] {
        parts.push(format!("{:?}", system.models.nextop_full.predict_ranked(prefix, &scores)));
        parts.push(format!("{:?}", system.models.nextop_rnn_only.predict_ranked(prefix, &scores)));
    }
    parts
}

#[test]
fn incremental_retrain_is_bitwise_equal_to_full_union_training() {
    // Join-only growth: new join notebooks add Merge invocations but touch
    // no groupby/pivot/melt training input, so those families must be
    // carried — and with the scoring models carried, every old report's
    // next-op examples are lifted instead of re-scored.
    let base = tiny_config(23);
    let mut union = base.clone();
    union.corpus.join_notebooks += 5;
    let prev = AutoSuggest::train(base);
    let full = AutoSuggest::train(union.clone());
    let (inc, report) = AutoSuggest::retrain(&prev, union);

    assert!(!report.full_replay_fallback, "reuse gates should pass on a pure growth");
    // Only the notebooks absent from the previous corpus replay (the grown
    // ordinals, plus any probabilistic companion notebooks they spawn).
    assert_eq!(
        report.delta.replayed_notebooks,
        report.delta.union_notebooks - report.delta.prev_notebooks,
        "delta accounting"
    );
    assert!(report.delta.replayed_notebooks >= 5);
    assert!(report.delta.replayed_notebooks < report.delta.union_notebooks / 2);
    assert_eq!(report.delta.reused_reports, prev.reports.len());
    // Join inputs changed → the join families retrain. (Other families may
    // retrain too: join notebooks probabilistically carry enrichment cells
    // of other operators, and the analysis must notice exactly that.)
    assert!(report.rebuilt.contains(&"join"), "rebuilt: {:?}", report.rebuilt);
    assert!(report.rebuilt.contains(&"join_type"), "rebuilt: {:?}", report.rebuilt);
    assert!(!report.carried.is_empty(), "nothing carried on a join-only growth");

    assert!(inc.models.join.is_some() && inc.models.groupby.is_some());
    assert_eq!(fingerprint(&inc), fingerprint(&full), "served suggestions diverged");
    // The merged bookkeeping matches the full run too.
    assert_eq!(inc.reports.len(), full.reports.len());
    assert_eq!(inc.train.nextop.len(), full.train.nextop.len());
    assert_eq!(inc.robustness, full.robustness);
}

#[test]
fn pure_growth_without_training_input_shift_carries_every_model() {
    // Json notebooks contain only `json_normalize` invocations — no
    // trained family's input and no next-op sequence. Growing them is the
    // cleanest incremental case: new notebooks replay, every model (and
    // every already-scored next-op example) is carried.
    let base = tiny_config(37);
    let mut union = base.clone();
    union.corpus.json_notebooks += 4;
    let prev = AutoSuggest::train(base);
    let full = AutoSuggest::train(union.clone());
    let (inc, report) = AutoSuggest::retrain(&prev, union);

    assert!(!report.full_replay_fallback);
    assert!(report.delta.replayed_notebooks >= 4);
    for family in ["join", "join_type", "groupby", "pivot", "nextop"] {
        assert!(report.carried.contains(&family), "{family} not carried: {:?}", report.carried);
    }
    assert!(report.rebuilt.is_empty(), "rebuilt: {:?}", report.rebuilt);
    assert_eq!(fingerprint(&inc), fingerprint(&full));
    assert_eq!(inc.robustness, full.robustness);
}

#[test]
fn flow_growth_rebuilds_every_family_yet_stays_equal_to_full_training() {
    // Flow notebooks contain every operator kind, so growing them shifts
    // every family's training set — the carry analysis must notice and
    // retrain everything, and the result must still match full training.
    let base = tiny_config(29);
    let mut union = base.clone();
    union.corpus.flow_notebooks += 4;
    let prev = AutoSuggest::train(base);
    let full = AutoSuggest::train(union.clone());
    let (inc, report) = AutoSuggest::retrain(&prev, union);
    assert!(!report.full_replay_fallback);
    assert!(report.rebuilt.contains(&"nextop"), "rebuilt: {:?}", report.rebuilt);
    assert_eq!(fingerprint(&inc), fingerprint(&full));
}

#[test]
fn empty_delta_retrain_replays_nothing_and_carries_every_model() {
    let base = tiny_config(31);
    let prev = AutoSuggest::train(base.clone());
    let (inc, report) = AutoSuggest::retrain(&prev, base);

    assert!(!report.full_replay_fallback);
    assert_eq!(report.delta.replayed_notebooks, 0);
    assert_eq!(report.delta.reused_reports, prev.reports.len());
    for family in ["join", "join_type", "groupby", "pivot", "nextop"] {
        assert!(report.carried.contains(&family), "{family} not carried: {:?}", report.carried);
    }
    assert!(report.rebuilt.is_empty(), "rebuilt: {:?}", report.rebuilt);
    assert_eq!(fingerprint(&inc), fingerprint(&prev));
}

#[test]
fn changed_corpus_seed_falls_back_to_full_replay_and_stays_correct() {
    let prev = AutoSuggest::train(tiny_config(5));
    let other = tiny_config(6); // different corpus seed → no reuse is sound
    let full = AutoSuggest::train(other.clone());
    let (inc, report) = AutoSuggest::retrain(&prev, other);
    assert!(report.full_replay_fallback);
    assert_eq!(report.delta.reused_reports, 0);
    assert_eq!(fingerprint(&inc), fingerprint(&full));
}

#[test]
fn incremental_retrain_fingerprints_are_thread_invariant() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let base = tiny_config(41);
    let union = grown_config(&base);
    let mut fps = Vec::new();
    for threads in [1usize, 4] {
        set_thread_override(Some(threads));
        let prev = AutoSuggest::train(base.clone());
        let (inc, report) = AutoSuggest::retrain(&prev, union.clone());
        assert!(!report.full_replay_fallback);
        fps.push(fingerprint(&inc));
    }
    set_thread_override(None);
    assert_eq!(fps[0], fps[1], "incremental retrain output depends on thread count");
}

#[test]
fn seeded_property_random_growth_never_changes_ranked_suggestions() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xbeef);
    for round in 0..3u32 {
        let mut base = tiny_config(100 + round as u64);
        base.corpus.join_notebooks = rng.random_range(8..14);
        base.corpus.groupby_notebooks = rng.random_range(8..12);
        base.corpus.flow_notebooks = rng.random_range(8..14);
        let mut union = base.clone();
        union.corpus.join_notebooks += rng.random_range(0..5);
        union.corpus.groupby_notebooks += rng.random_range(0..4);
        union.corpus.flow_notebooks += rng.random_range(0..5);

        let prev = AutoSuggest::train(base);
        let full = AutoSuggest::train(union.clone());
        let (inc, report) = AutoSuggest::retrain(&prev, union);
        assert!(!report.full_replay_fallback, "round {round}");
        assert_eq!(
            fingerprint(&inc),
            fingerprint(&full),
            "round {round}: ranked suggestions diverged (carried {:?}, rebuilt {:?})",
            report.carried,
            report.rebuilt
        );
    }
}
