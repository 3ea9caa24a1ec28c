//! The `suggest_batch` warm phase must be gated on the column cache:
//! with the cache disabled, pre-warming would compute artifacts that are
//! immediately discarded (the regression this pins down — the warm pass
//! used to run regardless and silently double the featurisation work).
//!
//! Counter-based proof: `suggest.warm_columns` counts every column pushed
//! through the warm phase. Disabled cache → the counter never moves and
//! responses still exactly match sequential `suggest` — and the cache-on
//! responses, so turning the cache off never changes an answer. Enabled
//! cache → the counter equals the distinct-column count of the batch.
//!
//! Lives in its own integration-test binary because it toggles the
//! process-global cache switch.

use auto_suggest::cache;
use auto_suggest::core::pipeline::WARM_COLUMNS_COUNTER;
use auto_suggest::core::{AutoSuggest, AutoSuggestConfig, SuggestRequest};
use auto_suggest::dataframe::{DataFrame, Value};
use auto_suggest::obs;

fn tables() -> (DataFrame, DataFrame) {
    let a = DataFrame::from_columns(vec![
        ("id", (0..40).map(Value::Int).collect()),
        (
            "group",
            (0..40).map(|i| Value::Str(format!("g{}", i % 4))).collect(),
        ),
        ("score", (0..40).map(|i| Value::Float(i as f64 / 2.0)).collect()),
    ])
    .unwrap();
    let b = DataFrame::from_columns(vec![
        ("id", (0..40).map(|i| Value::Int(i % 12)).collect()),
        ("weight", (0..40).map(|i| Value::Float(i as f64 * 0.1)).collect()),
    ])
    .unwrap();
    (a, b)
}

#[test]
fn warm_phase_skips_entirely_when_cache_disabled() {
    let system = AutoSuggest::train(AutoSuggestConfig::fast(2));
    let (a, b) = tables();
    let reqs = [
        SuggestRequest::Join { left: &a, right: &b, top_k: 3 },
        SuggestRequest::GroupBy { table: &a },
        SuggestRequest::GroupBy { table: &b },
        SuggestRequest::Unpivot { table: &a },
    ];
    // Distinct tables: a, b → 3 + 2 = 5 distinct columns to warm.
    let distinct_columns = 5u64;

    // --- Cache enabled (the default): warm phase runs and is counted.
    cache::set_all_enabled(true);
    cache::clear_memory();
    let (enabled_responses, enabled_snap) = obs::with_local_registry(|| {
        let batch = system.models.suggest_batch(&reqs);
        let sequential: Vec<_> = reqs.iter().map(|r| system.models.suggest(r)).collect();
        (batch, sequential)
    });
    let (enabled_batch, sequential) = enabled_responses;
    assert_eq!(enabled_batch, sequential, "batch diverged from sequential (cache on)");
    assert_eq!(
        enabled_snap.counters.get(WARM_COLUMNS_COUNTER).copied(),
        Some(distinct_columns),
        "warm phase should cover every distinct column exactly once"
    );
    assert_eq!(
        enabled_snap.counters.get("suggest.batch_distinct_tables").copied(),
        Some(2)
    );

    // --- Cache disabled: zero warm compute, identical responses.
    cache::set_all_enabled(false);
    cache::clear_memory();
    let (disabled_responses, disabled_snap) = obs::with_local_registry(|| {
        let batch = system.models.suggest_batch(&reqs);
        let sequential: Vec<_> = reqs.iter().map(|r| system.models.suggest(r)).collect();
        (batch, sequential)
    });
    cache::set_all_enabled(true);

    let (batch, sequential) = disabled_responses;
    assert_eq!(batch, sequential, "batch diverged from sequential (cache off)");
    assert_eq!(batch, enabled_batch, "turning the cache off changed an answer");
    assert_eq!(
        disabled_snap.counters.get(WARM_COLUMNS_COUNTER),
        None,
        "warm phase ran despite AUTOSUGGEST_CACHE-style disablement"
    );
    // Table dedup still happens (it is how the batch decides what *would*
    // be warmed), but no cache traffic follows from the warm phase.
    assert_eq!(
        disabled_snap.counters.get("suggest.batch_distinct_tables").copied(),
        Some(2)
    );
    assert_eq!(
        disabled_snap.counters.get(cache::HITS_COUNTER),
        None,
        "disabled cache must not record hit/miss traffic"
    );
    assert_eq!(disabled_snap.counters.get(cache::MISSES_COUNTER), None);

    // And the return value reports what was warmed.
    assert_eq!(system.models.warm_tables(&reqs), distinct_columns as usize);
    cache::set_all_enabled(false);
    assert_eq!(system.models.warm_tables(&reqs), 0);
    cache::set_all_enabled(true);
}
