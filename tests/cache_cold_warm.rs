//! The cache never changes an answer: every request answered against a
//! cold cache (just after `clear_memory`) gets the same answer once the
//! server's warm phase (`warm_tables`) has run and the featurisers read
//! warmed artifacts.
//!
//! `suggest.warm_columns` counts every column of every request table, and
//! the cache's content addressing dedups them: a table shared by several
//! requests is sketched once. After the warm phase the featurisers look
//! up no column the cache does not already hold.
//!
//! Lives in its own integration-test binary because it clears the
//! process-global cache.

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
fn cold_answers_equal_warm_answers() {
    let system = AutoSuggest::train(AutoSuggestConfig::fast(2));
    let (a, b) = tables();
    let reqs = [
        SuggestRequest::Join { left: &a, right: &b, top_k: 3 },
        SuggestRequest::GroupBy { table: &a },
        SuggestRequest::GroupBy { table: &b },
        SuggestRequest::Unpivot { table: &a },
    ];
    // Request tables a, b, a, b, a: 3 + 2 + 3 + 2 + 3 columns, of which
    // 5 are distinct.
    let (request_columns, distinct_columns) = (13u64, 5u64);

    cache::clear_memory();
    let (cold, cold_snap) = obs::with_local_registry(|| {
        reqs.iter().map(|r| system.models.suggest(r)).collect::<Vec<_>>()
    });
    assert!(cold_snap.counters.get(cache::MISSES_COUNTER).is_some_and(|&m| m > 0));

    cache::clear_memory();
    let (warmed, warm_snap) = obs::with_local_registry(|| system.models.warm_tables(&reqs));
    assert_eq!(warmed as u64, request_columns);
    assert_eq!(warm_snap.counters.get(WARM_COLUMNS_COUNTER).copied(), Some(request_columns));
    assert_eq!(warm_snap.counters.get(cache::MISSES_COUNTER).copied(), Some(distinct_columns));
    assert_eq!(
        warm_snap.counters.get(cache::HITS_COUNTER).copied(),
        Some(request_columns - distinct_columns)
    );

    let (warm, suggest_snap) = obs::with_local_registry(|| {
        reqs.iter().map(|r| system.models.suggest(r)).collect::<Vec<_>>()
    });
    assert_eq!(warm, cold, "a warmed cache changed an answer");
    assert_eq!(suggest_snap.counters.get(cache::MISSES_COUNTER), None);
    assert!(suggest_snap.counters.get(cache::HITS_COUNTER).is_some_and(|&h| h > 0));
}
