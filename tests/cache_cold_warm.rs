//! The cache never changes an answer: every request answered against a
//! cold cache (just after `clear_memory`) gets the same answer when it is
//! asked again and the featurisers read the artifacts the first pass
//! cached. The second pass looks up no column the cache does not already
//! hold.
//!
//! Lives in its own integration-test binary because it clears the
//! process-global cache.

use auto_suggest::cache;
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

    cache::clear_memory();
    let suggest_all = || reqs.iter().map(|r| system.models.suggest(r)).collect::<Vec<_>>();
    let (cold, cold_snap) = obs::with_local_registry(suggest_all);
    assert!(cold_snap.counters.get(cache::MISSES_COUNTER).is_some_and(|&m| m > 0));

    let (warm, warm_snap) = obs::with_local_registry(suggest_all);
    assert_eq!(warm, cold, "a warmed cache changed an answer");
    assert_eq!(warm_snap.counters.get(cache::MISSES_COUNTER), None);
    assert!(warm_snap.counters.get(cache::HITS_COUNTER).is_some_and(|&h| h > 0));
}
