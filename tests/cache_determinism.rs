//! The content-addressed column cache's contracts, end to end:
//!
//! * fingerprints are stable under row permutation and sensitive to edits
//!   and to each value's dtype;
//! * cache counters (the deterministic-trace contract) are bit-identical
//!   at 1 and 4 threads, including under LRU eviction pressure;
//! * concurrent `suggest` calls on the pool, as the server makes them,
//!   answer exactly like sequential ones;
//! * hit/miss counters surface in the deterministic obs section.

use auto_suggest::cache::{column_fingerprint, CacheStats, ColumnArtifacts, ColumnCache};
use auto_suggest::core::{AutoSuggest, AutoSuggestConfig, SuggestRequest, SuggestResponse};
use auto_suggest::dataframe::{Column, DataFrame, Value};
use auto_suggest::obs;
use auto_suggest::parallel::set_thread_override;
use std::sync::{Mutex, OnceLock};

/// The thread override is process-global, so tests that sweep it must not
/// overlap (cargo runs `#[test]`s concurrently by default).
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// One shared fast-trained system for the suggestion tests (training once
/// keeps this binary's wall-clock close to the other integration suites).
fn system() -> &'static AutoSuggest {
    static SYSTEM: OnceLock<AutoSuggest> = OnceLock::new();
    SYSTEM.get_or_init(|| AutoSuggest::train(AutoSuggestConfig::fast(7)))
}

fn int_col(name: &str, lo: i64, hi: i64) -> Column {
    Column::new(name, (lo..hi).map(Value::Int).collect::<Vec<_>>())
}

#[test]
fn fingerprint_stable_across_row_order_sensitive_to_edits() {
    let frame = DataFrame::from_columns(vec![
        ("id", (0..50).map(Value::Int).collect()),
        (
            "name",
            (0..50).map(|i| Value::Str(format!("row{i}"))).collect(),
        ),
    ])
    .unwrap();
    // Reverse the row order: every column fingerprint must be unchanged.
    let reversed_idx: Vec<usize> = (0..frame.num_rows()).rev().collect();
    let reversed = frame.take(&reversed_idx);
    for (a, b) in frame.columns().iter().zip(reversed.columns()) {
        assert_eq!(column_fingerprint(a), column_fingerprint(b));
    }
    // Edit one cell: that column's fingerprint must move, the other's not.
    let mut edited = frame.clone();
    edited.column_at_mut(0).values_mut()[17] = Value::Int(9999);
    assert_ne!(
        column_fingerprint(frame.column_at(0)),
        column_fingerprint(edited.column_at(0))
    );
    assert_eq!(
        column_fingerprint(frame.column_at(1)),
        column_fingerprint(edited.column_at(1))
    );
}

#[test]
fn numerically_equal_columns_of_different_dtypes_keep_their_own_artifacts() {
    // `Value::hash` treats Int(1), Float(1.0) and Date(1) as equal (joins
    // match 5 == 5.0), but the cached artifacts carry the dtype, so the
    // three columns must be three cache keys.
    let cols = [
        Column::new("i", (1..4).map(Value::Int).collect::<Vec<_>>()),
        Column::new("f", (1..4).map(|i| Value::Float(i as f64)).collect::<Vec<_>>()),
        Column::new("d", (1..4).map(Value::Date).collect::<Vec<_>>()),
    ];
    let fps: Vec<_> = cols.iter().map(column_fingerprint).collect();
    assert_ne!(fps[0], fps[1]);
    assert_ne!(fps[0], fps[2]);
    assert_ne!(fps[1], fps[2]);
    // Whichever column is interned first, every lookup answers with the
    // column's own dtype.
    for order in [[0, 1, 2], [2, 1, 0]] {
        let cache = ColumnCache::new(64);
        for i in order {
            let c = &cols[i];
            assert_eq!(cache.artifacts(c).dtype(), ColumnArtifacts::compute(c).dtype());
        }
    }
}

/// Drive `n` distinct columns (each looked up twice) through a private
/// small-capacity cache across the pool at the given thread count.
fn pressure_run(threads: usize, n: i64) -> (CacheStats, usize) {
    set_thread_override(Some(threads));
    let cache = ColumnCache::new(32); // far below n → sustained eviction
    let cols: Vec<Column> = (0..n).map(|i| int_col("c", i * 100, i * 100 + 20)).collect();
    // First pass: every distinct column once, concurrently.
    auto_suggest::parallel::par_map(&cols, |c| {
        cache.artifacts(c);
    });
    set_thread_override(None);
    (cache.stats(), cache.len())
}

#[test]
fn lru_eviction_counters_are_deterministic_across_thread_counts() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let (stats1, len1) = pressure_run(1, 200);
    let (stats4, len4) = pressure_run(4, 200);
    assert_eq!(stats1, stats4, "cache counters diverged between 1 and 4 threads");
    assert_eq!(len1, len4);
    // The run actually exercised eviction, not just insertion.
    assert_eq!(stats1.misses, 200);
    assert!(stats1.evictions > 0, "capacity 32 with 200 keys must evict");
    assert!(len1 <= 32);
}

#[test]
fn warm_lookups_hit_deterministically_at_any_thread_count() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let run = |threads: usize| {
        set_thread_override(Some(threads));
        let cache = ColumnCache::new(1024); // ample: no eviction
        let cols: Vec<Column> =
            (0..64).map(|i| int_col("c", i * 100, i * 100 + 20)).collect();
        // Two concurrent passes over the same columns: single-flight
        // guarantees exactly 64 misses however the passes interleave.
        let doubled: Vec<&Column> = cols.iter().chain(cols.iter()).collect();
        auto_suggest::parallel::par_map(&doubled, |c| {
            cache.artifacts(c);
        });
        set_thread_override(None);
        cache.stats()
    };
    let s1 = run(1);
    let s4 = run(4);
    assert_eq!(s1, s4);
    assert_eq!(s1, CacheStats { hits: 64, misses: 64, evictions: 0 });
}

#[test]
fn parallel_suggest_matches_sequential_suggest() {
    let sys = system();
    let join_case = sys.test.join.first().expect("fast corpus has join test cases");
    let dims = [0usize, 1];
    let mut reqs: Vec<SuggestRequest> = vec![SuggestRequest::Join {
        left: &join_case.inputs[0],
        right: &join_case.inputs[1],
        top_k: 3,
    }];
    if let Some(g) = sys.test.groupby.first() {
        reqs.push(SuggestRequest::GroupBy { table: &g.inputs[0] });
    }
    if let Some(m) = sys.test.melt.first() {
        reqs.push(SuggestRequest::Unpivot { table: &m.inputs[0] });
    }
    if let Some(p) = sys.test.pivot.first() {
        if p.inputs[0].num_columns() > dims.iter().max().copied().unwrap_or(0) {
            reqs.push(SuggestRequest::Pivot { table: &p.inputs[0], dims: &dims });
        }
    }
    // Repeat tables across requests: the same frame appears in a Join and
    // a GroupBy request, plus an exact repeat.
    reqs.push(SuggestRequest::GroupBy { table: &join_case.inputs[0] });
    reqs.push(SuggestRequest::Join {
        left: &join_case.inputs[0],
        right: &join_case.inputs[1],
        top_k: 5,
    });
    assert!(reqs.len() >= 4);

    let sequential: Vec<SuggestResponse> = reqs.iter().map(|r| sys.models.suggest(r)).collect();
    let parallel = auto_suggest::parallel::par_map(&reqs, |r| sys.models.suggest(r));
    assert_eq!(parallel, sequential, "concurrent answers must equal sequential ones");
    // The requests above must actually produce suggestions, not fall through
    // to Unavailable.
    assert!(matches!(&parallel[0], SuggestResponse::Join(v) if !v.is_empty()));
}

#[test]
fn pair_tier_counters_are_deterministic_across_thread_counts() {
    use auto_suggest::cache::PairCache;
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let frames: Vec<DataFrame> = (0..12)
        .map(|t| {
            DataFrame::from_columns(vec![
                ("k", (t..t + 30).map(Value::Int).collect()),
                ("v", (0..30).map(|i| Value::Str(format!("v{i}"))).collect()),
            ])
            .unwrap()
        })
        .collect();
    let run = |threads: usize| {
        set_thread_override(Some(threads));
        let pairs = PairCache::new(256, 256);
        // Each frame's key tuple fetched three times concurrently, and each
        // adjacent pair's overlap requested twice: single-flight makes the
        // hit/miss split exact however the pool interleaves.
        let work: Vec<usize> = (0..frames.len() * 3).collect();
        auto_suggest::parallel::par_map(&work, |&i| {
            let f = &frames[i % frames.len()];
            let l = pairs.key_tuples(f, &[0]);
            let r = pairs.key_tuples(&frames[(i % frames.len() + 1) % frames.len()], &[0]);
            pairs.intersection(&l, &r)
        });
        set_thread_override(None);
        (pairs.tuple_stats(), pairs.pair_stats())
    };
    let (t1, p1) = run(1);
    let (t4, p4) = run(4);
    assert_eq!(t1, t4, "tuple-tier counters diverged between 1 and 4 threads");
    assert_eq!(p1, p4, "pair-tier counters diverged between 1 and 4 threads");
    // 12 distinct (frame, [0]) tuples fetched 6 times each (once as left,
    // once as right, per 3 passes) → 12 misses, 60 hits.
    assert_eq!(t1, CacheStats { hits: 60, misses: 12, evictions: 0 });
    // 12 distinct adjacent pairs, each requested 3 times.
    assert_eq!(p1, CacheStats { hits: 24, misses: 12, evictions: 0 });
}

#[test]
fn join_features_batch_matches_sequential_join_features() {
    use auto_suggest::features::{
        enumerate_join_candidates, join_features, join_features_batch, CandidateParams,
    };
    let left = DataFrame::from_columns(vec![
        ("id", (0..60).map(Value::Int).collect()),
        ("region", (0..60).map(|i| Value::Str(format!("r{}", i % 7))).collect()),
        ("score", (0..60).map(|i| Value::Float(i as f64 * 0.5)).collect()),
    ])
    .unwrap();
    let right = DataFrame::from_columns(vec![
        ("key", (20..80).map(Value::Int).collect()),
        ("region", (0..60).map(|i| Value::Str(format!("r{}", i % 9))).collect()),
    ])
    .unwrap();
    let cands = enumerate_join_candidates(&left, &right, &CandidateParams::default());
    assert!(cands.len() >= 2, "workload needs several candidates");
    let sequential: Vec<Vec<f64>> = cands
        .iter()
        .map(|c| join_features(&left, &right, c).values)
        .collect();
    let batched: Vec<Vec<f64>> = join_features_batch(&left, &right, &cands)
        .into_iter()
        .map(|f| f.values)
        .collect();
    // Bit-identical, not approximately equal: the batch path must reuse the
    // exact same tuple sets and intersection counts.
    assert_eq!(sequential, batched);
}

#[test]
fn cache_counters_appear_in_deterministic_trace_section() {
    let params = auto_suggest::features::CandidateParams::default();
    let left = DataFrame::from_columns(vec![
        ("a", (0..40).map(Value::Int).collect()),
        ("b", (0..40).map(|i| Value::Str(format!("v{i}"))).collect()),
    ])
    .unwrap();
    let right = left.clone();
    let ((), snap) = obs::with_local_registry(|| {
        // Enumerate the same pair twice: the second pass hits for every
        // column the first pass interned.
        auto_suggest::features::enumerate_join_candidates(&left, &right, &params);
        auto_suggest::features::enumerate_join_candidates(&left, &right, &params);
    });
    let det = snap.deterministic_value().to_string();
    assert!(det.contains("\"cache.hits\""), "cache.hits missing from {det}");
    assert!(det.contains("\"cache.misses\""), "cache.misses missing from {det}");
    let hits = snap.counters.get("cache.hits").copied().unwrap_or(0);
    assert!(hits >= 2, "second enumeration must hit the cache (hits={hits})");
    // Counters are deterministic-section material, never timing material.
    assert!(!snap.timing_value().to_string().contains("cache.hits"));
}
