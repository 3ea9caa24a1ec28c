//! Typed metric storage: counters, gauges, histograms, and span
//! statistics, all keyed by name in sorted maps so every rendering is
//! deterministic.
//!
//! A [`MetricsRegistry`] is a single mutex around four `BTreeMap`s. All
//! mutating operations are commutative folds (`+=` on counters and span
//! calls, merge on histograms), so the final state is independent of the
//! order worker threads happen to record in — the registry inherits the
//! parallel runtime's determinism contract for everything except
//! wall-clock timing. Gauges are last-write-wins and therefore must only
//! be set from sequential code (the pipeline does; concurrently-evaluated
//! table code never touches them).

use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

/// Number of decade buckets in a [`Histogram`]: 1e-9 s up to 1e3 s.
pub const HISTOGRAM_BUCKETS: usize = 13;

/// Fixed-bucket log-scale histogram (decades from nanoseconds to
/// kiloseconds). Merging two histograms is commutative, which is what
/// lets workers record in any order.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

/// Bucket index for a value in seconds: decade of `v`, shifted so 1e-9
/// lands in bucket 0 and anything ≥ 1e3 saturates the last bucket.
pub(crate) fn bucket_index(v: f64) -> usize {
    // NaN is not finite, so non-positive, infinite, and NaN values all
    // land in bucket 0.
    if v <= 0.0 || !v.is_finite() {
        return 0;
    }
    let decade = v.log10().floor() as i64 + 9;
    decade.clamp(0, (HISTOGRAM_BUCKETS - 1) as i64) as usize
}

impl Histogram {
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.buckets[bucket_index(v)] += 1;
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Aggregated statistics for one span path: how many times it was
/// entered and total wall-clock nanoseconds inside it. `calls` is
/// deterministic; `nanos` is not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    pub calls: u64,
    pub nanos: u128,
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    spans: BTreeMap<String, SpanStat>,
}

/// Thread-safe metric store. Cheap to share (`Arc<MetricsRegistry>`);
/// one global instance backs the free functions in the crate root, and
/// tests install isolated instances via `with_local_registry`.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

/// Recover from mutex poisoning: a panic in instrumented code (replay
/// cells panic by design under fault injection) must never cascade into
/// `PoisonError` panics in the metrics layer. The guarded maps are
/// always consistent because no user code runs while the lock is held.
fn lock_recover(m: &Mutex<RegistryInner>) -> MutexGuard<'_, RegistryInner> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to a named monotonic counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut inner = lock_recover(&self.inner);
        *inner.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Set a named gauge (last write wins — sequential callers only).
    pub fn gauge_set(&self, name: &str, value: f64) {
        let mut inner = lock_recover(&self.inner);
        inner.gauges.insert(name.to_string(), value);
    }

    /// Record one observation into a named histogram.
    pub fn observe(&self, name: &str, value: f64) {
        let mut inner = lock_recover(&self.inner);
        inner.histograms.entry(name.to_string()).or_default().record(value);
    }

    /// Fold one span exit into the per-path statistics.
    pub fn record_span(&self, path: &str, nanos: u128) {
        let mut inner = lock_recover(&self.inner);
        let stat = inner.spans.entry(path.to_string()).or_default();
        stat.calls += 1;
        stat.nanos += nanos;
    }

    /// Copy the current state out. The snapshot is detached — later
    /// recording does not affect it.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = lock_recover(&self.inner);
        MetricsSnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner.histograms.clone(),
            spans: inner.spans.clone(),
        }
    }

    /// Drop all recorded state (test isolation for the global registry).
    pub fn reset(&self) {
        let mut inner = lock_recover(&self.inner);
        *inner = RegistryInner::default();
    }
}

/// Names ending in `_seconds` / `_nanos` carry wall-clock measurements,
/// and names ending in `_live` carry scheduling-dependent observations
/// (permits held by concurrent per-connection handlers, peak RSS — values
/// that legitimately vary with thread count and arrival timing). Both are excluded from the
/// deterministic part of a snapshot and reported in the timing view
/// instead. Every such metric in the workspace follows this suffix
/// convention.
pub fn is_timing_name(name: &str) -> bool {
    name.ends_with("_seconds") || name.ends_with("_nanos") || name.ends_with("_live")
}

/// A detached copy of a registry's state, split into a deterministic
/// view (bit-identical across thread counts) and a timing view.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, Histogram>,
    pub spans: BTreeMap<String, SpanStat>,
}

#[derive(Default)]
struct SpanNode {
    calls: u64,
    children: BTreeMap<String, SpanNode>,
}

fn span_tree(spans: &BTreeMap<String, SpanStat>) -> SpanNode {
    let mut root = SpanNode::default();
    for (path, stat) in spans {
        let mut node = &mut root;
        for seg in path.split('/') {
            node = node.children.entry(seg.to_string()).or_default();
        }
        node.calls += stat.calls;
    }
    root
}

fn span_node_value(node: &SpanNode) -> Value {
    let mut map = Map::new();
    map.insert("calls".to_string(), Value::from(node.calls));
    if !node.children.is_empty() {
        let mut kids = Map::new();
        for (name, child) in &node.children {
            kids.insert(name.clone(), span_node_value(child));
        }
        map.insert("children".to_string(), Value::Object(kids));
    }
    Value::Object(map)
}

fn histogram_value(h: &Histogram) -> Value {
    let mut map = Map::new();
    map.insert("count".to_string(), Value::from(h.count));
    map.insert("sum".to_string(), Value::from(h.sum));
    map.insert("mean".to_string(), Value::from(h.mean()));
    map.insert(
        "min".to_string(),
        if h.count == 0 { Value::Null } else { Value::from(h.min) },
    );
    map.insert(
        "max".to_string(),
        if h.count == 0 { Value::Null } else { Value::from(h.max) },
    );
    map.insert(
        "buckets".to_string(),
        Value::Array(h.buckets.iter().map(|&b| Value::from(b)).collect()),
    );
    Value::Object(map)
}

impl MetricsSnapshot {
    /// Everything guaranteed bit-identical across `AUTOSUGGEST_THREADS`
    /// settings: counters, non-timing gauges, non-timing histograms, and
    /// the span tree with call counts only (no durations).
    pub fn deterministic_value(&self) -> Value {
        let mut doc = Map::new();
        let mut counters = Map::new();
        for (name, &v) in &self.counters {
            if !is_timing_name(name) {
                counters.insert(name.clone(), Value::from(v));
            }
        }
        doc.insert("counters".to_string(), Value::Object(counters));
        let mut gauges = Map::new();
        for (name, &v) in &self.gauges {
            if !is_timing_name(name) {
                gauges.insert(name.clone(), Value::from(v));
            }
        }
        doc.insert("gauges".to_string(), Value::Object(gauges));
        let mut hists = Map::new();
        for (name, h) in &self.histograms {
            if !is_timing_name(name) {
                hists.insert(name.clone(), histogram_value(h));
            }
        }
        doc.insert("histograms".to_string(), Value::Object(hists));
        doc.insert("spans".to_string(), span_node_value(&span_tree(&self.spans)));
        Value::Object(doc)
    }

    /// The wall-clock complement: timing histograms (full shape, bucket
    /// distribution included), timing/`_live` counters and gauges, and
    /// per-span-path total nanoseconds.
    pub fn timing_value(&self) -> Value {
        let mut doc = Map::new();
        let mut counters = Map::new();
        for (name, &v) in &self.counters {
            if is_timing_name(name) {
                counters.insert(name.clone(), Value::from(v));
            }
        }
        doc.insert("counters".to_string(), Value::Object(counters));
        let mut gauges = Map::new();
        for (name, &v) in &self.gauges {
            if is_timing_name(name) {
                gauges.insert(name.clone(), Value::from(v));
            }
        }
        doc.insert("gauges".to_string(), Value::Object(gauges));
        let mut hists = Map::new();
        for (name, h) in &self.histograms {
            if is_timing_name(name) {
                hists.insert(name.clone(), histogram_value(h));
            }
        }
        doc.insert("histograms".to_string(), Value::Object(hists));
        let mut spans = Map::new();
        for (path, stat) in &self.spans {
            // u128 nanos can exceed u64 in theory; saturate for JSON.
            let nanos = u64::try_from(stat.nanos).unwrap_or(u64::MAX);
            spans.insert(path.clone(), Value::from(nanos));
        }
        doc.insert("span_nanos".to_string(), Value::Object(spans));
        Value::Object(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_covers_decades() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-1.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(5e-10), 0); // below 1e-9 clamps down
        assert_eq!(bucket_index(1e-9), 0);
        assert_eq!(bucket_index(1e-6), 3);
        assert_eq!(bucket_index(0.5), 8);
        assert_eq!(bucket_index(1.0), 9);
        assert_eq!(bucket_index(999.0), 11);
        assert_eq!(bucket_index(1e3), 12);
        assert_eq!(bucket_index(1e9), 12); // saturates
    }

    #[test]
    fn histogram_merge_is_order_independent() {
        let values = [0.001, 2.5, 0.0003, 17.0, 0.9];
        let mut forward = Histogram::default();
        let mut backward = Histogram::default();
        for v in values {
            forward.record(v);
        }
        for v in values.iter().rev() {
            backward.record(*v);
        }
        assert_eq!(forward, backward);
        assert_eq!(forward.count, 5);
        assert!((forward.mean() - values.iter().sum::<f64>() / 5.0).abs() < 1e-12);
    }

    #[test]
    fn registry_folds_commutatively() {
        let reg = MetricsRegistry::new();
        reg.counter_add("a.total", 2);
        reg.counter_add("a.total", 3);
        reg.gauge_set("g", 1.5);
        reg.gauge_set("g", 2.5);
        reg.observe("h_seconds", 0.01);
        reg.record_span("root/child", 100);
        reg.record_span("root/child", 50);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("a.total"), Some(&5));
        assert_eq!(snap.gauges.get("g"), Some(&2.5));
        assert_eq!(snap.histograms.get("h_seconds").map(|h| h.count), Some(1));
        let stat = snap.spans.get("root/child").copied().unwrap_or_default();
        assert_eq!(stat.calls, 2);
        assert_eq!(stat.nanos, 150);
    }

    #[test]
    fn deterministic_value_excludes_timing_fields() {
        let reg = MetricsRegistry::new();
        reg.counter_add("c", 1);
        reg.gauge_set("importance.join.g1", 0.25);
        reg.gauge_set("elapsed_seconds", 9.0);
        reg.observe("stage_seconds", 0.5);
        reg.observe("sizes", 10.0);
        reg.record_span("a/b", 42);
        let snap = reg.snapshot();
        let det = snap.deterministic_value().to_string();
        assert!(det.contains("\"c\":1"));
        assert!(det.contains("importance.join.g1"));
        assert!(!det.contains("elapsed_seconds"));
        assert!(!det.contains("stage_seconds"));
        assert!(det.contains("\"sizes\""));
        assert!(!det.contains("42"), "deterministic view must not leak nanos: {det}");
        let timing = snap.timing_value().to_string();
        assert!(timing.contains("stage_seconds"));
        assert!(timing.contains("\"a/b\":42"));
    }

    #[test]
    fn live_suffix_is_excluded_from_deterministic_view() {
        // `_live` marks scheduling-dependent observations (permits held
        // by concurrent per-connection handlers, how long each waited for
        // one): they must land in the timing view only, so the
        // deterministic section stays thread-invariant for a server under
        // concurrent load.
        let reg = MetricsRegistry::new();
        reg.counter_add("server.permit_waits_live", 7);
        reg.counter_add("server.requests", 10);
        reg.gauge_set("server.in_flight_live", 3.0);
        reg.observe("server.permit_wait_ms_live", 4.0);
        let snap = reg.snapshot();
        let det = snap.deterministic_value().to_string();
        assert!(det.contains("\"server.requests\":10"));
        assert!(!det.contains("permit_waits_live"));
        assert!(!det.contains("in_flight_live"));
        assert!(!det.contains("permit_wait_ms_live"));
        let timing = snap.timing_value().to_string();
        assert!(timing.contains("\"server.permit_waits_live\":7"));
        assert!(timing.contains("in_flight_live"));
        assert!(timing.contains("permit_wait_ms_live"));
    }

    #[test]
    fn span_tree_nests_by_path() {
        let reg = MetricsRegistry::new();
        reg.record_span("repro", 1);
        reg.record_span("repro/train", 1);
        reg.record_span("repro/train/replay", 1);
        reg.record_span("repro/train/replay", 1);
        reg.record_span("repro/evaluate", 1);
        let det = reg.snapshot().deterministic_value();
        let spans = det.get("spans").cloned().unwrap_or(Value::Null);
        let repro = spans.get("children").and_then(|c| c.get("repro")).cloned();
        let repro = repro.unwrap_or(Value::Null);
        assert_eq!(repro.get("calls").and_then(Value::as_i64), Some(1));
        let train = repro.get("children").and_then(|c| c.get("train")).cloned();
        let train = train.unwrap_or(Value::Null);
        let replay = train.get("children").and_then(|c| c.get("replay")).cloned();
        let replay = replay.unwrap_or(Value::Null);
        assert_eq!(replay.get("calls").and_then(Value::as_i64), Some(2));
    }
}
