//! What a traced pass reads from the program without adding any tracing to
//! it: deltas of the obs registry (counters, timing histograms, span nanos)
//! and of the cache tiers' hit/miss counters over a window of calls.
//!
//! Histogram sums and span nanos recorded inside pool regions add up the
//! time of every worker, so they are *busy* seconds and may exceed the
//! wall time of the call that contains them.

use autosuggest_cache::{tier_stats, CacheStats, TierStats};
use autosuggest_obs::{self as obs, MetricsSnapshot};
use std::collections::BTreeMap;

/// Per-layer metrics as `(name, unit)`, in report order. `BENCHMARK.json`
/// lists the same names and units (checked by a test). Every traced run
/// reports all of them; a layer a workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("corpus.generate_s", "s"),
    ("corpus.notebooks_generated", "count"),
    ("replay.busy_s", "s"),
    ("replay.notebooks", "count"),
    ("replay.cells_executed", "count"),
    ("replay.cell_retries", "count"),
    ("replay.ok_ratio", "ratio"),
    ("replay.us_per_cell", "us"),
    ("store.write_s", "s"),
    ("store.read_s", "s"),
    ("store.bytes_written", "bytes"),
    ("store.bytes_per_notebook", "bytes"),
    ("store.shards_resumed", "count"),
    ("core.filter_split_s", "s"),
    ("core.train_predictors_s", "s"),
    ("core.train_nextop_s", "s"),
    ("core.nextop_scoring_s", "s"),
    ("features.join_candidates", "count"),
    ("features.enumerate_s", "s"),
    ("cache.column.hit_ratio", "ratio"),
    ("cache.tuple.hit_ratio", "ratio"),
    ("cache.pair.hit_ratio", "ratio"),
    ("cache.column.misses", "count"),
    ("gbdt.fit_s", "s"),
    ("gbdt.split_scan_s", "s"),
    ("gbdt.fits", "count"),
    ("gbdt.nodes_split", "count"),
    ("gbdt.ns_per_node", "ns"),
    ("nn.rnn_train_s", "s"),
    ("nn.examples_trained", "count"),
    ("nn.us_per_example", "us"),
    ("eval.table2_s", "s"),
    ("eval.table3_s", "s"),
    ("eval.table4_s", "s"),
    ("eval.table5_s", "s"),
    ("eval.table6_s", "s"),
    ("eval.table7_s", "s"),
    ("eval.table8_s", "s"),
    ("eval.table9_s", "s"),
    ("eval.table10_s", "s"),
    ("eval.table11_s", "s"),
    ("wire.decode_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.request_kib", "KiB"),
    ("suggest.join_ms", "ms"),
    ("suggest.groupby_ms", "ms"),
    ("suggest.pivot_ms", "ms"),
    ("suggest.unpivot_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("server.batch_size_mean", "count"),
    ("server.batches", "count"),
    ("server.rejected_busy", "count"),
    ("self.bench_s", "s"),
    ("self.corpus_s", "s"),
    ("self.replay_s", "s"),
    ("self.stream_s", "s"),
    ("self.store_s", "s"),
    ("self.core_s", "s"),
    ("self.eval_s", "s"),
    ("self.wire_s", "s"),
    ("self.suggest_s", "s"),
    ("self.server_s", "s"),
    ("unaccounted_share", "ratio"),
    ("trace.overhead_ms", "ms"),
];

/// The layers self time is reported for (`self.<layer>_s`). `bench` is the
/// benchmark's own glue: its self time is the part of a pass no layer
/// accounts for.
pub const LAYERS: &[&str] = &[
    "bench", "corpus", "replay", "stream", "store", "core", "eval", "wire", "suggest", "server",
];

/// Per-layer values of one traced pass, by metric name.
pub type LayerValues = BTreeMap<String, f64>;

/// `a / b`, or 0 when there is nothing to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// An open measurement window: the obs registry and cache tiers as they
/// stood when it opened.
pub struct Window {
    obs: MetricsSnapshot,
    cache: TierStats,
}

/// What the program recorded between a window's opening and closing.
pub struct Delta {
    before: MetricsSnapshot,
    after: MetricsSnapshot,
    cache: TierStats,
}

impl Window {
    pub fn open() -> Window {
        Window {
            obs: obs::snapshot(),
            cache: tier_stats(),
        }
    }

    pub fn close(self) -> Delta {
        Delta {
            after: obs::snapshot(),
            cache: tier_stats().since(&self.cache),
            before: self.obs,
        }
    }
}

impl Delta {
    pub fn counter(&self, name: &str) -> f64 {
        let get = |s: &MetricsSnapshot| s.counters.get(name).copied().unwrap_or(0);
        get(&self.after).saturating_sub(get(&self.before)) as f64
    }

    /// Sum of a histogram's observations (busy seconds for `*_seconds`).
    pub fn hist_sum(&self, name: &str) -> f64 {
        let get = |s: &MetricsSnapshot| s.histograms.get(name).map_or(0.0, |h| h.sum);
        get(&self.after) - get(&self.before)
    }

    pub fn hist_count(&self, name: &str) -> f64 {
        let get = |s: &MetricsSnapshot| s.histograms.get(name).map_or(0, |h| h.count);
        get(&self.after).saturating_sub(get(&self.before)) as f64
    }

    /// Busy seconds of every span whose last path segment is `name`,
    /// wherever it sits in the span tree.
    pub fn span_busy_s(&self, name: &str) -> f64 {
        let total = |s: &MetricsSnapshot| -> u128 {
            s.spans
                .iter()
                .filter(|(path, _)| path.rsplit('/').next() == Some(name))
                .map(|(_, stat)| stat.nanos)
                .sum()
        };
        total(&self.after).saturating_sub(total(&self.before)) as f64 / 1e9
    }

    /// The `cache.*` and `features.*` metrics over the window.
    pub fn featurisation(&self, out: &mut LayerValues) {
        let hit_ratio = |s: CacheStats| s.hit_rate();
        out.insert(
            "cache.column.hit_ratio".into(),
            hit_ratio(self.cache.column),
        );
        out.insert("cache.tuple.hit_ratio".into(), hit_ratio(self.cache.tuple));
        out.insert("cache.pair.hit_ratio".into(), hit_ratio(self.cache.pair));
        out.insert(
            "cache.column.misses".into(),
            self.cache.column.misses as f64,
        );
        out.insert(
            "features.join_candidates".into(),
            self.counter("features.join_candidates"),
        );
        out.insert(
            "features.enumerate_s".into(),
            self.span_busy_s("enumerate_join_candidates"),
        );
    }

    /// The `replay.*` metrics over the window.
    pub fn replay(&self, out: &mut LayerValues) {
        let busy = self.hist_sum("replay.notebook_seconds");
        let cells = self.counter("replay.cells_executed");
        out.insert("replay.busy_s".into(), busy);
        out.insert("replay.notebooks".into(), self.counter("replay.notebooks"));
        out.insert("replay.cells_executed".into(), cells);
        out.insert(
            "replay.cell_retries".into(),
            self.counter("replay.cell_retries"),
        );
        out.insert("replay.us_per_cell".into(), ratio(busy * 1e6, cells));
    }
}

/// Self seconds per layer and the unaccounted share of a finished tracer
/// rooted at `root`, as `self.<layer>_s` and `unaccounted_share`. The
/// spans themselves go to stderr, grouped by call.
pub fn self_times(tracer: &crate::stats::Tracer, root: usize, out: &mut LayerValues) {
    eprintln!("perfbench: spans by self time:   layer    calls  inclusive_s  self_s  name");
    for g in tracer.by_name() {
        eprintln!(
            "perfbench: {:>22} {:>8} {:>12.4} {:>7.4}  {}",
            g.layer, g.calls, g.inclusive, g.own, g.name
        );
    }
    let (per_layer, unaccounted) = tracer.layer_self_times(root);
    for layer in LAYERS {
        let secs = per_layer
            .iter()
            .find(|(l, _)| l == layer)
            .map_or(0.0, |(_, s)| *s);
        out.insert(format!("self.{layer}_s"), secs);
    }
    debug_assert!(
        per_layer.iter().all(|(l, _)| LAYERS.contains(l)),
        "a span names an unlisted layer"
    );
    out.insert("unaccounted_share".into(), unaccounted);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &serde_json::Value) -> Vec<(String, String)> {
        list.as_array()
            .expect("a list of metrics")
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(|v| v.as_str())
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let want: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names(doc.get("per_layer").unwrap()), want);
        let want: Vec<(String, String)> = crate::END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names(doc.get("end_to_end").unwrap()), want);
    }

    #[test]
    fn every_layer_has_a_self_time_metric() {
        for layer in LAYERS {
            let name = format!("self.{layer}_s");
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name} missing");
        }
    }
}
