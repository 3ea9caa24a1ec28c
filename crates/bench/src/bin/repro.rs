//! `repro` — regenerate every table of the Auto-Suggest evaluation.
//!
//! ```text
//! repro [--fast] [--seed N] [--trace PATH] [--cache-stats]
//!       [--corpus-scale N] [--store-dir PATH] [--shard-size K]
//!       all | table2 | table3 | table4 | table5 | table6 | table7 |
//!       table8 | table9 | table10 | table11 | ablation-ampt |
//!       ablation-cmut | ablation-join
//! ```
//!
//! `--corpus-scale N` is a standalone mode: instead of training, it
//! generates and replays an N-notebook corpus (default archetype mix)
//! through the disk-backed streamed pipeline — shard by shard into a
//! `SampleStore` under `--store-dir` (default: a seed/scale-keyed
//! directory under the system temp dir) — then streams the store back to
//! print deterministic per-scenario replay stats on stdout (byte-identical
//! at any `AUTOSUGGEST_THREADS`). Memory stays bounded by `--shard-size`
//! notebooks, not by N. A killed run resumes from the store's shard
//! manifest (`AUTOSUGGEST_SCALE_ABORT=K` stops after K new shards, to
//! exercise exactly that).
//!
//! `--fast` uses the small test-scale corpus (seconds instead of minutes);
//! the default corpus is the full ~1:40-scale generation DESIGN.md
//! describes. Output prints each reproduced table next to the paper's
//! reported numbers. Speed is measured by `perfbench`, not here.
//!
//! `--trace PATH` writes the observability trace, `repro`'s one
//! machine-readable output, in either mode: the span tree
//! (generate/replay/train/evaluate, down to per-notebook replay), every
//! counter and gauge, and timing histograms. The `"deterministic"`
//! section is byte-identical at any `AUTOSUGGEST_THREADS`; only the
//! `"timing"` section (histograms, span nanos, and gauges such as
//! `stream.peak_rss_bytes_live`) varies run to run.
//!
//! `--cache-stats` prints the content-addressed cache's cumulative
//! per-tier counters after the run — column artifacts, key-tuple sets,
//! pair overlaps, and the optional disk shard store
//! (`AUTOSUGGEST_CACHE_DIR` attaches the disk tier).
//!
//! Tables are evaluated concurrently on the shared work-stealing pool —
//! each evaluator is a pure function of the trained context, so results
//! are printed in canonical table order regardless of completion order.

use autosuggest_bench::tables::{self, ReproContext};
use autosuggest_core::AutoSuggestConfig;
use autosuggest_corpus::CorpusConfig;
use autosuggest_obs as obs;
use serde_json::{json, Value};
use std::time::Instant;

type TableFn = fn(&ReproContext) -> String;

/// Canonical (name, evaluator) registry, in print order.
const TABLES: &[(&str, TableFn)] = &[
    ("table2", tables::table2::run),
    ("table3", tables::table3::run),
    ("table4", tables::table4::run),
    ("table5", tables::table5::run),
    ("table6", tables::table6::run),
    ("table7", tables::table6::run_importance),
    ("table8", tables::table8::run),
    ("table9", tables::table9::run),
    ("table10", tables::table10::run),
    ("table11", tables::table11::run),
    ("ablation-ampt", tables::ablations::ampt),
    ("ablation-cmut", tables::ablations::cmut),
    ("ablation-join", tables::ablations::join_knockout),
];

/// The `--corpus-scale N` mode: streamed generate + replay of an
/// N-notebook corpus at bounded RSS, resumable via the store's shard
/// manifest. Stdout carries only the deterministic per-scenario stats
/// (CI byte-diffs it across thread counts and resume boundaries);
/// wall-clock and RSS go to stderr, and the shard counters and the
/// peak-RSS gauge into the `--trace` document.
fn run_corpus_scale(
    scale: usize,
    seed: u64,
    shard_size: usize,
    store_dir: Option<String>,
    trace_path: Option<&str>,
) {
    let threads = autosuggest_parallel::current_threads();
    let cfg = CorpusConfig::scaled_to(seed, scale);
    let faults = autosuggest_corpus::FaultSpec::from_env();
    let root = store_dir.map(std::path::PathBuf::from).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("autosuggest-scale-{seed}-{scale}"))
    });
    let abort_after = std::env::var("AUTOSUGGEST_SCALE_ABORT")
        .ok()
        .and_then(|s| s.parse::<usize>().ok());
    let opts = autosuggest_corpus::StreamConfig { shard_size, abort_after_shards: abort_after };
    eprintln!(
        "[repro] corpus-scale: {scale} notebooks, shard size {shard_size}, store {}, threads {threads}",
        root.display()
    );

    let t0 = Instant::now();
    let (store, summary) =
        match autosuggest_corpus::replay_corpus_streamed(&cfg, faults, &root, &opts) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("[repro] corpus-scale replay failed: {e}");
                std::process::exit(1);
            }
        };
    let replay_seconds = t0.elapsed().as_secs_f64();
    let peak_rss = obs::peak_rss_bytes().unwrap_or(0);
    obs::gauge_set("stream.peak_rss_bytes_live", peak_rss as f64);
    eprintln!(
        "[repro] corpus-scale: {} shards ({} replayed now, {} resumed from manifest{}), {} notebooks, {} invocations in {replay_seconds:.1}s, peak RSS {:.1} MiB",
        summary.total_shards,
        summary.shards_replayed,
        summary.shards_resumed,
        if summary.aborted { ", aborted early" } else { "" },
        summary.notebooks,
        summary.invocations,
        peak_rss as f64 / (1024.0 * 1024.0),
    );

    // Deterministic stdout: per-scenario replay slices streamed back out
    // of the store, one shard in memory at a time.
    match autosuggest_corpus::scan_scenario_stats(&store) {
        Ok(stats) => print!("{}", autosuggest_corpus::stream::render_scenario_stats(&stats)),
        Err(e) => {
            eprintln!("[repro] corpus-scale stats scan failed: {e}");
            std::process::exit(1);
        }
    }
    if let Some(path) = trace_path {
        let meta = json!({"threads": threads, "seed": seed, "corpus_scale": scale});
        write_trace(path, &obs::snapshot(), meta);
    }
}

fn write_trace(path: &str, snapshot: &obs::MetricsSnapshot, meta: Value) {
    match obs::TraceSink::write(std::path::Path::new(path), snapshot, meta) {
        Ok(()) => eprintln!("[repro] wrote trace to {path}"),
        Err(e) => eprintln!("[repro] failed to write trace {path}: {e}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut fast = false;
    let mut cache_stats = false;
    let mut seed = 42u64;
    let mut trace_path: Option<String> = None;
    let mut corpus_scale: Option<usize> = None;
    let mut store_dir: Option<String> = None;
    let mut shard_size = 256usize;
    let mut targets: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fast" => fast = true,
            "--cache-stats" => cache_stats = true,
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--seed takes an integer");
            }
            "--trace" => {
                trace_path = Some(it.next().expect("--trace takes a file path"));
            }
            "--corpus-scale" => {
                corpus_scale = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .expect("--corpus-scale takes a notebook count"),
                );
            }
            "--store-dir" => {
                store_dir = Some(it.next().expect("--store-dir takes a directory path"));
            }
            "--shard-size" => {
                shard_size = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--shard-size takes an integer");
            }
            other => targets.push(other.to_string()),
        }
    }
    if let Some(scale) = corpus_scale {
        run_corpus_scale(scale, seed, shard_size, store_dir, trace_path.as_deref());
        return;
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    let all = targets.iter().any(|t| t == "all");
    for t in &targets {
        if t != "all" && !TABLES.iter().any(|(name, _)| name == t) {
            eprintln!("[repro] unknown target {t:?}");
            std::process::exit(2);
        }
    }

    let mut config = if fast {
        AutoSuggestConfig::fast(seed)
    } else {
        AutoSuggestConfig::default()
    };
    config.corpus = if fast { CorpusConfig::small(seed) } else { CorpusConfig { seed, ..CorpusConfig::default() } };

    let threads = autosuggest_parallel::current_threads();
    eprintln!(
        "[repro] generating corpus, replaying notebooks, training models (fast={fast}, seed={seed}, threads={threads})..."
    );
    let repro_span = obs::span("repro");
    let t0 = Instant::now();
    let ctx = ReproContext::build(config);
    let train_seconds = t0.elapsed().as_secs_f64();
    let rb = &ctx.system.robustness;
    if let Some(spec) = &rb.fault_spec {
        eprintln!(
            "[repro] fault injection active ({spec}): {} faults injected, {}/{} notebooks failed first pass, {} recovered on retry, {} quarantined, {} cell retries",
            rb.total_injected(),
            rb.failed_first_pass,
            rb.notebooks,
            rb.recovered_notebooks,
            rb.quarantined_notebooks,
            rb.cell_retries,
        );
    }
    eprintln!(
        "[repro] pipeline trained in {train_seconds:.1}s: {} join / {} groupby / {} pivot / {} melt test cases, {} next-op queries",
        ctx.system.test.join.len(),
        ctx.system.test.groupby.len(),
        ctx.system.test.pivot.len(),
        ctx.system.test.melt.len(),
        ctx.system.test.nextop.len(),
    );

    // Evaluate the selected tables across the pool; each task records its
    // own wall-clock so concurrency doesn't blur per-table attribution.
    let selected: Vec<&(&str, TableFn)> = TABLES
        .iter()
        .filter(|(name, _)| all || targets.iter().any(|t| t == name))
        .collect();
    let eval_span = obs::span("evaluate");
    let results: Vec<String> = autosuggest_parallel::par_map(&selected, |(name, f)| {
        let _table_span = obs::span(&format!("table:{name}"));
        let start = Instant::now();
        let out = f(&ctx);
        obs::observe("evaluate.table_seconds", start.elapsed().as_secs_f64());
        out
    });
    drop(eval_span);
    for out in &results {
        println!("{out}");
    }
    drop(repro_span);
    let snapshot = obs::snapshot();

    if cache_stats {
        // Cache counters accumulated by the run (training + table evaluation).
        let cache = autosuggest_cache::ColumnCache::global();
        let pair_cache = autosuggest_cache::PairCache::global();
        let run_tiers = autosuggest_cache::tier_stats();
        let fmt = |s: autosuggest_cache::CacheStats| {
            format!(
                "{} hits / {} misses / {} evictions (hit rate {:.1}%)",
                s.hits,
                s.misses,
                s.evictions,
                s.hit_rate() * 100.0
            )
        };
        eprintln!(
            "[repro] cache column: enabled={} {}, {} interned columns",
            cache.enabled(),
            fmt(run_tiers.column),
            cache.len(),
        );
        let (tuple_len, pair_len) = pair_cache.len();
        eprintln!(
            "[repro] cache tuple:  enabled={} {}, {tuple_len} interned tuple sets",
            pair_cache.enabled(),
            fmt(run_tiers.tuple),
        );
        eprintln!(
            "[repro] cache pair:   {}, {pair_len} memoized overlaps",
            fmt(run_tiers.pair)
        );
        let d = run_tiers.disk;
        // "effective hit rate" counts corrupt reads as failed lookups
        // (hits / (hits + misses + corrupt)) — see DiskStats::hit_rate.
        eprintln!(
            "[repro] cache disk:   attached={} {} hits / {} misses / {} corrupt / {} writes / {} evictions (effective hit rate {:.1}%)",
            cache.disk().is_some(),
            d.hits,
            d.misses,
            d.corrupt,
            d.writes,
            d.evictions,
            d.hit_rate() * 100.0,
        );
    }

    if let Some(path) = &trace_path {
        write_trace(path, &snapshot, json!({"threads": threads, "fast": fast, "seed": seed}));
    }
}
