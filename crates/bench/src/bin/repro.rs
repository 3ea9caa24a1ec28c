//! `repro` — regenerate every table of the Auto-Suggest evaluation.
//!
//! ```text
//! repro [--fast] [--seed N] [--timing] [--trace PATH] [--cache-stats]
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
//! exercise exactly that). With `--timing`, BENCH_repro.json gets a
//! `"corpus_scale"` section including the peak-RSS gauge.
//!
//! `--fast` uses the small test-scale corpus (seconds instead of minutes);
//! the default corpus is the full ~1:40-scale generation DESIGN.md
//! describes. Output prints each reproduced table next to the paper's
//! reported numbers.
//!
//! `--timing` additionally writes `BENCH_repro.json` to the current
//! directory with per-stage pipeline timings, per-table wall-clock,
//! per-stage histograms from the obs layer, the thread count used
//! (see `AUTOSUGGEST_THREADS`), and a `"training"` breakdown (RNN and
//! GBDT trainer wall-clock plus deterministic work counters: examples
//! trained, nodes split).
//!
//! `--trace PATH` writes the full observability trace: the span tree
//! (generate/replay/train/evaluate, down to per-notebook replay), every
//! counter and gauge, and timing histograms. The `"deterministic"`
//! section is byte-identical at any `AUTOSUGGEST_THREADS`; only the
//! `"timing"` section varies run to run.
//!
//! `--cache-stats` prints the content-addressed cache's cumulative
//! per-tier counters after the run — column artifacts, key-tuple sets,
//! pair overlaps, and the optional disk shard store
//! (`AUTOSUGGEST_CACHE_DIR` attaches the disk tier). With `--timing`,
//! BENCH_repro.json additionally gains a `"cache"` section with per-tier
//! counters and an off/cold/warm/disk-warm featurisation sweep over the
//! held-out tables (a throwaway shard directory is attached for the
//! sweep when none is configured).
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

/// The featurisation workload for the cache sweep: enumerate join
/// candidates for every held-out join case, extract join features for the
/// full candidate pool (exercising the pair/tuple tiers), and score every
/// held-out groupby table. Returns a work count so the sweep phases can
/// assert they did identical work.
fn featurise_workload(ctx: &ReproContext) -> usize {
    let params = &ctx.system.config.candidates;
    let mut work = 0usize;
    for inv in &ctx.system.test.join {
        if inv.inputs.len() >= 2 {
            let cands = autosuggest_features::enumerate_join_candidates(
                &inv.inputs[0],
                &inv.inputs[1],
                params,
            );
            work +=
                autosuggest_features::join_features_batch(&inv.inputs[0], &inv.inputs[1], &cands)
                    .len();
        }
    }
    if let Some(gb) = &ctx.system.models.groupby {
        for inv in &ctx.system.test.groupby {
            if !inv.inputs.is_empty() {
                work += gb.scores(&inv.inputs[0]).len();
            }
        }
    }
    work
}

/// The `--corpus-scale N` mode: streamed generate + replay of an
/// N-notebook corpus at bounded RSS, resumable via the store's shard
/// manifest. Stdout carries only the deterministic per-scenario stats
/// (CI byte-diffs it across thread counts and resume boundaries);
/// wall-clock and RSS go to stderr and, with `--timing`, into the
/// `"corpus_scale"` section of BENCH_repro.json.
fn run_corpus_scale(
    scale: usize,
    seed: u64,
    shard_size: usize,
    store_dir: Option<String>,
    timing: bool,
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
    let total_seconds = t0.elapsed().as_secs_f64();

    if timing {
        let report = json!({
            "threads": threads,
            "seed": seed,
            "corpus_scale": {
                "requested_notebooks": scale,
                "notebooks": summary.notebooks,
                "invocations": summary.invocations,
                "shard_size": shard_size,
                "total_shards": summary.total_shards,
                "shards_replayed": summary.shards_replayed,
                "shards_resumed": summary.shards_resumed,
                "aborted": summary.aborted,
                "replay_seconds": replay_seconds,
                "total_seconds": total_seconds,
                "peak_rss_bytes": peak_rss,
            },
        });
        let path = "BENCH_repro.json";
        match std::fs::write(path, report.to_string()) {
            Ok(()) => eprintln!("[repro] wrote {path} ({total_seconds:.1}s total)"),
            Err(e) => eprintln!("[repro] failed to write {path}: {e}"),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut fast = false;
    let mut timing = false;
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
            "--timing" => timing = true,
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
        run_corpus_scale(scale, seed, shard_size, store_dir, timing);
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
    let (ctx, stage_timings) = ReproContext::build_timed(config);
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

    // Evaluate the selected tables across the pool; each task returns its
    // rendered output plus its own wall-clock so concurrency doesn't blur
    // per-table attribution.
    let selected: Vec<&(&str, TableFn)> = TABLES
        .iter()
        .filter(|(name, _)| all || targets.iter().any(|t| t == name))
        .collect();
    let eval_span = obs::span("evaluate");
    let results: Vec<(String, f64)> = autosuggest_parallel::par_map(&selected, |(name, f)| {
        let _table_span = obs::span(&format!("table:{name}"));
        let start = Instant::now();
        let out = f(&ctx);
        let secs = start.elapsed().as_secs_f64();
        obs::observe("evaluate.table_seconds", secs);
        (out, secs)
    });
    drop(eval_span);
    for (out, _) in &results {
        println!("{out}");
    }
    let total_seconds = t0.elapsed().as_secs_f64();
    drop(repro_span);
    let snapshot = obs::snapshot();

    // Cache counters accumulated by the run so far (training + table
    // evaluation). Snapshotted before the timing sweep below so the sweep's
    // own lookups don't pollute the run's numbers.
    let cache = autosuggest_cache::ColumnCache::global();
    let pair_cache = autosuggest_cache::PairCache::global();
    let run_tiers = autosuggest_cache::tier_stats();
    let run_stats = run_tiers.column;
    if cache_stats {
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
        let meta = json!({"threads": threads, "fast": fast, "seed": seed});
        match obs::TraceSink::write(std::path::Path::new(path), &snapshot, meta) {
            Ok(()) => eprintln!("[repro] wrote trace to {path}"),
            Err(e) => eprintln!("[repro] failed to write trace {path}: {e}"),
        }
    }

    if timing {
        let stages: Vec<Value> = stage_timings
            .iter()
            .map(|t| json!({"stage": t.stage, "seconds": t.seconds}))
            .collect();
        let table_times: Vec<Value> = selected
            .iter()
            .zip(&results)
            .map(|((name, _), (_, secs))| json!({"name": *name, "seconds": *secs}))
            .collect();
        let per_kind: Vec<Value> = autosuggest_corpus::ReplayErrorKind::ALL
            .iter()
            .map(|&k| {
                let c = rb.kind(k);
                json!({
                    "kind": k.as_str(),
                    "injected": c.injected,
                    "failures": c.failures,
                    "retries": c.retries,
                    "recovered": c.recovered,
                    "quarantined": c.quarantined,
                })
            })
            .collect();
        let robustness = json!({
            "fault_spec": rb.fault_spec.clone().map(Value::String).unwrap_or(Value::Null),
            "notebooks": rb.notebooks,
            "failed_first_pass": rb.failed_first_pass,
            "retried_notebooks": rb.retried_notebooks,
            "recovered_notebooks": rb.recovered_notebooks,
            "quarantined_notebooks": rb.quarantined_notebooks,
            "cell_retries": rb.cell_retries,
            "total_injected": rb.total_injected(),
            "kinds": Value::Array(per_kind),
        });
        // Per-stage histograms (pipeline.*_seconds, replay.notebook_seconds,
        // gbdt.split_scan_seconds, evaluate.table_seconds) from the obs
        // layer's timing view.
        let histograms = snapshot
            .timing_value()
            .get("histograms")
            .cloned()
            .unwrap_or(Value::Object(serde_json::Map::new()));
        // Training-kernel breakdown: trainer wall-clock comes from the
        // timing histograms the trainers record; the work counters
        // (examples, nodes) come from the deterministic section, so
        // they are bit-identical at any thread count.
        let hist = |name: &str| snapshot.histograms.get(name);
        let hist_sum = |name: &str| hist(name).map(|h| h.sum).unwrap_or(0.0);
        let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
        let training = json!({
            "rnn": {
                "train_seconds": hist_sum("nextop.rnn_train_seconds"),
                "examples_trained": counter("nn.rnn.examples_trained"),
            },
            "gbdt": {
                "fit_seconds": hist_sum("gbdt.fit_seconds"),
                "split_scan_seconds": hist_sum("gbdt.split_scan_seconds"),
                "fits": hist("gbdt.fit_seconds").map(|h| h.count).unwrap_or(0),
                "nodes_split": counter("gbdt.nodes_split"),
            },
        });
        // Cache timing comparison: the same featurisation workload (join
        // candidate enumeration + groupby scoring over the held-out tables)
        // is run four times — cache disabled, enabled-but-cold,
        // enabled-and-warm, and disk-warm (memory cleared, shards kept).
        // Runs after the obs snapshot so the deterministic trace section is
        // unaffected. When no AUTOSUGGEST_CACHE_DIR is configured, a
        // throwaway directory is attached for the sweep so the disk-warm
        // phase is always measured, then detached and removed.
        let had_disk = cache.disk().is_some();
        let tmp_disk_dir = if had_disk {
            None
        } else {
            let dir = std::env::temp_dir()
                .join(format!("autosuggest-sweep-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            match autosuggest_cache::DiskCache::open(
                &dir,
                autosuggest_cache::DEFAULT_DISK_BUDGET,
            ) {
                Ok(d) => {
                    autosuggest_cache::attach_disk(Some(d));
                    Some(dir)
                }
                Err(e) => {
                    eprintln!("[repro] sweep disk tier unavailable ({e}); skipping disk-warm");
                    None
                }
            }
        };
        autosuggest_cache::set_all_enabled(false);
        let t = Instant::now();
        let work_off = featurise_workload(&ctx);
        let off_seconds = t.elapsed().as_secs_f64();
        autosuggest_cache::set_all_enabled(true);
        autosuggest_cache::clear_memory();
        let before_cold = autosuggest_cache::tier_stats();
        let t = Instant::now();
        let work_cold = featurise_workload(&ctx);
        let cold_seconds = t.elapsed().as_secs_f64();
        let cold_tiers = autosuggest_cache::tier_stats();
        let t = Instant::now();
        let work_warm = featurise_workload(&ctx);
        let warm_seconds = t.elapsed().as_secs_f64();
        let warm_tiers = autosuggest_cache::tier_stats().since(&cold_tiers);
        // Disk-warm: drop every in-memory entry; shards written during the
        // cold phase satisfy the misses without recomputation.
        autosuggest_cache::clear_memory();
        let before_disk_warm = autosuggest_cache::tier_stats();
        let t = Instant::now();
        let work_disk = featurise_workload(&ctx);
        let disk_warm_seconds = t.elapsed().as_secs_f64();
        let disk_tiers = autosuggest_cache::tier_stats().since(&before_disk_warm);
        if let Some(dir) = &tmp_disk_dir {
            autosuggest_cache::attach_disk(autosuggest_cache::default_disk());
            let _ = std::fs::remove_dir_all(dir);
        }
        assert_eq!(work_off, work_cold);
        assert_eq!(work_off, work_warm);
        assert_eq!(work_off, work_disk);
        let tier_json = |s: autosuggest_cache::CacheStats| {
            json!({"hits": s.hits, "misses": s.misses, "evictions": s.evictions,
                   "hit_rate": s.hit_rate()})
        };
        let disk_json = |d: autosuggest_cache::DiskStats| {
            json!({"hits": d.hits, "misses": d.misses, "evictions": d.evictions,
                   "corrupt": d.corrupt, "writes": d.writes, "hit_rate": d.hit_rate()})
        };
        let cache_report = json!({
            "run": {
                "hits": run_stats.hits,
                "misses": run_stats.misses,
                "evictions": run_stats.evictions,
                "hit_rate": run_stats.hit_rate(),
            },
            "tiers": {
                "column": tier_json(run_tiers.column),
                "tuple": tier_json(run_tiers.tuple),
                "pair": tier_json(run_tiers.pair),
                "disk": disk_json(run_tiers.disk),
            },
            "sweep": {
                "workload_units": work_off as u64,
                "off_seconds": off_seconds,
                "cold_seconds": cold_seconds,
                "warm_seconds": warm_seconds,
                "disk_warm_seconds": disk_warm_seconds,
                "warm_speedup_vs_off": if warm_seconds > 0.0 { off_seconds / warm_seconds } else { 0.0 },
                "disk_warm_speedup_vs_cold": if disk_warm_seconds > 0.0 { cold_seconds / disk_warm_seconds } else { 0.0 },
                "warm_hit_rate": warm_tiers.column.hit_rate(),
                "cold": {
                    "column": tier_json(cold_tiers.column.since(&before_cold.column)),
                    "tuple": tier_json(cold_tiers.tuple.since(&before_cold.tuple)),
                    "pair": tier_json(cold_tiers.pair.since(&before_cold.pair)),
                    "disk": disk_json(cold_tiers.disk.since(&before_cold.disk)),
                },
                "warm": {
                    "column": tier_json(warm_tiers.column),
                    "tuple": tier_json(warm_tiers.tuple),
                    "pair": tier_json(warm_tiers.pair),
                    "disk": disk_json(warm_tiers.disk),
                },
                "disk_warm": {
                    "column": tier_json(disk_tiers.column),
                    "tuple": tier_json(disk_tiers.tuple),
                    "pair": tier_json(disk_tiers.pair),
                    "disk": disk_json(disk_tiers.disk),
                },
            },
        });
        eprintln!(
            "[repro] cache sweep: off {off_seconds:.3}s, cold {cold_seconds:.3}s, warm {warm_seconds:.3}s, disk-warm {disk_warm_seconds:.3}s (warm hit rate {:.1}%, disk-warm disk hit rate {:.1}%)",
            warm_tiers.column.hit_rate() * 100.0,
            disk_tiers.disk.hit_rate() * 100.0,
        );

        let report = json!({
            "threads": threads,
            "fast": fast,
            "seed": seed,
            "train_seconds": train_seconds,
            "total_seconds": total_seconds,
            "stages": Value::Array(stages),
            "tables": Value::Array(table_times),
            "histograms": histograms,
            "training": training,
            "robustness": robustness,
            "cache": cache_report,
        });
        let path = "BENCH_repro.json";
        match std::fs::write(path, report.to_string()) {
            Ok(()) => eprintln!("[repro] wrote {path} ({total_seconds:.1}s total, {threads} threads)"),
            Err(e) => eprintln!("[repro] failed to write {path}: {e}"),
        }
    }
}
