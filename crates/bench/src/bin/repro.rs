//! `repro` — regenerate every table of the Auto-Suggest evaluation.
//!
//! ```text
//! repro [--fast] [--seed N] [--trace PATH] [--check-determinism N]
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
//! manifest.
//!
//! `AUTOSUGGEST_FAULTS` (grammar in `autosuggest_corpus::faults`) injects
//! seeded replay faults in either mode; it is read once, here.
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
//! `--check-determinism N` runs the selected mode twice in this process,
//! at 1 thread and at N (`autosuggest_bench::determinism`), and exits 1
//! with the first difference: in the printed tables, the replay log, the
//! robustness stats, the golden rows, the trained-model scores or the
//! deterministic trace section, and in corpus-scale mode also every shard
//! file and the manifest of two fresh temporary stores. It prints no tables and writes
//! no trace.
//!
//! Tables are evaluated concurrently on the shared work-stealing pool —
//! each evaluator is a pure function of the trained context, so results
//! are printed in canonical table order regardless of completion order.

use autosuggest_bench::determinism::{self, Workload};
use autosuggest_bench::tables::{self, ReproContext, TABLES};
use autosuggest_corpus::{CorpusConfig, FaultSpec};
use autosuggest_obs as obs;
use serde_json::{json, Value};
use std::time::Instant;

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
    faults: Option<FaultSpec>,
) {
    let threads = autosuggest_parallel::current_threads();
    let cfg = CorpusConfig::scaled_to(seed, scale);
    let root = store_dir.map(std::path::PathBuf::from).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("autosuggest-scale-{seed}-{scale}"))
    });
    let opts = autosuggest_corpus::StreamConfig { shard_size, ..Default::default() };
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
    let mut check_threads: Option<usize> = None;
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
            "--check-determinism" => {
                check_threads = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n > 0)
                        .expect("--check-determinism takes a thread count"),
                );
            }
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
    let faults = FaultSpec::from_env();
    if let (Some(threads), Some(scale)) = (check_threads, corpus_scale) {
        let corpus = CorpusConfig::scaled_to(seed, scale);
        check(&Workload::CorpusScale { corpus, faults, shard_size }, threads);
        return;
    }
    if let Some(scale) = corpus_scale {
        run_corpus_scale(scale, seed, shard_size, store_dir, trace_path.as_deref(), faults);
        return;
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    for t in &targets {
        if t != "all" && !TABLES.iter().any(|(name, _)| name == t) {
            eprintln!("[repro] unknown target {t:?}");
            std::process::exit(2);
        }
    }

    let mut config = tables::repro_config(fast, seed);
    config.faults = faults;
    if let Some(threads) = check_threads {
        check(&Workload::Tables { config, targets }, threads);
        return;
    }

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

    print!("{}", tables::evaluate(&ctx, &targets));
    drop(repro_span);

    if let Some(path) = &trace_path {
        write_trace(path, &obs::snapshot(), json!({"threads": threads, "fast": fast, "seed": seed}));
    }
}

/// `--check-determinism`: run `workload` at 1 thread and at `threads`;
/// exit 1 with the first difference.
fn check(workload: &Workload, threads: usize) {
    eprintln!("[repro] checking determinism at 1 vs {threads} threads...");
    match determinism::check(workload, threads) {
        Ok(_) => eprintln!("[repro] identical at 1 and {threads} threads"),
        Err(diff) => {
            eprintln!("[repro] 1 vs {threads} threads differ at {diff}");
            std::process::exit(1);
        }
    }
}
