//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload train-eval|replay-stream|serve|all
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every pass of a workload runs in a child process of its own (the column
//! and pair caches, the obs registry and the peak-RSS counter are all
//! process-wide), with the ambient knobs that change the measured program
//! removed from its environment. The parent prints each figure by name
//! with its unit, then, as its last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones (`END_TO_END`); with `--trace 1` the
//! per-layer ones (`layers::PER_LAYER`), read from one traced pass and
//! compared with one untraced pass for the tracing overhead.
//!
//! `train-eval` and `replay-stream` make `MIN_PASSES` passes, more if
//! `--seconds` allows; `serve` makes one pass whose session count is sized
//! from `--seconds`. Run it from the repository root: `replay-stream` keeps
//! its sample stores under `.perfbench_tmp/` there and removes them.

mod layers;
mod pass;
mod replay_stream;
mod serve;
mod session;
mod stats;
mod train_eval;

use pass::Pass;
use serde_json::{json, Value};
use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 3] = ["train-eval", "replay-stream", "serve"];

/// End-to-end metrics as `(name, unit)`, reported by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("items_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("quality", "ratio"),
];

/// Ambient settings that change the measured program: fault injection,
/// cache switches and disk tier, per-request span paths, early abort of
/// streamed replay. Passes run without them and refuse to run with them.
const KNOBS: [&str; 5] = [
    "AUTOSUGGEST_FAULTS",
    "AUTOSUGGEST_CACHE",
    "AUTOSUGGEST_CACHE_DIR",
    "AUTOSUGGEST_TRACE_REQUESTS",
    "AUTOSUGGEST_SCALE_ABORT",
];

/// Passes of `train-eval` and `replay-stream` per untraced run.
const MIN_PASSES: usize = 3;
/// Wall-clock budget of one workload's run, all its passes included.
const RUN_LIMIT: Duration = Duration::from_secs(170);
const SCRATCH: &str = ".perfbench_tmp";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run one pass in this process (the orchestrator's children).
    pass: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        pass: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--pass" => args.pass = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.workload == "all" || WORKLOADS.contains(&args.workload.as_str())) {
        return Err(format!(
            "--workload takes one of {WORKLOADS:?} or \"all\", not {:?}",
            args.workload
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.pass {
        return run_pass(&args);
    }
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut results = Vec::new();
    for w in workloads {
        match run_workload(w, &args) {
            Ok(r) => results.push((w, r)),
            Err(e) => {
                eprintln!("perfbench: {w}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let _ = std::fs::remove_dir(SCRATCH);
    let line = if let [(_, only)] = results.as_slice() {
        only.clone()
    } else {
        // `all`: one object, metrics keyed `<workload>/<metric>`.
        let mut metrics = serde_json::Map::new();
        for (w, r) in &results {
            for (name, m) in r
                .get("metrics")
                .and_then(Value::as_object)
                .into_iter()
                .flatten()
            {
                metrics.insert(format!("{w}/{name}"), m.clone());
            }
        }
        let sum = |k: &str| {
            results
                .iter()
                .filter_map(|(_, r)| r.get(k).and_then(Value::as_i64))
                .sum::<i64>()
        };
        let correct = results
            .iter()
            .all(|(_, r)| r.get("correct").and_then(Value::as_bool) == Some(true));
        json!({"correct": correct, "attempted": sum("attempted"), "failed": sum("failed"), "metrics": Value::Object(metrics)})
    };
    println!("{line}");
    ExitCode::SUCCESS
}

/// One pass in this process; its result goes to stdout as one JSON line.
fn run_pass(args: &Args) -> ExitCode {
    if let Some(knob) = KNOBS.iter().find(|k| std::env::var_os(k).is_some()) {
        eprintln!("perfbench: refusing to measure with {knob} set");
        return ExitCode::FAILURE;
    }
    let scratch = PathBuf::from(SCRATCH).join(std::process::id().to_string());
    let pass = match args.workload.as_str() {
        "train-eval" => train_eval::pass(args.seed, args.trace),
        "replay-stream" => replay_stream::pass(args.seed, args.trace, &scratch),
        "serve" => serve::pass(args.seed, args.seconds, args.trace),
        other => unreachable!("parse_args admits only known workloads, not {other:?}"),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    for note in &pass.notes {
        eprintln!("perfbench: {}: {note}", args.workload);
    }
    println!("{}", pass.to_json());
    ExitCode::SUCCESS
}

/// Run one pass of `workload` in a child process and read its result.
fn spawn_pass(workload: &str, args: &Args, trace: bool, deadline: Instant) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--pass",
        "--workload",
        workload,
        "--seed",
        &args.seed.to_string(),
    ])
    .args([
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ])
    .stdin(Stdio::null())
    .stdout(Stdio::piped())
    .stderr(Stdio::inherit());
    for knob in KNOBS {
        cmd.env_remove(knob);
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawning a pass: {e}"))?;
    let mut stdout = child.stdout.take().ok_or("child has no stdout")?;
    // Drain stdout while the child runs, so a long result line cannot fill
    // the pipe and stall it.
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() >= deadline => {
                break Err("the pass ran out of time".to_string())
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => break Err(format!("waiting for a pass: {e}")),
        }
    };
    if status.is_err() {
        let _ = child.kill();
        let _ = child.wait();
    }
    let text = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string())?;
    let status = status?;
    let text = text.map_err(|e| format!("reading a pass's output: {e}"))?;
    if !status.success() {
        return Err(format!("a pass exited with {status}"));
    }
    let line = text.lines().last().ok_or("a pass printed nothing")?;
    let value = serde_json::from_str(line).map_err(|e| format!("a pass printed bad JSON: {e}"))?;
    Pass::from_json(&value)
}

/// Run `workload`'s passes, print its figures, and return its result object.
fn run_workload(workload: &str, args: &Args) -> Result<Value, String> {
    let deadline = Instant::now() + RUN_LIMIT;
    let threads = autosuggest_parallel::current_threads();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench {workload}: seed {} nproc {nproc} threads {threads} seconds {} trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let started = Instant::now();
    let cpu_before = host_cpu_ticks();
    let passes: Vec<Pass> = if args.trace {
        vec![
            spawn_pass(workload, args, false, deadline)?,
            spawn_pass(workload, args, true, deadline)?,
        ]
    } else {
        let mut passes = Vec::new();
        loop {
            passes.push(spawn_pass(workload, args, false, deadline)?);
            let enough =
                passes.len() >= MIN_PASSES && started.elapsed().as_secs_f64() >= args.seconds;
            if workload == "serve" || enough {
                break;
            }
        }
        passes
    };
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();

    // A traced run reports its traced pass.
    print_report(&passes[usize::from(args.trace)..]);
    let mut metrics = serde_json::Map::new();
    let mut put = |name: &str, value: f64, unit: &str| {
        println!("  {name:<28} {value:>14.6} {unit}");
        metrics.insert(name.to_string(), json!({"value": value, "unit": unit}));
    };
    if args.trace {
        let (plain, traced) = (&passes[0], &passes[1]);
        for (name, unit) in layers::PER_LAYER {
            let value = match *name {
                "trace.overhead_ms" => traced.overhead_basis_ms - plain.overhead_basis_ms,
                _ => traced.layers.get(*name).copied().unwrap_or(0.0),
            };
            put(name, value, unit);
        }
    } else {
        let all = |f: fn(&Pass) -> &[f64]| passes.iter().flat_map(f).copied().collect::<Vec<f64>>();
        let each = |f: fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
        let ops = all(|p| &p.op_ms);
        let p50 = stats::percentile(&ops, 50.0).ok_or("no operation completed")?;
        let p99 = stats::percentile(&ops, 99.0).ok_or("no operation completed")?;
        let setup = all(|p| &p.setup_s);
        println!(
            "  (setup_s over {} set-ups; op latencies over n={}, {} beyond p50, {} beyond p99)",
            setup.len(),
            p50.n,
            p50.beyond,
            p99.beyond
        );
        put("setup_s", stats::median(&setup), "s");
        put("op_p50_ms", p50.value, "ms");
        put("op_p99_ms", p99.value, "ms");
        put(
            "items_per_s",
            stats::median(&each(|p| layers::ratio(p.items, p.work_s))),
            "1/s",
        );
        // Allocator timing across pool threads only ever adds to a pass's
        // peak, so the least-disturbed pass is the smallest.
        put(
            "peak_rss_mib",
            each(|p| p.peak_rss_mib)
                .into_iter()
                .fold(f64::INFINITY, f64::min),
            "MiB",
        );
        put("quality", stats::median(&each(|p| p.quality)), "ratio");
    }
    println!(
        "  failed_ratio = {} ({failed} of {attempted} operations failed) over {} passes in {:.1} s",
        layers::ratio(failed as f64, attempted as f64),
        passes.len(),
        started.elapsed().as_secs_f64()
    );
    if let (Some((steal0, total0)), Some((steal1, total1))) = (cpu_before, host_cpu_ticks()) {
        let share = layers::ratio(
            steal1.saturating_sub(steal0) as f64,
            total1.saturating_sub(total0) as f64,
        );
        println!(
            "  the hypervisor withheld {:.1}% of this machine's CPU time during the run",
            share * 100.0
        );
    }
    Ok(json!({
        "correct": failed == 0,
        "attempted": attempted.max(1),
        "failed": failed,
        "metrics": Value::Object(metrics),
    }))
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`, where the host
/// exposes them. Time stolen by the hypervisor slows every timing of a
/// run, so it is printed to tell a loaded host from a slower program.
fn host_cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Print each workload-specific figure: its median over the passes.
fn print_report(passes: &[Pass]) {
    let Some(first) = passes.first() else { return };
    for (name, _, unit) in &first.report {
        let values: Vec<f64> = passes
            .iter()
            .filter_map(|p| {
                p.report
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .map(|(_, v, _)| *v)
            })
            .collect();
        println!("  {name:<28} {:>14.6} {unit}", stats::median(&values));
    }
}
