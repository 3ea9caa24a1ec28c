//! Closed-loop load generator for `autosuggestd`.
//!
//! Drives a fixed, deterministic request multiset at the daemon from `K`
//! client threads (each waits for its response before sending the next —
//! closed loop, so in-flight requests never exceed `K` and a queue
//! capacity ≥ `K` yields zero busy-rejections). Validates every response
//! and reports client-side latency percentiles on stderr.
//!
//! ```text
//! loadgen --inproc [--seed N] [--clients K] [--requests M]
//! loadgen --addr 127.0.0.1:7878 [--clients K] [--requests M] [--shutdown]
//!         [--stats-out PATH]
//! ```
//!
//! `--inproc` trains a fast-profile model and serves it from this
//! process (no external daemon needed); `--addr` attaches to a running
//! one. `--stats-out` writes the daemon's curated deterministic stats
//! section to a file — CI runs the same burst at different
//! `AUTOSUGGEST_THREADS` and diffs these files byte-for-byte. With
//! `AUTOSUGGEST_FAULTS` set (on the *daemon*), `500`s from injected
//! faults are expected and counted rather than fatal; pass
//! `--expect-faults` so the generator tolerates them when attaching.

use autosuggest_core::wire::{self, OwnedSuggestRequest};
use autosuggest_dataframe::{DataFrame, Value as Cell};
use autosuggest_server::http;
use serde_json::Value;
use std::io::BufReader;
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

const MAX_RESPONSE_BYTES: usize = 16 * 1024 * 1024;

// ---------------------------------------------------------------------------
// Deterministic workload
// ---------------------------------------------------------------------------

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn int_col(rng: &mut u64, rows: usize, modulo: u64) -> Vec<Cell> {
    (0..rows).map(|_| Cell::Int((splitmix(rng) % modulo) as i64)).collect()
}

fn float_col(rng: &mut u64, rows: usize) -> Vec<Cell> {
    (0..rows)
        .map(|_| Cell::Float((splitmix(rng) % 10_000) as f64 / 100.0))
        .collect()
}

fn str_col(rng: &mut u64, rows: usize, pool: &[&str]) -> Vec<Cell> {
    (0..rows)
        .map(|_| Cell::Str(pool[(splitmix(rng) as usize) % pool.len()].to_string()))
        .collect()
}

fn frame(cols: Vec<(&str, Vec<Cell>)>) -> DataFrame {
    match DataFrame::from_columns(cols) {
        Ok(df) => df,
        Err(e) => unreachable!("workload tables are rectangular by construction: {e}"),
    }
}

/// Build the request-template pool: a mix of all four operators over
/// small synthetic tables, a pure function of `seed`.
fn make_bodies(seed: u64, templates: usize) -> Vec<String> {
    let regions = ["north", "south", "east", "west"];
    let products = ["widget", "gadget", "gizmo"];
    let mut bodies = Vec::with_capacity(templates);
    for t in 0..templates as u64 {
        let mut rng = seed.wrapping_mul(0x51ed_270b).wrapping_add(t);
        let rows = 24 + (splitmix(&mut rng) % 40) as usize;
        let request = match t % 4 {
            0 => {
                let keys = int_col(&mut rng, rows, 20);
                let left = frame(vec![
                    ("order_id", keys.clone()),
                    ("region", str_col(&mut rng, rows, &regions)),
                    ("amount", float_col(&mut rng, rows)),
                ]);
                let right = frame(vec![
                    ("order_id", keys),
                    ("discount", float_col(&mut rng, rows)),
                ]);
                OwnedSuggestRequest::Join { left, right, top_k: 3 }
            }
            1 => OwnedSuggestRequest::GroupBy {
                table: frame(vec![
                    ("region", str_col(&mut rng, rows, &regions)),
                    ("product", str_col(&mut rng, rows, &products)),
                    ("sales", float_col(&mut rng, rows)),
                    ("quantity", int_col(&mut rng, rows, 50)),
                ]),
            },
            2 => OwnedSuggestRequest::Pivot {
                table: frame(vec![
                    ("year", int_col(&mut rng, rows, 4)),
                    ("product", str_col(&mut rng, rows, &products)),
                    ("amount", float_col(&mut rng, rows)),
                ]),
                dims: vec![0, 1],
            },
            _ => OwnedSuggestRequest::Unpivot {
                table: frame(vec![
                    ("id", int_col(&mut rng, rows, 1_000_000)),
                    ("q1", float_col(&mut rng, rows)),
                    ("q2", float_col(&mut rng, rows)),
                    ("q3", float_col(&mut rng, rows)),
                    ("q4", float_col(&mut rng, rows)),
                ]),
            },
        };
        bodies.push(wire::encode_request(&request.as_request()).to_string());
    }
    bodies
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

struct ClientReport {
    latencies_ns: Vec<u64>,
    ok: u64,
    faulted: u64,
    errors: Vec<String>,
}

fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut reader = BufReader::new(
        stream.try_clone().map_err(|e| format!("clone stream: {e}"))?,
    );
    let mut writer = stream;
    http::write_request(&mut writer, method, path, body).map_err(|e| format!("send: {e}"))?;
    http::read_response(&mut reader, MAX_RESPONSE_BYTES).map_err(|e| format!("recv: {e}"))
}

fn run_client(
    addr: &str,
    bodies: &[String],
    indices: std::ops::Range<usize>,
    expect_faults: bool,
) -> ClientReport {
    let mut report = ClientReport {
        latencies_ns: Vec::with_capacity(indices.len()),
        ok: 0,
        faulted: 0,
        errors: Vec::new(),
    };
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            report.errors.push(format!("connect {addr}: {e}"));
            return report;
        }
    };
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(e) => {
            report.errors.push(format!("clone stream: {e}"));
            return report;
        }
    };
    let mut writer = stream;

    for i in indices {
        let body = &bodies[i % bodies.len()];
        let started = Instant::now();
        let result = http::write_request(&mut writer, "POST", "/suggest", body)
            .map_err(|e| format!("send: {e}"))
            .and_then(|()| {
                http::read_response(&mut reader, MAX_RESPONSE_BYTES)
                    .map_err(|e| format!("recv: {e}"))
            });
        let elapsed = started.elapsed().as_nanos() as u64;
        match result {
            Ok((200, text)) => match serde_json::from_str(&text) {
                Ok(v) if v.get("response").is_some() && v.get("trace_id").is_some() => {
                    report.latencies_ns.push(elapsed);
                    report.ok += 1;
                }
                _ => report.errors.push(format!("request {i}: malformed 200 body {text:?}")),
            },
            Ok((500, text)) if expect_faults => {
                let well_formed = serde_json::from_str(&text)
                    .ok()
                    .is_some_and(|v| v.get("error").is_some());
                if well_formed {
                    report.latencies_ns.push(elapsed);
                    report.faulted += 1;
                } else {
                    report.errors.push(format!("request {i}: malformed 500 body {text:?}"));
                }
            }
            Ok((status, text)) => {
                report.errors.push(format!("request {i}: unexpected {status}: {text:?}"));
            }
            Err(e) => report.errors.push(format!("request {i}: {e}")),
        }
    }
    report
}

fn percentile(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[rank] as f64 / 1e6
}

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

struct Args {
    addr: Option<String>,
    inproc: bool,
    seed: u64,
    clients: usize,
    requests_per_client: usize,
    templates: usize,
    expect_faults: bool,
    shutdown: bool,
    stats_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        inproc: false,
        seed: 42,
        clients: 4,
        requests_per_client: 25,
        templates: 12,
        expect_faults: std::env::var("AUTOSUGGEST_FAULTS").is_ok(),
        shutdown: false,
        stats_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => args.addr = Some(value("--addr")?),
            "--inproc" => args.inproc = true,
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--clients" => {
                args.clients =
                    value("--clients")?.parse().map_err(|e| format!("--clients: {e}"))?;
            }
            "--requests" => {
                args.requests_per_client =
                    value("--requests")?.parse().map_err(|e| format!("--requests: {e}"))?;
            }
            "--templates" => {
                args.templates =
                    value("--templates")?.parse().map_err(|e| format!("--templates: {e}"))?;
            }
            "--expect-faults" => args.expect_faults = true,
            "--shutdown" => args.shutdown = true,
            "--stats-out" => args.stats_out = Some(value("--stats-out")?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.inproc == args.addr.is_some() {
        return Err("pass exactly one of --inproc or --addr HOST:PORT".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("[loadgen] {msg}");
            return ExitCode::FAILURE;
        }
    };

    // In-process daemon when asked: fast model, ephemeral port.
    let inproc_server = if args.inproc {
        use autosuggest_core::model_slot::ModelSlot;
        use autosuggest_core::{AutoSuggest, AutoSuggestConfig};
        eprintln!("[loadgen] training in-process model (seed {})...", args.seed);
        let system = AutoSuggest::train(AutoSuggestConfig::fast(args.seed));
        let slot = Arc::new(ModelSlot::new(system));
        match autosuggest_server::serve(slot, Default::default()) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("[loadgen] failed to start in-process server: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let addr = match (&inproc_server, &args.addr) {
        (Some(s), _) => s.addr().to_string(),
        (None, Some(a)) => a.clone(),
        (None, None) => unreachable!("parse_args enforces one of --inproc/--addr"),
    };

    let bodies = Arc::new(make_bodies(args.seed, args.templates));
    let total = args.clients * args.requests_per_client;
    eprintln!(
        "[loadgen] {} clients x {} requests against {addr} ({} templates)",
        args.clients, args.requests_per_client, bodies.len()
    );

    let started = Instant::now();
    let reports: Vec<ClientReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|c| {
                let bodies = Arc::clone(&bodies);
                let addr = addr.clone();
                let range = c * args.requests_per_client..(c + 1) * args.requests_per_client;
                scope.spawn(move || run_client(&addr, &bodies, range, args.expect_faults))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(_) => ClientReport {
                    latencies_ns: Vec::new(),
                    ok: 0,
                    faulted: 0,
                    errors: vec!["client thread panicked".to_string()],
                },
            })
            .collect()
    });
    let wall = started.elapsed();

    let mut latencies: Vec<u64> = Vec::with_capacity(total);
    let mut ok = 0u64;
    let mut faulted = 0u64;
    let mut failures = Vec::new();
    for r in reports {
        latencies.extend(r.latencies_ns);
        ok += r.ok;
        faulted += r.faulted;
        failures.extend(r.errors);
    }
    latencies.sort_unstable();
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    eprintln!(
        "[loadgen] {ok} ok, {faulted} faulted, {} failed of {total} in {:.2}s (p50 {p50:.2} ms, p99 {p99:.2} ms)",
        failures.len(),
        wall.as_secs_f64(),
    );
    for f in failures.iter().take(10) {
        eprintln!("[loadgen]   {f}");
    }

    // Pull /stats before any shutdown.
    let stats = match request(&addr, "GET", "/stats", "") {
        Ok((200, text)) => serde_json::from_str(&text).ok(),
        _ => None,
    };
    let stats = match stats {
        Some(s) => s,
        None => {
            eprintln!("[loadgen] failed to fetch /stats");
            return ExitCode::FAILURE;
        }
    };
    let deterministic = stats.get("deterministic").cloned().unwrap_or(Value::Null);
    println!("[loadgen] deterministic: {deterministic}");
    if let Some(path) = &args.stats_out {
        if let Err(e) = std::fs::write(path, format!("{deterministic}\n")) {
            eprintln!("[loadgen] failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if args.shutdown || args.inproc {
        match request(&addr, "POST", "/admin/shutdown", "{}") {
            Ok((200, _)) => {}
            other => eprintln!("[loadgen] shutdown request failed: {other:?}"),
        }
    }
    if let Some(server) = inproc_server {
        if let Err(e) = server.wait() {
            eprintln!("[loadgen] in-process server: {e}");
            return ExitCode::FAILURE;
        }
    }

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("[loadgen] FAILED: {} bad responses", failures.len());
        ExitCode::FAILURE
    }
}
