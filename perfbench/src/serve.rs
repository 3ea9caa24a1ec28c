//! `serve`: an in-process `autosuggestd` (default `ServerConfig`, over the
//! fast-profile model the daemon trains by default) driven closed-loop over
//! loopback by one keep-alive client per core, each working through seeded
//! sessions (see `session.rs`).
//!
//! A run serves a fixed number of sessions, sized so that it takes about
//! `--seconds` on a 2-core 2.1 GHz Xeon: the same work every run, so its
//! latency percentiles rest on the same size mix and its memory does not
//! grow with the host's speed. A guard stops starting sessions after
//! `GUARD` times that long.

use crate::layers::{self, ratio, Window};
use crate::pass::Pass;
use crate::session::{self, Session, OPS};
use crate::stats::{median, percentile, Tracer};
use autosuggest_core::model_slot::ModelSlot;
use autosuggest_core::wire::{self, OwnedSuggestRequest};
use autosuggest_core::{AutoSuggest, AutoSuggestConfig, SuggestResponse};
use autosuggest_server::{http, serve, Server, ServerConfig};
use serde_json::Value;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The seed `autosuggestd` trains its model with unless told otherwise.
const MODEL_SEED: u64 = 42;
const SETUP_REPS: usize = 3;
/// Sessions served per second of `--seconds`.
const SESSIONS_PER_SECOND: f64 = 22.0;
const GUARD: f64 = 4.0;
const MAX_RESPONSE_BYTES: usize = 16 * 1024 * 1024;

/// The benchmark's own replay of one served request: seconds spent in
/// each public call, beside the latency the client saw.
struct Probe {
    op: usize,
    decode_s: f64,
    suggest_s: f64,
    encode_s: f64,
    latency_ms: f64,
    body_bytes: usize,
}

/// One request as the client saw it.
struct Sent {
    session: usize,
    op: usize,
    latency_ms: f64,
    status: u16,
    body: String,
}

/// Send `mine` sessions' requests one after another on one keep-alive
/// connection, starting no new session after `deadline`.
fn run_client(
    addr: &str,
    sessions: &[Session],
    mine: impl Iterator<Item = usize>,
    deadline: Instant,
) -> Result<Vec<Sent>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?,
    );
    let mut writer = stream;
    let mut sent = Vec::new();
    for s in mine {
        if Instant::now() >= deadline {
            break;
        }
        for (op, body) in sessions[s].bodies.iter().enumerate() {
            let started = Instant::now();
            http::write_request(&mut writer, "POST", "/suggest", body)
                .map_err(|e| format!("send: {e}"))?;
            let (status, body) = http::read_response(&mut reader, MAX_RESPONSE_BYTES)
                .map_err(|e| format!("recv: {e}"))?;
            let latency_ms = started.elapsed().as_secs_f64() * 1e3;
            sent.push(Sent {
                session: s,
                op,
                latency_ms,
                status,
                body,
            });
        }
    }
    Ok(sent)
}

fn get(addr: &str, path: &str) -> Result<Value, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?,
    );
    let mut writer = stream;
    http::write_request(&mut writer, "GET", path, "").map_err(|e| format!("send: {e}"))?;
    match http::read_response(&mut reader, MAX_RESPONSE_BYTES) {
        Ok((200, text)) => serde_json::from_str(&text).map_err(|e| format!("{path}: {e}")),
        other => Err(format!("{path}: {other:?}")),
    }
}

fn stop(server: Server) -> Result<(), String> {
    server.shutdown();
    server.wait().map_err(|e| e.to_string())
}

/// Whether a join response ranks the planted key pair first.
fn top1_is_key(resp: &SuggestResponse, key: &str) -> bool {
    match resp {
        SuggestResponse::Join(s) => s
            .first()
            .is_some_and(|top| top.left_cols == [key] && top.right_cols == [key]),
        _ => false,
    }
}

pub fn pass(seed: u64, seconds: f64, trace: bool) -> Pass {
    let mut out = Pass::default();
    let mut tr = Tracer::new();
    let root = tr.open_span("serve", "bench");
    let session_count =
        session::BLOCK * (seconds * SESSIONS_PER_SECOND / session::BLOCK as f64).ceil() as usize;

    // Each set-up repetition trains the daemon's default model, binds a
    // server and generates the sessions; the last one is kept.
    let mut ready: Option<(Arc<ModelSlot>, Server, Vec<Session>)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, server, _)) = ready.take() {
            if let Err(e) = stop(server) {
                out.check(false, || format!("stopping a set-up server: {e}"));
            }
        }
        let setup = tr.open_span("set-up", "bench");
        let (system, _) = tr.time("AutoSuggest::train", "core", || {
            AutoSuggest::train(AutoSuggestConfig::fast(MODEL_SEED))
        });
        let slot = Arc::new(ModelSlot::new(system));
        let (server, _) = tr.time("serve", "server", || {
            serve(Arc::clone(&slot), ServerConfig::default())
        });
        let (sessions, _) = tr.time("sessions", "bench", || {
            session::sessions(seed, session_count)
        });
        out.setup_s.push(tr.close_span(setup));
        match server {
            Ok(server) => ready = Some((slot, server, sessions)),
            Err(e) => {
                out.check(false, || format!("bind: {e}"));
                return out;
            }
        }
    }
    let Some((slot, server, sessions)) = ready else {
        return out;
    };
    let addr = server.addr().to_string();
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get());

    let window = trace.then(Window::open);
    let load = tr.open_span("closed-loop load", "server");
    let deadline = Instant::now() + Duration::from_secs_f64(GUARD * seconds);
    let results: Vec<Result<Vec<Sent>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (addr, sessions) = (&addr, &sessions);
                scope.spawn(move || {
                    run_client(
                        addr,
                        sessions,
                        (c..sessions.len()).step_by(clients),
                        deadline,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let load_s = tr.close_span(load);
    let delta = window.map(Window::close);
    let (stats, _) = tr.time("GET /stats", "server", || get(&addr, "/stats"));
    let (stopped, _) = tr.time("shutdown", "server", || stop(server));
    out.check(stopped.is_ok(), || format!("server shutdown: {stopped:?}"));

    let mut sent: Vec<Sent> = Vec::new();
    for r in results {
        match r {
            Ok(s) => sent.extend(s),
            Err(e) => out.check(false, || format!("client: {e}")),
        }
    }
    sent.sort_by_key(|s| (s.session, s.op));
    let served_sessions = sent.iter().filter(|s| s.op == 0).count();
    if served_sessions < sessions.len() {
        eprintln!(
            "perfbench: serve stopped after {served_sessions} of {} sessions, at its time guard",
            sessions.len()
        );
    }

    // Expected answers, computed only now: doing it before the timed phase
    // would have warmed the column cache for every served table. Clearing
    // the cache replays the server's pattern (hits within a session,
    // misses across sessions) for the per-call timings.
    autosuggest_cache::clear_memory();
    let model = slot.load();
    let check = tr.open_span("expected answers", "bench");
    let mut probe = Vec::with_capacity(sent.len());
    let mut join_top1 = (0usize, 0usize);
    let mut rebuilt: Option<(usize, [OwnedSuggestRequest; 4])> = None;
    for s in &sent {
        let session = &sessions[s.session];
        let body = &session.bodies[s.op];
        // A traced pass decodes each body to time the wire layer; an
        // untraced one rebuilds the session's requests from the seed.
        let decoded;
        let (request, decode_s) = if trace {
            let (result, decode_s) = tr.time("wire::decode_request", "wire", || {
                serde_json::from_str(body)
                    .map_err(|e| e.to_string())
                    .and_then(|v| wire::decode_request(&v).map_err(|e| e.to_string()))
            });
            match result {
                Ok(r) => decoded = r,
                Err(e) => {
                    out.check(false, || {
                        format!("session {} {}: {e}", s.session, OPS[s.op])
                    });
                    continue;
                }
            }
            (&decoded, decode_s)
        } else {
            if rebuilt.as_ref().map(|(k, _)| *k) != Some(s.session) {
                rebuilt = Some((s.session, session::requests(seed, s.session).2));
            }
            let (_, requests) = rebuilt.as_ref().expect("rebuilt just above");
            (&requests[s.op], 0.0)
        };
        let (response, suggest_s) = tr.time("AutoSuggest::suggest", "suggest", || {
            model.system.suggest(&request.as_request())
        });
        let (expected, encode_s) = tr.time("wire::encode_response", "wire", || {
            wire::encode_response(&response).to_string()
        });
        let matches = s.status == 200
            && s.body
                .contains(&format!("\"response\":{expected},\"trace_id\":"));
        out.check(matches, || {
            format!(
                "session {} {}: served {} {:.200}",
                s.session, OPS[s.op], s.status, s.body
            )
        });
        if s.op == 0 {
            join_top1.0 += usize::from(top1_is_key(&response, session.key));
            join_top1.1 += 1;
        }
        probe.push(Probe {
            op: s.op,
            decode_s,
            suggest_s,
            encode_s,
            latency_ms: s.latency_ms,
            body_bytes: body.len(),
        });
    }
    tr.close_span(check);
    out.record_peak_rss();

    let latencies: Vec<f64> = sent.iter().map(|s| s.latency_ms).collect();
    let p50 = percentile(&latencies, 50.0);
    let p99 = percentile(&latencies, 99.0);
    let requests = sent.len() as f64;
    out.op_ms = latencies;
    out.items = requests;
    out.work_s = load_s;
    out.quality = ratio(join_top1.0 as f64, join_top1.1 as f64);
    out.overhead_basis_ms = p50.map_or(0.0, |p| p.value);
    for (name, p) in [("suggest_p50_ms", p50), ("suggest_p99_ms", p99)] {
        if let Some(p) = p {
            out.report(name, p.value, "ms");
            out.report(&format!("{name}.n"), p.n as f64, "count");
            out.report(&format!("{name}.beyond"), p.beyond as f64, "count");
        }
    }
    out.report("suggest_rps", ratio(requests, load_s), "1/s");
    out.report("sessions", served_sessions as f64, "count");
    out.report("clients", clients as f64, "count");
    out.report("join_top1_is_key", out.quality, "ratio");

    if let Some(d) = delta {
        let l = &mut out.layers;
        d.featurisation(l);
        let median_of = |f: fn(&Probe) -> f64| median(&probe.iter().map(f).collect::<Vec<f64>>());
        l.insert("wire.decode_us".into(), median_of(|p| p.decode_s * 1e6));
        l.insert("wire.encode_us".into(), median_of(|p| p.encode_s * 1e6));
        let bytes: usize = probe.iter().map(|p| p.body_bytes).sum();
        l.insert(
            "wire.request_kib".into(),
            ratio(bytes as f64 / 1024.0, probe.len() as f64),
        );
        for (i, op) in OPS.iter().enumerate() {
            let times: Vec<f64> = probe
                .iter()
                .filter(|p| p.op == i)
                .map(|p| p.suggest_s * 1e3)
                .collect();
            l.insert(format!("suggest.{op}_ms"), median(&times));
        }
        // What the client waited beyond the three calls: http, queueing and
        // the batch window.
        l.insert(
            "server.overhead_ms".into(),
            median_of(|p| p.latency_ms - (p.decode_s + p.suggest_s + p.encode_s) * 1e3),
        );
        let live = stats.as_ref().ok().and_then(|s| s.get("live"));
        let sizes = live
            .and_then(|l| l.get("batch_sizes"))
            .and_then(Value::as_object);
        let (batches, batched) = sizes.map_or((0.0, 0.0), |m| {
            m.iter().fold((0.0, 0.0), |(n, total), (size, count)| {
                let count = count.as_f64().unwrap_or(0.0);
                (
                    n + count,
                    total + count * size.parse::<f64>().unwrap_or(0.0),
                )
            })
        });
        l.insert("server.batches".into(), batches);
        l.insert("server.batch_size_mean".into(), ratio(batched, batches));
        let rejected = live
            .and_then(|l| l.get("rejected_busy"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        l.insert("server.rejected_busy".into(), rejected);
    }
    out.check(stats.is_ok(), || format!("{stats:?}"));
    tr.close_span(root);
    if trace {
        layers::self_times(&tr, root, &mut out.layers);
    }
    out
}
