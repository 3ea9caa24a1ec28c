//! Graceful degradation under injected faults: with `AUTOSUGGEST_FAULTS`
//! set, some `/suggest` requests fail with `500` — but only those
//! requests. Batch siblings answer normally, the daemon never dies, and
//! the injected-fault counter is a pure function of request content
//! (verified by running the identical workload twice and comparing, and
//! at 1 and 2 threads with a full reload fired mid-burst).
//!
//! Lives in its own integration-test binary because it mutates the
//! process environment before starting the daemon.

use auto_suggest::core::model_slot::ModelSlot;
use auto_suggest::core::wire::{self, OwnedSuggestRequest};
use auto_suggest::core::{AutoSuggest, AutoSuggestConfig};
use auto_suggest::dataframe::{DataFrame, Value as Cell};
use auto_suggest::obs;
use auto_suggest::parallel::set_thread_override;
use auto_suggest::server::{http, serve, Server, FAULTS_INJECTED_COUNTER};
use serde_json::Value;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;

/// Every test here serves under this spec; `serve` reads it. Rates chosen
/// so both the panic path (contained by catch_unwind) and the
/// error-return path are exercised across 16 distinct request bodies.
const FAULTS: &str = "seed=11,panic=0.2,io=0.2";

fn start_daemon() -> Server {
    std::env::set_var("AUTOSUGGEST_FAULTS", FAULTS);
    let system = AutoSuggest::train(AutoSuggestConfig::fast(3));
    serve(Arc::new(ModelSlot::new(system)), Default::default()).expect("bind")
}

fn call(addr: &str, method: &str, path: &str, body: &str) -> (u16, Value) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    http::write_request(&mut writer, method, path, body).expect("send");
    let (status, text) = http::read_response(&mut reader, 16 << 20).expect("recv");
    (status, serde_json::from_str(&text).expect("JSON body"))
}

fn bodies() -> Vec<String> {
    // Enough distinct requests that a 30% panic rate hits some of them.
    (0..16)
        .map(|i| {
            let table = DataFrame::from_columns(vec![
                ("key", (0..20).map(|r| Cell::Int(r + i)).collect()),
                (
                    "label",
                    (0..20).map(|r| Cell::Str(format!("v{}", (r + i) % 5))).collect(),
                ),
                ("metric", (0..20).map(|r| Cell::Float((r + i) as f64 / 3.0)).collect()),
            ])
            .unwrap();
            let req = OwnedSuggestRequest::GroupBy { table };
            wire::encode_request(&req.as_request()).to_string()
        })
        .collect()
}

/// `clients` closed-loop clients, each on one keep-alive connection,
/// sending `requests` of `bodies` in turn; returns (ok, faulted) after
/// checking every answer is a well-formed 200, or a 500 that names the
/// injected fault.
fn burst(addr: &str, bodies: &[String], clients: usize, requests: usize) -> (u64, u64) {
    let results: Vec<(u16, Value)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    stream.set_nodelay(true).expect("nodelay");
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    let mut writer = stream;
                    let mut answers = Vec::new();
                    for i in 0..requests {
                        let body = &bodies[(c * requests + i) % bodies.len()];
                        http::write_request(&mut writer, "POST", "/suggest", body).expect("send");
                        let (status, text) = http::read_response(&mut reader, 16 << 20).expect("recv");
                        answers.push((status, serde_json::from_str(&text).expect("JSON body")));
                    }
                    answers
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client")).collect()
    });
    let mut ok = 0;
    let mut faulted = 0;
    for (status, v) in results {
        match status {
            200 => {
                assert!(v.get("response").is_some() && v.get("trace_id").is_some(), "{v}");
                ok += 1;
            }
            500 => {
                let msg = v.get("error").and_then(Value::as_str).unwrap_or_default();
                assert!(
                    msg.contains("injected"),
                    "500 without injected-fault marker: {msg}"
                );
                faulted += 1;
            }
            other => panic!("unexpected status {other}: {v}"),
        }
    }
    (ok, faulted)
}

#[test]
fn injected_faults_error_single_requests_never_the_daemon() {
    let server = start_daemon();
    let addr = server.addr().to_string();
    let bodies = bodies();

    let (ok_a, faulted_a) = burst(&addr, &bodies, bodies.len(), 1);
    assert!(faulted_a > 0, "fault spec injected nothing across 16 requests");
    assert!(ok_a > 0, "every request faulted — siblings did not survive");
    assert_eq!(ok_a + faulted_a, bodies.len() as u64);

    // Same workload again: fault placement is content-keyed, so the
    // split must repeat exactly, and the daemon is still healthy.
    let (ok_b, faulted_b) = burst(&addr, &bodies, bodies.len(), 1);
    assert_eq!((ok_a, faulted_a), (ok_b, faulted_b));

    let (status, stats) = call(&addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    let det = stats.get("deterministic").expect("deterministic section");
    assert_eq!(
        det.get(FAULTS_INJECTED_COUNTER).and_then(Value::as_i64),
        Some(2 * faulted_a as i64)
    );
    assert_eq!(
        det.get("server.responses_error").and_then(Value::as_i64),
        Some(2 * faulted_a as i64)
    );

    let (status, _) = call(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "daemon unhealthy after fault storm");

    server.shutdown();
    server.wait().expect("clean shutdown");
}

/// Serve a fault burst at `threads` under a fresh obs registry: 8
/// closed-loop clients x 25 requests with a full reload fired mid-burst,
/// then a second burst on the new model. Returns `/stats`'s deterministic
/// section and the reload answer, after an HTTP shutdown and clean exit.
fn stats_after_fault_burst(threads: usize) -> (Value, Value) {
    set_thread_override(Some(threads));
    let (sides, _) = obs::with_local_registry(|| {
        let server = start_daemon();
        let addr = server.addr().to_string();
        let bodies = bodies();
        let reload = std::thread::scope(|scope| {
            let load = scope.spawn(|| burst(&addr, &bodies, 8, 25));
            let (status, reload) = call(&addr, "POST", "/admin/reload", r#"{"seed": 3}"#);
            assert_eq!(status, 200, "{reload}");
            load.join().expect("burst");
            reload
        });
        burst(&addr, &bodies, 8, 25);
        let (status, stats) = call(&addr, "GET", "/stats", "");
        assert_eq!(status, 200);
        let (status, _) = call(&addr, "POST", "/admin/shutdown", "{}");
        assert_eq!(status, 200);
        server.wait().expect("clean exit after HTTP shutdown");
        (stats.get("deterministic").cloned().expect("deterministic section"), reload)
    });
    set_thread_override(None);
    sides
}

#[test]
fn stats_are_thread_invariant_across_a_mid_burst_reload() {
    let one = stats_after_fault_burst(1);
    let two = stats_after_fault_burst(2);
    assert_eq!(one, two, "/stats or the reload answer moved between 1 and 2 threads");
    let (stats, reload) = one;
    assert_eq!(reload.get("status").and_then(Value::as_str), Some("reloaded"));
    assert_eq!(stats.get("server.model_swaps").and_then(Value::as_i64), Some(1));
    assert!(stats.get(FAULTS_INJECTED_COUNTER).and_then(Value::as_i64) > Some(0));
    assert_eq!(stats.get("server.requests").and_then(Value::as_i64), Some(400));
}
