//! End-to-end daemon tests: a real `autosuggestd` server on a loopback
//! port, driven over TCP by concurrent clients.
//!
//! The load-bearing assertion is *bit-for-bit equivalence*: the JSON a
//! served request answers with must render identically to encoding the
//! response of a direct in-process `TrainedModels::suggest` call on the
//! same model. Plus: health/stats endpoints, 400s for malformed bodies,
//! 404s for unknown routes, versioned hot-reload, and graceful shutdown.

use auto_suggest::core::model_slot::ModelSlot;
use auto_suggest::core::wire::{self, OwnedSuggestRequest};
use auto_suggest::core::{AutoSuggest, AutoSuggestConfig};
use auto_suggest::dataframe::{DataFrame, Value as Cell};
use auto_suggest::server::{http, serve, Server, ServerConfig};
use serde_json::Value;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};

const MAX_RESPONSE: usize = 64 * 1024 * 1024;

fn call(addr: &str, method: &str, path: &str, body: &str) -> (u16, Value) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    http::write_request(&mut writer, method, path, body).expect("send");
    let (status, text) = http::read_response(&mut reader, MAX_RESPONSE).expect("recv");
    let value = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("non-JSON body from {path}: {e}\n{text}"));
    (status, value)
}

fn mixed_requests() -> Vec<OwnedSuggestRequest> {
    let customers = DataFrame::from_columns(vec![
        ("customer_id", (0..30).map(Cell::Int).collect()),
        (
            "segment",
            (0..30)
                .map(|i| Cell::Str(["retail", "wholesale"][i % 2].to_string()))
                .collect(),
        ),
        ("balance", (0..30).map(|i| Cell::Float(i as f64 * 1.5)).collect()),
    ])
    .unwrap();
    let orders = DataFrame::from_columns(vec![
        ("customer_id", (0..30).map(|i| Cell::Int(i % 10)).collect()),
        ("total", (0..30).map(|i| Cell::Float(100.0 + i as f64)).collect()),
    ])
    .unwrap();
    let sales = DataFrame::from_columns(vec![
        (
            "region",
            (0..40)
                .map(|i| Cell::Str(["n", "s", "e", "w"][i % 4].to_string()))
                .collect(),
        ),
        ("year", (0..40).map(|i| Cell::Int(2020 + (i as i64 % 3))).collect()),
        ("revenue", (0..40).map(|i| Cell::Float(i as f64 * 7.25)).collect()),
    ])
    .unwrap();
    let wide = DataFrame::from_columns(vec![
        ("id", (0..20).map(Cell::Int).collect()),
        ("q1", (0..20).map(|i| Cell::Float(i as f64)).collect()),
        ("q2", (0..20).map(|i| Cell::Float(i as f64 + 0.5)).collect()),
        ("q3", (0..20).map(|i| Cell::Float(i as f64 + 0.25)).collect()),
    ])
    .unwrap();
    vec![
        OwnedSuggestRequest::Join { left: customers.clone(), right: orders, top_k: 3 },
        OwnedSuggestRequest::GroupBy { table: sales.clone() },
        OwnedSuggestRequest::Pivot { table: sales, dims: vec![0, 1] },
        OwnedSuggestRequest::Unpivot { table: wide },
        OwnedSuggestRequest::GroupBy { table: customers },
    ]
}

/// Train once, compute the expected (directly-suggested) response
/// renderings, then move the system into a served daemon.
fn start_server() -> (Server, Vec<String>, Vec<String>) {
    let (slot, bodies, expected) = trained_slot();
    let config = ServerConfig {
        // Cheap reload trainer so the hot-reload test stays fast.
        trainer: Box::new(|seed| AutoSuggest::train(AutoSuggestConfig::fast(seed))),
        ..Default::default()
    };
    (serve_local(slot, config), bodies, expected)
}

/// The trained system in a model slot, with the request bodies and their
/// expected (directly-suggested) response renderings.
fn trained_slot() -> (Arc<ModelSlot>, Vec<String>, Vec<String>) {
    let system = AutoSuggest::train(AutoSuggestConfig::fast(3));
    let requests = mixed_requests();
    let bodies: Vec<String> = requests
        .iter()
        .map(|r| wire::encode_request(&r.as_request()).to_string())
        .collect();
    let expected: Vec<String> = requests
        .iter()
        .map(|r| wire::encode_response(&system.models.suggest(&r.as_request())).to_string())
        .collect();
    (Arc::new(ModelSlot::new(system)), bodies, expected)
}

fn serve_local(slot: Arc<ModelSlot>, config: ServerConfig) -> Server {
    // Both tests in this binary run concurrently in one process; giving
    // each daemon its own obs registry (captured as the serve-time
    // ambient) keeps their `/stats` counters from cross-contaminating.
    let (server, _empty_snapshot) =
        auto_suggest::obs::with_local_registry(|| serve(slot, config).expect("bind loopback"));
    server
}

#[test]
fn served_responses_are_bit_for_bit_equal_to_direct_suggest() {
    let (server, bodies, expected) = start_server();
    let addr = server.addr().to_string();

    // Health first.
    let (status, health) = call(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(health.get("model_version").and_then(Value::as_i64), Some(1));

    // Fire every request from its own concurrent client, twice (the
    // second round hits warm caches — answers must not change).
    for round in 0..2 {
        let answers: Vec<(usize, u16, Value)> = std::thread::scope(|scope| {
            let handles: Vec<_> = bodies
                .iter()
                .enumerate()
                .map(|(i, body)| {
                    let addr = addr.clone();
                    scope.spawn(move || {
                        let (status, v) = call(&addr, "POST", "/suggest", body);
                        (i, status, v)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client")).collect()
        });
        for (i, status, v) in answers {
            assert_eq!(status, 200, "round {round} request {i}: {v}");
            assert!(v.get("trace_id").and_then(Value::as_i64).is_some());
            assert_eq!(v.get("model_version").and_then(Value::as_i64), Some(1));
            let served = v.get("response").expect("response field").to_string();
            assert_eq!(
                served, expected[i],
                "round {round} request {i}: served response diverged from direct suggest"
            );
        }
    }

    // Decoding the served payload yields a valid SuggestResponse too.
    let (_, v) = call(&addr, "POST", "/suggest", &bodies[0]);
    let decoded = wire::decode_response(v.get("response").unwrap()).expect("decodable");
    assert_eq!(wire::encode_response(&decoded).to_string(), expected[0]);

    // Stats reflect the traffic: the curated deterministic section counts
    // every request above as ok.
    let (status, stats) = call(&addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    let det = stats.get("deterministic").expect("deterministic section");
    let requests = det.get("server.requests").and_then(Value::as_i64).unwrap_or(0);
    let ok = det.get("server.responses_ok").and_then(Value::as_i64).unwrap_or(0);
    assert_eq!(requests, 2 * bodies.len() as i64 + 1);
    assert_eq!(ok, requests);
    assert!(det.get("server.responses_error").is_none());

    server.shutdown();
    server.wait().expect("clean shutdown");
}

#[test]
fn bad_requests_unknown_routes_and_reload_then_shutdown() {
    let (server, bodies, _expected) = start_server();
    let addr = server.addr().to_string();

    // Malformed JSON → 400 with an error message and a trace id.
    let (status, v) = call(&addr, "POST", "/suggest", "{not json");
    assert_eq!(status, 400);
    assert!(v.get("error").and_then(Value::as_str).is_some());
    assert!(v.get("trace_id").is_some());

    // Valid JSON, invalid request document → 400.
    let (status, v) = call(&addr, "POST", "/suggest", r#"{"op":"teleport"}"#);
    assert_eq!(status, 400);
    let msg = v.get("error").and_then(Value::as_str).unwrap_or_default();
    assert!(msg.contains("unknown op"), "unhelpful error: {msg}");

    // Unknown route → 404; unsupported method → 405.
    let (status, _) = call(&addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _) = call(&addr, "DELETE", "/suggest", "");
    assert_eq!(status, 405);

    // Hot reload: version bumps, daemon answers on the new model.
    let (status, v) = call(&addr, "POST", "/admin/reload", r#"{"seed": 5}"#);
    assert_eq!(status, 200, "{v}");
    assert_eq!(v.get("model_version").and_then(Value::as_i64), Some(2));
    let (status, v) = call(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(v.get("model_version").and_then(Value::as_i64), Some(2));
    let (status, v) = call(&addr, "POST", "/suggest", &bodies[1]);
    assert_eq!(status, 200);
    assert_eq!(v.get("model_version").and_then(Value::as_i64), Some(2));

    // Bad reload body → 400, version unchanged.
    let (status, _) = call(&addr, "POST", "/admin/reload", r#"{"sneed": 1}"#);
    assert_eq!(status, 400);
    let (_, v) = call(&addr, "GET", "/healthz", "");
    assert_eq!(v.get("model_version").and_then(Value::as_i64), Some(2));

    // Seeds span the whole u64 range, as `autosuggestd --seed` does: one
    // above i64::MAX is a valid reload, not a bad body.
    let (status, v) =
        call(&addr, "POST", "/admin/reload", &format!(r#"{{"seed": {}}}"#, u64::MAX));
    assert_eq!(status, 200, "{v}");
    assert_eq!(v.get("model_version").and_then(Value::as_i64), Some(3));
    assert_eq!(v.get("seed").and_then(Value::as_u64), Some(u64::MAX));

    // HTTP-level shutdown: acknowledged, then the daemon drains and exits.
    let (status, v) = call(&addr, "POST", "/admin/shutdown", "{}");
    assert_eq!(status, 200);
    assert_eq!(v.get("status").and_then(Value::as_str), Some("shutting down"));
    server.wait().expect("clean shutdown after HTTP request");
}

/// Hammer `/suggest` from concurrent clients while the model slot is
/// repeatedly swapped by full reloads. Every response must be
/// self-consistent: exactly one model version, versions monotone per
/// sequential client, and — because each reload retrains with the served
/// model's own seed, and training is deterministic — renderings
/// bit-identical to the original system no matter which version answered.
#[test]
fn suggest_traffic_stays_consistent_across_full_reload_swaps() {
    let (server, bodies, expected) = start_server();
    let addr = server.addr().to_string();
    const RELOADS: i64 = 2;

    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..4)
        .map(|worker| {
            let addr = addr.clone();
            let bodies = bodies.clone();
            let expected = expected.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut served = 0usize;
                let mut last_version = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    for (i, body) in bodies.iter().enumerate() {
                        let (status, v) = call(&addr, "POST", "/suggest", body);
                        assert_eq!(status, 200, "worker {worker} request {i}: {v}");
                        let version = v
                            .get("model_version")
                            .and_then(Value::as_i64)
                            .expect("model_version field");
                        assert!(
                            (1..=1 + RELOADS).contains(&version),
                            "worker {worker}: impossible model version {version}"
                        );
                        assert!(
                            version >= last_version,
                            "worker {worker}: served version went backwards \
                             ({last_version} then {version})"
                        );
                        last_version = version;
                        let served_body =
                            v.get("response").expect("response field").to_string();
                        assert_eq!(
                            served_body, expected[i],
                            "worker {worker} request {i} on model v{version}: \
                             rendering diverged after reload swap"
                        );
                        served += 1;
                    }
                }
                served
            })
        })
        .collect();

    // Sequential full reloads with the served model's seed while the
    // workers hammer away.
    for k in 0..RELOADS {
        let (status, v) = call(&addr, "POST", "/admin/reload", r#"{"seed": 3}"#);
        assert_eq!(status, 200, "{v}");
        assert_eq!(v.get("mode").and_then(Value::as_str), Some("full"));
        assert_eq!(v.get("model_version").and_then(Value::as_i64), Some(2 + k));
    }

    stop.store(true, Ordering::Relaxed);
    let served: usize =
        workers.into_iter().map(|h| h.join().expect("suggest worker")).sum();
    assert!(served > 0, "workers must have served at least one round");

    let (_, v) = call(&addr, "GET", "/healthz", "");
    assert_eq!(v.get("model_version").and_then(Value::as_i64), Some(1 + RELOADS));

    // The curated deterministic stats count every swap.
    let (_, stats) = call(&addr, "GET", "/stats", "");
    let det = stats.get("deterministic").expect("deterministic section");
    let count = |name: &str| det.get(name).and_then(Value::as_i64).unwrap_or(0);
    assert_eq!(count("server.model_swaps"), RELOADS);

    server.shutdown();
    server.wait().expect("clean shutdown");
}

/// Send raw bytes over a fresh connection and read back one response.
/// Bypasses [`http::write_request`], which always frames correctly — the
/// point here is deliberately broken framing.
fn call_raw(addr: &str, raw: &str) -> (u16, Value) {
    use std::io::Write;
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writer.write_all(raw.as_bytes()).expect("send raw");
    writer.flush().expect("flush");
    let (status, text) = http::read_response(&mut reader, MAX_RESPONSE).expect("recv");
    let value = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("non-JSON body: {e}\n{text}"));
    (status, value)
}

/// Protocol hardening: a POST without `Content-Length` must be answered
/// `411 Length Required` (not stalled waiting for bytes that were already
/// consumed as a guessed-zero body), a non-numeric length is a `400`, and
/// header names are case-insensitive per RFC 7230.
#[test]
fn post_framing_errors_answer_411_and_400_without_stalling() {
    let (server, bodies, expected) = start_server();
    let addr = server.addr().to_string();

    // Missing Content-Length on a body-bearing request → 411, fast.
    let started = std::time::Instant::now();
    let (status, v) = call_raw(
        &addr,
        "POST /suggest HTTP/1.1\r\nContent-Type: application/json\r\n\r\n{\"op\":\"x\"}",
    );
    assert_eq!(status, 411, "{v}");
    let msg = v.get("error").and_then(Value::as_str).unwrap_or_default();
    assert!(msg.contains("content-length"), "unhelpful error: {msg}");
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "411 must come back immediately, not via a stall"
    );

    // Non-numeric Content-Length → 400.
    let (status, v) =
        call_raw(&addr, "POST /suggest HTTP/1.1\r\nContent-Length: 12abc\r\n\r\n");
    assert_eq!(status, 400, "{v}");

    // A chunked body that also declares a length is refused, not read by
    // the length with its chunk framing left on the wire (RFC 9112 §6.1).
    let (status, v) = call_raw(
        &addr,
        "POST /suggest HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 5\r\n\r\n\
         5\r\nhello\r\n0\r\n\r\n",
    );
    assert_eq!(status, 400, "{v}");
    let msg = v.get("error").and_then(Value::as_str).unwrap_or_default();
    assert!(msg.contains("transfer-encoding"), "unhelpful error: {msg}");

    // Lowercase header names are honoured (RFC 7230 §3.2): a correctly
    // framed request with `content-length` serves normally.
    let body = &bodies[0];
    let (status, v) = call_raw(
        &addr,
        &format!(
            "POST /suggest HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        ),
    );
    assert_eq!(status, 200, "{v}");
    assert_eq!(v.get("response").expect("response field").to_string(), expected[0]);

    // The daemon is still healthy after the protocol abuse.
    let (status, _) = call(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200);

    server.shutdown();
    server.wait().expect("clean shutdown");
}

/// A deeply nested body is a parse error, not a crash: 200k open brackets
/// would overflow a handler thread's stack in a recursive parser, and a
/// stack overflow aborts the whole daemon.
#[test]
fn deeply_nested_json_body_answers_400_and_the_daemon_keeps_serving() {
    let (server, _bodies, _expected) = start_server();
    let addr = server.addr().to_string();

    let (status, v) = call(&addr, "POST", "/suggest", &"[".repeat(200_000));
    assert_eq!(status, 400, "{v}");
    let msg = v.get("error").and_then(Value::as_str).unwrap_or_default();
    assert!(msg.contains("recursion limit"), "unhelpful error: {msg}");

    let (status, _) = call(&addr, "GET", "/stats", "");
    assert_eq!(status, 200);

    server.shutdown();
    server.wait().expect("clean shutdown");
}

/// While one reload is training, any further reload must be answered
/// `409 Conflict` with a JSON error — not queued behind the lock.
#[test]
fn second_reload_while_one_is_in_flight_answers_409() {
    let system = AutoSuggest::train(AutoSuggestConfig::fast(3));
    let slot = Arc::new(ModelSlot::new(system));
    // A trainer the test can hold open: signals entry, then blocks until
    // the release sender is dropped (which also lets every later call
    // straight through). Senders/receivers go behind mutexes because the
    // trainer closure must be Sync.
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let entered_tx = Mutex::new(entered_tx);
    let release_rx = Mutex::new(release_rx);
    let config = ServerConfig {
        trainer: Box::new(move |seed| {
            let _ = entered_tx.lock().unwrap().send(());
            let _ = release_rx.lock().unwrap().recv();
            AutoSuggest::train(AutoSuggestConfig::fast(seed))
        }),
        ..Default::default()
    };
    let (server, _snapshot) =
        auto_suggest::obs::with_local_registry(|| serve(slot, config).expect("bind loopback"));
    let addr = server.addr().to_string();

    // Unknown modes are rejected outright, before the lock is involved.
    for mode in ["sideways", "incremental"] {
        let path = format!("/admin/reload?mode={mode}");
        let (status, v) = call(&addr, "POST", &path, r#"{"seed": 1}"#);
        assert_eq!(status, 400, "{path}: {v}");
        let msg = v.get("error").and_then(Value::as_str).unwrap_or_default();
        assert!(msg.contains(mode), "unhelpful error: {msg}");
    }

    // First reload enters its trainer and parks there...
    let first = {
        let addr = addr.clone();
        std::thread::spawn(move || call(&addr, "POST", "/admin/reload", r#"{"seed": 1}"#))
    };
    entered_rx.recv().expect("first reload reaches its trainer");

    // ...so any further reload answers 409 with a JSON error body.
    for path in ["/admin/reload?mode=full", "/admin/reload"] {
        let (status, v) = call(&addr, "POST", path, r#"{"seed": 2}"#);
        assert_eq!(status, 409, "{path}: {v}");
        let msg = v.get("error").and_then(Value::as_str).unwrap_or_default();
        assert!(msg.contains("in flight"), "{path}: unhelpful error: {msg}");
    }

    // Serving is unaffected while the reload holds the lock.
    let (status, v) = call(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(v.get("model_version").and_then(Value::as_i64), Some(1));

    // Release the trainer: the parked reload completes normally.
    drop(release_tx);
    let (status, v) = first.join().expect("reload client");
    assert_eq!(status, 200, "{v}");
    assert_eq!(v.get("model_version").and_then(Value::as_i64), Some(2));

    // And the lock is free again: a plain full reload goes through.
    let (status, v) = call(&addr, "POST", "/admin/reload", r#"{"seed": 4}"#);
    assert_eq!(status, 200, "{v}");
    assert_eq!(v.get("mode").and_then(Value::as_str), Some("full"));
    assert_eq!(v.get("model_version").and_then(Value::as_i64), Some(3));

    server.shutdown();
    server.wait().expect("clean shutdown");
}

/// The connection cap is `queue_capacity`, and every connection has
/// deadlines. First, on a daemon with the default 10 s deadline, four
/// idle keep-alive connections hold every place under a cap of 4 for the
/// whole phase, so the next two connections are answered `503` without a
/// thread, whether or not they sent a request. Then, on a daemon with a
/// 300 ms deadline: idle connections are closed at `io_timeout`, a client
/// trickling its request a byte every 50 ms gets `408` at the deadline
/// counted from its first byte, and `/suggest` serves the right bytes.
#[test]
fn connection_cap_and_deadlines_shed_idle_and_slow_clients() {
    use std::io::{BufRead, ErrorKind, Read, Write};
    use std::time::{Duration, Instant};
    let patience = Duration::from_secs(5);
    let (slot, bodies, expected) = trained_slot();
    let live_u64 = |stats: &Value, key: &str| {
        stats.get("live").and_then(|live| live.get(key)).and_then(Value::as_u64)
    };

    let capped =
        serve_local(Arc::clone(&slot), ServerConfig { queue_capacity: 4, ..Default::default() });
    let addr = capped.addr().to_string();
    // The acceptor takes connections in order, so all four idle ones are
    // admitted before the refused ones are seen.
    let mut idle: Vec<TcpStream> =
        (0..4).map(|_| TcpStream::connect(&addr).expect("connect idle")).collect();
    // One refused client sends nothing; the other sends its request at
    // once, which the daemon reads and discards so that its close cannot
    // reset the answer away. Both must read the 503.
    for raw in ["", "GET /healthz HTTP/1.1\r\n\r\n"] {
        let (status, v) = call_raw(&addr, raw);
        assert_eq!(status, 503, "{raw:?}: {v}");
        let msg = v.get("error").and_then(Value::as_str).unwrap_or_default();
        assert!(msg.contains("connection limit"), "unhelpful error: {msg}");
    }
    // An admitted connection still serves, and sees both refusals.
    let stats: Value = {
        let stream = &mut idle[0];
        http::write_request(stream, "GET", "/stats", "").expect("send");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let (status, text) = http::read_response(&mut reader, MAX_RESPONSE).expect("recv");
        assert_eq!(status, 200, "{text}");
        serde_json::from_str(&text).expect("stats JSON")
    };
    assert_eq!(live_u64(&stats, "rejected_conn_cap"), Some(2), "{stats}");
    assert_eq!(live_u64(&stats, "connections_open"), Some(4), "{stats}");
    drop(idle);
    capped.shutdown();
    capped.wait().expect("clean shutdown");

    let io_timeout = Duration::from_millis(300);
    let server =
        serve_local(slot, ServerConfig { queue_capacity: 4, io_timeout, ..Default::default() });
    let addr = server.addr().to_string();

    // The daemon closes each idle connection once it has waited
    // `io_timeout` for a first byte, and gives back its place.
    let idle: Vec<TcpStream> =
        (0..4).map(|_| TcpStream::connect(&addr).expect("connect idle")).collect();
    let started = Instant::now();
    for mut stream in idle {
        stream.set_read_timeout(Some(patience)).expect("read timeout");
        let mut byte = [0u8; 1];
        assert_eq!(stream.read(&mut byte).expect("idle connection closed, not reset"), 0);
    }
    assert!(started.elapsed() < patience);

    // Slow loris: one byte every 50 ms, checking for an answer between
    // bytes. The request is far longer than the deadline allows.
    let request = format!(
        "POST /suggest HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
        bodies[0].len(),
        bodies[0]
    );
    let mut loris = TcpStream::connect(&addr).expect("connect loris");
    loris.set_nodelay(true).expect("nodelay");
    loris.set_read_timeout(Some(Duration::from_millis(50))).expect("read timeout");
    let mut reader = BufReader::new(loris.try_clone().expect("clone"));
    let started = Instant::now();
    for byte in request.as_bytes() {
        match reader.fill_buf() {
            Ok([]) => panic!("loris connection closed without an answer"),
            Ok(_) => break,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => panic!("loris read: {e}"),
        }
        assert!(started.elapsed() < patience, "no answer to a trickled request");
        // Once the daemon has answered and closed, a write may fail; the
        // answer is read above on the next turn.
        let _ = loris.write_all(std::slice::from_ref(byte));
    }
    loris.set_read_timeout(Some(patience)).expect("read timeout");
    let (status, text) = http::read_response(&mut reader, MAX_RESPONSE).expect("loris answer");
    assert_eq!(status, 408, "{text}");
    assert!(started.elapsed() >= io_timeout, "408 before the deadline");

    // With the idle and slow clients gone, a real request serves.
    let started = Instant::now();
    let (status, v) = call(&addr, "POST", "/suggest", &bodies[0]);
    assert_eq!(status, 200, "{v}");
    assert_eq!(v.get("response").expect("response field").to_string(), expected[0]);
    assert!(started.elapsed() < patience);

    // No connection was refused: every closed one gave its place back.
    let (_, stats) = call(&addr, "GET", "/stats", "");
    assert_eq!(live_u64(&stats, "rejected_conn_cap"), Some(0), "{stats}");
    let open = live_u64(&stats, "connections_open").expect("connections_open");
    assert!((1..=4).contains(&open), "{open} connections open");

    server.shutdown();
    server.wait().expect("clean shutdown");
}
