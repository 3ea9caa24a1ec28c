//! The `autosuggestd` daemon core: accept loop, per-connection handlers,
//! compute permits, routes.
//!
//! ## Architecture
//!
//! ```text
//! clients ──► acceptor ──► handler thread per connection (keep-alive loop)
//!   (≤ max_connections open,      │ read + decode the request
//!    else 503, no thread)         ▼
//!                           compute permit (≤ pool threads held at once)
//!                                 │ suggest under catch_unwind, on the pool
//!                                 ▼
//!                           encode + write the response, give the permit back
//! ```
//!
//! Each `/suggest` is answered on its own connection's handler thread. No
//! request waits for another to arrive, and none is answered by a thread
//! other than its own. Before it featurises, a handler takes a compute
//! permit from a counting semaphore sized to the pool's thread count
//! ([`autosuggest_parallel::current_threads`]), so however many clients
//! are connected, at most that many requests compute at once; the others
//! wait for a permit on their own threads. The column cache is
//! single-flight per shard, so concurrent requests over one table still
//! sketch each column once.
//!
//! Admission control is the connection cap. The acceptor admits at most
//! [`ServerConfig::max_connections`] open connections, one handler thread
//! each, and answers any beyond that `503` without spawning a thread
//! (discarding what of their request has arrived, so the close does not
//! reset the answer away). A connection holds at most one request at a
//! time, since it answers each before reading the next, so daemon threads
//! and memory stay bounded regardless of offered load.
//!
//! Every connection has deadlines of [`ServerConfig::io_timeout`]: to
//! send a request's first byte (an idle keep-alive connection past it is
//! closed), to send the rest of the request counted from that byte
//! (wall clock, so trickled bytes cannot extend it; a miss answers `408`
//! and closes), and for each response write.
//!
//! Shutdown closes the permits: from then on a `/suggest` that has no
//! permit yet answers `503`, while one that holds a permit is answered
//! normally, and [`Server::wait`] returns only once every permit is back.
//!
//! ## Determinism contract
//!
//! The obs counters recorded under `server.` with plain names
//! (`server.requests`, `server.responses_ok`, `server.responses_error`,
//! `server.faults_injected`, and `server.model_swaps` for reloads) are
//! *per-request facts*: commutative sums of values that depend only on
//! each request's content, never on which requests computed at the same
//! time. They are bit-identical across thread counts and timings for a
//! fixed request set, and they are what `/stats` exposes as the
//! `"deterministic"` section. Scheduling-dependent state (open
//! connections, held permits and their high-water mark, refusals) appears
//! under `"live"` in `/stats`. (Counters recorded by other crates below
//! `suggest`, e.g. cache hits, depend on which request sketched a shared
//! column first; they are visible via the full obs snapshot, not the
//! curated section.)
//!
//! ## Model reloads
//!
//! `POST /admin/reload` with `{"seed": N}` swaps the served model without
//! downtime. [`ServerConfig::trainer`] trains a replacement from scratch
//! off the serving threads; the slot keeps only its
//! [`TrainedModels`](autosuggest_core::pipeline::TrainedModels), so the
//! replayed corpus is freed as soon as training returns. In-flight
//! requests finish on the snapshot they loaded, and the swap is one atomic
//! slot store. There is one reload mode; a query string answers `400`.
//! Exactly one reload runs at a time — a second request while one is in
//! flight answers `409 Conflict` with a JSON body instead of queueing up
//! redundant training behind a lock.
//!
//! ## Fault injection
//!
//! With [`ServerConfig::faults`] set, each `/suggest` request rolls for an
//! injected featurisation fault keyed on a hash of its body — a pure
//! function of request content, so fault counts are deterministic too.
//! `panic`-kind faults actually `panic!` where `suggest` would run and are
//! contained by the handler's `catch_unwind`; every other kind surfaces as
//! an error return. Either way the faulted request answers `500` while
//! every other request is answered normally.

use crate::http::{self, HttpError, Request};
use autosuggest_core::model_slot::ModelSlot;
use autosuggest_core::pipeline::{AutoSuggest, AutoSuggestConfig};
use autosuggest_core::wire;
use autosuggest_corpus::faults::{FaultKind, FaultSpec};
use autosuggest_obs as obs;
use serde_json::{json, Value};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Obs counter names for the curated deterministic section of `/stats`.
pub const REQUESTS_COUNTER: &str = "server.requests";
pub const RESPONSES_OK_COUNTER: &str = "server.responses_ok";
pub const RESPONSES_ERROR_COUNTER: &str = "server.responses_error";
pub const FAULTS_INJECTED_COUNTER: &str = "server.faults_injected";

/// Tuning knobs for one daemon instance.
pub struct ServerConfig {
    /// Bind address; use port 0 for an OS-assigned port.
    pub addr: String,
    /// Admission bound: at most this many open connections, one handler
    /// thread each (more answer `503`). With `max_body_bytes` it bounds
    /// the daemon's memory.
    pub max_connections: usize,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Deadline for a request's first byte, for the rest of the request
    /// from that byte, and for each response write. Not a deployment knob
    /// (the daemon has no flag for it): it exists so tests can shorten it.
    #[doc(hidden)]
    pub io_timeout: Duration,
    /// Per-request fault injection for `/suggest` (testing only). `None`,
    /// the default, injects nothing.
    pub faults: Option<FaultSpec>,
    /// Trains the replacement model for `POST /admin/reload`.
    pub trainer: Box<dyn Fn(u64) -> AutoSuggest + Send + Sync>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 256,
            max_body_bytes: 16 * 1024 * 1024,
            io_timeout: Duration::from_secs(10),
            faults: None,
            trainer: Box::new(|seed| AutoSuggest::train(AutoSuggestConfig::fast(seed))),
        }
    }
}

/// A first-come-first-served counting semaphore over compute permits.
/// Closing it is the daemon's shutdown state.
struct Permits {
    capacity: usize,
    state: Mutex<PermitState>,
    changed: Condvar,
}

#[derive(Default)]
struct PermitState {
    /// Tickets taken, one per `acquire`: permits go out in ticket order, so
    /// no waiting request is overtaken by a later one.
    tickets: u64,
    /// Permits given back.
    returned: u64,
    held: usize,
    /// High-water mark of `held`.
    peak: usize,
    closed: bool,
}

/// A held compute permit, given back on drop.
struct Permit<'a>(&'a Permits);

impl Permits {
    fn new(capacity: usize) -> Permits {
        Permits {
            capacity: capacity.max(1),
            state: Mutex::new(PermitState::default()),
            changed: Condvar::new(),
        }
    }

    /// The state is a few counters, consistent after any panic.
    fn lock(&self) -> MutexGuard<'_, PermitState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, state: MutexGuard<'a, PermitState>) -> MutexGuard<'a, PermitState> {
        self.changed.wait(state).unwrap_or_else(PoisonError::into_inner)
    }

    /// Wait for a permit; `None` once the permits are closed.
    fn acquire(&self) -> Option<Permit<'_>> {
        let mut state = self.lock();
        let ticket = state.tickets;
        state.tickets += 1;
        // Ticket t goes once all but `capacity - 1` of tickets 0..t have
        // given their permits back.
        while !state.closed && ticket >= state.returned + self.capacity as u64 {
            state = self.wait(state);
        }
        if state.closed {
            return None;
        }
        state.held += 1;
        state.peak = state.peak.max(state.held);
        Some(Permit(self))
    }

    /// Refuse every later `acquire`, and wake the ones waiting to refuse
    /// them too. Returns whether the permits were already closed.
    fn close(&self) -> bool {
        let was_closed = std::mem::replace(&mut self.lock().closed, true);
        self.changed.notify_all();
        was_closed
    }

    fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Block until every held permit is back.
    fn drain(&self) {
        let mut state = self.lock();
        while state.held > 0 {
            state = self.wait(state);
        }
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.held -= 1;
        state.returned += 1;
        drop(state);
        self.0.changed.notify_all();
    }
}

struct Shared {
    addr: SocketAddr,
    slot: Arc<ModelSlot>,
    permits: Permits,
    faults: Option<FaultSpec>,
    ambient: obs::Ambient,
    trace_ids: AtomicU64,
    started: Instant,
    max_connections: usize,
    max_body_bytes: usize,
    io_timeout: Duration,
    trainer: Box<dyn Fn(u64) -> AutoSuggest + Send + Sync>,
    /// Admitted connections whose handler has not yet finished.
    connections_open: AtomicUsize,
    rejected_conn_cap: AtomicU64,
    reload_lock: Mutex<()>,
}

/// A running daemon. Dropping the handle does *not* stop it; call
/// [`Server::shutdown`] (or hit `POST /admin/shutdown`) then
/// [`Server::wait`].
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
}

/// Bind, spawn the acceptor, and return the running handle.
///
/// Observability flows into whatever obs registry is ambient on the
/// *calling* thread (the process-global one in the daemon; a local one in
/// tests), captured once here and installed in every server thread. The
/// compute permits are sized to the pool's thread count at this call.
pub fn serve(slot: Arc<ModelSlot>, config: ServerConfig) -> io::Result<Server> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        addr,
        slot,
        permits: Permits::new(autosuggest_parallel::current_threads()),
        faults: config.faults,
        ambient: obs::ambient(),
        trace_ids: AtomicU64::new(1),
        started: Instant::now(),
        max_connections: config.max_connections,
        max_body_bytes: config.max_body_bytes,
        // Socket timeouts must be nonzero.
        io_timeout: config.io_timeout.max(Duration::from_millis(1)),
        trainer: config.trainer,
        connections_open: AtomicUsize::new(0),
        rejected_conn_cap: AtomicU64::new(0),
        reload_lock: Mutex::new(()),
    });
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || run_acceptor(listener, &shared))
    };
    Ok(Server { addr, shared, acceptor })
}

impl Server {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Programmatic equivalent of `POST /admin/shutdown`.
    pub fn shutdown(&self) {
        begin_shutdown(&self.shared);
    }

    /// Block until the acceptor has exited and every `/suggest` that held
    /// a compute permit has been answered (i.e. after a shutdown was
    /// requested and in-flight work drained).
    pub fn wait(self) -> io::Result<()> {
        self.acceptor.join().map_err(|p| {
            io::Error::other(format!(
                "acceptor thread panicked: {}",
                autosuggest_parallel::panic_message(p.as_ref())
            ))
        })?;
        self.shared.permits.drain();
        Ok(())
    }
}

fn begin_shutdown(shared: &Arc<Shared>) {
    if shared.permits.close() {
        return; // already shutting down
    }
    // Unblock the acceptor's blocking `accept` with a throwaway connection.
    let _ = TcpStream::connect(shared.addr);
}

// ---------------------------------------------------------------------------
// Acceptor + per-connection handler
// ---------------------------------------------------------------------------

fn run_acceptor(listener: TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.permits.is_closed() {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Responses are single small writes; Nagle only adds latency here.
        let _ = stream.set_nodelay(true);
        // Only this thread adds to the count, so checking before adding
        // cannot overshoot the cap.
        if shared.connections_open.load(Ordering::SeqCst) >= shared.max_connections {
            refuse_over_cap(stream, shared);
            continue;
        }
        let _ = stream.set_write_timeout(Some(shared.io_timeout));
        shared.connections_open.fetch_add(1, Ordering::SeqCst);
        let admitted = Admitted(Arc::clone(shared));
        // A failed spawn drops the closure, and with it the stream and the
        // connection's place under the cap.
        let _ = std::thread::Builder::new().spawn(move || {
            let ambient = admitted.0.ambient.clone();
            obs::with_ambient(&ambient, || handle_connection(stream, admitted));
        });
    }
}

/// Answer a connection over the cap `503` on the acceptor thread without
/// ever blocking it. The answer and a FIN go out first; then whatever of
/// the client's request has already arrived is discarded, because closing
/// a socket with unread input sends a reset that can destroy the answer
/// before the client reads it. Input that arrives after the close still
/// draws a reset, but the answer and FIN are already in the client's
/// receive buffer by then.
fn refuse_over_cap(mut stream: TcpStream, shared: &Shared) {
    shared.rejected_conn_cap.fetch_add(1, Ordering::Relaxed);
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let body = json!({"error": format!(
        "connection limit of {} reached, retry later",
        shared.max_connections
    )});
    // A fresh socket's send buffer always has room for this one answer.
    let _ = http::write_response(&mut stream, 503, &[], &body.to_string());
    let _ = stream.shutdown(Shutdown::Write);
    let mut discard = [0u8; 4096];
    for _ in 0..16 {
        match stream.read(&mut discard) {
            Ok(n) if n > 0 => {}
            _ => break, // EOF, nothing more yet, or an error
        }
    }
}

/// An admitted connection's place under the cap, given back on drop.
struct Admitted(Arc<Shared>);

impl Drop for Admitted {
    fn drop(&mut self) {
        self.0.connections_open.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A connection's read half with a wall-clock deadline: each read waits
/// at most until `deadline`, so a peer that trickles bytes cannot push it
/// back.
struct DeadlineReader {
    stream: TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let remaining = self.deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(remaining))?;
        self.stream.read(buf)
    }
}

/// A socket read timeout reads as `WouldBlock` on Unix and `TimedOut`
/// elsewhere; [`DeadlineReader`] itself returns `TimedOut`.
fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

fn handle_connection(stream: TcpStream, admitted: Admitted) {
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader =
        BufReader::new(DeadlineReader { stream: read_half, deadline: Instant::now() });
    let mut writer = stream;
    // Declared after the sockets, so the place under the cap is given back
    // before they close: a client that sees this connection end can be
    // admitted again at once.
    let admitted = admitted;
    let shared = &admitted.0;
    loop {
        reader.get_mut().deadline = Instant::now() + shared.io_timeout;
        match reader.fill_buf() {
            Ok(bytes) if !bytes.is_empty() => {}
            // Clean keep-alive EOF, idle past the deadline, or I/O error.
            _ => return,
        }
        reader.get_mut().deadline = Instant::now() + shared.io_timeout;
        let error = match http::read_request(&mut reader, shared.max_body_bytes) {
            Ok(None) => return,
            Ok(Some(req)) => {
                let close = req.close;
                // An error means the peer went away mid-response.
                if handle_request(&mut writer, req, shared).is_err() || close {
                    return;
                }
                continue;
            }
            Err(e) => e,
        };
        let (status, message) = match error {
            HttpError::BodyTooLarge { limit } => (413, format!("body exceeds {limit} byte limit")),
            HttpError::Malformed(m) => (400, format!("malformed request: {m}")),
            // Without a declared length, any body bytes still on the wire
            // would desync the keep-alive stream — answer and close rather
            // than guess.
            HttpError::LengthRequired => {
                (411, "content-length required for body-bearing requests".to_string())
            }
            HttpError::Io(e) if is_timeout(&e) => {
                (408, format!("request not received within {:?}", shared.io_timeout))
            }
            HttpError::Io(_) => return,
        };
        let body = json!({ "error": message });
        let _ = http::write_response(&mut writer, status, &[], &body.to_string());
        return;
    }
}

fn handle_request(
    writer: &mut impl Write,
    req: Request,
    shared: &Arc<Shared>,
) -> io::Result<()> {
    // `Request::path` carries the query string verbatim; split it off so
    // routing matches the bare path and handlers that care get the query.
    let (path, query) = match req.path.split_once('?') {
        Some((path, query)) => (path, query),
        None => (req.path.as_str(), ""),
    };
    match (req.method.as_str(), path) {
        ("POST", "/suggest") => handle_suggest(writer, &req.body, shared),
        ("GET", "/healthz") => {
            let body = json!({
                "status": "ok",
                "model_version": shared.slot.version(),
            });
            http::write_response(writer, 200, &[], &body.to_string())
        }
        ("GET", "/stats") => {
            http::write_response(writer, 200, &[], &stats_value(shared).to_string())
        }
        ("POST", "/admin/reload") => handle_reload(writer, query, &req.body, shared),
        ("POST", "/admin/shutdown") => {
            let body = json!({"status": "shutting down"});
            http::write_response(writer, 200, &[], &body.to_string())?;
            // Respond first so the client sees the acknowledgement even
            // though the acceptor is about to stop taking connections.
            begin_shutdown(shared);
            Ok(())
        }
        ("POST" | "GET", _) => {
            let body = json!({"error": format!("no such endpoint: {}", req.path)});
            http::write_response(writer, 404, &[], &body.to_string())
        }
        (method, _) => {
            let body = json!({"error": format!("method {method} not supported")});
            http::write_response(writer, 405, &[], &body.to_string())
        }
    }
}

fn handle_suggest(writer: &mut impl Write, body: &[u8], shared: &Arc<Shared>) -> io::Result<()> {
    let trace_id = shared.trace_ids.fetch_add(1, Ordering::Relaxed);
    let trace_header = trace_id.to_string();
    let headers = [("X-Trace-Id", trace_header.as_str())];
    let _span = obs::span("server.request");
    obs::counter_add(REQUESTS_COUNTER, 1);

    // The body's bytes go straight into the request's columns: no JSON
    // tree is built for it.
    let parsed = std::str::from_utf8(body)
        .map_err(|_| "body is not UTF-8".to_string())
        .and_then(|text| wire::decode_request_text(text).map_err(|e| e.to_string()));
    let request = match parsed {
        Ok(r) => r,
        Err(msg) => {
            obs::counter_add(RESPONSES_ERROR_COUNTER, 1);
            let body = json!({"trace_id": trace_id, "error": msg});
            return http::write_response(writer, 400, &headers, &body.to_string());
        }
    };

    // Held until the answer is written, so `Server::wait` returns only
    // once it is.
    let Some(_permit) = shared.permits.acquire() else {
        let body = json!({"trace_id": trace_id, "error": "server shutting down"});
        return http::write_response(writer, 503, &headers, &body.to_string());
    };
    let model = shared.slot.load();
    let result = catch_unwind(AssertUnwindSafe(|| {
        if let Some(kind) = injected_fault(shared, body) {
            obs::counter_add(FAULTS_INJECTED_COUNTER, 1);
            if kind == FaultKind::Panic {
                // A genuine panic, contained just below: proves one
                // poisoned request cannot take down its handler.
                panic!("injected {} fault", kind.as_str());
            }
            return Err(format!("injected {} fault during featurisation", kind.as_str()));
        }
        Ok(model.system.suggest(&request.as_request()))
    }))
    .unwrap_or_else(|p| {
        Err(format!("request panicked: {}", autosuggest_parallel::panic_message(p.as_ref())))
    });

    match result {
        Ok(response) => {
            obs::counter_add(RESPONSES_OK_COUNTER, 1);
            let body = json!({
                "trace_id": trace_id,
                "model_version": model.version,
                "response": wire::encode_response(&response),
            });
            http::write_response(writer, 200, &headers, &body.to_string())
        }
        Err(msg) => {
            obs::counter_add(RESPONSES_ERROR_COUNTER, 1);
            let body = json!({"trace_id": trace_id, "error": msg});
            http::write_response(writer, 500, &headers, &body.to_string())
        }
    }
}

fn handle_reload(
    writer: &mut impl Write,
    query: &str,
    body: &[u8],
    shared: &Arc<Shared>,
) -> io::Result<()> {
    let _span = obs::span("server.reload");
    // There is one reload mode, so there is nothing to select.
    if !query.is_empty() {
        let body = json!({"error": format!("reload takes no query parameters, got {query:?}")});
        return http::write_response(writer, 400, &[], &body.to_string());
    }
    let seed = std::str::from_utf8(body)
        .ok()
        .and_then(|text| serde_json::from_str(text).ok())
        .and_then(|v: Value| v.get("seed").and_then(Value::as_u64));
    let Some(seed) = seed else {
        let body = json!({"error": "reload body must be {\"seed\": <u64>}"});
        return http::write_response(writer, 400, &[], &body.to_string());
    };
    // One reload at a time. `try_lock` rather than `lock`: a second
    // request while one is training answers 409 immediately instead of
    // queueing up a redundant training run behind the in-flight one. A
    // poisoned lock just means a previous reload panicked after
    // answering; the slot itself is always consistent, so proceed.
    let guard = match shared.reload_lock.try_lock() {
        Ok(guard) => guard,
        Err(std::sync::TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        Err(std::sync::TryLockError::WouldBlock) => {
            let body = json!({"error": "a reload is already in flight, retry later"});
            return http::write_response(writer, 409, &[], &body.to_string());
        }
    };
    // The slot converts the trained system into its models, so the
    // replayed corpus is dropped here rather than held for the model's
    // lifetime.
    let version = shared.slot.swap((shared.trainer)(seed));
    obs::counter_add("server.model_swaps", 1);
    let response =
        json!({"status": "reloaded", "mode": "full", "model_version": version, "seed": seed});
    // Release before answering: a client that reads this 200 and fires
    // the next reload straight away must not race the guard drop into a
    // spurious 409.
    drop(guard);
    http::write_response(writer, 200, &[], &response.to_string())
}

/// Roll the fault table for a request, keyed purely on its body hash so
/// injection is a deterministic property of request *content*, not of
/// arrival order or timing. Without a fault spec the body is not hashed.
fn injected_fault(shared: &Arc<Shared>, body: &[u8]) -> Option<FaultKind> {
    let spec = shared.faults.as_ref()?;
    let body_hash = autosuggest_corpus::durable::fnv64(body);
    spec.fault_for(&format!("req:{body_hash:016x}"), 0, 0, 0)
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// Build the `/stats` document. The `"deterministic"` section is the
/// curated, thread- and timing-invariant slice (see module docs).
fn stats_value(shared: &Arc<Shared>) -> Value {
    let snapshot = obs::snapshot();
    let mut deterministic = serde_json::Map::new();
    for (name, value) in &snapshot.counters {
        if name.starts_with("server.") && !obs::is_timing_name(name) {
            deterministic.insert(name.clone(), Value::from(*value));
        }
    }

    let (in_flight, in_flight_peak) = {
        let permits = shared.permits.lock();
        (permits.held, permits.peak)
    };
    json!({
        "deterministic": Value::Object(deterministic),
        "live": {
            "connections_open": shared.connections_open.load(Ordering::SeqCst),
            "max_connections": shared.max_connections,
            "rejected_conn_cap": shared.rejected_conn_cap.load(Ordering::Relaxed),
            "in_flight": in_flight,
            "in_flight_peak": in_flight_peak,
            "uptime_seconds": shared.started.elapsed().as_secs_f64(),
        },
        "model": {
            "version": shared.slot.version(),
        },
    })
}
