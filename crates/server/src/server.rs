//! The `autosuggestd` daemon core: accept loop, micro-batcher, routes.
//!
//! ## Architecture
//!
//! ```text
//! clients ──► acceptor ──► handler thread per connection ──► BatchQueue (bounded)
//!   (≤ queue_capacity open,    first byte ─► Arrival ─► push    │ drain while an
//!    else 503, no thread)                                        │ Arrival is live
//!                                                                ▼ (≤ max_batch, ≤ window)
//!                                                          batcher thread
//!                                              warm_tables + par_try_map over the pool
//!                                                                │ per-job reply channel
//!                                                                ▼
//!                                                      handler writes HTTP response
//! ```
//!
//! Admission control is the queue bound. A connection holds at most one
//! queued job, since it waits for each answer before reading its next
//! request, so the acceptor admits at most `queue_capacity` open
//! connections and answers any beyond that `503` without spawning a
//! thread (discarding what of their request has arrived, so the close
//! does not reset the answer away): the cap on threads and the cap on
//! queued jobs are one number, and daemon memory is bounded regardless
//! of offered load. (A full queue still answers `429`, though under the
//! cap it cannot fill.)
//!
//! A handler takes an [`Arrival`](crate::queue::Arrival) once a
//! request's first byte is in and drops it right after pushing the job,
//! or as soon as it knows the request will not join a batch (an error,
//! another route). The batcher closes a batch as soon as no arrival is
//! live, so a request waits only for others already on their way;
//! `batch_window` is the upper bound, paid only for an arrival that
//! stalls. The batcher warms the column cache for the whole batch
//! ([`TrainedModels::warm_tables`](autosuggest_core::pipeline::TrainedModels::warm_tables))
//! and then answers each request on the pool, so concurrent clients
//! share column-sketch work.
//!
//! Every connection has deadlines of [`ServerConfig::io_timeout`]: to
//! send a request's first byte (an idle keep-alive connection past it is
//! closed), to send the rest of the request counted from that byte
//! (wall clock, so trickled bytes cannot extend it; a miss answers `408`
//! and closes), and for each response write.
//!
//! ## Determinism contract
//!
//! The obs counters recorded under `server.` with plain names
//! (`server.requests`, `server.responses_ok`, `server.responses_error`,
//! `server.faults_injected`, and `server.model_swaps` for reloads) are
//! *per-request facts*: commutative sums of
//! values that depend only on each request's content, never on how
//! requests were partitioned into batches. They are bit-identical across
//! thread counts and batch timings for a fixed request set, and they are
//! what `/stats` exposes as the `"deterministic"` section. Everything
//! scheduling-dependent — queue depth, batch count, batch sizes,
//! busy rejections — uses the `_live` suffix so it lands in the obs
//! timing view, and appears under `"live"` in `/stats`. (Counters
//! recorded *below* the batch executor by other crates, e.g. cache
//! warm-phase hits, are batching-dependent in a concurrent server; they
//! are visible via the full obs snapshot, not the curated section.)
//!
//! ## Model reloads
//!
//! `POST /admin/reload` with `{"seed": N}` swaps the served model without
//! downtime. [`ServerConfig::trainer`] trains a replacement from scratch
//! off the serving threads; the slot keeps only its
//! [`TrainedModels`](autosuggest_core::pipeline::TrainedModels), so the
//! replayed corpus is freed as soon as training returns. In-flight
//! batches finish on the snapshot they loaded, and the swap is one atomic
//! slot store. `?mode=full` is accepted as the explicit spelling of the
//! one mode; any other mode answers `400`. Exactly one reload runs at a
//! time — a second request while one is in flight answers `409 Conflict`
//! with a JSON body instead of queueing up redundant training behind a
//! lock.
//!
//! ## Fault injection
//!
//! With `AUTOSUGGEST_FAULTS` set, each `/suggest` request rolls for an
//! injected featurisation fault keyed on a hash of its body — a pure
//! function of request content, so fault counts are deterministic too.
//! `panic`-kind faults actually `panic!` inside the per-request closure
//! and are contained by the pool's `catch_unwind`; every other kind
//! surfaces as an error return. Either way the faulted request answers
//! `500` while the rest of its batch completes normally.

use crate::http::{self, HttpError, Request};
use crate::queue::{Arrival, BatchQueue, PushError};
use autosuggest_core::model_slot::ModelSlot;
use autosuggest_core::pipeline::{AutoSuggest, AutoSuggestConfig, SuggestResponse};
use autosuggest_core::wire;
use autosuggest_corpus::faults::{FaultKind, FaultSpec};
use autosuggest_obs as obs;
use autosuggest_parallel::TaskPanic;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
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
    /// Admission bound: at most this many open connections (more answer
    /// `503`) and queued jobs (more answer `429`).
    pub queue_capacity: usize,
    /// Micro-batch size cap.
    pub max_batch: usize,
    /// Longest a micro-batch stays open past its first job, waiting for
    /// requests still arriving.
    pub batch_window: Duration,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Deadline for a request's first byte, for the rest of the request
    /// from that byte, and for each response write. Not a deployment knob
    /// (the daemon has no flag for it): it exists so tests can shorten it.
    #[doc(hidden)]
    pub io_timeout: Duration,
    /// Trains the replacement model for `POST /admin/reload`.
    pub trainer: Box<dyn Fn(u64) -> AutoSuggest + Send + Sync>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_capacity: 256,
            max_batch: 32,
            batch_window: Duration::from_millis(2),
            max_body_bytes: 16 * 1024 * 1024,
            io_timeout: Duration::from_secs(10),
            trainer: Box::new(|seed| AutoSuggest::train(AutoSuggestConfig::fast(seed))),
        }
    }
}

/// One queued `/suggest` job. The handler thread blocks on `reply`.
struct Job {
    body_hash: u64,
    request: wire::OwnedSuggestRequest,
    reply: mpsc::Sender<JobOutcome>,
}

struct JobOutcome {
    model_version: u64,
    result: Result<SuggestResponse, String>,
}

/// Per-request failure inside the batch executor; `From<TaskPanic>` lets
/// the pool demote a panicking request to this without aborting siblings.
struct JobError(String);

impl From<TaskPanic> for JobError {
    fn from(p: TaskPanic) -> JobError {
        JobError(format!("request panicked: {}", p.message))
    }
}

struct Shared {
    addr: SocketAddr,
    slot: Arc<ModelSlot>,
    queue: BatchQueue<Job>,
    faults: Option<FaultSpec>,
    ambient: obs::Ambient,
    trace_ids: AtomicU64,
    shutdown: AtomicBool,
    started: Instant,
    max_body_bytes: usize,
    max_batch: usize,
    batch_window: Duration,
    io_timeout: Duration,
    trainer: Box<dyn Fn(u64) -> AutoSuggest + Send + Sync>,
    /// Exact batch-size → count histogram, maintained by the (single)
    /// batcher thread; scheduling-dependent, reported under `live`.
    batch_sizes: Mutex<BTreeMap<usize, u64>>,
    rejected_busy: AtomicU64,
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
    batcher: JoinHandle<()>,
}

/// Bind, spawn the acceptor and batcher, and return the running handle.
///
/// Observability flows into whatever obs registry is ambient on the
/// *calling* thread (the process-global one in the daemon; a local one in
/// tests), captured once here and installed in every server thread.
pub fn serve(slot: Arc<ModelSlot>, config: ServerConfig) -> io::Result<Server> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        addr,
        slot,
        queue: BatchQueue::new(config.queue_capacity),
        faults: FaultSpec::from_env(),
        ambient: obs::ambient(),
        trace_ids: AtomicU64::new(1),
        shutdown: AtomicBool::new(false),
        started: Instant::now(),
        max_body_bytes: config.max_body_bytes,
        max_batch: config.max_batch,
        batch_window: config.batch_window,
        // Socket timeouts must be nonzero.
        io_timeout: config.io_timeout.max(Duration::from_millis(1)),
        trainer: config.trainer,
        batch_sizes: Mutex::new(BTreeMap::new()),
        rejected_busy: AtomicU64::new(0),
        connections_open: AtomicUsize::new(0),
        rejected_conn_cap: AtomicU64::new(0),
        reload_lock: Mutex::new(()),
    });

    let batcher = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            let ambient = shared.ambient.clone();
            obs::with_ambient(&ambient, || run_batcher(&shared));
        })
    };
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || run_acceptor(listener, &shared))
    };

    Ok(Server { addr, shared, acceptor, batcher })
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

    /// Block until the acceptor and batcher have exited (i.e. after a
    /// shutdown was requested and in-flight work drained).
    pub fn wait(self) -> io::Result<()> {
        let join = |h: JoinHandle<()>, what: &str| {
            h.join().map_err(|p| {
                io::Error::other(format!(
                    "{what} thread panicked: {}",
                    autosuggest_parallel::panic_message(p.as_ref())
                ))
            })
        };
        join(self.acceptor, "acceptor")?;
        join(self.batcher, "batcher")
    }
}

fn begin_shutdown(shared: &Arc<Shared>) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return; // already shutting down
    }
    shared.queue.close();
    // Unblock the acceptor's blocking `accept` with a throwaway connection.
    let _ = TcpStream::connect(shared.addr);
}

// ---------------------------------------------------------------------------
// Acceptor + per-connection handler
// ---------------------------------------------------------------------------

fn run_acceptor(listener: TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Responses are single small writes; Nagle only adds latency here.
        let _ = stream.set_nodelay(true);
        // Only this thread adds to the count, so checking before adding
        // cannot overshoot the cap.
        if shared.connections_open.load(Ordering::SeqCst) >= shared.queue.capacity() {
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
        shared.queue.capacity()
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
        let arrival = shared.queue.arrival();
        reader.get_mut().deadline = Instant::now() + shared.io_timeout;
        let error = match http::read_request(&mut reader, shared.max_body_bytes) {
            Ok(None) => return,
            Ok(Some(req)) => {
                let close = req.close;
                // An error means the peer went away mid-response.
                if handle_request(&mut writer, req, arrival, shared).is_err() || close {
                    return;
                }
                continue;
            }
            Err(e) => e,
        };
        drop(arrival);
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
    arrival: Arrival<'_, Job>,
    shared: &Arc<Shared>,
) -> io::Result<()> {
    // `Request::path` carries the query string verbatim; split it off so
    // routing matches the bare path and handlers that care get the query.
    let (path, query) = match req.path.split_once('?') {
        Some((path, query)) => (path, query),
        None => (req.path.as_str(), ""),
    };
    if (req.method.as_str(), path) == ("POST", "/suggest") {
        return handle_suggest(writer, &req.body, arrival, shared);
    }
    // No other route joins a batch.
    drop(arrival);
    match (req.method.as_str(), path) {
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

fn handle_suggest(
    writer: &mut impl Write,
    body: &[u8],
    arrival: Arrival<'_, Job>,
    shared: &Arc<Shared>,
) -> io::Result<()> {
    let trace_id = shared.trace_ids.fetch_add(1, Ordering::Relaxed);
    let trace_header = trace_id.to_string();
    let headers = [("X-Trace-Id", trace_header.as_str())];
    let _span = obs::span("server.request");
    obs::counter_add(REQUESTS_COUNTER, 1);

    let parsed = std::str::from_utf8(body)
        .map_err(|_| "body is not UTF-8".to_string())
        .and_then(|text| serde_json::from_str(text).map_err(|e| format!("bad JSON: {e}")))
        .and_then(|v: Value| wire::decode_request(&v).map_err(|e| e.to_string()));
    let request = match parsed {
        Ok(r) => r,
        Err(msg) => {
            drop(arrival);
            obs::counter_add(RESPONSES_ERROR_COUNTER, 1);
            let body = json!({"trace_id": trace_id, "error": msg});
            return http::write_response(writer, 400, &headers, &body.to_string());
        }
    };

    let (tx, rx) = mpsc::channel();
    let job = Job { body_hash: autosuggest_corpus::durable::fnv64(body), request, reply: tx };
    let pushed = shared.queue.try_push(job);
    // Never held while waiting for the reply: the batcher would wait out
    // its window for a request that cannot come.
    drop(arrival);
    match pushed {
        Ok(()) => {}
        Err(PushError::Full) => {
            shared.rejected_busy.fetch_add(1, Ordering::Relaxed);
            obs::counter_add("server.rejected_busy_live", 1);
            let body = json!({"trace_id": trace_id, "error": "queue full, retry later"});
            return http::write_response(writer, 429, &headers, &body.to_string());
        }
        Err(PushError::Closed) => {
            let body = json!({"trace_id": trace_id, "error": "server shutting down"});
            return http::write_response(writer, 503, &headers, &body.to_string());
        }
    }

    match rx.recv() {
        Ok(JobOutcome { model_version, result: Ok(response) }) => {
            obs::counter_add(RESPONSES_OK_COUNTER, 1);
            let body = json!({
                "trace_id": trace_id,
                "model_version": model_version,
                "response": wire::encode_response(&response),
            });
            http::write_response(writer, 200, &headers, &body.to_string())
        }
        Ok(JobOutcome { result: Err(msg), .. }) => {
            obs::counter_add(RESPONSES_ERROR_COUNTER, 1);
            let body = json!({"trace_id": trace_id, "error": msg});
            http::write_response(writer, 500, &headers, &body.to_string())
        }
        Err(_) => {
            // Batcher dropped the reply channel without answering — only
            // possible if it is shutting down mid-flight.
            obs::counter_add(RESPONSES_ERROR_COUNTER, 1);
            let body = json!({"trace_id": trace_id, "error": "server shutting down"});
            http::write_response(writer, 503, &headers, &body.to_string())
        }
    }
}

/// Value of `name` in a `k=v&k2=v2` query string, if present.
fn query_param<'a>(query: &'a str, name: &str) -> Option<&'a str> {
    query.split('&').find_map(|pair| {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        (key == name).then_some(value)
    })
}

fn handle_reload(
    writer: &mut impl Write,
    query: &str,
    body: &[u8],
    shared: &Arc<Shared>,
) -> io::Result<()> {
    let _span = obs::span("server.reload");
    let mode = query_param(query, "mode").unwrap_or("full");
    if mode != "full" {
        let body = json!({"error": format!("unknown reload mode {mode:?} (expected \"full\")")});
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

// ---------------------------------------------------------------------------
// Batcher
// ---------------------------------------------------------------------------

fn run_batcher(shared: &Arc<Shared>) {
    while let Some(jobs) = shared.queue.drain_batch(shared.max_batch, shared.batch_window) {
        if jobs.is_empty() {
            continue;
        }
        execute_batch(&jobs, shared);
    }
}

fn execute_batch(jobs: &[Job], shared: &Arc<Shared>) {
    obs::counter_add("server.batches_live", 1);
    obs::observe("server.batch_size_live", jobs.len() as f64);
    obs::gauge_set("server.queue_depth_live", shared.queue.len() as f64);
    if let Ok(mut sizes) = shared.batch_sizes.lock() {
        *sizes.entry(jobs.len()).or_insert(0) += 1;
    }

    let model = shared.slot.load();
    let requests: Vec<_> = jobs.iter().map(|j| j.request.as_request()).collect();
    // Warm shared column sketches across the whole batch. Guarded: a
    // panic during warming must degrade to per-request computation, not
    // kill the batcher.
    let ambient = obs::ambient();
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        obs::with_ambient(&ambient, || model.system.warm_tables(&requests))
    }));

    let results: Vec<Result<SuggestResponse, JobError>> =
        autosuggest_parallel::par_try_map(jobs, |job| {
            if let Some(kind) = injected_fault(shared, job.body_hash) {
                obs::counter_add(FAULTS_INJECTED_COUNTER, 1);
                if kind == FaultKind::Panic {
                    // A genuine panic, contained by the pool's catch_unwind:
                    // proves one poisoned request cannot take down the batch.
                    panic!("injected {} fault", kind.as_str());
                }
                return Err(JobError(format!(
                    "injected {} fault during featurisation",
                    kind.as_str()
                )));
            }
            Ok(model.system.suggest(&job.request.as_request()))
        });

    for (job, result) in jobs.iter().zip(results) {
        let outcome = JobOutcome {
            model_version: model.version,
            result: result.map_err(|JobError(msg)| msg),
        };
        // A send error means the handler gave up (connection died); the
        // computed answer is simply dropped.
        let _ = job.reply.send(outcome);
    }
}

/// Roll the fault table for a request, keyed purely on its body hash so
/// injection is a deterministic property of request *content*, not of
/// arrival order or batch placement.
fn injected_fault(shared: &Arc<Shared>, body_hash: u64) -> Option<FaultKind> {
    let spec = shared.faults.as_ref()?;
    spec.fault_for(&format!("req:{body_hash:016x}"), 0, 0, 0)
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// Build the `/stats` document. The `"deterministic"` section is the
/// curated, thread- and timing-invariant slice (see module docs); CI
/// diffs its rendering byte-for-byte across thread counts.
fn stats_value(shared: &Arc<Shared>) -> Value {
    let snapshot = obs::snapshot();
    let mut deterministic = serde_json::Map::new();
    for (name, value) in &snapshot.counters {
        if name.starts_with("server.") && !obs::is_timing_name(name) {
            deterministic.insert(name.clone(), Value::from(*value));
        }
    }

    let sizes = shared
        .batch_sizes
        .lock()
        .map(|m| {
            let mut hist = serde_json::Map::new();
            for (size, count) in m.iter() {
                hist.insert(size.to_string(), Value::from(*count));
            }
            Value::Object(hist)
        })
        .unwrap_or(Value::Null);

    json!({
        "deterministic": Value::Object(deterministic),
        "live": {
            "queue_depth": shared.queue.len(),
            "queue_capacity": shared.queue.capacity(),
            "rejected_busy": shared.rejected_busy.load(Ordering::Relaxed),
            "connections_open": shared.connections_open.load(Ordering::SeqCst),
            "rejected_conn_cap": shared.rejected_conn_cap.load(Ordering::Relaxed),
            "batch_sizes": sizes,
            "uptime_seconds": shared.started.elapsed().as_secs_f64(),
        },
        "model": {
            "version": shared.slot.version(),
        },
    })
}
