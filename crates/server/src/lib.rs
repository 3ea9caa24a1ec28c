//! `autosuggestd` — a long-running HTTP suggestion daemon over trained
//! Auto-Suggest models.
//!
//! The library pipeline ([`autosuggest_core::pipeline::AutoSuggest`])
//! trains the models, and its
//! [`TrainedModels`](autosuggest_core::pipeline::TrainedModels) answer one
//! borrowed request at a time; this crate wraps them in a std-only
//! HTTP/1.1 front end so notebook clients can query a warm,
//! already-trained model over loopback instead of retraining per process:
//!
//! - **Wire format**: JSON requests/responses via
//!   [`autosuggest_core::wire`], parsed with the vendored `serde_json`
//!   shim — no external dependencies anywhere in the stack.
//! - **Admission control**: at most `max_connections` open connections,
//!   one handler thread each; more answer `503` without a thread, so
//!   memory and threads stay bounded. Every connection has read and write
//!   deadlines (`ServerConfig::io_timeout`): idle ones are closed, slow
//!   requests answer `408`.
//! - **Per-request execution**: each `/suggest` is answered on its own
//!   connection's handler thread, so no request waits for another to
//!   arrive. A compute permit, one of as many as the pool has threads,
//!   bounds how many requests featurise at once whatever the client
//!   count; the column cache shares sketches between concurrent requests.
//! - **Hot reload**: `POST /admin/reload` trains a replacement model from
//!   scratch and installs it with an atomic `Arc` swap
//!   ([`autosuggest_core::model_slot::ModelSlot`]), which keeps only the
//!   trained models; in-flight requests finish on the version they
//!   started with. There is one reload mode.
//! - **Graceful degradation**: with `ServerConfig::faults` set, injected
//!   per-request featurisation faults (including real panics) error only
//!   the affected request; every other request and the daemon survive.
//!
//! See `DESIGN.md` §12 for the protocol and determinism conventions, and
//! the README quickstart for running the daemon.
//!
//! ```no_run
//! use autosuggest_core::pipeline::{AutoSuggest, AutoSuggestConfig};
//! use autosuggest_core::model_slot::ModelSlot;
//! use std::sync::Arc;
//!
//! let system = AutoSuggest::train(AutoSuggestConfig::fast(42));
//! let slot = Arc::new(ModelSlot::new(system));
//! let server = autosuggest_server::serve(slot, Default::default()).unwrap();
//! println!("listening on {}", server.addr());
//! server.wait().unwrap();
//! ```

// The daemon must never die on a bad request — panicking escape hatches
// are confined to tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod http;
mod server;

pub use server::{
    serve, Server, ServerConfig, FAULTS_INJECTED_COUNTER, REQUESTS_COUNTER,
    RESPONSES_ERROR_COUNTER, RESPONSES_OK_COUNTER,
};
