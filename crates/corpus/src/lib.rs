//! Notebook corpus, replay engine, and data-flow extraction.
//!
//! §3 of the paper crawls 4.7M GitHub notebooks, replays them step-by-step
//! with dynamic instrumentation, repairs missing data files and packages,
//! and logs full input/output tables plus every parameter of each operator
//! call. GitHub-scale crawling is not reproducible offline, so this crate
//! substitutes a **synthetic notebook corpus** whose generator plants the
//! same ground-truth structure the paper observes in the wild (see
//! DESIGN.md §1), and an in-process **replay engine** that mirrors the
//! paper's §3.2 pipeline: execute cells, parse failure messages, resolve
//! missing files by basename search / URL hints / a Kaggle-style dataset
//! API, install missing packages, re-execute, and instrument every operator
//! invocation.
//!
//! The result of replay is a stream of [`replay::OpInvocation`] records and
//! per-notebook [`flowgraph::FlowGraph`]s — the "click-through log"
//! equivalent every predictor trains on.
//!
//! Failures are first-class citizens: [`error::ReplayError`] classifies
//! them, [`faults::FaultSpec`] injects them deterministically, and
//! [`replay::ReplayEngine::replay_corpus`] quarantines and retries them
//! (see DESIGN.md §7).

// Library code must degrade gracefully at crawl scale — panicking escape
// hatches are confined to tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod datasets;
pub mod durable;
pub mod error;
pub mod faults;
pub mod filter;
pub mod flowgraph;
pub mod lang;
pub mod nbgen;
pub mod notebook;
pub mod replay;
pub mod split;
pub mod stats;
pub mod store;
pub mod stream;
pub mod tablegen;

pub use datasets::DatasetRepository;
pub use error::{ReplayError, ReplayErrorKind};
pub use faults::{FaultKind, FaultSpec, KindCounters, RobustnessStats};
pub use filter::{filter_invocations, FilterStats};
pub use flowgraph::{FlowGraph, OpKind};
pub use lang::{CellAst, Expr, Stmt};
pub use nbgen::{CorpusConfig, CorpusGenerator, GeneratedCorpus};
pub use notebook::{Cell, Notebook};
pub use replay::{OpInvocation, ReplayEngine, ReplayOutcome, ReplayReport};
pub use split::{grouped_split, is_test_group, SplitSets};
pub use store::SampleStore;
pub use stream::{
    corpus_id, replay_corpus_streamed, scan_scenario_stats, ScenarioStats, StreamConfig,
    StreamSummary,
};
pub use tablegen::{TableGenConfig, TableGenerator, TableKind};
