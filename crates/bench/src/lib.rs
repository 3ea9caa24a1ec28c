//! Benchmark harness regenerating every table of the Auto-Suggest
//! evaluation (§6).
//!
//! The `repro` binary drives end-to-end reproduction: it generates the
//! synthetic corpus, replays it, trains all predictors, evaluates them and
//! every baseline, and prints each table of the paper side by side with the
//! paper's reported numbers. [`determinism`] runs any of that at 1 and N
//! threads and reports the first difference (`repro --check-determinism`).
//! Speed is measured by `perfbench`, the repository benchmark.

pub mod determinism;
pub mod tables;

pub use tables::{ReproContext, TableRow};
