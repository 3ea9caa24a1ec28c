//! # auto-suggest
//!
//! A from-scratch Rust reproduction of *Auto-Suggest: Learning-to-Recommend
//! Data Preparation Steps Using Data Science Notebooks* (Yan & He, SIGMOD
//! 2020).
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`parallel`] — the deterministic work-stealing thread pool
//!   (`AUTOSUGGEST_THREADS` controls width; results are bit-identical at
//!   every thread count);
//! * [`dataframe`] — the columnar table engine (the "Pandas" substrate);
//! * [`corpus`] — synthetic notebooks, the replay engine, data-flow graphs;
//! * [`features`] — the paper's feature extractors (§4);
//! * [`gbdt`] — gradient boosted trees for point-wise ranking;
//! * [`nn`] — the RNN/MLP substrate of the next-operator model (Fig. 13);
//! * [`graph`] — Stoer–Wagner, AMPT and CMUT solvers (§4.3–4.4);
//! * [`ranking`] — precision@k / NDCG@k / Rand-index metrics (§6.4);
//! * [`baselines`] — every comparator of the evaluation (§6);
//! * [`core`] — the Auto-Suggest predictors and end-to-end pipeline;
//! * [`obs`] — deterministic observability: spans, counters, gauges and
//!   histograms whose non-timing view is bit-identical at any thread count;
//! * [`cache`] — the content-addressed column-artifact cache (128-bit
//!   multiset fingerprints → interned sketches/statistics; hit/miss/eviction
//!   counters land in the deterministic obs section);
//! * [`server`] — `autosuggestd`, the long-running HTTP suggestion daemon
//!   (bounded admission queue, cross-request micro-batching, versioned
//!   model hot-reload, JSON wire format from [`core::wire`]).
//!
//! ```no_run
//! use auto_suggest::core::{AutoSuggest, AutoSuggestConfig};
//!
//! // Crawl-substitute → replay → train (minutes at full scale; use
//! // `AutoSuggestConfig::fast(seed)` for seconds).
//! let system = AutoSuggest::train(AutoSuggestConfig::fast(42));
//! let join = system.models.join.as_ref().unwrap();
//! let case = &system.test.join[0];
//! for s in join.suggest(&case.inputs[0], &case.inputs[1], 3) {
//!     println!("join {:?} = {:?} (score {:.2})", s.left_cols, s.right_cols, s.score);
//! }
//! ```

pub use autosuggest_baselines as baselines;
pub use autosuggest_cache as cache;
pub use autosuggest_parallel as parallel;
pub use autosuggest_core as core;
pub use autosuggest_corpus as corpus;
pub use autosuggest_dataframe as dataframe;
pub use autosuggest_features as features;
pub use autosuggest_gbdt as gbdt;
pub use autosuggest_graph as graph;
pub use autosuggest_nn as nn;
pub use autosuggest_obs as obs;
pub use autosuggest_ranking as ranking;
pub use autosuggest_server as server;
