//! Gradient boosted regression trees, from scratch.
//!
//! Auto-Suggest trains point-wise ranking models with binary 0/1 labels and
//! "uses gradient boosted decision trees to directly optimize regression
//! loss" (§4.1). This crate implements exactly that model family: CART-style
//! regression trees fit to residuals under squared loss, with shrinkage and
//! gain-based feature importances (the numbers behind Tables 4 and 7).
//!
//! ```
//! use autosuggest_gbdt::{Dataset, Gbdt, GbdtParams};
//!
//! // y = 2·x0, noise-free
//! let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 100.0]).collect();
//! let labels: Vec<f64> = rows.iter().map(|r| 2.0 * r[0]).collect();
//! let data = Dataset::new(vec!["x0".into()], rows, labels).unwrap();
//! let model = Gbdt::fit(&data, &GbdtParams::default());
//! let pred = model.predict(&[0.5]);
//! assert!((pred - 1.0).abs() < 0.1);
//! ```

mod boost;
mod data;
mod importance;
mod tree;

pub use boost::{Gbdt, GbdtParams, LEARNING_RATE};
pub use data::Dataset;
pub use importance::{aggregate_importance, normalize};
pub use tree::{RegressionTree, TreeParams};
