//! Feature extraction for the Auto-Suggest predictors.
//!
//! Implements the exact feature groups §4 of the paper enumerates:
//!
//! * **Join** (§4.1): distinct-value-ratio, value-overlap (Jaccard
//!   similarity + containment both ways), value-range-overlap, column value
//!   types, left-ness (absolute + relative), sorted-ness,
//!   single-column-candidate, and table-level statistics.
//! * **GroupBy** (§4.2): distinct-value count/ratio, column dtype, left-ness,
//!   emptiness, value-range, peak-frequency, and column-name frequency
//!   priors learned from training data.
//! * **Affinity** (§4.3): emptiness-reduction-ratio and
//!   column-position-difference for pairs of dimension columns, feeding the
//!   AMPT/CMUT graphs.
//!
//! Candidate enumeration for joins — with the paper's type-mismatch and
//! sketch-based containment pruning (footnote 2) — lives in
//! [`candidates`]; the MinHash-style sketch in [`sketch`] (re-exported from
//! `autosuggest-cache`, which interns sketches and column statistics in a
//! content-addressed cache the featurisers fetch through).

pub mod affinity;
pub mod candidates;
pub mod groupby;
pub mod join;
pub mod sketch;

pub use affinity::{
    affinity_features, AffinityFeatures, AffinityProfile, AFFINITY_FEATURE_NAMES,
};
pub use candidates::{enumerate_join_candidates, CandidateParams, JoinCandidate};
pub use groupby::{
    groupby_features, groupby_features_from_artifacts, ColumnNamePrior, GroupByFeatures,
    GROUPBY_FEATURE_NAMES,
};
pub use join::{
    join_features, join_features_batch, JoinFeatures, JOIN_FEATURE_GROUPS, JOIN_FEATURE_NAMES,
};
pub use sketch::MinHashSketch;
