//! The Auto-Suggest predictors — the paper's primary contribution.
//!
//! Two recommendation tasks (§1):
//!
//! 1. **Single-operator prediction**: given input tables and a target
//!    operator, recommend its parameterisation —
//!    [`join::JoinColumnPredictor`] and [`join_type::JoinTypePredictor`]
//!    (§4.1), [`groupby::GroupByAggPredictor`] (§4.2),
//!    [`pivot::PivotPredictor`] via the AMPT formulation (§4.3), and
//!    [`unpivot::UnpivotPredictor`] via CMUT (§4.4).
//! 2. **Next-operator prediction** (§5): [`nextop::NextOpPredictor`]
//!    combines an RNN over the operator sequence with the raw scores of
//!    every single-operator model on the current table (Fig. 13).
//!
//! [`pipeline::AutoSuggest`] wires the whole system together: generate or
//! load a corpus, replay it, and train every predictor on the resulting
//! logs; its [`pipeline::TrainedModels`] serve ranked recommendations.

// Library code must degrade gracefully at crawl scale — panicking escape
// hatches are confined to tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod groupby;
pub mod join;
pub mod join_type;
pub mod model_slot;
pub mod nextop;
pub mod pipeline;
pub mod pivot;
pub mod unpivot;
pub mod wire;

pub use groupby::{GroupByAggPredictor, GroupBySuggestion};
pub use join::{JoinColumnPredictor, JoinSuggestion};
pub use join_type::JoinTypePredictor;
pub use nextop::NextOpPredictor;
pub use pipeline::{
    AutoSuggest, AutoSuggestConfig, SuggestRequest, SuggestResponse, TrainedModels,
};
pub use model_slot::{ModelSlot, VersionedModel};
pub use pivot::{PivotPredictor, PivotSuggestion};
pub use unpivot::{UnpivotPredictor, UnpivotSuggestion};
pub use wire::{OwnedSuggestRequest, WireError};
