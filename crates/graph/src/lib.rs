//! Graph machinery behind Auto-Suggest's Pivot and Unpivot predictors.
//!
//! §4.3 of the paper formulates index/header placement as **AMPT**
//! (Affinity-Maximizing Pivot-Table): bisect the dimension columns so that
//! intra-partition affinity is maximised and inter-partition affinity
//! minimised, solved via two-way graph cut (Stoer–Wagner). §4.4 formulates
//! Unpivot as **CMUT** (Compatibility-Maximizing Unpivot-Table), which is
//! NP-complete (reduction from Densest Subgraph) and solved greedily.
//!
//! This crate provides the weighted [`AffinityGraph`], the
//! [Stoer–Wagner](stoer_wagner) global min-cut, exact and min-cut-based
//! [AMPT solvers](ampt), the [CMUT greedy](cmut) with an exhaustive
//! reference, and the [Rand index](rand_index()) used to score predicted
//! splits (Table 8).

mod affinity_graph;
pub mod ampt;
pub mod cmut;
pub mod rand_index;
pub mod stoer_wagner;

pub use affinity_graph::AffinityGraph;
pub use ampt::{ampt_exact, ampt_min_cut, ampt_objective, AmptSolution};
pub use cmut::{cmut_exhaustive, cmut_greedy, cmut_objective, CmutSolution};
pub use rand_index::rand_index;
pub use stoer_wagner::min_cut;
