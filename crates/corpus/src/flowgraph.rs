//! Data-flow graph extraction (§3.3, Fig. 4).
//!
//! Replay records the content hash of every frame an operator consumes or
//! produces. Nodes of the flow graph are (versioned) frames identified by
//! hash; edges are operator invocations. Walking a notebook's edges in
//! execution order yields the operator sequence used for next-operator
//! prediction (§5) and the Table 10 distribution.

use std::collections::HashMap;
use std::fmt;

/// The logical operators replay instruments. The first seven are the
/// sequence vocabulary of §3.3 ("concat, dropna, fillna, groupby, melt,
/// merge, and pivot"); `JsonNormalize` is logged for its own predictor but
/// excluded from sequences, matching the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    Concat,
    DropNa,
    FillNa,
    GroupBy,
    Melt,
    Merge,
    Pivot,
    JsonNormalize,
}

impl OpKind {
    /// The 7 operators that participate in operator sequences (§3.3).
    pub const SEQUENCE_OPS: [OpKind; 7] = [
        OpKind::Concat,
        OpKind::DropNa,
        OpKind::FillNa,
        OpKind::GroupBy,
        OpKind::Melt,
        OpKind::Merge,
        OpKind::Pivot,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            OpKind::Concat => "concat",
            OpKind::DropNa => "dropna",
            OpKind::FillNa => "fillna",
            OpKind::GroupBy => "groupby",
            OpKind::Melt => "unpivot",
            OpKind::Merge => "join",
            OpKind::Pivot => "pivot",
            OpKind::JsonNormalize => "json_normalize",
        }
    }

    /// Stable id of this operator within [`OpKind::SEQUENCE_OPS`], or `None`
    /// for operators outside the sequence vocabulary.
    pub fn sequence_id(self) -> Option<usize> {
        OpKind::SEQUENCE_OPS.iter().position(|&o| o == self)
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One edge of the flow graph: an operator reading `inputs` and producing
/// `output` (frames identified by content hash).
#[derive(Debug, Clone)]
pub struct FlowEdge {
    pub op: OpKind,
    pub inputs: Vec<u64>,
    pub output: u64,
    /// Execution order within the notebook.
    pub step: usize,
}

/// The data-flow graph of one replayed notebook.
#[derive(Debug, Clone, Default)]
pub struct FlowGraph {
    edges: Vec<FlowEdge>,
}

impl FlowGraph {
    pub fn new() -> Self {
        FlowGraph::default()
    }

    pub fn record(&mut self, op: OpKind, inputs: Vec<u64>, output: u64) {
        let step = self.edges.len();
        self.edges.push(FlowEdge { op, inputs, output, step });
    }

    pub fn edges(&self) -> &[FlowEdge] {
        &self.edges
    }

    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The operator sequence in execution order, restricted to the
    /// 7-operator sequence vocabulary.
    pub fn op_sequence(&self) -> Vec<OpKind> {
        self.edges
            .iter()
            .filter(|e| e.op.sequence_id().is_some())
            .map(|e| e.op)
            .collect()
    }

    /// All frames with in-degree 0 (sources: frames read from files).
    pub fn source_frames(&self) -> Vec<u64> {
        let produced: std::collections::HashSet<u64> =
            self.edges.iter().map(|e| e.output).collect();
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for e in &self.edges {
            for &i in &e.inputs {
                if !produced.contains(&i) && seen.insert(i) {
                    out.push(i);
                }
            }
        }
        out
    }

    /// Which operator produced each frame (the frame's provenance).
    pub fn producer_of(&self) -> HashMap<u64, OpKind> {
        self.edges.iter().map(|e| (e.output, e.op)).collect()
    }

    /// Upstream chain depth of each frame: sources are depth 0; an
    /// operator's output is 1 + max(input depths).
    pub fn frame_depths(&self) -> HashMap<u64, usize> {
        let mut depth: HashMap<u64, usize> = HashMap::new();
        for e in &self.edges {
            let d = e
                .inputs
                .iter()
                .map(|i| depth.get(i).copied().unwrap_or(0))
                .max()
                .unwrap_or(0);
            depth.insert(e.output, d + 1);
        }
        depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 4 pipeline: two reads → merge → {pivot, groupby}.
    fn fig4() -> FlowGraph {
        let mut g = FlowGraph::new();
        g.record(OpKind::Merge, vec![1, 2], 3);
        g.record(OpKind::Pivot, vec![3], 4);
        g.record(OpKind::GroupBy, vec![3], 5);
        g
    }

    #[test]
    fn sequence_follows_execution_order() {
        assert_eq!(
            fig4().op_sequence(),
            vec![OpKind::Merge, OpKind::Pivot, OpKind::GroupBy]
        );
    }

    #[test]
    fn sources_are_frames_never_produced() {
        let mut s = fig4().source_frames();
        s.sort_unstable();
        assert_eq!(s, vec![1, 2]);
    }

    #[test]
    fn json_normalize_is_excluded_from_sequences() {
        let mut g = FlowGraph::new();
        g.record(OpKind::JsonNormalize, vec![], 1);
        g.record(OpKind::GroupBy, vec![1], 2);
        assert_eq!(g.op_sequence(), vec![OpKind::GroupBy]);
        assert!(OpKind::JsonNormalize.sequence_id().is_none());
    }

    #[test]
    fn depths_accumulate_along_chains() {
        let d = fig4().frame_depths();
        assert_eq!(d[&3], 1);
        assert_eq!(d[&4], 2);
        assert_eq!(d[&5], 2);
    }

    #[test]
    fn sequence_ids_are_stable_and_total() {
        for (i, op) in OpKind::SEQUENCE_OPS.iter().enumerate() {
            assert_eq!(op.sequence_id(), Some(i));
        }
    }

    #[test]
    fn producer_map() {
        let p = fig4().producer_of();
        assert_eq!(p[&4], OpKind::Pivot);
        assert!(!p.contains_key(&1));
    }
}
