//! Data-flow graph extraction (§3.3, Fig. 4).
//!
//! Replay records the content hash of every frame an operator consumes or
//! produces. Nodes of the flow graph are (versioned) frames identified by
//! hash; edges are operator invocations. A report's invocation list is
//! therefore the graph itself: each [`crate::OpInvocation`] is one edge
//! (`op`, `input_hashes` → `output_hash`), logged in execution order.
//! [`crate::ReplayReport::op_sequence`] walks those edges to yield the
//! operator sequence used for next-operator prediction (§5) and the
//! Table 10 distribution.

use std::fmt;

/// The logical operators replay instruments. The first seven are the
/// sequence vocabulary of §3.3 ("concat, dropna, fillna, groupby, melt,
/// merge, and pivot"); `JsonNormalize` is logged for its own predictor but
/// excluded from sequences, matching the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_ids_are_stable_and_total() {
        for (i, op) in OpKind::SEQUENCE_OPS.iter().enumerate() {
            assert_eq!(op.sequence_id(), Some(i));
        }
        assert!(OpKind::JsonNormalize.sequence_id().is_none());
    }
}
