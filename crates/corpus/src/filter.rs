//! Post-replay filtering (§6.1): drop duplicate and uninformative
//! invocations before training.

use crate::replay::OpInvocation;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Filtering outcome counts (the deltas behind Table 2's last row).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterStats {
    pub total: usize,
    /// Identical invocation (same operator, same inputs, same parameters) —
    /// within one notebook (loops) or across notebooks (forks/copies).
    pub dropped_duplicate: usize,
    /// Inputs trivially small (fewer than `min_rows` rows).
    pub dropped_tiny: usize,
    pub kept: usize,
}

/// Deduplicate and de-trivialise invocations.
///
/// The duplicate key is (operator, input hashes, full parameters) — the
/// paper's "identical invocation on the same tables across notebooks, or
/// repetitive invocations inside a loop". `min_rows` = 5 matches "input
/// tables are trivially small with less than 5 rows".
pub fn filter_invocations(
    invocations: Vec<OpInvocation>,
    min_rows: usize,
) -> (Vec<OpInvocation>, FilterStats) {
    let mut stats = FilterStats { total: invocations.len(), ..Default::default() };
    let mut seen: HashSet<String> = HashSet::with_capacity(invocations.len());
    let mut kept = Vec::with_capacity(invocations.len());
    for inv in invocations {
        if inv.inputs.iter().any(|t| t.num_rows() < min_rows) {
            stats.dropped_tiny += 1;
            continue;
        }
        // The output hash disambiguates operators without frame inputs
        // (json_normalize reads a file): identical op+inputs+params implies
        // an identical output, so true duplicates still collapse.
        let key = format!(
            "{:?}|{:?}|{}|{}",
            inv.op,
            inv.input_hashes,
            serde_json::to_string(&inv.params)
                .unwrap_or_else(|_| format!("{:?}", inv.params)),
            inv.output_hash,
        );
        if !seen.insert(key) {
            stats.dropped_duplicate += 1;
            continue;
        }
        kept.push(inv);
    }
    stats.kept = kept.len();
    (kept, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowgraph::OpKind;
    use crate::replay::OpParams;
    use autosuggest_dataframe::{DataFrame, Value};

    fn table(rows: usize) -> DataFrame {
        DataFrame::from_columns(vec![(
            "a",
            (0..rows as i64).map(Value::Int).collect(),
        )])
        .unwrap()
    }

    fn inv(nb: &str, rows: usize, how_all: bool) -> OpInvocation {
        let t = table(rows);
        OpInvocation {
            notebook_id: nb.into(),
            dataset_group: "g".into(),
            cell_index: 0,
            op: OpKind::DropNa,
            input_hashes: vec![t.content_hash()],
            inputs: vec![std::sync::Arc::new(t)],
            params: OpParams::DropNa { how_all, subset: None },
            output_hash: 1,
            output_rows: rows,
            output_cols: 1,
        }
    }

    #[test]
    fn duplicates_are_dropped_across_notebooks() {
        let (kept, stats) =
            filter_invocations(vec![inv("a", 10, false), inv("b", 10, false)], 5);
        assert_eq!(kept.len(), 1);
        assert_eq!(stats.dropped_duplicate, 1);
    }

    #[test]
    fn different_params_are_not_duplicates() {
        let (kept, _) =
            filter_invocations(vec![inv("a", 10, false), inv("a", 10, true)], 5);
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn tiny_inputs_are_dropped() {
        let (kept, stats) =
            filter_invocations(vec![inv("a", 3, false), inv("b", 10, false)], 5);
        assert_eq!(kept.len(), 1);
        assert_eq!(stats.dropped_tiny, 1);
        assert_eq!(stats.total, 2);
        assert_eq!(stats.kept, 1);
    }

    #[test]
    fn different_inputs_same_params_kept() {
        let (kept, _) =
            filter_invocations(vec![inv("a", 10, false), inv("a", 11, false)], 5);
        assert_eq!(kept.len(), 2);
    }
}
