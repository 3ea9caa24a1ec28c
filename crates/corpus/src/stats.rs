//! Corpus statistics: the numbers behind Tables 1, 2, and 10.

use crate::flowgraph::OpKind;
use crate::replay::{OpInvocation, ReplayOutcome, ReplayReport};
use std::collections::HashMap;

/// Per-operator corpus counts (one row of Table 2).
#[derive(Debug, Clone, Default)]
pub struct OperatorCounts {
    /// Notebooks generated whose *primary* operator is this one (the
    /// analogue of "#nb sampled" — crawl sampling happens upstream).
    pub notebooks_sampled: usize,
    /// Notebooks that replayed successfully and invoked the operator.
    pub notebooks_replayed: usize,
    /// Operator invocations captured across all successful replays.
    pub operators_replayed: usize,
    /// Invocations surviving dedup/trivia filtering.
    pub operators_post_filter: usize,
}

/// Aggregated corpus statistics.
#[derive(Debug, Clone, Default)]
pub struct CorpusStats {
    pub notebooks_total: usize,
    pub notebooks_replayed: usize,
    pub failures_missing_file: usize,
    pub failures_missing_package: usize,
    pub failures_timeout: usize,
    pub failures_execution: usize,
    pub failures_panic: usize,
    pub per_operator: HashMap<OpKind, OperatorCounts>,
}

/// Compute corpus statistics from replay reports and the filtered
/// invocation set.
pub fn corpus_stats(reports: &[ReplayReport], filtered: &[OpInvocation]) -> CorpusStats {
    let mut stats = CorpusStats { notebooks_total: reports.len(), ..Default::default() };
    for r in reports {
        match &r.outcome {
            ReplayOutcome::Success => stats.notebooks_replayed += 1,
            ReplayOutcome::MissingFile(_) => stats.failures_missing_file += 1,
            ReplayOutcome::MissingPackage(_) => stats.failures_missing_package += 1,
            ReplayOutcome::Timeout => stats.failures_timeout += 1,
            ReplayOutcome::ExecutionError(_) => stats.failures_execution += 1,
            ReplayOutcome::OperatorPanic(_) => stats.failures_panic += 1,
        }
        let mut seen_ops: Vec<OpKind> = Vec::new();
        for inv in &r.invocations {
            let slot = stats.per_operator.entry(inv.op).or_default();
            slot.operators_replayed += 1;
            if !seen_ops.contains(&inv.op) {
                seen_ops.push(inv.op);
                slot.notebooks_replayed += 1;
            }
        }
    }
    for inv in filtered {
        stats
            .per_operator
            .entry(inv.op)
            .or_default()
            .operators_post_filter += 1;
    }
    stats
}

/// Operator distribution over data-flow sequences (Table 10): the fraction
/// of sequence-vocabulary invocations belonging to each operator.
pub fn operator_distribution(reports: &[ReplayReport]) -> Vec<(OpKind, f64)> {
    let mut counts: HashMap<OpKind, usize> = HashMap::new();
    let mut total = 0usize;
    for r in reports {
        for op in r.flow.op_sequence() {
            *counts.entry(op).or_insert(0) += 1;
            total += 1;
        }
    }
    let mut out: Vec<(OpKind, f64)> = OpKind::SEQUENCE_OPS
        .iter()
        .map(|&op| {
            (
                op,
                counts.get(&op).copied().unwrap_or(0) as f64 / total.max(1) as f64,
            )
        })
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowgraph::FlowGraph;

    fn report(outcome: ReplayOutcome, ops: &[OpKind]) -> ReplayReport {
        let mut flow = FlowGraph::new();
        for (i, &op) in ops.iter().enumerate() {
            flow.record(op, vec![i as u64], i as u64 + 100);
        }
        ReplayReport {
            notebook_id: "n".into(),
            dataset_group: "g".into(),
            outcome,
            cells_executed: ops.len(),
            invocations: vec![],
            flow,
            packages_installed: vec![],
            files_recovered: vec![],
            cell_retries: 0,
            injected_faults: vec![],
        }
    }

    #[test]
    fn outcome_counting() {
        let reports = vec![
            report(ReplayOutcome::Success, &[OpKind::Merge]),
            report(ReplayOutcome::MissingFile("x".into()), &[]),
            report(ReplayOutcome::MissingPackage("p".into()), &[]),
        ];
        let stats = corpus_stats(&reports, &[]);
        assert_eq!(stats.notebooks_total, 3);
        assert_eq!(stats.notebooks_replayed, 1);
        assert_eq!(stats.failures_missing_file, 1);
        assert_eq!(stats.failures_missing_package, 1);
    }

    #[test]
    fn distribution_sums_to_one_and_sorts() {
        let reports = vec![
            report(ReplayOutcome::Success, &[OpKind::GroupBy, OpKind::GroupBy, OpKind::Merge]),
            report(ReplayOutcome::Success, &[OpKind::Merge, OpKind::Concat]),
        ];
        let dist = operator_distribution(&reports);
        let total: f64 = dist.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(dist[0].0, OpKind::GroupBy);
        assert!((dist[0].1 - 0.4).abs() < 1e-9);
    }

    #[test]
    fn empty_reports_are_safe() {
        let dist = operator_distribution(&[]);
        assert_eq!(dist.len(), 7);
        assert!(dist.iter().all(|(_, f)| *f == 0.0));
    }
}
