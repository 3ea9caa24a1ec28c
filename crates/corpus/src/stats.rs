//! Corpus statistics: the numbers behind Tables 1, 2, and 10.

use crate::filter::FilterStats;
use crate::flowgraph::OpKind;
use crate::nbgen::primary_op;
use crate::replay::{ReplayOutcome, ReplayReport};
use std::collections::HashMap;

/// Per-operator corpus counts (one row of Table 2).
#[derive(Debug, Clone, Default)]
pub struct OperatorCounts {
    /// Notebooks generated around this operator ([`primary_op`]; the
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

/// Compute corpus statistics from replay reports and the outcome of
/// filtering their invocations.
pub fn corpus_stats(reports: &[ReplayReport], filter: &FilterStats) -> CorpusStats {
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
        if let Some(op) = primary_op(&r.notebook_id) {
            stats.per_operator.entry(op).or_default().notebooks_sampled += 1;
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
    for (&op, &kept) in &filter.kept_per_op {
        stats.per_operator.entry(op).or_default().operators_post_filter = kept;
    }
    stats
}

/// Operator distribution over data-flow sequences (Table 10): the fraction
/// of sequence-vocabulary invocations belonging to each operator.
pub fn operator_distribution(reports: &[ReplayReport]) -> Vec<(OpKind, f64)> {
    let mut counts: HashMap<OpKind, usize> = HashMap::new();
    let mut total = 0usize;
    for r in reports {
        for inv in r.op_sequence() {
            *counts.entry(inv.op).or_insert(0) += 1;
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
    use crate::replay::{OpInvocation, OpParams};

    fn report(id: &str, outcome: ReplayOutcome, ops: &[OpKind]) -> ReplayReport {
        let invocations = ops
            .iter()
            .enumerate()
            .map(|(i, &op)| OpInvocation {
                notebook_id: id.into(),
                dataset_group: "g".into(),
                cell_index: i,
                op,
                inputs: vec![],
                params: OpParams::FillNa { value: "0".into() },
                input_hashes: vec![i as u64],
                output_hash: i as u64 + 100,
                output_rows: 0,
                output_cols: 0,
            })
            .collect();
        ReplayReport {
            notebook_id: id.into(),
            dataset_group: "g".into(),
            outcome,
            cells_executed: ops.len(),
            invocations,
            packages_installed: vec![],
            files_recovered: vec![],
            cell_retries: 0,
            injected_faults: vec![],
        }
    }

    #[test]
    fn outcome_counting() {
        let reports = vec![
            report("n", ReplayOutcome::Success, &[OpKind::Merge]),
            report("n", ReplayOutcome::MissingFile("x".into()), &[]),
            report("n", ReplayOutcome::MissingPackage("p".into()), &[]),
        ];
        let stats = corpus_stats(&reports, &FilterStats::default());
        assert_eq!(stats.notebooks_total, 3);
        assert_eq!(stats.notebooks_replayed, 1);
        assert_eq!(stats.failures_missing_file, 1);
        assert_eq!(stats.failures_missing_package, 1);
    }

    #[test]
    fn operator_rows_count_sampled_replayed_and_kept() {
        let reports = vec![
            report("nb-join-00001", ReplayOutcome::Success, &[OpKind::Merge, OpKind::Merge]),
            report("nb-join-00002", ReplayOutcome::Timeout, &[]),
            report("nb-flow-00003", ReplayOutcome::Success, &[OpKind::Merge, OpKind::GroupBy]),
        ];
        let filter = FilterStats {
            kept_per_op: [(OpKind::Merge, 2), (OpKind::GroupBy, 1)].into_iter().collect(),
            ..FilterStats::default()
        };
        let stats = corpus_stats(&reports, &filter);
        let merge = &stats.per_operator[&OpKind::Merge];
        assert_eq!(merge.notebooks_sampled, 2);
        assert_eq!(merge.notebooks_replayed, 2);
        assert_eq!(merge.operators_replayed, 3);
        assert_eq!(merge.operators_post_filter, 2);
        let groupby = &stats.per_operator[&OpKind::GroupBy];
        assert_eq!((groupby.notebooks_sampled, groupby.operators_post_filter), (0, 1));
    }

    #[test]
    fn distribution_sums_to_one_and_sorts() {
        let reports = vec![
            report("n", ReplayOutcome::Success, &[OpKind::GroupBy, OpKind::GroupBy, OpKind::Merge]),
            report("n", ReplayOutcome::Success, &[OpKind::Merge, OpKind::JsonNormalize]),
            report("n", ReplayOutcome::Success, &[OpKind::Concat]),
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
