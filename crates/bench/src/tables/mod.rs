//! Shared evaluation context and table rendering for the `repro` binary.

pub mod ablations;
pub mod table10;
pub mod table11;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table8;
pub mod table9;

use autosuggest_baselines::groupby::SqlHistory;
use autosuggest_core::groupby::labelled_columns;
use autosuggest_core::pipeline::StageTiming;
use autosuggest_core::{AutoSuggest, AutoSuggestConfig};

/// One row of a rendered table: a method name and its metric values.
#[derive(Debug, Clone)]
pub struct TableRow {
    pub method: String,
    pub values: Vec<f64>,
}

impl TableRow {
    pub fn new(method: impl Into<String>, values: Vec<f64>) -> Self {
        TableRow { method: method.into(), values }
    }
}

/// A table's machine-readable evaluator: our computed rows, without the
/// paper's reference rows or rendering.
pub type RowsFn = fn(&ReproContext) -> Vec<TableRow>;

/// Every table under golden-file regression (tests/repro_goldens.rs).
/// The ablations are excluded: they retrain GBDTs and would dominate the
/// test-suite wall-clock for numbers the main tables already pin down.
pub const GOLDEN_TABLES: &[(&str, RowsFn)] = &[
    ("table2", table2::rows),
    ("table3", table3::rows),
    ("table4", table4::rows),
    ("table5", table5::rows),
    ("table6", table6::rows),
    ("table7", table6::importance_rows),
    ("table8", table8::rows),
    ("table9", table9::rows),
    ("table10", table10::rows),
    ("table11", table11::rows),
];

/// Everything the per-table evaluators need: the trained system plus
/// history-based baselines fit on the training split.
pub struct ReproContext {
    pub system: AutoSuggest,
    pub sql_history: SqlHistory,
}

impl ReproContext {
    /// Train the full system and the training-data-dependent baselines.
    pub fn build(config: AutoSuggestConfig) -> ReproContext {
        Self::build_timed(config).0
    }

    /// [`ReproContext::build`], also returning the pipeline's per-stage
    /// wall-clock timings (for `perfbench`'s `train-eval` workload).
    pub fn build_timed(config: AutoSuggestConfig) -> (ReproContext, Vec<StageTiming>) {
        let (system, timings) = AutoSuggest::train_timed(config);
        let mut sql_history = SqlHistory::new();
        for inv in &system.train.groupby {
            if let Some(df) = inv.inputs.first() {
                for (ci, is_gb) in labelled_columns(inv) {
                    sql_history.observe(df.column_at(ci).name(), is_gb);
                }
            }
        }
        (ReproContext { system, sql_history }, timings)
    }
}

/// Render a table: header, our rows, and (optionally) the paper's reported
/// rows for side-by-side comparison.
pub fn render_table(
    title: &str,
    metric_names: &[&str],
    ours: &[TableRow],
    paper: &[TableRow],
) -> String {
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    let width = ours
        .iter()
        .chain(paper)
        .map(|r| r.method.len())
        .max()
        .unwrap_or(10)
        .max(12);
    out.push_str(&format!("{:w$}", "method", w = width + 2));
    for m in metric_names {
        out.push_str(&format!("{m:>10}"));
    }
    out.push('\n');
    for row in ours {
        out.push_str(&format!("{:w$}", row.method, w = width + 2));
        for v in &row.values {
            out.push_str(&format!("{v:>10.3}"));
        }
        out.push('\n');
    }
    if !paper.is_empty() {
        out.push_str(&format!(
            "{:-<w$}\n",
            "-- paper reports ",
            w = width + 2 + 10 * metric_names.len()
        ));
        for row in paper {
            out.push_str(&format!("{:w$}", row.method, w = width + 2));
            for v in &row.values {
                out.push_str(&format!("{v:>10.3}"));
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_formats_rows_and_paper_section() {
        let s = render_table(
            "Table X",
            &["prec@1"],
            &[TableRow::new("ours", vec![0.9])],
            &[TableRow::new("paper-baseline", vec![0.5])],
        );
        assert!(s.contains("Table X"));
        assert!(s.contains("ours"));
        assert!(s.contains("0.900"));
        assert!(s.contains("paper-baseline"));
    }
}
