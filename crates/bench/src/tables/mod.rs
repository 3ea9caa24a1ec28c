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
use autosuggest_corpus::CorpusConfig;
use autosuggest_obs as obs;
use std::time::Instant;

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

/// A table's printed evaluator: our rows next to the paper's.
pub type TableFn = fn(&ReproContext) -> String;

/// Every `repro` target as (name, evaluator), in print order.
pub const TABLES: &[(&str, TableFn)] = &[
    ("table2", table2::run),
    ("table3", table3::run),
    ("table4", table4::run),
    ("table5", table5::run),
    ("table6", table6::run),
    ("table7", table6::run_importance),
    ("table8", table8::run),
    ("table9", table9::run),
    ("table10", table10::run),
    ("table11", table11::run),
    ("ablation-ampt", ablations::ampt),
    ("ablation-cmut", ablations::cmut),
    ("ablation-join", ablations::join_knockout),
];

/// The configuration `repro [--fast] --seed <seed>` trains.
pub fn repro_config(fast: bool, seed: u64) -> AutoSuggestConfig {
    let mut config = if fast { AutoSuggestConfig::fast(seed) } else { AutoSuggestConfig::default() };
    config.corpus =
        if fast { CorpusConfig::small(seed) } else { CorpusConfig { seed, ..CorpusConfig::default() } };
    config
}

/// Whether `targets` select the table called `table` (`"all"` selects every one).
pub fn selects(targets: &[String], table: &str) -> bool {
    targets.iter().any(|t| t == "all" || t == table)
}

/// Evaluate the selected tables across the pool and return what `repro`
/// prints: each table followed by a newline, in canonical order whatever
/// the completion order. Each task records its own wall-clock so
/// concurrency does not blur per-table attribution.
pub fn evaluate(ctx: &ReproContext, targets: &[String]) -> String {
    let selected: Vec<&(&str, TableFn)> =
        TABLES.iter().filter(|(name, _)| selects(targets, name)).collect();
    let _eval_span = obs::span("evaluate");
    let results: Vec<String> = autosuggest_parallel::par_map(&selected, |(name, f)| {
        let _table_span = obs::span(&format!("table:{name}"));
        let start = Instant::now();
        let out = f(ctx);
        obs::observe("evaluate.table_seconds", start.elapsed().as_secs_f64());
        out
    });
    results.iter().map(|out| format!("{out}\n")).collect()
}

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
