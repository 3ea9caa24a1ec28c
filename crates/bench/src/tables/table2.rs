//! Tables 1–2: corpus statistics (at our ~1:40 generation scale).

use super::{render_table, ReproContext, TableRow};
use autosuggest_corpus::stats::corpus_stats;
use autosuggest_corpus::OpKind;

fn stats_and_rows(ctx: &ReproContext) -> (autosuggest_corpus::stats::CorpusStats, Vec<TableRow>) {
    let stats = corpus_stats(&ctx.system.reports, &ctx.system.filter_stats);
    let ops = [OpKind::Merge, OpKind::Pivot, OpKind::Melt, OpKind::GroupBy, OpKind::JsonNormalize];
    let rows = ops
        .into_iter()
        .map(|op| {
            let counts = stats.per_operator.get(&op).cloned().unwrap_or_default();
            TableRow::new(
                op.as_str(),
                vec![
                    counts.notebooks_sampled as f64,
                    counts.notebooks_replayed as f64,
                    counts.operators_replayed as f64,
                    counts.operators_post_filter as f64,
                ],
            )
        })
        .collect();
    (stats, rows)
}

/// Our computed rows only (golden-file regression surface).
pub fn rows(ctx: &ReproContext) -> Vec<TableRow> {
    stats_and_rows(ctx).1
}

pub fn run(ctx: &ReproContext) -> String {
    let (stats, rows) = stats_and_rows(ctx);
    // Paper's Table 2 (counts in thousands at full GitHub scale).
    let paper = vec![
        TableRow::new("join (K)", vec![80.0, 12.6, 58.3, 11.2]),
        TableRow::new("pivot (K)", vec![68.9, 16.1, 79.0, 7.7]),
        TableRow::new("unpivot (K)", vec![16.8, 5.7, 7.2, 2.9]),
        TableRow::new("groupby (K)", vec![80.0, 9.6, 70.9, 8.9]),
        TableRow::new("json (K)", vec![8.3, 3.2, 4.3, 1.9]),
    ];
    format!(
        "{}\n(replayed {} of {} notebooks; failures: {} missing file, {} missing package, {} timeout, {} execution)\n",
        render_table(
            "Table 2: Corpus statistics (ours at ~1:40 scale; paper at GitHub scale)",
            &["#nb sampled", "#nb replayed", "#op replayed", "#op filtered"],
            &rows,
            &paper,
        ),
        stats.notebooks_replayed,
        stats.notebooks_total,
        stats.failures_missing_file,
        stats.failures_missing_package,
        stats.failures_timeout,
        stats.failures_execution,
    )
}
