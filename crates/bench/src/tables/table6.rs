//! Tables 6 and 7: GroupBy column prediction and feature importances.

use super::{render_table, ReproContext, TableRow};
use autosuggest_baselines::groupby::{
    coarse_type_scores, fine_type_scores, min_cardinality_scores,
};
use autosuggest_baselines::vendors::{vendor_b_groupby_scores, vendor_c_groupby_scores};
use autosuggest_core::groupby::labelled_columns;
use autosuggest_dataframe::DataFrame;
use autosuggest_ranking::{mean, ndcg_at_k, precision_at_k};

/// Evaluate a per-table column scorer: prec@1/2, ndcg@1/2 over the labelled
/// columns, plus table-level full accuracy (every GroupBy column ranked
/// above every Aggregation column).
fn evaluate<S>(ctx: &ReproContext, mut scorer: S) -> Vec<f64>
where
    S: FnMut(&DataFrame) -> Vec<f64>,
{
    let mut p1 = Vec::new();
    let mut p2 = Vec::new();
    let mut n1 = Vec::new();
    let mut n2 = Vec::new();
    let mut full = Vec::new();
    for inv in &ctx.system.test.groupby {
        let df = &inv.inputs[0];
        let labels = labelled_columns(inv);
        if labels.is_empty() {
            continue;
        }
        let all_scores = scorer(df);
        // Restrict the ranking to the columns the author actually used —
        // unused columns have no ground-truth role.
        let mut used: Vec<(usize, bool)> = labels.clone();
        used.sort_by(|a, b| {
            all_scores[b.0]
                .total_cmp(&all_scores[a.0])
                .then(a.0.cmp(&b.0))
        });
        let ranked: Vec<bool> = used.iter().map(|&(_, is_gb)| is_gb).collect();
        let num_relevant = ranked.iter().filter(|&&r| r).count();
        p1.push(precision_at_k(&ranked, num_relevant, 1));
        p2.push(precision_at_k(&ranked, num_relevant, 2));
        n1.push(ndcg_at_k(&ranked, num_relevant, 1));
        n2.push(ndcg_at_k(&ranked, num_relevant, 2));
        // Full accuracy: no aggregation column ranked above a groupby one.
        let first_agg = ranked.iter().position(|&r| !r).unwrap_or(ranked.len());
        full.push(if ranked[first_agg..].iter().all(|&r| !r) { 1.0 } else { 0.0 });
    }
    vec![mean(&p1), mean(&p2), mean(&n1), mean(&n2), mean(&full)]
}

/// Our computed Table 6 rows only (golden-file regression surface).
pub fn rows(ctx: &ReproContext) -> Vec<TableRow> {
    let model = ctx
        .system
        .models
        .groupby
        .as_ref()
        .expect("groupby model trained");
    vec![
        TableRow::new("Auto-Suggest", evaluate(ctx, |df| model.scores(df))),
        TableRow::new("SQL-history", evaluate(ctx, |df| ctx.sql_history.scores(df))),
        TableRow::new("Coarse-grained-types", evaluate(ctx, coarse_type_scores)),
        TableRow::new("Fine-grained-types", evaluate(ctx, fine_type_scores)),
        TableRow::new("Min-Cardinality", evaluate(ctx, min_cardinality_scores)),
        TableRow::new("Vendor-B", evaluate(ctx, vendor_b_groupby_scores)),
        TableRow::new("Vendor-C", evaluate(ctx, vendor_c_groupby_scores)),
    ]
}

/// Table 6.
pub fn run(ctx: &ReproContext) -> String {
    let ours = rows(ctx);
    let paper = vec![
        TableRow::new("Auto-Suggest", vec![0.95, 0.97, 0.95, 0.98, 0.93]),
        TableRow::new("SQL-history", vec![0.58, 0.61, 0.58, 0.63, 0.53]),
        TableRow::new("Coarse-grained-types", vec![0.47, 0.52, 0.47, 0.54, 0.46]),
        TableRow::new("Fine-grained-types", vec![0.31, 0.40, 0.31, 0.42, 0.38]),
        TableRow::new("Min-Cardinality", vec![0.68, 0.83, 0.68, 0.86, 0.68]),
        TableRow::new("Vendor-B", vec![0.56, 0.71, 0.56, 0.75, 0.45]),
        TableRow::new("Vendor-C", vec![0.71, 0.82, 0.71, 0.85, 0.67]),
    ];
    format!(
        "{}\n({} test groupby cases)\n",
        render_table(
            "Table 6: GroupBy column prediction",
            &["prec@1", "prec@2", "ndcg@1", "ndcg@2", "full-acc"],
            &ours,
            &paper,
        ),
        ctx.system.test.groupby.len()
    )
}

/// Our computed Table 7 rows only (golden-file regression surface).
pub fn importance_rows(ctx: &ReproContext) -> Vec<TableRow> {
    let model = ctx
        .system
        .models
        .groupby
        .as_ref()
        .expect("groupby model trained");
    model
        .importance_by_group()
        .into_iter()
        .map(|(group, imp)| TableRow::new(group, vec![imp]))
        .collect()
}

/// Table 7: GroupBy feature-group importances.
pub fn run_importance(ctx: &ReproContext) -> String {
    let ours = importance_rows(ctx);
    let paper = vec![
        TableRow::new("col-type", vec![0.78]),
        TableRow::new("col-name-freq", vec![0.11]),
        TableRow::new("distinct-val", vec![0.06]),
        TableRow::new("val-range", vec![0.02]),
        TableRow::new("left-ness", vec![0.01]),
        TableRow::new("peak-freq", vec![0.01]),
        TableRow::new("emptiness", vec![0.01]),
    ];
    render_table(
        "Table 7: GroupBy feature-group importance",
        &["importance"],
        &ours,
        &paper,
    )
}
