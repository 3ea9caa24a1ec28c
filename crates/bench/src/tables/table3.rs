//! Table 3: join column prediction quality.

use super::{render_table, ReproContext, TableRow};
use autosuggest_baselines::join::{Holistic, JoinBaseline, MaxOverlap, MlFk, Multi, PowerPivot};
use autosuggest_baselines::vendors::{VendorA, VendorB, VendorC};
use autosuggest_core::join::{candidates_with_truth, ground_truth_candidate};
use autosuggest_features::join_features_batch;
use autosuggest_ranking::{mean, ndcg_at_k, precision_at_k, rank_desc};

/// The vendors are evaluated on the first 200 cases only (the paper cannot
/// script the vendor UIs; we keep the protocol for comparability).
const VENDOR_CASES: usize = 200;

/// One method's prec@1, prec@2, ndcg@1 and ndcg@2, averaged over its
/// cases; each case is the method's ranking as relevance flags.
fn metrics(cases: &[Vec<bool>]) -> Vec<f64> {
    let avg = |metric: fn(&[bool], usize, usize) -> f64, k: usize| {
        mean(&cases.iter().map(|ranked| metric(ranked, 1, k)).collect::<Vec<_>>())
    };
    vec![avg(precision_at_k, 1), avg(precision_at_k, 2), avg(ndcg_at_k, 1), avg(ndcg_at_k, 2)]
}

/// Our computed rows only (golden-file regression surface).
pub fn rows(ctx: &ReproContext) -> Vec<TableRow> {
    let model = ctx.system.models.join.as_ref().expect("join model trained");
    let literature: [(&str, &dyn JoinBaseline); 5] = [
        ("ML-FK", &MlFk),
        ("PowerPivot", &PowerPivot),
        ("Multi", &Multi),
        ("Holistic", &Holistic),
        ("max-overlap", &MaxOverlap),
    ];
    let vendors: [(&str, &dyn JoinBaseline); 3] =
        [("Vendor-A", &VendorA), ("Vendor-B", &VendorB), ("Vendor-C", &VendorC)];

    let mut ours: Vec<Vec<bool>> = Vec::new();
    let mut sampled = 0;
    let mut literature_cases: Vec<Vec<Vec<bool>>> = vec![Vec::new(); literature.len()];
    let mut vendor_cases: Vec<Vec<Vec<bool>>> = vec![Vec::new(); vendors.len()];
    for (i, inv) in ctx.system.test.join.iter().enumerate() {
        let Some(truth) = ground_truth_candidate(inv) else { continue };
        let (left, right) = (&inv.inputs[0], &inv.inputs[1]);
        // Every method ranks the same candidates from the same feature
        // vectors (§6.5.1), so each case is enumerated and featurised once.
        let cands = candidates_with_truth(left, right, &truth);
        let feats = join_features_batch(left, right, &cands);
        let relevance =
            |order: Vec<usize>| -> Vec<bool> { order.iter().map(|&j| cands[j] == truth).collect() };
        ours.push(relevance(rank_desc(&model.predict(&feats))));
        for ((_, method), out) in literature.iter().zip(&mut literature_cases) {
            out.push(relevance(method.rank(left, right, &cands, &feats)));
        }
        if i < VENDOR_CASES {
            sampled += 1;
            for ((_, method), out) in vendors.iter().zip(&mut vendor_cases) {
                out.push(relevance(method.rank(left, right, &cands, &feats)));
            }
        }
    }

    let mut rows = vec![TableRow::new("Auto-Suggest", metrics(&ours))];
    for ((name, _), cases) in literature.iter().zip(&literature_cases) {
        rows.push(TableRow::new(*name, metrics(cases)));
    }
    rows.push(TableRow::new("Auto-Suggest (sampled)", metrics(&ours[..sampled])));
    for ((name, _), cases) in vendors.iter().zip(&vendor_cases) {
        rows.push(TableRow::new(*name, metrics(cases)));
    }
    rows
}

/// Run the Table 3 evaluation; returns the rendered table.
pub fn run(ctx: &ReproContext) -> String {
    let ours = rows(ctx);

    let paper = vec![
        TableRow::new("Auto-Suggest", vec![0.89, 0.92, 0.89, 0.93]),
        TableRow::new("ML-FK", vec![0.84, 0.87, 0.84, 0.87]),
        TableRow::new("PowerPivot", vec![0.31, 0.44, 0.31, 0.48]),
        TableRow::new("Multi", vec![0.33, 0.40, 0.33, 0.41]),
        TableRow::new("Holistic", vec![0.57, 0.63, 0.57, 0.65]),
        TableRow::new("max-overlap", vec![0.53, 0.61, 0.53, 0.63]),
        TableRow::new("Auto-Suggest (sampled)", vec![0.92, f64::NAN, 0.92, f64::NAN]),
        TableRow::new("Vendor-A", vec![0.76, f64::NAN, 0.76, f64::NAN]),
        TableRow::new("Vendor-C", vec![0.42, f64::NAN, 0.42, f64::NAN]),
        TableRow::new("Vendor-B", vec![0.33, f64::NAN, 0.33, f64::NAN]),
    ];
    format!(
        "{}\n({} test join cases)\n",
        render_table(
            "Table 3: Join column prediction",
            &["prec@1", "prec@2", "ndcg@1", "ndcg@2"],
            &ours,
            &paper,
        ),
        ctx.system.test.join.len()
    )
}
