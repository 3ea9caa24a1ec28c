//! Ablation studies for the design choices DESIGN.md §4 calls out.

use super::{render_table, ReproContext, TableRow};
use autosuggest_core::join::{candidates_with_truth, ground_truth_candidate};
use autosuggest_core::pivot::{melt_ground_truth, pivot_ground_truth};
use autosuggest_features::{
    join_features_batch, JoinCandidate, JOIN_FEATURE_GROUPS, JOIN_FEATURE_NAMES,
};
use autosuggest_gbdt::{Dataset, Gbdt};
use autosuggest_graph::{ampt_exact, ampt_min_cut, cmut_exhaustive, cmut_greedy};
use autosuggest_ranking::mean;

/// AMPT: exact enumeration vs. the Stoer–Wagner min-cut reduction, on the
/// learned affinity graphs of the test pivot cases.
pub fn ampt(ctx: &ReproContext) -> String {
    let model = ctx.system.models.pivot.as_ref().expect("pivot model");
    let mut agree = Vec::new();
    let mut gap = Vec::new();
    for inv in &ctx.system.test.pivot {
        let Some((index, header)) = pivot_ground_truth(inv) else { continue };
        let dims: Vec<usize> = index.iter().chain(&header).copied().collect();
        if dims.len() < 2 || dims.len() > 16 {
            continue;
        }
        let g = model.compatibility().graph(&inv.inputs[0], &dims);
        let (Some(exact), Some(fast)) = (ampt_exact(&g), ampt_min_cut(&g)) else {
            continue;
        };
        agree.push(if exact.index == fast.index || exact.index == fast.header {
            1.0
        } else {
            0.0
        });
        gap.push(exact.objective - fast.objective);
    }
    let rows = vec![
        TableRow::new("partition agreement", vec![mean(&agree)]),
        TableRow::new("mean objective gap (exact - mincut)", vec![mean(&gap)]),
        TableRow::new("cases", vec![agree.len() as f64]),
    ];
    render_table(
        "Ablation: AMPT exact vs. Stoer-Wagner min-cut (negative affinities shifted)",
        &["value"],
        &rows,
        &[],
    )
}

/// CMUT: the paper's greedy vs. exhaustive search on test melt graphs small
/// enough to brute-force.
pub fn cmut(ctx: &ReproContext) -> String {
    let model = ctx.system.models.unpivot.as_ref().expect("unpivot model");
    let compat = {
        // Reuse the shared compatibility model through the pivot predictor.
        ctx.system.models.pivot.as_ref().expect("pivot model").compatibility()
    };
    let _ = model;
    let mut agree = Vec::new();
    let mut ratio = Vec::new();
    for inv in &ctx.system.test.melt {
        let Some((_ids, _vals)) = melt_ground_truth(inv) else { continue };
        let n = inv.inputs[0].num_columns();
        if !(3..=16).contains(&n) {
            continue;
        }
        let cols: Vec<usize> = (0..n).collect();
        let g = compat.graph(&inv.inputs[0], &cols);
        let (Some(greedy), Some(exact)) = (cmut_greedy(&g), cmut_exhaustive(&g)) else {
            continue;
        };
        agree.push(if greedy.selected == exact.selected { 1.0 } else { 0.0 });
        if exact.objective.abs() > 1e-9 {
            ratio.push(greedy.objective / exact.objective);
        }
    }
    let rows = vec![
        TableRow::new("selection agreement", vec![mean(&agree)]),
        TableRow::new("mean objective ratio (greedy/exact)", vec![mean(&ratio)]),
        TableRow::new("cases", vec![agree.len() as f64]),
    ];
    render_table(
        "Ablation: CMUT greedy vs. exhaustive (n <= 16)",
        &["value"],
        &rows,
        &[],
    )
}

/// Join feature-group knockouts: retrain the ranker with one feature group
/// zeroed and report the prec@1 drop — the causal counterpart of Table 4.
pub fn join_knockout(ctx: &ReproContext) -> String {
    let gbdt = &ctx.system.config.gbdt;
    let groups: Vec<&str> = {
        let mut g: Vec<&str> = JOIN_FEATURE_GROUPS.iter().map(|&(_, n)| n).collect();
        g.dedup();
        g
    };

    let build = |knockout: Option<&str>| -> f64 {
        let zeroed: Vec<usize> = JOIN_FEATURE_GROUPS
            .iter()
            .filter(|&&(_, n)| Some(n) == knockout)
            .map(|&(i, _)| i)
            .collect();
        let mask = |mut v: Vec<f64>| -> Vec<f64> {
            for &i in &zeroed {
                v[i] = 0.0;
            }
            v
        };
        // Train.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for inv in &ctx.system.train.join {
            let Some(truth) = ground_truth_candidate(inv) else { continue };
            let cands = candidates_with_truth(&inv.inputs[0], &inv.inputs[1], &truth);
            let mut kept: Vec<JoinCandidate> = Vec::with_capacity(cands.len());
            let mut negs = 0;
            for cand in &cands {
                let is_truth = *cand == truth;
                if !is_truth {
                    negs += 1;
                    if negs > 40 {
                        continue;
                    }
                }
                kept.push(cand.clone());
                labels.push(if is_truth { 1.0 } else { 0.0 });
            }
            rows.extend(
                join_features_batch(&inv.inputs[0], &inv.inputs[1], &kept)
                    .into_iter()
                    .map(|f| mask(f.values)),
            );
        }
        let names = JOIN_FEATURE_NAMES.iter().map(|s| s.to_string()).collect();
        let data = Dataset::new(names, rows, labels).expect("rectangular");
        let model = Gbdt::fit(&data, gbdt);
        // Evaluate prec@1.
        let mut hits = Vec::new();
        for inv in &ctx.system.test.join {
            let Some(truth) = ground_truth_candidate(inv) else { continue };
            let cands = candidates_with_truth(&inv.inputs[0], &inv.inputs[1], &truth);
            // Featurise the pool once (batch path hashes each distinct key
            // tuple once per table) and compare predicted scores; `max_by`
            // tie-breaking (last max wins) matches the previous pairwise form.
            let scores: Vec<f64> = join_features_batch(&inv.inputs[0], &inv.inputs[1], &cands)
                .into_iter()
                .map(|f| model.predict(&mask(f.values)))
                .collect();
            let best = scores
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| a.total_cmp(b))
                .map(|(i, _)| i)
                .expect("candidates non-empty");
            hits.push(if cands[best] == truth { 1.0 } else { 0.0 });
        }
        mean(&hits)
    };

    let baseline = build(None);
    let mut rows = vec![TableRow::new("all features", vec![baseline, 0.0])];
    for g in groups {
        let acc = build(Some(g));
        rows.push(TableRow::new(format!("- {g}"), vec![acc, baseline - acc]));
    }
    render_table(
        "Ablation: join feature-group knockouts",
        &["prec@1", "drop"],
        &rows,
        &[],
    )
}
