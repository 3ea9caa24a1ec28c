//! Join type prediction (§4.1, Table 5): inner vs. left vs. right vs.
//! full-outer, from the relative "shapes" of the two input tables.

use crate::join::ground_truth_candidate;
use autosuggest_corpus::replay::{OpInvocation, OpParams};
use autosuggest_dataframe::ops::JoinType;
use autosuggest_dataframe::DataFrame;
use autosuggest_features::{join_features, JoinCandidate};
use autosuggest_gbdt::{Dataset, Gbdt, GbdtParams};
use serde::{Deserialize, Serialize};

/// Feature names for the join-type model.
const TYPE_FEATURE_NAMES: [&str; 9] = [
    "row_ratio_log",
    "left_rows_log",
    "right_rows_log",
    "left_cols",
    "right_cols",
    "right_is_narrow",
    "right_cols_subsumed",
    "containment_left_in_right",
    "containment_right_in_left",
];

/// Shape features for (left, right, join columns): the signals §4.1 calls
/// out — a much larger "central" table suggests enrichment (outer/left),
/// a narrow right table whose columns the left already has suggests a
/// filtering inner join.
pub fn join_type_features(
    left: &DataFrame,
    right: &DataFrame,
    cand: &JoinCandidate,
) -> Vec<f64> {
    let jf = join_features(left, right, cand);
    let lrows = left.num_rows().max(1) as f64;
    let rrows = right.num_rows().max(1) as f64;
    let right_names: Vec<String> = right
        .column_names()
        .iter()
        .map(|s| s.to_lowercase())
        .collect();
    let left_names: std::collections::HashSet<String> = left
        .column_names()
        .iter()
        .map(|s| s.to_lowercase())
        .collect();
    let subsumed = right_names
        .iter()
        .filter(|n| left_names.contains(*n))
        .count() as f64
        / right_names.len().max(1) as f64;
    vec![
        (lrows / rrows).ln(),
        lrows.ln(),
        rrows.ln(),
        left.num_columns() as f64,
        right.num_columns() as f64,
        if right.num_columns() <= 2 { 1.0 } else { 0.0 },
        subsumed,
        jf.get("containment_left_in_right"),
        jf.get("containment_right_in_left"),
    ]
}

/// One-vs-rest GBDTs over the four join types.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JoinTypePredictor {
    models: Vec<Gbdt>,
}

impl JoinTypePredictor {
    /// Train from merge invocations (the logged `how` is the label).
    pub fn train(invocations: &[&OpInvocation], gbdt: &GbdtParams) -> Option<Self> {
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut hows: Vec<JoinType> = Vec::new();
        for inv in invocations {
            let OpParams::Merge { how, .. } = &inv.params else { continue };
            let Some(truth) = ground_truth_candidate(inv) else { continue };
            rows.push(join_type_features(&inv.inputs[0], &inv.inputs[1], &truth));
            hows.push(*how);
        }
        if rows.is_empty() {
            return None;
        }
        let names: Vec<String> = TYPE_FEATURE_NAMES.iter().map(|s| s.to_string()).collect();
        // The four one-vs-rest fits are independent, so they train on the
        // pool; `par_map` returns them in `JoinType::ALL` order and each
        // fit's arithmetic is untouched, so the models are bit-identical
        // to the sequential loop at any thread count.
        let fitted: Vec<Option<Gbdt>> = autosuggest_parallel::par_map(&JoinType::ALL, |&jt| {
            let labels: Vec<f64> = hows
                .iter()
                .map(|&h| if h == jt { 1.0 } else { 0.0 })
                .collect();
            let data = Dataset::new(names.clone(), rows.clone(), labels).ok()?;
            Some(Gbdt::fit(&data, gbdt))
        });
        let models: Option<Vec<Gbdt>> = fitted.into_iter().collect();
        Some(JoinTypePredictor { models: models? })
    }

    /// Scores per join type, ordered as [`JoinType::ALL`].
    pub fn scores(&self, left: &DataFrame, right: &DataFrame, cand: &JoinCandidate) -> Vec<f64> {
        let f = join_type_features(left, right, cand);
        self.models.iter().map(|m| m.predict(&f)).collect()
    }

    /// The most likely join type.
    pub fn predict(&self, left: &DataFrame, right: &DataFrame, cand: &JoinCandidate) -> JoinType {
        let scores = self.scores(left, right, cand);
        let best = (0..scores.len())
            .max_by(|&a, &b| scores[a].total_cmp(&scores[b]))
            .unwrap_or(0);
        JoinType::ALL[best]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosuggest_dataframe::Value;

    fn table(rows: usize, cols: usize, tag: &str) -> DataFrame {
        let columns = (0..cols)
            .map(|c| {
                (
                    format!("{tag}{c}"),
                    (0..rows).map(|r| Value::Int((r % 23) as i64)).collect::<Vec<_>>(),
                )
            })
            .collect::<Vec<_>>();
        DataFrame::new(
            columns
                .into_iter()
                .map(|(n, v)| autosuggest_dataframe::Column::new(n, v))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn shape_features_capture_the_section_4_1_signals() {
        let big = table(200, 8, "l");
        let small = table(10, 2, "r");
        let cand = JoinCandidate { left_cols: vec![0], right_cols: vec![0] };
        let f = join_type_features(&big, &small, &cand);
        assert!(f[0] > 2.0, "row ratio log should be large: {}", f[0]);
        assert_eq!(f[5], 1.0, "right is narrow");
        let f_rev = join_type_features(&small, &big, &cand);
        assert!(f_rev[0] < -2.0);
    }

    #[test]
    fn subsumption_feature() {
        let l = DataFrame::from_columns(vec![
            ("k", vec![Value::Int(1)]),
            ("v", vec![Value::Int(2)]),
        ])
        .unwrap();
        let r = DataFrame::from_columns(vec![
            ("k", vec![Value::Int(1)]),
            ("other", vec![Value::Int(3)]),
        ])
        .unwrap();
        let cand = JoinCandidate { left_cols: vec![0], right_cols: vec![0] };
        let f = join_type_features(&l, &r, &cand);
        assert!((f[6] - 0.5).abs() < 1e-12); // "k" subsumed, "other" not
    }

    #[test]
    fn learns_shape_to_type_rule() {
        // Synthetic rule: big-left/small-right → Left join; else Inner.
        use autosuggest_corpus::flowgraph::OpKind;
        use autosuggest_corpus::replay::OpParams as P;
        let mut invs = Vec::new();
        for i in 0..40 {
            let enrich = i % 2 == 0;
            let (lr, rr) = if enrich { (150 + i, 8) } else { (20, 18 + i % 5) };
            let left = table(lr, 5, "l");
            let right = table(rr, 4, "r");
            invs.push(OpInvocation {
                notebook_id: format!("n{i}"),
                dataset_group: format!("g{i}"),
                cell_index: 0,
                op: OpKind::Merge,
                input_hashes: vec![left.content_hash(), right.content_hash()],
                inputs: vec![left.into(), right.into()],
                params: P::Merge {
                    left_on: vec!["l0".into()],
                    right_on: vec!["r0".into()],
                    how: if enrich { JoinType::Left } else { JoinType::Inner },
                    suffixes: ("_x".into(), "_y".into()),
                    sort: false,
                    indicator: false,
                },
                output_hash: i as u64,
                output_rows: 1,
                output_cols: 1,
            });
        }
        let refs: Vec<&OpInvocation> = invs.iter().collect();
        let gbdt = GbdtParams { n_trees: 30, ..Default::default() };
        let model = JoinTypePredictor::train(&refs, &gbdt).unwrap();
        let cand = JoinCandidate { left_cols: vec![0], right_cols: vec![0] };
        assert_eq!(
            model.predict(&table(200, 5, "l"), &table(9, 4, "r"), &cand),
            JoinType::Left
        );
        assert_eq!(
            model.predict(&table(20, 5, "l"), &table(20, 4, "r"), &cand),
            JoinType::Inner
        );
    }

    #[test]
    fn empty_training_returns_none() {
        assert!(JoinTypePredictor::train(&[], &GbdtParams::default()).is_none());
    }
}
