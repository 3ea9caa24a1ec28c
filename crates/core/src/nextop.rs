//! Next-operator prediction (§5, Table 11): RNN over the operator history,
//! concatenated with single-operator model scores on the current table
//! (Fig. 13).

use crate::groupby::GroupByAggPredictor;
use crate::pivot::CompatibilityModel;
use autosuggest_corpus::OpKind;
use autosuggest_dataframe::{DataFrame, DType};
use autosuggest_graph::cmut_greedy;
use autosuggest_nn::rnn::SequenceExample;
use autosuggest_nn::{RnnClassifier, RnnConfig};

/// Number of operators in the prediction vocabulary
/// ([`OpKind::SEQUENCE_OPS`]).
pub const NUM_OPS: usize = 7;

/// One next-operator example: the operator prefix, the single-operator
/// scores of the table available at this step, and the operator that
/// actually came next.
#[derive(Debug, Clone)]
pub struct NextOpExample {
    pub prefix: Vec<usize>,
    pub table_scores: Vec<f64>,
    pub label: usize,
}

/// Single-operator prediction scores for a table, ordered like
/// [`OpKind::SEQUENCE_OPS`] = `[concat, dropna, fillna, groupby, melt,
/// merge, pivot]`.
///
/// These are the "raw scores of each operator" Fig. 13 concatenates with
/// the RNN state: the GroupBy model scores dimension-ness, the CMUT
/// objective signals pivot-shaped tables ("we obtain a large
/// objective-function value in CMUT when T_i is appropriate for Unpivot"),
/// and null statistics drive the cleaning operators.
pub fn single_op_scores(
    df: &DataFrame,
    groupby: &GroupByAggPredictor,
    compat: &CompatibilityModel,
) -> Vec<f64> {
    let n = df.num_columns();
    if n == 0 {
        return vec![0.0; NUM_OPS];
    }
    // An untrained GroupBy model (e.g. a corpus with zero groupby
    // sequences) may produce no scores at all; table signals degrade to
    // zero rather than panicking.
    let gb_scores = groupby.scores(df);
    let mut sorted_gb = gb_scores.clone();
    sorted_gb.sort_by(f64::total_cmp);
    let top_gb = sorted_gb.last().copied().unwrap_or(0.0);
    let second_gb = if sorted_gb.len() >= 2 {
        sorted_gb[sorted_gb.len() - 2]
    } else {
        0.0
    };
    let min_gb = sorted_gb.first().copied().unwrap_or(0.0);
    let measure_presence = (1.0 - min_gb).clamp(0.0, 1.0);

    let emptiness: Vec<f64> = df.columns().iter().map(|c| c.emptiness()).collect();
    let max_empty = emptiness.iter().copied().fold(0.0, f64::max);
    let mean_empty = emptiness.iter().sum::<f64>() / n as f64;

    // CMUT objective over the full column set (capped width for cost).
    let melt_score = if n >= 3 {
        let cols: Vec<usize> = (0..n.min(30)).collect();
        let g = compat.graph(df, &cols);
        cmut_greedy(&g)
            .map(|s| (s.objective / 2.0).clamp(0.0, 1.0))
            .unwrap_or(0.0)
    } else {
        0.0
    };

    // Merge wants a key: a near-unique string column.
    let merge_score = df
        .columns()
        .iter()
        .filter(|c| c.dtype() == DType::Str)
        .map(|c| c.distinct_ratio())
        .fold(0.0, f64::max);

    let groupby_score = (top_gb * measure_presence).clamp(0.0, 1.0);
    let pivot_score = (second_gb * measure_presence).clamp(0.0, 1.0) * (1.0 - melt_score);

    vec![
        0.2,                                  // concat: weak prior, no table signal
        max_empty.clamp(0.0, 1.0),            // dropna
        (2.0 * mean_empty).clamp(0.0, 1.0),   // fillna
        groupby_score,                        // groupby
        melt_score,                           // melt / unpivot
        merge_score.clamp(0.0, 1.0),          // merge
        pivot_score,                          // pivot
    ]
}

/// Model variants of Table 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextOpMode {
    /// Fig. 13: RNN + single-operator scores (Auto-Suggest).
    Full,
    /// Sequence-only RNN baseline.
    RnnOnly,
    /// Table-only baseline: rank by the single-operator scores directly.
    SingleOperators,
}

/// Configuration for the next-operator model.
#[derive(Debug, Clone)]
pub struct NextOpConfig {
    pub mode: NextOpMode,
    pub embed_dim: usize,
    pub hidden_dim: usize,
    pub mlp_hidden: usize,
    pub epochs: usize,
    pub lr: f64,
    pub seed: u64,
}

impl Default for NextOpConfig {
    fn default() -> Self {
        NextOpConfig {
            mode: NextOpMode::Full,
            embed_dim: 12,
            hidden_dim: 24,
            mlp_hidden: 24,
            epochs: 40,
            lr: 5e-3,
            seed: 7,
        }
    }
}

/// The next-operator predictor.
#[derive(Debug, Clone)]
pub struct NextOpPredictor {
    cfg: NextOpConfig,
    rnn: Option<RnnClassifier>,
}

impl NextOpPredictor {
    /// Train on examples. `SingleOperators` mode needs no training.
    pub fn train(cfg: NextOpConfig, examples: &[NextOpExample]) -> Self {
        let rnn = match cfg.mode {
            NextOpMode::SingleOperators => None,
            mode => {
                let extra_dim = if mode == NextOpMode::Full { NUM_OPS } else { 0 };
                let rnn_cfg = RnnConfig {
                    vocab: NUM_OPS,
                    embed_dim: cfg.embed_dim,
                    hidden_dim: cfg.hidden_dim,
                    extra_dim,
                    mlp_hidden: cfg.mlp_hidden,
                    classes: NUM_OPS,
                    lr: cfg.lr,
                    epochs: cfg.epochs,
                    seed: cfg.seed,
                };
                let seq_examples: Vec<SequenceExample> = examples
                    .iter()
                    .map(|e| SequenceExample {
                        prefix: e.prefix.clone(),
                        extra: if extra_dim > 0 { e.table_scores.clone() } else { vec![] },
                        label: e.label,
                    })
                    .collect();
                let mut model = RnnClassifier::new(rnn_cfg);
                if !seq_examples.is_empty() {
                    let started = std::time::Instant::now();
                    model.train(&seq_examples);
                    autosuggest_obs::observe_since("nextop.rnn_train_seconds", started);
                }
                Some(model)
            }
        };
        NextOpPredictor { cfg, rnn }
    }

    /// Operator ids ranked by likelihood of coming next.
    pub fn predict_ranked(&self, prefix: &[usize], table_scores: &[f64]) -> Vec<usize> {
        match (&self.rnn, self.cfg.mode) {
            (None, _) => {
                let mut order: Vec<usize> = (0..NUM_OPS).collect();
                order.sort_by(|&a, &b| {
                    table_scores[b].total_cmp(&table_scores[a]).then(a.cmp(&b))
                });
                order
            }
            (Some(rnn), NextOpMode::Full) => rnn.predict_ranked(prefix, table_scores),
            (Some(rnn), _) => rnn.predict_ranked(prefix, &[]),
        }
    }

    /// [`Self::predict_ranked`] over a batch of queries: RNN modes bucket
    /// the prefixes by length and score them on shared scratch buffers
    /// (one allocation pass for the whole batch); each output row is
    /// bit-identical to the per-query call.
    pub fn predict_ranked_batch(&self, queries: &[(&[usize], &[f64])]) -> Vec<Vec<usize>> {
        match (&self.rnn, self.cfg.mode) {
            (None, _) => queries
                .iter()
                .map(|(p, ts)| self.predict_ranked(p, ts))
                .collect(),
            (Some(rnn), NextOpMode::Full) => rnn.predict_ranked_batch(queries),
            (Some(rnn), _) => {
                let stripped: Vec<(&[usize], &[f64])> =
                    queries.iter().map(|&(p, _)| (p, &[] as &[f64])).collect();
                rnn.predict_ranked_batch(&stripped)
            }
        }
    }

    /// The operator most likely to come next, as an [`OpKind`].
    pub fn predict(&self, prefix: &[usize], table_scores: &[f64]) -> OpKind {
        OpKind::SEQUENCE_OPS[self.predict_ranked(prefix, table_scores)[0]]
    }

    pub fn mode(&self) -> NextOpMode {
        self.cfg.mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_examples() -> Vec<NextOpExample> {
        // Deterministic rule: after merge (5) comes groupby (3); after
        // groupby comes pivot (6); otherwise dropna (1).
        let mut out = Vec::new();
        for _ in 0..12 {
            out.push(NextOpExample {
                prefix: vec![5],
                table_scores: vec![0.0; NUM_OPS],
                label: 3,
            });
            out.push(NextOpExample {
                prefix: vec![5, 3],
                table_scores: vec![0.0; NUM_OPS],
                label: 6,
            });
            out.push(NextOpExample {
                prefix: vec![0],
                table_scores: vec![0.0; NUM_OPS],
                label: 1,
            });
        }
        out
    }

    #[test]
    fn rnn_only_learns_sequence_rules() {
        let cfg = NextOpConfig { mode: NextOpMode::RnnOnly, epochs: 80, ..Default::default() };
        let model = NextOpPredictor::train(cfg, &fake_examples());
        assert_eq!(model.predict(&[5], &[0.0; NUM_OPS]), OpKind::GroupBy);
        assert_eq!(model.predict(&[5, 3], &[0.0; NUM_OPS]), OpKind::Pivot);
    }

    #[test]
    fn single_operators_mode_ranks_by_scores_without_training() {
        let cfg = NextOpConfig { mode: NextOpMode::SingleOperators, ..Default::default() };
        let model = NextOpPredictor::train(cfg, &[]);
        let mut scores = vec![0.0; NUM_OPS];
        scores[4] = 0.9; // melt
        assert_eq!(model.predict(&[], &scores), OpKind::Melt);
    }

    #[test]
    fn full_mode_uses_table_scores_to_break_sequence_ties() {
        // The sequence alone is ambiguous (same prefix, two labels); the
        // table score disambiguates.
        let mut examples = Vec::new();
        for i in 0..30 {
            let melt_like = i % 2 == 0;
            let mut ts = vec![0.0; NUM_OPS];
            ts[4] = if melt_like { 0.9 } else { 0.05 };
            ts[3] = if melt_like { 0.05 } else { 0.9 };
            examples.push(NextOpExample {
                prefix: vec![1],
                table_scores: ts,
                label: if melt_like { 4 } else { 3 },
            });
        }
        let cfg = NextOpConfig { mode: NextOpMode::Full, epochs: 80, ..Default::default() };
        let model = NextOpPredictor::train(cfg, &examples);
        let mut melt_table = vec![0.0; NUM_OPS];
        melt_table[4] = 0.9;
        melt_table[3] = 0.05;
        assert_eq!(model.predict(&[1], &melt_table), OpKind::Melt);
        let mut gb_table = vec![0.0; NUM_OPS];
        gb_table[3] = 0.9;
        gb_table[4] = 0.05;
        assert_eq!(model.predict(&[1], &gb_table), OpKind::GroupBy);
    }

    #[test]
    fn batch_ranking_matches_per_query_ranking() {
        for mode in [NextOpMode::Full, NextOpMode::RnnOnly, NextOpMode::SingleOperators] {
            let cfg = NextOpConfig { mode, epochs: 20, ..Default::default() };
            let model = NextOpPredictor::train(cfg, &fake_examples());
            let queries: Vec<(Vec<usize>, Vec<f64>)> = vec![
                (vec![5], vec![0.1; NUM_OPS]),
                (vec![], vec![0.5; NUM_OPS]),
                (vec![5, 3], vec![0.0; NUM_OPS]),
                (vec![0], vec![0.9; NUM_OPS]),
            ];
            let refs: Vec<(&[usize], &[f64])> =
                queries.iter().map(|(p, t)| (p.as_slice(), t.as_slice())).collect();
            let batched = model.predict_ranked_batch(&refs);
            for (i, (p, t)) in refs.iter().enumerate() {
                assert_eq!(batched[i], model.predict_ranked(p, t), "mode {mode:?} query {i}");
            }
        }
    }

    #[test]
    fn ranked_output_is_permutation_of_ops() {
        let cfg = NextOpConfig { mode: NextOpMode::SingleOperators, ..Default::default() };
        let model = NextOpPredictor::train(cfg, &[]);
        let mut r = model.predict_ranked(&[], &[0.3; NUM_OPS]);
        r.sort_unstable();
        assert_eq!(r, (0..NUM_OPS).collect::<Vec<_>>());
    }
}
