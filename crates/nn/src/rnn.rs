//! The next-operator network of Fig. 13: embedding → ReLU RNN → concat
//! single-operator scores → MLP → softmax.
//!
//! ## Training kernels
//!
//! Training runs through the allocation-free batch kernels of
//! [`crate::matmul`] with one reusable [`Scratch`] workspace per call, one
//! example per Adam step: each epoch shuffles the examples with a seeded
//! RNG and steps through them in that order.
//!
//! Every parameter lives in one flat arena, in slot order `emb`, `x2h.w`,
//! `x2h.b`, `h2h.w`, `h2h.b`, `l1.w`, `l1.b`, `l2.w`, `l2.b`; the layers
//! are offset views into it. Training keeps the gradients and both Adam
//! moments in buffers of the same layout, so a step zeroes the gradients
//! with one fill, clips them in one pass (the norm sums the elements in
//! slot order) and applies one Adam update over the whole arena.
//!
//! Batch prediction ([`RnnClassifier::predict_proba_batch`]) runs the
//! same forward kernel on rectangular batches of equal-length prefixes;
//! each row is bit-identical to scoring that example alone.
//!
//! Training is single-threaded by design (an Adam step is a sequential
//! dependence); determinism needs no thread-count argument.

use crate::adam::Adam;
use crate::layers::{relu_backward_into, relu_in_place, softmax_rows, Dense, Embedding};
use autosuggest_obs as obs;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Hyper-parameters of the [`RnnClassifier`].
#[derive(Debug, Clone)]
pub struct RnnConfig {
    /// Input vocabulary size (operator symbols, including the BOS marker).
    pub vocab: usize,
    /// Embedding dimension.
    pub embed_dim: usize,
    /// RNN hidden state dimension.
    pub hidden_dim: usize,
    /// Length of the auxiliary feature vector concatenated to the final
    /// hidden state (the single-operator prediction scores; 0 recovers the
    /// sequence-only RNN baseline of Table 11).
    pub extra_dim: usize,
    /// Hidden width of the output MLP.
    pub mlp_hidden: usize,
    /// Number of output classes (operators to predict).
    pub classes: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Training epochs over the full example set.
    pub epochs: usize,
    /// RNG seed for initialisation and shuffling (full determinism).
    pub seed: u64,
}

impl Default for RnnConfig {
    fn default() -> Self {
        RnnConfig {
            vocab: 8,
            embed_dim: 16,
            hidden_dim: 32,
            extra_dim: 0,
            mlp_hidden: 32,
            classes: 7,
            lr: 5e-3,
            epochs: 30,
            seed: 0,
        }
    }
}

/// One training example: an operator-id prefix, auxiliary features for the
/// current table, and the id of the operator that actually came next.
#[derive(Debug, Clone)]
pub struct SequenceExample {
    pub prefix: Vec<usize>,
    pub extra: Vec<f64>,
    pub label: usize,
}

/// Reusable row-major batch buffers for forward/backward passes. One
/// instance serves a whole training run or batch-prediction call; nothing
/// inside the step loop allocates.
#[derive(Default)]
struct Scratch {
    /// Hidden states, `(len+1) × batch × hidden` level-major.
    hs: Vec<f64>,
    /// Gathered embedding rows, `batch × embed`.
    xb: Vec<f64>,
    /// Symbol ids of the current timestep.
    ids: Vec<usize>,
    pre: Vec<f64>,
    rec: Vec<f64>,
    /// `batch × (hidden + extra)`.
    joint: Vec<f64>,
    a1: Vec<f64>,
    /// Logits, then probabilities (softmax in place), then dlogits.
    logits: Vec<f64>,
    da1: Vec<f64>,
    djoint: Vec<f64>,
    dh: Vec<f64>,
    dpre: Vec<f64>,
    dx: Vec<f64>,
}

impl Scratch {
    /// Grow every buffer to fit a `batch × len` workload.
    fn ensure(&mut self, cfg: &RnnConfig, batch: usize, len: usize) {
        let grow = |v: &mut Vec<f64>, n: usize| {
            if v.len() < n {
                v.resize(n, 0.0);
            }
        };
        grow(&mut self.hs, (len + 1) * batch * cfg.hidden_dim);
        grow(&mut self.xb, batch * cfg.embed_dim);
        grow(&mut self.pre, batch * cfg.hidden_dim);
        grow(&mut self.rec, batch * cfg.hidden_dim);
        grow(&mut self.joint, batch * (cfg.hidden_dim + cfg.extra_dim));
        grow(&mut self.a1, batch * cfg.mlp_hidden);
        grow(&mut self.logits, batch * cfg.classes);
        grow(&mut self.da1, batch * cfg.mlp_hidden);
        grow(&mut self.djoint, batch * (cfg.hidden_dim + cfg.extra_dim));
        grow(&mut self.dh, batch * cfg.hidden_dim);
        grow(&mut self.dpre, batch * cfg.hidden_dim);
        grow(&mut self.dx, batch * cfg.embed_dim);
        if self.ids.len() < batch {
            self.ids.resize(batch, 0);
        }
    }
}

/// An Elman RNN classifier with ReLU activations, trained by full BPTT with
/// Adam and gradient clipping.
#[derive(Debug, Clone)]
pub struct RnnClassifier {
    cfg: RnnConfig,
    /// The parameter arena the layers below view, in slot order.
    params: Vec<f64>,
    emb: Embedding,
    x2h: Dense,
    h2h: Dense,
    l1: Dense,
    l2: Dense,
}

impl RnnClassifier {
    pub fn new(cfg: RnnConfig) -> Self {
        assert!(cfg.vocab > 0 && cfg.classes > 0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
        let mut params = Vec::new();
        RnnClassifier {
            emb: Embedding::new(&mut params, cfg.vocab, cfg.embed_dim, &mut rng),
            x2h: Dense::new(&mut params, cfg.embed_dim, cfg.hidden_dim, &mut rng),
            h2h: Dense::new(&mut params, cfg.hidden_dim, cfg.hidden_dim, &mut rng),
            l1: Dense::new(&mut params, cfg.hidden_dim + cfg.extra_dim, cfg.mlp_hidden, &mut rng),
            l2: Dense::new(&mut params, cfg.mlp_hidden, cfg.classes, &mut rng),
            params,
            cfg,
        }
    }

    pub fn config(&self) -> &RnnConfig {
        &self.cfg
    }

    /// Batched forward pass over `group` (example indices sharing one
    /// prefix length `len`): fills `scratch.hs` levels, `joint`, `a1`, and
    /// leaves class probabilities in `scratch.logits` (softmax applied).
    ///
    /// Per batch row, the arithmetic is element-for-element the sequence
    /// the per-example forward performs, so a batch of one — and each row
    /// of a larger batch — is bit-identical to scoring that example alone.
    fn forward_group(&self, examples: &[SequenceExample], group: &[usize], len: usize, scratch: &mut Scratch) {
        let b = group.len();
        let hd = self.cfg.hidden_dim;
        let jd = hd + self.cfg.extra_dim;
        let params = &self.params;
        scratch.ensure(&self.cfg, b, len);
        scratch.hs[..b * hd].fill(0.0);
        for t in 0..len {
            for (r, &gi) in group.iter().enumerate() {
                scratch.ids[r] = examples[gi].prefix[t];
            }
            self.emb.lookup_batch(params, &scratch.ids[..b], &mut scratch.xb);
            self.x2h.forward_batch(params, &scratch.xb[..b * self.cfg.embed_dim], b, &mut scratch.pre);
            let (h_prev, h_next) = {
                let (lo, hi) = scratch.hs.split_at_mut((t + 1) * b * hd);
                (&lo[t * b * hd..], &mut hi[..b * hd])
            };
            self.h2h.forward_batch(params, &h_prev[..b * hd], b, &mut scratch.rec);
            for ((p, &r), out) in scratch.pre[..b * hd].iter().zip(&scratch.rec[..b * hd]).zip(h_next.iter_mut()) {
                *out = p + r;
            }
            relu_in_place(h_next);
        }
        for (r, &gi) in group.iter().enumerate() {
            let h_final = &scratch.hs[len * b * hd + r * hd..len * b * hd + (r + 1) * hd];
            scratch.joint[r * jd..r * jd + hd].copy_from_slice(h_final);
            scratch.joint[r * jd + hd..(r + 1) * jd].copy_from_slice(&examples[gi].extra);
        }
        self.l1.forward_batch(params, &scratch.joint[..b * jd], b, &mut scratch.a1);
        relu_in_place(&mut scratch.a1[..b * self.cfg.mlp_hidden]);
        self.l2.forward_batch(params, &scratch.a1[..b * self.cfg.mlp_hidden], b, &mut scratch.logits);
        softmax_rows(&mut scratch.logits[..b * self.cfg.classes], self.cfg.classes);
    }

    /// Backward pass for the group most recently run through
    /// [`Self::forward_group`]. Expects `scratch.logits` to already hold
    /// `dlogits` (probabilities with the label subtracted) and accumulates
    /// into `grads` (the arena's layout) in ascending batch-row order.
    fn backward_group(
        &self,
        examples: &[SequenceExample],
        group: &[usize],
        len: usize,
        grads: &mut [f64],
        scratch: &mut Scratch,
    ) {
        let b = group.len();
        let hd = self.cfg.hidden_dim;
        let jd = hd + self.cfg.extra_dim;
        let md = self.cfg.mlp_hidden;
        let params = &self.params;
        let logits = &scratch.logits[..b * self.cfg.classes];
        self.l2.backward_batch(params, grads, &scratch.a1[..b * md], logits, b, &mut scratch.da1);
        // ReLU gradient in place: dz1 overwrites da1.
        for (d, &a) in scratch.da1[..b * md].iter_mut().zip(&scratch.a1[..b * md]) {
            if a <= 0.0 {
                *d = 0.0;
            }
        }
        let da1 = &scratch.da1[..b * md];
        self.l1.backward_batch(params, grads, &scratch.joint[..b * jd], da1, b, &mut scratch.djoint);
        // dh = djoint[:, :hidden] (gradients w.r.t. `extra` are discarded —
        // those features come from the frozen single-operator models).
        for r in 0..b {
            scratch.dh[r * hd..(r + 1) * hd].copy_from_slice(&scratch.djoint[r * jd..r * jd + hd]);
        }
        for t in (0..len).rev() {
            let h_t = &scratch.hs[(t + 1) * b * hd..(t + 2) * b * hd];
            relu_backward_into(h_t, &scratch.dh[..b * hd], &mut scratch.dpre[..b * hd]);
            for (r, &gi) in group.iter().enumerate() {
                scratch.ids[r] = examples[gi].prefix[t];
            }
            self.emb.lookup_batch(params, &scratch.ids[..b], &mut scratch.xb);
            let (xb, dpre) = (&scratch.xb[..b * self.cfg.embed_dim], &scratch.dpre[..b * hd]);
            self.x2h.backward_batch(params, grads, xb, dpre, b, &mut scratch.dx);
            let h_prev = &scratch.hs[t * b * hd..(t + 1) * b * hd];
            // dh is consumed by dpre above; safe to overwrite with dh_prev.
            self.h2h.backward_batch(params, grads, h_prev, dpre, b, &mut scratch.dh);
            self.emb.backward_batch(grads, &scratch.ids[..b], &scratch.dx[..b * self.cfg.embed_dim]);
        }
    }

    /// Class probabilities for a prefix + auxiliary features.
    ///
    /// An empty prefix is valid (prediction for the first step): the MLP
    /// sees the zero initial state.
    pub fn predict_proba(&self, prefix: &[usize], extra: &[f64]) -> Vec<f64> {
        assert_eq!(extra.len(), self.cfg.extra_dim, "extra feature arity");
        let ex = SequenceExample { prefix: prefix.to_vec(), extra: extra.to_vec(), label: 0 };
        let mut scratch = Scratch::default();
        self.forward_group(std::slice::from_ref(&ex), &[0], prefix.len(), &mut scratch);
        scratch.logits[..self.cfg.classes].to_vec()
    }

    /// Class probabilities for a batch of `(prefix, extra)` queries,
    /// bucketed by prefix length so the RNN runs on rectangular batches.
    /// Row `i` of the result is bit-identical to
    /// `predict_proba(queries[i].0, queries[i].1)`; the scratch workspace
    /// is allocated once and reused across buckets.
    pub fn predict_proba_batch(&self, queries: &[(&[usize], &[f64])]) -> Vec<Vec<f64>> {
        for (_, extra) in queries {
            assert_eq!(extra.len(), self.cfg.extra_dim, "extra feature arity");
        }
        let examples: Vec<SequenceExample> = queries
            .iter()
            .map(|(p, e)| SequenceExample { prefix: p.to_vec(), extra: e.to_vec(), label: 0 })
            .collect();
        let mut by_len: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, ex) in examples.iter().enumerate() {
            by_len.entry(ex.prefix.len()).or_default().push(i);
        }
        let mut out = vec![Vec::new(); queries.len()];
        let mut scratch = Scratch::default();
        for (len, group) in by_len {
            self.forward_group(&examples, &group, len, &mut scratch);
            for (r, &qi) in group.iter().enumerate() {
                out[qi] = scratch.logits[r * self.cfg.classes..(r + 1) * self.cfg.classes].to_vec();
            }
        }
        out
    }

    /// Classes sorted by descending probability.
    pub fn predict_ranked(&self, prefix: &[usize], extra: &[f64]) -> Vec<usize> {
        let p = self.predict_proba(prefix, extra);
        rank_desc(&p)
    }

    /// [`Self::predict_ranked`] over a batch of queries (one scratch
    /// workspace, one reused sort buffer).
    pub fn predict_ranked_batch(&self, queries: &[(&[usize], &[f64])]) -> Vec<Vec<usize>> {
        self.predict_proba_batch(queries).iter().map(|p| rank_desc(p)).collect()
    }

    /// Train for `cfg.epochs` epochs, one Adam step per example in a
    /// seeded shuffle order; returns the mean cross-entropy of the final
    /// epoch.
    pub fn train(&mut self, examples: &[SequenceExample]) -> f64 {
        assert!(!examples.is_empty(), "no training examples");
        for ex in examples {
            assert!(ex.label < self.cfg.classes);
            assert_eq!(ex.extra.len(), self.cfg.extra_dim);
            assert!(ex.prefix.iter().all(|&s| s < self.cfg.vocab));
        }
        let mut grads = vec![0.0; self.params.len()];
        let mut opt = Adam::new(self.cfg.lr, self.params.len());
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.cfg.seed ^ 0x5eed);
        let mut order: Vec<usize> = (0..examples.len()).collect();
        let mut scratch = Scratch::default();
        let mut last_epoch_loss = f64::INFINITY;
        for _ in 0..self.cfg.epochs {
            let _epoch_span = obs::span("rnn_epoch");
            order.shuffle(&mut rng);
            let mut loss_sum = 0.0;
            for &i in &order {
                loss_sum += self.step(examples, i, &mut grads, &mut opt, &mut scratch);
            }
            last_epoch_loss = loss_sum / examples.len() as f64;
        }
        obs::counter_add("nn.rnn.examples_trained", (examples.len() * self.cfg.epochs) as u64);
        last_epoch_loss
    }

    /// One optimizer step on example `i`: zero gradients, run the forward
    /// and backward kernels on a batch of one, clip the gradient, apply one
    /// Adam update over the whole arena. Returns the example's cross-entropy.
    fn step(
        &mut self,
        examples: &[SequenceExample],
        i: usize,
        grads: &mut [f64],
        opt: &mut Adam,
        scratch: &mut Scratch,
    ) -> f64 {
        grads.fill(0.0);

        let group = [i];
        let len = examples[i].prefix.len();
        let label = examples[i].label;
        self.forward_group(examples, &group, len, scratch);
        // Loss and dlogits (softmax cross-entropy) in place.
        let row = &mut scratch.logits[..self.cfg.classes];
        let loss = -row[label].max(1e-12).ln();
        row[label] -= 1.0;
        self.backward_group(examples, &group, len, grads, scratch);
        clip_grads(grads, 5.0);
        opt.step(&mut self.params, grads);
        loss
    }
}

/// Indices of `p` sorted by descending value (ties broken by index).
fn rank_desc(p: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..p.len()).collect();
    order.sort_by(|&a, &b| p[b].total_cmp(&p[a]).then(a.cmp(&b)));
    order
}

/// Scale the gradients so their joint L2 norm is at most `max_norm`.
fn clip_grads(grads: &mut [f64], max_norm: f64) {
    let norm: f64 = grads.iter().map(|&v| v * v).sum::<f64>().sqrt();
    if norm > max_norm {
        let scale = max_norm / norm;
        for v in grads.iter_mut() {
            *v *= scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(extra_dim: usize) -> RnnConfig {
        RnnConfig {
            vocab: 4,
            embed_dim: 8,
            hidden_dim: 12,
            extra_dim,
            mlp_hidden: 12,
            classes: 4,
            lr: 1e-2,
            epochs: 60,
            seed: 3,
        }
    }

    #[test]
    fn learns_identity_transition() {
        // Next symbol = last symbol. The RNN must carry the last input.
        let mut examples = Vec::new();
        for a in 0..4usize {
            for b in 0..4usize {
                examples.push(SequenceExample { prefix: vec![a, b], extra: vec![], label: b });
            }
        }
        let mut model = RnnClassifier::new(small_cfg(0));
        let loss = model.train(&examples);
        assert!(loss < 0.3, "final loss {loss}");
        for ex in &examples {
            assert_eq!(model.predict_ranked(&ex.prefix, &[])[0], ex.label);
        }
    }

    #[test]
    fn uses_extra_features_when_sequence_is_uninformative() {
        // Sequence is constant; the label is encoded only in `extra`.
        let mut examples = Vec::new();
        for label in 0..4usize {
            for _ in 0..8 {
                let mut extra = vec![0.0; 4];
                extra[label] = 1.0;
                examples.push(SequenceExample { prefix: vec![0], extra, label });
            }
        }
        let mut model = RnnClassifier::new(small_cfg(4));
        model.train(&examples);
        let mut extra = vec![0.0; 4];
        extra[2] = 1.0;
        assert_eq!(model.predict_ranked(&[0], &extra)[0], 2);
    }

    #[test]
    fn empty_prefix_is_valid() {
        let model = RnnClassifier::new(small_cfg(0));
        let p = model.predict_proba(&[], &[]);
        assert_eq!(p.len(), 4);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let examples = vec![
            SequenceExample { prefix: vec![0, 1], extra: vec![], label: 2 },
            SequenceExample { prefix: vec![2], extra: vec![], label: 0 },
        ];
        let mut a = RnnClassifier::new(small_cfg(0));
        let mut b = RnnClassifier::new(small_cfg(0));
        let la = a.train(&examples);
        let lb = b.train(&examples);
        assert_eq!(la, lb);
        assert_eq!(a.predict_proba(&[0], &[]), b.predict_proba(&[0], &[]));
    }

    #[test]
    fn batch_prediction_matches_per_example_prediction() {
        let mut examples = Vec::new();
        for a in 0..4usize {
            for b in 0..4usize {
                examples.push(SequenceExample { prefix: vec![a, b], extra: vec![], label: b });
            }
        }
        let mut model = RnnClassifier::new(small_cfg(0));
        model.train(&examples);
        let queries: Vec<(Vec<usize>, Vec<f64>)> = vec![
            (vec![], vec![]),
            (vec![1], vec![]),
            (vec![2, 3], vec![]),
            (vec![0], vec![]),
            (vec![3, 1], vec![]),
        ];
        let refs: Vec<(&[usize], &[f64])> =
            queries.iter().map(|(p, e)| (p.as_slice(), e.as_slice())).collect();
        let batched = model.predict_proba_batch(&refs);
        let ranked = model.predict_ranked_batch(&refs);
        for (i, (p, e)) in refs.iter().enumerate() {
            let single = model.predict_proba(p, e);
            for (x, y) in batched[i].iter().zip(&single) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            assert_eq!(ranked[i], model.predict_ranked(p, e));
        }
    }

    #[test]
    fn ranked_output_is_a_permutation() {
        let model = RnnClassifier::new(small_cfg(0));
        let mut r = model.predict_ranked(&[1, 2, 3], &[]);
        r.sort_unstable();
        assert_eq!(r, vec![0, 1, 2, 3]);
    }

    #[test]
    fn clip_scales_down_large_gradients() {
        let mut g = vec![3.0, 4.0, 0.0];
        clip_grads(&mut g, 1.0);
        let norm = (g[0] * g[0] + g[1] * g[1]).sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
        assert_eq!(g[2], 0.0);
    }

    #[test]
    #[should_panic(expected = "extra feature arity")]
    fn wrong_extra_arity_panics() {
        let model = RnnClassifier::new(small_cfg(2));
        model.predict_proba(&[0], &[]);
    }
}
