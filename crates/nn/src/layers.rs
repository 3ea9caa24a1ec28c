//! Small dense layers and activations.
//!
//! The next-operator model has a 7-symbol vocabulary and a few thousand
//! parameters, so the kernels in [`crate::matmul`] favour allocation-free
//! batch buffers over BLAS. A layer owns no storage: [`Dense`] and
//! [`Embedding`] are offset views into one flat parameter arena (and into
//! gradient buffers of the same layout), so a model's zeroing, clipping
//! and optimiser step each run as one pass over contiguous memory. A
//! batch of one is bit-identical to any row of a larger batch.

use crate::matmul::{gemm_backward, gemm_bias};
use rand::Rng;

/// A dense affine layer `y = x·W + b`: `in_dim × out_dim` row-major
/// weights followed by `out_dim` biases, starting at `off` in the
/// parameter arena. Its gradients sit at the same offset of a gradient
/// buffer with the arena's layout.
#[derive(Debug, Clone, Copy)]
pub struct Dense {
    pub in_dim: usize,
    pub out_dim: usize,
    pub off: usize,
}

impl Dense {
    /// Append a Xavier-uniform layer (weights, then zero biases) to `arena`.
    pub fn new<R: Rng>(arena: &mut Vec<f64>, in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        let scale = (6.0 / (in_dim + out_dim) as f64).sqrt();
        let off = arena.len();
        arena.extend((0..in_dim * out_dim).map(|_| rng.random_range(-scale..scale)));
        arena.resize(arena.len() + out_dim, 0.0);
        Dense { in_dim, out_dim, off }
    }

    /// This layer's `(W, b)` slices of `buf` (the arena or a gradient
    /// buffer of the same layout).
    fn slots<'a>(&self, buf: &'a [f64]) -> (&'a [f64], &'a [f64]) {
        let nw = self.in_dim * self.out_dim;
        buf[self.off..self.off + nw + self.out_dim].split_at(nw)
    }

    fn slots_mut<'a>(&self, buf: &'a mut [f64]) -> (&'a mut [f64], &'a mut [f64]) {
        let nw = self.in_dim * self.out_dim;
        buf[self.off..self.off + nw + self.out_dim].split_at_mut(nw)
    }

    /// Forward pass for a row-major batch: `out[r] = x[r]·W + b`.
    /// `out` must hold at least `batch × out_dim` elements.
    pub fn forward_batch(&self, params: &[f64], x: &[f64], batch: usize, out: &mut [f64]) {
        debug_assert_eq!(x.len(), batch * self.in_dim);
        let (w, b) = self.slots(params);
        gemm_bias(x, batch, self.in_dim, w, b, self.out_dim, out);
    }

    /// Batched backward: accumulate `dW += xᵀ·dy`, `db += Σ dy[r]` into
    /// `grads` and write `dx[r] = dy[r]·Wᵀ` into the scratch slice.
    /// Accumulation is in ascending batch-row order, bit-identical to
    /// one call per row.
    pub fn backward_batch(
        &self,
        params: &[f64],
        grads: &mut [f64],
        x: &[f64],
        dy: &[f64],
        batch: usize,
        dx: &mut [f64],
    ) {
        debug_assert_eq!(x.len(), batch * self.in_dim);
        let (w, _) = self.slots(params);
        let (dw, db) = self.slots_mut(grads);
        gemm_backward(x, dy, batch, self.in_dim, self.out_dim, w, dw, db, dx);
    }
}

/// An embedding table mapping symbol ids to dense vectors: `vocab × dim`
/// row-major, starting at `off` in the parameter arena.
#[derive(Debug, Clone, Copy)]
pub struct Embedding {
    pub vocab: usize,
    pub dim: usize,
    pub off: usize,
}

impl Embedding {
    /// Append a uniformly initialised table to `arena`.
    pub fn new<R: Rng>(arena: &mut Vec<f64>, vocab: usize, dim: usize, rng: &mut R) -> Self {
        let scale = (1.0 / dim as f64).sqrt();
        let off = arena.len();
        arena.extend((0..vocab * dim).map(|_| rng.random_range(-scale..scale)));
        Embedding { vocab, dim, off }
    }

    fn row(&self, id: usize) -> std::ops::Range<usize> {
        assert!(id < self.vocab, "symbol id {id} out of vocabulary");
        self.off + id * self.dim..self.off + (id + 1) * self.dim
    }

    /// The embedding vector for symbol `id`.
    pub fn lookup<'a>(&self, params: &'a [f64], id: usize) -> &'a [f64] {
        &params[self.row(id)]
    }

    /// Gather the embedding rows for `ids` into a row-major batch buffer.
    pub fn lookup_batch(&self, params: &[f64], ids: &[usize], out: &mut [f64]) {
        debug_assert!(out.len() >= ids.len() * self.dim);
        for (r, &id) in ids.iter().enumerate() {
            out[r * self.dim..(r + 1) * self.dim].copy_from_slice(self.lookup(params, id));
        }
    }

    /// Scatter-add a batch of gradient rows into `grads` (`d` is
    /// `ids.len() × dim`, accumulated in ascending row order —
    /// deterministic even when ids repeat within the batch).
    pub fn backward_batch(&self, grads: &mut [f64], ids: &[usize], d: &[f64]) {
        debug_assert!(d.len() >= ids.len() * self.dim);
        for (r, &id) in ids.iter().enumerate() {
            for (g, dj) in grads[self.row(id)].iter_mut().zip(&d[r * self.dim..(r + 1) * self.dim]) {
                *g += dj;
            }
        }
    }
}

/// Numerically-stable softmax.
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    let mut out = logits.to_vec();
    softmax_rows(&mut out, logits.len());
    out
}

/// In-place numerically-stable softmax over each row of a `rows × n`
/// buffer (row count inferred from the slice length).
pub fn softmax_rows(buf: &mut [f64], n: usize) {
    if n == 0 {
        return;
    }
    for row in buf.chunks_mut(n) {
        let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// ReLU applied element-wise, returning the activated vector.
pub fn relu(x: &[f64]) -> Vec<f64> {
    x.iter().map(|&v| v.max(0.0)).collect()
}

/// ReLU applied in place.
pub fn relu_in_place(x: &mut [f64]) {
    for v in x.iter_mut() {
        *v = v.max(0.0);
    }
}

/// Gradient of ReLU: passes `dy` where the forward activation was positive.
pub fn relu_backward(activated: &[f64], dy: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; dy.len()];
    relu_backward_into(activated, dy, &mut out);
    out
}

/// [`relu_backward`] into a caller-owned buffer.
pub fn relu_backward_into(activated: &[f64], dy: &[f64], out: &mut [f64]) {
    for ((o, &a), &d) in out.iter_mut().zip(activated).zip(dy) {
        *o = if a > 0.0 { d } else { 0.0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0)
    }

    #[test]
    fn layers_append_in_order_and_view_their_slots() {
        let mut arena = Vec::new();
        let e = Embedding::new(&mut arena, 3, 2, &mut rng());
        let d = Dense::new(&mut arena, 2, 4, &mut rng());
        assert_eq!((e.off, d.off, arena.len()), (0, 6, 6 + 2 * 4 + 4));
        let (w, b) = d.slots(&arena);
        assert_eq!((w.len(), b), (8, &[0.0; 4][..]));
        assert_eq!(e.lookup(&arena, 1), &arena[2..4]);
    }

    #[test]
    fn dense_forward_identity_weights() {
        let mut arena = Vec::new();
        let d = Dense::new(&mut arena, 2, 2, &mut rng());
        arena.copy_from_slice(&[1.0, 0.0, 0.0, 1.0, 0.5, -0.5]);
        let mut y = [0.0; 2];
        d.forward_batch(&arena, &[2.0, 3.0], 1, &mut y);
        assert_eq!(y, [2.5, 2.5]);
    }

    #[test]
    fn dense_backward_gradients_match_finite_difference() {
        let mut arena = Vec::new();
        let d = Dense::new(&mut arena, 3, 2, &mut rng());
        let mut grads = vec![0.0; arena.len()];
        let x = [0.3, -0.7, 1.1];
        let dy = [1.0, -2.0];
        let mut dx = [0.0; 3];
        d.backward_batch(&arena, &mut grads, &x, &dy, 1, &mut dx);
        // Finite-difference check on one weight and the input gradient.
        let eps = 1e-6;
        let loss = |params: &[f64], x: &[f64]| -> f64 {
            let mut y = [0.0; 2];
            d.forward_batch(params, x, 1, &mut y);
            y[0] * dy[0] + y[1] * dy[1]
        };
        let mut shifted = arena.clone();
        shifted[2] += eps; // W row 1, column 0
        let num = (loss(&shifted, &x) - loss(&arena, &x)) / eps;
        assert!((num - grads[2]).abs() < 1e-4, "num {num} vs analytic {}", grads[2]);
        let mut xp = x;
        xp[1] += eps;
        let numx = (loss(&arena, &xp) - loss(&arena, &x)) / eps;
        assert!((numx - dx[1]).abs() < 1e-4);
    }

    #[test]
    fn dense_batch_forward_equals_per_row() {
        let mut arena = Vec::new();
        let d = Dense::new(&mut arena, 5, 3, &mut rng());
        let xs: Vec<f64> = (0..4 * 5).map(|i| (i as f64 * 0.73).sin()).collect();
        let mut batched = vec![0.0; 4 * 3];
        d.forward_batch(&arena, &xs, 4, &mut batched);
        for r in 0..4 {
            let mut y = [0.0; 3];
            d.forward_batch(&arena, &xs[r * 5..(r + 1) * 5], 1, &mut y);
            assert_eq!(&batched[r * 3..(r + 1) * 3], &y[..]);
        }
    }

    #[test]
    fn dense_batch_backward_equals_sequential_accumulation() {
        let mut arena = Vec::new();
        let d = Dense::new(&mut arena, 4, 3, &mut rng());
        let (mut ga, mut gb) = (vec![0.0; arena.len()], vec![0.0; arena.len()]);
        let xs: Vec<f64> = (0..3 * 4).map(|i| (i as f64 * 0.37).cos()).collect();
        let dys: Vec<f64> = (0..3 * 3).map(|i| (i as f64 * 0.53).sin()).collect();
        let mut dx_a = vec![0.0; 3 * 4];
        d.backward_batch(&arena, &mut ga, &xs, &dys, 3, &mut dx_a);
        let mut dx_b = vec![0.0; 3 * 4];
        for r in 0..3 {
            let (x, dy) = (&xs[r * 4..(r + 1) * 4], &dys[r * 3..(r + 1) * 3]);
            d.backward_batch(&arena, &mut gb, x, dy, 1, &mut dx_b[r * 4..(r + 1) * 4]);
        }
        assert_eq!(ga, gb);
        assert_eq!(dx_a, dx_b);
    }

    #[test]
    fn embedding_batch_ops_match_per_symbol() {
        let mut arena = Vec::new();
        let e = Embedding::new(&mut arena, 5, 2, &mut rng());
        let ids = [3usize, 1, 3];
        let mut gathered = vec![0.0; 3 * 2];
        e.lookup_batch(&arena, &ids, &mut gathered);
        for (r, &id) in ids.iter().enumerate() {
            assert_eq!(&gathered[r * 2..(r + 1) * 2], e.lookup(&arena, id));
        }
        let (mut ga, mut gb) = (vec![0.0; arena.len()], vec![0.0; arena.len()]);
        let d: Vec<f64> = (0..3 * 2).map(|i| i as f64).collect();
        e.backward_batch(&mut ga, &ids, &d);
        for (r, &id) in ids.iter().enumerate() {
            e.backward_batch(&mut gb, &[id], &d[r * 2..(r + 1) * 2]);
        }
        assert_eq!(ga, gb);
        assert_eq!((ga[3 * 2], ga[0]), (4.0, 0.0), "id 3 accumulates rows 0 and 2");
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn embedding_oov_panics() {
        let mut arena = Vec::new();
        Embedding::new(&mut arena, 2, 2, &mut rng()).lookup(&arena, 5);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let p = softmax(&[1000.0, 1000.0, 999.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[0] > p[2]);
        assert!(p.iter().all(|&x| x.is_finite()));
    }

    #[test]
    fn softmax_rows_matches_single_row_softmax() {
        let rows = [1.0, 2.0, 3.0, -1.0, 0.0, 1.0];
        let mut buf = rows.to_vec();
        softmax_rows(&mut buf, 3);
        assert_eq!(&buf[..3], &softmax(&rows[..3])[..]);
        assert_eq!(&buf[3..], &softmax(&rows[3..])[..]);
    }

    #[test]
    fn relu_and_its_gradient() {
        let a = relu(&[-1.0, 0.0, 2.0]);
        assert_eq!(a, vec![0.0, 0.0, 2.0]);
        let g = relu_backward(&a, &[5.0, 5.0, 5.0]);
        assert_eq!(g, vec![0.0, 0.0, 5.0]);
    }
}
