//! Small blocked-GEMM kernels for the training hot path.
//!
//! The next-operator model is tiny (a few thousand parameters), so the
//! historical per-example code spent most of its time allocating
//! intermediate `Vec`s rather than multiplying. These kernels operate on
//! caller-owned row-major batch buffers and allocate nothing.
//!
//! ## Determinism contract
//!
//! Every kernel accumulates each output element in a fixed order
//! (ascending over the contraction dimension, ascending over batch rows
//! for gradient accumulation), identical to the historical per-example
//! loops. Batching therefore changes *when* flops happen, not
//! *what* is summed in which order: a batch of one is bit-identical to
//! the per-example path, and larger batches are bit-identical to
//! accumulating the same examples sequentially.
//!
//! Row-blocking (`ROW_BLOCK` rows of `a` share one sweep over `w`) only
//! regroups independent output rows; per-element arithmetic order is
//! untouched.

/// Rows of `a` processed per sweep over `w`. Each sweep streams the whole
/// weight matrix once, so a block of rows amortises that traffic.
const ROW_BLOCK: usize = 4;

/// `out[r] = bias (+ a[r]·w)` for each of `batch` rows.
///
/// `a` is `batch × k` row-major, `w` is `k × n` row-major, `out` is
/// `batch × n`. Zero entries of `a` are skipped, exactly like the
/// historical per-example loop, which both preserves its bit pattern and
/// exploits ReLU sparsity in hidden states.
pub fn gemm_bias(a: &[f64], batch: usize, k: usize, w: &[f64], bias: &[f64], n: usize, out: &mut [f64]) {
    debug_assert_eq!(a.len(), batch * k);
    debug_assert_eq!(w.len(), k * n);
    debug_assert_eq!(bias.len(), n);
    debug_assert!(out.len() >= batch * n);
    for r in 0..batch {
        out[r * n..(r + 1) * n].copy_from_slice(bias);
    }
    gemm_acc(a, batch, k, w, n, out);
}

/// `out[r] += a[r]·w` for each of `batch` rows (`a`: `batch × k`, `w`:
/// `k × n`, `out`: `batch × n`), skipping zero activations.
pub fn gemm_acc(a: &[f64], batch: usize, k: usize, w: &[f64], n: usize, out: &mut [f64]) {
    debug_assert_eq!(a.len(), batch * k);
    debug_assert_eq!(w.len(), k * n);
    debug_assert!(out.len() >= batch * n);
    let mut r = 0;
    while r < batch {
        let rows = ROW_BLOCK.min(batch - r);
        for i in 0..k {
            let wrow = &w[i * n..(i + 1) * n];
            for br in 0..rows {
                let xi = a[(r + br) * k + i];
                if xi == 0.0 {
                    continue;
                }
                let orow = &mut out[(r + br) * n..(r + br) * n + n];
                for (o, &wj) in orow.iter_mut().zip(wrow) {
                    *o += xi * wj;
                }
            }
        }
        r += rows;
    }
}

/// Backward through `y = x·w`: `dx[r] = dy[r]·wᵀ` and `dw += xᵀ·dy`,
/// `db += Σ_r dy[r]`.
///
/// Gradient accumulation order per element is ascending batch row — the
/// same order per-example training would produce — so batch gradients are
/// bit-identical to sequentially accumulated per-example gradients.
#[allow(clippy::too_many_arguments)]
pub fn gemm_backward(
    x: &[f64],
    dy: &[f64],
    batch: usize,
    k: usize,
    n: usize,
    w: &[f64],
    dw: &mut [f64],
    db: &mut [f64],
    dx: &mut [f64],
) {
    debug_assert_eq!(x.len(), batch * k);
    debug_assert!(dy.len() >= batch * n);
    debug_assert_eq!(w.len(), k * n);
    debug_assert_eq!(dw.len(), k * n);
    debug_assert_eq!(db.len(), n);
    debug_assert!(dx.len() >= batch * k);
    for r in 0..batch {
        let dyr = &dy[r * n..(r + 1) * n];
        for i in 0..k {
            let wrow = &w[i * n..(i + 1) * n];
            let drow = &mut dw[i * n..(i + 1) * n];
            let xi = x[r * k + i];
            let mut acc = 0.0;
            for j in 0..n {
                acc += wrow[j] * dyr[j];
                drow[j] += xi * dyr[j];
            }
            dx[r * k + i] = acc;
        }
        for (dbj, dyj) in db.iter_mut().zip(dyr) {
            *dbj += dyj;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_forward(a: &[f64], batch: usize, k: usize, w: &[f64], bias: &[f64], n: usize) -> Vec<f64> {
        let mut out = vec![0.0; batch * n];
        for r in 0..batch {
            for j in 0..n {
                out[r * n + j] = bias[j];
            }
            for i in 0..k {
                for j in 0..n {
                    out[r * n + j] += a[r * k + i] * w[i * n + j];
                }
            }
        }
        out
    }

    #[test]
    fn gemm_bias_matches_naive() {
        let (batch, k, n) = (5, 3, 4);
        let a: Vec<f64> = (0..batch * k).map(|i| (i as f64 * 0.37).sin()).collect();
        let w: Vec<f64> = (0..k * n).map(|i| (i as f64 * 0.11).cos()).collect();
        let bias: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let mut out = vec![0.0; batch * n];
        gemm_bias(&a, batch, k, &w, &bias, n, &mut out);
        let want = naive_forward(&a, batch, k, &w, &bias, n);
        for (g, e) in out.iter().zip(&want) {
            assert!((g - e).abs() < 1e-12, "{g} vs {e}");
        }
    }

    #[test]
    fn row_blocking_is_bit_identical_to_single_rows() {
        // A batch run must equal running each row alone (shared per-element
        // accumulation order) — the foundation of batch==sequential.
        let (batch, k, n) = (9, 7, 6);
        let a: Vec<f64> = (0..batch * k)
            .map(|i| if i % 5 == 0 { 0.0 } else { (i as f64 * 1.3).sin() })
            .collect();
        let w: Vec<f64> = (0..k * n).map(|i| (i as f64 * 0.7).cos()).collect();
        let bias: Vec<f64> = (0..n).map(|i| (i as f64).sqrt()).collect();
        let mut batched = vec![0.0; batch * n];
        gemm_bias(&a, batch, k, &w, &bias, n, &mut batched);
        for r in 0..batch {
            let mut single = vec![0.0; n];
            gemm_bias(&a[r * k..(r + 1) * k], 1, k, &w, &bias, n, &mut single);
            assert_eq!(&batched[r * n..(r + 1) * n], &single[..]);
        }
    }

    #[test]
    fn backward_accumulates_in_batch_row_order() {
        // dw from one batched call == dw from per-row calls in order.
        let (batch, k, n) = (6, 4, 3);
        let x: Vec<f64> = (0..batch * k).map(|i| (i as f64 * 0.9).sin()).collect();
        let dy: Vec<f64> = (0..batch * n).map(|i| (i as f64 * 0.4).cos()).collect();
        let w: Vec<f64> = (0..k * n).map(|i| (i as f64 * 0.2).sin()).collect();

        let mut dw_a = vec![0.0; k * n];
        let mut db_a = vec![0.0; n];
        let mut dx_a = vec![0.0; batch * k];
        gemm_backward(&x, &dy, batch, k, n, &w, &mut dw_a, &mut db_a, &mut dx_a);

        let mut dw_b = vec![0.0; k * n];
        let mut db_b = vec![0.0; n];
        let mut dx_b = vec![0.0; batch * k];
        for r in 0..batch {
            gemm_backward(
                &x[r * k..(r + 1) * k],
                &dy[r * n..(r + 1) * n],
                1,
                k,
                n,
                &w,
                &mut dw_b,
                &mut db_b,
                &mut dx_b[r * k..(r + 1) * k],
            );
        }
        assert_eq!(dw_a, dw_b);
        assert_eq!(db_a, db_b);
        assert_eq!(dx_a, dx_b);
    }

    #[test]
    fn dx_matches_finite_difference() {
        let (k, n) = (3, 2);
        let x = [0.3, -0.7, 1.1];
        let dy = [1.0, -2.0];
        let w: Vec<f64> = (0..k * n).map(|i| (i as f64 * 0.31).sin()).collect();
        let mut dw = vec![0.0; k * n];
        let mut db = vec![0.0; n];
        let mut dx = vec![0.0; k];
        gemm_backward(&x, &dy, 1, k, n, &w, &mut dw, &mut db, &mut dx);
        let loss = |x: &[f64]| -> f64 {
            let mut y = vec![0.0; n];
            gemm_bias(x, 1, k, &w, &[0.0; 2], n, &mut y);
            y[0] * dy[0] + y[1] * dy[1]
        };
        let eps = 1e-6;
        for i in 0..k {
            let mut xp = x;
            xp[i] += eps;
            let num = (loss(&xp) - loss(&x)) / eps;
            assert!((num - dx[i]).abs() < 1e-5, "dx[{i}]: {num} vs {}", dx[i]);
        }
    }
}
