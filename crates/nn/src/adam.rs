//! The Adam optimiser (Kingma & Ba, 2015).
//!
//! The element update is division/sqrt-bound, and the RNN takes one
//! full-parameter Adam step per example — profiling showed
//! the scalar loop dominating next-op training. [`Adam::update`] therefore
//! dispatches to an explicitly vectorised x86-64 kernel (4-wide AVX when
//! the CPU has it, guaranteed-baseline 2-wide SSE2 otherwise). IEEE-754
//! requires `div` and `sqrt` to be exactly rounded, and the vector kernels
//! evaluate every expression with the same association order as the scalar
//! loop, so the result is **bit-identical** lane-for-lane — goldens and
//! determinism tests see no difference, the wall clock does.
//!
//! SIMD alone is not enough, though: the dominant cost of per-example
//! training turned out to be *subnormal* arithmetic, not throughput. Most
//! parameters see an exactly-zero gradient on any given step (inactive
//! embedding rows; empty-prefix examples contribute nothing to the
//! recurrent weights), so their first moments decay `×beta1` per step into
//! the subnormal range — and stay there forever, because `fl(0.9·m)` has
//! fixed points at the smallest denormals. Each such element then triggers
//! several ~hundred-cycle microcode assists per step for the rest of
//! training. The [`FastGate`] lane below proves, per element, that the
//! update leaves the parameter bit-unchanged and computes the moment decay
//! exactly in integer arithmetic, issuing no denormal FP ops at all.

use serde::{Deserialize, Serialize};

/// Adam state over a fixed set of parameter tensors, addressed by slot.
///
/// Usage per step: call [`Adam::begin_step`] once, then [`Adam::update`]
/// for each (parameter, gradient) pair using a stable slot id.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    pub lr: f64,
    pub beta1: f64,
    pub beta2: f64,
    pub eps: f64,
    t: u64,
    m: Vec<Vec<f64>>,
    v: Vec<Vec<f64>>,
}

impl Adam {
    /// `sizes[i]` is the element count of the tensor registered at slot `i`.
    pub fn new(lr: f64, sizes: &[usize]) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: sizes.iter().map(|&s| vec![0.0; s]).collect(),
            v: sizes.iter().map(|&s| vec![0.0; s]).collect(),
        }
    }

    /// Advance the global step (bias-correction counter).
    pub fn begin_step(&mut self) {
        self.t += 1;
    }

    /// Apply one Adam update to the tensor registered at `slot`.
    pub fn update(&mut self, slot: usize, param: &mut [f64], grad: &[f64]) {
        assert!(self.t > 0, "call begin_step before update");
        assert_eq!(param.len(), grad.len());
        let m = &mut self.m[slot];
        let v = &mut self.v[slot];
        assert_eq!(m.len(), param.len(), "slot {slot} size mismatch");
        let k = Kernel {
            beta1: self.beta1,
            beta2: self.beta2,
            lr: self.lr,
            eps: self.eps,
            b1t: 1.0 - self.beta1.powi(self.t as i32),
            b2t: 1.0 - self.beta2.powi(self.t as i32),
        };
        update_elements(&k, param, grad, m, v);
    }
}

/// Per-step constants of the element update.
#[derive(Clone, Copy)]
struct Kernel {
    beta1: f64,
    beta2: f64,
    lr: f64,
    eps: f64,
    /// `1 - beta1^t` (first-moment bias correction).
    b1t: f64,
    /// `1 - beta2^t` (second-moment bias correction).
    b2t: f64,
}

/// The reference element loop. Every vector kernel below reproduces this
/// expression tree exactly: `(1-b2)*g*g` associates left-to-right, `lr *
/// mhat / (sqrt + eps)` multiplies before dividing.
fn update_scalar(k: &Kernel, param: &mut [f64], grad: &[f64], m: &mut [f64], v: &mut [f64]) {
    for i in 0..param.len() {
        m[i] = k.beta1 * m[i] + (1.0 - k.beta1) * grad[i];
        v[i] = k.beta2 * v[i] + (1.0 - k.beta2) * grad[i] * grad[i];
        let mhat = m[i] / k.b1t;
        let vhat = v[i] / k.b2t;
        param[i] -= k.lr * mhat / (vhat.sqrt() + k.eps);
    }
}

const SIGN_BIT: u64 = 1 << 63;
const MANT_MASK: u64 = (1 << 52) - 1;

/// IEEE-754 binary64 exponent field (11 bits; 0 = subnormal/zero).
#[inline(always)]
fn exp_field(bits: u64) -> u64 {
    (bits >> 52) & 0x7ff
}

/// How one element is processed. `Slow` is the reference arithmetic
/// (scalar or SIMD); `Skip` and `Decay` are provably bit-identical
/// shortcuts that avoid denormal microcode assists.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Lane {
    /// Full reference update.
    Slow,
    /// `g = +0, m = +0, v = +0`: the whole update is a no-op. Every
    /// intermediate is `+0`, and `p - (+0)` preserves `p` (including `-0`).
    Skip,
    /// `g = +0`, `m` subnormal or `±0`, `v` zero or comfortably normal,
    /// `|p| ≥ 2^-300`: the step magnitude is below `2^-706`, far under half
    /// an ulp of `p`, so `p` is bit-unchanged; `m` decays via exact integer
    /// arithmetic and `v` via one cheap normal multiply.
    Decay,
}

/// Per-call constants for the zero-gradient fast lane, present only when
/// the hyper-parameters satisfy the bounds the bit-exactness proof needs:
/// `beta1, beta2` normal in `(0,1)`, `0 ≤ lr ≤ 64`, `eps ≥ 1e-15`, and both
/// bias corrections in `[2^-8, 1]`. (The defaults pass from `t = 1`.)
struct FastGate {
    /// 53-bit significand of `beta1`: `beta1 = mb · 2^(eb-52)`.
    mb: u64,
    /// `52 - eb`; ≥ 53 because `beta1 < 1`.
    shift: u32,
}

impl FastGate {
    fn admissible(k: &Kernel) -> Option<FastGate> {
        let unit = |x: f64| x > 0.0 && x < 1.0 && exp_field(x.to_bits()) != 0;
        let corr = |x: f64| (1.0 / 256.0..=1.0).contains(&x);
        if !unit(k.beta1) || !unit(k.beta2) {
            return None;
        }
        if !((0.0..=64.0).contains(&k.lr) && k.eps >= 1e-15 && k.eps.is_finite()) {
            return None;
        }
        if !corr(k.b1t) || !corr(k.b2t) {
            return None;
        }
        let bits = k.beta1.to_bits();
        let eb = (exp_field(bits) as i64) - 1023;
        Some(FastGate {
            mb: (bits & MANT_MASK) | (1 << 52),
            shift: (52 - eb) as u32,
        })
    }
}

/// Classify one element from raw bit patterns. Only exactly-`+0` gradients
/// are eligible — everything else takes the reference arithmetic.
#[inline(always)]
fn classify(g: u64, m: u64, v: u64, p: u64) -> Lane {
    if g != 0 {
        return Lane::Slow;
    }
    let pe = exp_field(p);
    if m == 0 && v == 0 {
        // Keep NaN/Inf params on the reference path out of caution.
        return if pe == 0x7ff { Lane::Slow } else { Lane::Skip };
    }
    if exp_field(m) != 0 {
        // A normal `m` decays through cheap normal arithmetic; no assist.
        return Lane::Slow;
    }
    // `v` must be `+0` or positive normal in `[2^-600, +inf)` so that
    // `sqrt(vhat) ≥ 2^-301` bounds the step, and `beta2·v` stays normal.
    let ve = exp_field(v);
    if !(v == 0 || (v & SIGN_BIT == 0 && (423..0x7ff).contains(&ve))) {
        return Lane::Slow;
    }
    // `|p| ≥ 2^-300` makes half an ulp of `p` at least `2^-354 ≫ 2^-706`.
    if (723..0x7ff).contains(&pe) {
        Lane::Decay
    } else {
        Lane::Slow
    }
}

/// Exact `fl(beta1 · m) + 0.0` for subnormal or zero `m`, in integer
/// arithmetic. Subnormals are `±k · 2^-1074` with `k < 2^52`, so the
/// correctly-rounded (half-even) product is `round(mb·k / 2^shift)` on the
/// same grid; the result stays subnormal because `beta1 < 1`. Adding the
/// `+0` term only normalises a `-0` product to `+0`.
#[inline(always)]
fn decay_bits(m: u64, fg: &FastGate) -> u64 {
    let k = m & MANT_MASK;
    if k == 0 || fg.shift >= 128 {
        // `beta1·(±0) + 0.0 = +0`; a shift ≥ 128 means the product is far
        // below half the smallest denormal and rounds to zero.
        return 0;
    }
    let prod = (fg.mb as u128) * (k as u128);
    let q = (prod >> fg.shift) as u64;
    let rem = prod & ((1u128 << fg.shift) - 1);
    let half = 1u128 << (fg.shift - 1);
    let kq = if rem > half || (rem == half && q & 1 == 1) { q + 1 } else { q };
    if kq == 0 {
        0
    } else {
        (m & SIGN_BIT) | kq
    }
}

/// One element through the classified lanes. Bit-identical to
/// [`update_scalar`] on the same element — the fast lanes only fire where
/// the shortcut is provably exact.
#[inline(always)]
fn apply_one(k: &Kernel, fg: &FastGate, p: &mut f64, g: f64, m: &mut f64, v: &mut f64) {
    match classify(g.to_bits(), m.to_bits(), v.to_bits(), p.to_bits()) {
        Lane::Skip => {}
        Lane::Decay => {
            *m = f64::from_bits(decay_bits(m.to_bits(), fg));
            if v.to_bits() != 0 {
                // `beta2·v + ((1-beta2)·0)·0` = `beta2·v` exactly: the
                // product is positive normal and `x + 0.0 = x` there.
                *v *= k.beta2;
            }
        }
        Lane::Slow => {
            let mn = k.beta1 * *m + (1.0 - k.beta1) * g;
            let vn = k.beta2 * *v + (1.0 - k.beta2) * g * g;
            *m = mn;
            *v = vn;
            let mhat = mn / k.b1t;
            let vhat = vn / k.b2t;
            *p -= k.lr * mhat / (vhat.sqrt() + k.eps);
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn update_elements(k: &Kernel, param: &mut [f64], grad: &[f64], m: &mut [f64], v: &mut [f64]) {
    match FastGate::admissible(k) {
        Some(fg) => {
            for i in 0..param.len() {
                apply_one(k, &fg, &mut param[i], grad[i], &mut m[i], &mut v[i]);
            }
        }
        None => update_scalar(k, param, grad, m, v),
    }
}

#[cfg(target_arch = "x86_64")]
fn update_elements(k: &Kernel, param: &mut [f64], grad: &[f64], m: &mut [f64], v: &mut [f64]) {
    let fg = FastGate::admissible(k);
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: AVX support was just verified at runtime.
        unsafe { update_avx(k, fg.as_ref(), param, grad, m, v) }
    } else {
        // SSE2 is part of the x86-64 baseline — no detection needed.
        unsafe { update_sse2(k, fg.as_ref(), param, grad, m, v) }
    }
}

/// 4-wide AVX element update. `vdivpd`/`vsqrtpd` are exactly rounded per
/// IEEE-754, and the operation order per lane matches [`update_scalar`],
/// so output bits are identical to the scalar loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn update_avx(
    k: &Kernel,
    fg: Option<&FastGate>,
    param: &mut [f64],
    grad: &[f64],
    m: &mut [f64],
    v: &mut [f64],
) {
    use std::arch::x86_64::*;
    let n = param.len();
    let head = n - n % 4;
    let b1 = _mm256_set1_pd(k.beta1);
    let c1 = _mm256_set1_pd(1.0 - k.beta1);
    let b2 = _mm256_set1_pd(k.beta2);
    let c2 = _mm256_set1_pd(1.0 - k.beta2);
    let b1t = _mm256_set1_pd(k.b1t);
    let b2t = _mm256_set1_pd(k.b2t);
    let lr = _mm256_set1_pd(k.lr);
    let eps = _mm256_set1_pd(k.eps);
    let mut i = 0;
    while i < head {
        // Any lane eligible for a fast shortcut demotes the block to the
        // per-element path; a SIMD pass over a denormal lane would stall
        // on assists, which is exactly what the shortcut exists to avoid.
        if let Some(fg) = fg {
            let fast = (0..4).any(|l| {
                classify(
                    grad[i + l].to_bits(),
                    m[i + l].to_bits(),
                    v[i + l].to_bits(),
                    param[i + l].to_bits(),
                ) != Lane::Slow
            });
            if fast {
                for l in 0..4 {
                    apply_one(k, fg, &mut param[i + l], grad[i + l], &mut m[i + l], &mut v[i + l]);
                }
                i += 4;
                continue;
            }
        }
        let g = _mm256_loadu_pd(grad.as_ptr().add(i));
        let mi = _mm256_loadu_pd(m.as_ptr().add(i));
        let vi = _mm256_loadu_pd(v.as_ptr().add(i));
        // m = b1*m + (1-b1)*g
        let mn = _mm256_add_pd(_mm256_mul_pd(b1, mi), _mm256_mul_pd(c1, g));
        // v = b2*v + ((1-b2)*g)*g  — left-to-right, as the scalar loop.
        let vn = _mm256_add_pd(_mm256_mul_pd(b2, vi), _mm256_mul_pd(_mm256_mul_pd(c2, g), g));
        _mm256_storeu_pd(m.as_mut_ptr().add(i), mn);
        _mm256_storeu_pd(v.as_mut_ptr().add(i), vn);
        let mhat = _mm256_div_pd(mn, b1t);
        let vhat = _mm256_div_pd(vn, b2t);
        let denom = _mm256_add_pd(_mm256_sqrt_pd(vhat), eps);
        let step = _mm256_div_pd(_mm256_mul_pd(lr, mhat), denom);
        let p = _mm256_loadu_pd(param.as_ptr().add(i));
        _mm256_storeu_pd(param.as_mut_ptr().add(i), _mm256_sub_pd(p, step));
        i += 4;
    }
    finish_tail(k, fg, param, grad, m, v, head);
}

/// 2-wide SSE2 element update (always available on x86-64); same exact
/// rounding and operation order as [`update_scalar`].
#[cfg(target_arch = "x86_64")]
unsafe fn update_sse2(
    k: &Kernel,
    fg: Option<&FastGate>,
    param: &mut [f64],
    grad: &[f64],
    m: &mut [f64],
    v: &mut [f64],
) {
    use std::arch::x86_64::*;
    let n = param.len();
    let head = n - n % 2;
    let b1 = _mm_set1_pd(k.beta1);
    let c1 = _mm_set1_pd(1.0 - k.beta1);
    let b2 = _mm_set1_pd(k.beta2);
    let c2 = _mm_set1_pd(1.0 - k.beta2);
    let b1t = _mm_set1_pd(k.b1t);
    let b2t = _mm_set1_pd(k.b2t);
    let lr = _mm_set1_pd(k.lr);
    let eps = _mm_set1_pd(k.eps);
    let mut i = 0;
    while i < head {
        if let Some(fg) = fg {
            let fast = (0..2).any(|l| {
                classify(
                    grad[i + l].to_bits(),
                    m[i + l].to_bits(),
                    v[i + l].to_bits(),
                    param[i + l].to_bits(),
                ) != Lane::Slow
            });
            if fast {
                for l in 0..2 {
                    apply_one(k, fg, &mut param[i + l], grad[i + l], &mut m[i + l], &mut v[i + l]);
                }
                i += 2;
                continue;
            }
        }
        let g = _mm_loadu_pd(grad.as_ptr().add(i));
        let mi = _mm_loadu_pd(m.as_ptr().add(i));
        let vi = _mm_loadu_pd(v.as_ptr().add(i));
        let mn = _mm_add_pd(_mm_mul_pd(b1, mi), _mm_mul_pd(c1, g));
        let vn = _mm_add_pd(_mm_mul_pd(b2, vi), _mm_mul_pd(_mm_mul_pd(c2, g), g));
        _mm_storeu_pd(m.as_mut_ptr().add(i), mn);
        _mm_storeu_pd(v.as_mut_ptr().add(i), vn);
        let mhat = _mm_div_pd(mn, b1t);
        let vhat = _mm_div_pd(vn, b2t);
        let denom = _mm_add_pd(_mm_sqrt_pd(vhat), eps);
        let step = _mm_div_pd(_mm_mul_pd(lr, mhat), denom);
        let p = _mm_loadu_pd(param.as_ptr().add(i));
        _mm_storeu_pd(param.as_mut_ptr().add(i), _mm_sub_pd(p, step));
        i += 2;
    }
    finish_tail(k, fg, param, grad, m, v, head);
}

/// Remainder elements after the vector head, through the classified lanes
/// when the gate is open so denormal tails stay assist-free too.
#[cfg(target_arch = "x86_64")]
fn finish_tail(
    k: &Kernel,
    fg: Option<&FastGate>,
    param: &mut [f64],
    grad: &[f64],
    m: &mut [f64],
    v: &mut [f64],
    head: usize,
) {
    match fg {
        Some(fg) => {
            for i in head..param.len() {
                apply_one(k, fg, &mut param[i], grad[i], &mut m[i], &mut v[i]);
            }
        }
        None => update_scalar(k, &mut param[head..], &grad[head..], &mut m[head..], &mut v[head..]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimises_a_quadratic() {
        // f(x) = (x - 3)^2, df/dx = 2(x - 3).
        let mut x = vec![0.0];
        let mut opt = Adam::new(0.1, &[1]);
        for _ in 0..500 {
            let g = vec![2.0 * (x[0] - 3.0)];
            opt.begin_step();
            opt.update(0, &mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 1e-3, "converged to {}", x[0]);
    }

    #[test]
    fn multiple_slots_are_independent() {
        let mut a = vec![0.0];
        let mut b = vec![10.0];
        let mut opt = Adam::new(0.05, &[1, 1]);
        for _ in 0..800 {
            opt.begin_step();
            let ga = vec![2.0 * (a[0] - 1.0)];
            opt.update(0, &mut a, &ga);
            let gb = vec![2.0 * (b[0] + 2.0)];
            opt.update(1, &mut b, &gb);
        }
        assert!((a[0] - 1.0).abs() < 1e-2);
        assert!((b[0] + 2.0).abs() < 1e-2);
    }

    #[test]
    #[should_panic(expected = "begin_step")]
    fn update_before_step_panics() {
        let mut opt = Adam::new(0.1, &[1]);
        let mut p = vec![0.0];
        opt.update(0, &mut p, &[1.0]);
    }

    /// The dispatched (possibly SIMD) kernel must be bit-identical to the
    /// scalar reference, including the non-multiple-of-lane-width tail.
    #[test]
    fn vector_kernel_matches_scalar_bit_for_bit() {
        for n in [1usize, 2, 3, 4, 7, 8, 33, 250] {
            let k = Kernel { beta1: 0.9, beta2: 0.999, lr: 3e-3, eps: 1e-8, b1t: 0.271, b2t: 0.0435 };
            // Deterministic, sign-varied inputs with nonzero moments.
            let grad: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37 - 1.1).sin()).collect();
            let mut p1: Vec<f64> = (0..n).map(|i| (i as f64) * 0.011 - 0.5).collect();
            let mut m1: Vec<f64> = (0..n).map(|i| (i as f64) * 0.003 - 0.1).collect();
            let mut v1: Vec<f64> = (0..n).map(|i| (i as f64) * 0.002 + 0.01).collect();
            let (mut p2, mut m2, mut v2) = (p1.clone(), m1.clone(), v1.clone());
            update_elements(&k, &mut p1, &grad, &mut m1, &mut v1);
            update_scalar(&k, &mut p2, &grad, &mut m2, &mut v2);
            for i in 0..n {
                assert_eq!(p1[i].to_bits(), p2[i].to_bits(), "param[{i}] of {n}");
                assert_eq!(m1[i].to_bits(), m2[i].to_bits(), "m[{i}] of {n}");
                assert_eq!(v1[i].to_bits(), v2[i].to_bits(), "v[{i}] of {n}");
            }
        }
    }

    /// The zero-gradient fast lane (`Skip`/`Decay`) must be bit-identical
    /// to the scalar reference on adversarial inputs: subnormal moments at
    /// every rounding boundary (including half-even ties), signed zeros,
    /// tiny/huge `v`, sub-threshold params, and mixed fast/slow blocks.
    #[test]
    fn zero_grad_fast_lane_matches_scalar_bit_for_bit() {
        // beta1 = 0.5 makes every odd subnormal mantissa a rounding tie,
        // exercising ties-to-even; 0.9 is the production decay.
        for beta1 in [0.9f64, 0.5, 0.875, 0.9999] {
            let min_sub = f64::from_bits(1);
            let m_seed: Vec<f64> = vec![
                min_sub,
                -min_sub,
                f64::from_bits(2),
                f64::from_bits(3),
                f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal
                -f64::from_bits(0x0000_0000_0000_0101),
                0.0,
                -0.0,
                f64::from_bits(0x0010_0000_0000_0000), // smallest normal
                2.0e-308,                              // decays into subnormal range
                1.0e-3,
                0.0,
            ];
            let n = m_seed.len();
            // Lane-varied companions: v spans zero, subnormal (slow lane),
            // tiny-normal below the 2^-600 gate, and plain values; p spans
            // normal, sub-threshold tiny, zero, and negative zero.
            let v_seed: Vec<f64> = (0..n)
                .map(|i| match i % 4 {
                    0 => 0.0,
                    1 => f64::from_bits(5),
                    2 => 1.0e-200,
                    _ => 3.7e-5,
                })
                .collect();
            let p_seed: Vec<f64> = (0..n)
                .map(|i| match i % 5 {
                    0 => 0.25,
                    1 => -1.5e-3,
                    2 => 1.0e-250,
                    3 => 0.0,
                    _ => -0.0,
                })
                .collect();
            // Gradient schedule: mostly exact zero, with periodic nonzero
            // bursts so lanes migrate between fast and slow over time.
            let mut p1 = p_seed.clone();
            let mut m1 = m_seed.clone();
            let mut v1 = v_seed.clone();
            let (mut p2, mut m2, mut v2) = (p1.clone(), m1.clone(), v1.clone());
            for t in 1..=200u64 {
                let grad: Vec<f64> = (0..n)
                    .map(|i| if t % 37 == 0 && i % 3 == 0 { 1.0e-3 } else { 0.0 })
                    .collect();
                let k = Kernel {
                    beta1,
                    beta2: 0.999,
                    lr: 5e-3,
                    eps: 1e-8,
                    b1t: 1.0 - beta1.powi(t as i32),
                    b2t: 1.0 - 0.999f64.powi(t as i32),
                };
                update_elements(&k, &mut p1, &grad, &mut m1, &mut v1);
                update_scalar(&k, &mut p2, &grad, &mut m2, &mut v2);
                for i in 0..n {
                    assert_eq!(
                        p1[i].to_bits(),
                        p2[i].to_bits(),
                        "param[{i}] diverged at t={t}, beta1={beta1}"
                    );
                    assert_eq!(
                        m1[i].to_bits(),
                        m2[i].to_bits(),
                        "m[{i}] diverged at t={t}, beta1={beta1}"
                    );
                    assert_eq!(
                        v1[i].to_bits(),
                        v2[i].to_bits(),
                        "v[{i}] diverged at t={t}, beta1={beta1}"
                    );
                }
            }
        }
    }

    /// Long pure-decay runs: every subnormal first moment must follow the
    /// hardware rounding trajectory exactly (including the min-denormal
    /// fixed point of `×0.9`) while gradients stay zero.
    #[test]
    fn subnormal_decay_trajectory_is_exact() {
        let n = 64;
        let mut m1: Vec<f64> = (0..n)
            .map(|i| {
                let bits = 1u64 + (i as u64) * 0x0000_1357_9bdf_0135 % 0x000f_ffff_ffff_ffff;
                if i % 2 == 0 { f64::from_bits(bits) } else { -f64::from_bits(bits) }
            })
            .collect();
        let mut p1 = vec![0.1f64; n];
        let mut v1 = vec![1.0e-12f64; n];
        let (mut p2, mut m2, mut v2) = (p1.clone(), m1.clone(), v1.clone());
        let grad = vec![0.0f64; n];
        for t in 1..=500u64 {
            let k = Kernel {
                beta1: 0.9,
                beta2: 0.999,
                lr: 5e-3,
                eps: 1e-8,
                b1t: 1.0 - 0.9f64.powi(t as i32),
                b2t: 1.0 - 0.999f64.powi(t as i32),
            };
            update_elements(&k, &mut p1, &grad, &mut m1, &mut v1);
            update_scalar(&k, &mut p2, &grad, &mut m2, &mut v2);
        }
        for i in 0..n {
            assert_eq!(m1[i].to_bits(), m2[i].to_bits(), "m[{i}]");
            assert_eq!(v1[i].to_bits(), v2[i].to_bits(), "v[{i}]");
            assert_eq!(p1[i].to_bits(), p2[i].to_bits(), "param[{i}]");
        }
        // The production decay really does pin the smallest denormals.
        assert_eq!(m1[0], f64::from_bits(1), "min-denormal fixed point");
    }
}
