//! The Adam optimiser (Kingma & Ba, 2015).
//!
//! The element update is division/sqrt-bound, and the RNN takes one
//! full-parameter Adam step per example over its whole parameter arena —
//! profiling showed the scalar loop dominating next-op training.
//! [`Adam::step`] runs one of two kernels, picked once per process by CPU
//! feature detection: the 8-wide AVX-512 (with IFMA) kernel where the CPU
//! has it, else the portable classified loop. IEEE-754 requires `div` and
//! `sqrt` to be exactly rounded, and the vector kernel evaluates every
//! expression with the same association order as the scalar loop, so the
//! result is **bit-identical** lane-for-lane — goldens and determinism
//! tests see no difference, the wall clock does.
//!
//! SIMD alone is not enough, though: the dominant cost of per-example
//! training turned out to be *subnormal* arithmetic, not throughput. Most
//! parameters see an exactly-zero gradient on any given step (inactive
//! embedding rows; empty-prefix examples contribute nothing to the
//! recurrent weights), so their first moments decay `×beta1` per step into
//! the subnormal range — and stay there forever, because `fl(0.9·m)` has
//! fixed points at the smallest denormals. Each such element then triggers
//! several ~hundred-cycle microcode assists per step for the rest of
//! training. The `FastGate` lane below proves, per element, that the
//! update leaves the parameter bit-unchanged and computes the moment decay
//! exactly in integer arithmetic, issuing no denormal FP ops at all. The
//! AVX-512 kernel sorts each block's lanes into `Skip`, `Decay` and `Slow`
//! with mask compares and decays its `Decay` lanes in vector integer
//! arithmetic (IFMA), so no lane falls back to per-element code; the
//! portable loop sends every element through `apply_one`.

/// Adam state over one flat parameter arena: the first and second moments
/// share the arena's layout, and each [`Adam::step`] updates every
/// element in one pass.
#[derive(Debug, Clone)]
pub struct Adam {
    pub lr: f64,
    pub beta1: f64,
    pub beta2: f64,
    pub eps: f64,
    t: u64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    /// Optimiser state for an arena of `len` parameters.
    pub fn new(lr: f64, len: usize) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: vec![0.0; len], v: vec![0.0; len] }
    }

    /// Advance the bias-correction counter and apply one Adam update to
    /// every element of `params`.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), self.m.len(), "arena size mismatch");
        assert_eq!(grads.len(), params.len(), "gradient size mismatch");
        self.t += 1;
        let k = Kernel {
            beta1: self.beta1,
            beta2: self.beta2,
            lr: self.lr,
            eps: self.eps,
            b1t: 1.0 - self.beta1.powi(self.t as i32),
            b2t: 1.0 - self.beta2.powi(self.t as i32),
        };
        update_elements(&k, params, grads, &mut self.m, &mut self.v);
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

/// The reference element loop. The vector kernel below reproduces this
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
#[derive(Clone, Copy)]
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
/// `beta1, beta2` normal in `(0,1)`, `beta1 ≥ 2^-51`, `0 ≤ lr ≤ 64`,
/// `eps ≥ 1e-15`, and both bias corrections in `[2^-8, 1]`. (The defaults
/// pass from `t = 1`.) The `beta1` floor keeps `shift - 52` in `1..=51`,
/// the range of [`decay8`]'s IFMA split; a smaller `beta1` sends every
/// lane to the reference update.
struct FastGate {
    /// 53-bit significand of `beta1`: `beta1 = mb · 2^(eb-52)`.
    mb: u64,
    /// `52 - eb`, in `53..=103`.
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
        let shift = 52 - ((exp_field(bits) as i64) - 1023);
        if !(53..=103).contains(&shift) {
            return None;
        }
        Some(FastGate { mb: (bits & MANT_MASK) | (1 << 52), shift: shift as u32 })
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
    if k == 0 {
        // `beta1·(±0) + 0.0 = +0`.
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

/// The element kernels, best first. [`update_elements`] runs the first one
/// the CPU supports; the lane tests hold every supported one to
/// [`update_scalar`]. No setting picks a kernel: both produce the same
/// bits, so only speed depends on the choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Isa {
    /// 8-wide AVX-512F + IFMA: lanes classified by mask compares, the
    /// decay lane in vector integer arithmetic, masked tails.
    Avx512,
    /// The classified element loop without SIMD, for every other CPU.
    Portable,
}

const ISAS: [Isa; 2] = [Isa::Avx512, Isa::Portable];

impl Isa {
    fn supported(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            match self {
                Isa::Avx512 => {
                    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma")
                }
                Isa::Portable => true,
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == Isa::Portable
        }
    }

    /// The best kernel this CPU supports, detected once per process.
    fn best() -> Isa {
        static BEST: std::sync::OnceLock<Isa> = std::sync::OnceLock::new();
        *BEST.get_or_init(|| ISAS.into_iter().find(|isa| isa.supported()).unwrap_or(Isa::Portable))
    }

    /// # Safety
    /// `self.supported()` must hold.
    unsafe fn run(self, k: &Kernel, param: &mut [f64], grad: &[f64], m: &mut [f64], v: &mut [f64]) {
        assert!(grad.len() == param.len() && m.len() == param.len() && v.len() == param.len());
        let fg = FastGate::admissible(k);
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => update_avx512(k, fg.as_ref(), param, grad, m, v),
            Isa::Portable => update_portable(k, fg.as_ref(), param, grad, m, v),
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("{self:?} is x86-64 only"),
        }
    }
}

fn update_elements(k: &Kernel, param: &mut [f64], grad: &[f64], m: &mut [f64], v: &mut [f64]) {
    // SAFETY: `best` returns only a kernel the CPU supports.
    unsafe { Isa::best().run(k, param, grad, m, v) }
}

/// The classified element loop: every element through [`apply_one`] when
/// the fast lanes are admissible, the reference loop otherwise.
fn update_portable(
    k: &Kernel,
    fg: Option<&FastGate>,
    param: &mut [f64],
    grad: &[f64],
    m: &mut [f64],
    v: &mut [f64],
) {
    match fg {
        Some(fg) => {
            for i in 0..param.len() {
                apply_one(k, fg, &mut param[i], grad[i], &mut m[i], &mut v[i]);
            }
        }
        None => update_scalar(k, param, grad, m, v),
    }
}

/// 8-wide AVX-512 element update. Each block of 8 lanes is loaded once
/// (a masked load covers the tail, whose missing lanes read as `+0` and
/// classify as `Skip`) and classified by [`classify8`]:
///
/// - `Slow` lanes run the reference expression tree of [`update_scalar`],
///   with every other lane's inputs zeroed first so a subnormal there
///   cannot cost a microcode assist, and are stored under their mask;
/// - `Decay` lanes decay `m` through [`decay8`] (integer lanes only) and
///   multiply `v` by `beta2`;
/// - `Skip` lanes are not written.
///
/// Lanes are independent and follow the scalar rounding exactly, so the
/// output bits equal [`update_scalar`]'s.
///
/// # Safety
/// The CPU must support AVX-512F and IFMA, and `grad`, `m` and `v` must
/// be as long as `param` (the kernel reads and writes `param.len()` lanes
/// of each).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512ifma")]
unsafe fn update_avx512(
    k: &Kernel,
    fg: Option<&FastGate>,
    param: &mut [f64],
    grad: &[f64],
    m: &mut [f64],
    v: &mut [f64],
) {
    use std::arch::x86_64::*;
    let n = param.len();
    let b1 = _mm512_set1_pd(k.beta1);
    let c1 = _mm512_set1_pd(1.0 - k.beta1);
    let b2 = _mm512_set1_pd(k.beta2);
    let c2 = _mm512_set1_pd(1.0 - k.beta2);
    let b1t = _mm512_set1_pd(k.b1t);
    let b2t = _mm512_set1_pd(k.b2t);
    let lr = _mm512_set1_pd(k.lr);
    let eps = _mm512_set1_pd(k.eps);
    let mut i = 0;
    while i < n {
        let live: __mmask8 = if n - i >= 8 { 0xff } else { (1u8 << (n - i)) - 1 };
        let (pp, gp) = (param.as_mut_ptr().add(i), grad.as_ptr().add(i));
        let (mp, vp) = (m.as_mut_ptr().add(i), v.as_mut_ptr().add(i));
        let g = _mm512_maskz_loadu_pd(live, gp);
        let mi = _mm512_maskz_loadu_pd(live, mp);
        let vi = _mm512_maskz_loadu_pd(live, vp);
        let p = _mm512_maskz_loadu_pd(live, pp);
        let (skip, decay) = match fg {
            Some(_) => classify8(
                _mm512_castpd_si512(g),
                _mm512_castpd_si512(mi),
                _mm512_castpd_si512(vi),
                _mm512_castpd_si512(p),
            ),
            None => (0, 0),
        };
        let slow = live & !(skip | decay);
        if slow != 0 {
            let g = _mm512_maskz_mov_pd(slow, g);
            let mi = _mm512_maskz_mov_pd(slow, mi);
            let vi = _mm512_maskz_mov_pd(slow, vi);
            let p = _mm512_maskz_mov_pd(slow, p);
            // m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
            let mn = _mm512_add_pd(_mm512_mul_pd(b1, mi), _mm512_mul_pd(c1, g));
            let vn = _mm512_add_pd(_mm512_mul_pd(b2, vi), _mm512_mul_pd(_mm512_mul_pd(c2, g), g));
            let mhat = _mm512_div_pd(mn, b1t);
            let vhat = _mm512_div_pd(vn, b2t);
            let denom = _mm512_add_pd(_mm512_sqrt_pd(vhat), eps);
            let step = _mm512_div_pd(_mm512_mul_pd(lr, mhat), denom);
            _mm512_mask_storeu_pd(mp, slow, mn);
            _mm512_mask_storeu_pd(vp, slow, vn);
            _mm512_mask_storeu_pd(pp, slow, _mm512_sub_pd(p, step));
        }
        if decay != 0 {
            let fg = fg.expect("decay lanes need the gate");
            let md = decay8(_mm512_castpd_si512(mi), fg);
            _mm512_mask_storeu_pd(mp, decay, _mm512_castsi512_pd(md));
            // `v` is `+0` or positive normal here, so `beta2·v` is exact
            // to the reference `beta2·v + ((1-beta2)·0)·0`.
            _mm512_mask_storeu_pd(vp, decay, _mm512_mul_pd(_mm512_maskz_mov_pd(decay, vi), b2));
        }
        i += 8;
    }
}

/// [`classify`] for 8 lanes of raw bit patterns: the `(Skip, Decay)` lane
/// masks; every other lane is `Slow`. The same bit tests, as mask
/// compares: `v`'s sign-and-exponent range and `|p|`'s exponent range are
/// each one signed 64-bit range compare on the bit pattern.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn classify8(
    g: std::arch::x86_64::__m512i,
    m: std::arch::x86_64::__m512i,
    v: std::arch::x86_64::__m512i,
    p: std::arch::x86_64::__m512i,
) -> (u8, u8) {
    use std::arch::x86_64::*;
    let zero = _mm512_setzero_si512();
    let exp_all = _mm512_set1_epi64(0x7ff << 52);
    let g0 = _mm512_cmpeq_epi64_mask(g, zero);
    let m0 = _mm512_cmpeq_epi64_mask(m, zero);
    let v0 = _mm512_cmpeq_epi64_mask(v, zero);
    let p_abs = _mm512_and_si512(p, _mm512_set1_epi64(!SIGN_BIT as i64));
    let p_finite = _mm512_cmplt_epi64_mask(p_abs, exp_all);
    let skip = g0 & m0 & v0 & p_finite;
    let m_sub = _mm512_testn_epi64_mask(m, exp_all);
    let v_normal = _mm512_cmpge_epi64_mask(v, _mm512_set1_epi64(423 << 52))
        & _mm512_cmplt_epi64_mask(v, exp_all);
    let p_large = _mm512_cmpge_epi64_mask(p_abs, _mm512_set1_epi64(723 << 52)) & p_finite;
    let decay = g0 & !(m0 & v0) & m_sub & (v0 | v_normal) & p_large;
    (skip, decay)
}

/// [`decay_bits`] for 8 lanes in integer arithmetic, with
/// `s = shift - 52` in `1..=51` (the gate's range). With `mb = 2^52 + mbl` and the
/// 104-bit product `mbl·k = hi·2^52 + lo` (IFMA's `vpmadd52huq` /
/// `vpmadd52luq`), `mb·k = h·2^52 + lo` where `h = k + hi < 2^53`.
/// Dividing by `2^shift = 2^(s+52)`: the quotient is `h >> s` and the
/// remainder is `(h mod 2^s)·2^52 + lo`, which is above, at or below half
/// (`2^(s-1)·2^52`) exactly as `h mod 2^s` compares with `2^(s-1)`, a tie
/// only when also `lo = 0`. Ties round to even; a nonzero result keeps
/// `m`'s sign and zero is `+0`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512ifma")]
fn decay8(m: std::arch::x86_64::__m512i, fg: &FastGate) -> std::arch::x86_64::__m512i {
    use std::arch::x86_64::*;
    let s = (fg.shift - 52) as u64;
    let zero = _mm512_setzero_si512();
    let one = _mm512_set1_epi64(1);
    let kk = _mm512_and_si512(m, _mm512_set1_epi64(MANT_MASK as i64));
    let mbl = _mm512_set1_epi64((fg.mb & MANT_MASK) as i64);
    let lo = _mm512_madd52lo_epu64(zero, mbl, kk);
    let h = _mm512_madd52hi_epu64(kk, mbl, kk);
    let q = _mm512_srlv_epi64(h, _mm512_set1_epi64(s as i64));
    let hr = _mm512_and_si512(h, _mm512_set1_epi64(((1u64 << s) - 1) as i64));
    let half = _mm512_set1_epi64((1u64 << (s - 1)) as i64);
    let above = _mm512_cmpgt_epu64_mask(hr, half);
    let at = _mm512_cmpeq_epi64_mask(hr, half);
    let lo_nz = _mm512_test_epi64_mask(lo, lo);
    let odd = _mm512_test_epi64_mask(q, one);
    let kq = _mm512_mask_add_epi64(q, above | (at & (lo_nz | odd)), q, one);
    let nonzero = _mm512_test_epi64_mask(kq, kq);
    _mm512_maskz_or_epi64(nonzero, kq, _mm512_and_si512(m, _mm512_set1_epi64(SIGN_BIT as i64)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimises_a_quadratic() {
        // f(x) = (x - 3)^2, df/dx = 2(x - 3).
        let mut x = vec![0.0];
        let mut opt = Adam::new(0.1, 1);
        for _ in 0..500 {
            let g = vec![2.0 * (x[0] - 3.0)];
            opt.step(&mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 1e-3, "converged to {}", x[0]);
    }

    #[test]
    fn arena_elements_are_independent() {
        let mut x = vec![0.0, 10.0];
        let mut opt = Adam::new(0.05, 2);
        for _ in 0..800 {
            let g = vec![2.0 * (x[0] - 1.0), 2.0 * (x[1] + 2.0)];
            opt.step(&mut x, &g);
        }
        assert!((x[0] - 1.0).abs() < 1e-2);
        assert!((x[1] + 2.0).abs() < 1e-2);
    }

    #[test]
    #[should_panic(expected = "arena size mismatch")]
    fn step_on_another_arena_panics() {
        let mut opt = Adam::new(0.1, 2);
        opt.step(&mut [0.0], &[1.0]);
    }

    /// Every kernel this CPU supports, best first; the portable loop
    /// always runs. A kernel the host lacks is reported (`cargo test --
    /// --nocapture` shows it), so a pass says which kernels it covered:
    /// the AVX-512 kernel runs only on AVX-512F+IFMA hosts.
    fn kernels() -> Vec<Isa> {
        let (isas, missing): (Vec<Isa>, Vec<Isa>) = ISAS.into_iter().partition(|isa| isa.supported());
        assert_eq!(isas[0], Isa::best());
        if !missing.is_empty() {
            eprintln!("adam lane tests: kernels {isas:?} run; {missing:?} not supported on this CPU");
        }
        isas
    }

    fn run(isa: Isa, k: &Kernel, p: &mut [f64], g: &[f64], m: &mut [f64], v: &mut [f64]) {
        // SAFETY: `kernels` lists only supported kernels.
        unsafe { isa.run(k, p, g, m, v) }
    }

    /// Every kernel must be bit-identical to the scalar reference,
    /// including the non-multiple-of-lane-width tail, early in training
    /// and once either bias correction has rounded to exactly 1.
    #[test]
    fn vector_kernel_matches_scalar_bit_for_bit() {
        let sizes = [1usize, 2, 3, 4, 7, 8, 9, 15, 33, 250];
        let corrections = [(0.271, 0.0435), (1.0, 0.0435), (1.0, 1.0)];
        let cases = kernels().into_iter().flat_map(|isa| sizes.map(|n| (isa, n)));
        for ((isa, n), (b1t, b2t)) in cases.flat_map(|c| corrections.map(|b| (c, b))) {
            let k = Kernel { beta1: 0.9, beta2: 0.999, lr: 3e-3, eps: 1e-8, b1t, b2t };
            // Deterministic, sign-varied inputs with nonzero moments.
            let grad: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37 - 1.1).sin()).collect();
            let mut p1: Vec<f64> = (0..n).map(|i| (i as f64) * 0.011 - 0.5).collect();
            let mut m1: Vec<f64> = (0..n).map(|i| (i as f64) * 0.003 - 0.1).collect();
            let mut v1: Vec<f64> = (0..n).map(|i| (i as f64) * 0.002 + 0.01).collect();
            let (mut p2, mut m2, mut v2) = (p1.clone(), m1.clone(), v1.clone());
            run(isa, &k, &mut p1, &grad, &mut m1, &mut v1);
            update_scalar(&k, &mut p2, &grad, &mut m2, &mut v2);
            for i in 0..n {
                let at = format!("{isa:?}: [{i}] of {n}, b1t={b1t}, b2t={b2t}");
                assert_eq!(p1[i].to_bits(), p2[i].to_bits(), "param{at}");
                assert_eq!(m1[i].to_bits(), m2[i].to_bits(), "m{at}");
                assert_eq!(v1[i].to_bits(), v2[i].to_bits(), "v{at}");
            }
        }
    }

    /// `beta1` values of the lane tests. 0.9 is the production decay; 0.5
    /// makes every odd subnormal mantissa a rounding tie (ties-to-even);
    /// 0.01 and `1.5·2^-51` put the IFMA decay's `shift - 52` at 7 and at
    /// its upper edge 51; 1e-20 is past it, so the gate is not admissible
    /// and every lane takes the reference update.
    const BETA1S: [f64; 7] = [0.9, 0.5, 0.875, 0.9999, 0.01, 1.5 / (1u64 << 51) as f64, 1e-20];

    /// The zero-gradient fast lane (`Skip`/`Decay`) must be bit-identical
    /// to the scalar reference on adversarial inputs: subnormal moments at
    /// every rounding boundary (including half-even ties), signed zeros,
    /// tiny/huge `v`, sub-threshold params, and mixed fast/slow blocks.
    #[test]
    fn zero_grad_fast_lane_matches_scalar_bit_for_bit() {
        for (isa, beta1) in kernels().into_iter().flat_map(|isa| BETA1S.map(|b| (isa, b))) {
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
                run(isa, &k, &mut p1, &grad, &mut m1, &mut v1);
                update_scalar(&k, &mut p2, &grad, &mut m2, &mut v2);
                for i in 0..n {
                    let at = format!("{isa:?}: [{i}] diverged at t={t}, beta1={beta1}");
                    assert_eq!(p1[i].to_bits(), p2[i].to_bits(), "param{at}");
                    assert_eq!(m1[i].to_bits(), m2[i].to_bits(), "m{at}");
                    assert_eq!(v1[i].to_bits(), v2[i].to_bits(), "v{at}");
                }
            }
        }
    }

    /// Long pure-decay runs: every subnormal first moment must follow the
    /// hardware rounding trajectory exactly (including the min-denormal
    /// fixed point of `×0.9`) while gradients stay zero.
    #[test]
    fn subnormal_decay_trajectory_is_exact() {
        for isa in kernels() {
            decay_trajectory_is_exact(isa);
        }
    }

    fn decay_trajectory_is_exact(isa: Isa) {
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
            run(isa, &k, &mut p1, &grad, &mut m1, &mut v1);
            update_scalar(&k, &mut p2, &grad, &mut m2, &mut v2);
        }
        for i in 0..n {
            assert_eq!(m1[i].to_bits(), m2[i].to_bits(), "{isa:?}: m[{i}]");
            assert_eq!(v1[i].to_bits(), v2[i].to_bits(), "{isa:?}: v[{i}]");
            assert_eq!(p1[i].to_bits(), p2[i].to_bits(), "{isa:?}: param[{i}]");
        }
        // The production decay really does pin the smallest denormals.
        assert_eq!(m1[0], f64::from_bits(1), "min-denormal fixed point");
    }

    /// The vector decay equals [`decay_bits`] lane for lane: every
    /// mantissa `k < 2^16` and 100k seeded random `k < 2^52`, both signs,
    /// for every `beta1` of the lane tests the gate admits (all but 1e-20,
    /// which is below the IFMA split's range). Needs AVX-512F+IFMA; on
    /// other hosts it checks only the gate and reports the skip.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vector_decay_matches_decay_bits() {
        use rand::{Rng, SeedableRng};
        let gates: Vec<(f64, FastGate)> = BETA1S
            .into_iter()
            .filter_map(|beta1| {
                let k = Kernel { beta1, beta2: 0.999, lr: 5e-3, eps: 1e-8, b1t: 0.5, b2t: 0.5 };
                let fg = FastGate::admissible(&k);
                assert_eq!(fg.is_none(), beta1 == 1e-20, "gate for beta1={beta1}");
                fg.map(|fg| (beta1, fg))
            })
            .collect();
        if !Isa::Avx512.supported() {
            eprintln!("vector_decay_matches_decay_bits: no AVX-512F+IFMA on this CPU, decay8 not run");
            return;
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let random: Vec<u64> = (0..100_000).map(|_| rng.random_range(0..1u64 << 52)).collect();
        for (beta1, fg) in &gates {
            let ks = (0..1u64 << 16).chain(random.iter().copied());
            let bits: Vec<u64> = ks.flat_map(|k| [k, k | SIGN_BIT]).collect();
            for chunk in bits.chunks_exact(8) {
                let lanes: [u64; 8] = chunk.try_into().unwrap();
                // SAFETY: AVX-512F and IFMA support was checked above.
                let got = unsafe { decay8_lanes(lanes, fg) };
                for (l, &m) in lanes.iter().enumerate() {
                    assert_eq!(got[l], decay_bits(m, fg), "beta1={beta1}, m bits {m:#x}");
                }
            }
        }
    }

    /// # Safety
    /// The CPU must support AVX-512F and IFMA.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512ifma")]
    unsafe fn decay8_lanes(lanes: [u64; 8], fg: &FastGate) -> [u64; 8] {
        use std::arch::x86_64::*;
        let mut out = [0u64; 8];
        let m = _mm512_loadu_si512(lanes.as_ptr().cast());
        _mm512_storeu_si512(out.as_mut_ptr().cast(), decay8(m, fg));
        out
    }
}
