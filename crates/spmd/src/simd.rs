//! # SIMD execution tier for fused kernel shapes (DESIGN.md §14)
//!
//! The fused shapes of [`crate::kernel::FusedShape`] collapse a whole
//! Table I clause body into one of three recognized per-element forms
//! (copy, `a*x + b`, small stencil).  This module supplies the *lane*
//! versions of those forms: fixed-width chunk loops over unit-stride
//! `f64` slices, written so stable rustc reliably autovectorizes them,
//! plus an optional hand-written AVX2 path behind runtime feature
//! detection.
//!
//! ## Bit-exactness contract
//!
//! Lane parallelism never re-associates any per-element computation:
//! every output element is produced by exactly the operation sequence
//! the scalar interpreter would perform (`load; [*a]; [+b]; store` for
//! Axpy, `(x0+x1)+x2` or `x0+(x1+x2)` for stencils depending on the
//! source tree, then `[*scale]; [+offset]`).  The AVX2 path uses only
//! `loadu`/`mul`/`add`/`storeu` — **never** fused multiply-add, which
//! would change results in the last bit.  Consequently SIMD output is
//! bitwise identical to the chunked bytecode, which is itself checked
//! bitwise against `eval_expr` (see `tests/kernel_equivalence.rs`).
//!
//! ## Policy semantics
//!
//! * [`SimdMode::Off`] — machines run every unguarded entry through the
//!   chunked bytecode (`CompiledKernel::eval_run`), no lane kernel.
//! * [`SimdMode::On`] — portable chunk loops at the configured lane
//!   width; no `std::arch` is used even when available.
//! * [`SimdMode::Auto`] — like `On`, but the AVX2 intrinsic path is
//!   selected when the CPU reports the feature at run time.

/// How the machines should use the SIMD tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdMode {
    /// Use lane kernels; pick AVX2 intrinsics when the CPU supports them.
    #[default]
    Auto,
    /// Use the portable chunk-loop lane kernels only (no `std::arch`).
    On,
    /// No lane kernels: every unguarded entry runs the chunked bytecode.
    Off,
}

/// SIMD policy threaded through `DistOptions`, both distributed
/// machines, doacross, and the steady-state executor.
///
/// `lanes` is a *request*; [`SimdPolicy::effective_lanes`] clamps it to
/// a supported chunk width (4, 8 or 16 `f64` lanes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimdPolicy {
    /// Auto / On / Off.
    pub mode: SimdMode,
    /// Requested lane width in `f64` elements (default 8).
    pub lanes: usize,
}

impl Default for SimdPolicy {
    fn default() -> Self {
        SimdPolicy {
            mode: SimdMode::Auto,
            lanes: 8,
        }
    }
}

impl SimdPolicy {
    /// Auto mode at the default lane width.
    pub fn auto() -> Self {
        SimdPolicy::default()
    }

    /// Forced-on portable lanes at the default width.
    pub fn on() -> Self {
        SimdPolicy {
            mode: SimdMode::On,
            lanes: 8,
        }
    }

    /// SIMD tier disabled: the chunked bytecode runs every entry.
    pub fn off() -> Self {
        SimdPolicy {
            mode: SimdMode::Off,
            lanes: 8,
        }
    }

    /// Whether the machines should attempt the lane path at all.
    pub fn enabled(&self) -> bool {
        !matches!(self.mode, SimdMode::Off)
    }

    /// The chunk width actually used: the requested width clamped to a
    /// supported power of two (4, 8, or 16).
    pub fn effective_lanes(&self) -> usize {
        match self.lanes {
            0..=4 => 4,
            5..=8 => 8,
            _ => 16,
        }
    }

    /// The lane width census accounting uses on *this* machine: the
    /// AVX2 register width (4 × f64) when Auto resolves to the intrinsic
    /// path, else [`SimdPolicy::effective_lanes`]. Plan-time and runtime
    /// censuses both use this, so they agree exactly.
    pub fn census_lanes(&self) -> usize {
        if avx2_selected(*self) {
            4
        } else {
            self.effective_lanes()
        }
    }

    /// Parse a `--simd auto|on|off` style flag value.
    pub fn parse(s: &str) -> Option<SimdPolicy> {
        match s {
            "auto" => Some(SimdPolicy::auto()),
            "on" => Some(SimdPolicy::on()),
            "off" => Some(SimdPolicy::off()),
            _ => None,
        }
    }
}

/// Plan-time SIMD census, the `overlap_census()` analogue for the lane
/// tier: how many exec entries the policy will vectorize, how many
/// fall back to the chunked bytecode, and how the vectorized elements split
/// into full lanes vs remainder tails. An entry counts once however many
/// reps it has; each rep is one lane loop with its own tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimdCensus {
    /// Effective lane width the policy resolves to.
    pub lanes: u64,
    /// Unit-stride entries the lane tier will take.
    pub vector_runs: u64,
    /// Entries the lane tier does not take (strided, guarded, generic
    /// shape, or policy off): the chunked bytecode or, guarded, per element.
    pub fallback_runs: u64,
    /// Elements processed in full lane chunks.
    pub lane_elems: u64,
    /// Remainder elements handled by the scalar tail loop.
    pub tail_elems: u64,
}

impl SimdCensus {
    /// Fold one vectorized entry of `reps` runs of `n` elements into the
    /// census.
    pub fn add_vector_run(&mut self, n: u64, reps: u64) {
        let lanes = self.lanes.max(1);
        self.vector_runs += 1;
        self.lane_elems += reps * (n / lanes * lanes);
        self.tail_elems += reps * (n % lanes);
    }
}

/// True when the Auto policy resolves to the AVX2 intrinsic path on
/// this machine (always false off x86_64 or under `On`/`Off`).
pub fn avx2_selected(policy: SimdPolicy) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        matches!(policy.mode, SimdMode::Auto) && std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = policy;
        false
    }
}

// ---------------------------------------------------------------------------
// Portable chunk loops.
//
// `chunks_exact` hands LLVM constant-length slices, which is the idiom
// stable rustc reliably turns into packed vector code at opt-level 3.
// The per-element closure is monomorphized per (shape, literal-presence)
// combination by the dispatchers below, so the Option checks never
// appear inside a hot loop.
// ---------------------------------------------------------------------------

#[inline(always)]
fn map1<const L: usize>(src: &[f64], out: &mut [f64], f: impl Fn(f64) -> f64) {
    debug_assert_eq!(src.len(), out.len());
    let n = out.len();
    let main = n - n % L;
    for (o, x) in out[..main]
        .chunks_exact_mut(L)
        .zip(src[..main].chunks_exact(L))
    {
        for (ov, xv) in o.iter_mut().zip(x.iter()) {
            *ov = f(*xv);
        }
    }
    for (ov, xv) in out[main..].iter_mut().zip(src[main..].iter()) {
        *ov = f(*xv);
    }
}

#[inline(always)]
fn map2<const L: usize>(s0: &[f64], s1: &[f64], out: &mut [f64], f: impl Fn(f64, f64) -> f64) {
    debug_assert_eq!(s0.len(), out.len());
    debug_assert_eq!(s1.len(), out.len());
    let n = out.len();
    let main = n - n % L;
    for ((o, x0), x1) in out[..main]
        .chunks_exact_mut(L)
        .zip(s0[..main].chunks_exact(L))
        .zip(s1[..main].chunks_exact(L))
    {
        for ((ov, a), b) in o.iter_mut().zip(x0.iter()).zip(x1.iter()) {
            *ov = f(*a, *b);
        }
    }
    for ((ov, a), b) in out[main..]
        .iter_mut()
        .zip(s0[main..].iter())
        .zip(s1[main..].iter())
    {
        *ov = f(*a, *b);
    }
}

#[inline(always)]
fn map3<const L: usize>(
    s0: &[f64],
    s1: &[f64],
    s2: &[f64],
    out: &mut [f64],
    f: impl Fn(f64, f64, f64) -> f64,
) {
    debug_assert_eq!(s0.len(), out.len());
    debug_assert_eq!(s1.len(), out.len());
    debug_assert_eq!(s2.len(), out.len());
    let n = out.len();
    let main = n - n % L;
    for (((o, x0), x1), x2) in out[..main]
        .chunks_exact_mut(L)
        .zip(s0[..main].chunks_exact(L))
        .zip(s1[..main].chunks_exact(L))
        .zip(s2[..main].chunks_exact(L))
    {
        for (((ov, a), b), c) in o.iter_mut().zip(x0.iter()).zip(x1.iter()).zip(x2.iter()) {
            *ov = f(*a, *b, *c);
        }
    }
    for (((ov, a), b), c) in out[main..]
        .iter_mut()
        .zip(s0[main..].iter())
        .zip(s1[main..].iter())
        .zip(s2[main..].iter())
    {
        *ov = f(*a, *b, *c);
    }
}

/// Apply the post-stencil literal chain: `[*scale]; [+offset]`, in that
/// order, exactly as the scalar fused path does.
#[inline(always)]
fn finish(v: f64, scale: Option<f64>, offset: Option<f64>) -> f64 {
    let v = match scale {
        Some(s) => v * s,
        None => v,
    };
    match offset {
        Some(o) => v + o,
        None => v,
    }
}

// ---------------------------------------------------------------------------
// Public lane kernels.  Each dispatches on (policy, literal presence)
// once, outside the loop.
// ---------------------------------------------------------------------------

/// Lane Copy: `out[j] = src[j]` (a straight memcpy; listed for
/// completeness and used by the n-d tiler).
pub fn copy(_policy: SimdPolicy, src: &[f64], out: &mut [f64]) {
    out.copy_from_slice(src);
}

/// Lane Axpy: `out[j] = src[j] [* a] [+ b]`, each literal applied only
/// when present in the source tree (the `x + 0.0` vs `-0.0` hazard).
pub fn axpy(policy: SimdPolicy, a: Option<f64>, b: Option<f64>, src: &[f64], out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_selected(policy) {
        // SAFETY: AVX2 presence was just verified at run time.
        unsafe { avx2::axpy(a, b, src, out) };
        return;
    }
    match policy.effective_lanes() {
        4 => axpy_lanes::<4>(a, b, src, out),
        16 => axpy_lanes::<16>(a, b, src, out),
        _ => axpy_lanes::<8>(a, b, src, out),
    }
}

#[inline(always)]
fn axpy_lanes<const L: usize>(a: Option<f64>, b: Option<f64>, src: &[f64], out: &mut [f64]) {
    match (a, b) {
        (Some(a), Some(b)) => map1::<L>(src, out, |x| x * a + b),
        (Some(a), None) => map1::<L>(src, out, |x| x * a),
        (None, Some(b)) => map1::<L>(src, out, |x| x + b),
        (None, None) => out.copy_from_slice(src),
    }
}

/// Lane two-point stencil: `out[j] = (s0[j] + s1[j]) [* scale] [+ offset]`.
pub fn stencil2(
    policy: SimdPolicy,
    scale: Option<f64>,
    offset: Option<f64>,
    s0: &[f64],
    s1: &[f64],
    out: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if avx2_selected(policy) {
        // SAFETY: AVX2 presence was just verified at run time.
        unsafe { avx2::stencil2(scale, offset, s0, s1, out) };
        return;
    }
    match policy.effective_lanes() {
        4 => map2::<4>(s0, s1, out, |a, b| finish(a + b, scale, offset)),
        16 => map2::<16>(s0, s1, out, |a, b| finish(a + b, scale, offset)),
        _ => map2::<8>(s0, s1, out, |a, b| finish(a + b, scale, offset)),
    }
}

/// Lane three-point stencil: the sum associates exactly as the source
/// tree did — `(s0+s1)+s2` when `left_assoc`, else `s0+(s1+s2)` — then
/// `[* scale] [+ offset]`.
#[allow(clippy::too_many_arguments)]
pub fn stencil3(
    policy: SimdPolicy,
    left_assoc: bool,
    scale: Option<f64>,
    offset: Option<f64>,
    s0: &[f64],
    s1: &[f64],
    s2: &[f64],
    out: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if avx2_selected(policy) {
        // SAFETY: AVX2 presence was just verified at run time.
        unsafe { avx2::stencil3(left_assoc, scale, offset, s0, s1, s2, out) };
        return;
    }
    let f = |a: f64, b: f64, c: f64| {
        let sum = if left_assoc { (a + b) + c } else { a + (b + c) };
        finish(sum, scale, offset)
    };
    match policy.effective_lanes() {
        4 => map3::<4>(s0, s1, s2, out, f),
        16 => map3::<16>(s0, s1, s2, out, f),
        _ => map3::<8>(s0, s1, s2, out, f),
    }
}

// ---------------------------------------------------------------------------
// AVX2 intrinsic path (x86_64 only, runtime-detected).
//
// Only loadu / mul / add / storeu: no FMA (would contract mul+add and
// change the low bits), no horizontal ops, no re-association.  Scalar
// tails replicate the exact per-element sequence.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_storeu_pd,
    };

    const W: usize = 4;

    /// # Safety
    /// Caller must have verified AVX2 via `is_x86_feature_detected!`.
    /// `src.len() == out.len()` is debug-asserted.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy(a: Option<f64>, b: Option<f64>, src: &[f64], out: &mut [f64]) {
        debug_assert_eq!(src.len(), out.len());
        let n = out.len();
        let main = n - n % W;
        let va = _mm256_set1_pd(a.unwrap_or(0.0));
        let vb = _mm256_set1_pd(b.unwrap_or(0.0));
        let sp = src.as_ptr();
        let op = out.as_mut_ptr();
        let mut i = 0;
        while i < main {
            let mut v: __m256d = _mm256_loadu_pd(sp.add(i));
            if a.is_some() {
                v = _mm256_mul_pd(v, va);
            }
            if b.is_some() {
                v = _mm256_add_pd(v, vb);
            }
            _mm256_storeu_pd(op.add(i), v);
            i += W;
        }
        for j in main..n {
            let mut v = src[j];
            if let Some(a) = a {
                v *= a;
            }
            if let Some(b) = b {
                v += b;
            }
            out[j] = v;
        }
    }

    /// # Safety
    /// Caller must have verified AVX2 via `is_x86_feature_detected!`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn stencil2(
        scale: Option<f64>,
        offset: Option<f64>,
        s0: &[f64],
        s1: &[f64],
        out: &mut [f64],
    ) {
        debug_assert_eq!(s0.len(), out.len());
        debug_assert_eq!(s1.len(), out.len());
        let n = out.len();
        let main = n - n % W;
        let vs = _mm256_set1_pd(scale.unwrap_or(0.0));
        let vo = _mm256_set1_pd(offset.unwrap_or(0.0));
        let p0 = s0.as_ptr();
        let p1 = s1.as_ptr();
        let op = out.as_mut_ptr();
        let mut i = 0;
        while i < main {
            let mut v = _mm256_add_pd(_mm256_loadu_pd(p0.add(i)), _mm256_loadu_pd(p1.add(i)));
            if scale.is_some() {
                v = _mm256_mul_pd(v, vs);
            }
            if offset.is_some() {
                v = _mm256_add_pd(v, vo);
            }
            _mm256_storeu_pd(op.add(i), v);
            i += W;
        }
        for j in main..n {
            out[j] = super::finish(s0[j] + s1[j], scale, offset);
        }
    }

    /// # Safety
    /// Caller must have verified AVX2 via `is_x86_feature_detected!`.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn stencil3(
        left_assoc: bool,
        scale: Option<f64>,
        offset: Option<f64>,
        s0: &[f64],
        s1: &[f64],
        s2: &[f64],
        out: &mut [f64],
    ) {
        debug_assert_eq!(s0.len(), out.len());
        debug_assert_eq!(s1.len(), out.len());
        debug_assert_eq!(s2.len(), out.len());
        let n = out.len();
        let main = n - n % W;
        let vs = _mm256_set1_pd(scale.unwrap_or(0.0));
        let vo = _mm256_set1_pd(offset.unwrap_or(0.0));
        let p0 = s0.as_ptr();
        let p1 = s1.as_ptr();
        let p2 = s2.as_ptr();
        let op = out.as_mut_ptr();
        let mut i = 0;
        while i < main {
            let x0 = _mm256_loadu_pd(p0.add(i));
            let x1 = _mm256_loadu_pd(p1.add(i));
            let x2 = _mm256_loadu_pd(p2.add(i));
            let mut v = if left_assoc {
                _mm256_add_pd(_mm256_add_pd(x0, x1), x2)
            } else {
                _mm256_add_pd(x0, _mm256_add_pd(x1, x2))
            };
            if scale.is_some() {
                v = _mm256_mul_pd(v, vs);
            }
            if offset.is_some() {
                v = _mm256_add_pd(v, vo);
            }
            _mm256_storeu_pd(op.add(i), v);
            i += W;
        }
        for j in main..n {
            let sum = if left_assoc {
                (s0[j] + s1[j]) + s2[j]
            } else {
                s0[j] + (s1[j] + s2[j])
            };
            out[j] = super::finish(sum, scale, offset);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// Scalar oracle replicating the fused interpreter's exact op order.
    fn scalar_axpy(a: Option<f64>, b: Option<f64>, src: &[f64]) -> Vec<f64> {
        src.iter()
            .map(|&x| {
                let mut v = x;
                if let Some(a) = a {
                    v *= a;
                }
                if let Some(b) = b {
                    v += b;
                }
                v
            })
            .collect()
    }

    fn awkward_values(n: usize) -> Vec<f64> {
        // Values chosen to expose rounding/associativity differences:
        // wide magnitude spread, negatives, signed zero, subnormals.
        (0..n)
            .map(|i| match i % 7 {
                0 => -0.0,
                1 => 1.0 / 3.0 * (i as f64),
                2 => 1e16 + i as f64,
                3 => -1e-300 * (i as f64 + 1.0),
                4 => (i as f64).sin(),
                5 => f64::MIN_POSITIVE * (i as f64 + 1.0),
                _ => -7.25 * i as f64,
            })
            .collect()
    }

    #[test]
    fn axpy_matches_scalar_bitwise_all_policies_and_tails() {
        // Cover remainder tails: n spans below/at/above every lane width.
        for n in [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 100] {
            let src = awkward_values(n);
            for a in [None, Some(0.5), Some(-3.0), Some(1.0 / 3.0)] {
                for b in [None, Some(0.0), Some(-0.0), Some(2.5)] {
                    let want = scalar_axpy(a, b, &src);
                    for pol in [
                        SimdPolicy::auto(),
                        SimdPolicy::on(),
                        SimdPolicy {
                            mode: SimdMode::On,
                            lanes: 4,
                        },
                        SimdPolicy {
                            mode: SimdMode::On,
                            lanes: 16,
                        },
                    ] {
                        let mut out = vec![f64::NAN; n];
                        axpy(pol, a, b, &src, &mut out);
                        assert_eq!(bits(&want), bits(&out), "n={n} a={a:?} b={b:?} {pol:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn stencil2_matches_scalar_bitwise() {
        for n in [0, 1, 3, 4, 5, 8, 13, 16, 21, 64, 100] {
            let s0 = awkward_values(n);
            let s1: Vec<f64> = awkward_values(n).iter().map(|v| v * 1.75 - 0.5).collect();
            for scale in [None, Some(0.5), Some(-2.0)] {
                for offset in [None, Some(-0.0), Some(3.25)] {
                    let want: Vec<f64> = s0
                        .iter()
                        .zip(&s1)
                        .map(|(&a, &b)| finish(a + b, scale, offset))
                        .collect();
                    for pol in [SimdPolicy::auto(), SimdPolicy::on()] {
                        let mut out = vec![f64::NAN; n];
                        stencil2(pol, scale, offset, &s0, &s1, &mut out);
                        assert_eq!(
                            bits(&want),
                            bits(&out),
                            "n={n} {scale:?} {offset:?} {pol:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stencil3_matches_scalar_bitwise_both_associativities() {
        for n in [1, 4, 7, 8, 9, 32, 65] {
            let s0 = awkward_values(n);
            let s1: Vec<f64> = s0.iter().map(|v| v + 1e-9).collect();
            let s2: Vec<f64> = s0.iter().map(|v| v * -3.0).collect();
            for left in [true, false] {
                let want: Vec<f64> = (0..n)
                    .map(|j| {
                        let sum = if left {
                            (s0[j] + s1[j]) + s2[j]
                        } else {
                            s0[j] + (s1[j] + s2[j])
                        };
                        finish(sum, Some(0.5), None)
                    })
                    .collect();
                for pol in [SimdPolicy::auto(), SimdPolicy::on()] {
                    let mut out = vec![f64::NAN; n];
                    stencil3(pol, left, Some(0.5), None, &s0, &s1, &s2, &mut out);
                    assert_eq!(bits(&want), bits(&out), "n={n} left={left} {pol:?}");
                }
            }
        }
    }

    #[test]
    fn policy_parse_and_lanes() {
        assert_eq!(SimdPolicy::parse("auto"), Some(SimdPolicy::auto()));
        assert_eq!(SimdPolicy::parse("on"), Some(SimdPolicy::on()));
        assert_eq!(SimdPolicy::parse("off"), Some(SimdPolicy::off()));
        assert_eq!(SimdPolicy::parse("fast"), None);
        assert!(!SimdPolicy::off().enabled());
        assert_eq!(
            SimdPolicy {
                mode: SimdMode::On,
                lanes: 3
            }
            .effective_lanes(),
            4
        );
        assert_eq!(SimdPolicy::auto().effective_lanes(), 8);
        assert_eq!(
            SimdPolicy {
                mode: SimdMode::On,
                lanes: 64
            }
            .effective_lanes(),
            16
        );
    }

    #[test]
    fn census_accounting_splits_lanes_and_tails() {
        let mut c = SimdCensus {
            lanes: 8,
            ..Default::default()
        };
        c.add_vector_run(20, 1);
        c.add_vector_run(3, 1);
        c.add_vector_run(8, 1);
        assert_eq!(c.vector_runs, 3);
        assert_eq!(c.lane_elems, 16 + 8);
        assert_eq!(c.tail_elems, 4 + 3);
        // reps of one entry: one entry, every rep its own tail
        c.add_vector_run(11, 3);
        assert_eq!(c.vector_runs, 4);
        assert_eq!(c.lane_elems, 16 + 8 + 3 * 8);
        assert_eq!(c.tail_elems, 4 + 3 + 3 * 3);
    }
}
