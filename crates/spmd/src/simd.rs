//! # Lane maps of the fused kernel shapes (DESIGN.md §14)
//!
//! The fused shapes of [`crate::kernel::FusedShape`] collapse a whole
//! Table I clause body into one of three recognized per-element forms
//! (copy, `a*x + b`, small stencil). This module supplies their *lane
//! maps*: one pass over a span of `f64` operands that does the whole
//! per-element form, where the chunked bytecode makes one pass per
//! operator. [`CompiledKernel::eval_run`](crate::kernel::CompiledKernel::eval_run)
//! calls [`run`] before anything else, so every span a machine hands
//! the kernel — borrowed or gathered — runs its shape's lane map.
//!
//! The CPU picks the map, no option does: the AVX2 map when the CPU
//! reports AVX2 at run time, else the portable map, fixed-width chunk
//! loops that stable rustc reliably autovectorizes. On `stream` the
//! portable map alone took 1.13× the AVX2 map's `op_ms` (E47).
//!
//! ## Bit-exactness contract
//!
//! Lane parallelism never re-associates any per-element computation:
//! every output element is produced by exactly the operation sequence
//! the bytecode performs (`load; [*a]; [+b]; store` for Axpy, `(x0+x1)+x2`
//! or `x0+(x1+x2)` for stencils depending on the source tree, then
//! `[*scale]; [+offset]`). The AVX2 map uses only `loadu`/`mul`/`add`/
//! `storeu` — **never** fused multiply-add, which would change results in
//! the last bit. Both maps are pinned bitwise against a scalar oracle
//! below, and `eval_run` against `eval` in `kernel::tests`.

use crate::kernel::FusedShape;

/// The name `CompiledSchedule::simd_census` still takes. It has no
/// field and nothing reads it: the CPU alone picks the lane map. The
/// measurement spine's `simd_census(SimdPolicy::default())` is its one
/// use; ROADMAP 2(c) deletes it with that call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimdPolicy;

/// Plan-time SIMD census, the `overlap_census()` analogue for the lane
/// maps: how many exec entries run a fused shape's lane map once per rep
/// (`CompiledSchedule::runs_fused`), how many run otherwise, and how the
/// former's elements split into full lanes vs remainder tails. An entry
/// counts once however many reps it has; each rep is one lane loop with
/// its own tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimdCensus {
    /// Lane width of the map this CPU runs ([`lanes`]).
    pub lanes: u64,
    /// Entries that run a lane map once per rep.
    pub vector_runs: u64,
    /// The other entries: the bytecode (guarded or generic shape), a
    /// lane map over gathered chunks, or empty.
    pub fallback_runs: u64,
    /// Elements processed in full lane chunks.
    pub lane_elems: u64,
    /// Remainder elements handled by the scalar tail loop.
    pub tail_elems: u64,
}

impl SimdCensus {
    /// Fold one fused entry of `reps` runs of `n` elements into the
    /// census.
    pub fn add_vector_run(&mut self, n: u64, reps: u64) {
        let lanes = self.lanes.max(1);
        self.vector_runs += 1;
        self.lane_elems += reps * (n / lanes * lanes);
        self.tail_elems += reps * (n % lanes);
    }
}

/// Whether this CPU runs the AVX2 lane map.
fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Width of the portable lane map, in `f64` elements.
const LANES: usize = 8;

/// Lane width of the map this CPU runs: the AVX2 register (4 × f64),
/// else [`LANES`]. Plan-time and runtime censuses both use it, so they
/// agree exactly.
pub fn lanes() -> usize {
    if avx2() {
        4
    } else {
        LANES
    }
}

/// Run `shape`'s lane map over `slots` (each slot `out.len()` values)
/// into `out`. False, with `out` untouched, for [`FusedShape::Generic`]
/// and for a shape that reads a slot `slots` lacks: the bytecode runs
/// those.
pub(crate) fn run(shape: &FusedShape, slots: &[&[f64]], out: &mut [f64]) -> bool {
    // the operands the shape reads, in its slot order
    let mut x = [&[][..]; 3];
    for (x, &s) in x.iter_mut().zip(shape.read_slots()) {
        let Some(&v) = slots.get(s) else {
            return false;
        };
        *x = v;
    }
    match *shape {
        FusedShape::Copy { .. } => out.copy_from_slice(x[0]),
        FusedShape::Axpy { a, b, .. } => {
            #[cfg(target_arch = "x86_64")]
            if avx2() {
                // SAFETY: AVX2 presence was just verified at run time.
                unsafe { avx2::axpy(a, b, x[0], out) };
                return true;
            }
            portable::axpy(a, b, x[0], out)
        }
        FusedShape::Stencil {
            ref slots,
            left_assoc,
            scale,
            offset,
        } => {
            let three = slots.len() == 3;
            #[cfg(target_arch = "x86_64")]
            if avx2() {
                // SAFETY: AVX2 presence was just verified at run time.
                unsafe {
                    match three {
                        true => avx2::stencil3(left_assoc, scale, offset, x[0], x[1], x[2], out),
                        false => avx2::stencil2(scale, offset, x[0], x[1], out),
                    }
                }
                return true;
            }
            match three {
                true => portable::stencil3(left_assoc, scale, offset, x[0], x[1], x[2], out),
                false => portable::stencil2(scale, offset, x[0], x[1], out),
            }
        }
        FusedShape::Generic => return false,
    }
    true
}

/// Apply the post-stencil literal chain: `[*scale]; [+offset]`, in that
/// order, exactly as the bytecode does.
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
// Portable chunk loops.
//
// `chunks_exact` hands LLVM constant-length slices, which is the idiom
// stable rustc reliably turns into packed vector code at opt-level 3.
// The per-element closure is monomorphized per shape.
// ---------------------------------------------------------------------------

mod portable {
    use super::{finish, LANES as L};

    #[inline(always)]
    fn map1(src: &[f64], out: &mut [f64], f: impl Fn(f64) -> f64) {
        debug_assert_eq!(src.len(), out.len());
        let main = out.len() - out.len() % L;
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
    fn map2(s0: &[f64], s1: &[f64], out: &mut [f64], f: impl Fn(f64, f64) -> f64) {
        debug_assert_eq!(s0.len(), out.len());
        debug_assert_eq!(s1.len(), out.len());
        let main = out.len() - out.len() % L;
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
    fn map3(s0: &[f64], s1: &[f64], s2: &[f64], out: &mut [f64], f: impl Fn(f64, f64, f64) -> f64) {
        debug_assert_eq!(s0.len(), out.len());
        debug_assert_eq!(s1.len(), out.len());
        debug_assert_eq!(s2.len(), out.len());
        let main = out.len() - out.len() % L;
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

    /// `out[j] = src[j] [* a] [+ b]`, each literal applied only when
    /// present in the source tree (the `x + 0.0` vs `-0.0` hazard).
    pub(super) fn axpy(a: Option<f64>, b: Option<f64>, src: &[f64], out: &mut [f64]) {
        match (a, b) {
            (Some(a), Some(b)) => map1(src, out, |x| x * a + b),
            (Some(a), None) => map1(src, out, |x| x * a),
            (None, Some(b)) => map1(src, out, |x| x + b),
            (None, None) => out.copy_from_slice(src),
        }
    }

    /// `out[j] = (s0[j] + s1[j]) [* scale] [+ offset]`.
    pub(super) fn stencil2(
        scale: Option<f64>,
        offset: Option<f64>,
        s0: &[f64],
        s1: &[f64],
        out: &mut [f64],
    ) {
        map2(s0, s1, out, |a, b| finish(a + b, scale, offset))
    }

    /// The sum associates exactly as the source tree did — `(s0+s1)+s2`
    /// when `left_assoc`, else `s0+(s1+s2)` — then `[* scale] [+ offset]`.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn stencil3(
        left_assoc: bool,
        scale: Option<f64>,
        offset: Option<f64>,
        s0: &[f64],
        s1: &[f64],
        s2: &[f64],
        out: &mut [f64],
    ) {
        match left_assoc {
            true => map3(s0, s1, s2, out, |a, b, c| {
                finish((a + b) + c, scale, offset)
            }),
            false => map3(s0, s1, s2, out, |a, b, c| {
                finish(a + (b + c), scale, offset)
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 intrinsic maps (x86_64 only, runtime-detected).
//
// Only loadu / mul / add / storeu: no FMA (would contract mul+add and
// change the low bits), no horizontal ops, no re-association. Scalar
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
            out[j] = super::finish(src[j], a, b);
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

    /// Every tail length of both maps: below, at and past two chunks of
    /// either width.
    const LENS: std::ops::RangeInclusive<usize> = 0..=2 * LANES + 3;

    /// Every literal combination: absent, a signed zero, a plain value.
    const LITS: [Option<f64>; 4] = [None, Some(0.0), Some(-0.0), Some(2.5)];

    // Each test checks the portable map, the only one off x86_64 and on
    // CPUs without AVX2, and the AVX2 map where this CPU has it.

    #[test]
    fn axpy_matches_scalar_bitwise_both_maps_and_tails() {
        for n in LENS {
            let src = awkward_values(n);
            for a in [None, Some(0.5), Some(-3.0), Some(1.0 / 3.0)] {
                for b in LITS {
                    let want: Vec<f64> = src.iter().map(|&x| finish(x, a, b)).collect();
                    let mut out = vec![f64::NAN; n];
                    portable::axpy(a, b, &src, &mut out);
                    assert_eq!(bits(&want), bits(&out), "portable n={n} a={a:?} b={b:?}");
                    #[cfg(target_arch = "x86_64")]
                    if avx2() {
                        let mut out = vec![f64::NAN; n];
                        // SAFETY: AVX2 presence was just verified.
                        unsafe { avx2::axpy(a, b, &src, &mut out) };
                        assert_eq!(bits(&want), bits(&out), "avx2 n={n} a={a:?} b={b:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn stencil2_matches_scalar_bitwise() {
        for n in LENS {
            let s0 = awkward_values(n);
            let s1: Vec<f64> = s0.iter().map(|v| v * 1.75 - 0.5).collect();
            for scale in [None, Some(0.5), Some(-2.0)] {
                for offset in LITS {
                    let want: Vec<f64> = (s0.iter().zip(&s1))
                        .map(|(&a, &b)| finish(a + b, scale, offset))
                        .collect();
                    let mut out = vec![f64::NAN; n];
                    portable::stencil2(scale, offset, &s0, &s1, &mut out);
                    assert_eq!(
                        bits(&want),
                        bits(&out),
                        "portable n={n} {scale:?} {offset:?}"
                    );
                    #[cfg(target_arch = "x86_64")]
                    if avx2() {
                        let mut out = vec![f64::NAN; n];
                        // SAFETY: AVX2 presence was just verified.
                        unsafe { avx2::stencil2(scale, offset, &s0, &s1, &mut out) };
                        assert_eq!(bits(&want), bits(&out), "avx2 n={n} {scale:?} {offset:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn stencil3_matches_scalar_bitwise_both_associativities() {
        for n in LENS {
            let s0 = awkward_values(n);
            let s1: Vec<f64> = s0.iter().map(|v| v + 1e-9).collect();
            let s2: Vec<f64> = s0.iter().map(|v| v * -3.0).collect();
            for left in [true, false] {
                for (scale, offset) in LITS.into_iter().flat_map(|s| LITS.map(|o| (s, o))) {
                    let want: Vec<f64> = (0..n)
                        .map(|j| {
                            let sum = match left {
                                true => (s0[j] + s1[j]) + s2[j],
                                false => s0[j] + (s1[j] + s2[j]),
                            };
                            finish(sum, scale, offset)
                        })
                        .collect();
                    let what = format!("n={n} left={left} {scale:?} {offset:?}");
                    let mut out = vec![f64::NAN; n];
                    portable::stencil3(left, scale, offset, &s0, &s1, &s2, &mut out);
                    assert_eq!(bits(&want), bits(&out), "portable {what}");
                    #[cfg(target_arch = "x86_64")]
                    if avx2() {
                        let mut out = vec![f64::NAN; n];
                        // SAFETY: AVX2 presence was just verified.
                        unsafe { avx2::stencil3(left, scale, offset, &s0, &s1, &s2, &mut out) };
                        assert_eq!(bits(&want), bits(&out), "avx2 {what}");
                    }
                }
            }
        }
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
