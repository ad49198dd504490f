//! The Table I classification engine: given an access function `f`, a
//! decomposition of the accessed array, and the loop range, produce the
//! best closed-form [`Schedule`] the paper derives — or the naive guarded
//! loop when no optimization applies.
//!
//! | `f(i)`                  | Block          | Scatter                    | Block/Scatter |
//! |-------------------------|----------------|----------------------------|---------------|
//! | `c`                     | Theorem 1      | Theorem 1                  | Theorem 1     |
//! | `i+c`, `a*i+c`          | exact range    | Theorem 3 (+Corollaries)   | RB / RS       |
//! | monotone incr/decr      | exact range    | limited opt. if `df/di < pmax` | RB (Thm 2) |
//! | `g(i) mod z + d`        | breakpoint split, then the row of `g` per piece (Section 3.3) |

use crate::schedule::{repeated_block_kmax, Schedule};
use vcal_core::func::Fn1;
use vcal_decomp::{Decomp1, Distribution};
use vcal_numth::{div_floor, solve_congruence};

/// Which optimization produced a schedule (for reports, emitted code
/// comments, and the Table I benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptKind {
    /// The loop range itself is empty.
    EmptyLoop,
    /// Theorem 1: `f` constant — one processor runs the whole range.
    ConstantFn,
    /// Replicated target: canonical owner executes everything.
    ReplicatedOwner,
    /// Block decomposition, affine `f`: one exact contiguous range.
    BlockAffine,
    /// Block decomposition, monotone non-affine `f`: exact range via
    /// `f^{-1}` (Table I last row, Block column).
    BlockMonotonic,
    /// Theorem 3: scatter with linear `f` — strided lattice. The field
    /// records which simplification applied: 1 ⇒ Corollary 1
    /// (`pmax mod a = 0`), 2 ⇒ Corollary 2 (`a mod pmax = 0`), 0 ⇒ the
    /// general extended-Euclid solution.
    ScatterLinear {
        /// 0 = general, 1 = Corollary 1, 2 = Corollary 2.
        corollary: u8,
    },
    /// Scatter with monotone non-linear `f` and `df/di < pmax`: the
    /// paper's "limited optimization as repeated block decomposition",
    /// enumerating on `k` instead of `i`.
    ScatterMonotonicViaK,
    /// Theorem 2: block-scatter, repeated-block formulation.
    RepeatedBlock,
    /// Section 3.2.i: block-scatter, repeated-scatter formulation.
    RepeatedScatter,
    /// Section 3.3: piecewise-monotonic `f` split at breakpoints (each
    /// piece optimized by its own row).
    PiecewiseSplit,
    /// No optimization found: run-time membership tests.
    Naive,
}

impl OptKind {
    /// One value per distinct [`OptKind::name`], in Table I order.
    const ALL: [OptKind; 13] = [
        OptKind::EmptyLoop,
        OptKind::ConstantFn,
        OptKind::ReplicatedOwner,
        OptKind::BlockAffine,
        OptKind::BlockMonotonic,
        OptKind::ScatterLinear { corollary: 1 },
        OptKind::ScatterLinear { corollary: 2 },
        OptKind::ScatterLinear { corollary: 0 },
        OptKind::ScatterMonotonicViaK,
        OptKind::RepeatedBlock,
        OptKind::RepeatedScatter,
        OptKind::PiecewiseSplit,
        OptKind::Naive,
    ];

    /// Every name [`OptKind::name`] can return — what a peer decoding a
    /// dispatch kind off the wire interns against. Derived from `name`,
    /// so the strings exist once.
    pub const NAMES: [&'static str; 13] = {
        let mut names = [""; 13];
        let mut k = 0;
        while k < names.len() {
            names[k] = OptKind::ALL[k].name();
            k += 1;
        }
        names
    };

    /// Human-readable name.
    pub const fn name(self) -> &'static str {
        match self {
            OptKind::EmptyLoop => "empty-loop",
            OptKind::ConstantFn => "theorem-1-constant",
            OptKind::ReplicatedOwner => "replicated-owner",
            OptKind::BlockAffine => "block-affine-range",
            OptKind::BlockMonotonic => "block-monotonic-range",
            OptKind::ScatterLinear { corollary: 1 } => "theorem-3-corollary-1",
            OptKind::ScatterLinear { corollary: 2 } => "theorem-3-corollary-2",
            OptKind::ScatterLinear { .. } => "theorem-3-diophantine",
            OptKind::ScatterMonotonicViaK => "scatter-enumerate-on-k",
            OptKind::RepeatedBlock => "theorem-2-repeated-block",
            OptKind::RepeatedScatter => "repeated-scatter",
            OptKind::PiecewiseSplit => "piecewise-split",
            OptKind::Naive => "naive-guard",
        }
    }

    /// Whether this kind avoids testing every loop index.
    pub fn is_closed_form(self) -> bool {
        !matches!(self, OptKind::Naive)
    }
}

/// An optimized per-processor schedule with its provenance.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The iteration schedule for processor `p`.
    pub schedule: Schedule,
    /// Which Table I cell produced it.
    pub kind: OptKind,
}

/// Options controlling optimizer choices that the paper leaves to the
/// implementation.
#[derive(Debug, Clone, Copy)]
pub struct OptOptions {
    /// Use the repeated-scatter formulation for block-scatter when the
    /// paper's condition `b <= f(imax) / (2*pmax)` holds (Section 3.2.i).
    pub prefer_repeated_scatter: bool,
    /// Permit the `df/di < pmax` enumerate-on-k optimization for scatter
    /// with monotone non-linear `f`.
    pub scatter_enum_k: bool,
}

impl Default for OptOptions {
    fn default() -> Self {
        OptOptions {
            prefer_repeated_scatter: true,
            scatter_enum_k: true,
        }
    }
}

/// Produce the best schedule for
/// `{ i ∈ [imin, imax] | proc(f(i)) = p }` under `dec`.
///
/// Precondition (the paper's implicit one): every access `f(i)` for `i`
/// in the loop range falls inside the decomposed extent — the planner's
/// entry points refuse a clause that breaks it (`PlanError::OutOfExtent`).
pub fn optimize(f: &Fn1, dec: &Decomp1, imin: i64, imax: i64, p: i64) -> Optimized {
    optimize_with(f, dec, imin, imax, p, OptOptions::default())
}

/// [`optimize`] with explicit [`OptOptions`].
pub fn optimize_with(
    f: &Fn1,
    dec: &Decomp1,
    imin: i64,
    imax: i64,
    p: i64,
    opts: OptOptions,
) -> Optimized {
    if imin > imax {
        return Optimized {
            schedule: Schedule::Empty,
            kind: OptKind::EmptyLoop,
        };
    }
    let f = f.simplify();

    // Theorem 1: constant access function.
    if let Fn1::Const(c) = f {
        let owner = dec.proc_of(c);
        let schedule = if owner == p {
            Schedule::range(imin, imax)
        } else {
            Schedule::Empty
        };
        return Optimized {
            schedule,
            kind: OptKind::ConstantFn,
        };
    }

    if dec.is_replicated() {
        let schedule = if p == 0 {
            Schedule::range(imin, imax)
        } else {
            Schedule::Empty
        };
        return Optimized {
            schedule,
            kind: OptKind::ReplicatedOwner,
        };
    }

    let ext_lo = dec.extent().lo()[0];
    let pmax = dec.pmax();
    let mono = f.monotonicity(imin, imax);

    match dec.dist() {
        Distribution::Block { b } => {
            if mono.is_monotone() {
                let y_lo = ext_lo + b * p;
                let y_hi = y_lo + b - 1;
                let schedule = match f.preimage_range(y_lo, y_hi, imin, imax) {
                    Some((lo, hi)) => Schedule::range(lo, hi),
                    None => Schedule::Empty,
                };
                let kind = if matches!(f, Fn1::Affine { .. }) {
                    OptKind::BlockAffine
                } else {
                    OptKind::BlockMonotonic
                };
                Optimized { schedule, kind }
            } else {
                split_or_naive(&f, dec, imin, imax, p, opts)
            }
        }
        Distribution::Scatter => {
            if let Fn1::Affine { a, c } = f {
                // Theorem 3: a*i + c - ext_lo ≡ p (mod pmax)
                let schedule = match solve_congruence(a, p - c + ext_lo, pmax) {
                    Some(cg) => {
                        let start = cg.first_at_or_above(imin);
                        let count = cg.count_in(imin, imax);
                        if count == 0 {
                            Schedule::Empty
                        } else {
                            Schedule::Strided {
                                start,
                                step: cg.period,
                                count,
                            }
                        }
                    }
                    // no solution to the Diophantine equation: this
                    // processor executes no code (Theorem 3).
                    None => Schedule::Empty,
                };
                let corollary = if a != 0 && a.abs() % pmax == 0 {
                    2
                } else if a != 0 && pmax % a.abs() == 0 {
                    1
                } else {
                    0
                };
                Optimized {
                    schedule,
                    kind: OptKind::ScatterLinear { corollary },
                }
            } else if mono.is_monotone() {
                // "limited optimization (as repeated block decomposition)
                // if df/di < pmax": probe k instead of testing every i.
                let slope = f.slope_bound(imin, imax);
                if opts.scatter_enum_k && slope.is_some_and(|s| s < pmax) {
                    let k_max = repeated_block_kmax(&f, imin, imax, 1, pmax, p, ext_lo);
                    let schedule = if k_max < 0 {
                        Schedule::Empty
                    } else {
                        Schedule::RepeatedScatter {
                            f: f.clone(),
                            imin,
                            imax,
                            b: 1,
                            pmax,
                            p,
                            ext_lo,
                            k_max,
                        }
                    };
                    Optimized {
                        schedule,
                        kind: OptKind::ScatterMonotonicViaK,
                    }
                } else {
                    naive(&f, dec, imin, imax, p)
                }
            } else {
                split_or_naive(&f, dec, imin, imax, p, opts)
            }
        }
        Distribution::BlockScatter { b } => {
            if mono.is_monotone() {
                let k_max = repeated_block_kmax(&f, imin, imax, b, pmax, p, ext_lo);
                if k_max < 0 {
                    return Optimized {
                        schedule: Schedule::Empty,
                        kind: OptKind::RepeatedBlock,
                    };
                }
                // Section 3.2.i: repeated scatter is preferable when
                // b <= f(imax) / (2 * pmax).
                let y_max = f.eval(imin).max(f.eval(imax)) - ext_lo;
                let use_rs = opts.prefer_repeated_scatter && b <= div_floor(y_max, 2 * pmax);
                if use_rs {
                    Optimized {
                        schedule: Schedule::RepeatedScatter {
                            f: f.clone(),
                            imin,
                            imax,
                            b,
                            pmax,
                            p,
                            ext_lo,
                            k_max,
                        },
                        kind: OptKind::RepeatedScatter,
                    }
                } else {
                    Optimized {
                        schedule: Schedule::RepeatedBlock {
                            f: f.clone(),
                            imin,
                            imax,
                            b,
                            pmax,
                            p,
                            ext_lo,
                            k_max,
                        },
                        kind: OptKind::RepeatedBlock,
                    }
                }
            } else {
                split_or_naive(&f, dec, imin, imax, p, opts)
            }
        }
        Distribution::Replicated => unreachable!("handled above"),
    }
}

/// Piecewise-monotonic handling (Section 3.3): split at breakpoints and
/// optimize each de-modded piece with its own Table I row.
fn split_or_naive(
    f: &Fn1,
    dec: &Decomp1,
    imin: i64,
    imax: i64,
    p: i64,
    opts: OptOptions,
) -> Optimized {
    if let Some(pieces) = f.monotone_pieces(imin, imax) {
        if pieces.len() > 1 || matches!(f, Fn1::Mod { .. }) {
            let parts: Vec<Schedule> = pieces
                .iter()
                .map(|piece| optimize_with(&piece.f, dec, piece.lo, piece.hi, p, opts).schedule)
                .collect();
            return Optimized {
                schedule: Schedule::concat(parts),
                kind: OptKind::PiecewiseSplit,
            };
        }
    }
    naive(f, dec, imin, imax, p)
}

fn naive(f: &Fn1, dec: &Decomp1, imin: i64, imax: i64, p: i64) -> Optimized {
    Optimized {
        schedule: Schedule::Guarded {
            imin,
            imax,
            proc_of_f: dec.proc_fn().compose(f).simplify(),
            p,
        },
        kind: OptKind::Naive,
    }
}

/// Build the naive guarded schedule regardless of what `f` allows — the
/// baseline every Table I bench compares against.
pub fn naive_schedule(f: &Fn1, dec: &Decomp1, imin: i64, imax: i64, p: i64) -> Schedule {
    naive(f, dec, imin, imax, p).schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcal_core::Bounds;

    /// Brute-force oracle: `{ i | proc(f(i)) = p }`.
    fn brute(f: &Fn1, dec: &Decomp1, imin: i64, imax: i64, p: i64) -> Vec<i64> {
        (imin..=imax)
            .filter(|&i| dec.proc_of(f.eval(i)) == p)
            .collect()
    }

    fn check_exact(f: &Fn1, dec: &Decomp1, imin: i64, imax: i64) -> Vec<OptKind> {
        let mut kinds = Vec::new();
        let mut total = 0u64;
        for p in 0..dec.pmax() {
            let opt = optimize(f, dec, imin, imax, p);
            let got = opt.schedule.to_sorted_vec();
            let want = brute(f, dec, imin, imax, p);
            assert_eq!(got, want, "f={f:?} dec={dec} p={p} kind={:?}", opt.kind);
            total += got.len() as u64;
            kinds.push(opt.kind);
        }
        assert_eq!(
            total,
            (imax - imin + 1).max(0) as u64,
            "not a partition: f={f:?} {dec}"
        );
        kinds
    }

    #[test]
    fn names_cover_every_kind() {
        for kind in OptKind::ALL {
            // exhaustive on purpose: a new Table I row stops compiling
            // here until it is listed in `ALL` (and so in `NAMES`) too
            match kind {
                OptKind::EmptyLoop
                | OptKind::ConstantFn
                | OptKind::ReplicatedOwner
                | OptKind::BlockAffine
                | OptKind::BlockMonotonic
                | OptKind::ScatterLinear { .. }
                | OptKind::ScatterMonotonicViaK
                | OptKind::RepeatedBlock
                | OptKind::RepeatedScatter
                | OptKind::PiecewiseSplit
                | OptKind::Naive => assert!(OptKind::NAMES.contains(&kind.name())),
            }
        }
        let distinct: std::collections::BTreeSet<_> = OptKind::NAMES.iter().collect();
        assert_eq!(distinct.len(), OptKind::NAMES.len());
        // any corollary tag outside 1 and 2 is the general solution
        assert_eq!(
            OptKind::ScatterLinear { corollary: 7 }.name(),
            "theorem-3-diophantine"
        );
    }

    #[test]
    fn theorem1_constant() {
        let dec = Decomp1::block(4, Bounds::range(0, 15));
        let kinds = check_exact(&Fn1::Const(9), &dec, 0, 99);
        assert!(kinds.iter().all(|k| *k == OptKind::ConstantFn));
        // owner of 9 under block(4) is p=2
        let opt = optimize(&Fn1::Const(9), &dec, 0, 99, 2);
        assert_eq!(opt.schedule.count(), 100);
        assert!(optimize(&Fn1::Const(9), &dec, 0, 99, 0).schedule.is_empty());
    }

    #[test]
    fn block_affine_rows() {
        let dec = Decomp1::block(4, Bounds::range(0, 63));
        for (a, c) in [(1i64, 0i64), (1, 5), (2, 1), (3, -2), (-1, 60), (-2, 62)] {
            // choose a loop range keeping accesses in 0..=63
            let (imin, imax) = match a {
                1 => (0, 58 - c.max(0)),
                2 => (1, 31),
                3 => (1, 21),
                -1 => (0, 55),
                -2 => (0, 31),
                _ => unreachable!(),
            };
            let kinds = check_exact(&Fn1::affine(a, c), &dec, imin, imax);
            assert!(
                kinds.iter().all(|k| *k == OptKind::BlockAffine),
                "a={a} c={c}: {kinds:?}"
            );
        }
    }

    #[test]
    fn block_monotonic_nonlinear() {
        let dec = Decomp1::block(4, Bounds::range(0, 100));
        let kinds = check_exact(&Fn1::square(), &dec, 0, 10);
        assert!(kinds.iter().all(|k| *k == OptKind::BlockMonotonic));
        let kinds = check_exact(&Fn1::i_plus_i_div(4), &dec, 0, 80);
        assert!(kinds.iter().all(|k| *k == OptKind::BlockMonotonic));
    }

    #[test]
    fn theorem3_scatter_linear_all_gcd_classes() {
        for pmax in [3i64, 4, 6, 8] {
            let dec = Decomp1::scatter(pmax, Bounds::range(0, 499));
            for a in [1i64, 2, 3, 4, 5, 6, 7, -1, -3] {
                for c in [0i64, 1, 5] {
                    let (imin, imax) = if a > 0 {
                        (0, (499 - c) / a)
                    } else {
                        ((-c) / a, (499 - c) / a).min(((499 - c) / a, (-c) / a))
                    };
                    let (imin, imax) = (imin.min(imax), imin.max(imax));
                    let kinds = check_exact(&Fn1::affine(a, c), &dec, imin.max(0), imax);
                    assert!(
                        kinds
                            .iter()
                            .all(|k| matches!(k, OptKind::ScatterLinear { .. })),
                        "a={a} c={c} pmax={pmax}: {kinds:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn corollary_detection() {
        // pmax=6, a=3: pmax mod a == 0 -> Corollary 1
        let dec = Decomp1::scatter(6, Bounds::range(0, 299));
        let o = optimize(&Fn1::affine(3, 1), &dec, 0, 99, 1);
        assert_eq!(o.kind, OptKind::ScatterLinear { corollary: 1 });
        // pmax=3, a=6: a mod pmax == 0 -> Corollary 2
        let dec = Decomp1::scatter(3, Bounds::range(0, 599));
        let o = optimize(&Fn1::affine(6, 1), &dec, 0, 99, 1);
        assert_eq!(o.kind, OptKind::ScatterLinear { corollary: 2 });
        // only p = c mod pmax active for Corollary 2
        for p in 0..3 {
            let o = optimize(&Fn1::affine(6, 1), &dec, 0, 99, p);
            assert_eq!(o.schedule.is_empty(), p != 1, "p={p}");
        }
    }

    #[test]
    fn scatter_monotonic_via_k() {
        // f(i) = i + (i div 4): slope <= 2 < pmax = 16
        let dec = Decomp1::scatter(16, Bounds::range(0, 200));
        let kinds = check_exact(&Fn1::i_plus_i_div(4), &dec, 0, 160);
        assert!(
            kinds.iter().all(|k| *k == OptKind::ScatterMonotonicViaK),
            "{kinds:?}"
        );
    }

    #[test]
    fn scatter_steep_monotonic_falls_back() {
        // f(i) = i^2 on 0..=30: slope up to 61 >= pmax=4 -> naive
        let dec = Decomp1::scatter(4, Bounds::range(0, 900));
        let o = optimize(&Fn1::square(), &dec, 0, 30, 1);
        assert_eq!(o.kind, OptKind::Naive);
        check_exact(&Fn1::square(), &dec, 0, 30);
    }

    #[test]
    fn block_scatter_repeated_block() {
        let dec = Decomp1::block_scatter(48, 4, Bounds::range(0, 299));
        // b = 48 > 299/(2*4) = 37: repeated block chosen
        let kinds = check_exact(&Fn1::identity(), &dec, 0, 299);
        assert!(
            kinds.iter().all(|k| *k == OptKind::RepeatedBlock),
            "{kinds:?}"
        );
    }

    #[test]
    fn block_scatter_repeated_scatter() {
        let dec = Decomp1::block_scatter(2, 4, Bounds::range(0, 299));
        // b=2 <= 299/(2*4)=37: RS chosen
        let kinds = check_exact(&Fn1::identity(), &dec, 0, 299);
        assert!(
            kinds.iter().all(|k| *k == OptKind::RepeatedScatter),
            "{kinds:?}"
        );
        // and with the option off, RB
        let o = optimize_with(
            &Fn1::identity(),
            &dec,
            0,
            299,
            0,
            OptOptions {
                prefer_repeated_scatter: false,
                scatter_enum_k: true,
            },
        );
        assert_eq!(o.kind, OptKind::RepeatedBlock);
    }

    #[test]
    fn block_scatter_affine_strides() {
        for b in [2i64, 3, 5] {
            let dec = Decomp1::block_scatter(b, 4, Bounds::range(0, 499));
            for (a, c) in [(1i64, 0i64), (2, 3), (5, 1), (-1, 400)] {
                let (lo, hi) = if a > 0 { (0, (499 - c) / a) } else { (0, 399) };
                check_exact(&Fn1::affine(a, c), &dec, lo, hi);
            }
        }
    }

    #[test]
    fn piecewise_rotate_under_all_decomps() {
        // paper's rotate example f(i) = (i+6) mod 20 on 0..=19
        let f = Fn1::rotate(6, 20);
        for dec in [
            Decomp1::block(4, Bounds::range(0, 19)),
            Decomp1::scatter(4, Bounds::range(0, 19)),
            Decomp1::block_scatter(2, 4, Bounds::range(0, 19)),
        ] {
            let kinds = check_exact(&f, &dec, 0, 19);
            assert!(
                kinds.iter().all(|k| *k == OptKind::PiecewiseSplit),
                "{dec}: {kinds:?}"
            );
        }
    }

    #[test]
    fn empty_loop() {
        let dec = Decomp1::block(4, Bounds::range(0, 15));
        let o = optimize(&Fn1::identity(), &dec, 5, 4, 0);
        assert_eq!(o.kind, OptKind::EmptyLoop);
        assert!(o.schedule.is_empty());
    }

    #[test]
    fn replicated_owner() {
        let dec = Decomp1::replicated(4, Bounds::range(0, 15));
        let o0 = optimize(&Fn1::identity(), &dec, 0, 15, 0);
        assert_eq!(o0.kind, OptKind::ReplicatedOwner);
        assert_eq!(o0.schedule.count(), 16);
        assert!(optimize(&Fn1::identity(), &dec, 0, 15, 3)
            .schedule
            .is_empty());
    }

    #[test]
    fn nonzero_based_extent_all_paths() {
        let ext = Bounds::range(100, 163);
        for dec in [
            Decomp1::block(4, ext),
            Decomp1::scatter(4, ext),
            Decomp1::block_scatter(3, 4, ext),
        ] {
            check_exact(&Fn1::shift(100), &dec, 0, 63);
            check_exact(&Fn1::affine(2, 100), &dec, 0, 31);
        }
    }

    #[test]
    fn naive_schedule_is_always_available() {
        let dec = Decomp1::scatter(4, Bounds::range(0, 99));
        let s = naive_schedule(&Fn1::affine(3, 0), &dec, 0, 33, 2);
        let want = brute(&Fn1::affine(3, 0), &dec, 0, 33, 2);
        assert_eq!(s.to_sorted_vec(), want);
        assert_eq!(s.work_estimate(), 34);
    }
}
