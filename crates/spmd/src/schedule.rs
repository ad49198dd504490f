//! Per-processor iteration schedules — the run-time counterpart of the
//! paper's closed-form generation functions `gen_p(t)` (Section 3.1).
//!
//! A [`Schedule`] describes exactly the set
//! `{ i ∈ (imin:imax) | proc(f(i)) = p }` for one processor. The naive
//! form ([`Schedule::Guarded`]) iterates the whole loop range and tests
//! the ownership predicate on every index — `imax - imin + 1` tests, the
//! cost the paper sets out to eliminate. The optimized forms iterate the
//! members *only*:
//!
//! * [`Schedule::Range`] — Theorem 1 (constant `f`) and block
//!   decompositions with monotone `f`;
//! * [`Schedule::Strided`] — Theorem 3 (scatter with linear `f`):
//!   `gen_p(t) = x_p + (pmax / gcd(a, pmax)) * t`;
//! * [`Schedule::RepeatedBlock`] — Theorem 2 (block-scatter with monotone
//!   `f`): an outer `k` loop over block cycles, inner contiguous `j` range
//!   obtained through `f^{-1}`;
//! * [`Schedule::RepeatedScatter`] — the Section 3.2.i alternative: outer
//!   loop over the `b` in-block offsets, inner `k` loop probing
//!   `f^{-1}(t + b*k*pmax)` for integrality (also the "limited
//!   optimization" for scatter with monotone non-linear `f`, `b = 1`);
//! * [`Schedule::Concat`] — piecewise-monotonic splits (Section 3.3).

use vcal_core::func::Fn1;
use vcal_numth::{div_ceil, div_floor, solve_congruence};

/// A per-processor iteration schedule over a 1-D loop range.
#[derive(Debug, Clone)]
pub enum Schedule {
    /// No iterations (the paper's `t_min = 0, t_max = -1` convention).
    Empty,
    /// The contiguous range `lo..=hi`.
    Range {
        /// First iteration.
        lo: i64,
        /// Last iteration.
        hi: i64,
    },
    /// `gen(t) = start + step * t` for `t in 0..count` (Theorem 3).
    Strided {
        /// `gen(0)`.
        start: i64,
        /// Lattice period `pmax / gcd(a, pmax)`.
        step: i64,
        /// Number of iterations.
        count: i64,
    },
    /// Theorem 2: for `k in 0..=k_max`, the contiguous `j` range whose
    /// image under `f` falls in block `p + k*pmax` of size `b`.
    RepeatedBlock {
        /// Access function (monotone on `[imin, imax]`).
        f: Fn1,
        /// Loop lower bound.
        imin: i64,
        /// Loop upper bound.
        imax: i64,
        /// Block size `b`.
        b: i64,
        /// Number of processors.
        pmax: i64,
        /// This processor.
        p: i64,
        /// Offset of the decomposed extent (its `lo`); the owned value
        /// intervals are `ext_lo + b*(p + k*pmax) .. + b - 1`.
        ext_lo: i64,
        /// Last cycle index.
        k_max: i64,
    },
    /// Section 3.2.i: for each in-block offset `t in b*p .. b*p + b - 1`
    /// and cycle `k in 0..=k_max`, the (possibly empty) preimage of the
    /// single value `ext_lo + t + b*k*pmax`.
    RepeatedScatter {
        /// Access function (monotone on `[imin, imax]`).
        f: Fn1,
        /// Loop lower bound.
        imin: i64,
        /// Loop upper bound.
        imax: i64,
        /// Block size `b`.
        b: i64,
        /// Number of processors.
        pmax: i64,
        /// This processor.
        p: i64,
        /// Offset of the decomposed extent.
        ext_lo: i64,
        /// Last cycle index.
        k_max: i64,
    },
    /// Concatenation of disjoint sub-schedules (piecewise splits). The
    /// sub-schedules cover disjoint index ranges in increasing order.
    Concat(Vec<Schedule>),
    /// The naive fallback: test `proc(f(i)) = p` for every `i`.
    Guarded {
        /// Loop lower bound.
        imin: i64,
        /// Loop upper bound.
        imax: i64,
        /// The ownership function `proc ∘ f`.
        proc_of_f: Fn1,
        /// This processor.
        p: i64,
    },
}

impl Schedule {
    /// Visit every scheduled iteration. Iterations of `Range`, `Strided`,
    /// `RepeatedBlock`, `Guarded` and `Concat` are produced in increasing
    /// order; `RepeatedScatter` follows the paper's `t`-major loop order.
    pub fn for_each(&self, mut visit: impl FnMut(i64)) {
        self.for_each_range(&mut |lo, hi| (lo..=hi).for_each(&mut visit));
    }

    /// Visit the scheduled iterations as contiguous stretches `lo..=hi`
    /// in visit order: one per cycle or probe hit of the repeated
    /// shapes, one per element of a stride or a guard.
    pub(crate) fn for_each_range(&self, visit: &mut impl FnMut(i64, i64)) {
        match self {
            Schedule::Empty => {}
            Schedule::Range { lo, hi } => {
                if lo <= hi {
                    visit(*lo, *hi);
                }
            }
            Schedule::Strided { start, step, count } => {
                let mut i = *start;
                for _ in 0..*count {
                    visit(i, i);
                    i += step;
                }
            }
            Schedule::RepeatedBlock {
                f,
                imin,
                imax,
                b,
                pmax,
                p,
                ext_lo,
                k_max,
            } => {
                for k in reached_cycles(f, (*imin, *imax), ext_lo + b * p, *b, b * pmax, *k_max) {
                    let y_lo = ext_lo + b * (p + k * pmax);
                    let y_hi = y_lo + b - 1;
                    if let Some((jlo, jhi)) = f.preimage_range(y_lo, y_hi, *imin, *imax) {
                        visit(jlo, jhi);
                    }
                }
            }
            Schedule::RepeatedScatter {
                f,
                imin,
                imax,
                b,
                pmax,
                p,
                ext_lo,
                k_max,
            } => {
                for t in reached_offsets(f, *imin, *imax, *b, *pmax, *p, *ext_lo) {
                    for k in reached_cycles(f, (*imin, *imax), ext_lo + t, 1, b * pmax, *k_max) {
                        let v = ext_lo + t + b * k * pmax;
                        // all i with f(i) == v (a plateau for weakly
                        // monotone f, one point or nothing otherwise)
                        if let Some((jlo, jhi)) = f.preimage_range(v, v, *imin, *imax) {
                            visit(jlo, jhi);
                        }
                    }
                }
            }
            Schedule::Concat(parts) => {
                for s in parts {
                    s.for_each_range(visit);
                }
            }
            Schedule::Guarded {
                imin,
                imax,
                proc_of_f,
                p,
            } => {
                for i in *imin..=*imax {
                    if proc_of_f.eval(i) == *p {
                        visit(i, i);
                    }
                }
            }
        }
    }

    /// Collect all iterations, sorted ascending (schedule order may differ
    /// for `RepeatedScatter`).
    pub fn to_sorted_vec(&self) -> Vec<i64> {
        let mut v = Vec::new();
        self.for_each(|i| v.push(i));
        v.sort_unstable();
        v
    }

    /// Number of iterations the schedule produces: closed form per
    /// in-block offset for the repeated shapes with affine `f`, per cycle
    /// or probe for the others, a test per index for `Guarded`.
    pub fn count(&self) -> u64 {
        match self {
            Schedule::Strided { count, .. } => (*count).max(0) as u64,
            _ if let Some(runs) = self.offset_runs() => runs.iter().map(|r| r.2 as u64).sum(),
            _ => {
                let mut n = 0;
                self.for_each_range(&mut |lo, hi| n += (hi - lo + 1).max(0) as u64);
                n
            }
        }
    }

    /// Whether the schedule produces no iterations.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// The iterations of a repeated shape with affine `f`, per in-block
    /// offset `t`, as progressions `(start, step, count)` in `t`-major
    /// order: `a·i + c = v_t + k·b·pmax` is a linear congruence in the
    /// cycle `k`, so one offset's preimages step by a constant. `None`
    /// for any other shape or `f`.
    pub(crate) fn offset_runs(&self) -> Option<Vec<(i64, i64, i64)>> {
        let (Schedule::RepeatedBlock {
            f,
            imin,
            imax,
            b,
            pmax,
            p,
            ext_lo,
            k_max,
        }
        | Schedule::RepeatedScatter {
            f,
            imin,
            imax,
            b,
            pmax,
            p,
            ext_lo,
            k_max,
        }) = self
        else {
            return None;
        };
        let Fn1::Affine { a, c } = *f else {
            return None;
        };
        let (big, modulus) = (b * pmax, a.checked_abs().filter(|&m| m > 0)?);
        let (ilo, ihi) = if a > 0 {
            (*imin, *imax)
        } else {
            (*imax, *imin)
        };
        let runs = reached_offsets(f, *imin, *imax, *b, *pmax, *p, *ext_lo).filter_map(|t| {
            let v0 = ext_lo + t - c;
            let cong = solve_congruence(big, -v0, modulus)?;
            let klo = div_ceil(a * ilo - v0, big).max(0);
            let khi = div_floor(a * ihi - v0, big).min(*k_max);
            let k = cong.first_at_or_above(klo);
            let count = cong.count_in(klo, khi);
            // the step is `big / gcd(big, a)` with `a`'s sign: in range
            let step = (cong.period as i128 * big as i128 / a as i128) as i64;
            (count > 0).then(|| ((v0 + k * big) / a, step, count))
        });
        Some(runs.collect())
    }

    /// Number of *loop-overhead* steps: iterations visited **plus** guard
    /// tests / probe misses. For `Guarded` this is the full loop extent;
    /// for the closed forms it is the visited count plus empty-probe
    /// overhead — the quantity the paper's complexity argument compares.
    pub fn work_estimate(&self) -> u64 {
        match self {
            Schedule::Empty => 0,
            Schedule::Range { lo, hi } => (hi - lo + 1).max(0) as u64,
            Schedule::Strided { count, .. } => (*count).max(0) as u64,
            Schedule::RepeatedBlock { k_max, .. } => {
                // one preimage computation per cycle plus the visits
                (*k_max + 1).max(0) as u64 + self.count()
            }
            Schedule::RepeatedScatter { b, k_max, .. } => {
                // one probe per (t, k) pair
                ((*k_max + 1).max(0) * b).max(0) as u64
            }
            Schedule::Concat(parts) => parts.iter().map(Schedule::work_estimate).sum(),
            Schedule::Guarded { imin, imax, .. } => (imax - imin + 1).max(0) as u64,
        }
    }

    /// Short name of the schedule shape (for reports and emitted code).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Schedule::Empty => "empty",
            Schedule::Range { .. } => "range",
            Schedule::Strided { .. } => "strided",
            Schedule::RepeatedBlock { .. } => "repeated-block",
            Schedule::RepeatedScatter { .. } => "repeated-scatter",
            Schedule::Concat(_) => "concat",
            Schedule::Guarded { .. } => "guarded",
        }
    }

    /// Clip a contiguous-range schedule helper: build `Range` normalizing
    /// emptiness.
    pub fn range(lo: i64, hi: i64) -> Schedule {
        if lo > hi {
            Schedule::Empty
        } else {
            Schedule::Range { lo, hi }
        }
    }

    /// Build a `Concat`, flattening empties.
    pub fn concat(parts: Vec<Schedule>) -> Schedule {
        let mut kept: Vec<Schedule> = parts
            .into_iter()
            .filter(|s| !matches!(s, Schedule::Empty))
            .collect();
        match (kept.len(), kept.pop()) {
            (1, Some(only)) => only,
            (0, _) | (_, None) => Schedule::Empty,
            (_, Some(last)) => {
                kept.push(last);
                Schedule::Concat(kept)
            }
        }
    }
}

/// The in-block offsets `t ∈ [b·p, b·p + b)` of a repeated shape whose
/// values `ext_lo + t + b·k·pmax` the image of a monotone `f` over
/// `[imin, imax]` can reach, ascending: those whose residue modulo the
/// cycle `b·pmax` the image's hull covers. At most `min(b, |f(imax) −
/// f(imin)| + 1)` of them, so a huge block over a short loop walks only
/// the few offsets it touches.
fn reached_offsets(
    f: &Fn1,
    imin: i64,
    imax: i64,
    b: i64,
    pmax: i64,
    p: i64,
    ext_lo: i64,
) -> impl Iterator<Item = i64> {
    let (y0, y1) = (f.eval(imin) as i128, f.eval(imax) as i128);
    let (cycle, lo, hi) = ((b * pmax) as i128, (b * p) as i128, (b * p + b) as i128);
    let span = (y1 - y0).abs() + 1;
    let first = (y0.min(y1) - ext_lo as i128).rem_euclid(cycle);
    // the hull's residues: [first, first + span), wrapping once past the cycle
    let parts = match span >= cycle {
        true => [(lo, hi), (0, 0)],
        false => [(first - cycle, first + span - cycle), (first, first + span)],
    };
    (parts.into_iter()).flat_map(move |(a, z)| a.max(lo) as i64..z.min(hi).max(a.max(lo)) as i64)
}

/// The cycles `k ∈ [0, k_max]` whose `width` values from `from + k·cycle`
/// the image of a monotone `f` over `[imin, imax]` meets, as a range: a
/// short loop whose image lies far into a huge extent visits only the
/// cycles under its image, not every cycle before it.
fn reached_cycles(
    f: &Fn1,
    (imin, imax): (i64, i64),
    from: i64,
    width: i64,
    cycle: i64,
    k_max: i64,
) -> std::ops::RangeInclusive<i64> {
    let (y0, y1) = (f.eval(imin) as i128, f.eval(imax) as i128);
    let (from, width, cycle, k_max) = (from as i128, width as i128, cycle as i128, k_max as i128);
    // from + k·cycle <= max(y) and from + k·cycle + width - 1 >= min(y)
    let hi = (y0.max(y1) - from).div_euclid(cycle).clamp(-1, k_max);
    let lo = (-(from + width - 1 - y0.min(y1)).div_euclid(cycle)).clamp(0, hi + 1);
    lo as i64..=hi as i64
}

/// Compute the Theorem 2 cycle bound
/// `k_max = (max_offset div b - p) div pmax`, where `max_offset` is the
/// largest zero-based owned value offset reachable by `f` on the domain.
pub fn repeated_block_kmax(
    f: &Fn1,
    imin: i64,
    imax: i64,
    b: i64,
    pmax: i64,
    p: i64,
    ext_lo: i64,
) -> i64 {
    if imin > imax {
        return -1;
    }
    let y_max = f.eval(imin).max(f.eval(imax)) - ext_lo;
    div_floor(div_floor(y_max, b) - p, pmax)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_and_empty() {
        assert_eq!(Schedule::range(3, 5).to_sorted_vec(), vec![3, 4, 5]);
        assert!(Schedule::range(5, 3).is_empty());
        assert_eq!(Schedule::Empty.count(), 0);
        assert_eq!(Schedule::range(0, 9).work_estimate(), 10);
    }

    #[test]
    fn strided_enumeration() {
        let s = Schedule::Strided {
            start: 2,
            step: 3,
            count: 4,
        };
        assert_eq!(s.to_sorted_vec(), vec![2, 5, 8, 11]);
        assert_eq!(s.count(), 4);
    }

    #[test]
    fn guarded_matches_brute() {
        // scatter on 4 procs, f = i: proc(f(i)) = i mod 4
        let pf = Fn1::Mod {
            inner: Box::new(Fn1::identity()),
            z: 4,
            d: 0,
        };
        let s = Schedule::Guarded {
            imin: 0,
            imax: 14,
            proc_of_f: pf,
            p: 2,
        };
        assert_eq!(s.to_sorted_vec(), vec![2, 6, 10, 14]);
        assert_eq!(s.work_estimate(), 15); // the whole loop is tested
    }

    #[test]
    fn repeated_block_bs2() {
        // BS(2) on pmax=4 over extent 0..; f = identity, loop 0..=14.
        // p=0 owns globals {0,1,8,9} (Fig 2a).
        let f = Fn1::identity();
        let k_max = repeated_block_kmax(&f, 0, 14, 2, 4, 0, 0);
        let s = Schedule::RepeatedBlock {
            f,
            imin: 0,
            imax: 14,
            b: 2,
            pmax: 4,
            p: 0,
            ext_lo: 0,
            k_max,
        };
        assert_eq!(s.to_sorted_vec(), vec![0, 1, 8, 9]);
    }

    #[test]
    fn repeated_scatter_equals_repeated_block() {
        // Same set via the Section 3.2.i formulation.
        let f = Fn1::affine(3, 1);
        let (imin, imax, b, pmax, ext_lo) = (0, 40, 2, 4, 0);
        for p in 0..4 {
            let k_max = repeated_block_kmax(&f, imin, imax, b, pmax, p, ext_lo);
            let rb = Schedule::RepeatedBlock {
                f: f.clone(),
                imin,
                imax,
                b,
                pmax,
                p,
                ext_lo,
                k_max,
            };
            let rs = Schedule::RepeatedScatter {
                f: f.clone(),
                imin,
                imax,
                b,
                pmax,
                p,
                ext_lo,
                k_max,
            };
            assert_eq!(rb.to_sorted_vec(), rs.to_sorted_vec(), "p={p}");
        }
    }

    #[test]
    fn concat_flattens() {
        let c = Schedule::concat(vec![
            Schedule::Empty,
            Schedule::range(0, 1),
            Schedule::Empty,
            Schedule::range(5, 6),
        ]);
        assert_eq!(c.to_sorted_vec(), vec![0, 1, 5, 6]);
        let single = Schedule::concat(vec![Schedule::Empty, Schedule::range(2, 3)]);
        assert!(matches!(single, Schedule::Range { .. }));
        assert!(matches!(Schedule::concat(vec![]), Schedule::Empty));
    }

    /// The closed-form count and per-offset progressions agree with the
    /// per-cycle enumeration for a of both signs and beyond 1.
    #[test]
    fn offset_runs_match_the_cycle_walk() {
        for (a, c) in [(1, 0), (1, -5), (2, 3), (3, -1), (-1, 95), (-3, 94), (5, 2)] {
            // the loop range that keeps a·i + c inside [0, 95]
            let ok = |i: i64| (0..=95).contains(&(a * i + c));
            let (imin, imax) = (
                (-200..200).find(|&i| ok(i)).unwrap(),
                (-200..200).rfind(|&i| ok(i)).unwrap(),
            );
            for (b, pmax) in [(1, 3), (2, 4), (3, 2), (4, 2)] {
                for p in 0..pmax {
                    let f = Fn1::affine(a, c);
                    let k_max = repeated_block_kmax(&f, imin, imax, b, pmax, p, 0);
                    let (rb, rs) = (
                        Schedule::RepeatedBlock {
                            f: f.clone(),
                            imin,
                            imax,
                            b,
                            pmax,
                            p,
                            ext_lo: 0,
                            k_max,
                        },
                        Schedule::RepeatedScatter {
                            f,
                            imin,
                            imax,
                            b,
                            pmax,
                            p,
                            ext_lo: 0,
                            k_max,
                        },
                    );
                    let mut walk = Vec::new();
                    rs.for_each_range(&mut |lo, hi| walk.extend(lo..=hi));
                    let runs = rs.offset_runs().unwrap();
                    let expanded: Vec<i64> = runs
                        .iter()
                        .flat_map(|&(i, s, n)| (0..n).map(move |t| i + s * t))
                        .collect();
                    assert_eq!(expanded, walk, "a={a} c={c} b={b} pmax={pmax} p={p}");
                    assert_eq!(rs.count(), walk.len() as u64);
                    assert_eq!(rb.count(), walk.len() as u64);
                }
            }
        }
    }

    /// A block far larger than the loop, or a loop whose image lies far
    /// into the extent: the repeated shapes walk only the offsets and the
    /// cycles the loop's image reaches, and still count and enumerate
    /// exactly the owned iterations.
    #[test]
    fn huge_blocks_walk_only_the_reached_offsets() {
        use crate::validate::brute_modify;
        let big = 1i64 << 61;
        // the last three: ten elements far into the extent
        let maps = [
            (1, 0),
            (1, 7),
            (-1, 9),
            (3, 2),
            (-2, 40),
            (1, 1 << 40),
            (1, big),
            (-1, big + 9),
        ];
        for (a, c) in maps {
            let f = Fn1::affine(a, c);
            for b in [5, 1 << 20, big] {
                for p in 0..2 {
                    let k_max = repeated_block_kmax(&f, 0, 9, b, 2, p, 0);
                    let fields = (f.clone(), 0, 9, b, 2, p, 0, k_max);
                    let shapes = [
                        Schedule::RepeatedBlock {
                            f: fields.0.clone(),
                            imin: fields.1,
                            imax: fields.2,
                            b: fields.3,
                            pmax: fields.4,
                            p: fields.5,
                            ext_lo: fields.6,
                            k_max: fields.7,
                        },
                        Schedule::RepeatedScatter {
                            f: fields.0,
                            imin: fields.1,
                            imax: fields.2,
                            b: fields.3,
                            pmax: fields.4,
                            p: fields.5,
                            ext_lo: fields.6,
                            k_max: fields.7,
                        },
                    ];
                    let dec = vcal_decomp::Decomp1::block_scatter(
                        b,
                        2,
                        vcal_core::Bounds::range(0, (big - 1) * 2),
                    );
                    let want = brute_modify(&f, &dec, 0, 9, p);
                    for s in &shapes {
                        let runs = s.offset_runs().unwrap();
                        let mut got: Vec<i64> = (runs.iter())
                            .flat_map(|&(i, step, n)| (0..n).map(move |t| i + step * t))
                            .collect();
                        got.sort_unstable();
                        assert_eq!(got, want, "{s:?}");
                        assert_eq!(s.count(), want.len() as u64, "{s:?}");
                        assert_eq!(s.to_sorted_vec(), want, "{s:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn kmax_handles_empty_loop() {
        assert_eq!(repeated_block_kmax(&Fn1::identity(), 5, 4, 2, 4, 0, 0), -1);
    }
}
