//! Symbolic index-propagation functions (paper Definition 3 and Section 3).
//!
//! The optimizations of the paper are driven entirely by what is known about
//! the *index propagation function* `f` of a selection `[f(i)](A)`:
//!
//! * `f(i) = c` — Theorem 1;
//! * `f(i) = a*i + c` — Theorem 3 and its corollaries (scatter), plus exact
//!   block ranges;
//! * `f` monotonic — Theorem 2 (repeated block via `f^{-1}` bounds);
//! * `f(i) = g(i) mod z + d` — piecewise monotonic (Section 3.3), split at
//!   breakpoints into de-modded monotonic pieces.
//!
//! [`Fn1`] is a small closed AST covering exactly these classes (and sums /
//! integer division / squaring, so the paper's examples `f(i) = i + (i div 4)`
//! and `f(i) = i^2` are expressible), with evaluation, composition,
//! simplification, monotonicity classification, inverse-bound computation by
//! exact formula or bisection, slope bounds, and breakpoint splitting.

use vcal_numth::{div_floor, mod_floor};

/// A symbolic 1-D integer function of one integer variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Fn1 {
    /// `f(i) = c`
    Const(i64),
    /// `f(i) = a*i + c`
    Affine {
        /// Multiplier.
        a: i64,
        /// Offset.
        c: i64,
    },
    /// `f(i) = inner(i) mod z + d`, the paper's piecewise-monotonic form
    /// (Section 3.3). `z > 0`; `mod` has floor semantics.
    Mod {
        /// The monotonic inner function `g`.
        inner: Box<Fn1>,
        /// The modulus `z`.
        z: i64,
        /// The offset `d`.
        d: i64,
    },
    /// `f(i) = floor(inner(i) / q)`, `q > 0`.
    Div {
        /// The inner function.
        inner: Box<Fn1>,
        /// The (positive) divisor.
        q: i64,
    },
    /// `f(i) = lhs(i) + rhs(i)` — used for e.g. `i + (i div 4)`.
    Sum(Box<Fn1>, Box<Fn1>),
    /// `f(i) = inner(i)^2` (the paper's monotone non-linear example
    /// `f(i) = i^2` is `Square(identity)`; monotonic on a sign-definite
    /// image of the inner function).
    Square(Box<Fn1>),
    /// `f(i) = a * inner(i) + c` — arises from composing an affine outer
    /// function with a non-affine inner one.
    Scaled {
        /// Multiplier applied to the inner value.
        a: i64,
        /// Offset added after scaling.
        c: i64,
        /// The inner function.
        inner: Box<Fn1>,
    },
}

/// Monotonicity classification of an [`Fn1`] over a given domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Monotonicity {
    /// Constant over the domain.
    Constant,
    /// Strictly increasing.
    Increasing,
    /// Strictly decreasing.
    Decreasing,
    /// Non-decreasing but not necessarily strictly (e.g. `i div 4`).
    WeaklyIncreasing,
    /// Non-increasing but not necessarily strictly.
    WeaklyDecreasing,
    /// Piecewise monotonic with computable breakpoints (a `Mod` form).
    Piecewise,
    /// Nothing useful is known structurally.
    Unknown,
}

impl Monotonicity {
    /// Whether the function is (weakly) monotonic in a single direction.
    pub fn is_monotone(self) -> bool {
        self.is_non_decreasing() || self.is_non_increasing()
    }

    /// Whether values never decrease as `i` increases.
    pub fn is_non_decreasing(self) -> bool {
        matches!(
            self,
            Monotonicity::Constant | Monotonicity::Increasing | Monotonicity::WeaklyIncreasing
        )
    }

    /// Whether values never increase as `i` increases.
    pub fn is_non_increasing(self) -> bool {
        matches!(
            self,
            Monotonicity::Constant | Monotonicity::Decreasing | Monotonicity::WeaklyDecreasing
        )
    }
}

/// A monotonic piece of a piecewise-monotonic function: the sub-domain and
/// the "de-modded" function valid on it (Section 3.3: `g(i) - z*k + d`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonotonePiece {
    /// Inclusive lower end of the sub-domain.
    pub lo: i64,
    /// Inclusive upper end of the sub-domain.
    pub hi: i64,
    /// Function equal to the original on `[lo, hi]`, itself breakpoint-free.
    pub f: Fn1,
}

impl Fn1 {
    /// The identity function `f(i) = i`.
    pub fn identity() -> Fn1 {
        Fn1::Affine { a: 1, c: 0 }
    }

    /// `f(i) = i + c`.
    pub fn shift(c: i64) -> Fn1 {
        Fn1::Affine { a: 1, c }
    }

    /// `f(i) = a*i + c`.
    pub fn affine(a: i64, c: i64) -> Fn1 {
        Fn1::Affine { a, c }
    }

    /// `f(i) = (i + s) mod z` — a rotate view (paper's example
    /// `f(i) = (i+6) mod 20`).
    pub fn rotate(s: i64, z: i64) -> Fn1 {
        assert!(z > 0, "rotate modulus must be positive");
        Fn1::Mod {
            inner: Box::new(Fn1::shift(s)),
            z,
            d: 0,
        }
    }

    /// `f(i) = i + (i div q)` — the paper's monotone non-linear example.
    pub fn i_plus_i_div(q: i64) -> Fn1 {
        assert!(q > 0);
        Fn1::Sum(
            Box::new(Fn1::identity()),
            Box::new(Fn1::Div {
                inner: Box::new(Fn1::identity()),
                q,
            }),
        )
    }

    /// `f(i) = i^2`.
    pub fn square() -> Fn1 {
        Fn1::Square(Box::new(Fn1::identity()))
    }

    /// Evaluate at `i`.
    pub fn eval(&self, i: i64) -> i64 {
        match self {
            Fn1::Const(c) => *c,
            Fn1::Affine { a, c } => a * i + c,
            Fn1::Mod { inner, z, d } => mod_floor(inner.eval(i), *z) + d,
            Fn1::Div { inner, q } => div_floor(inner.eval(i), *q),
            Fn1::Sum(l, r) => l.eval(i) + r.eval(i),
            Fn1::Square(inner) => {
                let v = inner.eval(i);
                v * v
            }
            Fn1::Scaled { a, c, inner } => a * inner.eval(i) + c,
        }
    }

    /// Composition `(self ∘ inner)(i) = self(inner(i))`, simplified where
    /// the structure allows — affine ∘ affine stays affine, which is what
    /// keeps parameter-expression *contraction* (paper Definition 5) inside
    /// the classes Table I can optimize.
    pub fn compose(&self, inner: &Fn1) -> Fn1 {
        match (self, inner) {
            (Fn1::Const(c), _) => Fn1::Const(*c),
            (_, Fn1::Const(c)) => Fn1::Const(self.eval(*c)),
            (Fn1::Affine { a: 1, c: 0 }, g) => g.clone(),
            (f, Fn1::Affine { a: 1, c: 0 }) => f.clone(),
            (Fn1::Affine { a, c }, Fn1::Affine { a: a2, c: c2 }) => Fn1::Affine {
                a: a * a2,
                c: a * c2 + c,
            },
            (Fn1::Affine { a, c }, g) => {
                // a*g(i) + c = g(i)*a + c; representable as Sum of scaled?
                // Only a=1 scaling is directly representable; encode
                // a*g + c via Sum chains when a > 0, else keep layered.
                if *a == 1 {
                    Fn1::Sum(Box::new(g.clone()), Box::new(Fn1::Const(*c))).simplify()
                } else {
                    // keep exact semantics with a structural wrapper:
                    // a*g(i)+c as Sum(a copies) would be silly; use
                    // Mod/Div-free fallback: Square is not applicable, so
                    // wrap as ScaledSum via repeated doubling is overkill.
                    // Retain a dedicated node instead.
                    Fn1::Scaled {
                        a: *a,
                        c: *c,
                        inner: Box::new(g.clone()),
                    }
                }
            }
            (Fn1::Mod { inner: g, z, d }, h) => Fn1::Mod {
                inner: Box::new(g.compose(h)),
                z: *z,
                d: *d,
            },
            (Fn1::Div { inner: g, q }, h) => Fn1::Div {
                inner: Box::new(g.compose(h)),
                q: *q,
            },
            (Fn1::Sum(l, r), h) => {
                Fn1::Sum(Box::new(l.compose(h)), Box::new(r.compose(h))).simplify()
            }
            (Fn1::Square(g), h) => Fn1::Square(Box::new(g.compose(h))),
            (Fn1::Scaled { a, c, inner: g }, h) => Fn1::Scaled {
                a: *a,
                c: *c,
                inner: Box::new(g.compose(h)),
            }
            .simplify(),
        }
    }

    /// Structural simplification: constant folding, affine merging,
    /// flattening of sums with constants.
    pub fn simplify(&self) -> Fn1 {
        match self {
            Fn1::Sum(l, r) => {
                let l = l.simplify();
                let r = r.simplify();
                match (&l, &r) {
                    (Fn1::Const(a), Fn1::Const(b)) => Fn1::Const(a + b),
                    (Fn1::Affine { a, c }, Fn1::Const(k)) => Fn1::Affine { a: *a, c: c + k },
                    (Fn1::Const(k), Fn1::Affine { a, c }) => Fn1::Affine { a: *a, c: c + k },
                    (Fn1::Affine { a: a1, c: c1 }, Fn1::Affine { a: a2, c: c2 }) => Fn1::Affine {
                        a: a1 + a2,
                        c: c1 + c2,
                    },
                    _ => Fn1::Sum(Box::new(l), Box::new(r)),
                }
            }
            Fn1::Scaled { a, c, inner } => {
                let inner = inner.simplify();
                match (&inner, *a) {
                    (Fn1::Const(k), _) => Fn1::Const(a * k + c),
                    (Fn1::Affine { a: a2, c: c2 }, _) => Fn1::Affine {
                        a: a * a2,
                        c: a * c2 + c,
                    },
                    (_, 1) => Fn1::Sum(Box::new(inner), Box::new(Fn1::Const(*c))).simplify(),
                    _ => Fn1::Scaled {
                        a: *a,
                        c: *c,
                        inner: Box::new(inner),
                    },
                }
            }
            Fn1::Mod { inner, z, d } => {
                let inner = inner.simplify();
                if let Fn1::Const(c) = inner {
                    Fn1::Const(mod_floor(c, *z) + d)
                } else {
                    Fn1::Mod {
                        inner: Box::new(inner),
                        z: *z,
                        d: *d,
                    }
                }
            }
            Fn1::Div { inner, q } => {
                let inner = inner.simplify();
                match (&inner, *q) {
                    (Fn1::Const(c), q) => Fn1::Const(div_floor(*c, q)),
                    (_, 1) => inner,
                    _ => Fn1::Div {
                        inner: Box::new(inner),
                        q: *q,
                    },
                }
            }
            Fn1::Square(inner) => {
                let inner = inner.simplify();
                if let Fn1::Const(c) = inner {
                    Fn1::Const(c * c)
                } else {
                    Fn1::Square(Box::new(inner))
                }
            }
            Fn1::Affine { a: 0, c } => Fn1::Const(*c),
            other => other.clone(),
        }
    }

    /// Classify monotonicity over the inclusive domain `[lo, hi]`.
    pub fn monotonicity(&self, lo: i64, hi: i64) -> Monotonicity {
        if lo > hi {
            return Monotonicity::Constant; // vacuous
        }
        match self {
            Fn1::Const(_) => Monotonicity::Constant,
            Fn1::Affine { a, .. } => match a.signum() {
                0 => Monotonicity::Constant,
                1 => Monotonicity::Increasing,
                _ => Monotonicity::Decreasing,
            },
            Fn1::Scaled { a, inner, .. } => {
                let m = inner.monotonicity(lo, hi);
                match a.signum() {
                    0 => Monotonicity::Constant,
                    1 => m,
                    _ => flip(m),
                }
            }
            Fn1::Square(inner) => {
                let m = inner.monotonicity(lo, hi);
                if !m.is_monotone() {
                    return Monotonicity::Unknown;
                }
                let (va, vb) = (inner.eval(lo), inner.eval(hi));
                let (vmin, vmax) = (va.min(vb), va.max(vb));
                if lo == hi || vmin == vmax {
                    return if lo == hi {
                        Monotonicity::Constant
                    } else {
                        weaken(m)
                    };
                }
                if vmin >= 0 {
                    // squaring preserves order on non-negatives
                    if m.is_non_decreasing() {
                        strengthen_like(m, Monotonicity::Increasing)
                    } else {
                        strengthen_like(m, Monotonicity::Decreasing)
                    }
                } else if vmax <= 0 {
                    if m.is_non_decreasing() {
                        strengthen_like(m, Monotonicity::Decreasing)
                    } else {
                        strengthen_like(m, Monotonicity::Increasing)
                    }
                } else {
                    Monotonicity::Unknown
                }
            }
            Fn1::Div { inner, .. } => match inner.monotonicity(lo, hi) {
                Monotonicity::Constant => Monotonicity::Constant,
                m if m.is_non_decreasing() => Monotonicity::WeaklyIncreasing,
                m if m.is_non_increasing() => Monotonicity::WeaklyDecreasing,
                _ => Monotonicity::Unknown,
            },
            Fn1::Sum(l, r) => {
                let ml = l.monotonicity(lo, hi);
                let mr = r.monotonicity(lo, hi);
                if ml == Monotonicity::Constant {
                    return mr;
                }
                if mr == Monotonicity::Constant {
                    return ml;
                }
                if ml.is_non_decreasing() && mr.is_non_decreasing() {
                    if ml == Monotonicity::Increasing || mr == Monotonicity::Increasing {
                        Monotonicity::Increasing
                    } else {
                        Monotonicity::WeaklyIncreasing
                    }
                } else if ml.is_non_increasing() && mr.is_non_increasing() {
                    if ml == Monotonicity::Decreasing || mr == Monotonicity::Decreasing {
                        Monotonicity::Decreasing
                    } else {
                        Monotonicity::WeaklyDecreasing
                    }
                } else {
                    Monotonicity::Unknown
                }
            }
            Fn1::Mod { inner, z, .. } => {
                // If no breakpoint falls inside the domain, the mod is a
                // constant shift of `inner` (Section 3.3); otherwise it is
                // piecewise monotonic.
                let m = inner.monotonicity(lo, hi);
                if !m.is_monotone() {
                    return Monotonicity::Unknown;
                }
                let klo = div_floor(inner.eval(lo), *z);
                let khi = div_floor(inner.eval(hi), *z);
                if klo == khi {
                    m
                } else {
                    Monotonicity::Piecewise
                }
            }
        }
    }

    /// Upper bound on `|f(i+1) - f(i)|` over `[lo, hi-1]`, if one is known
    /// structurally. Used for the Section 3.2 decision "enumerate on `k`
    /// rather than `i` when `df/di < pmax`".
    pub fn slope_bound(&self, lo: i64, hi: i64) -> Option<i64> {
        if lo >= hi {
            return Some(0);
        }
        match self {
            Fn1::Const(_) => Some(0),
            Fn1::Affine { a, .. } => Some(a.abs()),
            Fn1::Scaled { a, inner, .. } => Some(a.abs() * inner.slope_bound(lo, hi)?),
            Fn1::Square(inner) => {
                let s = inner.slope_bound(lo, hi)?;
                let vm = inner.eval(lo).abs().max(inner.eval(hi).abs());
                // |g(i+1)^2 - g(i)^2| = |g(i+1)-g(i)| * |g(i+1)+g(i)|
                Some(s * (2 * vm + s))
            }
            Fn1::Div { inner, q } => {
                let s = inner.slope_bound(lo, hi)?;
                Some(s / q + 1)
            }
            Fn1::Sum(l, r) => Some(l.slope_bound(lo, hi)? + r.slope_bound(lo, hi)?),
            Fn1::Mod { inner, z, .. } => {
                // within a piece the slope equals the inner slope; across a
                // breakpoint it can jump by up to z.
                let s = inner.slope_bound(lo, hi)?;
                Some(s.max(*z))
            }
        }
    }

    /// For a non-decreasing `f` on `[lo, hi]`: the least `i` with
    /// `f(i) >= y`, or `None` if `f(hi) < y`. Exact formula for affine,
    /// bisection otherwise (O(log(hi-lo))).
    pub fn inv_ceil(&self, y: i64, lo: i64, hi: i64) -> Option<i64> {
        if lo > hi {
            return None;
        }
        if let Fn1::Affine { a, c } = self {
            if *a > 0 {
                let i = vcal_numth::div_ceil(y - c, *a).max(lo);
                return (i <= hi).then_some(i);
            }
        }
        debug_assert!(
            self.monotonicity(lo, hi).is_non_decreasing(),
            "inv_ceil requires non-decreasing f, got {:?}",
            self.monotonicity(lo, hi)
        );
        if self.eval(hi) < y {
            return None;
        }
        if self.eval(lo) >= y {
            return Some(lo);
        }
        // invariant: f(a) < y <= f(b)
        let (mut a, mut b) = (lo, hi);
        while b - a > 1 {
            let m = a + (b - a) / 2;
            if self.eval(m) >= y {
                b = m;
            } else {
                a = m;
            }
        }
        Some(b)
    }

    /// For a non-decreasing `f` on `[lo, hi]`: the greatest `i` with
    /// `f(i) <= y`, or `None` if `f(lo) > y`.
    pub fn inv_floor(&self, y: i64, lo: i64, hi: i64) -> Option<i64> {
        if lo > hi {
            return None;
        }
        if let Fn1::Affine { a, c } = self {
            if *a > 0 {
                let i = div_floor(y - c, *a).min(hi);
                return (i >= lo).then_some(i);
            }
        }
        debug_assert!(
            self.monotonicity(lo, hi).is_non_decreasing(),
            "inv_floor requires non-decreasing f, got {:?}",
            self.monotonicity(lo, hi)
        );
        if self.eval(lo) > y {
            return None;
        }
        if self.eval(hi) <= y {
            return Some(hi);
        }
        // invariant: f(a) <= y < f(b)
        let (mut a, mut b) = (lo, hi);
        while b - a > 1 {
            let m = a + (b - a) / 2;
            if self.eval(m) <= y {
                a = m;
            } else {
                b = m;
            }
        }
        Some(a)
    }

    /// The contiguous sub-range of the monotone domain `[lo, hi]` whose
    /// image lies in `[y_lo, y_hi]` — the primitive of Theorem 2:
    /// `j_min = max(imin, ceil(f^{-1}(L)))`, `j_max = min(imax, floor(f^{-1}(U)))`,
    /// generalized to either monotone direction ("the theorems are also
    /// valid for monotonic decreasing functions, provided the arguments of
    /// `f^{-1}` are exchanged"). Returns `None` when empty or non-monotone.
    pub fn preimage_range(&self, y_lo: i64, y_hi: i64, lo: i64, hi: i64) -> Option<(i64, i64)> {
        if lo > hi || y_lo > y_hi {
            return None;
        }
        let m = self.monotonicity(lo, hi);
        if m.is_non_decreasing() {
            let a = self.inv_ceil(y_lo, lo, hi)?;
            let b = self.inv_floor(y_hi, lo, hi)?;
            (a <= b).then_some((a, b))
        } else if m.is_non_increasing() {
            // indices with f(i) <= y_hi form a suffix; with f(i) >= y_lo a
            // prefix. Intersect suffix-start .. prefix-end.
            let start = {
                if self.eval(hi) > y_hi {
                    return None;
                }
                if self.eval(lo) <= y_hi {
                    lo
                } else {
                    // f(a) > y_hi >= f(b)
                    let (mut a, mut b) = (lo, hi);
                    while b - a > 1 {
                        let mid = a + (b - a) / 2;
                        if self.eval(mid) <= y_hi {
                            b = mid;
                        } else {
                            a = mid;
                        }
                    }
                    b
                }
            };
            let end = {
                if self.eval(lo) < y_lo {
                    return None;
                }
                if self.eval(hi) >= y_lo {
                    hi
                } else {
                    // f(a) >= y_lo > f(b)
                    let (mut a, mut b) = (lo, hi);
                    while b - a > 1 {
                        let mid = a + (b - a) / 2;
                        if self.eval(mid) >= y_lo {
                            a = mid;
                        } else {
                            b = mid;
                        }
                    }
                    a
                }
            };
            (start <= end).then_some((start, end))
        } else {
            None
        }
    }

    /// A value `f(i)`, `i ∈ [lo, hi]`, outside `[min, max]`, if any:
    /// checked at the ends of each monotone piece, or by one walk over
    /// the range where `f` has no such pieces.
    pub fn first_outside(&self, lo: i64, hi: i64, min: i64, max: i64) -> Option<i64> {
        let outside = |v: i64| (!(min..=max).contains(&v)).then_some(v);
        match self.monotone_pieces(lo, hi) {
            Some(pieces) => (pieces.iter())
                .flat_map(|pc| [pc.f.eval(pc.lo), pc.f.eval(pc.hi)])
                .find_map(outside),
            None => (lo..=hi).find_map(|i| outside(self.eval(i))),
        }
    }

    /// Split a `Mod` function into breakpoint-free monotone pieces
    /// (Section 3.3). For non-`Mod` monotone functions returns the single
    /// trivial piece. Returns `None` if the structure is not piecewise
    /// monotonic (inner not monotone).
    pub fn monotone_pieces(&self, lo: i64, hi: i64) -> Option<Vec<MonotonePiece>> {
        if lo > hi {
            return Some(Vec::new());
        }
        match self {
            Fn1::Mod { inner, z, d } => {
                let mi = inner.monotonicity(lo, hi);
                if !mi.is_monotone() {
                    return None;
                }
                let mut pieces = Vec::new();
                let mut cur = lo;
                // On each piece `inner(i) div z` equals a constant k, so
                // f(i) = inner(i) - z*k + d there. The k-value is monotone
                // in i, so each piece is a contiguous run found by
                // bisection on the run predicate.
                while cur <= hi {
                    let k = div_floor(inner.eval(cur), *z);
                    let end = last_with(cur, hi, |i| div_floor(inner.eval(i), *z) == k);
                    let demod =
                        Fn1::Sum(inner.clone(), Box::new(Fn1::Const(-z * k + d))).simplify();
                    pieces.push(MonotonePiece {
                        lo: cur,
                        hi: end,
                        f: demod,
                    });
                    cur = end + 1;
                }
                Some(pieces)
            }
            f => {
                if f.monotonicity(lo, hi).is_monotone() {
                    Some(vec![MonotonePiece {
                        lo,
                        hi,
                        f: f.clone(),
                    }])
                } else {
                    None
                }
            }
        }
    }

    /// Whether `f` is injective on `[lo, hi]` (required for owner-computes
    /// writes to be race-free, and by Section 3.3's rotate views, which
    /// demand `z > g(imax) - g(imin)`).
    pub fn is_injective(&self, lo: i64, hi: i64) -> bool {
        if lo >= hi {
            return true;
        }
        match self.monotonicity(lo, hi) {
            Monotonicity::Increasing | Monotonicity::Decreasing => true,
            Monotonicity::Constant => false,
            Monotonicity::Piecewise => {
                if let Fn1::Mod { inner, z, .. } = self {
                    // paper's condition: injective iff z > g(imax) - g(imin)
                    let (a, b) = (inner.eval(lo), inner.eval(hi));
                    (b - a).abs() < *z
                        && matches!(
                            inner.monotonicity(lo, hi),
                            Monotonicity::Increasing | Monotonicity::Decreasing
                        )
                } else {
                    false
                }
            }
            _ => {
                // brute check for small domains only
                if hi - lo <= 4096 {
                    let mut seen = std::collections::HashSet::new();
                    (lo..=hi).all(|i| seen.insert(self.eval(i)))
                } else {
                    false
                }
            }
        }
    }
}

/// Find the largest `i` in `[lo, hi]` such that `pred` holds for the whole
/// prefix `[lo, i]`, assuming `pred(lo)` holds and the true-region is a
/// prefix. Gallop + bisect, O(log(hi-lo)) predicate evaluations.
fn last_with(lo: i64, hi: i64, pred: impl Fn(i64) -> bool) -> i64 {
    debug_assert!(pred(lo));
    if pred(hi) {
        return hi;
    }
    // invariant: pred(a) && !pred(b)
    let (mut a, mut b) = (lo, hi);
    while b - a > 1 {
        let m = a + (b - a) / 2;
        if pred(m) {
            a = m;
        } else {
            b = m;
        }
    }
    a
}

fn flip(m: Monotonicity) -> Monotonicity {
    match m {
        Monotonicity::Increasing => Monotonicity::Decreasing,
        Monotonicity::Decreasing => Monotonicity::Increasing,
        Monotonicity::WeaklyIncreasing => Monotonicity::WeaklyDecreasing,
        Monotonicity::WeaklyDecreasing => Monotonicity::WeaklyIncreasing,
        other => other,
    }
}

fn weaken(m: Monotonicity) -> Monotonicity {
    match m {
        Monotonicity::Increasing => Monotonicity::WeaklyIncreasing,
        Monotonicity::Decreasing => Monotonicity::WeaklyDecreasing,
        other => other,
    }
}

/// Keep the strict/weak quality of `m` but in the direction of `dir`.
fn strengthen_like(m: Monotonicity, dir: Monotonicity) -> Monotonicity {
    let strict = matches!(m, Monotonicity::Increasing | Monotonicity::Decreasing);
    match (dir, strict) {
        (Monotonicity::Increasing, true) => Monotonicity::Increasing,
        (Monotonicity::Increasing, false) => Monotonicity::WeaklyIncreasing,
        (Monotonicity::Decreasing, true) => Monotonicity::Decreasing,
        (Monotonicity::Decreasing, false) => Monotonicity::WeaklyDecreasing,
        _ => m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_preimage(f: &Fn1, y_lo: i64, y_hi: i64, lo: i64, hi: i64) {
        let brute: Vec<i64> = (lo..=hi)
            .filter(|&i| (y_lo..=y_hi).contains(&f.eval(i)))
            .collect();
        match f.preimage_range(y_lo, y_hi, lo, hi) {
            Some((a, b)) => {
                let got: Vec<i64> = (a..=b).collect();
                assert_eq!(got, brute, "f={f:?} y=[{y_lo},{y_hi}] dom=[{lo},{hi}]");
            }
            None => assert!(
                brute.is_empty(),
                "preimage said empty but brute={brute:?} f={f:?} y=[{y_lo},{y_hi}]"
            ),
        }
    }

    #[test]
    fn eval_basics() {
        assert_eq!(Fn1::Const(5).eval(100), 5);
        assert_eq!(Fn1::affine(3, -1).eval(4), 11);
        assert_eq!(Fn1::rotate(6, 20).eval(18), 4);
        assert_eq!(Fn1::square().eval(-3), 9);
        assert_eq!(Fn1::i_plus_i_div(4).eval(7), 8); // 7 + floor(7/4)
    }

    #[test]
    fn compose_affine_closed() {
        let f = Fn1::affine(2, 3);
        let g = Fn1::affine(5, -1);
        let fg = f.compose(&g);
        assert_eq!(fg, Fn1::affine(10, 1));
        for i in -10..10 {
            assert_eq!(fg.eval(i), f.eval(g.eval(i)));
        }
    }

    #[test]
    fn compose_example5_of_paper() {
        // V: ip_v(i) = i + 2;  W: ip_w(i) = 2*i.  ip_{v∘w} = ip_w ∘ ip_v per
        // Definition 5, i.e. 2*(i+2) = 2i + 4.
        let ipv = Fn1::shift(2);
        let ipw = Fn1::affine(2, 0);
        let composed = ipw.compose(&ipv);
        assert_eq!(composed, Fn1::affine(2, 4));
    }

    #[test]
    fn compose_preserves_semantics_for_mixed_shapes() {
        let shapes = vec![
            Fn1::Const(7),
            Fn1::affine(3, -2),
            Fn1::rotate(6, 20),
            Fn1::i_plus_i_div(4),
            Fn1::square(),
            Fn1::Div {
                inner: Box::new(Fn1::affine(2, 1)),
                q: 3,
            },
        ];
        for f in &shapes {
            for g in &shapes {
                let fg = f.compose(g);
                for i in 0..25 {
                    assert_eq!(fg.eval(i), f.eval(g.eval(i)), "f={f:?} g={g:?} i={i}");
                }
            }
        }
    }

    #[test]
    fn simplify_folds() {
        let s = Fn1::Sum(Box::new(Fn1::affine(2, 1)), Box::new(Fn1::Const(4))).simplify();
        assert_eq!(s, Fn1::affine(2, 5));
        let d = Fn1::Div {
            inner: Box::new(Fn1::Const(9)),
            q: 2,
        }
        .simplify();
        assert_eq!(d, Fn1::Const(4));
        let m = Fn1::Mod {
            inner: Box::new(Fn1::Const(26)),
            z: 20,
            d: 1,
        }
        .simplify();
        assert_eq!(m, Fn1::Const(7));
        let sc = Fn1::Scaled {
            a: 3,
            c: 1,
            inner: Box::new(Fn1::affine(2, 5)),
        }
        .simplify();
        assert_eq!(sc, Fn1::affine(6, 16));
    }

    #[test]
    fn monotonicity_classification() {
        assert_eq!(Fn1::Const(3).monotonicity(0, 9), Monotonicity::Constant);
        assert_eq!(
            Fn1::affine(2, 0).monotonicity(0, 9),
            Monotonicity::Increasing
        );
        assert_eq!(
            Fn1::affine(-1, 5).monotonicity(0, 9),
            Monotonicity::Decreasing
        );
        assert_eq!(Fn1::square().monotonicity(0, 9), Monotonicity::Increasing);
        assert_eq!(Fn1::square().monotonicity(-9, -1), Monotonicity::Decreasing);
        assert_eq!(Fn1::square().monotonicity(-3, 3), Monotonicity::Unknown);
        let div4 = Fn1::Div {
            inner: Box::new(Fn1::identity()),
            q: 4,
        };
        assert_eq!(div4.monotonicity(0, 20), Monotonicity::WeaklyIncreasing);
        assert_eq!(
            Fn1::i_plus_i_div(4).monotonicity(0, 20),
            Monotonicity::Increasing
        );
        assert_eq!(
            Fn1::rotate(6, 20).monotonicity(0, 19),
            Monotonicity::Piecewise
        );
        // rotate with no wrap in the domain stays plain monotone
        assert_eq!(
            Fn1::rotate(6, 20).monotonicity(0, 13),
            Monotonicity::Increasing
        );
    }

    #[test]
    fn inverse_bounds_affine_exact() {
        let f = Fn1::affine(3, 2); // 2,5,8,11,...
        assert_eq!(f.inv_ceil(6, 0, 100), Some(2)); // f(2)=8 >= 6
        assert_eq!(f.inv_floor(6, 0, 100), Some(1)); // f(1)=5 <= 6
        assert_eq!(f.inv_ceil(1000, 0, 10), None);
        assert_eq!(f.inv_floor(1, 0, 10), None);
    }

    #[test]
    fn inverse_bounds_bisection_matches_brute() {
        let funcs = vec![
            Fn1::square(),
            Fn1::i_plus_i_div(4),
            Fn1::Div {
                inner: Box::new(Fn1::affine(3, 1)),
                q: 2,
            },
        ];
        for f in &funcs {
            for y in -5..150 {
                let brute_ceil = (0..=40).find(|&i| f.eval(i) >= y);
                let brute_floor = (0..=40).rev().find(|&i| f.eval(i) <= y);
                assert_eq!(f.inv_ceil(y, 0, 40), brute_ceil, "inv_ceil f={f:?} y={y}");
                assert_eq!(
                    f.inv_floor(y, 0, 40),
                    brute_floor,
                    "inv_floor f={f:?} y={y}"
                );
            }
        }
    }

    #[test]
    fn preimage_ranges_increasing_and_decreasing() {
        check_preimage(&Fn1::affine(2, 1), 5, 15, 0, 20);
        check_preimage(&Fn1::affine(-3, 50), 10, 30, 0, 20);
        check_preimage(&Fn1::square(), 9, 80, 0, 20);
        check_preimage(&Fn1::square(), 9, 80, -20, 0);
        check_preimage(&Fn1::affine(2, 1), 100, 200, 0, 20);
        check_preimage(&Fn1::affine(-1, 0), -5, 5, 0, 20);
        let idiv = Fn1::i_plus_i_div(4);
        for ylo in 0..30 {
            check_preimage(&idiv, ylo, ylo + 7, 0, 40);
        }
        // decreasing non-affine
        let neg_sq = Fn1::Scaled {
            a: -1,
            c: 100,
            inner: Box::new(Fn1::square()),
        };
        for ylo in (0..100).step_by(13) {
            check_preimage(&neg_sq, ylo, ylo + 20, 0, 12);
        }
    }

    #[test]
    fn rotate_pieces_match_paper() {
        // f(i) = (i+6) mod 20 on 0..=19: breakpoint at i=14
        // (inner(14)=20 wraps). Pieces: [0,13] -> i+6, [14,19] -> i-14.
        let f = Fn1::rotate(6, 20);
        let pieces = f.monotone_pieces(0, 19).unwrap();
        assert_eq!(pieces.len(), 2);
        assert_eq!(
            pieces[0],
            MonotonePiece {
                lo: 0,
                hi: 13,
                f: Fn1::affine(1, 6)
            }
        );
        assert_eq!(
            pieces[1],
            MonotonePiece {
                lo: 14,
                hi: 19,
                f: Fn1::affine(1, -14)
            }
        );
        for p in &pieces {
            for i in p.lo..=p.hi {
                assert_eq!(p.f.eval(i), f.eval(i));
            }
        }
    }

    #[test]
    fn pieces_of_plain_monotone_is_trivial() {
        let f = Fn1::affine(2, 0);
        let pieces = f.monotone_pieces(0, 9).unwrap();
        assert_eq!(
            pieces,
            vec![MonotonePiece {
                lo: 0,
                hi: 9,
                f: Fn1::affine(2, 0)
            }]
        );
    }

    #[test]
    fn pieces_multiple_wraps() {
        // (3i) mod 10 on 0..=9 wraps at ceil(10/3)=4 and at 7
        let f = Fn1::Mod {
            inner: Box::new(Fn1::affine(3, 0)),
            z: 10,
            d: 0,
        };
        let pieces = f.monotone_pieces(0, 9).unwrap();
        let mut covered = 0;
        for p in &pieces {
            for i in p.lo..=p.hi {
                assert_eq!(p.f.eval(i), f.eval(i), "piece {p:?} at {i}");
                covered += 1;
            }
            assert!(p.f.monotonicity(p.lo, p.hi).is_monotone());
        }
        assert_eq!(covered, 10);
        assert_eq!(pieces.len(), 3);
    }

    #[test]
    fn pieces_with_decreasing_inner() {
        let f = Fn1::Mod {
            inner: Box::new(Fn1::affine(-3, 25)),
            z: 10,
            d: 0,
        };
        let pieces = f.monotone_pieces(0, 9).unwrap();
        let mut covered = 0;
        for p in &pieces {
            for i in p.lo..=p.hi {
                assert_eq!(p.f.eval(i), f.eval(i), "piece {p:?} at {i}");
                covered += 1;
            }
        }
        assert_eq!(covered, 10);
    }

    #[test]
    fn injectivity() {
        assert!(Fn1::affine(2, 1).is_injective(0, 100));
        assert!(!Fn1::Const(3).is_injective(0, 1));
        // rotate injective iff z > span
        assert!(Fn1::rotate(6, 20).is_injective(0, 19));
        assert!(!Fn1::rotate(6, 20).is_injective(0, 25));
        assert!(Fn1::square().is_injective(0, 50));
        assert!(!Fn1::square().is_injective(-5, 5));
    }

    #[test]
    fn slope_bounds_are_valid() {
        let cases = vec![
            (Fn1::affine(5, 2), 0i64, 100i64),
            (Fn1::square(), 0, 50),
            (Fn1::i_plus_i_div(4), 0, 50),
            (Fn1::rotate(6, 20), 0, 19),
        ];
        for (f, lo, hi) in cases {
            let s = f.slope_bound(lo, hi).unwrap();
            for i in lo..hi {
                assert!(
                    (f.eval(i + 1) - f.eval(i)).abs() <= s,
                    "slope bound {s} violated at {i} for {f:?}"
                );
            }
        }
    }
}
