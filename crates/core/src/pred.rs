//! Index predicates (the `P` of Definition 2).
//!
//! These are the *compile-time decidable* predicates over index points that
//! make a bounded set into an index set. Data-dependent guards (such as
//! Fig. 1's `A[i] > 0`) are deliberately **not** representable here — the
//! paper keeps them as run-time conditions inside the generated node
//! programs; they live in [`crate::clause::Guard`] instead.

use crate::func::Fn1;
use crate::ix::Ix;
use crate::map::display_fn1;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Comparison operators for predicates and guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply to an ordered pair.
    #[inline]
    pub fn holds<T: PartialOrd>(self, lhs: T, rhs: T) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }

    /// Source form (`==`, `<`, …).
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "\u{2260}",
            CmpOp::Lt => "<",
            CmpOp::Le => "\u{2264}",
            CmpOp::Gt => ">",
            CmpOp::Ge => "\u{2265}",
        }
    }
}

/// A decidable predicate over index points.
#[derive(Clone)]
pub enum Pred {
    /// Always true — the plain bounded set.
    True,
    /// Always false — the empty refinement.
    False,
    /// `f(i[dim]) op rhs`.
    Cmp {
        /// Input dimension the predicate inspects.
        dim: usize,
        /// Function applied to that coordinate.
        f: Fn1,
        /// Comparison operator.
        op: CmpOp,
        /// Right-hand constant.
        rhs: i64,
    },
    /// `i[dim_a] op i[dim_b]` — inter-dimension comparison
    /// (paper Example 2: `P((i1,i2)) = i1 <= i2`).
    DimCmp {
        /// Left dimension.
        dim_a: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Right dimension.
        dim_b: usize,
    },
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
    /// Disjunction.
    Or(Box<Pred>, Box<Pred>),
    /// Negation.
    Not(Box<Pred>),
    /// Escape hatch for predicates with no structural form (kept opaque to
    /// the optimizer, which will fall back to naive enumeration).
    Opaque {
        /// Display label.
        label: String,
        /// The predicate function.
        f: Arc<dyn Fn(&Ix) -> bool + Send + Sync>,
    },
}

impl Pred {
    /// Evaluate at an index point.
    pub fn eval(&self, i: &Ix) -> bool {
        match self {
            Pred::True => true,
            Pred::False => false,
            Pred::Cmp { dim, f, op, rhs } => op.holds(f.eval(i[*dim]), *rhs),
            Pred::DimCmp { dim_a, op, dim_b } => op.holds(i[*dim_a], i[*dim_b]),
            Pred::And(a, b) => a.eval(i) && b.eval(i),
            Pred::Or(a, b) => a.eval(i) || b.eval(i),
            Pred::Not(a) => !a.eval(i),
            Pred::Opaque { f, .. } => f(i),
        }
    }

    /// Conjunction, short-circuiting trivial cases.
    pub fn and(self, other: Pred) -> Pred {
        match (self, other) {
            (Pred::True, p) | (p, Pred::True) => p,
            (Pred::False, _) | (_, Pred::False) => Pred::False,
            (a, b) => Pred::And(Box::new(a), Box::new(b)),
        }
    }

    /// The paper's `P ∘ ip` — precompose the predicate with an index map,
    /// yielding a predicate on the *parameter* index (Definition 4/5).
    pub fn compose_map(&self, ip: &crate::map::IndexMap) -> Pred {
        match self {
            Pred::True => Pred::True,
            Pred::False => Pred::False,
            Pred::Cmp { dim, f, op, rhs } => {
                let df = &ip.dims()[*dim];
                Pred::Cmp {
                    dim: df.src,
                    f: f.compose(&df.f),
                    op: *op,
                    rhs: *rhs,
                }
            }
            Pred::DimCmp { dim_a, op, dim_b } => {
                let da = &ip.dims()[*dim_a];
                let db = &ip.dims()[*dim_b];
                // i[dim_a] op i[dim_b] becomes fa(j[sa]) op fb(j[sb]); only
                // representable structurally when both are identity — fall
                // back to an opaque closure otherwise.
                if da.f == Fn1::identity() && db.f == Fn1::identity() {
                    Pred::DimCmp {
                        dim_a: da.src,
                        op: *op,
                        dim_b: db.src,
                    }
                } else {
                    let (fa, fb, sa, sb, op) = (da.f.clone(), db.f.clone(), da.src, db.src, *op);
                    Pred::Opaque {
                        label: "dimcmp\u{2218}map".to_string(),
                        f: Arc::new(move |i: &Ix| op.holds(fa.eval(i[sa]), fb.eval(i[sb]))),
                    }
                }
            }
            Pred::And(a, b) => a.compose_map(ip).and(b.compose_map(ip)),
            Pred::Or(a, b) => Pred::Or(Box::new(a.compose_map(ip)), Box::new(b.compose_map(ip))),
            Pred::Not(a) => Pred::Not(Box::new(a.compose_map(ip))),
            Pred::Opaque { label, f } => {
                let ip = ip.clone();
                let f = Arc::clone(f);
                Pred::Opaque {
                    label: format!("{label}\u{2218}map"),
                    f: Arc::new(move |i: &Ix| f(&ip.eval(i))),
                }
            }
        }
    }

    /// Whether the predicate is structurally `True`.
    pub fn is_true(&self) -> bool {
        matches!(self, Pred::True)
    }
}

/// Structural; an opaque predicate hashes by its label, all its `Debug`
/// form shows of it.
impl Hash for Pred {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Pred::True | Pred::False => {}
            Pred::Cmp { dim, f, op, rhs } => (dim, f, op, rhs).hash(state),
            Pred::DimCmp { dim_a, op, dim_b } => (dim_a, op, dim_b).hash(state),
            Pred::And(a, b) | Pred::Or(a, b) => (a, b).hash(state),
            Pred::Not(a) => a.hash(state),
            Pred::Opaque { label, .. } => label.hash(state),
        }
    }
}

impl fmt::Debug for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pred({self})")
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::True => write!(f, "true"),
            Pred::False => write!(f, "false"),
            Pred::Cmp {
                dim,
                f: func,
                op,
                rhs,
            } => {
                let var = if *dim == 0 {
                    "i".to_string()
                } else {
                    format!("i{dim}")
                };
                write!(f, "{} {} {}", display_fn1(func, &var), op.symbol(), rhs)
            }
            Pred::DimCmp { dim_a, op, dim_b } => {
                write!(f, "i{dim_a} {} i{dim_b}", op.symbol())
            }
            Pred::And(a, b) => write!(f, "({a} \u{2227} {b})"),
            Pred::Or(a, b) => write!(f, "({a} \u{2228} {b})"),
            Pred::Not(a) => write!(f, "\u{ac}({a})"),
            Pred::Opaque { label, .. } => write!(f, "<{label}>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::IndexMap;

    #[test]
    fn cmp_ops() {
        assert!(CmpOp::Le.holds(2, 2));
        assert!(CmpOp::Lt.holds(1, 2));
        assert!(!CmpOp::Gt.holds(1, 2));
        assert!(CmpOp::Ne.holds(1, 2));
    }

    #[test]
    fn paper_example_2_predicate() {
        // I = (0:2 x 0:2, P) with P((i1,i2)) = i1 <= i2
        // yields {(0,1),(0,2),(1,2)} among off-diagonal... actually the
        // paper lists exactly {(0,1),(0,2),(1,2)} (strict <) — the text
        // writes i1 <= i2 but the set shown is strict; we follow the set.
        let p = Pred::DimCmp {
            dim_a: 0,
            op: CmpOp::Lt,
            dim_b: 1,
        };
        let sel: Vec<Ix> = crate::bounds::Bounds::range2(0, 2, 0, 2)
            .iter()
            .filter(|i| p.eval(i))
            .collect();
        assert_eq!(sel, vec![Ix::d2(0, 1), Ix::d2(0, 2), Ix::d2(1, 2)]);
    }

    #[test]
    fn and_or_not() {
        let ge1 = Pred::Cmp {
            dim: 0,
            f: Fn1::identity(),
            op: CmpOp::Ge,
            rhs: 1,
        };
        let lt3 = Pred::Cmp {
            dim: 0,
            f: Fn1::identity(),
            op: CmpOp::Lt,
            rhs: 3,
        };
        let both = ge1.clone().and(lt3);
        assert!(!both.eval(&Ix::d1(0)));
        assert!(both.eval(&Ix::d1(1)));
        assert!(both.eval(&Ix::d1(2)));
        assert!(!both.eval(&Ix::d1(3)));
        let not = Pred::Not(Box::new(ge1));
        assert!(not.eval(&Ix::d1(0)));
        assert!(!not.eval(&Ix::d1(5)));
    }

    #[test]
    fn and_simplifies_trivial() {
        assert!(Pred::True.and(Pred::True).is_true());
        assert!(matches!(Pred::True.and(Pred::False), Pred::False));
        let p = Pred::Cmp {
            dim: 0,
            f: Fn1::identity(),
            op: CmpOp::Ge,
            rhs: 1,
        };
        assert!(matches!(Pred::True.and(p), Pred::Cmp { .. }));
    }

    #[test]
    fn compose_map_shifts_predicate() {
        // P(i) = i >= 4 composed with ip(i) = i + 2 gives i >= 2
        // (paper Example 5's predicate composition).
        let p = Pred::Cmp {
            dim: 0,
            f: Fn1::identity(),
            op: CmpOp::Ge,
            rhs: 4,
        };
        let ip = IndexMap::d1(Fn1::shift(2));
        let q = p.compose_map(&ip);
        for i in -10..10 {
            assert_eq!(q.eval(&Ix::d1(i)), i + 2 >= 4);
        }
    }

    #[test]
    fn compose_map_on_permutation() {
        let p = Pred::DimCmp {
            dim_a: 0,
            op: CmpOp::Lt,
            dim_b: 1,
        };
        let t = IndexMap::permutation(2, &[1, 0]);
        let q = p.compose_map(&t);
        // q(i0,i1) = p(i1,i0) = i1 < i0
        assert!(q.eval(&Ix::d2(5, 2)));
        assert!(!q.eval(&Ix::d2(2, 5)));
    }

    #[test]
    fn opaque_composition() {
        let p = Pred::Opaque {
            label: "even".into(),
            f: Arc::new(|i: &Ix| i[0] % 2 == 0),
        };
        let ip = IndexMap::d1(Fn1::affine(3, 1));
        let q = p.compose_map(&ip);
        for i in 0..10 {
            assert_eq!(q.eval(&Ix::d1(i)), (3 * i + 1) % 2 == 0);
        }
    }
}
