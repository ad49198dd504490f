//! Clauses (paper Section 2.4): state-to-state transformations of the form
//!
//! ```text
//! ∆(i ∈ I) ◊ ( [f(i)](A) := Expr([g(i)](B), ...) )
//! ```
//!
//! with a parameter expression `∆(i ∈ I)` binding the loop index, an
//! ordering operator `◊` (`•` lexicographic-sequential or `//` parallel),
//! an optional *data-dependent* guard (Fig. 1's `A[i] > 0`), one
//! left-hand-side array selection and an element-wise right-hand-side
//! expression over array selections.

use crate::map::IndexMap;
use crate::pred::CmpOp;
use crate::set::IndexSet;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The ordering operator `◊` of a parameter expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ordering {
    /// `•` — lexicographic sequential ordering.
    Seq,
    /// `//` — no ordering; selections may execute in parallel.
    Par,
}

impl Ordering {
    /// Paper glyph.
    pub fn symbol(self) -> &'static str {
        match self {
            Ordering::Seq => "\u{2022}",
            Ordering::Par => "//",
        }
    }
}

/// A selection `[map(i)](array)` of a named data structure.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct ArrayRef {
    /// Array name.
    pub array: String,
    /// Index propagation function from the loop index to the array index.
    pub map: IndexMap,
}

impl ArrayRef {
    /// Build a reference.
    pub fn new(array: impl Into<String>, map: IndexMap) -> Self {
        ArrayRef {
            array: array.into(),
            map,
        }
    }

    /// 1-D convenience.
    pub fn d1(array: impl Into<String>, f: crate::func::Fn1) -> Self {
        ArrayRef {
            array: array.into(),
            map: IndexMap::d1(f),
        }
    }
}

impl fmt::Display for ArrayRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.map, self.array)
    }
}

/// Scalar binary operators available in element-wise expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// minimum
    Min,
    /// maximum
    Max,
}

impl BinOp {
    /// Apply to two values.
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
        }
    }

    /// Source symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Min => "min",
            BinOp::Max => "max",
        }
    }
}

/// An element-wise right-hand-side expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// An array selection `[g(i)](B)`.
    Ref(ArrayRef),
    /// A floating-point literal.
    Lit(f64),
    /// The loop index coordinate `i[dim]` as a value (useful for
    /// initializations like `A[i] := i`).
    LoopVar {
        /// Which loop dimension to read.
        dim: usize,
    },
    /// Unary negation.
    Neg(Box<Expr>),
    /// A binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// All array references appearing in the expression.
    pub fn refs(&self) -> Vec<&ArrayRef> {
        let mut out = Vec::new();
        self.any_ref(&mut |r| {
            out.push(r);
            false
        });
        out
    }

    /// Whether some array reference satisfies `f`, visited in reference
    /// order up to the first that does — [`Expr::refs`] without the
    /// allocation.
    pub fn any_ref<'a>(&'a self, f: &mut impl FnMut(&'a ArrayRef) -> bool) -> bool {
        match self {
            Expr::Ref(r) => f(r),
            Expr::Lit(_) | Expr::LoopVar { .. } => false,
            Expr::Neg(e) => e.any_ref(f),
            Expr::Bin(_, a, b) => a.any_ref(f) || b.any_ref(f),
        }
    }

    /// Convenience: `a + b`.
    #[allow(clippy::should_implement_trait)] // constructor, not an operator on self
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Add, Box::new(a), Box::new(b))
    }

    /// Convenience: `a * b`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Mul, Box::new(a), Box::new(b))
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Ref(r) => write!(f, "{r}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::LoopVar { dim } => {
                if *dim == 0 {
                    write!(f, "i")
                } else {
                    write!(f, "i{dim}")
                }
            }
            Expr::Neg(e) => write!(f, "-({e})"),
            Expr::Bin(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
        }
    }
}

/// Structural: a literal hashes by its bits, so `0.0` and `-0.0`, or two
/// NaN payloads, hash apart although `==` calls the first pair equal —
/// they compile to different kernels.
impl Hash for Expr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Expr::Ref(r) => r.hash(state),
            Expr::Lit(v) => v.to_bits().hash(state),
            Expr::LoopVar { dim } => dim.hash(state),
            Expr::Neg(e) => e.hash(state),
            Expr::Bin(op, a, b) => (op, a, b).hash(state),
        }
    }
}

/// A data-dependent guard: unlike [`crate::pred::Pred`], it reads array
/// *values*, so it can never be folded away at compile time — the paper
/// keeps it as a run-time `if` in the generated node programs (Fig. 1).
#[derive(Debug, Clone, PartialEq)]
pub enum Guard {
    /// No guard.
    Always,
    /// `value(lhs) op rhs` — e.g. `A[i] > 0`.
    Cmp {
        /// Guarded array selection.
        lhs: ArrayRef,
        /// Comparison operator.
        op: CmpOp,
        /// Constant to compare with.
        rhs: f64,
    },
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Guard::Always => write!(f, "true"),
            Guard::Cmp { lhs, op, rhs } => write!(f, "{lhs} {} {rhs}", op.symbol()),
        }
    }
}

/// Structural, the constant by its bits (as [`Expr`]'s literals).
impl Hash for Guard {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        if let Guard::Cmp { lhs, op, rhs } = self {
            (lhs, op, rhs.to_bits()).hash(state);
        }
    }
}

/// Reduction operators over multi-dimensional selections — the paper's
/// element-wise operations (`⊕` as "the multi-dimensional equivalent of
/// the scalar +", Section 2.4) folded to a scalar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Sum.
    Sum,
    /// Product.
    Prod,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl ReduceOp {
    /// The identity element of the reduction.
    pub fn identity(self) -> f64 {
        match self {
            ReduceOp::Sum => 0.0,
            ReduceOp::Prod => 1.0,
            ReduceOp::Min => f64::INFINITY,
            ReduceOp::Max => f64::NEG_INFINITY,
        }
    }

    /// Combine two values.
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Prod => a * b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ReduceOp::Sum => "sum",
            ReduceOp::Prod => "prod",
            ReduceOp::Min => "min",
            ReduceOp::Max => "max",
        }
    }
}

/// A reduction `op{ i ∈ iter : expr(i) }` of an element-wise expression
/// over an index set, e.g. a dot product
/// `sum(i ∈ 0:n-1) [i](A) * [i](B)`.
#[derive(Debug, Clone)]
pub struct Reduction {
    /// The reduced index set.
    pub iter: IndexSet,
    /// The fold operator.
    pub op: ReduceOp,
    /// The element-wise expression.
    pub expr: Expr,
}

impl fmt::Display for Reduction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}(i \u{2208} {}) {}",
            self.op.name(),
            self.iter.bounds,
            self.expr
        )
    }
}

/// A full clause `∆(i ∈ iter) ◊ (guard → lhs := rhs)`. Its [`Hash`] is
/// structural over every field: what a plan-cache key needs.
#[derive(Debug, Clone, Hash)]
pub struct Clause {
    /// The parameter-expression index set `I`.
    pub iter: IndexSet,
    /// The ordering operator `◊`.
    pub ordering: Ordering,
    /// Optional data-dependent guard.
    pub guard: Guard,
    /// The assigned selection `[f(i)](A)`.
    pub lhs: ArrayRef,
    /// The element-wise expression over `[g(i)](B), ...`.
    pub rhs: Expr,
}

impl Clause {
    /// All arrays read by the clause (rhs refs plus guard ref).
    pub fn read_refs(&self) -> Vec<&ArrayRef> {
        let mut refs = Vec::new();
        self.any_read(&mut |r| {
            refs.push(r);
            false
        });
        refs
    }

    /// Whether the written array is also read (forces snapshot semantics
    /// for the `//` ordering).
    pub fn lhs_is_read(&self) -> bool {
        self.reads(&self.lhs.array)
    }

    /// Whether some read reference (rhs, then guard) satisfies `f`,
    /// visited in the order of [`Clause::read_refs`] up to the first that
    /// does, without collecting them.
    pub fn any_read<'a>(&'a self, f: &mut impl FnMut(&'a ArrayRef) -> bool) -> bool {
        self.rhs.any_ref(f) || matches!(&self.guard, Guard::Cmp { lhs, .. } if f(lhs))
    }

    /// Whether the clause reads `array` (rhs or guard).
    pub fn reads(&self, array: &str) -> bool {
        self.any_read(&mut |r| r.array == array)
    }

    /// Whether the clause writes or reads `array`.
    pub fn touches(&self, array: &str) -> bool {
        self.lhs.array == array || self.reads(array)
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\u{2206}(i \u{2208} {}", self.iter.bounds)?;
        if let Guard::Cmp { lhs, op, rhs } = &self.guard {
            write!(f, " | {lhs} {} {rhs}", op.symbol())?;
        }
        if !self.iter.pred.is_true() {
            write!(f, " | {}", self.iter.pred)?;
        }
        write!(
            f,
            ") {} ({} := {})",
            self.ordering.symbol(),
            self.lhs,
            self.rhs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::Fn1;

    fn fig1_clause() -> Clause {
        // ∆(i ∈ (k+1:n | [i]A>0) // ([i](A) := [f(i)](B))  with f(i)=i+1, k=0, n=9
        Clause {
            iter: IndexSet::range(1, 9),
            ordering: Ordering::Par,
            guard: Guard::Cmp {
                lhs: ArrayRef::d1("A", Fn1::identity()),
                op: CmpOp::Gt,
                rhs: 0.0,
            },
            lhs: ArrayRef::d1("A", Fn1::identity()),
            rhs: Expr::Ref(ArrayRef::d1("B", Fn1::shift(1))),
        }
    }

    #[test]
    fn refs_collection() {
        let c = fig1_clause();
        let reads = c.read_refs();
        assert_eq!(reads.len(), 2); // B ref and guard's A ref
        assert!(c.lhs_is_read()); // the guard reads A
    }

    #[test]
    fn lhs_not_read_without_guard() {
        let mut c = fig1_clause();
        c.guard = Guard::Always;
        assert!(!c.lhs_is_read());
    }

    #[test]
    fn display_resembles_paper() {
        let c = fig1_clause();
        let s = c.to_string();
        assert!(s.contains("\u{2206}(i \u{2208} 1:9"), "got {s}");
        assert!(s.contains("//"), "got {s}");
        assert!(s.contains(":="), "got {s}");
    }

    #[test]
    fn expr_display_and_eval_helpers() {
        let e = Expr::add(
            Expr::Lit(1.0),
            Expr::mul(Expr::Lit(2.0), Expr::LoopVar { dim: 0 }),
        );
        assert_eq!(e.to_string(), "(1 + (2 * i))");
        assert_eq!(BinOp::Min.apply(2.0, 3.0), 2.0);
        assert_eq!(BinOp::Max.apply(2.0, 3.0), 3.0);
        assert_eq!(BinOp::Sub.apply(2.0, 3.0), -1.0);
        assert_eq!(BinOp::Div.apply(3.0, 2.0), 1.5);
    }
}
