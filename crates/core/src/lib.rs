//! # vcal-core — the V-cal view calculus
//!
//! A from-scratch implementation of the calculus of Paalvast, Sips &
//! van Gemund, *"Automatic Parallel Program Generation and Optimization
//! from Data Decompositions"* (ICPP 1991):
//!
//! * [`ix`] / [`bounds`] — index points and bounded sets (Definition 1);
//! * [`set`] / [`pred`] — index sets `(b, P)` (Definition 2);
//! * [`func`] / [`map`] — symbolic index-propagation functions
//!   (Definition 3) with the structure Section 3's optimizations need:
//!   composition, inverses, monotonicity, breakpoints;
//! * [`view`] — views and view composition (Definitions 4–5);
//! * [`clause`] / [`env`] — executable clauses
//!   `∆(i ∈ I) ◊ [f(i)](A) := Expr([g(i)](B))` and the sequential
//!   reference executor every generated SPMD program must agree with;
//! * [`term`] — the symbolic term language and the paper's rewrite rules
//!   (decomposition substitution, contraction, renaming, interchange) for
//!   deriving and printing the Eq. (1) → Eq. (3) SPMD chain.
//!
//! Data decompositions themselves live in `vcal-decomp`; the Table I
//! optimizer and SPMD code generation in `vcal-spmd`.
#![warn(missing_docs)]

pub mod bounds;
pub mod clause;
pub mod env;
pub mod func;
pub mod ix;
pub mod map;
pub mod pred;
pub mod set;
pub mod term;
pub mod view;
pub mod viewed;

pub use bounds::Bounds;
pub use clause::{ArrayRef, BinOp, Clause, Expr, Guard, Ordering};
pub use env::{Array, Env};
pub use func::{Fn1, Monotonicity};
pub use ix::Ix;
pub use map::{DimFn, IndexMap};
pub use pred::{CmpOp, Pred};
pub use set::IndexSet;
pub use term::Term;
pub use view::{DpMap, View};
pub use viewed::ViewedArray;

/// Deepest nesting of boxed terms ([`Fn1`], [`Pred`], [`Expr`]) an entry
/// point accepts. The parser refuses deeper source and the wire codec
/// deeper records, so a recursive walk over any term it admits stays
/// well inside a thread's stack.
pub const MAX_DEPTH: usize = 256;
