//! Array environments and the sequential *reference* executor.
//!
//! Every machine in `vcal-machine` (shared-memory threads, simulated
//! distributed nodes) must produce exactly the state this executor
//! produces; the integration tests enforce that equivalence.

use crate::bounds::Bounds;
use crate::clause::{Clause, Expr, Guard, Ordering};
use crate::ix::Ix;
use std::collections::BTreeMap;
use std::fmt;

/// A dense multi-dimensional array of `f64` over an inclusive [`Bounds`]
/// box, stored row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Array {
    bounds: Bounds,
    data: Vec<f64>,
}

impl Array {
    /// Zero-filled array over `bounds`.
    pub fn zeros(bounds: Bounds) -> Self {
        Array {
            bounds,
            data: vec![0.0; bounds.count() as usize],
        }
    }

    /// Array filled by `f(index)`.
    pub fn from_fn(bounds: Bounds, mut f: impl FnMut(&Ix) -> f64) -> Self {
        let data = bounds.iter().map(|i| f(&i)).collect();
        Array { bounds, data }
    }

    /// 1-D array from a slice, indexed from 0.
    pub fn from_slice(values: &[f64]) -> Self {
        Array {
            bounds: Bounds::range(0, values.len() as i64 - 1),
            data: values.to_vec(),
        }
    }

    /// The index box of the array.
    pub fn bounds(&self) -> Bounds {
        self.bounds
    }

    /// Read the element at `i`. Panics if out of bounds.
    #[inline]
    pub fn get(&self, i: &Ix) -> f64 {
        self.data[self.bounds.linear_offset(i)]
    }

    /// Write the element at `i`. Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, i: &Ix, v: f64) {
        let off = self.bounds.linear_offset(i);
        self.data[off] = v;
    }

    /// Raw data slice (row-major).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data slice (row-major).
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Largest absolute element-wise difference to another array of the
    /// same bounds. Elements of equal bits differ by zero; a NaN facing
    /// anything else makes the result NaN, so the `== 0.0` the
    /// differential suites assert never mistakes it for agreement.
    pub fn max_abs_diff(&self, other: &Array) -> f64 {
        assert_eq!(
            self.bounds, other.bounds,
            "comparing arrays of different shape"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| match a.to_bits() == b.to_bits() {
                true => 0.0,
                false => (a - b).abs(),
            })
            .fold(
                0.0,
                |max: f64, d| if d > max || d.is_nan() { d } else { max },
            )
    }
}

/// A named collection of arrays — the program state the paper's clauses
/// transform.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Env {
    arrays: BTreeMap<String, Array>,
}

impl Env {
    /// Empty environment.
    pub fn new() -> Self {
        Env::default()
    }

    /// Insert (or replace) an array.
    pub fn insert(&mut self, name: impl Into<String>, array: Array) {
        self.arrays.insert(name.into(), array);
    }

    /// Look up an array.
    pub fn get(&self, name: &str) -> Option<&Array> {
        self.arrays.get(name)
    }

    /// Look up an array mutably.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Array> {
        self.arrays.get_mut(name)
    }

    /// Names of all arrays (sorted).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.arrays.keys().map(String::as_str)
    }

    /// Evaluate an element-wise expression at loop index `i`.
    pub fn eval_expr(&self, e: &Expr, i: &Ix) -> f64 {
        match e {
            Expr::Ref(r) => {
                let arr = self
                    .arrays
                    .get(&r.array)
                    .unwrap_or_else(|| panic!("unknown array `{}`", r.array));
                arr.get(&r.map.eval(i))
            }
            Expr::Lit(v) => *v,
            Expr::LoopVar { dim } => i[*dim] as f64,
            Expr::Neg(e) => -self.eval_expr(e, i),
            Expr::Bin(op, a, b) => op.apply(self.eval_expr(a, i), self.eval_expr(b, i)),
        }
    }

    /// Evaluate a data-dependent guard at loop index `i`.
    pub fn eval_guard(&self, g: &Guard, i: &Ix) -> bool {
        match g {
            Guard::Always => true,
            Guard::Cmp { lhs, op, rhs } => {
                let arr = self
                    .arrays
                    .get(&lhs.array)
                    .unwrap_or_else(|| panic!("unknown array `{}`", lhs.array));
                op.holds(arr.get(&lhs.map.eval(i)), *rhs)
            }
        }
    }

    /// Evaluate a reduction sequentially (in lexicographic index order) —
    /// the reference semantics the parallel reductions are compared to.
    pub fn eval_reduction(&self, r: &crate::clause::Reduction) -> f64 {
        let mut acc = r.op.identity();
        for i in r.iter.iter() {
            acc = r.op.apply(acc, self.eval_expr(&r.expr, &i));
        }
        acc
    }

    /// Execute a clause sequentially — the reference semantics.
    ///
    /// * `•` (Seq): iterate the index set in lexicographic order, reading
    ///   the *current* state (exactly the original imperative loop).
    /// * `//` (Par): selections are unordered and declared independent; to
    ///   give them a deterministic meaning even when the written array is
    ///   also read, the written array is snapshotted first (gather
    ///   semantics). For genuinely independent clauses this coincides with
    ///   in-place evaluation.
    pub fn exec_clause(&mut self, clause: &Clause) {
        match clause.ordering {
            Ordering::Seq => {
                let indices: Vec<Ix> = clause.iter.iter().collect();
                for i in indices {
                    if self.eval_guard(&clause.guard, &i) {
                        let v = self.eval_expr(&clause.rhs, &i);
                        let target = clause.lhs.map.eval(&i);
                        self.get_mut(&clause.lhs.array)
                            .unwrap_or_else(|| panic!("unknown array `{}`", clause.lhs.array))
                            .set(&target, v);
                    }
                }
            }
            Ordering::Par => {
                // snapshot-read semantics: all reads see the pre-state
                let pre = self.clone();
                let writes: Vec<(Ix, f64)> = clause
                    .iter
                    .iter()
                    .filter(|i| pre.eval_guard(&clause.guard, i))
                    .map(|i| (clause.lhs.map.eval(&i), pre.eval_expr(&clause.rhs, &i)))
                    .collect();
                let arr = self
                    .get_mut(&clause.lhs.array)
                    .unwrap_or_else(|| panic!("unknown array `{}`", clause.lhs.array));
                for (target, v) in writes {
                    arr.set(&target, v);
                }
            }
        }
    }
}

impl fmt::Display for Env {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, arr) in &self.arrays {
            writeln!(f, "{name}[{}] = {:?}", arr.bounds(), arr.data())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clause::{ArrayRef, BinOp};
    use crate::func::Fn1;
    use crate::pred::CmpOp;
    use crate::set::IndexSet;

    fn env_ab(n: i64) -> Env {
        let mut env = Env::new();
        env.insert(
            "A",
            Array::from_fn(Bounds::range(0, n - 1), |i| i.scalar() as f64),
        );
        env.insert(
            "B",
            Array::from_fn(Bounds::range(0, n - 1), |i| (10 * i.scalar()) as f64),
        );
        env
    }

    #[test]
    fn array_basics() {
        let mut a = Array::zeros(Bounds::range(0, 4));
        a.set(&Ix::d1(2), 7.5);
        assert_eq!(a.get(&Ix::d1(2)), 7.5);
        assert_eq!(a.get(&Ix::d1(0)), 0.0);
        let b = Array::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(b.bounds(), Bounds::range(0, 2));
        assert_eq!(b.get(&Ix::d1(1)), 2.0);
    }

    #[test]
    fn array_2d_storage() {
        let a = Array::from_fn(Bounds::range2(0, 2, 0, 3), |i| (i[0] * 10 + i[1]) as f64);
        assert_eq!(a.get(&Ix::d2(2, 3)), 23.0);
        assert_eq!(a.get(&Ix::d2(0, 0)), 0.0);
        assert_eq!(a.data().len(), 12);
    }

    #[test]
    fn fig1_guarded_copy() {
        // for i in 1..=4: if A[i] > 2 then A[i] := B[i+1]
        let mut env = env_ab(8);
        let clause = Clause {
            iter: IndexSet::range(1, 4),
            ordering: Ordering::Par,
            guard: Guard::Cmp {
                lhs: ArrayRef::d1("A", Fn1::identity()),
                op: CmpOp::Gt,
                rhs: 2.0,
            },
            lhs: ArrayRef::d1("A", Fn1::identity()),
            rhs: Expr::Ref(ArrayRef::d1("B", Fn1::shift(1))),
        };
        env.exec_clause(&clause);
        let a = env.get("A").unwrap();
        // A was [0,1,2,3,4,...]; only i=3,4 pass the guard (A[i] > 2)
        assert_eq!(a.get(&Ix::d1(1)), 1.0);
        assert_eq!(a.get(&Ix::d1(2)), 2.0);
        assert_eq!(a.get(&Ix::d1(3)), 40.0); // B[4]
        assert_eq!(a.get(&Ix::d1(4)), 50.0); // B[5]
    }

    #[test]
    fn seq_ordering_reads_updated_state() {
        // A[i] := A[i-1] + 1 sequentially: a running increment.
        let mut env = Env::new();
        env.insert("A", Array::from_slice(&[5.0, 0.0, 0.0, 0.0]));
        let clause = Clause {
            iter: IndexSet::range(1, 3),
            ordering: Ordering::Seq,
            guard: Guard::Always,
            lhs: ArrayRef::d1("A", Fn1::identity()),
            rhs: Expr::add(Expr::Ref(ArrayRef::d1("A", Fn1::shift(-1))), Expr::Lit(1.0)),
        };
        env.exec_clause(&clause);
        assert_eq!(env.get("A").unwrap().data(), &[5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn par_ordering_reads_snapshot() {
        // Same clause with // sees the ORIGINAL A everywhere.
        let mut env = Env::new();
        env.insert("A", Array::from_slice(&[5.0, 0.0, 0.0, 0.0]));
        let clause = Clause {
            iter: IndexSet::range(1, 3),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("A", Fn1::identity()),
            rhs: Expr::add(Expr::Ref(ArrayRef::d1("A", Fn1::shift(-1))), Expr::Lit(1.0)),
        };
        env.exec_clause(&clause);
        assert_eq!(env.get("A").unwrap().data(), &[5.0, 6.0, 1.0, 1.0]);
    }

    #[test]
    fn expr_eval_variants() {
        let env = env_ab(4);
        let i = Ix::d1(2);
        assert_eq!(env.eval_expr(&Expr::Lit(3.5), &i), 3.5);
        assert_eq!(env.eval_expr(&Expr::LoopVar { dim: 0 }, &i), 2.0);
        assert_eq!(
            env.eval_expr(&Expr::Neg(Box::new(Expr::Lit(2.0))), &i),
            -2.0
        );
        let e = Expr::Bin(
            BinOp::Mul,
            Box::new(Expr::Ref(ArrayRef::d1("B", Fn1::identity()))),
            Box::new(Expr::Lit(0.5)),
        );
        assert_eq!(env.eval_expr(&e, &i), 10.0);
    }

    #[test]
    fn max_abs_diff() {
        let a = Array::from_slice(&[1.0, 2.0]);
        let b = Array::from_slice(&[1.5, 1.0]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
        // a NaN on one side is a difference wherever it sits; the same
        // NaN on both sides is not
        let nan = Array::from_slice(&[f64::NAN, 2.0]);
        assert!(nan.max_abs_diff(&a).is_nan());
        assert!(a.max_abs_diff(&nan).is_nan());
        assert!(Array::from_slice(&[1.0, f64::NAN])
            .max_abs_diff(&b)
            .is_nan());
        assert_eq!(nan.max_abs_diff(&nan.clone()), 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown array")]
    fn unknown_array_panics() {
        let env = Env::new();
        env.eval_expr(&Expr::Ref(ArrayRef::d1("X", Fn1::identity())), &Ix::d1(0));
    }
}
