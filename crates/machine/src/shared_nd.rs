//! Multi-dimensional shared-memory execution.
//!
//! The d-dimensional generalization of the Section 2.9 template: data is
//! decomposed per axis onto a processor grid ([`DecompNd`]), each virtual
//! processor iterates the Cartesian-product schedule produced by
//! [`vcal_spmd::optimize_nd`] (falling back to brute-force ownership
//! filtering when the access map does not factorize), through the same
//! gather-then-commit node body as [`crate::shared::run_shared`].

use crate::error::MachineError;
use crate::shared::gather_commit;
use crate::stats::ExecReport;
use vcal_core::{Clause, Env};
use vcal_decomp::DecompNd;
use vcal_spmd::optimize_nd;

/// Execute a `//` clause of any dimensionality on a shared-memory machine
/// whose *written* array is decomposed by `dec_lhs` (owner-computes; read
/// arrays need no decomposition on shared memory).
pub fn run_shared_nd(
    clause: &Clause,
    dec_lhs: &DecompNd,
    env: &mut Env,
) -> Result<ExecReport, MachineError> {
    gather_commit(clause, env, dec_lhs.pmax() as usize, |p, body| {
        let p = p as i64;
        match optimize_nd(&clause.lhs.map, dec_lhs, &clause.iter.bounds, p) {
            Some(sched) => {
                sched.for_each(body);
                sched.work_estimate()
            }
            None => {
                // coupled axes: brute-force ownership filter
                for i in clause.iter.iter() {
                    if dec_lhs.proc_of(&clause.lhs.map.eval(&i)) == p {
                        body(&i);
                    }
                }
                clause.iter.bounds.count()
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcal_core::func::Fn1;
    use vcal_core::map::{DimFn, IndexMap};
    use vcal_core::{Array, ArrayRef, Bounds, Expr, Guard, IndexSet, Ordering};
    use vcal_decomp::Decomp1;

    fn jacobi2d(n: i64) -> (Clause, Env) {
        // V[i,j] := 0.25*(U[i-1,j] + U[i+1,j] + U[i,j-1] + U[i,j+1])
        let u = |di: i64, dj: i64| {
            Expr::Ref(ArrayRef::new(
                "U",
                IndexMap::per_dim(vec![Fn1::shift(di), Fn1::shift(dj)]),
            ))
        };
        let clause = Clause {
            iter: IndexSet::full(Bounds::range2(1, n - 2, 1, n - 2)),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::new("V", IndexMap::identity(2)),
            rhs: Expr::mul(
                Expr::add(Expr::add(u(-1, 0), u(1, 0)), Expr::add(u(0, -1), u(0, 1))),
                Expr::Lit(0.25),
            ),
        };
        let mut env = Env::new();
        env.insert(
            "U",
            Array::from_fn(Bounds::range2(0, n - 1, 0, n - 1), |i| {
                (i[0] * 31 + i[1] * 7) as f64 * 0.01
            }),
        );
        env.insert("V", Array::zeros(Bounds::range2(0, n - 1, 0, n - 1)));
        (clause, env)
    }

    #[test]
    fn jacobi2d_matches_reference() {
        let n = 24;
        let (clause, env0) = jacobi2d(n);
        let mut reference = env0.clone();
        reference.exec_clause(&clause);

        let dec = DecompNd::new(vec![
            Decomp1::block(2, Bounds::range(0, n - 1)),
            Decomp1::block_scatter(3, 2, Bounds::range(0, n - 1)),
        ]);
        let mut env = env0.clone();
        let report = run_shared_nd(&clause, &dec, &mut env).unwrap();
        assert_eq!(
            env.get("V")
                .unwrap()
                .max_abs_diff(reference.get("V").unwrap()),
            0.0
        );
        assert_eq!(report.total().iterations, ((n - 2) * (n - 2)) as u64);
        assert_eq!(report.nodes.len(), 4);
    }

    #[test]
    fn transposed_write_matches_reference() {
        // B[j, i] := A[i, j] (write through a transpose map)
        let n = 12;
        let clause = Clause {
            iter: IndexSet::full(Bounds::range2(0, n - 1, 0, n - 1)),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::new("B", IndexMap::permutation(2, &[1, 0])),
            rhs: Expr::Ref(ArrayRef::new("A", IndexMap::identity(2))),
        };
        let mut env = Env::new();
        env.insert(
            "A",
            Array::from_fn(Bounds::range2(0, n - 1, 0, n - 1), |i| {
                (i[0] * 100 + i[1]) as f64
            }),
        );
        env.insert("B", Array::zeros(Bounds::range2(0, n - 1, 0, n - 1)));
        let mut reference = env.clone();
        reference.exec_clause(&clause);

        let dec = DecompNd::new(vec![
            Decomp1::scatter(2, Bounds::range(0, n - 1)),
            Decomp1::block(3, Bounds::range(0, n - 1)),
        ]);
        let mut got = env.clone();
        run_shared_nd(&clause, &dec, &mut got).unwrap();
        assert_eq!(
            got.get("B")
                .unwrap()
                .max_abs_diff(reference.get("B").unwrap()),
            0.0
        );
    }

    #[test]
    fn coupled_axes_fall_back_to_brute_force() {
        // D[i, i] := A[i, j]-ish diagonal write: lhs map duplicates dim 0.
        let n = 8;
        let clause = Clause {
            iter: IndexSet::full(Bounds::range2(0, n - 1, 0, 0)),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::new(
                "D",
                IndexMap::new(
                    2,
                    vec![
                        DimFn {
                            src: 0,
                            f: Fn1::identity(),
                        },
                        DimFn {
                            src: 0,
                            f: Fn1::identity(),
                        },
                    ],
                ),
            ),
            rhs: Expr::Lit(1.0),
        };
        let mut env = Env::new();
        env.insert("D", Array::zeros(Bounds::range2(0, n - 1, 0, n - 1)));
        let mut reference = env.clone();
        reference.exec_clause(&clause);

        let dec = DecompNd::new(vec![
            Decomp1::block(2, Bounds::range(0, n - 1)),
            Decomp1::block(2, Bounds::range(0, n - 1)),
        ]);
        let mut got = env.clone();
        run_shared_nd(&clause, &dec, &mut got).unwrap();
        assert_eq!(
            got.get("D")
                .unwrap()
                .max_abs_diff(reference.get("D").unwrap()),
            0.0
        );
    }
}
