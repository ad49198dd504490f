//! The shared-memory SPMD machine (paper Section 2.9).
//!
//! One OS thread per virtual processor executes the template
//!
//! ```text
//! p := my_node;
//! forall i in Modify_p do A[f(i)] := Expr(B[g(i)]); od;
//! barrier;
//! ```
//!
//! with `Modify_p` supplied by the plan's (naive or closed-form)
//! schedules. Reads go to a pre-state snapshot (the paper's `//` clauses
//! assume independence; the snapshot makes the semantics deterministic
//! even when they alias). Every thread collects its `(offset, value)`
//! writes and the host commits them after the barrier, in node order —
//! or commits nothing if any node panicked. The machine is pure safe
//! Rust: a plan that was not built from its clause can produce a wrong
//! answer or a typed error, never a data race.

use crate::error::MachineError;
use crate::stats::{ExecReport, NodeStats};
use vcal_core::{Clause, Env, Ix, Ordering};
use vcal_spmd::SpmdPlan;

/// Execute a `//` clause on the shared-memory machine.
///
/// `plan` must have been built from `clause` (same access functions); the
/// arrays live in `env` as plain global arrays. Returns per-node stats.
pub fn run_shared(
    plan: &SpmdPlan,
    clause: &Clause,
    env: &mut Env,
) -> Result<ExecReport, MachineError> {
    gather_commit(clause, env, plan.nodes.len(), |p, body| {
        let schedule = &plan.nodes[p].modify.schedule;
        schedule.for_each(|i| body(&Ix::d1(i)));
        schedule.work_estimate()
    })
}

/// The shared machines' one node body. Node `p`'s thread enumerates its
/// `Modify_p` by calling `modify(p, body)` — which hands every iteration
/// to `body` and returns the ownership-test work it spent — evaluates the
/// clause against the pre-state snapshot and gathers its writes; after
/// the barrier the host commits every node's writes, or none of them if
/// a node panicked (then `env` is untouched).
pub(crate) fn gather_commit<F>(
    clause: &Clause,
    env: &mut Env,
    pmax: usize,
    modify: F,
) -> Result<ExecReport, MachineError>
where
    F: Fn(usize, &mut dyn FnMut(&Ix)) -> u64 + Sync,
{
    if clause.ordering != Ordering::Par {
        return Err(MachineError::SequentialClause);
    }
    // pre-state snapshot all threads read from
    let snapshot = env.clone();
    for r in clause.read_refs() {
        if snapshot.get(&r.array).is_none() {
            return Err(MachineError::UnknownArray(r.array.clone()));
        }
    }
    let lhs = env
        .get_mut(&clause.lhs.array)
        .ok_or_else(|| MachineError::UnknownArray(clause.lhs.array.clone()))?;
    let lhs_bounds = lhs.bounds();

    let mut node_results: Vec<(NodeStats, Vec<(usize, f64)>)> = Vec::with_capacity(pmax);
    let mut first_err: Option<MachineError> = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..pmax)
            .map(|p| {
                let (snapshot, modify) = (&snapshot, &modify);
                scope.spawn(move || {
                    let mut stats = NodeStats::default();
                    let mut writes = Vec::new();
                    let mut body = |i: &Ix| {
                        stats.iterations += 1;
                        stats.data_guards += 1;
                        if snapshot.eval_guard(&clause.guard, i) {
                            let v = snapshot.eval_expr(&clause.rhs, i);
                            let target = clause.lhs.map.eval(i);
                            assert!(lhs_bounds.contains(&target), "write {target} outside");
                            writes.push((lhs_bounds.linear_offset(&target), v));
                        }
                    };
                    stats.guard_tests = modify(p, &mut body);
                    (stats, writes)
                })
            })
            .collect();
        for (p, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(result) => node_results.push(result),
                Err(_) => {
                    first_err.get_or_insert(MachineError::NodePanicked { node: p as i64 });
                }
            }
        }
    });
    // Transactional: commit nothing if any node crashed.
    if let Some(e) = first_err {
        return Err(e);
    }

    let data = lhs.data_mut();
    let mut report = ExecReport {
        barriers: 1,
        ..Default::default()
    };
    for (stats, writes) in node_results {
        report.nodes.push(stats);
        for (off, v) in writes {
            data[off] = v;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcal_core::func::Fn1;
    use vcal_core::{Array, ArrayRef, Bounds, CmpOp, Expr, Guard, IndexSet};
    use vcal_decomp::Decomp1;
    use vcal_spmd::DecompMap;

    fn fig1_setup(n: i64) -> (Clause, Env, DecompMap) {
        let clause = Clause {
            iter: IndexSet::range(1, n - 1),
            ordering: Ordering::Par,
            guard: Guard::Cmp {
                lhs: ArrayRef::d1("A", Fn1::identity()),
                op: CmpOp::Gt,
                rhs: 0.0,
            },
            lhs: ArrayRef::d1("A", Fn1::identity()),
            rhs: Expr::Ref(ArrayRef::d1("B", Fn1::shift(1))),
        };
        let mut env = Env::new();
        env.insert(
            "A",
            Array::from_fn(Bounds::range(0, n - 1), |i| {
                if i.scalar() % 3 == 0 {
                    -1.0
                } else {
                    i.scalar() as f64
                }
            }),
        );
        env.insert(
            "B",
            Array::from_fn(Bounds::range(0, n), |i| (i.scalar() * 2) as f64),
        );
        let mut dm = DecompMap::new();
        dm.insert("A".into(), Decomp1::block(4, Bounds::range(0, n - 1)));
        dm.insert("B".into(), Decomp1::scatter(4, Bounds::range(0, n)));
        (clause, env, dm)
    }

    #[test]
    fn gather_commit_matches_reference() {
        let (clause, env0, dm) = fig1_setup(64);
        let mut expect = env0.clone();
        expect.exec_clause(&clause);
        for naive in [false, true] {
            let plan = if naive {
                SpmdPlan::build_naive(&clause, &dm).unwrap()
            } else {
                SpmdPlan::build(&clause, &dm).unwrap()
            };
            let mut env = env0.clone();
            let report = run_shared(&plan, &clause, &mut env).unwrap();
            assert_eq!(
                env.get("A").unwrap().max_abs_diff(expect.get("A").unwrap()),
                0.0,
                "naive={naive}"
            );
            assert_eq!(report.total().iterations, 63);
            assert_eq!(report.nodes.len(), 4);
        }
    }

    #[test]
    fn naive_plan_reports_more_guard_work() {
        let (clause, _, dm) = fig1_setup(64);
        let naive = SpmdPlan::build_naive(&clause, &dm).unwrap();
        let opt = SpmdPlan::build(&clause, &dm).unwrap();
        // naive: every node tests all 63 iterations -> 252; optimized:
        // each node touches only its own ~16
        assert_eq!(naive.total_work(), 63 * 4);
        assert!(opt.total_work() <= 63 + 3, "opt work {}", opt.total_work());
    }

    #[test]
    fn sequential_clause_rejected() {
        let (mut clause, mut env, dm) = fig1_setup(16);
        clause.ordering = Ordering::Seq;
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        assert_eq!(
            run_shared(&plan, &clause, &mut env).unwrap_err(),
            MachineError::SequentialClause
        );
    }

    #[test]
    fn strided_write_matches_reference() {
        // A[2i+1] := B[i]: injective non-identity lhs under scatter
        let n = 32i64;
        let clause = Clause {
            iter: IndexSet::range(0, n / 2 - 1),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("A", Fn1::affine(2, 1)),
            rhs: Expr::Ref(ArrayRef::d1("B", Fn1::identity())),
        };
        let mut env = Env::new();
        env.insert("A", Array::zeros(Bounds::range(0, n - 1)));
        env.insert(
            "B",
            Array::from_fn(Bounds::range(0, n / 2 - 1), |i| i.scalar() as f64),
        );
        let mut dm = DecompMap::new();
        dm.insert("A".into(), Decomp1::scatter(4, Bounds::range(0, n - 1)));
        dm.insert("B".into(), Decomp1::block(4, Bounds::range(0, n / 2 - 1)));
        let plan = SpmdPlan::build(&clause, &dm).unwrap();

        let mut expect = env.clone();
        expect.exec_clause(&clause);
        run_shared(&plan, &clause, &mut env).unwrap();
        assert_eq!(
            env.get("A").unwrap().max_abs_diff(expect.get("A").unwrap()),
            0.0
        );
    }

    #[test]
    fn unknown_array_detected() {
        let (clause, _, dm) = fig1_setup(16);
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        let mut empty = Env::new();
        assert!(matches!(
            run_shared(&plan, &clause, &mut empty),
            Err(MachineError::UnknownArray(_))
        ));
    }
}
