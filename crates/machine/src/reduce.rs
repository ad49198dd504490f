//! Parallel reductions on the simulated machines.
//!
//! A reduction (dot product, norm, max-residual test — the "intermediate
//! tests on data values" the paper names as the source of sequential
//! components) is executed owner-computes: every node folds the
//! iterations whose *driving* elements it owns, then the partials are
//! combined along a binary tree — `ceil(log2 pmax)` message rounds on the
//! distributed machine, matching a hypercube's natural combining pattern.

use crate::darray::DistArray;
use crate::error::MachineError;
use crate::stats::{ExecReport, NodeStats};
use std::collections::BTreeMap;
use vcal_core::clause::{ReduceOp, Reduction};
use vcal_core::{Env, Expr, Ix};
use vcal_decomp::Decomp1;
use vcal_spmd::optimize;

/// Reduce on the shared-memory machine: iterations are partitioned by
/// `iter_decomp` (a decomposition of the *iteration space* itself),
/// every thread folds its share from a snapshot, and the partials are
/// folded on the main thread (the barrier-then-combine of Section 2.9).
pub fn run_reduce_shared(
    red: &Reduction,
    iter_decomp: &Decomp1,
    env: &Env,
) -> Result<(f64, ExecReport), MachineError> {
    if red.iter.dims() != 1 {
        return Err(MachineError::PlanMismatch("reductions are 1-D".into()));
    }
    for r in red.expr.refs() {
        if env.get(&r.array).is_none() {
            return Err(MachineError::UnknownArray(r.array.clone()));
        }
    }
    let (imin, imax) = (red.iter.bounds.lo()[0], red.iter.bounds.hi()[0]);
    let pmax = iter_decomp.pmax();
    let mut partials: Vec<(f64, NodeStats)> = Vec::new();
    let mut first_err: Option<MachineError> = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..pmax)
            .map(|p| {
                let env = &env;
                scope.spawn(move || {
                    let mut stats = NodeStats::default();
                    let mut acc = red.op.identity();
                    let opt = optimize(&vcal_core::Fn1::identity(), iter_decomp, imin, imax, p);
                    opt.schedule.for_each(|i| {
                        stats.iterations += 1;
                        acc = red.op.apply(acc, env.eval_expr(&red.expr, &Ix::d1(i)));
                    });
                    (acc, stats)
                })
            })
            .collect();
        for (p, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(partial) => partials.push(partial),
                Err(_) => {
                    first_err.get_or_insert(MachineError::NodePanicked { node: p as i64 });
                }
            }
        }
    });
    if let Some(e) = first_err {
        return Err(e);
    }
    let mut report = ExecReport {
        barriers: 1,
        ..Default::default()
    };
    let mut acc = red.op.identity();
    for (v, stats) in partials {
        acc = red.op.apply(acc, v);
        report.nodes.push(stats);
    }
    Ok((acc, report))
}

/// Reduce on the distributed machine over co-located distributed arrays.
///
/// All arrays referenced by `expr` must share the same decomposition and
/// be accessed through identity maps (the dot-product shape); each node
/// folds its local elements, then the partials combine along a binary
/// tree whose messages are counted.
pub fn run_reduce_distributed(
    op: ReduceOp,
    expr: &Expr,
    arrays: &BTreeMap<String, DistArray>,
) -> Result<(f64, ExecReport), MachineError> {
    // validate shapes
    let refs = expr.refs();
    if refs.is_empty() {
        return Err(MachineError::PlanMismatch(
            "reduction reads no arrays".into(),
        ));
    }
    let mut dec: Option<&Decomp1> = None;
    for r in &refs {
        let da = arrays
            .get(&r.array)
            .ok_or_else(|| MachineError::UnknownArray(r.array.clone()))?;
        if !r.map.is_identity() {
            return Err(MachineError::PlanMismatch(
                "distributed reductions need identity access maps".into(),
            ));
        }
        match dec {
            None => dec = Some(da.decomp()),
            Some(d) if d == da.decomp() => {}
            _ => {
                return Err(MachineError::PlanMismatch(
                    "all reduced arrays must share one decomposition".into(),
                ))
            }
        }
    }
    let dec = dec
        .ok_or_else(|| MachineError::PlanMismatch("reduction reads no arrays".into()))?
        .clone();
    let pmax = dec.pmax();

    // 1. local fold per node
    let mut partials = vec![op.identity(); pmax as usize];
    let mut report = ExecReport {
        traffic: vec![vec![0u64; pmax as usize]; pmax as usize],
        ..Default::default()
    };
    for p in 0..pmax {
        let mut stats = NodeStats::default();
        let mut acc = op.identity();
        for g in dec.owned_globals(p) {
            stats.iterations += 1;
            stats.local_reads += refs.len() as u64;
            acc = op.apply(acc, eval_local(expr, g, p, arrays));
        }
        partials[p as usize] = acc;
        report.nodes.push(stats);
    }

    // 2. binary combining tree: in round k, node p with p mod 2^(k+1) ==
    //    2^k sends its partial to p - 2^k.
    let mut stride = 1i64;
    while stride < pmax {
        for p in (0..pmax).step_by((2 * stride) as usize) {
            let partner = p + stride;
            if partner < pmax {
                let v = partials[partner as usize];
                partials[p as usize] = op.apply(partials[p as usize], v);
                report.nodes[partner as usize].msgs_sent += 1;
                report.nodes[p as usize].msgs_received += 1;
                report.traffic[partner as usize][p as usize] += 1;
            }
        }
        stride *= 2;
    }
    Ok((partials[0], report))
}

fn eval_local(expr: &Expr, g: i64, p: i64, arrays: &BTreeMap<String, DistArray>) -> f64 {
    match expr {
        Expr::Ref(r) => arrays[&r.array].read_local(p, g),
        Expr::Lit(v) => *v,
        Expr::LoopVar { .. } => g as f64,
        Expr::Neg(e) => -eval_local(e, g, p, arrays),
        Expr::Bin(op, a, b) => op.apply(eval_local(a, g, p, arrays), eval_local(b, g, p, arrays)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcal_core::func::Fn1;
    use vcal_core::{Array, ArrayRef, Bounds, IndexSet};

    fn dot_setup(
        n: i64,
        pmax: i64,
        dec: fn(i64, Bounds) -> Decomp1,
    ) -> (Env, Reduction, BTreeMap<String, DistArray>) {
        let mut env = Env::new();
        env.insert(
            "A",
            Array::from_fn(Bounds::range(0, n - 1), |i| (i.scalar() % 7) as f64),
        );
        env.insert(
            "B",
            Array::from_fn(Bounds::range(0, n - 1), |i| 0.5 * i.scalar() as f64),
        );
        let red = Reduction {
            iter: IndexSet::range(0, n - 1),
            op: ReduceOp::Sum,
            expr: Expr::mul(
                Expr::Ref(ArrayRef::d1("A", Fn1::identity())),
                Expr::Ref(ArrayRef::d1("B", Fn1::identity())),
            ),
        };
        let d = dec(pmax, Bounds::range(0, n - 1));
        let mut arrays = BTreeMap::new();
        for name in ["A", "B"] {
            arrays.insert(
                name.to_string(),
                DistArray::scatter_from(env.get(name).unwrap(), d.clone()),
            );
        }
        (env, red, arrays)
    }

    #[test]
    fn shared_dot_product_matches_reference() {
        let n = 1000;
        let (env, red, _) = dot_setup(n, 8, Decomp1::scatter);
        let want = env.eval_reduction(&red);
        for dec in [
            Decomp1::block(8, Bounds::range(0, n - 1)),
            Decomp1::scatter(8, Bounds::range(0, n - 1)),
        ] {
            let (got, report) = run_reduce_shared(&red, &dec, &env).unwrap();
            assert!((got - want).abs() / want.abs() < 1e-12, "{dec}");
            assert_eq!(report.total().iterations, n as u64);
        }
    }

    #[test]
    fn distributed_dot_matches_and_uses_log_rounds() {
        let n = 512;
        for pmax in [1i64, 2, 4, 8, 7] {
            let (env, red, arrays) = dot_setup(n, pmax, Decomp1::scatter);
            let want = env.eval_reduction(&red);
            let (got, report) = run_reduce_distributed(ReduceOp::Sum, &red.expr, &arrays).unwrap();
            assert!(
                (got - want).abs() / want.abs().max(1.0) < 1e-12,
                "pmax={pmax}"
            );
            // a combining tree sends exactly pmax - 1 messages
            assert_eq!(report.total().msgs_sent, (pmax - 1) as u64, "pmax={pmax}");
        }
    }

    #[test]
    fn min_max_prod_ops() {
        let n = 64;
        let (env, mut red, arrays) = dot_setup(n, 4, Decomp1::block);
        for op in [ReduceOp::Min, ReduceOp::Max, ReduceOp::Prod] {
            red.op = op;
            let want = env.eval_reduction(&red);
            let (got, _) = run_reduce_distributed(op, &red.expr, &arrays).unwrap();
            if op == ReduceOp::Prod {
                // products with zeros: compare absolutely
                assert!((got - want).abs() < 1e-9, "{op:?}: {got} vs {want}");
            } else {
                assert_eq!(got, want, "{op:?}");
            }
        }
    }

    #[test]
    fn mismatched_layouts_rejected() {
        let n = 64;
        let (env, red, mut arrays) = dot_setup(n, 4, Decomp1::block);
        arrays.insert(
            "B".into(),
            DistArray::scatter_from(
                env.get("B").unwrap(),
                Decomp1::scatter(4, Bounds::range(0, n - 1)),
            ),
        );
        assert!(matches!(
            run_reduce_distributed(ReduceOp::Sum, &red.expr, &arrays),
            Err(MachineError::PlanMismatch(_))
        ));
    }

    #[test]
    fn non_identity_map_rejected() {
        let n = 64;
        let (_, _, arrays) = dot_setup(n, 4, Decomp1::block);
        let shifted = Expr::Ref(ArrayRef::d1("A", Fn1::shift(1)));
        assert!(matches!(
            run_reduce_distributed(ReduceOp::Sum, &shifted, &arrays),
            Err(MachineError::PlanMismatch(_))
        ));
    }
}
