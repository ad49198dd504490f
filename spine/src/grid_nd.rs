//! `grid_nd`: a 2-D five-point Jacobi sweep plus copy-back on the n-D
//! machine, which plans and spawns per call — the second phase engine
//! that ROADMAP item 2 wants lowered onto the 1-D run tables.

use crate::span::Spans;
use crate::stats::{fnv_f64, SplitMix64, FNV_BASIS};
use crate::workload::{exec_seq_ops, Census, Counters, Phases, Workload, PMAX};
use std::collections::BTreeMap;
use std::time::Duration;
use vcal_core::func::Fn1;
use vcal_core::map::IndexMap;
use vcal_core::{Array, ArrayRef, Bounds, Clause, Env, Expr, Guard, IndexSet, Ordering};
use vcal_decomp::{Decomp1, DecompNd};
use vcal_machine::{
    run_distributed_nd, run_distributed_nd_traced, CollectingTracer, DistArrayNd, DistOptions,
};
use vcal_spmd::optimize_nd;

/// Side of the square domain.
pub const SIDE: i64 = 256;

const RECV_TIMEOUT: Duration = Duration::from_secs(5);

/// The sweep and its copy-back over a `PMAX`×1 block grid.
pub struct GridNd {
    clauses: [Clause; 2],
    dec: DecompNd,
    inputs: Env,
    arrays: BTreeMap<String, DistArrayNd>,
}

fn u(di: i64, dj: i64) -> Expr {
    Expr::Ref(ArrayRef::new(
        "U",
        IndexMap::per_dim(vec![Fn1::shift(di), Fn1::shift(dj)]),
    ))
}

fn par(lhs: &str, rhs: Expr) -> Clause {
    Clause {
        iter: IndexSet::full(Bounds::range2(1, SIDE - 2, 1, SIDE - 2)),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::new(lhs, IndexMap::identity(2)),
        rhs,
    }
}

impl GridNd {
    /// Draw `U` from `seed` and scatter `U` and `V` over the grid.
    pub fn new(seed: u64) -> GridNd {
        let sweep = par(
            "V",
            Expr::mul(
                Expr::add(Expr::add(u(-1, 0), u(1, 0)), Expr::add(u(0, -1), u(0, 1))),
                Expr::Lit(0.25),
            ),
        );
        let copy_back = par("U", Expr::Ref(ArrayRef::new("V", IndexMap::identity(2))));
        let side = Bounds::range(0, SIDE - 1);
        let dec = DecompNd::new(vec![Decomp1::block(PMAX, side), Decomp1::block(1, side)]);
        let mut rng = SplitMix64(seed);
        let mut inputs = Env::new();
        let square = Bounds::range2(0, SIDE - 1, 0, SIDE - 1);
        inputs.insert("U", Array::from_fn(square, |_| rng.value()));
        inputs.insert("V", Array::zeros(square));
        let arrays = ["U", "V"]
            .iter()
            .map(|a| {
                let global = inputs.get(a).expect("inserted above");
                (
                    a.to_string(),
                    DistArrayNd::scatter_from(global, dec.clone()),
                )
            })
            .collect();
        GridNd {
            clauses: [sweep, copy_back],
            dec,
            inputs,
            arrays,
        }
    }

    /// Points one op updates (sweep plus copy-back).
    pub fn points_per_op(&self) -> u64 {
        2 * ((SIDE - 2) * (SIDE - 2)) as u64
    }
}

impl Workload for GridNd {
    fn op(&mut self) -> Result<Counters, String> {
        let mut c = Counters::default();
        for clause in &self.clauses {
            let r = run_distributed_nd(clause, &mut self.arrays, RECV_TIMEOUT);
            c.add_report(&r.map_err(|e| e.to_string())?);
        }
        Ok(c)
    }

    fn op_traced(&mut self, spans: &mut Spans, phases: &mut Phases) -> Result<Counters, String> {
        let mut c = Counters::default();
        let tracers = [CollectingTracer::new(), CollectingTracer::new()];
        spans.next_op();
        let op = spans.open("op.grid_nd");
        for (clause, tracer) in self.clauses.iter().zip(&tracers) {
            let run = spans.open("machine.run_nd");
            let r =
                run_distributed_nd_traced(clause, &mut self.arrays, DistOptions::default(), tracer);
            let secs = spans.close(run);
            c.add_report(&r.map_err(|e| e.to_string())?);
            // the n-D machine times send, update and drain on its nodes
            // but not its host-side plan, spawn and commit: what the
            // slowest node does not account for is booked as commit
            let mut nodes = Phases::default();
            nodes.add_log(&tracer.finish());
            nodes.commit = (secs - nodes.send - nodes.update - nodes.drain).max(0.0);
            phases.add(&nodes);
        }
        spans.close(op);
        Ok(c)
    }

    fn op_span(&self) -> &'static str {
        "op.grid_nd"
    }

    fn state_fnv(&mut self) -> Result<u64, String> {
        let (u, v) = (self.arrays["U"].gather(), self.arrays["V"].gather());
        Ok(fnv_f64(fnv_f64(FNV_BASIS, u.data()), v.data()))
    }

    fn oracle(&mut self, ops: usize) -> (u64, f64) {
        let mut env = std::mem::take(&mut self.inputs);
        let one = exec_seq_ops(&mut env, &self.clauses, ops);
        let data = |n: &str| env.get(n).map_or(&[][..], |a| a.data());
        (fnv_f64(fnv_f64(FNV_BASIS, data("U")), data("V")), one)
    }

    /// The n-D machine has no run tables yet, so only the schedule's
    /// iteration count exists at plan time; the comm and SIMD counts
    /// read 0 until n-D is lowered onto `CommRun`/`ExecRun`.
    fn census(&self) -> Census {
        let mut c = Census::default();
        for clause in &self.clauses {
            for p in 0..self.dec.pmax() {
                if let Some(s) = optimize_nd(&clause.lhs.map, &self.dec, &clause.iter.bounds, p) {
                    c.plan_work += s.count();
                }
            }
        }
        c
    }
}
