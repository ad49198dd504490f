//! E13 — observability overhead and perfmodel validation.
//!
//! Two questions about the `vcal-machine::obs` layer:
//!
//! 1. **Is the disabled path free?** The same 1024-element scatter
//!    `a·i+c` distributed run is measured under the [`NullTracer`]
//!    (the default every untraced caller gets) and under a live
//!    [`CollectingTracer`]. The NullTracer path must stay within noise
//!    of the pre-obs machine (< 2% is the PR's acceptance bar); the
//!    collecting path buys the full event log for the reported ratio.
//! 2. **Does the analytical model §4 predict reality?** One traced run
//!    is replay-checked and its per-phase wall-clock totals are printed
//!    next to the era cost model's prediction — the comparison recorded in
//!    EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;
use vcal_bench::{copy_clause, env_ab, write_report, ReportRow};
use vcal_core::func::Fn1;
use vcal_core::{Bounds, Clause, Env};
use vcal_decomp::Decomp1;
use vcal_machine::perfmodel::price_report;
use vcal_machine::{
    replay_check, run_distributed_traced, CollectingTracer, DistArray, DistOptions, Tracer,
    NULL_TRACER,
};
use vcal_spmd::{CostModel, DecompMap, SpmdPlan};

const N: i64 = 1024;
const PMAX: i64 = 8;

/// The acceptance workload: scatter-decomposed `A[2i+1] := B[3i+2]`.
fn workload() -> (Clause, Env, DecompMap) {
    let clause = copy_clause(Fn1::affine(2, 1), Fn1::affine(3, 2), 0, (N - 2) / 2);
    let env = env_ab(N, 3 * N + 1);
    let mut dm = DecompMap::new();
    dm.insert("A".into(), Decomp1::scatter(PMAX, Bounds::range(0, N - 1)));
    dm.insert("B".into(), Decomp1::scatter(PMAX, Bounds::range(0, 3 * N)));
    (clause, env, dm)
}

fn arrays_for(env: &Env, dm: &DecompMap) -> BTreeMap<String, DistArray> {
    let mut arrays = BTreeMap::new();
    for name in ["A", "B"] {
        arrays.insert(
            name.to_string(),
            DistArray::scatter_from(env.get(name).unwrap(), dm[name].clone()),
        );
    }
    arrays
}

fn run_once(
    plan: &SpmdPlan,
    clause: &Clause,
    env: &Env,
    dm: &DecompMap,
    tracer: &dyn Tracer,
) -> f64 {
    let mut arrays = arrays_for(env, dm);
    run_distributed_traced(plan, clause, &mut arrays, DistOptions::default(), tracer).unwrap();
    arrays["A"].read_local(0, 0)
}

fn bench_trace_overhead(c: &mut Criterion) {
    let (clause, env, dm) = workload();
    let plan = SpmdPlan::build(&clause, &dm).unwrap();
    let mut rows = Vec::new();

    let mut group = c.benchmark_group("trace_overhead");
    group.bench_function("null_tracer", |b| {
        b.iter(|| black_box(run_once(&plan, &clause, &env, &dm, &NULL_TRACER)))
    });
    group.bench_function("collecting_tracer", |b| {
        b.iter(|| {
            let tracer = CollectingTracer::new();
            let v = black_box(run_once(&plan, &clause, &env, &dm, &tracer));
            black_box(tracer.finish());
            v
        })
    });

    // one traced run: replay-check the log and line the measured phase
    // timings up against the §4 model prediction
    let tracer = CollectingTracer::new();
    let mut arrays = arrays_for(&env, &dm);
    let opts = DistOptions::default();
    let report = run_distributed_traced(&plan, &clause, &mut arrays, opts, &tracer).unwrap();
    let log = tracer.finish();
    let summary = replay_check(&log, &plan, opts.retry).expect("replay must validate");
    let predicted = price_report(&CostModel::ERA, &report);
    println!(
        "replay OK: {} det events, {} elems; perfmodel {:.1} units (bottleneck node {})",
        summary.det_events, summary.send_elems, predicted.total, predicted.bottleneck
    );
    let bottlenecks = log.phase_bottlenecks();
    for (phase, total) in log.phase_totals() {
        println!(
            "  {:<12} total {:>10.3?}  bottleneck {:>10.3?}",
            phase.name(),
            total,
            bottlenecks[&phase]
        );
    }
    rows.push(ReportRow::new(
        "trace_overhead",
        "planned send elems (replay-validated)".to_string(),
        summary.send_elems as f64,
        summary.recv_elems as f64,
    ));
    group.finish();
    write_report("trace_overhead", &rows);
}

criterion_group!(benches, bench_trace_overhead);
criterion_main!(benches);
