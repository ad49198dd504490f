//! Modeled speedup curves — the classic evaluation figure of the paper's
//! era, regenerated from exact event counts priced by the one cost model
//! under its era constants (`vcal_spmd::CostModel::ERA`): closed-form vs
//! naive plans on shared memory (a plan's census), and block vs scatter
//! stencils on the message-passing machine (its executed report).

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;
use vcal_bench::{copy_clause, decomps_ab, stencil_clause, write_report, ReportRow};
use vcal_core::func::Fn1;
use vcal_core::{Array, Bounds, Env};
use vcal_decomp::Decomp1;
use vcal_machine::perfmodel::price_report;
use vcal_machine::{run_distributed, DistArray, DistOptions};
use vcal_spmd::{CostModel, DecompMap, SpmdPlan};

const MODEL: CostModel = CostModel::ERA;

/// Modeled speedup of a plan against the one-processor time of its loop
/// (no tests, no messages).
fn plan_speedup(plan: &SpmdPlan) -> f64 {
    let n = (plan.loop_bounds.1 - plan.loop_bounds.0 + 1).max(0) as f64;
    n * MODEL.t_iter / MODEL.price_plan(plan).total
}

fn speedup_tables(c: &mut Criterion) {
    let mut rows = Vec::new();

    // ---- shared memory: naive vs closed form ----------------------------
    let n: i64 = 1 << 16;
    let clause = copy_clause(Fn1::identity(), Fn1::identity(), 0, n - 1);
    eprintln!("\nmodeled shared-memory speedup, copy of n = {n}:");
    eprintln!("{:>6} {:>14} {:>14}", "pmax", "closed-form", "naive-guard");
    for pmax in [1i64, 2, 4, 8, 16, 32, 64] {
        let dm = decomps_ab(
            Decomp1::block(pmax, Bounds::range(0, n - 1)),
            Decomp1::block(pmax, Bounds::range(0, n - 1)),
        );
        let s_opt = plan_speedup(&SpmdPlan::build(&clause, &dm).unwrap());
        let s_naive = plan_speedup(&SpmdPlan::build_naive(&clause, &dm).unwrap());
        eprintln!("{pmax:>6} {s_opt:>14.2} {s_naive:>14.2}");
        rows.push(ReportRow::new(
            "speedup_shared",
            format!("pmax={pmax}"),
            s_naive,
            s_opt,
        ));
    }
    eprintln!("(naive saturates near t_iter/t_test = 4; closed form tracks pmax)");

    // ---- distributed: block vs scatter stencil ---------------------------
    let n: i64 = 1 << 12;
    let clause = stencil_clause(n);
    let mut env = Env::new();
    env.insert(
        "U",
        Array::from_fn(Bounds::range(0, n - 1), |i| i.scalar() as f64),
    );
    env.insert("V", Array::zeros(Bounds::range(0, n - 1)));
    eprintln!("\nmodeled distributed speedup, stencil of n = {n}:");
    eprintln!("{:>6} {:>10} {:>10}", "pmax", "block", "scatter");
    for pmax in [2i64, 4, 8, 16] {
        let mut line = format!("{pmax:>6}");
        for dec in [
            Decomp1::block(pmax, Bounds::range(0, n - 1)),
            Decomp1::scatter(pmax, Bounds::range(0, n - 1)),
        ] {
            let mut dm = DecompMap::new();
            dm.insert("U".into(), dec.clone());
            dm.insert("V".into(), dec.clone());
            let plan = SpmdPlan::build(&clause, &dm).unwrap();
            let mut arrays: BTreeMap<String, DistArray> = BTreeMap::new();
            for a in ["U", "V"] {
                arrays.insert(
                    a.into(),
                    DistArray::scatter_from(env.get(a).unwrap(), dm[a].clone()),
                );
            }
            let report =
                run_distributed(&plan, &clause, &mut arrays, DistOptions::default()).unwrap();
            let s = (n - 2) as f64 * MODEL.t_iter / price_report(&MODEL, &report).total;
            line.push_str(&format!(" {s:>10.2}"));
        }
        eprintln!("{line}");
    }
    eprintln!("(scatter receives every read remotely: priced below 1, slower than sequential)");
    write_report("speedup", &rows);

    // keep Criterion busy with something tiny so the target registers
    c.bench_function("speedup/model_eval", |b| {
        let dm = decomps_ab(
            Decomp1::block(8, Bounds::range(0, (1 << 16) - 1)),
            Decomp1::block(8, Bounds::range(0, (1 << 16) - 1)),
        );
        let clause = copy_clause(Fn1::identity(), Fn1::identity(), 0, (1 << 16) - 1);
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        b.iter(|| black_box(plan_speedup(&plan)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(600))
        .warm_up_time(std::time::Duration::from_millis(150));
    targets = speedup_tables
}
criterion_main!(benches);
