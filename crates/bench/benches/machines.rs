//! E7 — **Sections 2.9 / 2.10**: end-to-end execution of generated SPMD
//! programs on the simulated machines.
//!
//! * shared-memory machine: naive-guard plans vs closed-form plans across
//!   processor counts (the paper's core speedup claim, measured end to
//!   end);
//! * distributed machine: communication volume of block vs scatter vs
//!   block-scatter on a stencil (printed, since message counts — not
//!   wall time — are the architecture-independent quantity).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;
use vcal_bench::{copy_clause, decomps_ab, env_ab, stencil_clause, write_report, ReportRow};
use vcal_core::func::Fn1;
use vcal_core::{Array, Bounds, Env};
use vcal_decomp::Decomp1;
use vcal_machine::{run_distributed, run_shared, DistArray, DistOptions};
use vcal_spmd::{CommStats, DecompMap, SpmdPlan};

fn bench_shared(c: &mut Criterion) {
    let n: i64 = 1 << 14;
    let clause = copy_clause(Fn1::identity(), Fn1::identity(), 0, n - 1);
    let env0 = env_ab(n, n);
    let mut rows = Vec::new();

    for pmax in [2i64, 4, 8] {
        let dm = decomps_ab(
            Decomp1::block(pmax, Bounds::range(0, n - 1)),
            Decomp1::scatter(pmax, Bounds::range(0, n - 1)),
        );
        let plan_opt = SpmdPlan::build(&clause, &dm).unwrap();
        let plan_naive = SpmdPlan::build_naive(&clause, &dm).unwrap();

        let mut group = c.benchmark_group(format!("machines/shared/p{pmax}"));
        group.bench_function(BenchmarkId::new("naive", pmax), |b| {
            b.iter(|| {
                let mut env = env0.clone();
                run_shared(&plan_naive, &clause, &mut env).unwrap();
                black_box(env.get("A").unwrap().data()[0])
            })
        });
        group.bench_function(BenchmarkId::new("closed_form", pmax), |b| {
            b.iter(|| {
                let mut env = env0.clone();
                run_shared(&plan_opt, &clause, &mut env).unwrap();
                black_box(env.get("A").unwrap().data()[0])
            })
        });
        group.finish();

        rows.push(ReportRow::new(
            "machines_shared_work",
            format!("pmax={pmax}"),
            plan_naive.total_work() as f64,
            plan_opt.total_work() as f64,
        ));
    }
    write_report("machines_shared_work", &rows);
}

fn bench_distributed(c: &mut Criterion) {
    let n: i64 = 1 << 12;
    let pmax = 8i64;
    let clause = stencil_clause(n);
    let mut rows = Vec::new();

    eprintln!("\nSection 2.10 — stencil communication by decomposition (n={n}, pmax={pmax}):");
    eprintln!(
        "{:<10} {:>10} {:>14}",
        "layout", "messages", "local updates"
    );

    let mut group = c.benchmark_group("machines/distributed_stencil");
    for (name, dec) in [
        ("block", Decomp1::block(pmax, Bounds::range(0, n - 1))),
        ("scatter", Decomp1::scatter(pmax, Bounds::range(0, n - 1))),
        (
            "bs16",
            Decomp1::block_scatter(16, pmax, Bounds::range(0, n - 1)),
        ),
    ] {
        let mut dm = DecompMap::new();
        dm.insert("U".into(), dec.clone());
        dm.insert("V".into(), dec.clone());
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        let stats = CommStats::of_plan(&plan, &dm);
        eprintln!(
            "{:<10} {:>10} {:>14}",
            name, stats.sends, stats.local_updates
        );
        rows.push(ReportRow::new(
            "distributed_stencil_msgs",
            name.to_string(),
            stats.sends as f64 + stats.local_updates as f64,
            stats.local_updates as f64,
        ));

        let mut env = Env::new();
        env.insert(
            "U",
            Array::from_fn(Bounds::range(0, n - 1), |i| i.scalar() as f64),
        );
        env.insert("V", Array::zeros(Bounds::range(0, n - 1)));

        group.bench_function(name, |b| {
            b.iter(|| {
                let mut arrays: BTreeMap<String, DistArray> = BTreeMap::new();
                for a in ["U", "V"] {
                    arrays.insert(
                        a.into(),
                        DistArray::scatter_from(env.get(a).unwrap(), dm[a].clone()),
                    );
                }
                let r =
                    run_distributed(&plan, &clause, &mut arrays, DistOptions::default()).unwrap();
                black_box(r.total().msgs_sent)
            })
        });
    }
    group.finish();
    write_report("distributed_stencil", &rows);
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(1500))
        .warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_shared, bench_distributed
}
criterion_main!(benches);
