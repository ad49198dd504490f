//! Extension ablation: DOACROSS pipelining (Section 2.6's remark) against
//! its baseline — the recurrence `A[i] := A[i-1] + B[i]`, single-node
//! sequential vs the DOACROSS pipeline over increasing processor counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;
use vcal_core::func::Fn1;
use vcal_core::{Array, ArrayRef, Bounds, Clause, Env, Expr, Guard, IndexSet, Ordering};
use vcal_decomp::Decomp1;
use vcal_machine::{run_doacross, DistArray};

fn recurrence(n: i64) -> Clause {
    Clause {
        iter: IndexSet::range(1, n - 1),
        ordering: Ordering::Seq,
        guard: Guard::Always,
        lhs: ArrayRef::d1("A", Fn1::identity()),
        rhs: Expr::add(
            Expr::Ref(ArrayRef::d1("A", Fn1::shift(-1))),
            Expr::Ref(ArrayRef::d1("B", Fn1::identity())),
        ),
    }
}

fn bench_doacross(c: &mut Criterion) {
    let n: i64 = 1 << 13;
    let clause = recurrence(n);
    let mut env = Env::new();
    env.insert("A", Array::zeros(Bounds::range(0, n - 1)));
    env.insert(
        "B",
        Array::from_fn(Bounds::range(0, n - 1), |i| (i.scalar() % 9) as f64),
    );

    let mut group = c.benchmark_group("pipelines/doacross");
    group.bench_function("sequential", |b| {
        b.iter(|| {
            let mut e = env.clone();
            e.exec_clause(&clause);
            black_box(e.get("A").unwrap().data()[10])
        })
    });
    for pmax in [2i64, 4, 8] {
        let dec = Decomp1::block(pmax, Bounds::range(0, n - 1));
        group.bench_with_input(BenchmarkId::new("pipeline", pmax), &pmax, |b, _| {
            b.iter(|| {
                let mut arrays: BTreeMap<String, DistArray> = BTreeMap::new();
                for name in ["A", "B"] {
                    arrays.insert(
                        name.into(),
                        DistArray::scatter_from(env.get(name).unwrap(), dec.clone()),
                    );
                }
                let r = run_doacross(&clause, &mut arrays).unwrap();
                black_box(r.total().msgs_sent)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(1200))
        .warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_doacross
}
criterion_main!(benches);
