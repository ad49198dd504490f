//! E15 — fused compute kernels.
//!
//! **Per-element kernel throughput** on the Jacobi sweep
//! (`V[i] := 0.5*(U[i-1]+U[i+1])`, 1024 elements) — the update-phase
//! inner loop in isolation: the tree interpreter ([`Env::eval_expr`]:
//! recursion, `Box` chasing, a `BTreeMap` lookup per array reference)
//! against the compiled path ([`CompiledKernel`] postfix bytecode and
//! the [`FusedShape::Stencil`] lane map that
//! [`CompiledKernel::eval_run`] runs straight off the local slice).
//! Acceptance bar: ≥ 3× compiled over interpreted.
//!
//! The whole warm step is timed by E14 (`--bench iteration`).
//!
//! Results land in `target/vcal-reports/BENCH_kernel_overlap.json` and
//! EXPERIMENTS.md E15.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;
use vcal_bench::{stencil_clause, write_report, ReportRow};
use vcal_core::func::Fn1;
use vcal_core::{Array, ArrayRef, Bounds, Env, Expr, Ix};
use vcal_spmd::{CompiledKernel, FusedShape};

const N: i64 = 1024;

// ---------------------------------------------------------------------
// per-element kernel throughput: interpreted vs compiled update loop
// ---------------------------------------------------------------------

/// The tree-interpreter inner loop: exactly what the legacy update phase
/// pays per element — `Env::eval_expr` recursion with a name lookup per
/// array reference.
fn interpreted_sweep(env: &Env, rhs: &Expr, out: &mut [f64]) {
    for i in 1..N - 1 {
        out[(i - 1) as usize] = env.eval_expr(rhs, &Ix::d1(i));
    }
}

/// The compiled bytecode loop: slot values gathered off the local slice,
/// one postfix evaluation per element — no recursion, no map lookups.
fn bytecode_sweep(u: &[f64], kernel: &CompiledKernel, stack: &mut Vec<f64>, out: &mut [f64]) {
    for i in 1..N - 1 {
        let vals = [u[(i - 1) as usize], u[(i + 1) as usize]];
        out[(i - 1) as usize] = kernel.eval(&[i], &vals, stack);
    }
}

/// What the machines run for a recognized shape: one `eval_run` over the
/// span, which runs the stencil's lane map straight off the slice.
fn fused_sweep(u: &[f64], kernel: &CompiledKernel, stack: &mut Vec<f64>, out: &mut [f64]) {
    let n = (N - 2) as usize;
    kernel.eval_run(&[1], 0, 1, &[&u[..n], &u[2..n + 2]], out, stack);
}

fn per_second(elems: u64, secs: f64) -> f64 {
    elems as f64 / secs
}

fn bench_kernel_overlap(c: &mut Criterion) {
    let mut env = Env::new();
    env.insert(
        "U",
        Array::from_fn(Bounds::range(0, N - 1), |i| {
            (i.scalar() % 17) as f64 * 0.25 - 2.0
        }),
    );
    let mut rows = Vec::new();

    let rhs = stencil_clause(N).rhs;
    let reads = [
        ("U".to_string(), Fn1::shift(-1)),
        ("U".to_string(), Fn1::shift(1)),
    ];
    let kernel = CompiledKernel::compile(&rhs, reads.len(), |r: &ArrayRef| {
        let g = r.map.as_fn1()?;
        reads.iter().position(|(a, h)| *a == r.array && h == g)
    })
    .expect("stencil compiles");
    assert!(
        matches!(kernel.fused, FusedShape::Stencil { .. }),
        "Jacobi must hit the fused stencil path"
    );
    let u: Vec<f64> = env.get("U").unwrap().data().to_vec();
    let mut out = vec![0.0f64; (N - 2) as usize];
    let mut stack = Vec::with_capacity(kernel.stack_capacity());

    let mut group = c.benchmark_group("kernel");
    group.bench_function("interpreted", |b| {
        b.iter(|| interpreted_sweep(black_box(&env), &rhs, &mut out))
    });
    group.bench_function("bytecode", |b| {
        b.iter(|| bytecode_sweep(black_box(&u), &kernel, &mut stack, &mut out))
    });
    group.bench_function("fused", |b| {
        b.iter(|| fused_sweep(black_box(&u), &kernel, &mut stack, &mut out))
    });
    group.finish();

    // hand-timed per-element throughput for the JSON report
    let reps = 2_000u64;
    let elems = reps * (N - 2) as u64;
    let t0 = Instant::now();
    for _ in 0..reps {
        interpreted_sweep(black_box(&env), &rhs, &mut out);
    }
    let interp = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for _ in 0..reps {
        bytecode_sweep(black_box(&u), &kernel, &mut stack, &mut out);
    }
    let bytec = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for _ in 0..reps {
        fused_sweep(black_box(&u), &kernel, &mut stack, &mut out);
    }
    let fused = t0.elapsed().as_secs_f64();
    black_box(&out);
    println!(
        "[kernel] per-element: interpreted {:.1} Melem/s, bytecode {:.1} Melem/s ({:.2}x), fused {:.1} Melem/s ({:.2}x)",
        per_second(elems, interp) / 1e6,
        per_second(elems, bytec) / 1e6,
        interp / bytec,
        per_second(elems, fused) / 1e6,
        interp / fused,
    );
    rows.push(ReportRow::new(
        "BENCH_kernel_overlap",
        format!("jacobi per-element seconds (interpreted -> compiled bytecode), n={N}"),
        interp / elems as f64,
        bytec / elems as f64,
    ));
    rows.push(ReportRow::new(
        "BENCH_kernel_overlap",
        format!("jacobi per-element seconds (interpreted -> fused stencil), n={N}"),
        interp / elems as f64,
        fused / elems as f64,
    ));

    write_report("BENCH_kernel_overlap", &rows);
}

criterion_group!(benches, bench_kernel_overlap);
criterion_main!(benches);
