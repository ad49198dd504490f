//! E16 — SIMD lane tier at production sizes.
//!
//! Three measurements over the `n ∈ {10⁶, 10⁷, 10⁸}` grid:
//!
//! * **update-loop throughput (the acceptance rows)** — the PR 5
//!   update-phase inner loop exactly as the machines ran it before the
//!   lane tier (per element: slot gather into a stack buffer,
//!   [`FusedShape::apply`], one staged `WriteOp::El`) against the lane
//!   tier's replacement (one [`vcal_spmd::simd`] chunk/AVX2 kernel pass
//!   staging a single `WriteOp::Dense`), for every fused shape.
//!   Acceptance bar: ≥ 2× on `Axpy`/`Stencil` at every size.
//! * **arithmetic-only throughput** — the bare `apply` loop vs the bare
//!   lane kernel, no staging. Rustc autovectorizes the bare scalar loop
//!   too, so at production sizes both sides run at the memory wall and
//!   the ratio approaches 1× — reported to show where the time actually
//!   goes (the El-staging traffic the Dense path deletes, not the flops).
//! * **machine-level step time** — `--simd off` vs `--simd auto` on the
//!   distributed machine: a warm [`DistSession`] Jacobi loop at
//!   `n = 10⁶` over a `pmax ∈ {1, 2, 4}` grid (this host has one core,
//!   so pmax > 1 measures time-sliced node threads, not parallel
//!   speedup — the interesting delta is scalar vs SIMD at fixed pmax),
//!   a cold single-node `run_distributed` run at `10⁷`, and warm
//!   single-node steps at `10⁷`/`10⁸` where the whole array is one
//!   interior run.
//!
//! Every configuration is verified bit-identical between the scalar and
//! SIMD runs before its timing is reported.
//!
//! Results land in `target/vcal-reports/BENCH_kernel_simd.json`, in
//! `BENCH_kernel_simd.json` at the repo root, and EXPERIMENTS.md E16.

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use vcal_bench::{stencil_clause, write_report, ReportRow};
use vcal_core::func::Fn1;
use vcal_core::{Array, ArrayRef, Bounds, Clause, Env, Expr, Guard, IndexSet, Ordering};
use vcal_decomp::Decomp1;
use vcal_machine::{run_distributed, DistArray, DistOptions, DistSession, SimdPolicy};
use vcal_spmd::{simd, DecompMap, FusedShape, SpmdPlan};

const SIZES: &[usize] = &[1_000_000, 10_000_000, 100_000_000];

/// Hand-timed repetitions per size: enough passes at 10⁶ to dominate
/// timer noise, a single pass at 10⁸ where one sweep is already long.
fn reps_for(n: usize) -> usize {
    (20_000_000 / n).clamp(1, 20)
}

fn per_second(elems: u64, secs: f64) -> f64 {
    elems as f64 / secs
}

/// Operand data with mixed signs and magnitudes (no NaN: the micro rows
/// compare bit patterns of whole output arrays).
fn ramp(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (i % 31) as f64 * 0.375 - 5.0 + (i % 7) as f64 * 1e-3)
        .collect()
}

/// Staged write mirroring the machine's `WriteOp`: the scalar update
/// loop emits one `El` per element, the lane tier one `Dense` per run.
enum StagedWrite {
    El { off: usize, v: f64 },
    Dense { base: usize, values: Vec<f64> },
}

/// The PR 5 update-phase inner loop, faithfully: per element, gather
/// the slot values into a stack buffer, `FusedShape::apply`, and stage
/// one `El` write — exactly what `exec_one_run` did before the lane
/// tier (minus guards and stats, which both paths share).
fn scalar_update_loop(shape: &FusedShape, srcs: &[&[f64]], writes: &mut Vec<StagedWrite>) {
    writes.clear();
    let n = srcs[0].len();
    match srcs {
        [s0] => {
            for i in 0..n {
                let v = shape.apply(&[s0[i]]).expect("fused arity");
                writes.push(StagedWrite::El { off: i, v });
            }
        }
        [s0, s1] => {
            for i in 0..n {
                let v = shape.apply(&[s0[i], s1[i]]).expect("fused arity");
                writes.push(StagedWrite::El { off: i, v });
            }
        }
        [s0, s1, s2] => {
            for i in 0..n {
                let v = shape.apply(&[s0[i], s1[i], s2[i]]).expect("fused arity");
                writes.push(StagedWrite::El { off: i, v });
            }
        }
        _ => unreachable!("fused shapes read 1..=3 slots"),
    }
}

/// The lane tier's replacement: one SIMD kernel pass into a dense
/// buffer, staged as a single `Dense` write (allocation included — the
/// machine pays it too).
fn simd_update_loop(
    policy: SimdPolicy,
    shape: &FusedShape,
    srcs: &[&[f64]],
    writes: &mut Vec<StagedWrite>,
) {
    writes.clear();
    let mut values = vec![0.0f64; srcs[0].len()];
    simd_fused(policy, shape, srcs, &mut values);
    writes.push(StagedWrite::Dense { base: 0, values });
}

/// Collapse staged writes back to an output array, as the host commit
/// does — used to verify the two staging paths produce identical bits.
fn commit(writes: &[StagedWrite], out: &mut [f64]) {
    for w in writes {
        match w {
            StagedWrite::El { off, v } => out[*off] = *v,
            StagedWrite::Dense { base, values } => {
                out[*base..*base + values.len()].copy_from_slice(values)
            }
        }
    }
}

/// The bare scalar fused loop: one `FusedShape::apply` per element, no
/// staging — rustc autovectorizes this too, so it is *not* the PR 5
/// machine baseline, just the arithmetic floor.
fn scalar_fused(shape: &FusedShape, srcs: &[&[f64]], out: &mut [f64]) {
    match srcs {
        [s0] => {
            for (o, v) in out.iter_mut().zip(s0.iter()) {
                *o = shape.apply(&[*v]).expect("fused arity");
            }
        }
        [s0, s1] => {
            for (i, o) in out.iter_mut().enumerate() {
                *o = shape.apply(&[s0[i], s1[i]]).expect("fused arity");
            }
        }
        [s0, s1, s2] => {
            for (i, o) in out.iter_mut().enumerate() {
                *o = shape.apply(&[s0[i], s1[i], s2[i]]).expect("fused arity");
            }
        }
        _ => unreachable!("fused shapes read 1..=3 slots"),
    }
}

/// The SIMD lane tier on the same inputs.
fn simd_fused(policy: SimdPolicy, shape: &FusedShape, srcs: &[&[f64]], out: &mut [f64]) {
    match shape {
        FusedShape::Copy { .. } => simd::copy(policy, srcs[0], out),
        FusedShape::Axpy { a, b, .. } => simd::axpy(policy, *a, *b, srcs[0], out),
        FusedShape::Stencil {
            slots,
            left_assoc,
            scale,
            offset,
        } => match slots.len() {
            2 => simd::stencil2(policy, *scale, *offset, srcs[0], srcs[1], out),
            _ => simd::stencil3(
                policy,
                *left_assoc,
                *scale,
                *offset,
                srcs[0],
                srcs[1],
                srcs[2],
                out,
            ),
        },
        FusedShape::Generic => unreachable!("micro rows only bench fused shapes"),
    }
}

/// Time `f` over `reps` passes (one untimed warmup pass first).
fn timed(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

/// The fused shapes of the micro grid, with their operand counts.
fn micro_shapes() -> Vec<(&'static str, FusedShape, usize)> {
    vec![
        ("copy", FusedShape::Copy { slot: 0 }, 1),
        (
            "axpy",
            FusedShape::Axpy {
                a: Some(1.5),
                slot: 0,
                b: Some(-0.25),
            },
            1,
        ),
        (
            "stencil2",
            FusedShape::Stencil {
                slots: vec![0, 1],
                left_assoc: true,
                scale: Some(0.5),
                offset: None,
            },
            2,
        ),
        (
            "stencil3",
            FusedShape::Stencil {
                slots: vec![0, 1, 2],
                left_assoc: true,
                scale: Some(1.0 / 3.0),
                offset: Some(0.125),
            },
            3,
        ),
    ]
}

// ---------------------------------------------------------------------
// machine level: the Jacobi workload at production sizes
// ---------------------------------------------------------------------

fn back_clause(n: i64) -> Clause {
    Clause {
        iter: IndexSet::range(1, n - 2),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1("U", Fn1::identity()),
        rhs: Expr::Ref(ArrayRef::d1("V", Fn1::identity())),
    }
}

fn jacobi_env(n: i64) -> Env {
    let mut env = Env::new();
    env.insert(
        "U",
        Array::from_fn(Bounds::range(0, n - 1), |i| {
            (i.scalar() % 17) as f64 * 0.25 - 2.0
        }),
    );
    env.insert("V", Array::zeros(Bounds::range(0, n - 1)));
    env
}

fn jacobi_decomps(n: i64, pmax: i64) -> DecompMap {
    let mut dm = DecompMap::new();
    dm.insert("U".into(), Decomp1::block(pmax, Bounds::range(0, n - 1)));
    dm.insert("V".into(), Decomp1::block(pmax, Bounds::range(0, n - 1)));
    dm
}

fn dist_arrays(env: &Env, dm: &DecompMap) -> BTreeMap<String, DistArray> {
    let mut arrays = BTreeMap::new();
    for name in ["U", "V"] {
        arrays.insert(
            name.to_string(),
            DistArray::scatter_from(env.get(name).unwrap(), dm[name].clone()),
        );
    }
    arrays
}

/// One cold Jacobi timestep (sweep + write-back) through
/// `run_distributed`; returns the gathered `U` bit pattern for the
/// scalar-vs-SIMD identity check.
fn cold_step(n: i64, env: &Env, dm: &DecompMap, opts: DistOptions) -> (f64, Vec<u64>) {
    let sweep = stencil_clause(n);
    let back = back_clause(n);
    let sweep_plan = SpmdPlan::build(&sweep, dm).unwrap();
    let back_plan = SpmdPlan::build(&back, dm).unwrap();
    let mut arrays = dist_arrays(env, dm);
    let t0 = Instant::now();
    run_distributed(&sweep_plan, &sweep, &mut arrays, opts).unwrap();
    run_distributed(&back_plan, &back, &mut arrays, opts).unwrap();
    let secs = t0.elapsed().as_secs_f64();
    let bits = arrays["U"]
        .gather()
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    (secs, bits)
}

/// Warm per-step seconds through a primed `DistSession`, plus the final
/// `U` bit pattern.
fn warm_steps(
    n: i64,
    env: &Env,
    dm: &DecompMap,
    opts: DistOptions,
    steps: usize,
) -> (f64, Vec<u64>) {
    let sweep = stencil_clause(n);
    let back = back_clause(n);
    let mut session = DistSession::new(env, dm.clone())
        .unwrap()
        .with_options(opts);
    session.run(&sweep).unwrap();
    session.run(&back).unwrap();
    let t0 = Instant::now();
    for _ in 0..steps {
        session.run(&sweep).unwrap();
        session.run(&back).unwrap();
    }
    let secs = t0.elapsed().as_secs_f64() / steps as f64;
    let bits = session
        .gather("U")
        .unwrap()
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    (secs, bits)
}

fn opts_with(simd: SimdPolicy) -> DistOptions {
    DistOptions {
        simd,
        ..DistOptions::default()
    }
}

fn bench_kernel_simd(c: &mut Criterion) {
    let mut rows = Vec::new();

    // ---- criterion group: lane kernels at n = 10⁶ -------------------
    {
        let n = SIZES[0];
        let a = ramp(n);
        let b: Vec<f64> = a.iter().map(|v| v * 0.75 + 0.5).collect();
        let c3: Vec<f64> = a.iter().map(|v| v * -0.25 + 2.0).collect();
        let mut out = vec![0.0f64; n];
        let mut group = c.benchmark_group("simd_kernel");
        group.sample_size(10);
        for (label, shape, n_ops) in micro_shapes() {
            let srcs: Vec<&[f64]> = [&a, &b, &c3].iter().take(n_ops).map(|s| &s[..]).collect();
            group.bench_function(format!("{label}/scalar"), |bch| {
                bch.iter(|| scalar_fused(black_box(&shape), &srcs, &mut out))
            });
            group.bench_function(format!("{label}/simd"), |bch| {
                bch.iter(|| simd_fused(SimdPolicy::auto(), black_box(&shape), &srcs, &mut out))
            });
        }
        group.finish();
    }

    // ---- hand-timed micro grid: every shape × every size ------------
    for &n in SIZES {
        let reps = reps_for(n);
        let a = ramp(n);
        let b: Vec<f64> = a.iter().map(|v| v * 0.75 + 0.5).collect();
        let c3: Vec<f64> = a.iter().map(|v| v * -0.25 + 2.0).collect();
        let mut out_scalar = vec![0.0f64; n];
        let mut out_simd = vec![0.0f64; n];
        let mut writes = Vec::with_capacity(n);
        for (label, shape, n_ops) in micro_shapes() {
            let srcs: Vec<&[f64]> = [&a, &b, &c3].iter().take(n_ops).map(|s| &s[..]).collect();

            // acceptance rows: the PR 5 update loop vs the lane tier,
            // staging included on both sides
            let scalar_staged = timed(reps, || {
                scalar_update_loop(black_box(&shape), &srcs, &mut writes)
            });
            commit(&writes, &mut out_scalar);
            let simd_staged = timed(reps, || {
                simd_update_loop(SimdPolicy::auto(), black_box(&shape), &srcs, &mut writes)
            });
            commit(&writes, &mut out_simd);
            assert!(
                out_scalar
                    .iter()
                    .zip(out_simd.iter())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "{label} n={n}: staged SIMD output must be bit-identical to scalar"
            );
            println!(
                "[update {label}] n={n}: scalar+El {:.0} Melem/s, simd+Dense {:.0} Melem/s ({:.2}x)",
                per_second(n as u64, scalar_staged) / 1e6,
                per_second(n as u64, simd_staged) / 1e6,
                scalar_staged / simd_staged
            );
            rows.push(ReportRow::new(
                "BENCH_kernel_simd",
                format!("{label} update-loop per-element seconds (scalar apply + El staging -> simd + Dense), n={n}"),
                scalar_staged / n as f64,
                simd_staged / n as f64,
            ));

            // arithmetic-only rows: both sides autovectorize; the ratio
            // shows the memory wall, not the tier's win
            let scalar = timed(reps, || {
                scalar_fused(black_box(&shape), &srcs, &mut out_scalar)
            });
            let vector = timed(reps, || {
                simd_fused(SimdPolicy::auto(), black_box(&shape), &srcs, &mut out_simd)
            });
            assert!(
                out_scalar
                    .iter()
                    .zip(out_simd.iter())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "{label} n={n}: SIMD output must be bit-identical to scalar"
            );
            println!(
                "[arith {label}] n={n}: scalar {:.0} Melem/s, simd {:.0} Melem/s ({:.2}x)",
                per_second(n as u64, scalar) / 1e6,
                per_second(n as u64, vector) / 1e6,
                scalar / vector
            );
            rows.push(ReportRow::new(
                "BENCH_kernel_simd",
                format!("{label} arithmetic-only per-element seconds (scalar apply -> simd lanes), n={n}"),
                scalar / n as f64,
                vector / n as f64,
            ));
        }
    }

    // ---- machine level: warm Jacobi at 10⁶ over the pmax grid -------
    {
        let n = SIZES[0] as i64;
        let env = jacobi_env(n);
        let steps = 5;
        for pmax in [1i64, 2, 4] {
            let dm = jacobi_decomps(n, pmax);
            let (scalar, scalar_bits) =
                warm_steps(n, &env, &dm, opts_with(SimdPolicy::off()), steps);
            let (vector, vector_bits) =
                warm_steps(n, &env, &dm, opts_with(SimdPolicy::auto()), steps);
            assert_eq!(
                scalar_bits, vector_bits,
                "pmax={pmax}: SIMD machine run must be bit-identical to scalar"
            );
            println!(
                "[machine warm] n={n} pmax={pmax}: scalar {:.1} ms/step, simd {:.1} ms/step ({:.2}x)",
                scalar * 1e3,
                vector * 1e3,
                scalar / vector
            );
            rows.push(ReportRow::new(
                "BENCH_kernel_simd",
                format!("jacobi warm per-step seconds (simd off -> auto), n={n} pmax={pmax}"),
                scalar,
                vector,
            ));
        }
    }

    // ---- machine level: a cold single-node run at 10⁷ ----------------
    {
        let n = SIZES[1] as i64;
        let env = jacobi_env(n);
        let dm = jacobi_decomps(n, 1);
        let (scalar, scalar_bits) = cold_step(n, &env, &dm, opts_with(SimdPolicy::off()));
        let (vector, vector_bits) = cold_step(n, &env, &dm, opts_with(SimdPolicy::auto()));
        assert_eq!(
            scalar_bits, vector_bits,
            "n={n}: SIMD machine run must be bit-identical to scalar"
        );
        println!(
            "[machine cold] n={n} pmax=1: scalar {:.2} s, simd {:.2} s ({:.2}x)",
            scalar,
            vector,
            scalar / vector
        );
        rows.push(ReportRow::new(
            "BENCH_kernel_simd",
            format!("jacobi cold step seconds (simd off -> auto), n={n} pmax=1"),
            scalar,
            vector,
        ));
    }

    // ---- machine level: warm single-node steps at 10⁷ and 10⁸ -------
    // (warm isolates the update phase the tier rewrites: plan build and
    // node spawn are paid once in the priming step, not re-measured)
    for (&n, steps) in SIZES[1..].iter().zip([3usize, 1]) {
        let n = n as i64;
        let env = jacobi_env(n);
        let dm = jacobi_decomps(n, 1);
        let (scalar, scalar_bits) = warm_steps(n, &env, &dm, opts_with(SimdPolicy::off()), steps);
        let (vector, vector_bits) = warm_steps(n, &env, &dm, opts_with(SimdPolicy::auto()), steps);
        assert_eq!(
            scalar_bits, vector_bits,
            "n={n}: warm SIMD machine run must be bit-identical to scalar"
        );
        println!(
            "[machine warm] n={n} pmax=1: scalar {:.2} s/step, simd {:.2} s/step ({:.2}x)",
            scalar,
            vector,
            scalar / vector
        );
        rows.push(ReportRow::new(
            "BENCH_kernel_simd",
            format!("jacobi warm per-step seconds (simd off -> auto), n={n} pmax=1"),
            scalar,
            vector,
        ));
    }

    write_report("BENCH_kernel_simd", &rows);
    // the acceptance grid also lives at the repo root, next to
    // EXPERIMENTS.md, so E16's numbers are traceable without a build
    let local = std::path::Path::new("target")
        .join("vcal-reports")
        .join("BENCH_kernel_simd.json");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_kernel_simd.json");
    if let Err(e) = std::fs::copy(&local, &root) {
        eprintln!("warning: could not copy report to repo root: {e}");
    }
}

criterion_group!(benches, bench_kernel_simd);
criterion_main!(benches);
