//! E17 — program-level DAG scheduling of multi-clause programs.
//!
//! `k` *independent* Jacobi-style clauses (each sweeping its own
//! `U_j`/`V_j` pair) form a program whose dependence DAG is one wave of
//! width `k`. The strict-sequential schedule dispatches the clauses one
//! at a time — `k` pool round-trips per timestep, each paying its own
//! endpoint reset, scatter/commit cycle and end-of-run barrier. The DAG
//! schedule dispatches the whole wave at once: one reset, one
//! disassemble/commit/reassemble transaction, and every worker posts
//! all clauses' boundary sends before any clause's update phase blocks
//! on a receive.
//!
//! Measured: warm steady-state seconds per timestep (sessions primed
//! before timing, so plans and the DAG are cached) for
//! `ScheduleMode::Seq` vs `ScheduleMode::Dag` over `k ∈ {4, 8}`.
//! Every configuration is verified
//! bit-identical between the two schedules before its timing is
//! reported. Acceptance bar: DAG ≥ 1.3× over sequential at `k ≥ 4`.
//!
//! A dependent-chain control (`k` clauses in one RAW chain, DAG
//! degenerates to one clause per wave) is reported alongside — the DAG
//! scheduler must not tax programs it cannot widen.
//!
//! Results land in `target/vcal-reports/BENCH_dag_schedule.json`, in
//! `BENCH_dag_schedule.json` at the repo root, and EXPERIMENTS.md E17.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;
use vcal_bench::{write_report, ReportRow};
use vcal_core::func::Fn1;
use vcal_core::{Array, ArrayRef, Bounds, Clause, Env, Expr, Guard, IndexSet, Ordering};
use vcal_decomp::Decomp1;
use vcal_machine::{DistSession, ProgramStep, ScheduleMode, NULL_TRACER};
use vcal_spmd::DecompMap;

const N: i64 = 1024;
const PMAX: i64 = 4;

fn jacobi(src: &str, dst: &str, n: i64) -> ProgramStep {
    ProgramStep::Clause(Clause {
        iter: IndexSet::range(1, n - 2),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1(dst, Fn1::identity()),
        rhs: Expr::mul(
            Expr::add(
                Expr::Ref(ArrayRef::d1(src, Fn1::shift(-1))),
                Expr::Ref(ArrayRef::d1(src, Fn1::shift(1))),
            ),
            Expr::Lit(0.5),
        ),
    })
}

/// `k` independent sweeps: clause `j` reads `U<j>`, writes `V<j>` —
/// one DAG wave of width `k`.
fn independent_program(k: usize) -> (Vec<ProgramStep>, DecompMap, Env) {
    let mut steps = Vec::new();
    let mut dm = DecompMap::new();
    let mut env = Env::new();
    for j in 0..k {
        let (u, v) = (format!("U{j}"), format!("V{j}"));
        steps.push(jacobi(&u, &v, N));
        for name in [&u, &v] {
            dm.insert(name.clone(), Decomp1::block(PMAX, Bounds::range(0, N - 1)));
            env.insert(
                name.clone(),
                Array::from_fn(Bounds::range(0, N - 1), |i| {
                    (i.scalar() * 7 + j as i64) as f64 * 0.25 - 3.0
                }),
            );
        }
    }
    (steps, dm, env)
}

/// `k` chained sweeps: clause `j` reads clause `j-1`'s output — a pure
/// RAW chain, DAG width 1 (the control case).
fn chained_program(k: usize) -> (Vec<ProgramStep>, DecompMap, Env) {
    let mut steps = Vec::new();
    let mut dm = DecompMap::new();
    let mut env = Env::new();
    for j in 0..=k {
        let name = format!("W{j}");
        dm.insert(name.clone(), Decomp1::block(PMAX, Bounds::range(0, N - 1)));
        env.insert(
            name.clone(),
            Array::from_fn(Bounds::range(0, N - 1), |i| {
                (i.scalar() % 19) as f64 * 0.5 - 4.0
            }),
        );
    }
    for j in 0..k {
        steps.push(jacobi(&format!("W{j}"), &format!("W{}", j + 1), N));
    }
    (steps, dm, env)
}

fn state_bits(session: &mut DistSession) -> Vec<u64> {
    let state = session.gather_all();
    let mut bits = Vec::new();
    for name in state.names() {
        if let Some(a) = state.get(name) {
            bits.extend(a.data().iter().map(|v| v.to_bits()));
        }
    }
    bits
}

/// Warm steady-state seconds per timestep for both schedules, plus the
/// final state bits of each.
///
/// The two schedules are timed in *interleaved* batches (seq batch,
/// dag batch, repeat) and each takes the best of its `trials` batches:
/// the schedules differ only in fixed dispatch overhead, and on a
/// shared host interleaving makes both sides sample the same load
/// windows while the per-side *minimum* is the estimator least
/// polluted by scheduler noise.
#[allow(clippy::type_complexity)]
fn warm_pair(
    steps: &[ProgramStep],
    dm: &DecompMap,
    env: &Env,
    timed: usize,
    trials: usize,
) -> ((f64, Vec<u64>), (f64, Vec<u64>)) {
    let mut seq_sess = DistSession::new(env, dm.clone()).unwrap();
    let mut dag_sess = DistSession::new(env, dm.clone()).unwrap();
    // prime: caches fill, pool threads spawn
    seq_sess
        .run_program(steps, ScheduleMode::Seq, &NULL_TRACER)
        .unwrap();
    dag_sess
        .run_program(steps, ScheduleMode::Dag, &NULL_TRACER)
        .unwrap();
    let (mut seq_best, mut dag_best) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..trials {
        let t0 = Instant::now();
        for _ in 0..timed {
            seq_sess
                .run_program(steps, ScheduleMode::Seq, &NULL_TRACER)
                .unwrap();
        }
        seq_best = seq_best.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        for _ in 0..timed {
            dag_sess
                .run_program(steps, ScheduleMode::Dag, &NULL_TRACER)
                .unwrap();
        }
        dag_best = dag_best.min(t0.elapsed().as_secs_f64());
    }
    (
        (seq_best / timed as f64, state_bits(&mut seq_sess)),
        (dag_best / timed as f64, state_bits(&mut dag_sess)),
    )
}

fn bench_dag_schedule(_c: &mut Criterion) {
    let (timed, trials) = (30, 20);
    let mut rows = Vec::new();

    for k in [4usize, 8] {
        let (steps, dm, env) = independent_program(k);
        let ((seq, seq_bits), (dag, dag_bits)) = warm_pair(&steps, &dm, &env, timed, trials);
        assert_eq!(
            seq_bits, dag_bits,
            "k={k}: DAG schedule must be bit-identical to sequential"
        );
        println!(
            "[independent] k={k}: seq {:.3} ms/step, dag {:.3} ms/step ({:.2}x)",
            seq * 1e3,
            dag * 1e3,
            seq / dag
        );
        rows.push(ReportRow::new(
            "BENCH_dag_schedule",
            format!(
                "k={k} independent jacobi clauses, warm s/step (seq -> dag), \
                 n={N} pmax={PMAX}"
            ),
            seq,
            dag,
        ));
    }

    // control: a RAW chain the DAG cannot widen — each width-1 wave
    // routes through the plain solo-run path, so the only tax over
    // strict sequential is the per-step DAG signature/cache lookup
    let (steps, dm, env) = chained_program(4);
    let ((seq, seq_bits), (dag, dag_bits)) = warm_pair(&steps, &dm, &env, timed, trials);
    assert_eq!(seq_bits, dag_bits, "chain: DAG must be bit-identical");
    println!(
        "[raw chain]   k=4: seq {:.3} ms/step, dag {:.3} ms/step ({:.2}x)",
        seq * 1e3,
        dag * 1e3,
        seq / dag
    );
    rows.push(ReportRow::new(
        "BENCH_dag_schedule",
        format!("k=4 RAW-chained clauses (control, width 1), warm s/step (seq -> dag), n={N}"),
        seq,
        dag,
    ));

    write_report("BENCH_dag_schedule", &rows);
    // the acceptance grid also lives at the repo root, next to
    // EXPERIMENTS.md, so E17's numbers are traceable without a build
    let local = std::path::Path::new("target")
        .join("vcal-reports")
        .join("BENCH_dag_schedule.json");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_dag_schedule.json");
    if let Err(e) = std::fs::copy(&local, &root) {
        eprintln!("warning: could not copy report to repo root: {e}");
    }
}

criterion_group!(benches, bench_dag_schedule);
criterion_main!(benches);
