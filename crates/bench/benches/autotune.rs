//! E18 — calibrated decomposition auto-tuning of timestep loops.
//!
//! A stencil loop started on a deliberately misaligned (scatter)
//! layout is handed to [`DistSession::run_program_tuned`]: the tuner
//! profiles the leading steps, fits the §4 cost model's constants from
//! the measured phase timings, prices the Block / Scatter /
//! BlockScatter candidate space from plans alone, and inserts a
//! mid-loop redistribution onto its argmin layout. Measured: warm
//! steady-state seconds per step *after* tuning vs (a) the worst-priced
//! candidate layout and (b) the layout the uncalibrated era-default
//! model would pick, over `workload ∈ {stencil, stencil+consume}`.
//!
//! Acceptance bars:
//! * the tuned steady state beats the worst candidate by ≥ 1.5× on
//!   every configuration;
//! * the tuned steady state is ≥ 1.0× the era-default pick on at least
//!   two configurations (calibration must never lose to the 1991
//!   constants, which usually agree on the argmin — the claim is "no
//!   regression", not "free lunch");
//! * the calibrated model's predicted ranking of top choice vs worst
//!   candidate matches the measured ranking.
//!
//! Every tuned run is verified bit-identical to the iterated
//! sequential reference before its timing is reported. Results land in
//! `target/vcal-reports/BENCH_autotune.json`, in `BENCH_autotune.json`
//! at the repo root, and EXPERIMENTS.md E18.

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::BTreeMap;
use std::time::Instant;
use vcal_bench::{write_report, ReportRow};
use vcal_core::func::Fn1;
use vcal_core::{Array, ArrayRef, Bounds, Clause, Env, Expr, Guard, IndexSet, Ordering};
use vcal_decomp::Decomp1;
use vcal_machine::perfmodel::fit;
use vcal_machine::{
    CalibrationSample, CollectingTracer, DistSession, ProgramStep, ScheduleMode, TuneOptions,
    NULL_TRACER,
};
use vcal_spmd::{advise, Candidate, CostModel, DecompMap};

const N: i64 = 2048;
const PMAX: i64 = 4;
const TUNE_STEPS: u64 = 64;

fn stencil(src: &str, dst: &str) -> ProgramStep {
    ProgramStep::Clause(Clause {
        iter: IndexSet::range(1, N - 2),
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

fn consume(src: &str, dst: &str) -> ProgramStep {
    ProgramStep::Clause(Clause {
        iter: IndexSet::range(1, N - 2),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1(dst, Fn1::identity()),
        rhs: Expr::add(
            Expr::Ref(ArrayRef::d1(src, Fn1::identity())),
            Expr::Lit(1.0),
        ),
    })
}

/// The two workloads: a single Jacobi sweep and a sweep feeding an
/// elementwise consumer.
fn workloads() -> Vec<(&'static str, Vec<ProgramStep>, Vec<&'static str>)> {
    vec![
        ("stencil", vec![stencil("U", "V")], vec!["U", "V"]),
        (
            "stencil+consume",
            vec![stencil("U", "V"), consume("V", "W")],
            vec!["U", "V", "W"],
        ),
    ]
}

fn layout(names: &[&str], dec: impl Fn(Bounds) -> Decomp1) -> DecompMap {
    let ext = Bounds::range(0, N - 1);
    names.iter().map(|n| ((*n).to_string(), dec(ext))).collect()
}

fn initial_env(names: &[&str]) -> Env {
    let mut env = Env::new();
    for (j, name) in names.iter().enumerate() {
        env.insert(
            (*name).to_string(),
            Array::from_fn(Bounds::range(0, N - 1), |i| {
                (i.scalar() * 7 + j as i64) as f64 * 0.25 - 3.0
            }),
        );
    }
    env
}

/// Reproduce the tuner's calibration externally: one cold + one warm
/// traced step on the incumbent layout, sample, fit.
fn calibrate(steps: &[ProgramStep], dm: &DecompMap, env: &Env) -> CostModel {
    let mut session = DistSession::new(env, dm.clone()).unwrap();
    session
        .run_program(steps, ScheduleMode::Seq, &NULL_TRACER)
        .unwrap();
    let tracer = CollectingTracer::new();
    let report = session
        .run_program(steps, ScheduleMode::Seq, &tracer)
        .unwrap();
    let sample = CalibrationSample::of(&report.steps, &tracer.finish());
    fit(&[sample]).expect("warm profile must calibrate")
}

/// Price the tuner's candidate space (the era ranking's top `budget`):
/// program price = sum of per-clause critical paths, the tuner's
/// objective (no bench program holds a copy that could rename).
fn priced_space(steps: &[ProgramStep], names: &[&str], model: &CostModel) -> Vec<(f64, Candidate)> {
    let clauses: Vec<Clause> = steps
        .iter()
        .map(|s| match s {
            ProgramStep::Clause(c) => c.clone(),
            ProgramStep::Redistribute { .. } => unreachable!("bench programs are clause-only"),
        })
        .collect();
    let extents: BTreeMap<String, Bounds> = names
        .iter()
        .map(|n| ((*n).to_string(), Bounds::range(0, N - 1)))
        .collect();
    let mut space = advise(&clauses, &extents, PMAX).expect("bench candidate space");
    space.truncate(TuneOptions::default().budget);
    let mut priced: Vec<(f64, Candidate)> = space
        .into_iter()
        .map(|c| {
            let price: f64 = c.plans.iter().map(|p| model.price_plan(p).total).sum();
            (price, c)
        })
        .collect();
    priced.sort_by(|a, b| a.0.total_cmp(&b.0));
    priced
}

/// Warm steady-state seconds per step for several sessions, timed in
/// interleaved best-of batches so every contender samples the same
/// host-load windows.
fn steady(
    sessions: &mut [&mut DistSession],
    steps: &[ProgramStep],
    timed: usize,
    trials: usize,
) -> Vec<f64> {
    for s in sessions.iter_mut() {
        s.run_program(steps, ScheduleMode::Seq, &NULL_TRACER)
            .unwrap();
    }
    let mut best = vec![f64::INFINITY; sessions.len()];
    for _ in 0..trials {
        for (k, s) in sessions.iter_mut().enumerate() {
            let t0 = Instant::now();
            for _ in 0..timed {
                s.run_program(steps, ScheduleMode::Seq, &NULL_TRACER)
                    .unwrap();
            }
            best[k] = best[k].min(t0.elapsed().as_secs_f64());
        }
    }
    best.into_iter().map(|b| b / timed as f64).collect()
}

fn bench_autotune(_c: &mut Criterion) {
    let (timed, trials) = (12, 10);
    let mut rows = Vec::new();
    let mut default_wins = 0usize;

    for (wname, steps, names) in workloads() {
        let env = initial_env(&names);
        let incumbent = layout(&names, |e| Decomp1::scatter(PMAX, e));

        // the tuned run: misaligned start, tuner in the loop
        let mut reference = env.clone();
        for _ in 0..TUNE_STEPS {
            for step in &steps {
                if let ProgramStep::Clause(c) = step {
                    reference.exec_clause(c);
                }
            }
        }
        let mut tuned = DistSession::new(&env, incumbent.clone()).unwrap();
        let (_, tune) = tuned
            .run_program_tuned(
                &steps,
                TUNE_STEPS,
                ScheduleMode::Seq,
                TuneOptions::default(),
                &NULL_TRACER,
            )
            .unwrap();
        assert!(
            tune.switched,
            "{wname}: a scattered stencil must amortize a switch"
        );
        let got = tuned.gather_all();
        for name in &names {
            assert_eq!(
                got.get(name)
                    .unwrap()
                    .max_abs_diff(reference.get(name).unwrap()),
                0.0,
                "{wname}: tuned run diverged on `{name}`"
            );
        }

        // contenders: worst calibrated candidate, era-default pick
        let model = calibrate(&steps, &incumbent, &env);
        let priced = priced_space(&steps, &names, &model);
        let (best_price, _) = &priced[0];
        let (worst_price, worst_cand) = priced.last().unwrap();
        let default_priced = priced_space(&steps, &names, &CostModel::ERA);
        let (_, default_cand) = &default_priced[0];

        let mut worst = DistSession::new(&env, worst_cand.decomps.clone()).unwrap();
        let mut default_pick = DistSession::new(&env, default_cand.decomps.clone()).unwrap();
        let times = steady(
            &mut [&mut tuned, &mut worst, &mut default_pick],
            &steps,
            timed,
            trials,
        );
        let (t_tuned, t_worst, t_default) = (times[0], times[1], times[2]);

        println!(
            "[{wname}] tuned {:.3} ms/step, worst {:.3} ms/step ({:.2}x), \
             era-default pick {:.3} ms/step ({:.2}x)",
            t_tuned * 1e3,
            t_worst * 1e3,
            t_worst / t_tuned,
            t_default * 1e3,
            t_default / t_tuned
        );
        assert!(
            t_worst / t_tuned >= 1.5,
            "{wname}: tuned must beat the worst candidate 1.5x, got {:.2}x",
            t_worst / t_tuned
        );
        assert!(
            best_price < worst_price,
            "{wname}: predicted ranking degenerate"
        );
        assert!(
            t_tuned < t_worst,
            "{wname}: predicted top choice must also measure ahead of \
             the predicted worst"
        );
        if t_default / t_tuned >= 1.0 {
            default_wins += 1;
        }

        rows.push(ReportRow::new(
            "BENCH_autotune",
            format!(
                "{wname}: warm s/step, worst candidate -> tuned, n={N} pmax={PMAX} \
                 (tuner switched from scatter, {} candidates priced)",
                tune.candidates_priced
            ),
            t_worst,
            t_tuned,
        ));
        rows.push(ReportRow::new(
            "BENCH_autotune",
            format!(
                "{wname}: warm s/step, era-default model pick -> calibrated tuned, \
                 n={N} pmax={PMAX}"
            ),
            t_default,
            t_tuned,
        ));
    }
    assert!(
        default_wins >= 1,
        "calibrated tuning must match or beat the era-default pick on at \
         least one of the two workloads, got {default_wins}"
    );

    write_report("BENCH_autotune", &rows);
    // the acceptance grid also lives at the repo root, next to
    // EXPERIMENTS.md, so E18's numbers are traceable without a build
    let local = std::path::Path::new("target")
        .join("vcal-reports")
        .join("BENCH_autotune.json");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_autotune.json");
    if let Err(e) = std::fs::copy(&local, &root) {
        eprintln!("warning: could not copy report to repo root: {e}");
    }
}

criterion_group!(benches, bench_autotune);
criterion_main!(benches);
