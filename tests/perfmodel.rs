//! Invariants of the calibrated §4 performance model (DESIGN.md §17).
//!
//! The tuner trusts [`CostModel::price_plan`] to rank candidate
//! decompositions without executing them, so the model must be
//! *monotone* in the things that cost money — more messages, more
//! bytes, more iterations never get cheaper — and its calibrated
//! predictions must land within shouting distance of the wall-clock it
//! was fit from (a loose bound: the harness must catch unit mistakes
//! and inverted ratios, not microbenchmark noise).

use vcal_suite::core::func::Fn1;
use vcal_suite::core::{Array, ArrayRef, Bounds, Clause, Env, Expr, Guard, IndexSet, Ordering};
use vcal_suite::decomp::Decomp1;
use vcal_suite::machine::perfmodel;
use vcal_suite::machine::session::copy_clause;
use vcal_suite::machine::{
    CalibrationSample, CollectingTracer, DistSession, ScheduleMode, TuneOptions, NULL_TRACER,
};
use vcal_suite::spmd::{CostModel, DecompMap, ProgramStep, SpmdPlan};

const PMAX: i64 = 4;

fn stencil(n: i64) -> Clause {
    Clause {
        iter: IndexSet::range(1, n - 2),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1("V", Fn1::identity()),
        rhs: Expr::mul(
            Expr::add(
                Expr::Ref(ArrayRef::d1("U", Fn1::shift(-1))),
                Expr::Ref(ArrayRef::d1("U", Fn1::shift(1))),
            ),
            Expr::Lit(0.5),
        ),
    }
}

fn plan_for(n: i64, dec: fn(i64, Bounds) -> Decomp1) -> SpmdPlan {
    let mut dm = DecompMap::new();
    dm.insert("U".into(), dec(PMAX, Bounds::range(0, n - 1)));
    dm.insert("V".into(), dec(PMAX, Bounds::range(0, n - 1)));
    SpmdPlan::build(&stencil(n), &dm).unwrap()
}

/// More communication at equal work must never price cheaper: the
/// scatter stencil moves (nearly) every read across nodes, the block
/// stencil only the boundaries.
#[test]
fn price_is_monotone_in_message_count() {
    let model = CostModel::ERA;
    for n in [64i64, 256, 1024] {
        let block = model.price_plan(&plan_for(n, Decomp1::block));
        let scatter = model.price_plan(&plan_for(n, Decomp1::scatter));
        assert!(
            block.total < scatter.total,
            "n={n}: block {} must undercut scatter {}",
            block.total,
            scatter.total
        );
    }
}

/// More elements at the same layout must never price cheaper, and the
/// aggregate must dominate the critical path.
#[test]
fn price_is_monotone_in_element_count() {
    let model = CostModel::ERA;
    let mut last = 0.0f64;
    for n in [64i64, 256, 1024, 4096] {
        let p = model.price_plan(&plan_for(n, Decomp1::block));
        assert!(
            p.total > last,
            "n={n}: price {} did not grow past {last}",
            p.total
        );
        assert!(p.aggregate >= p.total);
        assert!((0..PMAX).contains(&p.bottleneck));
        last = p.total;
    }
}

/// Redistribution pricing — the copy clause's plan, as the tuner prices
/// a switch — grows with the volume moved.
#[test]
fn redist_price_is_monotone_in_moved_elements() {
    let model = CostModel::ERA;
    let mut last = 0.0f64;
    for n in [64i64, 256, 1024] {
        let ext = Bounds::range(0, n - 1);
        let (from, to) = (Decomp1::block(PMAX, ext), Decomp1::scatter(PMAX, ext));
        let (_, _, plan) = copy_clause("U", &from, &to).unwrap();
        let price = model.price_plan(&plan).aggregate;
        assert!(
            price > last,
            "n={n}: redistribution price {price} did not grow past {last}"
        );
        last = price;
    }
}

/// A fit from a communication-free profile preserves the era-default
/// startup/iteration ratio in absolute terms, so communication-bearing
/// candidates still rank sensibly against compute-only ones.
#[test]
fn comm_free_fit_preserves_default_ratios() {
    let default = CostModel::ERA;
    let sample = CalibrationSample {
        iterations: 1000,
        update_ns: 250_000.0,
        ..CalibrationSample::default()
    };
    let fit = perfmodel::fit(&[sample]).expect("update time is enough to calibrate");
    assert_eq!(fit.t_iter, 250.0);
    let ratio = fit.t_packet / fit.t_iter;
    let default_ratio = default.t_packet / default.t_iter;
    assert!(
        (ratio - default_ratio).abs() < 1e-9,
        "startup/iteration ratio drifted: {ratio} vs {default_ratio}"
    );
    // nothing measured at all → nothing to calibrate
    assert!(perfmodel::fit(&[CalibrationSample::default()]).is_none());
    assert!(perfmodel::fit(&[]).is_none());
}

/// End to end: profile a warm step, fit the model, and check the
/// calibrated prediction for the *observed* layout lands within a
/// generous band of the measured wall-clock. The band is wide (50×
/// either way) — it exists to catch unit mistakes (µs for ns) and
/// inverted fits, not to benchmark the host.
#[test]
fn calibrated_prediction_tracks_measurement() {
    let n = 2048i64;
    let clause = stencil(n);
    let mut dm = DecompMap::new();
    for a in ["U", "V"] {
        dm.insert(a.into(), Decomp1::block(PMAX, Bounds::range(0, n - 1)));
    }
    let mut env = Env::new();
    for a in ["U", "V"] {
        env.insert(
            a,
            Array::from_fn(Bounds::range(0, n - 1), |i| i.scalar() as f64),
        );
    }
    let mut session = DistSession::new(&env, dm.clone()).unwrap();
    // one cold step to warm plans and the pool
    session.run(&clause).unwrap();
    // one warm, traced, wall-clocked step
    let tracer = CollectingTracer::new();
    let t0 = std::time::Instant::now();
    let report = session.run_traced(&clause, &tracer).unwrap();
    let measured_ns = t0.elapsed().as_nanos() as f64;
    let sample = CalibrationSample::of([&report], &tracer.finish());
    assert!(sample.iterations > 0, "profile saw no iterations");
    assert!(sample.update_ns > 0.0, "profile saw no update time");
    let model = perfmodel::fit(&[sample]).expect("warm profile must calibrate");
    assert!(model.t_iter > 0.0);

    let plan = SpmdPlan::build(&clause, &dm).unwrap();
    let predicted_ns = model.price_plan(&plan).total;
    assert!(
        predicted_ns > measured_ns / 50.0 && predicted_ns < measured_ns * 50.0,
        "calibrated prediction {predicted_ns} ns is not within 50x of \
         the measured {measured_ns} ns it was fit from"
    );
}

/// The tuner's own honesty counter: `model_error` relates the incumbent
/// prediction to the measured profile step, and must come out finite
/// and not absurd on a healthy run.
#[test]
fn tune_report_model_error_is_sane() {
    let n = 512i64;
    let steps = vec![ProgramStep::Clause(stencil(n))];
    let mut dm = DecompMap::new();
    for a in ["U", "V"] {
        dm.insert(a.into(), Decomp1::block(PMAX, Bounds::range(0, n - 1)));
    }
    let mut env = Env::new();
    for a in ["U", "V"] {
        env.insert(
            a,
            Array::from_fn(Bounds::range(0, n - 1), |i| i.scalar() as f64),
        );
    }
    let mut session = DistSession::new(&env, dm).unwrap();
    let (_, tune) = session
        .run_program_tuned(
            &steps,
            6,
            ScheduleMode::Seq,
            TuneOptions::default(),
            &NULL_TRACER,
        )
        .unwrap();
    assert!(tune.calibrated, "a healthy profile must calibrate");
    assert!(tune.model_error.is_finite());
    assert!(
        tune.model_error < 50.0,
        "model error {} means prediction and measurement are not even \
         on the same scale",
        tune.model_error
    );
    assert!(tune.measured_step_ns > 0.0);
    assert!(tune.baseline_step_ns > 0.0);
    assert!(tune.worst_step_ns >= tune.baseline_step_ns.min(tune.predicted_step_ns));
}
