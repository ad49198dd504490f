//! Differential oracle harness for the decomposition auto-tuner
//! (DESIGN.md §17).
//!
//! [`DistSession::run_program_tuned`] profiles the leading steps of a
//! timestep loop, calibrates the §4 cost model from the measured
//! timings, prices the candidate layout space from plans alone, and may
//! insert a mid-loop redistribution when switching is predicted to
//! amortize. The contract is twofold:
//!
//! * **bitwise correctness** — whatever layout the tuner picks, and
//!   whether or not it switches, the final state of every array is
//!   bit-identical to the iterated sequential reference, under either
//!   schedule mode;
//! * **decision sanity** — a clearly misaligned incumbent with plenty
//!   of remaining steps is switched away from (redistribution
//!   inserted); an already-optimal incumbent is kept.
//!
//! Deterministic fixtures pin the canonical cases; the proptest sweep
//! drives random clause programs through the configuration matrix.

use proptest::prelude::*;
use vcal_suite::core::func::Fn1;
use vcal_suite::core::pred::CmpOp;
use vcal_suite::core::{Array, ArrayRef, Bounds, Clause, Env, Expr, Guard, IndexSet, Ordering};
use vcal_suite::decomp::{Decomp1, Distribution};
use vcal_suite::machine::{
    DistOptions, DistSession, MachineError, ProgramStep, ScheduleMode, TuneOptions, TuneReport,
    NULL_TRACER,
};
use vcal_suite::spmd::DecompMap;

const N: i64 = 96;
const PMAX: i64 = 4;
const NAMES: [&str; 3] = ["A", "B", "C"];

/// Deterministic mixed-sign initial data so guards fire both ways.
fn initial_env(decomps: &DecompMap) -> Env {
    let mut env = Env::new();
    for (name, dec) in decomps.iter() {
        let salt = name.bytes().next().unwrap_or(0) as i64;
        env.insert(
            name.clone(),
            Array::from_fn(dec.extent(), |i| {
                let v = i.scalar() + salt;
                if v % 3 == 0 {
                    -(v as f64)
                } else {
                    v as f64 * 0.5
                }
            }),
        );
    }
    env
}

fn clause(lhs: &str, rhs: Expr, guard: Guard) -> ProgramStep {
    ProgramStep::Clause(Clause {
        iter: IndexSet::range(1, N - 2),
        ordering: Ordering::Par,
        guard,
        lhs: ArrayRef::d1(lhs, Fn1::identity()),
        rhs,
    })
}

fn read(name: &str, shift: i64) -> Expr {
    Expr::Ref(ArrayRef::d1(name, Fn1::shift(shift)))
}

/// Stencil A→B plus a guarded consume B→C: enough cross-array traffic
/// for layouts to price differently.
fn stencil_program() -> Vec<ProgramStep> {
    vec![
        clause(
            "B",
            Expr::mul(Expr::add(read("A", -1), read("A", 1)), Expr::Lit(0.5)),
            Guard::Always,
        ),
        clause(
            "C",
            Expr::add(read("B", 0), Expr::Lit(1.0)),
            Guard::Cmp {
                lhs: ArrayRef::d1("A", Fn1::identity()),
                op: CmpOp::Gt,
                rhs: 0.0,
            },
        ),
    ]
}

fn all_block() -> DecompMap {
    let mut dm = DecompMap::new();
    for name in NAMES {
        dm.insert(name.into(), Decomp1::block(PMAX, Bounds::range(0, N - 1)));
    }
    dm
}

/// Run the tuned loop on a fresh session and assert every array ends
/// bit-identical to `n_steps` iterations of the sequential reference.
fn assert_tuned_matches_oracle(
    steps: &[ProgramStep],
    n_steps: u64,
    decomps: &DecompMap,
    opts: DistOptions,
    schedule: ScheduleMode,
    topts: TuneOptions,
    ctx: &str,
) -> (DistSession, TuneReport) {
    let env = initial_env(decomps);
    let mut reference = env.clone();
    for _ in 0..n_steps {
        for step in steps {
            if let ProgramStep::Clause(c) = step {
                reference.exec_clause(c);
            }
        }
    }
    let mut session = DistSession::new(&env, decomps.clone())
        .unwrap()
        .with_options(opts);
    let (report, tune) = session
        .run_program_tuned(steps, n_steps, schedule, topts, &NULL_TRACER)
        .unwrap_or_else(|e| panic!("{ctx}: tuned run failed: {e}"));
    assert!(
        tune.candidates_priced >= 2,
        "{ctx}: the tuner must price a real candidate space, got {}",
        tune.candidates_priced
    );
    assert_eq!(
        report.candidates_priced, tune.candidates_priced,
        "{ctx}: ProgramReport and TuneReport disagree on candidates priced"
    );
    assert_eq!(
        report.redistributions_inserted, tune.redistributions_inserted,
        "{ctx}: ProgramReport and TuneReport disagree on redistributions"
    );
    let got = session.gather_all();
    for name in decomps.keys() {
        let diff = got
            .get(name)
            .unwrap_or_else(|| panic!("{ctx}: array `{name}` lost"))
            .max_abs_diff(reference.get(name).unwrap());
        assert_eq!(
            diff, 0.0,
            "{ctx}: array `{name}` diverged from the iterated oracle \
             (chosen layout: {}, switched: {})",
            tune.chosen, tune.switched
        );
    }
    (session, tune)
}

/// The configuration matrix: either schedule mode, bitwise equality to
/// the iterated oracle.
#[test]
fn tuned_loop_matches_oracle_across_config_matrix() {
    let steps = stencil_program();
    let decomps = all_block();
    for schedule in [ScheduleMode::Seq, ScheduleMode::Dag] {
        let ctx = format!("schedule={schedule:?}");
        assert_tuned_matches_oracle(
            &steps,
            6,
            &decomps,
            DistOptions::default(),
            schedule,
            TuneOptions::default(),
            &ctx,
        );
    }
}

/// A clearly misaligned incumbent (stencil input scattered) with many
/// remaining steps: the tuner must insert a redistribution, actually
/// change the session layout, and still land on the oracle's bits. The
/// prediction that justified the switch must also rank the chosen
/// layout ahead of the incumbent.
#[test]
fn tuner_inserts_redistribution_when_profitable() {
    let steps = stencil_program();
    let mut decomps = all_block();
    decomps.insert("A".into(), Decomp1::scatter(PMAX, Bounds::range(0, N - 1)));
    let (session, tune) = assert_tuned_matches_oracle(
        &steps,
        400,
        &decomps,
        DistOptions::default(),
        ScheduleMode::Seq,
        TuneOptions::default(),
        "misaligned incumbent",
    );
    assert!(
        tune.switched,
        "400 steps of scattered stencil input must amortize a switch \
         (baseline {:.0} ns vs best {:.0} ns, switch cost {:.0} ns)",
        tune.baseline_step_ns, tune.predicted_step_ns, tune.switch_cost_ns
    );
    assert!(tune.redistributions_inserted >= 1);
    assert!(
        tune.predicted_step_ns < tune.baseline_step_ns,
        "a switch must be justified by a strictly better prediction"
    );
    assert!(
        tune.switch_cost_ns > 0.0,
        "moving elements cannot be predicted free"
    );
    assert_ne!(
        session.decomp_of("A").unwrap().dist(),
        Distribution::Scatter,
        "the session layout must actually change"
    );
}

/// An already-aligned incumbent: nothing beats it by enough to pay for
/// a redistribution, so the tuner must keep it and insert nothing.
#[test]
fn tuner_keeps_aligned_incumbent() {
    let steps = stencil_program();
    let decomps = all_block();
    let (session, tune) = assert_tuned_matches_oracle(
        &steps,
        8,
        &decomps,
        DistOptions::default(),
        ScheduleMode::Seq,
        TuneOptions::default(),
        "aligned incumbent",
    );
    assert!(!tune.switched, "all-block stencil incumbent must be kept");
    assert_eq!(tune.redistributions_inserted, 0);
    assert_eq!(
        session.decomp_of("A").unwrap().dist(),
        Distribution::Block { b: N / PMAX },
    );
}

/// The tuner owns mid-loop layout changes: a program with an explicit
/// redistribution step is rejected with a typed plan error.
#[test]
fn explicit_redistribution_is_rejected() {
    let steps = vec![
        clause("A", Expr::add(read("A", -1), Expr::Lit(1.0)), Guard::Always),
        ProgramStep::Redistribute {
            array: "A".into(),
            to: Decomp1::scatter(PMAX, Bounds::range(0, N - 1)),
        },
    ];
    let decomps = all_block();
    let env = initial_env(&decomps);
    let mut session = DistSession::new(&env, decomps).unwrap();
    match session.run_program_tuned(
        &steps,
        4,
        ScheduleMode::Seq,
        TuneOptions::default(),
        &NULL_TRACER,
    ) {
        Err(MachineError::PlanMismatch(msg)) => {
            assert!(msg.contains("redistribution"), "unexpected message: {msg}")
        }
        other => panic!("explicit redistribution must be rejected, got {other:?}"),
    }
    // zero steps are rejected the same way
    let one = vec![clause(
        "A",
        Expr::add(read("A", -1), Expr::Lit(1.0)),
        Guard::Always,
    )];
    assert!(matches!(
        session.run_program_tuned(
            &one,
            0,
            ScheduleMode::Seq,
            TuneOptions::default(),
            &NULL_TRACER
        ),
        Err(MachineError::PlanMismatch(_))
    ));
}

/// A budget of 1 still works: the incumbent is force-included next to
/// the single enumerated survivor, so the stay/switch comparison is
/// always possible — even from an out-of-family (replicated) incumbent.
#[test]
fn tiny_budget_and_out_of_family_incumbent() {
    let steps = stencil_program();
    let mut decomps = all_block();
    decomps.insert(
        "C".into(),
        Decomp1::replicated(PMAX, Bounds::range(0, N - 1)),
    );
    let (_, tune) = assert_tuned_matches_oracle(
        &steps,
        4,
        &decomps,
        DistOptions::default(),
        ScheduleMode::Seq,
        TuneOptions {
            budget: 1,
            ..TuneOptions::default()
        },
        "budget 1, replicated incumbent",
    );
    assert_eq!(
        tune.candidates_priced, 2,
        "one survivor plus the force-included incumbent"
    );
}

// ---------------------------------------------------------------------
// randomized programs
// ---------------------------------------------------------------------

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = (0usize..NAMES.len(), -1i64..=1).prop_map(|(a, s)| read(NAMES[a], s));
    (
        leaf.clone(),
        prop::option::of((leaf, any::<bool>())),
        -3i64..=3,
    )
        .prop_map(|(first, second, lit)| {
            let base = match second {
                Some((other, true)) => Expr::add(first, other),
                Some((other, false)) => Expr::mul(first, other),
                None => first,
            };
            Expr::add(base, Expr::Lit(lit as f64 * 0.5))
        })
}

fn arb_guard() -> impl Strategy<Value = Guard> {
    prop_oneof![
        3 => Just(Guard::Always),
        1 => (0usize..NAMES.len(), any::<bool>()).prop_map(|(a, gt)| Guard::Cmp {
            lhs: ArrayRef::d1(NAMES[a], Fn1::identity()),
            op: if gt { CmpOp::Gt } else { CmpOp::Le },
            rhs: 0.0,
        }),
    ]
}

fn arb_decomps() -> impl Strategy<Value = DecompMap> {
    prop::collection::vec(0u8..3, NAMES.len()..NAMES.len() + 1).prop_map(|kinds| {
        let mut dm = DecompMap::new();
        for (name, kind) in NAMES.iter().zip(kinds) {
            let dec = match kind {
                0 => Decomp1::block(PMAX, Bounds::range(0, N - 1)),
                1 => Decomp1::scatter(PMAX, Bounds::range(0, N - 1)),
                _ => Decomp1::block_scatter(3, PMAX, Bounds::range(0, N - 1)),
            };
            dm.insert((*name).to_string(), dec);
        }
        dm
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The differential property: any random clause program, any
    /// incumbent layout mixture, either schedule —
    /// the tuned loop is bitwise equal to the iterated sequential
    /// oracle, whether or not the tuner decided to switch.
    #[test]
    fn random_tuned_programs_match_oracle(
        specs in prop::collection::vec(
            (0usize..NAMES.len(), arb_expr(), arb_guard()), 1..5),
        decomps in arb_decomps(),
        dag in any::<bool>(),
        n_steps in 2u64..6,
    ) {
        let steps: Vec<ProgramStep> = specs
            .into_iter()
            .map(|(lhs, rhs, guard)| clause(NAMES[lhs], rhs, guard))
            .collect();
        let schedule = if dag { ScheduleMode::Dag } else { ScheduleMode::Seq };
        assert_tuned_matches_oracle(
            &steps,
            n_steps,
            &decomps,
            DistOptions::default(),
            schedule,
            TuneOptions::default(),
            "random tuned program",
        );
    }
}
