//! Differential oracle harness for program-level DAG scheduling
//! (DESIGN.md §16).
//!
//! [`DistSession::run_program`] under [`ScheduleMode::Dag`] reorders
//! and overlaps independent clauses; the contract is that every array
//! ends **bit-identical** to the strict-sequential oracle
//! ([`ScheduleMode::Seq`]), under every execution configuration:
//!
//! * random multi-clause programs over a shared array pool — RAW, WAR
//!   and WAW hazards in arbitrary mixtures, plus dynamic
//!   redistributions in the middle of the program;
//! * recoverable fault plans (seeded packet drop + reorder with
//!   retransmission) — the DAG schedule must recover to the same bits.
//!
//! Deterministic fixtures pin the canonical hazard shapes; the
//! proptest sweep then drives randomly generated programs through the
//! full configuration matrix.

use proptest::prelude::*;
use std::time::Duration;
use vcal_suite::core::func::Fn1;
use vcal_suite::core::pred::CmpOp;
use vcal_suite::core::{Array, ArrayRef, Bounds, Clause, Env, Expr, Guard, IndexSet, Ordering};
use vcal_suite::decomp::Decomp1;
use vcal_suite::machine::{
    replay_check_dag, CollectingTracer, DistOptions, DistSession, EventKind, FaultPlan,
    MachineError, ProgramStep, ReplayError, RetryPolicy, ScheduleMode, TraceLog,
};
use vcal_suite::spmd::{build_dag, DecompMap};

const N: i64 = 96;
const PMAX: i64 = 4;
const NAMES: [&str; 4] = ["A", "B", "C", "D"];

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

/// Run the same program through both schedules on fresh sessions and
/// assert every array is bitwise identical.
fn assert_dag_matches_seq(
    steps: &[ProgramStep],
    decomps: &DecompMap,
    opts: DistOptions,
    ctx: &str,
) {
    let env = initial_env(decomps);
    let mut seq = DistSession::new(&env, decomps.clone())
        .unwrap()
        .with_options(opts);
    let mut dag = DistSession::new(&env, decomps.clone())
        .unwrap()
        .with_options(opts);
    let rs = seq
        .run_program(steps, ScheduleMode::Seq, &vcal_suite::machine::NULL_TRACER)
        .unwrap_or_else(|e| panic!("{ctx}: seq oracle failed: {e}"));
    let rd = dag
        .run_program(steps, ScheduleMode::Dag, &vcal_suite::machine::NULL_TRACER)
        .unwrap_or_else(|e| panic!("{ctx}: dag schedule failed: {e}"));
    assert_eq!(rs.steps.len(), steps.len(), "{ctx}: seq report incomplete");
    assert_eq!(rd.steps.len(), steps.len(), "{ctx}: dag report incomplete");
    assert!(
        rd.waves <= steps.len(),
        "{ctx}: more waves than steps ({} > {})",
        rd.waves,
        steps.len()
    );
    let want = seq.gather_all();
    let got = dag.gather_all();
    for name in decomps.keys() {
        let diff = got
            .get(name)
            .unwrap_or_else(|| panic!("{ctx}: array `{name}` lost"))
            .max_abs_diff(want.get(name).unwrap());
        assert_eq!(diff, 0.0, "{ctx}: array `{name}` diverged from the oracle");
    }
}

fn base_decomps() -> DecompMap {
    let mut dm = DecompMap::new();
    for name in NAMES {
        dm.insert(name.into(), Decomp1::block(PMAX, Bounds::range(0, N - 1)));
    }
    dm
}

fn clause(lhs: &str, lhs_shift: i64, rhs: Expr, guard: Guard) -> ProgramStep {
    ProgramStep::Clause(Clause {
        iter: IndexSet::range(1, N - 2),
        ordering: Ordering::Par,
        guard,
        lhs: ArrayRef::d1(lhs, Fn1::shift(lhs_shift)),
        rhs,
    })
}

fn read(name: &str, shift: i64) -> Expr {
    Expr::Ref(ArrayRef::d1(name, Fn1::shift(shift)))
}

/// The canonical hazard mixture, shared by the deterministic matrix
/// sweep: RAW (A→C), WAR (reads B, then B overwritten), WAW (D written
/// twice), one guarded clause, and a redistribution of A in the middle.
fn hazard_program() -> Vec<ProgramStep> {
    vec![
        // wave candidates: A and B writes are independent
        clause(
            "A",
            0,
            Expr::add(read("A", -1), Expr::Lit(1.0)),
            Guard::Always,
        ),
        clause(
            "B",
            0,
            Expr::mul(read("B", 1), Expr::Lit(0.5)),
            Guard::Always,
        ),
        // RAW on A and B; WAR on C is created by the later C overwrite
        clause(
            "C",
            0,
            Expr::add(read("A", 1), read("B", -1)),
            Guard::Always,
        ),
        // redistribution of A mid-program: aliases A across layouts
        ProgramStep::Redistribute {
            array: "A".into(),
            to: Decomp1::scatter(PMAX, Bounds::range(0, N - 1)),
        },
        // RAW through the redistribution, guarded on C (mixed-sign data)
        clause(
            "D",
            0,
            Expr::add(read("A", 0), Expr::Lit(2.0)),
            Guard::Cmp {
                lhs: ArrayRef::d1("C", Fn1::identity()),
                op: CmpOp::Gt,
                rhs: 0.0,
            },
        ),
        // WAW on D
        clause("D", 0, Expr::mul(read("D", 0), read("C", 0)), Guard::Always),
    ]
}

/// The canonical hazard program, bitwise equality on every array.
#[test]
fn hazard_mixture_matches_oracle_across_config_matrix() {
    let steps = hazard_program();
    let decomps = base_decomps();
    assert_dag_matches_seq(&steps, &decomps, DistOptions::default(), "hazards");
}

/// Recoverable faults: seeded drop + reorder with retransmission must
/// still converge to the oracle's bits under the DAG schedule.
#[test]
fn recoverable_faults_still_match_oracle() {
    let steps = hazard_program();
    let decomps = base_decomps();
    for seed in [7u64, 1991] {
        let opts = DistOptions {
            faults: Some(FaultPlan::seeded(seed).with_drop(0.05).with_reorder(0.05)),
            retry: RetryPolicy::fast(),
            recv_timeout: Duration::from_secs(10),
            ..DistOptions::default()
        };
        let ctx = format!("fault_seed={seed}");
        assert_dag_matches_seq(&steps, &decomps, opts, &ctx);
    }
}

/// A program of pairwise-independent clauses must actually be scheduled
/// wider than sequential — the harness would be vacuous if every DAG
/// degenerated to one clause per wave.
#[test]
fn independent_clauses_really_share_waves() {
    let steps: Vec<ProgramStep> = NAMES
        .iter()
        .map(|name| {
            clause(
                name,
                0,
                Expr::add(read(name, -1), Expr::Lit(1.0)),
                Guard::Always,
            )
        })
        .collect();
    let decomps = base_decomps();
    let dag = build_dag(&steps, &decomps);
    assert_eq!(dag.waves.len(), 1, "independent clauses must share a wave");
    assert_eq!(dag.width(), NAMES.len());
    assert_dag_matches_seq(
        &steps,
        &decomps,
        DistOptions::default(),
        "independent fan-out",
    );
}

/// Four clauses that all read one shared array and write four distinct
/// ones: one wave whose jobs all borrow the same pre-wave memory of `S`.
fn shared_read_fanout() -> (Vec<ProgramStep>, DecompMap) {
    let steps = NAMES
        .iter()
        .zip([-1, 1, 0, -1])
        .map(|(name, shift)| {
            let rhs = Expr::add(read("S", shift), read("S", 1));
            clause(name, 0, rhs, Guard::Always)
        })
        .collect();
    let mut decomps = base_decomps();
    decomps.insert("S".into(), Decomp1::block(PMAX, Bounds::range(0, N - 1)));
    (steps, decomps)
}

/// The shared-read wave recovers to the oracle's bits under a
/// recoverable fault plan.
#[test]
fn shared_read_wave_matches_oracle_under_faults() {
    let (steps, decomps) = shared_read_fanout();
    assert_eq!(build_dag(&steps, &decomps).width(), NAMES.len());
    for faults in [
        None,
        Some(FaultPlan::seeded(11).with_drop(0.05).with_reorder(0.05)),
    ] {
        let opts = DistOptions {
            faults,
            retry: RetryPolicy::fast(),
            recv_timeout: Duration::from_secs(10),
            ..DistOptions::default()
        };
        let ctx = format!("shared read, faults={}", faults.is_some());
        assert_dag_matches_seq(&steps, &decomps, opts, &ctx);
    }
}

/// A node crashing inside the shared-read wave fails the whole wave and
/// leaves every array — the shared one included — at its pre-wave image.
#[test]
fn crash_in_shared_read_wave_restores_every_array() {
    let (steps, decomps) = shared_read_fanout();
    let env = initial_env(&decomps);
    for node in 0..PMAX {
        let opts = DistOptions {
            faults: Some(FaultPlan::seeded(3).with_crash(node, 1)),
            retry: RetryPolicy::fast(),
            recv_timeout: Duration::from_secs(10),
            ..DistOptions::default()
        };
        let mut session = DistSession::new(&env, decomps.clone())
            .unwrap()
            .with_options(opts);
        let err = session
            .run_program(&steps, ScheduleMode::Dag, &vcal_suite::machine::NULL_TRACER)
            .expect_err("a crashed node must fail the wave");
        assert_eq!(err, MachineError::NodePanicked { node });
        let after = session.gather_all();
        for name in decomps.keys() {
            let diff = after
                .get(name)
                .unwrap()
                .max_abs_diff(env.get(name).unwrap());
            assert_eq!(diff, 0.0, "node {node}: `{name}` changed");
        }
    }
}

// ---------------------------------------------------------------------
// trace determinism and DAG replay checking
// ---------------------------------------------------------------------

/// A diamond without redistributions: A and B fan out, C joins them,
/// D extends the chain. Unguarded so repeated runs on one session stay
/// structurally identical.
fn diamond_program() -> Vec<ProgramStep> {
    vec![
        clause(
            "A",
            0,
            Expr::add(read("A", -1), Expr::Lit(1.0)),
            Guard::Always,
        ),
        clause(
            "B",
            0,
            Expr::mul(read("B", 1), Expr::Lit(0.5)),
            Guard::Always,
        ),
        clause(
            "C",
            0,
            Expr::add(read("A", 1), read("B", -1)),
            Guard::Always,
        ),
        clause(
            "D",
            0,
            Expr::add(read("C", 0), Expr::Lit(1.0)),
            Guard::Always,
        ),
    ]
}

fn traced_dag_run(
    session: &mut DistSession,
    steps: &[ProgramStep],
) -> (vcal_suite::machine::ProgramReport, TraceLog) {
    let tracer = CollectingTracer::new();
    let report = session
        .run_program(steps, ScheduleMode::Dag, &tracer)
        .unwrap();
    (report, tracer.finish())
}

/// Same seed, same configuration → byte-identical deterministic JSONL,
/// even under a recoverable fault plan (reliability traffic lives in
/// the auxiliary stream).
#[test]
fn same_seed_dag_runs_are_byte_identical() {
    let steps = diamond_program();
    let decomps = base_decomps();
    for faults in [
        None,
        Some(FaultPlan::seeded(42).with_drop(0.04).with_reorder(0.04)),
    ] {
        let opts = DistOptions {
            faults,
            retry: RetryPolicy::fast(),
            recv_timeout: Duration::from_secs(10),
            ..DistOptions::default()
        };
        let env = initial_env(&decomps);
        let mut s1 = DistSession::new(&env, decomps.clone())
            .unwrap()
            .with_options(opts);
        let mut s2 = DistSession::new(&env, decomps.clone())
            .unwrap()
            .with_options(opts);
        let (_, l1) = traced_dag_run(&mut s1, &steps);
        let (_, l2) = traced_dag_run(&mut s2, &steps);
        assert_eq!(
            l1.to_jsonl(),
            l2.to_jsonl(),
            "deterministic stream differs across same-seed runs (faults={})",
            faults.is_some()
        );
    }
}

/// A warm run (cached DAG, cached plans) must be trace-identical to the
/// cold run that populated the caches — caching is invisible in the
/// deterministic stream.
#[test]
fn warm_dag_run_is_trace_identical_to_cold() {
    let steps = diamond_program();
    let decomps = base_decomps();
    let env = initial_env(&decomps);
    let mut session = DistSession::new(&env, decomps.clone()).unwrap();
    let (cold, l_cold) = traced_dag_run(&mut session, &steps);
    assert_eq!(cold.dag_cache_misses, 1, "first run must build the DAG");
    let (warm, l_warm) = traced_dag_run(&mut session, &steps);
    assert_eq!(warm.dag_cache_hits, 1, "second run must reuse the DAG");
    assert!(
        warm.steps.iter().all(|r| r.cache_hits == 1),
        "second run must reuse every clause plan"
    );
    assert_eq!(
        l_cold.to_jsonl(),
        l_warm.to_jsonl(),
        "warm trace differs from cold"
    );
}

/// Both schedules' traces satisfy the DAG replay rule (a sequential
/// trace is a linear extension of the DAG), and a forged early
/// `clause_begin` — hoisted before its predecessor's commit — is
/// rejected as a phase violation on the host.
#[test]
fn replay_check_dag_rejects_forged_early_clause_begin() {
    let steps = diamond_program();
    let decomps = base_decomps();
    let dag = build_dag(&steps, &decomps);
    let env = initial_env(&decomps);

    // a sequential trace passes too — it is a linear extension
    let mut seq = DistSession::new(&env, decomps.clone()).unwrap();
    let tracer = CollectingTracer::new();
    seq.run_program(&steps, ScheduleMode::Seq, &tracer).unwrap();
    replay_check_dag(&tracer.finish(), &dag).expect("sequential trace must satisfy the DAG");

    let mut session = DistSession::new(&env, decomps.clone()).unwrap();
    let (_, mut log) = traced_dag_run(&mut session, &steps);
    replay_check_dag(&log, &dag).expect("untampered DAG trace must pass");

    // forge: pick a step with predecessors and swap its clause_begin
    // with the predecessor's clause_end, so the begin lands on the
    // earlier clock tick
    let dep = (0..dag.steps)
        .find(|&s| !dag.preds_of(s).is_empty())
        .expect("diamond has dependent steps");
    let pred = dag.preds_of(dep)[0];
    let bi = log
        .events
        .iter()
        .position(|e| matches!(e.kind, EventKind::ClauseBegin { step } if step == dep))
        .expect("trace has the dependent begin");
    let ei = log
        .events
        .iter()
        .position(|e| matches!(e.kind, EventKind::ClauseEnd { step } if step == pred))
        .expect("trace has the predecessor end");
    let forged = log.events[bi].kind.clone();
    log.events[bi].kind = log.events[ei].kind.clone();
    log.events[ei].kind = forged;
    match replay_check_dag(&log, &dag) {
        Err(ReplayError::Phase { node, why }) => {
            assert_eq!(node, vcal_suite::machine::HOST);
            assert!(
                why.contains("predecessor") || why.contains("dag_ready"),
                "unexpected rejection: {why}"
            );
        }
        other => panic!("forged begin must be rejected as Phase, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// randomized program generation
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

fn arb_step() -> impl Strategy<Value = ProgramStep> {
    prop_oneof![
        5 => (0usize..NAMES.len(), arb_expr(), arb_guard())
            .prop_map(|(lhs, rhs, guard)| clause(NAMES[lhs], 0, rhs, guard)),
        1 => (0usize..NAMES.len(), prop::sample::select(vec![0u8, 1, 2]))
            .prop_map(|(a, kind)| ProgramStep::Redistribute {
                array: NAMES[a].into(),
                to: match kind {
                    0 => Decomp1::block(PMAX, Bounds::range(0, N - 1)),
                    1 => Decomp1::scatter(PMAX, Bounds::range(0, N - 1)),
                    _ => Decomp1::block_scatter(3, PMAX, Bounds::range(0, N - 1)),
                },
            }),
    ]
}

fn arb_opts() -> impl Strategy<Value = DistOptions> {
    prop::option::of(1u64..1000).prop_map(|fault_seed| DistOptions {
        faults: fault_seed.map(|s| FaultPlan::seeded(s).with_drop(0.03).with_reorder(0.03)),
        retry: RetryPolicy::fast(),
        recv_timeout: Duration::from_secs(10),
        ..DistOptions::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The differential property: any random program (hazards in any
    /// mixture, redistributions anywhere), any configuration — the DAG
    /// schedule is bitwise equal to the sequential oracle.
    #[test]
    fn random_programs_match_oracle(
        steps in prop::collection::vec(arb_step(), 2..7),
        opts in arb_opts(),
    ) {
        let decomps = base_decomps();
        assert_dag_matches_seq(&steps, &decomps, opts, "random program");
    }
}
