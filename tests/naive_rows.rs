//! Naive-guard rows that arise *naturally*: clauses for which
//! [`SpmdPlan::build`] itself falls back (Table I has no closed form for
//! a slope ≥ pmax or a non-monotone access over scatter), so no flag
//! asks for them. Such a plan has run tables like any other and executes
//! through them — cold, warm, as a member of a DAG wave and on worker
//! processes — bit-identical to the sequential machine (and so does the
//! shared machine, from the same plan), with the
//! counters the commit before the tables became total reported for the
//! same plan on its element-at-a-time path.

use std::collections::BTreeMap;
use vcal_suite::core::func::Fn1;
use vcal_suite::core::{Array, ArrayRef, Bounds, Clause, Env, Expr, Guard, IndexSet, Ordering};
use vcal_suite::decomp::Decomp1;
use vcal_suite::machine::{
    prepare_run, run_distributed, run_shared, DistArray, DistOptions, DistSession, ExecReport,
    MachineError, ScheduleMode, TransportKind, NULL_TRACER,
};
use vcal_suite::spmd::{CompiledSchedule, DecompMap, PlanSummary, ProgramStep, SpmdPlan};

const PMAX: i64 = 4;

/// `[guard_tests, iterations, msgs_sent, msgs_received]` summed over
/// the nodes, as commit 5b63b02 (naive plans on the interpreted element
/// path) reports them for the cold run of each case.
fn parent_counters(case: &str) -> [u64; 4] {
    match case {
        "square_write" => [124, 31, 23, 23],
        "square_read" => [31, 31, 23, 23],
        "valley" => [84, 21, 10, 10],
        _ => panic!("no parent counters for {case}"),
    }
}

fn counters(report: &ExecReport) -> [u64; 4] {
    let t = report.total();
    [t.guard_tests, t.iterations, t.msgs_sent, t.msgs_received]
}

/// Three clauses `A[f(i)] := …B[g(i)]…` whose plans contain naive rows
/// without anyone asking: the paper's `i²` as a write over scatter(4)
/// (slope ≥ pmax), the same as a read, and a non-monotone — hence
/// non-injective — `(i-8)²` on both sides.
fn cases() -> Vec<(&'static str, Clause, DecompMap, Env)> {
    let sq = Fn1::square();
    let valley = Fn1::Square(Box::new(Fn1::shift(-8)));
    let b = |g: Fn1| Expr::Ref(ArrayRef::d1("B", g));
    let i = || Expr::LoopVar { dim: 0 };
    let big = Bounds::range(0, 1023);
    let small = Bounds::range(0, 31);
    let case = |name, imax, f: Fn1, rhs, dec_a: Decomp1, dec_b: Decomp1| {
        let clause = Clause {
            iter: IndexSet::range(0, imax),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("A", f),
            rhs,
        };
        let mut env = Env::new();
        env.insert("A", Array::from_fn(dec_a.extent(), |_| -1.0));
        env.insert(
            "B",
            Array::from_fn(dec_b.extent(), |x| (x.scalar() * 7 % 13) as f64 - 2.5),
        );
        let mut dm = DecompMap::new();
        dm.insert("A".into(), dec_a);
        dm.insert("B".into(), dec_b);
        (name, clause, dm, env)
    };
    vec![
        case(
            "square_write",
            30,
            sq.clone(),
            Expr::add(b(Fn1::identity()), Expr::Lit(0.5)),
            Decomp1::scatter(PMAX, big),
            Decomp1::block(PMAX, small),
        ),
        case(
            "square_read",
            30,
            Fn1::identity(),
            Expr::add(Expr::mul(b(sq), Expr::Lit(2.0)), i()),
            Decomp1::block(PMAX, small),
            Decomp1::scatter(PMAX, big),
        ),
        case(
            "valley",
            20,
            valley.clone(),
            Expr::add(b(valley), b(Fn1::identity())),
            Decomp1::scatter(PMAX, big),
            Decomp1::scatter(PMAX, big),
        ),
    ]
}

fn scatter_ab(env0: &Env, dm: &DecompMap) -> BTreeMap<String, DistArray> {
    (dm.iter())
        .map(|(name, dec)| {
            let image = DistArray::scatter_from(env0.get(name).unwrap(), dec.clone());
            (name.clone(), image)
        })
        .collect()
}

fn bits(a: &Array) -> Vec<u64> {
    a.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn natural_naive_rows_run_through_the_tables() {
    std::env::set_var("VCAL_WORKER_BIN", env!("CARGO_BIN_EXE_vcalc"));
    for (name, cl, dm, env0) in cases() {
        let mut reference = env0.clone();
        reference.exec_clause(&cl);
        let want = bits(reference.get("A").unwrap());
        assert_ne!(want, bits(env0.get("A").unwrap()), "{name} writes");

        let plan = SpmdPlan::build(&cl, &dm).unwrap();
        assert!(!PlanSummary::of(&plan).is_fully_closed_form(), "{name}");
        let cs = CompiledSchedule::compile_exec(&plan, &cl, &dm);
        assert!(cs.has_exec(), "{name}");
        for cn in &cs.nodes {
            let c = cn.census();
            let tiled = c.interior_elems + c.boundary_elems;
            assert_eq!(tiled, cn.modify_iters, "{name} p={}", cn.p);
        }
        assert!(
            cs.overlap_census().boundary_elems > 0,
            "{name} communicates"
        );

        // the shared machine: valley's lhs is not injective, and the
        // host commits both writes of an offset in iteration order
        let mut shm = env0.clone();
        run_shared(&plan, &cl, &mut shm).unwrap();
        assert_eq!(bits(shm.get("A").unwrap()), want, "{name} shared");

        // the same clause writing a second array: an independent wave mate
        let mut cl2 = cl.clone();
        cl2.lhs.array = "A2".into();
        let mut env2 = env0.clone();
        env2.insert("A2", env0.get("A").unwrap().clone());
        let mut dm2 = dm.clone();
        dm2.insert("A2".into(), dm["A"].clone());
        let steps = [ProgramStep::Clause(cl.clone()), ProgramStep::Clause(cl2)];

        let expect = parent_counters(name);
        let opts = DistOptions::default();
        // cold, in process and on worker processes
        for transport in [TransportKind::InProc, TransportKind::Uds] {
            let mut arrays = scatter_ab(&env0, &dm);
            let opts = DistOptions { transport, ..opts };
            let report = run_distributed(&plan, &cl, &mut arrays, opts).unwrap();
            assert_eq!(bits(&arrays["A"].gather()), want, "{name} {transport:?}");
            assert_eq!(counters(&report), expect, "{name} {transport:?}");
        }
        // warm: the second and third run replay cached tables
        let mut session = DistSession::new(&env0, dm.clone())
            .unwrap()
            .with_options(opts);
        for round in 0..3 {
            let report = session.run(&cl).unwrap();
            assert_eq!(counters(&report), expect, "{name} warm {round}");
            assert_eq!(report.cache_hits, (round > 0) as u64, "{name}");
        }
        assert_eq!(bits(&session.gather("A").unwrap()), want, "{name} warm");
        // one DAG wave of two members, each on its own lane
        let mut session = DistSession::new(&env2, dm2.clone())
            .unwrap()
            .with_options(opts);
        let program = session
            .run_program(&steps, ScheduleMode::Dag, &NULL_TRACER)
            .unwrap();
        assert_eq!(program.waves, 1, "{name}");
        for (out, report) in ["A", "A2"].into_iter().zip(&program.steps) {
            assert_eq!(bits(&session.gather(out).unwrap()), want, "{name} {out}");
            assert_eq!(counters(report), expect, "{name} wave {out}");
        }
    }
}

/// The tables are total: whatever `prepare_run` accepts has them on
/// every node, and a clause they cannot express is refused there with a
/// typed error instead of reaching a node.
#[test]
fn prepare_run_builds_tables_or_refuses() {
    let (_, cl, dm, _) = cases().swap_remove(1);
    let naive = SpmdPlan::build_naive(&cl, &dm).unwrap();
    assert!(prepare_run(naive, &cl, &dm).unwrap().compiled().has_exec());

    let refused = |clause: &Clause, why: &str| {
        let plan = SpmdPlan::build(&cl, &dm).unwrap();
        match prepare_run(plan, clause, &dm) {
            Err(MachineError::PlanMismatch(msg)) => assert!(msg.contains(why), "{msg}"),
            other => panic!("expected a plan mismatch ({why}), got {other:?}"),
        }
    };
    let mut outer = cl.clone();
    outer.rhs = Expr::add(cl.rhs.clone(), Expr::LoopVar { dim: 1 });
    refused(&outer, "loop variable of dimension 1");
    let mut unplanned = cl.clone();
    unplanned.rhs = Expr::Ref(ArrayRef::d1("B", Fn1::shift(1)));
    refused(&unplanned, "missing from the plan's reside list");
}
