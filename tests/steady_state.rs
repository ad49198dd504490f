//! Steady-state executor properties: the warm path (plan cache +
//! persistent worker pool behind [`DistSession::run`]) must be
//! *observationally identical* to the cold path (a fresh
//! [`run_distributed`] per call) — bit-identical array states, identical
//! deterministic trace streams, identical fault recovery — while the
//! cache counters prove the warm path was actually taken.
//!
//! Covered properties:
//!
//! * N warm executions of a timestep loop are bit-identical to N cold
//!   executions, with and without a seeded recoverable fault plan;
//! * a traced warm run emits a byte-identical deterministic JSONL log to
//!   a traced cold run and passes the replay checker;
//! * the first run of a clause is a cache miss, every repeat is a hit,
//!   and `redistribute` (layout change or decomposition replacement)
//!   invalidates;
//! * a crashed pooled worker surfaces as a typed `NodePanicked` without
//!   poisoning the session: the next run succeeds with correct results;
//! * in-process pools are borrowed from one process-wide registry, so a
//!   session dropped dirty, with a retired node or during a panic leaves
//!   the next session and the next one-shot n-D call bitwise right.
//!
//! Every run built by `opts_for` takes the backend from `VCAL_TRANSPORT`
//! (`inproc|uds|tcp`, unset means in-process), so the same properties
//! hold of the thread link and of the socket link to worker processes.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;
use vcal_suite::core::func::Fn1;
use vcal_suite::core::map::IndexMap;
use vcal_suite::core::{Array, ArrayRef, Bounds, Clause, Env, Expr, Guard, IndexSet, Ix, Ordering};
use vcal_suite::decomp::{Decomp1, DecompNd};
use vcal_suite::machine::{
    replay_check, run_distributed, run_distributed_nd, run_distributed_traced, CollectingTracer,
    DistArray, DistArrayNd, DistOptions, DistSession, Event, ExecReport, FaultPlan, MachineError,
    ProgramStep, ProtoTimeouts, RetryPolicy, ScheduleMode, TraceLog, TransportKind, HOST,
};
use vcal_suite::spmd::{DecompMap, SpmdPlan};

const N: i64 = 96;
const PMAX: i64 = 4;

/// The Jacobi-style timestep pair: `V[i] := 0.5*(U[i-1]+U[i+1])` then
/// `U[i] := V[i]` — the second clause feeds the first, so every step
/// depends on the previous one and any divergence compounds.
fn timestep_clauses() -> (Clause, Clause) {
    let sweep = Clause {
        iter: IndexSet::range(1, N - 2),
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
    };
    let back = Clause {
        iter: IndexSet::range(1, N - 2),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1("U", Fn1::identity()),
        rhs: Expr::Ref(ArrayRef::d1("V", Fn1::identity())),
    };
    (sweep, back)
}

fn timestep_env() -> Env {
    let mut env = Env::new();
    env.insert(
        "U",
        Array::from_fn(Bounds::range(0, N - 1), |i| {
            let v = i.scalar();
            if v % 3 == 0 {
                -(v as f64)
            } else {
                v as f64 * 0.5
            }
        }),
    );
    env.insert("V", Array::zeros(Bounds::range(0, N - 1)));
    env
}

fn dec_of(kind: u8, ext: Bounds) -> Decomp1 {
    match kind % 3 {
        0 => Decomp1::block(PMAX, ext),
        1 => Decomp1::scatter(PMAX, ext),
        _ => Decomp1::block_scatter(3, PMAX, ext),
    }
}

fn timestep_decomps(u_kind: u8, v_kind: u8) -> DecompMap {
    let ext = Bounds::range(0, N - 1);
    let mut dm = DecompMap::new();
    dm.insert("U".into(), dec_of(u_kind, ext));
    dm.insert("V".into(), dec_of(v_kind, ext));
    dm
}

fn dist_arrays(env0: &Env, dm: &DecompMap) -> BTreeMap<String, DistArray> {
    let mut arrays = BTreeMap::new();
    for name in ["U", "V"] {
        arrays.insert(
            name.to_string(),
            DistArray::scatter_from(env0.get(name).unwrap(), dm[name].clone()),
        );
    }
    arrays
}

/// Transport backend under test, honouring the CI matrix filter
/// (`VCAL_TRANSPORT=inproc|uds|tcp`; unset means in-process). The
/// socket backends spawn real worker processes from the prebuilt
/// `vcalc` binary.
fn transport() -> TransportKind {
    static WORKER_BIN: std::sync::Once = std::sync::Once::new();
    let kind = match std::env::var("VCAL_TRANSPORT").as_deref() {
        Ok("uds") => TransportKind::Uds,
        Ok("tcp") => TransportKind::Tcp,
        _ => return TransportKind::InProc,
    };
    WORKER_BIN.call_once(|| std::env::set_var("VCAL_WORKER_BIN", env!("CARGO_BIN_EXE_vcalc")));
    kind
}

fn opts_for(faults: Option<FaultPlan>) -> DistOptions {
    DistOptions {
        recv_timeout: Duration::from_secs(10),
        faults,
        retry: if faults.is_some() {
            RetryPolicy::fast()
        } else {
            RetryPolicy::default()
        },
        transport: transport(),
        ..DistOptions::default()
    }
}

/// On the thread link no control frame can be lost: every drain of a
/// run that succeeded ends on evidence, never by its cap.
fn no_drain_capped(report: &ExecReport) {
    if transport() == TransportKind::InProc {
        assert_eq!(
            report.total().drain_cap_expired,
            0,
            "a drain waited out its cap"
        );
    }
}

/// N cold steps: a fresh plan/execute cycle per call, the baseline the
/// warm path must match bit-for-bit.
fn run_cold(steps: usize, faults: Option<FaultPlan>, dm: &DecompMap) -> (Array, Array) {
    let (sweep, back) = timestep_clauses();
    let env0 = timestep_env();
    let mut arrays = dist_arrays(&env0, dm);
    let opts = opts_for(faults);
    for _ in 0..steps {
        let plan = SpmdPlan::build(&sweep, dm).unwrap();
        no_drain_capped(&run_distributed(&plan, &sweep, &mut arrays, opts).unwrap());
        let plan = SpmdPlan::build(&back, dm).unwrap();
        no_drain_capped(&run_distributed(&plan, &back, &mut arrays, opts).unwrap());
    }
    (arrays["U"].gather(), arrays["V"].gather())
}

/// N warm steps through the session: plan cache + persistent pool.
/// Asserts the cache counters prove the warm path engaged.
fn run_warm(steps: usize, faults: Option<FaultPlan>, dm: &DecompMap) -> (Array, Array) {
    let (sweep, back) = timestep_clauses();
    let env0 = timestep_env();
    let mut session = DistSession::new(&env0, dm.clone())
        .unwrap()
        .with_options(opts_for(faults));
    for step in 0..steps {
        let r1 = session.run(&sweep).unwrap();
        let r2 = session.run(&back).unwrap();
        no_drain_capped(&r1);
        no_drain_capped(&r2);
        if step == 0 {
            assert_eq!((r1.cache_hits, r1.cache_misses), (0, 1), "first sweep");
            assert_eq!((r2.cache_hits, r2.cache_misses), (0, 1), "first back");
        } else {
            assert_eq!((r1.cache_hits, r1.cache_misses), (1, 0), "step {step}");
            assert_eq!((r2.cache_hits, r2.cache_misses), (1, 0), "step {step}");
        }
    }
    (session.gather("U").unwrap(), session.gather("V").unwrap())
}

/// The acceptance configuration: a faultless 8-step timestep loop,
/// warm bit-identical to cold.
#[test]
fn warm_timestep_loop_bit_identical_to_cold() {
    let dm = timestep_decomps(0, 1);
    let (cold_u, cold_v) = run_cold(8, None, &dm);
    let (warm_u, warm_v) = run_warm(8, None, &dm);
    assert_eq!(warm_u.max_abs_diff(&cold_u), 0.0, "U differs");
    assert_eq!(warm_v.max_abs_diff(&cold_v), 0.0, "V differs");
}

/// A traced warm run must emit the same deterministic JSONL stream as a
/// traced cold run of the same configuration, and pass the replay
/// checker — buffered worker events replayed after the join cannot be
/// distinguished from live cold-path tracing.
#[test]
fn warm_trace_matches_cold_and_replays() {
    let dm = timestep_decomps(0, 1);
    let (sweep, _) = timestep_clauses();
    let env0 = timestep_env();
    let opts = opts_for(None);

    let mut arrays = dist_arrays(&env0, &dm);
    let plan = SpmdPlan::build(&sweep, &dm).unwrap();
    let cold_tracer = CollectingTracer::new();
    run_distributed_traced(&plan, &sweep, &mut arrays, opts, &cold_tracer).unwrap();
    let cold_log = cold_tracer.finish();

    let mut session = DistSession::new(&env0, dm.clone())
        .unwrap()
        .with_options(opts);
    // prime the cache so the traced run below is a warm (pooled) run
    session.run(&sweep).unwrap();
    let warm_tracer = CollectingTracer::new();
    let report = session.run_traced(&sweep, &warm_tracer).unwrap();
    assert_eq!(report.cache_hits, 1, "traced run was not warm");
    let warm_log = warm_tracer.finish();

    assert_eq!(
        warm_log.to_jsonl(),
        cold_log.to_jsonl(),
        "warm trace diverges from cold"
    );
    let summary = replay_check(&warm_log, &plan, opts.retry).unwrap();
    assert_eq!(summary.send_elems, summary.recv_elems);
}

/// There is one execution path: the same clause as a warm session run,
/// as a one-step DAG program and as a cold one-shot run puts the same
/// events on every node (the program schedule adds host-side
/// `dag_ready`/`clause_*` lines, and nothing else).
#[test]
fn session_program_and_cold_runs_share_one_node_trace() {
    let dm = timestep_decomps(0, 1);
    let (sweep, _) = timestep_clauses();
    let env0 = timestep_env();
    // the deterministic class: acks and the like depend on scheduling
    let node_events = |log: TraceLog| -> Vec<Event> {
        let of_nodes = log.deterministic().filter(|e| e.node != HOST);
        of_nodes.cloned().collect()
    };
    let opts = opts_for(None);
    let session = || {
        DistSession::new(&env0, dm.clone())
            .unwrap()
            .with_options(opts)
    };

    let tracer = CollectingTracer::new();
    session().run_traced(&sweep, &tracer).unwrap();
    let warm = node_events(tracer.finish());
    assert!(!warm.is_empty());

    let tracer = CollectingTracer::new();
    let steps = [ProgramStep::Clause(sweep.clone())];
    session()
        .run_program(&steps, ScheduleMode::Dag, &tracer)
        .unwrap();
    let log = tracer.finish();
    let host_lines = log.events.iter().filter(|e| e.node == HOST).count();
    assert_eq!(node_events(log), warm, "DAG step diverges");

    let tracer = CollectingTracer::new();
    let plan = SpmdPlan::build(&sweep, &dm).unwrap();
    let mut arrays = dist_arrays(&env0, &dm);
    run_distributed_traced(&plan, &sweep, &mut arrays, opts, &tracer).unwrap();
    let log = tracer.finish();
    // plan start/end on the host, plus the program's three lines
    let cold_host_lines = log.events.iter().filter(|e| e.node == HOST).count();
    assert_eq!(host_lines, cold_host_lines + 3);
    assert_eq!(node_events(log), warm, "cold run diverges");
}

/// Redistributing a referenced array invalidates the cache: the next run
/// is a miss, replans against the new layout, and stays correct.
#[test]
fn redistribute_invalidates_cache() {
    let dm = timestep_decomps(0, 0);
    let (sweep, back) = timestep_clauses();
    let env0 = timestep_env();
    let mut reference = env0.clone();
    for _ in 0..3 {
        reference.exec_clause(&sweep);
        reference.exec_clause(&back);
    }

    let mut session = DistSession::new(&env0, dm)
        .unwrap()
        .with_options(opts_for(None));
    session.run(&sweep).unwrap();
    session.run(&back).unwrap();
    let r = session.run(&sweep).unwrap();
    assert_eq!(r.cache_hits, 1);

    // layout change: block -> scatter (decomposition replacement)
    session
        .redistribute("U", Decomp1::scatter(PMAX, Bounds::range(0, N - 1)))
        .unwrap();
    let r = session.run(&back).unwrap();
    assert_eq!(
        (r.cache_hits, r.cache_misses),
        (0, 1),
        "redistribute must invalidate"
    );
    session.run(&sweep).unwrap();
    session.run(&back).unwrap();

    assert_eq!(
        session
            .gather("U")
            .unwrap()
            .max_abs_diff(reference.get("U").unwrap()),
        0.0
    );
}

/// A crashed pooled worker surfaces as `NodePanicked{node}`, leaves the
/// arrays untouched, and does NOT poison the session: after clearing
/// the fault plan, the same session runs correctly again.
#[test]
fn crashed_worker_retires_cleanly() {
    let dm = timestep_decomps(0, 1);
    let (sweep, _) = timestep_clauses();
    let env0 = timestep_env();
    let mut reference = env0.clone();
    reference.exec_clause(&sweep);
    for node in 0..PMAX {
        let mut session = DistSession::new(&env0, dm.clone())
            .unwrap()
            .with_options(opts_for(None));
        // warm the pool and the cache with a clean run first
        session.run(&sweep).unwrap();
        // inject a crash into the pooled path
        session.set_options(opts_for(Some(FaultPlan::seeded(7).with_crash(node, 1))));
        match session.run(&sweep) {
            Err(MachineError::NodePanicked { node: n }) => assert_eq!(n, node),
            other => panic!("node {node}: expected NodePanicked, got {other:?}"),
        }
        // the session must survive: clear the faults and run again
        session.set_options(opts_for(None));
        let report = session.run(&sweep).unwrap();
        assert_eq!(report.cache_hits, 1, "plan cache lost");
        assert_eq!(
            session
                .gather("V")
                .unwrap()
                .max_abs_diff(reference.get("V").unwrap()),
            0.0,
            "node {node}: post-crash run incorrect"
        );
    }
}

fn bits(a: &Array) -> Vec<u64> {
    a.data().iter().map(|v| v.to_bits()).collect()
}

/// In-process options: the pool registry lends thread pools only.
fn inproc(faults: Option<FaultPlan>) -> DistOptions {
    DistOptions {
        transport: TransportKind::InProc,
        ..opts_for(faults)
    }
}

/// What a dropped session leaves in its pool must not reach the pool's
/// next borrowers: a fresh session at the same pmax and a one-shot n-D
/// call both run bitwise equal to the sequential machine.
fn next_borrowers_run_bitwise(what: &str) {
    let dm = timestep_decomps(0, 1);
    let (sweep, back) = timestep_clauses();
    let env0 = timestep_env();
    let mut reference = env0.clone();
    let mut session = DistSession::new(&env0, dm)
        .unwrap()
        .with_options(inproc(None));
    for _ in 0..3 {
        session.run(&sweep).unwrap();
        session.run(&back).unwrap();
        reference.exec_clause(&sweep);
        reference.exec_clause(&back);
    }
    for name in ["U", "V"] {
        let got = session.gather(name).unwrap();
        assert_eq!(
            bits(&got),
            bits(reference.get(name).unwrap()),
            "{what}: session `{name}`"
        );
    }

    // a 2 × 2 grid: the same pmax as the session's
    let n = 12i64;
    let whole = Bounds::range2(0, n - 1, 0, n - 1);
    let u = |di: i64, dj: i64| {
        let map = IndexMap::per_dim(vec![Fn1::shift(di), Fn1::shift(dj)]);
        Expr::Ref(ArrayRef::new("U", map))
    };
    let stencil = Clause {
        iter: IndexSet::full(Bounds::range2(1, n - 2, 1, n - 2)),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::new("V", IndexMap::identity(2)),
        rhs: Expr::mul(
            Expr::add(Expr::add(u(-1, 0), u(1, 0)), Expr::add(u(0, -1), u(0, 1))),
            Expr::Lit(0.25),
        ),
    };
    let mut env = Env::new();
    env.insert(
        "U",
        Array::from_fn(whole, |i: &Ix| ((i[0] * 7 + i[1] * 3) % 11) as f64),
    );
    env.insert("V", Array::zeros(whole));
    let axis = Decomp1::block(2, Bounds::range(0, n - 1));
    let dec = DecompNd::new(vec![axis.clone(), axis]);
    let mut arrays: BTreeMap<String, DistArrayNd> = (["U", "V"].iter())
        .map(|a| {
            (
                a.to_string(),
                DistArrayNd::scatter_from(env.get(a).unwrap(), dec.clone()),
            )
        })
        .collect();
    run_distributed_nd(&stencil, &mut arrays, Duration::from_secs(10)).unwrap();
    env.exec_clause(&stencil);
    let got = arrays["V"].gather();
    assert_eq!(bits(&got), bits(env.get("V").unwrap()), "{what}: n-D call");
}

/// A session whose last wave ran a drop-fault plan leaves its pool dirty:
/// the next borrower's first wave purges under the barrier.
#[test]
fn a_pool_left_dirty_serves_its_next_borrowers_bitwise() {
    let (sweep, _) = timestep_clauses();
    let faults = FaultPlan::seeded(11).with_drop(0.2);
    let mut session = DistSession::new(&timestep_env(), timestep_decomps(0, 1))
        .unwrap()
        .with_options(inproc(Some(faults)));
    no_drain_capped(&session.run(&sweep).unwrap());
    drop(session);
    next_borrowers_run_bitwise("after a dirty pool");
}

/// A node still running past the run deadline is retired: the broken
/// pool is not returned, and its next borrowers get a working one.
#[test]
fn a_pool_with_a_retired_node_is_not_lent_again() {
    let (sweep, _) = timestep_clauses();
    let hurried = DistOptions {
        recv_timeout: Duration::from_micros(1),
        retry: RetryPolicy::none(),
        timeouts: ProtoTimeouts {
            run_grace: Duration::ZERO,
            ..ProtoTimeouts::default()
        },
        ..inproc(None)
    };
    let mut session = DistSession::new(&timestep_env(), timestep_decomps(0, 1))
        .unwrap()
        .with_options(hurried);
    assert!(
        session.run(&sweep).is_err(),
        "a 4 µs run deadline must fail"
    );
    drop(session);
    next_borrowers_run_bitwise("after a retired node");
}

/// A session dropped while its borrower unwinds drops its pool.
#[test]
fn a_pool_dropped_during_a_panic_is_not_lent_again() {
    let (sweep, _) = timestep_clauses();
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut session = DistSession::new(&timestep_env(), timestep_decomps(0, 1))
            .unwrap()
            .with_options(inproc(None));
        session.run(&sweep).unwrap();
        panic!("the borrower unwinds with its session alive");
    }));
    assert!(unwound.is_err());
    next_borrowers_run_bitwise("after a panic");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// N warm executions are bit-identical to N cold executions across
    /// decomposition layouts, with or without a
    /// seeded recoverable fault plan.
    #[test]
    fn warm_equals_cold_under_fault_soup(
        seed in any::<u64>(),
        steps in 1usize..6,
        u_kind in 0u8..3,
        v_kind in 0u8..3,
        faulty in any::<bool>(),
        p_drop in 0u32..10,
    ) {
        let dm = timestep_decomps(u_kind, v_kind);
        let faults = if faulty {
            Some(
                FaultPlan::seeded(seed)
                    .with_drop(f64::from(p_drop) / 100.0)
                    .with_duplicate(0.05)
                    .with_reorder(0.05),
            )
        } else {
            None
        };
        let (cold_u, cold_v) = run_cold(steps, faults, &dm);
        let (warm_u, warm_v) = run_warm(steps, faults, &dm);
        prop_assert_eq!(warm_u.max_abs_diff(&cold_u), 0.0, "U differs");
        prop_assert_eq!(warm_v.max_abs_diff(&cold_v), 0.0, "V differs");
    }
}
