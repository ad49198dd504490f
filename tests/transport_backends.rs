//! Cross-backend transport regression harness: the same plans, fault
//! seeds, and trace configuration must behave identically whether the
//! nodes are threads over channels (`inproc`) or real worker OS
//! processes speaking the framed wire protocol over Unix-domain or
//! loopback TCP sockets (`uds` / `tcp`).
//!
//! * results are bitwise-equal to the sequential oracle on every
//!   backend, cold path and steady-state session alike, mid-run
//!   redistributions included;
//! * the seeded recoverable-fault sweep passes over a real wire,
//!   bitwise-equal to the oracle;
//! * the deterministic trace JSONL of a same-seed run is byte-identical
//!   across all three backends — the wire is invisible to the
//!   deterministic event class;
//! * a DAG wave runs whole on every backend: one job per node, one
//!   transport run, the same trace as the in-process pool;
//! * byte-level chaos (bit flips, stalls, severed connections) injected
//!   by the proxy between the workers and the router either recovers to
//!   the bit-identical result or surfaces as a typed error with the
//!   arrays untouched;
//! * SIGKILLing a worker process mid-run yields a typed
//!   [`MachineError::Transport`]-class failure, leaves the arrays
//!   untouched, and the same session completes once the fault clears.
//!
//! The CI transport matrix runs the wire-backed suites here once per
//! backend; everything is seeded, so failures reproduce exactly.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Once;
use std::time::{Duration, Instant};
use vcal_suite::core::func::Fn1;
use vcal_suite::core::{Array, ArrayRef, Bounds, Clause, Env, Expr, Guard, IndexSet, Ordering};
use vcal_suite::decomp::Decomp1;
use vcal_suite::machine::{
    replay_check_dag, run_distributed, ChaosPlan, CollectingTracer, DistOptions, DistSession,
    ExecReport, FaultPlan, MachineError, NodeStats, ProgramStep, RetryPolicy, ScheduleMode,
    TransportKind,
};
use vcal_suite::spmd::{build_dag, DecompMap};

const N: i64 = 96;
const PMAX: i64 = 4;

/// Point the process backends at the `vcalc` binary (which implements
/// the `worker` subcommand); the test binary itself does not.
fn init() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| std::env::set_var("VCAL_WORKER_BIN", env!("CARGO_BIN_EXE_vcalc")));
}

/// The stencil + writeback pair: remote reads in both directions, both
/// interior and boundary runs, state carried across steps.
fn fixture() -> (Vec<Clause>, DecompMap, Env) {
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
    let mut env = Env::new();
    env.insert(
        "U",
        Array::from_fn(Bounds::range(0, N - 1), |i| {
            (i.scalar() * 17 % 29) as f64 - 13.0
        }),
    );
    env.insert("V", Array::zeros(Bounds::range(0, N - 1)));
    let mut dm = DecompMap::new();
    dm.insert("U".into(), Decomp1::block(PMAX, Bounds::range(0, N - 1)));
    dm.insert("V".into(), Decomp1::block(PMAX, Bounds::range(0, N - 1)));
    (vec![sweep, back], dm, env)
}

/// The iterated sequential oracle for `steps` rounds of the fixture.
fn oracle(clauses: &[Clause], env: &Env, steps: usize) -> Env {
    let mut reference = env.clone();
    for _ in 0..steps {
        for cl in clauses {
            reference.exec_clause(cl);
        }
    }
    reference
}

/// Run the fixture for `steps` rounds through a session on `opts`,
/// returning the gathered end state and every run's node counters,
/// summed. Mid-round, `V` moves to block-scatter(3) — so the writeback
/// reads it across nodes — and back to block: every round redistributes
/// twice on the session's backend.
fn run_session(
    clauses: &[Clause],
    dm: &DecompMap,
    env: &Env,
    steps: usize,
    opts: DistOptions,
    tracer: Option<&CollectingTracer>,
) -> Result<(Env, NodeStats), MachineError> {
    let mut session = DistSession::new(env, dm.clone())?.with_options(opts);
    let mid = Decomp1::block_scatter(3, PMAX, Bounds::range(0, N - 1));
    let mut total = NodeStats::default();
    for _ in 0..steps {
        for (k, cl) in clauses.iter().enumerate() {
            if k == 1 {
                total += redistribute(&mut session, "V", mid.clone(), tracer)?.total();
            }
            total += match tracer {
                Some(t) => session.run_traced(cl, t)?,
                None => session.run(cl)?,
            }
            .total();
        }
        total += redistribute(&mut session, "V", dm["V"].clone(), tracer)?.total();
    }
    Ok((session.gather_all(), total))
}

fn redistribute(
    session: &mut DistSession,
    name: &str,
    to: Decomp1,
    tracer: Option<&CollectingTracer>,
) -> Result<ExecReport, MachineError> {
    match tracer {
        Some(t) => session.redistribute_traced(name, to, t),
        None => session.redistribute(name, to),
    }
}

/// Every backend, cold through warm: three session steps (plan cache
/// miss, then hits; workers persist across steps on the wire backends)
/// end bitwise-equal to the iterated sequential oracle.
#[test]
fn all_backends_match_sequential_oracle() {
    init();
    let (clauses, dm, env) = fixture();
    let reference = oracle(&clauses, &env, 3);
    for kind in [
        TransportKind::InProc,
        TransportKind::Uds,
        TransportKind::Tcp,
    ] {
        let opts = DistOptions {
            transport: kind,
            ..DistOptions::default()
        };
        let (got, _) = run_session(&clauses, &dm, &env, 3, opts, None)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        for name in ["U", "V"] {
            assert_eq!(
                got.get(name)
                    .unwrap()
                    .max_abs_diff(reference.get(name).unwrap()),
                0.0,
                "{}: `{name}` differs from the sequential oracle",
                kind.name()
            );
        }
    }
}

/// PR 3's deterministic trace logs as the cross-backend regression
/// harness: the same seeded recoverable-fault run produces a
/// byte-identical deterministic JSONL stream on all three backends —
/// frames, reconnects, and process boundaries never leak into the
/// deterministic event class.
#[test]
fn trace_jsonl_byte_identical_across_backends() {
    init();
    let (clauses, dm, env) = fixture();
    let faults = Some(FaultPlan::seeded(23).with_drop(0.05).with_reorder(0.05));
    let mut logs = Vec::new();
    for kind in [
        TransportKind::InProc,
        TransportKind::Uds,
        TransportKind::Tcp,
    ] {
        let opts = DistOptions {
            transport: kind,
            faults,
            retry: RetryPolicy::fast(),
            ..DistOptions::default()
        };
        let tracer = CollectingTracer::new();
        run_session(&clauses, &dm, &env, 1, opts, Some(&tracer))
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        logs.push((kind, tracer.finish().to_jsonl()));
    }
    let (_, reference) = &logs[0];
    for (kind, jsonl) in &logs[1..] {
        assert_eq!(
            jsonl,
            reference,
            "{}: deterministic JSONL differs from inproc",
            kind.name()
        );
    }
}

/// Two independent stencils, then their two copy-backs: a DAG of two
/// waves, each two clauses wide.
fn width_two_program() -> (Vec<ProgramStep>, DecompMap, Env) {
    let inner = IndexSet::range(1, N - 2);
    let at = |name: &str, d: i64| Expr::Ref(ArrayRef::d1(name, Fn1::shift(d)));
    let step = |lhs: &str, rhs: Expr| {
        ProgramStep::Clause(Clause {
            iter: inner.clone(),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1(lhs, Fn1::identity()),
            rhs,
        })
    };
    let stencil = |src: &str| Expr::mul(Expr::Lit(0.5), Expr::add(at(src, -1), at(src, 1)));
    let steps = vec![
        step("C", stencil("A")),
        step("D", stencil("B")),
        step("A", at("C", 0)),
        step("B", at("D", 0)),
    ];
    let extent = Bounds::range(0, N - 1);
    let mut env = Env::new();
    let mut dm = DecompMap::new();
    for (k, name) in ["A", "B", "C", "D"].into_iter().enumerate() {
        let salt = k as i64 * 5;
        let init = |i: &vcal_suite::core::Ix| ((i.scalar() * 13 + salt) % 31) as f64 - 15.0;
        env.insert(name, Array::from_fn(extent, init));
        dm.insert(name.into(), Decomp1::block(PMAX, extent));
    }
    (steps, dm, env)
}

/// A DAG wave is one job per node and one transport run on every
/// backend: the width-2 program, run twice under `ScheduleMode::Dag`
/// (cold, then warm) on inproc, uds and tcp, ends bitwise-equal to the
/// `Seq` oracle, passes the DAG replay check, and records the same
/// deterministic JSONL as the in-process pool.
#[test]
fn dag_waves_run_whole_on_every_backend() {
    init();
    let (steps, dm, env) = width_two_program();
    let dag = build_dag(&steps, &dm);
    assert_eq!((dag.waves.len(), dag.width()), (2, 2), "two waves of two");
    let mut oracle = DistSession::new(&env, dm.clone()).expect("scatters");
    for _ in 0..2 {
        let seq = oracle.run_program(&steps, ScheduleMode::Seq, &CollectingTracer::new());
        seq.expect("the oracle runs");
    }
    let bits = |a: &Array| a.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut logs = Vec::new();
    for kind in [
        TransportKind::InProc,
        TransportKind::Uds,
        TransportKind::Tcp,
    ] {
        let opts = DistOptions {
            transport: kind,
            ..DistOptions::default()
        };
        let mut session = DistSession::new(&env, dm.clone())
            .expect("scatters")
            .with_options(opts);
        let tracer = CollectingTracer::new();
        for _ in 0..2 {
            let report = session
                .run_program(&steps, ScheduleMode::Dag, &tracer)
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            assert_eq!((report.waves, report.dag_width), (2, 2), "{}", kind.name());
        }
        for name in dm.keys() {
            let (got, want) = (session.gather(name).unwrap(), oracle.gather(name).unwrap());
            assert_eq!(
                bits(&got),
                bits(&want),
                "{}: `{name}` differs from the Seq oracle",
                kind.name()
            );
        }
        let log = tracer.finish();
        replay_check_dag(&log, &dag).unwrap_or_else(|e| panic!("{}: {e:?}", kind.name()));
        logs.push((kind, log.to_jsonl()));
    }
    let (_, reference) = &logs[0];
    for (kind, jsonl) in &logs[1..] {
        assert_eq!(
            jsonl,
            reference,
            "{}: deterministic JSONL differs from inproc",
            kind.name()
        );
    }
}

/// Multi-packet flows over a real wire: a block-scatter(16) → block copy
/// at 128 Ki elements on two worker processes plans 4 packets of 64 KiB
/// per pair, so reorder, duplication and go-back-N across the packets of
/// one flow — and frames several socket reads long — cross UDS and TCP.
#[test]
fn multi_packet_flows_survive_faults_over_the_wire() {
    init();
    let n = 128i64 << 10;
    let e = Bounds::range(0, n - 1);
    let copy = Clause {
        iter: IndexSet::range(0, n - 1),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1("A", Fn1::identity()),
        rhs: Expr::Ref(ArrayRef::d1("B", Fn1::identity())),
    };
    let mut env = Env::new();
    env.insert("A", Array::zeros(e));
    env.insert("B", Array::from_fn(e, |i| (i.scalar() * 13 % 1009) as f64));
    let mut dm = DecompMap::new();
    dm.insert("A".into(), Decomp1::block(2, e));
    dm.insert("B".into(), Decomp1::block_scatter(16, 2, e));
    let plan = vcal_suite::spmd::SpmdPlan::build(&copy, &dm).unwrap();
    let planned_packets: u64 = plan.nodes.iter().map(|n| n.comm.send_packets()).sum();
    assert_eq!(planned_packets, 8);
    let reference = oracle(std::slice::from_ref(&copy), &env, 1);
    let bits = |a: &Array| a.data().iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    for kind in [TransportKind::Uds, TransportKind::Tcp] {
        let mut arrays = BTreeMap::new();
        for name in ["A", "B"] {
            arrays.insert(
                name.to_string(),
                vcal_suite::machine::DistArray::scatter_from(
                    env.get(name).unwrap(),
                    dm[name].clone(),
                ),
            );
        }
        let opts = DistOptions {
            recv_timeout: Duration::from_secs(10),
            transport: kind,
            faults: Some(
                FaultPlan::seeded(23)
                    .with_drop(0.15)
                    .with_duplicate(0.15)
                    .with_reorder(0.15)
                    .with_delay(0.1),
            ),
            retry: RetryPolicy::fast(),
            ..DistOptions::default()
        };
        let total = run_distributed(&plan, &copy, &mut arrays, opts)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()))
            .total();
        assert!(
            bits(&arrays["A"].gather()) == bits(reference.get("A").unwrap()),
            "{}: wire run differs from the sequential oracle",
            kind.name()
        );
        assert_eq!(total.msgs_received, total.msgs_sent, "{}", kind.name());
        assert_eq!(total.packets_sent, planned_packets, "{}", kind.name());
    }
}

/// Recoverable byte-level chaos — bit flips caught by the frame CRC and
/// stalls — injected on the wire between workers and router: every run
/// still ends bitwise-equal to the oracle, across a dirty-handshake
/// second run.
#[test]
fn chaos_bitflip_and_stall_recover_bit_identical() {
    init();
    let (clauses, dm, env) = fixture();
    let reference = oracle(&clauses, &env, 2);
    for kind in [TransportKind::Uds, TransportKind::Tcp] {
        let opts = DistOptions {
            transport: kind,
            chaos: Some(ChaosPlan::seeded(7).with_bitflip(0.05).with_stall(0.05, 10)),
            retry: RetryPolicy::fast(),
            ..DistOptions::default()
        };
        let t0 = Instant::now();
        let (got, total) = run_session(&clauses, &dm, &env, 2, opts, None)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        // reported, not asserted: a socket can lose a `Done` and the
        // last ack that would have settled its sender
        eprintln!(
            "{}: {:?}, drain_cap_expired = {}",
            kind.name(),
            t0.elapsed(),
            total.drain_cap_expired
        );
        for name in ["U", "V"] {
            assert_eq!(
                got.get(name)
                    .unwrap()
                    .max_abs_diff(reference.get(name).unwrap()),
                0.0,
                "{}: `{name}` corrupted by recoverable chaos",
                kind.name()
            );
        }
    }
}

/// Under the same recoverable chaos on other seeds, the frame CRC drops
/// `Done`s and acks as well as data, so a drain that waited for every
/// `Done` would sit out its cap (5 s) several times per run. A lossy
/// wave's drain ends on evidence instead: at most one drain per run may
/// reach its cap (a peer that left having lost both its `Done` and its
/// last ack), and the results stay bitwise.
#[test]
fn chaos_drains_end_on_evidence() {
    init();
    let (clauses, dm, env) = fixture();
    let reference = oracle(&clauses, &env, 2);
    for seed in [19u64, 31] {
        for kind in [TransportKind::Uds, TransportKind::Tcp] {
            let opts = DistOptions {
                transport: kind,
                chaos: Some(
                    ChaosPlan::seeded(seed)
                        .with_bitflip(0.05)
                        .with_stall(0.05, 10),
                ),
                retry: RetryPolicy::fast(),
                ..DistOptions::default()
            };
            let ctx = format!("{} seed {seed}", kind.name());
            let (got, total) = run_session(&clauses, &dm, &env, 2, opts, None)
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            for name in ["U", "V"] {
                let (got, want) = (got.get(name).unwrap(), reference.get(name).unwrap());
                assert_eq!(got.max_abs_diff(want), 0.0, "{ctx}: `{name}`");
            }
            assert!(total.drain_cap_expired <= 1, "{ctx}: {total:?}");
        }
    }
}

/// Destructive chaos — truncated frames and severed connections — must
/// either recover (reconnect + NACK retransmission) to the bit-identical
/// result or fail *typed*, leaving the arrays exactly as scattered.
#[test]
fn chaos_sever_and_truncate_recover_or_fail_typed() {
    init();
    let (clauses, dm, env) = fixture();
    let reference = oracle(&clauses, &env, 1);
    for kind in [TransportKind::Uds, TransportKind::Tcp] {
        let opts = DistOptions {
            transport: kind,
            chaos: Some(
                ChaosPlan::seeded(41)
                    .with_sever(0.02)
                    .with_truncate(0.02)
                    .with_max_faults(4),
            ),
            retry: RetryPolicy::fast(),
            ..DistOptions::default()
        };
        let mut session = DistSession::new(&env, dm.clone())
            .unwrap()
            .with_options(opts);
        let mut ran_ok = true;
        for cl in &clauses {
            if let Err(e) = session.run(cl) {
                // typed, never a panic/hang; arrays must be untouched
                assert!(
                    matches!(
                        e,
                        MachineError::Transport { .. }
                            | MachineError::Unrecoverable { .. }
                            | MachineError::MissingPacket { .. }
                            | MachineError::MissingMessage { .. }
                    ),
                    "{}: untyped failure {e:?}",
                    kind.name()
                );
                ran_ok = false;
                break;
            }
        }
        let got = session.gather_all();
        let expect = if ran_ok { &reference } else { &env };
        for name in ["U", "V"] {
            assert_eq!(
                got.get(name)
                    .unwrap()
                    .max_abs_diff(expect.get(name).unwrap()),
                0.0,
                "{}: `{name}` {} after {}",
                kind.name(),
                if ran_ok {
                    "differs from oracle"
                } else {
                    "mutated"
                },
                if ran_ok {
                    "a recovered chaos run"
                } else {
                    "a failed chaos run"
                },
            );
        }
    }
}

/// SIGKILL a worker process mid-run: the run fails with a typed
/// transport error naming a node, the arrays are untouched
/// (transactional host writes from the host-side pre-run copies), and
/// the *same session* — with the fault cleared — completes the next run
/// against the oracle, proving the pool respawned the dead worker.
#[test]
fn killed_worker_is_typed_untouched_and_session_recovers() {
    init();
    let (clauses, dm, env) = fixture();
    let sweep = &clauses[0];
    let victim = 1i64;
    let mut session = DistSession::new(&env, dm.clone())
        .unwrap()
        .with_options(DistOptions {
            transport: TransportKind::Uds,
            ..DistOptions::default()
        });

    // run 1: clean — spawns the pool and proves it works
    session.run(sweep).expect("clean run over uds");
    let after_one = session.gather_all();
    let pids = session.worker_pids();
    assert_eq!(pids.len(), PMAX as usize, "one process per node");

    // run 2: the victim's sends are all dropped, pinning its peers in
    // the NACK/drain window; SIGKILL lands inside that window
    session.set_options(DistOptions {
        transport: TransportKind::Uds,
        faults: Some(FaultPlan::seeded(5).with_drop(1.0).with_from_only(victim)),
        retry: RetryPolicy::fast(),
        recv_timeout: Duration::from_secs(2),
        ..DistOptions::default()
    });
    let victim_pid = pids[victim as usize].to_string();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        let _ = std::process::Command::new("kill")
            .args(["-9", &victim_pid])
            .status();
    });
    let t0 = Instant::now();
    let err = session.run(sweep).expect_err("victim was killed");
    killer.join().expect("killer thread");
    assert!(
        t0.elapsed() < Duration::from_secs(60),
        "death detection not bounded: {:?}",
        t0.elapsed()
    );
    // typed: process death reports Transport naming the node; if the
    // kill raced the (bounded) run's end, the total-drop fault still
    // fails typed as Unrecoverable
    match err {
        MachineError::Transport { node, .. } => assert_eq!(node, victim),
        MachineError::Unrecoverable { peer, .. } => assert_eq!(peer, victim),
        other => panic!("expected Transport/Unrecoverable, got {other:?}"),
    }
    // transactional: the failed run changed nothing
    let after_err = session.gather_all();
    for name in ["U", "V"] {
        assert_eq!(
            after_err
                .get(name)
                .unwrap()
                .max_abs_diff(after_one.get(name).unwrap()),
            0.0,
            "`{name}` mutated by the failed run"
        );
    }

    // run 3: fault cleared — the same session respawns the dead worker
    // (dirty handshake purges the wire) and completes correctly
    session.set_options(DistOptions {
        transport: TransportKind::Uds,
        ..DistOptions::default()
    });
    session
        .run(sweep)
        .expect("session must survive a dead worker");
    let mut reference = after_one.clone();
    reference.exec_clause(sweep);
    assert_eq!(
        session
            .gather_all()
            .get("V")
            .unwrap()
            .max_abs_diff(reference.get("V").unwrap()),
        0.0,
        "post-recovery run differs from the oracle"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The seeded recoverable-fault sweep of `fault_injection.rs`, over
    /// a real wire: any soup of drop/duplicate/reorder faults under a
    /// retry budget ends bitwise-equal to the sequential oracle on both
    /// socket backends (cold path — pool per case).
    #[test]
    fn fault_sweep_over_wire_matches_oracle(
        seed in any::<u64>(),
        p_drop in 0u32..12,
        p_dup in 0u32..12,
        p_reorder in 0u32..12,
        kind_ix in 0usize..2,
    ) {
        init();
        let kind = [TransportKind::Uds, TransportKind::Tcp][kind_ix];
        let (clauses, dm, env) = fixture();
        let sweep = &clauses[0];
        let reference = oracle(&clauses[..1], &env, 1);
        let plan = vcal_suite::spmd::SpmdPlan::build(sweep, &dm).unwrap();
        let mut arrays = BTreeMap::new();
        for name in ["U", "V"] {
            arrays.insert(
                name.to_string(),
                vcal_suite::machine::DistArray::scatter_from(
                    env.get(name).unwrap(),
                    dm[name].clone(),
                ),
            );
        }
        let opts = DistOptions {
            transport: kind,
            faults: Some(
                FaultPlan::seeded(seed)
                    .with_drop(f64::from(p_drop) / 100.0)
                    .with_duplicate(f64::from(p_dup) / 100.0)
                    .with_reorder(f64::from(p_reorder) / 100.0),
            ),
            retry: RetryPolicy::fast(),
            ..DistOptions::default()
        };
        if let Err(e) = run_distributed(&plan, sweep, &mut arrays, opts) {
            return Err(TestCaseError::fail(format!("{}: {e}", kind.name())));
        }
        prop_assert_eq!(
            arrays["V"].gather().max_abs_diff(reference.get("V").unwrap()),
            0.0,
            "{}: wire run differs from the sequential oracle", kind.name()
        );
    }
}
