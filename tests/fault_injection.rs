//! Seeded fault-injection sweep over the reliable transport layer.
//!
//! Two families of properties, both driven by deterministic seeded
//! [`FaultPlan`]s:
//!
//! * **recoverable** faults — drop / duplicate / reorder / delay under a
//!   retry budget — must leave the distributed result bit-identical to
//!   the sequential reference, redistribution included, with the
//!   recovery visible in the reliability counters;
//! * **unrecoverable** faults — an injected node crash, or a link so
//!   lossy the retry budget exhausts — must surface as a *typed*
//!   [`MachineError`] within a bounded time, never a hang or a host
//!   abort, and must leave the destination array untouched.
//!
//! `VCAL_TRANSPORT=inproc|uds|tcp` selects the transport
//! backend, so the same sweep doubles as the real-wire regression
//! harness: every property here must hold bit-for-bit when the nodes
//! are worker OS processes behind a socket.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use vcal_suite::core::func::Fn1;
use vcal_suite::core::{Array, ArrayRef, Bounds, Clause, Env, Expr, Guard, IndexSet, Ordering};
use vcal_suite::decomp::Decomp1;
use vcal_suite::machine::{
    run_distributed, DistArray, DistOptions, DistSession, ExecReport, FaultPlan, MachineError,
    RetryPolicy, TransportKind, FREE_PARTS_PER_NODE,
};
use vcal_suite::spmd::{DecompMap, SpmdPlan};

const N: i64 = 192;
const PMAX: i64 = 4;

/// A fault probability drawn uniformly from `{0, 0.01, …, (hi_pct-1)%}`.
fn prob(hi_pct: u32) -> impl Strategy<Value = f64> {
    (0u32..hi_pct).prop_map(|p| f64::from(p) / 100.0)
}

/// Transport backend under test, honouring the CI matrix filter
/// (`VCAL_TRANSPORT=inproc|uds|tcp`; unset means in-process). The
/// socket backends spawn real worker processes from the prebuilt
/// `vcalc` binary; a session's redistribution runs there too.
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

/// `A[i] := B[i+3] * 2 - 1` — A block-decomposed, B scattered, so almost
/// every read is remote and every node both sends and receives.
fn fixture() -> (SpmdPlan, Clause, DecompMap, Env, Env) {
    let cl = Clause {
        iter: IndexSet::range(0, N - 1),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1("A", Fn1::identity()),
        rhs: Expr::add(
            Expr::mul(Expr::Ref(ArrayRef::d1("B", Fn1::shift(3))), Expr::Lit(2.0)),
            Expr::Lit(-1.0),
        ),
    };
    let mut env0 = Env::new();
    env0.insert("A", Array::zeros(Bounds::range(0, N - 1)));
    env0.insert(
        "B",
        Array::from_fn(Bounds::range(0, N + 3), |i| {
            (i.scalar() * 13 % 101) as f64 - 50.0
        }),
    );
    let mut dm = DecompMap::new();
    dm.insert("A".into(), Decomp1::block(PMAX, Bounds::range(0, N - 1)));
    dm.insert("B".into(), Decomp1::scatter(PMAX, Bounds::range(0, N + 3)));
    let plan = SpmdPlan::build(&cl, &dm).unwrap();
    let mut reference = env0.clone();
    reference.exec_clause(&cl);
    (plan, cl, dm, env0, reference)
}

fn dist_arrays(env0: &Env, dm: &DecompMap) -> BTreeMap<String, DistArray> {
    let mut arrays = BTreeMap::new();
    for name in ["A", "B"] {
        arrays.insert(
            name.to_string(),
            DistArray::scatter_from(env0.get(name).unwrap(), dm[name].clone()),
        );
    }
    arrays
}

fn run_faulty(
    plan: &SpmdPlan,
    cl: &Clause,
    env0: &Env,
    dm: &DecompMap,
    faults: FaultPlan,
    retry: RetryPolicy,
) -> (
    Result<ExecReport, MachineError>,
    BTreeMap<String, DistArray>,
) {
    let mut arrays = dist_arrays(env0, dm);
    let opts = DistOptions {
        recv_timeout: Duration::from_secs(10),
        faults: Some(faults),
        retry,
        transport: transport(),
        ..DistOptions::default()
    };
    let res = run_distributed(plan, cl, &mut arrays, opts);
    (res, arrays)
}

/// Unrecoverable faults against the next-image commit. The relaxation
/// `U[i] := (U[i-1] + U[i+1]) / 2` over a block layout writes nearly all
/// of every part, so each node answers with a whole next part — and by
/// the time a neighbour's halo turns out to be lost it has already
/// written its interior into that part. Crash and exhausted-budget
/// faults alternate over a hundred runs on one pool (in process — the
/// socket workers ship staged writes and keep no parts), a clean run
/// now and then keeps the pool's free parts in play: every failure is
/// the typed root cause, every array stays bit-equal to what it was,
/// the next run succeeds, and the free parts never pass their bound.
#[test]
fn failed_image_runs_change_nothing_and_keep_the_free_list_bounded() {
    let u = |d: i64| Expr::Ref(ArrayRef::d1("U", Fn1::shift(d)));
    let cl = Clause {
        iter: IndexSet::range(1, N - 2),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1("U", Fn1::identity()),
        rhs: Expr::mul(Expr::add(u(-1), u(1)), Expr::Lit(0.5)),
    };
    let extent = Bounds::range(0, N - 1);
    let mut reference = Env::new();
    reference.insert(
        "U",
        Array::from_fn(extent, |i| (i.scalar() * 13 % 101) as f64),
    );
    let mut dm = DecompMap::new();
    dm.insert("U".into(), Decomp1::block(PMAX, extent));
    // a budget that is spent in milliseconds: a hundred runs exhaust it
    let clean = DistOptions {
        recv_timeout: Duration::from_secs(10),
        retry: RetryPolicy {
            max_retries: 3,
            nack_timeout: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(4),
            ..RetryPolicy::default()
        },
        ..DistOptions::default()
    };
    let bound = PMAX as usize * FREE_PARTS_PER_NODE;
    let mut session = DistSession::new(&reference, dm).unwrap();
    for round in 0..100u64 {
        let node = (round % PMAX as u64) as i64;
        let crash = round % 2 == 0;
        let faults = if crash {
            FaultPlan::seeded(round).with_crash(node, round % 3)
        } else {
            FaultPlan::seeded(round).with_drop(1.0).with_from_only(node)
        };
        session.set_options(DistOptions {
            faults: Some(faults),
            ..clean
        });
        match session.run(&cl) {
            Err(MachineError::NodePanicked { node: n }) if crash => assert_eq!(n, node),
            Err(MachineError::Unrecoverable { peer, .. }) if !crash => assert_eq!(peer, node),
            other => panic!("round {round}: expected the injected fault, got {other:?}"),
        }
        assert_eq!(
            session.gather_all(),
            reference,
            "round {round}: a failed run changed an array"
        );
        assert!(session.free_parts() <= bound, "round {round}");
        if round % 7 == 0 {
            session.set_options(clean);
            session.run(&cl).unwrap();
            reference.exec_clause(&cl);
            assert_eq!(session.gather_all(), reference, "round {round}: clean run");
            assert!((1..=bound).contains(&session.free_parts()), "round {round}");
        }
    }
    session.set_options(clean);
    session.run(&cl).unwrap();
    reference.exec_clause(&cl);
    assert_eq!(session.gather_all(), reference);
}

/// The acceptance configuration: a seeded ~5% per-packet drop + reorder
/// plan must finish bit-identical to the
/// sequential reference and must actually have gone through the
/// retransmission path.
#[test]
fn seeded_drop_reorder_sweep_is_bit_identical() {
    let (plan, cl, dm, env0, reference) = fixture();
    // retransmissions are asserted over the whole seed sweep: a 5%
    // drop rate may leave an individual low-traffic run
    // untouched, but the sweep as a whole must exercise recovery
    let mut retransmits = 0u64;
    for seed in [1u64, 7, 23, 1991] {
        let ctx = format!("seed={seed}");
        let fp = FaultPlan::seeded(seed).with_drop(0.05).with_reorder(0.05);
        let (res, arrays) = run_faulty(&plan, &cl, &env0, &dm, fp, RetryPolicy::fast());
        let report = res.unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let total = report.total();
        retransmits += total.retransmits;
        assert!(total.acks_sent > 0, "{ctx}: no acks recorded");
        assert_eq!(
            arrays["A"]
                .gather()
                .max_abs_diff(reference.get("A").unwrap()),
            0.0,
            "{ctx}: result differs from sequential reference"
        );
    }
    assert!(retransmits > 0, "seed sweep never exercised retransmission");
}

/// Multi-packet flows under the recoverable soup. The small fixtures
/// above plan one packet per pair, so reorder / duplicate / go-back-N
/// *across packets of one flow* would go unexercised. A
/// block-scatter(16) → block copy at 128 Ki elements on two nodes plans
/// 2 048 runs per pair, cut into 4 packets of 8 192 elements.
#[test]
fn multi_packet_flows_survive_the_fault_soup() {
    let n = 128i64 << 10;
    let e = Bounds::range(0, n - 1);
    let cl = Clause {
        iter: IndexSet::range(0, n - 1),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1("A", Fn1::identity()),
        rhs: Expr::Ref(ArrayRef::d1("B", Fn1::identity())),
    };
    let mut env0 = Env::new();
    env0.insert("A", Array::zeros(e));
    env0.insert(
        "B",
        Array::from_fn(e, |i| (i.scalar() * 13 % 1009) as f64 - 500.0),
    );
    let mut dm = DecompMap::new();
    dm.insert("A".into(), Decomp1::block(2, e));
    dm.insert("B".into(), Decomp1::block_scatter(16, 2, e));
    let plan = SpmdPlan::build(&cl, &dm).unwrap();
    for node in &plan.nodes {
        // 2 048 block cycles, one two-level run per packet
        let runs = &node.comm.sends[0].runs;
        assert_eq!(runs.len(), 4);
        assert_eq!(runs.iter().map(|r| r.nest.reps()).sum::<u64>(), 2048);
        assert_eq!(node.comm.send_packets(), 4);
    }
    let planned_packets: u64 = plan.nodes.iter().map(|n| n.comm.send_packets()).sum();
    let mut reference = env0.clone();
    reference.exec_clause(&cl);
    let want: Vec<u64> = (reference.get("A").unwrap().data().iter())
        .map(|v| v.to_bits())
        .collect();

    let mut repaired = 0u64;
    for seed in [1u64, 7, 23, 1991, 4242] {
        let fp = FaultPlan::seeded(seed)
            .with_drop(0.15)
            .with_duplicate(0.15)
            .with_reorder(0.15)
            .with_delay(0.1);
        let (res, arrays) = run_faulty(&plan, &cl, &env0, &dm, fp, RetryPolicy::fast());
        let total = res.unwrap_or_else(|e| panic!("seed={seed}: {e}")).total();
        let got: Vec<u64> = (arrays["A"].gather().data().iter())
            .map(|v| v.to_bits())
            .collect();
        assert!(got == want, "seed={seed}: result differs from sequential");
        assert_eq!(total.msgs_received, total.msgs_sent, "seed={seed}");
        assert_eq!(total.packets_sent, planned_packets, "seed={seed}");
        assert_eq!(total.max_packet_elems, 8192, "seed={seed}");
        repaired += total.retransmits + total.dups_dropped;
    }
    assert!(repaired > 0, "the seed sweep never hit a multi-packet flow");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any seeded soup of recoverable faults under a retry budget keeps
    /// the distributed result bit-identical to the sequential reference,
    /// and fresh-delivery accounting stays intact (every first
    /// transmission is received exactly once).
    #[test]
    fn recoverable_fault_soup_matches_sequential(
        seed in any::<u64>(),
        p_drop in prob(15),
        p_dup in prob(15),
        p_reorder in prob(15),
        p_delay in prob(10),
    ) {
        let (plan, cl, dm, env0, reference) = fixture();
        let fp = FaultPlan::seeded(seed)
            .with_drop(p_drop)
            .with_duplicate(p_dup)
            .with_reorder(p_reorder)
            .with_delay(p_delay);
        let (res, arrays) =
            run_faulty(&plan, &cl, &env0, &dm, fp, RetryPolicy::fast());
        let report = match res {
            Ok(r) => r,
            Err(e) => return Err(TestCaseError::fail(e.to_string())),
        };
        let total = report.total();
        // reliability machinery never changes *which* values arrive
        prop_assert_eq!(total.msgs_received, total.msgs_sent);
        prop_assert_eq!(
            arrays["A"].gather().max_abs_diff(reference.get("A").unwrap()),
            0.0,
            "result differs from sequential reference"
        );
    }

    /// An injected node crash — possibly amid link noise — surfaces as
    /// `NodePanicked` naming the crashed node, within a bounded time,
    /// with the destination array left untouched.
    #[test]
    fn crash_fault_is_typed_and_bounded(
        seed in any::<u64>(),
        node in 0i64..PMAX,
        after in 0u64..5,
        p_drop in prob(10),
    ) {
        let (plan, cl, dm, env0, _) = fixture();
        let fp = FaultPlan::seeded(seed)
            .with_drop(p_drop)
            .with_crash(node, after);
        let t0 = Instant::now();
        let (res, arrays) =
            run_faulty(&plan, &cl, &env0, &dm, fp, RetryPolicy::fast());
        let elapsed = t0.elapsed();
        prop_assert!(elapsed < Duration::from_secs(30), "took {:?}", elapsed);
        match res {
            Err(MachineError::NodePanicked { node: n }) => prop_assert_eq!(n, node),
            other => {
                return Err(TestCaseError::fail(format!(
                    "expected NodePanicked, got {other:?}"
                )))
            }
        }
        // failed runs must not leave partial writes behind
        prop_assert_eq!(
            arrays["A"].gather().max_abs_diff(env0.get("A").unwrap()),
            0.0,
            "destination array mutated by a failed run"
        );
    }

    /// A link that drops everything from one node exhausts the retry
    /// budget and surfaces as `Unrecoverable` naming that peer — within
    /// a bounded time, never a hang.
    #[test]
    fn exhausted_retry_budget_is_typed_and_bounded(
        seed in any::<u64>(),
        victim in 0i64..PMAX,
    ) {
        let (plan, cl, dm, env0, _) = fixture();
        let fp = FaultPlan::seeded(seed).with_drop(1.0).with_from_only(victim);
        let t0 = Instant::now();
        let (res, arrays) =
            run_faulty(&plan, &cl, &env0, &dm, fp, RetryPolicy::fast());
        let elapsed = t0.elapsed();
        prop_assert!(elapsed < Duration::from_secs(30), "took {:?}", elapsed);
        match res {
            Err(MachineError::Unrecoverable { peer, retries, .. }) => {
                prop_assert_eq!(peer, victim);
                prop_assert!(retries > 0, "budget must have been spent");
            }
            other => {
                return Err(TestCaseError::fail(format!(
                    "expected Unrecoverable, got {other:?}"
                )))
            }
        }
        prop_assert_eq!(
            arrays["A"].gather().max_abs_diff(env0.get("A").unwrap()),
            0.0,
            "destination array mutated by a failed run"
        );
    }

    /// Redistribution between arbitrary layout pairs survives a seeded
    /// fault soup with every element intact.
    #[test]
    fn redistribution_survives_fault_soup(
        seed in any::<u64>(),
        p_drop in prob(15),
        p_dup in prob(15),
        p_reorder in prob(15),
        from_kind in 0u8..3,
        to_kind in 0u8..3,
    ) {
        let e = Bounds::range(0, N - 1);
        let mk = |kind: u8| match kind {
            0 => Decomp1::block(PMAX, e),
            1 => Decomp1::scatter(PMAX, e),
            _ => Decomp1::block_scatter(3, PMAX, e),
        };
        let (from, to) = (mk(from_kind), mk(to_kind));
        let original = Array::from_fn(e, |i| (i.scalar() * 31 % 89) as f64 + 0.25);
        let mut env = Env::new();
        env.insert("A", original.clone());
        let dm = DecompMap::from([("A".to_string(), from)]);
        let opts = DistOptions {
            recv_timeout: Duration::from_secs(10),
            faults: Some(
                FaultPlan::seeded(seed)
                    .with_drop(p_drop)
                    .with_duplicate(p_dup)
                    .with_reorder(p_reorder),
            ),
            retry: RetryPolicy::fast(),
            transport: transport(),
            ..DistOptions::default()
        };
        let mut session = DistSession::new(&env, dm).unwrap().with_options(opts);
        if let Err(e) = session.redistribute("A", to) {
            return Err(TestCaseError::fail(format!("redistribution: {e}")));
        }
        let dst = session.gather("A").unwrap();
        prop_assert_eq!(
            dst.max_abs_diff(&original),
            0.0,
            "redistribution lost or corrupted elements"
        );
    }
}
