//! Equivalence and fault-detection suite for the packet communication
//! path of the distributed machine.
//!
//! For every (decomposition × access-function) combination of the
//! paper's Table I shapes the run must produce arrays bit-identical to
//! the sequential machine, and per node exactly the traffic the plan
//! derives from the decompositions (one packet per plan-time group of
//! runs) — batching may only change *how* values travel, never *which*
//! values. The same holds for the paper's §5 overlap analysis: its
//! ghost-exchange plan predicts the engine's Block stencil traffic.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};
use vcal_suite::core::func::Fn1;
use vcal_suite::core::{Array, ArrayRef, Bounds, Clause, Env, Expr, Guard, IndexSet, Ordering};
use vcal_suite::decomp::{Decomp1, OverlapDecomp};
use vcal_suite::machine::{
    run_distributed, DistArray, DistOptions, ExecReport, FaultPlan, MachineError, RetryPolicy,
};
use vcal_suite::spmd::{DecompMap, SpmdPlan};

const N: i64 = 1024;
const PMAX: i64 = 8;

/// `A[f(i)] := B[g(i)] + 0.5` over `[0, imax]`.
fn clause(f: Fn1, g: Fn1, imax: i64) -> Clause {
    Clause {
        iter: IndexSet::range(0, imax),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1("A", f),
        rhs: Expr::add(Expr::Ref(ArrayRef::d1("B", g)), Expr::Lit(0.5)),
    }
}

/// A over `[0, N-1]`, B over `[0, 3N]` (roomy enough for `a·i+c`).
fn env() -> Env {
    let mut env = Env::new();
    env.insert("A", Array::zeros(Bounds::range(0, N - 1)));
    env.insert(
        "B",
        Array::from_fn(Bounds::range(0, 3 * N), |i| {
            (i.scalar() * 7 % 97) as f64 - 40.0
        }),
    );
    env
}

fn decomp_menu(e: Bounds) -> Vec<(&'static str, Decomp1)> {
    vec![
        ("block", Decomp1::block(PMAX, e)),
        ("scatter", Decomp1::scatter(PMAX, e)),
        ("bs4", Decomp1::block_scatter(4, PMAX, e)),
    ]
}

/// Run one plan, check the result against the sequential reference,
/// and return the report.
fn run_checked(
    plan: &SpmdPlan,
    cl: &Clause,
    env0: &Env,
    dm: &DecompMap,
    reference: &Env,
    ctx: &str,
) -> ExecReport {
    let mut arrays: BTreeMap<String, DistArray> = BTreeMap::new();
    for name in ["A", "B"] {
        arrays.insert(
            name.into(),
            DistArray::scatter_from(env0.get(name).unwrap(), dm[name].clone()),
        );
    }
    let report = run_distributed(plan, cl, &mut arrays, DistOptions::default())
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    assert_eq!(
        arrays["A"]
            .gather()
            .max_abs_diff(reference.get("A").unwrap()),
        0.0,
        "{ctx}: result differs from sequential reference"
    );
    report
}

#[test]
fn wire_traffic_matches_the_plan_on_all_combos() {
    let env0 = env();
    let fns: Vec<(&str, Fn1, Fn1, i64)> = vec![
        ("f=i, g=i+c", Fn1::identity(), Fn1::shift(3), N - 1),
        ("f=i, g=a*i+c", Fn1::identity(), Fn1::affine(3, 1), N - 1),
        (
            "f=a*i+c, g=i+c",
            Fn1::affine(2, 1),
            Fn1::shift(3),
            (N - 2) / 2,
        ),
        (
            "f=a*i+c, g=a*i+c",
            Fn1::affine(2, 1),
            Fn1::affine(3, 1),
            (N - 2) / 2,
        ),
    ];
    for (da_name, dec_a) in decomp_menu(Bounds::range(0, N - 1)) {
        for (db_name, dec_b) in decomp_menu(Bounds::range(0, 3 * N)) {
            for (fname, f, g, imax) in &fns {
                let cl = clause(f.clone(), g.clone(), *imax);
                let mut reference = env0.clone();
                reference.exec_clause(&cl);
                let mut dm = DecompMap::new();
                dm.insert("A".into(), dec_a.clone());
                dm.insert("B".into(), dec_b.clone());
                for naive in [false, true] {
                    let plan = if naive {
                        SpmdPlan::build_naive(&cl, &dm).unwrap()
                    } else {
                        SpmdPlan::build(&cl, &dm).unwrap()
                    };
                    let ctx = format!("A={da_name} B={db_name} {fname} naive={naive}");
                    let report = run_checked(&plan, &cl, &env0, &dm, &reference, &ctx);
                    // batching changes the wire layout, never the set of
                    // communicated values: per node, what the plan says
                    for (np, got) in plan.nodes.iter().zip(&report.nodes) {
                        let (elems, packets) = (np.comm.send_elems(), np.comm.send_packets());
                        assert_eq!(got.msgs_sent, elems, "{ctx} p={}", np.p);
                        assert_eq!(got.packets_sent, packets, "{ctx} p={}", np.p);
                        assert_eq!(got.msgs_received, np.comm.recv_elems(), "{ctx} p={}", np.p);
                        assert_eq!(got.bytes_sent, 16 * packets + 8 * elems, "{ctx}");
                        // never more wire messages than one per element
                        assert!(got.packets_sent <= got.msgs_sent, "{ctx}");
                    }
                    let t = report.total();
                    assert_eq!(t.msgs_received, t.msgs_sent, "{ctx}");
                }
            }
        }
    }
}

#[test]
fn scatter_affine_meets_ten_x_aggregation() {
    // The acceptance configuration: 1024 elements, scatter decomposition,
    // a·i+c access, 8 nodes — the packets on the wire must be at least
    // 10× fewer than the elements they carry (one message per element is
    // the literal Section 2.10 template).
    let env0 = env();
    let cl = clause(Fn1::identity(), Fn1::affine(3, 1), N - 1);
    let mut reference = env0.clone();
    reference.exec_clause(&cl);
    let mut dm = DecompMap::new();
    dm.insert("A".into(), Decomp1::scatter(PMAX, Bounds::range(0, N - 1)));
    dm.insert("B".into(), Decomp1::scatter(PMAX, Bounds::range(0, 3 * N)));
    let plan = SpmdPlan::build(&cl, &dm).unwrap();
    let ctx = "scatter a*i+c acceptance";
    let t = run_checked(&plan, &cl, &env0, &dm, &reference, ctx).total();
    assert!(t.msgs_sent > 0, "config must actually communicate");
    assert!(
        t.msgs_sent >= 10 * t.packets_sent,
        "aggregation below 10x: {} elements in {} packets",
        t.msgs_sent,
        t.packets_sent
    );
}

#[test]
fn block_scatter_to_block_travels_as_64_kib_packets() {
    // The packetisation acceptance row: block-scatter(16) → block,
    // 128 Ki elements, pmax 2. Every other 16-element block crosses:
    // 4 096 planned runs in all, shipped as 8 packets of 8 192 elements
    // (one wire packet per run would be 4 096).
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
    env0.insert("B", Array::from_fn(e, |i| (i.scalar() * 7 % 97) as f64));
    let mut reference = env0.clone();
    reference.exec_clause(&cl);
    let mut dm = DecompMap::new();
    dm.insert("A".into(), Decomp1::block(2, e));
    dm.insert("B".into(), Decomp1::block_scatter(16, 2, e));
    let plan = SpmdPlan::build(&cl, &dm).unwrap();
    // 4 096 block cycles, folded into one two-level run per packet
    let runs = (plan.nodes.iter().flat_map(|n| &n.comm.sends)).flat_map(|pc| &pc.runs);
    let cycles: u64 = runs.clone().map(|r| r.nest.reps()).sum();
    let packets: u64 = plan.nodes.iter().map(|n| n.comm.send_packets()).sum();
    assert_eq!((runs.count(), cycles, packets), (8, 4096, 8));
    let ctx = "bs16 -> block acceptance";
    let vect = run_checked(&plan, &cl, &env0, &dm, &reference, ctx).total();
    assert_eq!(vect.msgs_sent, n as u64 / 2);
    assert_eq!(vect.msgs_received, vect.msgs_sent);
    assert_eq!(vect.packets_sent, 8);
    assert_eq!(vect.max_packet_elems, 8192);
    assert_eq!(vect.bytes_sent, 16 * 8 + 8 * vect.msgs_sent);
}

/// `OverlapDecomp::exchange_plan()` is an oracle on the engine: for
/// `V[i] := Σ_{s=1..h} (U[i−s] + U[i+s])` with U, V Block(pmax) the
/// engine ships, pair for pair, exactly the globals of one ghost message
/// in one packet — wherever the receiver's Modify set is non-empty. A
/// node that updates nothing reads no ghosts, so there the plan
/// over-predicts and the engine sends nothing.
#[test]
fn ghost_plan_predicts_the_block_stencil_traffic() {
    let u = |s: i64| Expr::Ref(ArrayRef::d1("U", Fn1::shift(s)));
    for pmax in [2i64, 3, 4, 7, 8] {
        for h in 1..=3i64 {
            // n = 13 at pmax 7 and 8 gives blocks of 2, shorter than h = 3
            for n in [2 * h + 1, 13, 64, 100] {
                let ctx = format!("n={n} pmax={pmax} h={h}");
                let e = Bounds::range(0, n - 1);
                let cl = Clause {
                    iter: IndexSet::range(h, n - 1 - h),
                    ordering: Ordering::Par,
                    guard: Guard::Always,
                    lhs: ArrayRef::d1("V", Fn1::identity()),
                    rhs: (1..=h)
                        .map(|s| Expr::add(u(-s), u(s)))
                        .reduce(Expr::add)
                        .unwrap(),
                };
                let mut env0 = Env::new();
                env0.insert(
                    "U",
                    Array::from_fn(e, |i| (i.scalar() * 7 % 97) as f64 - 40.0),
                );
                env0.insert("V", Array::zeros(e));
                let mut reference = env0.clone();
                reference.exec_clause(&cl);
                let dec = Decomp1::block(pmax, e);
                let dm: DecompMap = [("U".into(), dec.clone()), ("V".into(), dec.clone())].into();
                let plan = SpmdPlan::build(&cl, &dm).unwrap();
                let mut arrays: BTreeMap<String, DistArray> = (dm.iter())
                    .map(|(a, d)| {
                        (
                            a.clone(),
                            DistArray::scatter_from(env0.get(a).unwrap(), d.clone()),
                        )
                    })
                    .collect();
                let report = run_distributed(&plan, &cl, &mut arrays, DistOptions::default())
                    .unwrap_or_else(|err| panic!("{ctx}: {err}"));
                let bits = |a: &Array| a.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&arrays["V"].gather()),
                    bits(reference.get("V").unwrap()),
                    "{ctx}"
                );

                let ghosts = OverlapDecomp::new(dec, h).exchange_plan();
                let reads = |p: i64| plan.nodes[p as usize].modify.schedule.count() > 0;
                for (np, got) in plan.nodes.iter().zip(&report.nodes) {
                    let sourced = ghosts.iter().filter(|m| m.src == np.p && reads(m.dst));
                    let sourced = sourced.count() as u64;
                    assert_eq!(got.packets_sent, sourced, "{ctx} p={}", np.p);
                    assert_eq!(np.comm.sends.len() as u64, sourced, "{ctx} p={}", np.p);
                    for pc in &np.comm.sends {
                        let mut globals = BTreeSet::new();
                        for r in &pc.runs {
                            let g = &np.resides[r.slot].g;
                            r.nest.for_each(|i| {
                                globals.insert(g.eval(i));
                            });
                        }
                        let pair = (np.p, pc.peer);
                        let m = (ghosts.iter().find(|m| (m.src, m.dst) == pair))
                            .unwrap_or_else(|| panic!("{ctx}: {pair:?} is not in the ghost plan"));
                        let range: BTreeSet<i64> = (m.global_lo..=m.global_hi).collect();
                        assert_eq!(globals, range, "{ctx} {pair:?}");
                    }
                }
            }
        }
    }
}

/// Shared setup for the packet-loss tests: a plan where node 1's first
/// packet carries a whole multi-element run, plus the scattered arrays.
fn drop_setup() -> (SpmdPlan, Clause, BTreeMap<String, DistArray>) {
    let env0 = env();
    let cl = clause(Fn1::identity(), Fn1::identity(), N - 1);
    let mut dm = DecompMap::new();
    dm.insert("A".into(), Decomp1::block(PMAX, Bounds::range(0, N - 1)));
    dm.insert("B".into(), Decomp1::scatter(PMAX, Bounds::range(0, 3 * N)));
    let plan = SpmdPlan::build(&cl, &dm).unwrap();
    // node 1 must really have a multi-element first run, so the drop
    // removes a packet, not a single value
    let first_run = &plan.nodes[1].comm.sends[0].runs[0];
    assert!(
        first_run.nest.count(0) > 1,
        "first run should batch elements"
    );

    let mut arrays: BTreeMap<String, DistArray> = BTreeMap::new();
    for name in ["A", "B"] {
        arrays.insert(
            name.into(),
            DistArray::scatter_from(env0.get(name).unwrap(), dm[name].clone()),
        );
    }
    (plan, cl, arrays)
}

#[test]
fn dropped_packet_recovered_by_retransmission() {
    // Drop node 1's first *packet* (a whole run). With a retry budget
    // the receiver NACKs the gap, node 1 retransmits, and the run
    // completes bit-identically to the fault-free result.
    let (plan, cl, mut arrays) = drop_setup();
    let mut reference = env();
    reference.exec_clause(&cl);
    let opts = DistOptions {
        recv_timeout: Duration::from_secs(5),
        faults: Some(FaultPlan::drop_nth(1, 0)),
        retry: RetryPolicy::fast(),
        ..DistOptions::default()
    };
    let report = run_distributed(&plan, &cl, &mut arrays, opts).expect("recoverable drop");
    let total = report.total();
    assert!(
        total.retransmits > 0,
        "recovery must go through retransmission"
    );
    assert!(total.nacks_sent > 0, "receiver must have NACKed the gap");
    assert_eq!(
        arrays["A"]
            .gather()
            .max_abs_diff(reference.get("A").unwrap()),
        0.0,
        "recovered run differs from sequential reference"
    );
}

#[test]
fn dropped_packet_detected_within_timeout() {
    // With retries disabled (legacy behaviour) the same dropped packet
    // must surface as a typed MissingPacket error carrying the wire
    // coordinates (peer, slot, run) within the configured receive
    // timeout instead of hanging.
    let (plan, cl, mut arrays) = drop_setup();
    let timeout = Duration::from_millis(250);
    let opts = DistOptions {
        recv_timeout: timeout,
        faults: Some(FaultPlan::drop_nth(1, 0)),
        retry: RetryPolicy::none(),
        ..DistOptions::default()
    };
    let t0 = Instant::now();
    let err = run_distributed(&plan, &cl, &mut arrays, opts).unwrap_err();
    let elapsed = t0.elapsed();
    match err {
        MachineError::MissingPacket { peer, .. } => {
            assert_eq!(peer, 1, "loss should be attributed to the dropping peer")
        }
        other => panic!("expected MissingPacket, got {other}"),
    }
    // detection happens within the receive timeout (plus scheduling
    // slack), not after a hang
    assert!(
        elapsed < timeout * 10,
        "loss detection took {elapsed:?} with a {timeout:?} timeout"
    );
}
