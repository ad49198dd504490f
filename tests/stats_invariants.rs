//! Counter invariants for the distributed machine, anchored on the
//! plan — the independent ground truth for everything the paper's cost
//! model depends on:
//!
//! * per node, *element* traffic (`msgs_sent` / `msgs_received`) is the
//!   plan's communication volume, independent of how elements are
//!   batched onto the wire, and `packets_sent` its packetisation;
//! * `bytes_sent` derivable from `packets_sent` and the planned
//!   packets (16-byte header per planned packet plus 8 bytes per
//!   element);
//! * every reliability counter exactly zero when no `FaultPlan` is
//!   installed ([`NodeStats::reliability_quiet`]).

use std::collections::BTreeMap;
use vcal_suite::core::func::Fn1;
use vcal_suite::core::{Array, ArrayRef, Bounds, Clause, Env, Expr, Guard, IndexSet, Ordering};
use vcal_suite::decomp::Decomp1;
use vcal_suite::machine::{
    run_distributed, DistArray, DistOptions, DistSession, ExecReport, FaultPlan, NodeStats,
    ProgramReport, ProgramStep, RetryPolicy, ScheduleMode, TuneOptions, NULL_TRACER,
};
use vcal_suite::spmd::{DecompMap, SpmdPlan};

const N: i64 = 256;
const PMAX: i64 = 4;

/// Wire-format constants mirrored from the distributed machine's docs:
/// a 16-byte packet header + 8 bytes/element.
const PACK_HEADER_BYTES: u64 = 16;

fn fixture(g: Fn1, imin: i64, imax: i64) -> (SpmdPlan, Clause, DecompMap, Env) {
    let cl = Clause {
        iter: IndexSet::range(imin, imax),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1("A", Fn1::identity()),
        rhs: Expr::add(Expr::Ref(ArrayRef::d1("B", g)), Expr::Lit(1.0)),
    };
    let mut env0 = Env::new();
    env0.insert("A", Array::zeros(Bounds::range(0, N - 1)));
    env0.insert(
        "B",
        Array::from_fn(Bounds::range(0, 6 * N), |i| (i.scalar() % 17) as f64 - 8.0),
    );
    let mut dm = DecompMap::new();
    dm.insert("A".into(), Decomp1::block(PMAX, Bounds::range(0, N - 1)));
    dm.insert("B".into(), Decomp1::scatter(PMAX, Bounds::range(0, 6 * N)));
    let plan = SpmdPlan::build(&cl, &dm).unwrap();
    (plan, cl, dm, env0)
}

fn run(plan: &SpmdPlan, cl: &Clause, env0: &Env, dm: &DecompMap) -> ExecReport {
    let mut arrays: BTreeMap<String, DistArray> = BTreeMap::new();
    for name in ["A", "B"] {
        arrays.insert(
            name.to_string(),
            DistArray::scatter_from(env0.get(name).unwrap(), dm[name].clone()),
        );
    }
    run_distributed(plan, cl, &mut arrays, DistOptions::default()).unwrap()
}

/// The access functions exercised: shift, strided, gcd-degenerate.
fn accesses() -> Vec<(Fn1, i64, i64)> {
    vec![
        (Fn1::shift(3), 0, N - 1),
        (Fn1::affine(3, 2), 0, N - 1),
        (Fn1::affine(6, 1), 0, N - 1), // gcd(6, pmax) > 1
    ]
}

#[test]
fn element_counts_match_the_plan_per_node() {
    for (g, imin, imax) in accesses() {
        let (plan, cl, dm, env0) = fixture(g.clone(), imin, imax);
        let report = run(&plan, &cl, &env0, &dm);
        for (np, got) in plan.nodes.iter().zip(&report.nodes) {
            let ctx = format!("g={g:?} p={}", np.p);
            assert_eq!(got.msgs_sent, np.comm.send_elems(), "{ctx}");
            assert_eq!(got.msgs_received, np.comm.recv_elems(), "{ctx}");
            assert_eq!(got.iterations, np.modify.schedule.count(), "{ctx}");
            // one read slot: every iteration reads locally or receives
            assert_eq!(got.local_reads + got.msgs_received, got.iterations, "{ctx}");
        }
        let t = report.total();
        assert_eq!(t.msgs_sent, t.msgs_received, "g={g:?}");
    }
}

#[test]
fn bytes_consistent_with_packets_and_run_lengths() {
    for (g, imin, imax) in accesses() {
        let (plan, cl, dm, env0) = fixture(g.clone(), imin, imax);
        // packets = the plan's packetisation of the coalesced runs,
        // bytes = header per packet + 8 per element
        let report = run(&plan, &cl, &env0, &dm);
        for (np, got) in plan.nodes.iter().zip(&report.nodes) {
            let ctx = format!("g={g:?} p={}", np.p);
            assert_eq!(got.packets_sent, np.comm.send_packets(), "{ctx}");
            assert_eq!(
                got.bytes_sent,
                PACK_HEADER_BYTES * np.comm.send_packets() + 8 * np.comm.send_elems(),
                "{ctx}"
            );
        }
        // the longest packet on the wire is the largest planned packet
        let largest_packet: u64 = plan
            .nodes
            .iter()
            .flat_map(|n| n.comm.sends.iter())
            .flat_map(|pc| pc.packets())
            .map(|runs| runs.iter().map(|r| r.nest.len()).sum())
            .max()
            .unwrap_or(0);
        let t = report.total();
        assert_eq!(t.max_packet_elems, largest_packet, "g={g:?}");
        // aggregation can only shrink wire traffic below one per element
        assert!(t.packets_sent <= t.msgs_sent, "g={g:?}");
    }
}

#[test]
fn reliability_counters_zero_without_faults() {
    for (g, imin, imax) in accesses() {
        let (plan, cl, dm, env0) = fixture(g.clone(), imin, imax);
        let report = run(&plan, &cl, &env0, &dm);
        assert!(report.reliability_quiet(), "g={g:?}: {:?}", report.total());
        for (p, n) in report.nodes.iter().enumerate() {
            assert!(n.reliability_quiet(), "node {p} g={g:?}: {n:?}");
        }
    }
}

#[test]
fn reliability_counters_fire_with_faults_and_quiet_predicate_flips() {
    let (plan, cl, dm, env0) = fixture(Fn1::shift(3), 0, N - 1);
    let mut arrays: BTreeMap<String, DistArray> = BTreeMap::new();
    for name in ["A", "B"] {
        arrays.insert(
            name.to_string(),
            DistArray::scatter_from(env0.get(name).unwrap(), dm[name].clone()),
        );
    }
    let report = run_distributed(
        &plan,
        &cl,
        &mut arrays,
        DistOptions {
            faults: Some(FaultPlan::seeded(7).with_drop(0.4)),
            retry: RetryPolicy::fast(),
            ..DistOptions::default()
        },
    )
    .unwrap();
    let t = report.total();
    assert!(t.retransmits > 0, "{t:?}");
    assert!(t.nacks_sent > 0, "{t:?}");
    assert!(!report.reliability_quiet());
    // a default NodeStats is quiet by construction
    assert!(NodeStats::default().reliability_quiet());
}

/// Tuner counters are quiet on every untuned path (default
/// `ProgramReport`, `run_program` under both schedules) and consistent
/// on the tuned path: the priced-candidate count covers at least the
/// enumerated-plus-incumbent floor, and both reports agree.
#[test]
fn tuner_counters_quiet_untuned_and_consistent_tuned() {
    let d = ProgramReport::default();
    assert_eq!((d.candidates_priced, d.redistributions_inserted), (0, 0));

    let n = 64i64;
    let step = ProgramStep::Clause(Clause {
        iter: IndexSet::range(1, n - 2),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1("V", Fn1::identity()),
        rhs: Expr::add(
            Expr::Ref(ArrayRef::d1("U", Fn1::shift(-1))),
            Expr::Ref(ArrayRef::d1("U", Fn1::shift(1))),
        ),
    });
    let steps = vec![step.clone(), step];
    let mut env = Env::new();
    for a in ["U", "V"] {
        env.insert(
            a,
            Array::from_fn(Bounds::range(0, n - 1), |i| i.scalar() as f64),
        );
    }
    let mut dm = DecompMap::new();
    for a in ["U", "V"] {
        dm.insert(a.into(), Decomp1::block(PMAX, Bounds::range(0, n - 1)));
    }

    // untuned program runs never touch the tuner counters
    for schedule in [ScheduleMode::Seq, ScheduleMode::Dag] {
        let mut session = DistSession::new(&env, dm.clone()).unwrap();
        let r = session.run_program(&steps, schedule, &NULL_TRACER).unwrap();
        assert_eq!(r.candidates_priced, 0, "{schedule:?}");
        assert_eq!(r.redistributions_inserted, 0, "{schedule:?}");
    }

    // tuned run: counters flow into both reports identically
    let mut session = DistSession::new(&env, dm).unwrap();
    let budget = 5;
    let (report, tune) = session
        .run_program_tuned(
            &steps,
            4,
            ScheduleMode::Seq,
            TuneOptions {
                budget,
                ..TuneOptions::default()
            },
            &NULL_TRACER,
        )
        .unwrap();
    assert_eq!(report.candidates_priced, tune.candidates_priced);
    assert_eq!(
        report.redistributions_inserted,
        tune.redistributions_inserted
    );
    assert!(
        tune.candidates_priced >= 2 && tune.candidates_priced <= budget as u64 + 1,
        "priced {} with budget {budget} (+1 incumbent)",
        tune.candidates_priced
    );
}
