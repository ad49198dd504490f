//! Multi-tenant stress harness for the resident service (`vcalc serve`):
//! many concurrent client sessions with mixed programs, layouts, and
//! tenants against one `ServeHandle`.
//!
//! * every response is bit-identical to a per-session sequential oracle
//!   (compared via `f64::to_bits`, so NaN-safe and exact);
//! * cache hits never cross tenants: the service-side hit/miss counters
//!   sum to *exactly* the per-(tenant, program, layout) cold-miss count,
//!   so a single cross-tenant hit (or a single spurious eviction) fails
//!   the accounting;
//! * the admission gate under `concurrency = 1` serializes overlapping
//!   requests and reports the queue wait;
//! * a one-entry cache budget surfaces evictions on the per-request
//!   service stats and on the handle's aggregate counter;
//! * the same harness holds when the service's worker pool runs as real
//!   OS processes over UDS and requests use the DAG schedule.

use std::collections::BTreeMap;
use std::sync::{Barrier, Once};
use std::thread;
use std::time::Duration;
use vcal_suite::core::func::Fn1;
use vcal_suite::core::{Array, ArrayRef, Bounds, Clause, Env, Expr, Guard, IndexSet, Ordering};
use vcal_suite::decomp::Decomp1;
use vcal_suite::machine::{
    CacheBudget, DistOptions, MachineError, ProgramStep, ScheduleMode, ServeClient, ServeConfig,
    ServeHandle, ServeRequest, TransportKind,
};
use vcal_suite::spmd::DecompMap;

const N: i64 = 64;
const PMAX: i64 = 4;

/// Point process-backed pools at the `vcalc` binary (which implements
/// the `worker` subcommand); the test binary itself does not.
fn init() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| std::env::set_var("VCAL_WORKER_BIN", env!("CARGO_BIN_EXE_vcalc")));
}

/// Deterministic mixed-sign ramp, exact in f64.
fn seed_val(i: i64, salt: i64) -> f64 {
    let v = (i * 13 + salt) % 31;
    v as f64 - 15.0
}

fn par(lhs: ArrayRef, iter: IndexSet, rhs: Expr) -> ProgramStep {
    ProgramStep::Clause(Clause {
        iter,
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs,
        rhs,
    })
}

/// Program A over `U`, `T`: a stencil sweep (remote reads both ways)
/// plus a scaled copy into a second array.
fn prog_a(n: i64) -> (Vec<ProgramStep>, Vec<&'static str>) {
    let sweep = par(
        ArrayRef::d1("U", Fn1::identity()),
        IndexSet::range(1, n - 2),
        Expr::mul(
            Expr::add(
                Expr::Ref(ArrayRef::d1("U", Fn1::shift(-1))),
                Expr::Ref(ArrayRef::d1("U", Fn1::shift(1))),
            ),
            Expr::Lit(0.5),
        ),
    );
    let copy = par(
        ArrayRef::d1("T", Fn1::identity()),
        IndexSet::range(0, n - 1),
        Expr::mul(
            Expr::Ref(ArrayRef::d1("U", Fn1::identity())),
            Expr::Lit(2.0),
        ),
    );
    (vec![sweep, copy], vec!["U", "T"])
}

/// Program B over `V`, `W`: an axpy-style accumulate plus a coupled
/// update — different clause signatures and array names than program A.
fn prog_b(n: i64) -> (Vec<ProgramStep>, Vec<&'static str>) {
    let axpy = par(
        ArrayRef::d1("V", Fn1::identity()),
        IndexSet::range(0, n - 1),
        Expr::add(
            Expr::Ref(ArrayRef::d1("V", Fn1::identity())),
            Expr::mul(
                Expr::Ref(ArrayRef::d1("W", Fn1::identity())),
                Expr::Lit(0.5),
            ),
        ),
    );
    let couple = par(
        ArrayRef::d1("W", Fn1::identity()),
        IndexSet::range(0, n - 1),
        Expr::add(
            Expr::mul(
                Expr::Ref(ArrayRef::d1("W", Fn1::identity())),
                Expr::Lit(2.0),
            ),
            Expr::Ref(ArrayRef::d1("V", Fn1::identity())),
        ),
    );
    (vec![axpy, couple], vec!["V", "W"])
}

/// One workload shape: a program, its arrays, and a layout variant.
struct Shape {
    steps: Vec<ProgramStep>,
    names: Vec<&'static str>,
    decomps: DecompMap,
    globals: BTreeMap<String, Vec<f64>>,
}

fn shape(n: i64, prog_ix: usize, dec_ix: usize) -> Shape {
    let (steps, names) = if prog_ix == 0 { prog_a(n) } else { prog_b(n) };
    let extent = Bounds::range(0, n - 1);
    let mut decomps = DecompMap::new();
    let mut globals = BTreeMap::new();
    for (k, name) in names.iter().enumerate() {
        let d = if dec_ix == 0 {
            Decomp1::block(PMAX, extent)
        } else {
            Decomp1::scatter(PMAX, extent)
        };
        decomps.insert((*name).to_string(), d);
        let salt = (prog_ix as i64) * 7 + k as i64 * 3 + 1;
        globals.insert(
            (*name).to_string(),
            (0..n).map(|i| seed_val(i, salt)).collect(),
        );
    }
    Shape {
        steps,
        names,
        decomps,
        globals,
    }
}

/// The iterated sequential oracle for a shape, flattened like the
/// service's response.
fn oracle(sh: &Shape, n: i64, n_steps: u64) -> BTreeMap<String, Vec<f64>> {
    let mut env = Env::new();
    for name in &sh.names {
        let vals = &sh.globals[*name];
        env.insert(
            *name,
            Array::from_fn(Bounds::range(0, n - 1), |i| vals[i.scalar() as usize]),
        );
    }
    for _ in 0..n_steps {
        for step in &sh.steps {
            if let ProgramStep::Clause(c) = step {
                env.exec_clause(c);
            }
        }
    }
    sh.names
        .iter()
        .map(|name| {
            let a = env.get(name).unwrap();
            let vals = (0..n)
                .map(|i| a.get(&vcal_suite::core::Ix::d1(i)))
                .collect();
            ((*name).to_string(), vals)
        })
        .collect()
}

/// Bitwise comparison of a response against the oracle: `to_bits` per
/// element, so `-0.0` vs `0.0` or NaN payload drift would fail.
fn assert_bit_identical(
    got: &BTreeMap<String, Vec<f64>>,
    want: &BTreeMap<String, Vec<f64>>,
    who: &str,
) {
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "{who}: array set differs"
    );
    for (name, w) in want {
        let g = &got[name];
        assert_eq!(g.len(), w.len(), "{who}: `{name}` length differs");
        for (i, (a, b)) in g.iter().zip(w).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{who}: `{name}`[{i}] differs from the sequential oracle ({a} vs {b})"
            );
        }
    }
}

/// Eight concurrent client sessions — three tenants × two programs ×
/// two layouts, every (tenant, program, layout) combination distinct —
/// each issuing three requests against one shared service.
///
/// Exact accounting proves tenant isolation: each of the 8 combinations
/// owns 2 clauses, so the cold misses must total exactly 16 and the
/// warm hits exactly 80 (2 hits on the first request's second timestep
/// plus 4 per repeat request, × 8 sessions). A single cross-tenant hit
/// would drop the miss total below 16; a spurious eviction or a leak
/// between layouts would raise it.
#[test]
fn stress_mixed_tenants_bit_identical_and_isolated() {
    let threads = 8usize;
    let n_steps = 2u64;
    let requests = 3usize;
    let handle = ServeHandle::start(ServeConfig::default()).expect("service start");
    let addr = handle.addr().to_string();

    let barrier = Barrier::new(threads);
    let stats: Vec<_> = thread::scope(|scope| {
        let mut joins = Vec::new();
        for t in 0..threads {
            let addr = &addr;
            let barrier = &barrier;
            joins.push(scope.spawn(move || {
                let tenant = format!("tenant-{}", t % 3);
                let sh = shape(N, t % 2, (t / 2) % 2);
                let want = oracle(&sh, N, n_steps);
                let mut client = ServeClient::connect(addr, &tenant).expect("connect");
                let req = ServeRequest::new(
                    sh.steps.clone(),
                    sh.decomps.clone(),
                    sh.globals.clone(),
                    n_steps,
                );
                barrier.wait();
                let mut per_thread = Vec::new();
                for r in 0..requests {
                    let resp = client.request(&req).expect("request");
                    assert_bit_identical(
                        &resp.globals,
                        &want,
                        &format!("thread {t} ({tenant}) request {r}"),
                    );
                    per_thread.push(resp.service);
                }
                per_thread
            }));
        }
        joins
            .into_iter()
            .flat_map(|j| j.join().expect("client thread"))
            .collect()
    });

    let misses: u64 = stats.iter().map(|s| s.plan_misses).sum();
    let hits: u64 = stats.iter().map(|s| s.plan_hits).sum();
    let evictions: u64 = stats.iter().map(|s| s.evictions).sum();
    assert_eq!(
        misses, 16,
        "plan misses must be exactly one cold build per (tenant, clause, layout)"
    );
    assert_eq!(
        hits, 80,
        "every non-cold clause run must hit its tenant's cache"
    );
    assert_eq!(
        evictions, 0,
        "default budget must hold the whole working set"
    );
    assert_eq!(handle.sessions_served(), (threads * requests) as u64);
    handle.stop();
}

/// Two overlapping requests under `concurrency = 1`: the admission gate
/// serializes them (exactly one waits, and reports a non-zero queue
/// wait) and both still come back bit-identical.
#[test]
fn admission_serializes_and_reports_queue_wait() {
    let handle = ServeHandle::start(ServeConfig {
        concurrency: 1,
        ..ServeConfig::default()
    })
    .expect("service start");
    let addr = handle.addr().to_string();
    let n = 1024i64;
    let n_steps = 12u64;

    let barrier = Barrier::new(2);
    let waits: Vec<u64> = thread::scope(|scope| {
        let joins: Vec<_> = (0..2)
            .map(|t| {
                let addr = &addr;
                let barrier = &barrier;
                scope.spawn(move || {
                    let sh = shape(n, t % 2, 0);
                    let want = oracle(&sh, n, n_steps);
                    let mut client = ServeClient::connect(addr, "solo").expect("connect");
                    let req = ServeRequest::new(
                        sh.steps.clone(),
                        sh.decomps.clone(),
                        sh.globals.clone(),
                        n_steps,
                    );
                    barrier.wait();
                    let resp = client.request(&req).expect("request");
                    assert_bit_identical(&resp.globals, &want, &format!("client {t}"));
                    resp.service.queue_wait_ns
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("client"))
            .collect()
    });

    assert!(
        waits.iter().any(|w| *w > 0),
        "one of two overlapping requests must have queued: waits {waits:?}"
    );
    assert_eq!(handle.sessions_served(), 2);
    handle.stop();
}

/// A `Redistribute` step whose target the array cannot be moved to
/// (another extent, another processor count, a replicated image) is a
/// typed error on the same connection, and costs the service nothing:
/// with one slot and no queue, a second tenant's request still runs.
#[test]
fn hostile_redistribute_is_typed_and_leaks_no_slot() {
    let handle = ServeHandle::start(ServeConfig {
        concurrency: 1,
        queue_depth: 0,
        ..ServeConfig::default()
    })
    .expect("service start");
    let sh = shape(N, 0, 0);
    let mut client = ServeClient::connect(handle.addr(), "hostile").expect("connect");
    for (what, to) in [
        ("extent", Decomp1::block(PMAX, Bounds::range(0, 2 * N - 1))),
        ("pmax", Decomp1::block(2 * PMAX, Bounds::range(0, N - 1))),
        (
            "replicated",
            Decomp1::replicated(PMAX, Bounds::range(0, N - 1)),
        ),
    ] {
        let mut steps = sh.steps.clone();
        steps.push(ProgramStep::Redistribute {
            array: "U".into(),
            to,
        });
        let req = ServeRequest::new(steps, sh.decomps.clone(), sh.globals.clone(), 1);
        match client.request(&req) {
            Err(MachineError::PlanMismatch(why)) => {
                assert!(why.contains("cannot redistribute `U`"), "{what}: {why}")
            }
            other => panic!("{what}: expected a typed PlanMismatch, got {other:?}"),
        }
    }
    let mut second = ServeClient::connect(handle.addr(), "bystander").expect("connect");
    let req = ServeRequest::new(sh.steps.clone(), sh.decomps.clone(), sh.globals.clone(), 1);
    let resp = second.request(&req).expect("the slot came back");
    assert_bit_identical(&resp.globals, &oracle(&sh, N, 1), "bystander");
    handle.stop();
}

/// A one-entry cache budget: alternating programs thrash the single
/// plan slot, the per-request stats surface the evictions, and the
/// handle's aggregate eviction counter agrees — results stay exact.
#[test]
fn tiny_budget_surfaces_evictions_on_reports() {
    let handle = ServeHandle::start(ServeConfig {
        cache_budget: CacheBudget {
            max_entries: 1,
            max_bytes: usize::MAX,
        },
        ..ServeConfig::default()
    })
    .expect("service start");
    let mut client = ServeClient::connect(handle.addr(), "cramped").expect("connect");

    let mut evictions = 0u64;
    for round in 0..2 {
        for prog_ix in 0..2 {
            let sh = shape(N, prog_ix, 0);
            let want = oracle(&sh, N, 1);
            let req =
                ServeRequest::new(sh.steps.clone(), sh.decomps.clone(), sh.globals.clone(), 1);
            let resp = client.request(&req).expect("request");
            assert_bit_identical(
                &resp.globals,
                &want,
                &format!("round {round} prog {prog_ix}"),
            );
            // two clauses through a one-entry tier: the second build
            // always evicts the first
            assert!(
                resp.service.evictions >= 1,
                "round {round} prog {prog_ix}: expected evictions, got {:?}",
                resp.service
            );
            assert_eq!(
                resp.service.plan_hits, 0,
                "nothing can survive a 1-entry tier"
            );
            evictions += resp.service.evictions;
        }
    }
    assert!(
        handle.evictions() >= evictions.saturating_sub(1),
        "aggregate counter must reflect the per-request evictions"
    );
    handle.stop();
}

/// The shared pool as real worker processes over UDS, requests on the
/// DAG schedule: results stay bit-identical, the DAG tier warms within
/// a tenant, and a second tenant running the *same* program still pays
/// its own cold misses (zero cross-tenant hits).
#[test]
fn wire_pool_dag_schedule_and_tenant_cold_start() {
    init();
    let handle = ServeHandle::start(ServeConfig {
        opts: DistOptions {
            transport: TransportKind::Uds,
            ..ServeConfig::default().opts
        },
        ..ServeConfig::default()
    })
    .expect("service start");
    let n_steps = 2u64;
    let sh = shape(N, 0, 0);
    let want = oracle(&sh, N, n_steps);
    let mut req = ServeRequest::new(
        sh.steps.clone(),
        sh.decomps.clone(),
        sh.globals.clone(),
        n_steps,
    );
    req.schedule = ScheduleMode::Dag;
    req.deadline = Some(Duration::from_secs(120));

    let mut alice = ServeClient::connect(handle.addr(), "alice").expect("connect alice");
    let r1 = alice.request(&req).expect("alice cold");
    assert_bit_identical(&r1.globals, &want, "alice cold");
    assert_eq!(r1.service.plan_misses, 2, "alice pays both clause builds");
    assert_eq!(r1.service.dag_misses, 1, "alice pays the DAG build");
    assert_eq!(r1.service.dag_hits, 1, "second timestep reuses the DAG");

    let r2 = alice.request(&req).expect("alice warm");
    assert_bit_identical(&r2.globals, &want, "alice warm");
    assert_eq!(r2.service.plan_misses, 0, "alice's repeat is fully warm");
    assert_eq!(r2.service.dag_misses, 0);

    // same program, same layout, different tenant: everything cold
    let mut bob = ServeClient::connect(handle.addr(), "bob").expect("connect bob");
    let r3 = bob.request(&req).expect("bob cold");
    assert_bit_identical(&r3.globals, &want, "bob cold");
    assert_eq!(
        r3.service.plan_misses, 2,
        "bob must never hit alice's entries"
    );
    assert_eq!(r3.service.dag_misses, 1, "bob pays his own DAG build");
    assert_eq!(handle.sessions_served(), 3);
    handle.stop();
}
