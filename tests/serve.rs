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

/// A request the service cannot decode — well framed, but its record
/// stops making sense half way (the codec admits at most 4096
/// processors) — is answered at once with a typed `Transport` error
/// under the request's own id, and the connection serves the next
/// request. The answer used to carry id 0, which the client took for
/// someone else's and sat out its 90 s guard.
#[test]
fn undecodable_request_is_typed_at_once_and_the_connection_lives() {
    let handle = ServeHandle::start(ServeConfig::default()).expect("service start");
    let sh = shape(N, 0, 0);
    let mut client = ServeClient::connect(handle.addr(), "garbled").expect("connect");
    let mut decomps = sh.decomps.clone();
    decomps.insert("U".into(), Decomp1::scatter(5000, Bounds::range(0, N - 1)));
    let req = ServeRequest::new(sh.steps.clone(), decomps, sh.globals.clone(), 1);
    let t0 = std::time::Instant::now();
    match client.request(&req) {
        Err(MachineError::Transport { detail, .. }) => {
            assert!(detail.contains("codec"), "names the decoder: {detail}")
        }
        other => panic!("expected a typed Transport error, got {other:?}"),
    }
    let waited = t0.elapsed();
    assert!(waited < Duration::from_secs(1), "answered after {waited:?}");
    let good = ServeRequest::new(sh.steps.clone(), sh.decomps.clone(), sh.globals.clone(), 1);
    let resp = client
        .request(&good)
        .expect("same connection, next request");
    assert_bit_identical(&resp.globals, &oracle(&sh, N, 1), "after the garbled one");
    handle.stop();
}

/// A request nested deeper than `MAX_DEPTH` (a right-hand side under
/// 1 000 unary minuses) is refused with a typed `Transport` error
/// naming the depth — the codec refuses on both ends what the service
/// would otherwise have decoded by recursion — and the connection
/// serves the next request. The service's side of the same cap, a raw
/// hostile record on a real connection, is `serve::tests`'s
/// `nested_request_is_typed_and_the_connection_lives`.
#[test]
fn nested_request_is_typed_and_the_connection_lives() {
    let handle = ServeHandle::start(ServeConfig::default()).expect("service start");
    let sh = shape(N, 0, 0);
    let mut client = ServeClient::connect(handle.addr(), "nested").expect("connect");
    let deep = (0..1_000).fold(Expr::Lit(1.0), |x, _| Expr::Neg(Box::new(x)));
    let mut steps = sh.steps.clone();
    if let ProgramStep::Clause(c) = &mut steps[0] {
        c.rhs = Expr::add(c.rhs.clone(), deep);
    }
    let req = ServeRequest::new(steps, sh.decomps.clone(), sh.globals.clone(), 1);
    match client.request(&req) {
        Err(MachineError::Transport { detail, .. }) => {
            assert!(
                detail.contains("deeper than 256"),
                "names the cap: {detail}"
            )
        }
        other => panic!("expected a typed Transport error, got {other:?}"),
    }
    let good = ServeRequest::new(sh.steps.clone(), sh.decomps.clone(), sh.globals.clone(), 1);
    let resp = client
        .request(&good)
        .expect("same connection, next request");
    assert_bit_identical(&resp.globals, &oracle(&sh, N, 1), "after the nested one");
    handle.stop();
}

/// Images land in node parts and come back stretch by stretch, never
/// through an `Env`: block-scatter, scatter and block layouts over
/// extents that do not start at 0 (and do not divide evenly) round-trip
/// bit-identically to the sequential oracle — a stencil across the
/// dealt blocks plus a generic-kernel accumulate.
#[test]
fn dealt_layouts_over_offset_extents_match_the_oracle() {
    let (lo, hi) = (-5i64, 57i64);
    let extent = Bounds::range(lo, hi);
    let a = |g: Fn1| ArrayRef::d1("A", g);
    let b = |g: Fn1| ArrayRef::d1("B", g);
    let steps = vec![
        par(
            a(Fn1::identity()),
            IndexSet::range(lo + 1, hi - 1),
            Expr::mul(
                Expr::add(Expr::Ref(b(Fn1::shift(-1))), Expr::Ref(b(Fn1::shift(1)))),
                Expr::Lit(0.5),
            ),
        ),
        par(
            b(Fn1::identity()),
            IndexSet::range(lo, hi),
            Expr::add(
                Expr::Ref(b(Fn1::identity())),
                Expr::mul(Expr::Lit(0.5), Expr::Ref(a(Fn1::identity()))),
            ),
        ),
    ];
    let n = hi - lo + 1;
    let image = |salt: i64| -> Vec<f64> { (0..n).map(|k| seed_val(k, salt)).collect() };
    let handle = ServeHandle::start(ServeConfig::default()).expect("service start");
    let mut client = ServeClient::connect(handle.addr(), "dealt").expect("connect");
    for (what, da, db) in [
        (
            "bs(3) / scatter",
            Decomp1::block_scatter(3, PMAX, extent),
            Decomp1::scatter(PMAX, extent),
        ),
        (
            "scatter / bs(16)",
            Decomp1::scatter(PMAX, extent),
            Decomp1::block_scatter(16, PMAX, extent),
        ),
        (
            "block / bs(1)",
            Decomp1::block(PMAX, extent),
            Decomp1::block_scatter(1, PMAX, extent),
        ),
    ] {
        let decomps: DecompMap = [("A".to_string(), da), ("B".to_string(), db)].into();
        let globals: BTreeMap<String, Vec<f64>> =
            [("A".to_string(), image(2)), ("B".to_string(), image(9))].into();
        let mut env = Env::new();
        for (name, vals) in &globals {
            let at = |i: &vcal_suite::core::Ix| vals[(i.scalar() - lo) as usize];
            env.insert(name.clone(), Array::from_fn(extent, at));
        }
        let n_steps = 3;
        for _ in 0..n_steps {
            for step in &steps {
                if let ProgramStep::Clause(c) = step {
                    env.exec_clause(c);
                }
            }
        }
        let want: BTreeMap<String, Vec<f64>> = (globals.keys())
            .map(|name| (name.clone(), env.get(name).unwrap().data().to_vec()))
            .collect();
        let req = ServeRequest::new(steps.clone(), decomps, globals, n_steps);
        let resp = client.request(&req).expect(what);
        assert_bit_identical(&resp.globals, &want, what);
    }
    handle.stop();
}

/// What `build_env` used to refuse is still refused, typed, before any
/// part is allocated: an image whose length disagrees with its extent,
/// and a decomposed array the request carries no image for.
#[test]
fn image_of_the_wrong_length_and_missing_image_are_typed() {
    let handle = ServeHandle::start(ServeConfig::default()).expect("service start");
    let sh = shape(N, 0, 1);
    let mut client = ServeClient::connect(handle.addr(), "sloppy").expect("connect");
    let mut short = sh.globals.clone();
    short.get_mut("T").expect("image").pop();
    let req = ServeRequest::new(sh.steps.clone(), sh.decomps.clone(), short, 1);
    match client.request(&req) {
        Err(MachineError::PlanMismatch(why)) => assert!(
            why.contains("array `T` carries 63 values but its extent holds 64"),
            "{why}"
        ),
        other => panic!("expected a typed PlanMismatch, got {other:?}"),
    }
    let mut missing = sh.globals.clone();
    missing.remove("U");
    let req = ServeRequest::new(sh.steps.clone(), sh.decomps.clone(), missing, 1);
    match client.request(&req) {
        Err(MachineError::UnknownArray(name)) => assert_eq!(name, "U"),
        other => panic!("expected UnknownArray, got {other:?}"),
    }
    let req = ServeRequest::new(sh.steps.clone(), sh.decomps.clone(), sh.globals.clone(), 1);
    let resp = client
        .request(&req)
        .expect("a well-formed request still runs");
    assert_bit_identical(&resp.globals, &oracle(&sh, N, 1), "after the refusals");
    handle.stop();
}

/// A request whose clause reads outside an array's extent is refused,
/// typed, before it runs, and costs the service nothing: with one slot
/// and no queue, a second tenant's request still runs.
#[test]
fn out_of_extent_access_is_typed_and_leaks_no_slot() {
    let handle = ServeHandle::start(ServeConfig {
        concurrency: 1,
        queue_depth: 0,
        ..ServeConfig::default()
    })
    .expect("service start");
    let sh = shape(N, 0, 0);
    let mut client = ServeClient::connect(handle.addr(), "reckless").expect("connect");
    let reach = par(
        ArrayRef::d1("T", Fn1::identity()),
        IndexSet::range(0, N - 1),
        Expr::Ref(ArrayRef::d1("U", Fn1::shift(7))),
    );
    let req = ServeRequest::new(vec![reach], sh.decomps.clone(), sh.globals.clone(), 1);
    match client.request(&req) {
        Err(MachineError::PlanMismatch(why)) => assert!(
            why.contains(&format!(
                "array `U` is accessed at {}, outside its extent",
                N + 6
            )),
            "{why}"
        ),
        other => panic!("expected a typed PlanMismatch, got {other:?}"),
    }
    let mut second = ServeClient::connect(handle.addr(), "bystander").expect("connect");
    let req = ServeRequest::new(sh.steps.clone(), sh.decomps.clone(), sh.globals.clone(), 1);
    let resp = second.request(&req).expect("the slot came back");
    assert_bit_identical(&resp.globals, &oracle(&sh, N, 1), "bystander");
    handle.stop();
}
