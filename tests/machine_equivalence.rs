//! Machine equivalence: for randomized clauses drawn from the paper's
//! function classes and random decomposition assignments, the sequential
//! reference, the shared-memory machine, and the distributed
//! machine must produce bit-identical results — with both naive and
//! optimized schedules.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use vcal_suite::core::func::Fn1;
use vcal_suite::core::{
    Array, ArrayRef, Bounds, Clause, CmpOp, Env, Expr, Guard, IndexSet, Ordering,
};
use vcal_suite::decomp::Decomp1;
use vcal_suite::machine::{run_distributed, run_shared, DistArray, DistOptions, MachineError};
use vcal_suite::spmd::{DecompMap, SpmdPlan};

/// Random monotone-or-piecewise access function with its valid loop range
/// given an extent [0, n-1].
fn random_fn(rng: &mut StdRng, n: i64) -> (Fn1, i64, i64) {
    match rng.gen_range(0..6) {
        0 => (Fn1::Const(rng.gen_range(0..n)), 0, n - 1),
        1 => {
            let c = rng.gen_range(0..n / 4);
            (Fn1::shift(c), 0, n - 1 - c)
        }
        2 => {
            let a = rng.gen_range(2..6);
            let c = rng.gen_range(0..4);
            (Fn1::affine(a, c), 0, (n - 1 - c) / a)
        }
        3 => {
            // decreasing affine
            let a = -rng.gen_range(1i64..4);
            (Fn1::affine(a, n - 1), 0, (n - 1) / a.abs())
        }
        4 => {
            let s = rng.gen_range(1..n);
            (Fn1::rotate(s, n), 0, n - 1)
        }
        _ => {
            let q = rng.gen_range(2..6);
            // i + i div q has range < n for i <= (n-1)*q/(q+1)
            let imax = (n - 1) * q / (q + 1);
            (Fn1::i_plus_i_div(q), 0, imax)
        }
    }
}

fn random_decomp(rng: &mut StdRng, pmax: i64, n: i64) -> Decomp1 {
    let e = Bounds::range(0, n - 1);
    match rng.gen_range(0..4) {
        0 => Decomp1::block(pmax, e),
        1 => Decomp1::scatter(pmax, e),
        2 => Decomp1::block_scatter(rng.gen_range(1..6), pmax, e),
        _ => Decomp1::replicated(pmax, e),
    }
}

#[test]
fn randomized_equivalence_sweep() {
    let mut rng = StdRng::seed_from_u64(0x5eed_cafe);
    for trial in 0..60 {
        let n: i64 = rng.gen_range(16..128);
        let pmax: i64 = *[2, 3, 4, 7].get(rng.gen_range(0usize..4)).unwrap();

        let (f, f_lo, f_hi) = random_fn(&mut rng, n);
        let (g, g_lo, g_hi) = random_fn(&mut rng, n);
        let imin = f_lo.max(g_lo);
        let imax = f_hi.min(g_hi);
        if imin > imax {
            continue;
        }

        // writes must be injective for deterministic semantics
        if !f.is_injective(imin, imax) {
            continue;
        }

        let guarded = rng.gen_bool(0.4);
        let clause = Clause {
            iter: IndexSet::range(imin, imax),
            ordering: Ordering::Par,
            guard: if guarded {
                Guard::Cmp {
                    lhs: ArrayRef::d1("B", g.clone()),
                    op: CmpOp::Gt,
                    rhs: 0.0,
                }
            } else {
                Guard::Always
            },
            lhs: ArrayRef::d1("A", f.clone()),
            rhs: Expr::add(
                Expr::Ref(ArrayRef::d1("B", g.clone())),
                Expr::mul(Expr::LoopVar { dim: 0 }, Expr::Lit(0.25)),
            ),
        };

        let mut env = Env::new();
        env.insert(
            "A",
            Array::from_fn(Bounds::range(0, n - 1), |i| -(i.scalar() as f64)),
        );
        env.insert(
            "B",
            Array::from_fn(Bounds::range(0, n - 1), |i| {
                // mixed signs so guards matter
                let v = i.scalar() as f64;
                if i.scalar() % 3 == 0 {
                    -v
                } else {
                    v
                }
            }),
        );
        let mut reference = env.clone();
        reference.exec_clause(&clause);

        // a non-replicated decomposition for the written array
        let dec_a = loop {
            let d = random_decomp(&mut rng, pmax, n);
            if !d.is_replicated() {
                break d;
            }
        };
        let dec_b = random_decomp(&mut rng, pmax, n);
        let mut dm = DecompMap::new();
        dm.insert("A".into(), dec_a.clone());
        dm.insert("B".into(), dec_b.clone());

        for naive in [false, true] {
            let plan = if naive {
                SpmdPlan::build_naive(&clause, &dm).unwrap()
            } else {
                SpmdPlan::build(&clause, &dm).unwrap()
            };
            let ctx = format!(
                "trial {trial}: n={n} pmax={pmax} f={f:?} g={g:?} A={dec_a} B={dec_b} naive={naive} guarded={guarded}"
            );

            let mut shm = env.clone();
            run_shared(&plan, &clause, &mut shm).unwrap();
            assert_eq!(
                shm.get("A")
                    .unwrap()
                    .max_abs_diff(reference.get("A").unwrap()),
                0.0,
                "shared mismatch: {ctx}"
            );

            let mut arrays: BTreeMap<String, DistArray> = BTreeMap::new();
            for name in ["A", "B"] {
                arrays.insert(
                    name.into(),
                    DistArray::scatter_from(env.get(name).unwrap(), dm[name].clone()),
                );
            }
            run_distributed(&plan, &clause, &mut arrays, DistOptions::default())
                .unwrap_or_else(|e| panic!("distributed failed: {e} — {ctx}"));
            assert_eq!(
                arrays["A"]
                    .gather()
                    .max_abs_diff(reference.get("A").unwrap()),
                0.0,
                "distributed mismatch: {ctx}"
            );
        }
    }
}

#[test]
fn self_referential_parallel_clause() {
    // A[i] := A[i] * 2 + B[i]: element-wise self reference under //
    let n = 48;
    let clause = Clause {
        iter: IndexSet::range(0, n - 1),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1("A", Fn1::identity()),
        rhs: Expr::add(
            Expr::mul(
                Expr::Ref(ArrayRef::d1("A", Fn1::identity())),
                Expr::Lit(2.0),
            ),
            Expr::Ref(ArrayRef::d1("B", Fn1::identity())),
        ),
    };
    let mut env = Env::new();
    env.insert(
        "A",
        Array::from_fn(Bounds::range(0, n - 1), |i| i.scalar() as f64),
    );
    env.insert(
        "B",
        Array::from_fn(Bounds::range(0, n - 1), |i| 0.5 * i.scalar() as f64),
    );
    let mut reference = env.clone();
    reference.exec_clause(&clause);

    let mut dm = DecompMap::new();
    dm.insert("A".into(), Decomp1::block(4, Bounds::range(0, n - 1)));
    dm.insert("B".into(), Decomp1::scatter(4, Bounds::range(0, n - 1)));
    let plan = SpmdPlan::build(&clause, &dm).unwrap();

    let mut shm = env.clone();
    run_shared(&plan, &clause, &mut shm).unwrap();
    assert_eq!(
        shm.get("A")
            .unwrap()
            .max_abs_diff(reference.get("A").unwrap()),
        0.0
    );

    let mut arrays: BTreeMap<String, DistArray> = BTreeMap::new();
    for name in ["A", "B"] {
        arrays.insert(
            name.into(),
            DistArray::scatter_from(env.get(name).unwrap(), dm[name].clone()),
        );
    }
    run_distributed(&plan, &clause, &mut arrays, DistOptions::default()).unwrap();
    assert_eq!(
        arrays["A"]
            .gather()
            .max_abs_diff(reference.get("A").unwrap()),
        0.0
    );
}

#[test]
fn many_processors_small_problem() {
    // more processors than some nodes have elements: empty schedules must
    // be handled everywhere
    let n = 10;
    let clause = Clause {
        iter: IndexSet::range(0, n - 1),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1("A", Fn1::identity()),
        rhs: Expr::Ref(ArrayRef::d1("B", Fn1::identity())),
    };
    let mut env = Env::new();
    env.insert("A", Array::zeros(Bounds::range(0, n - 1)));
    env.insert(
        "B",
        Array::from_fn(Bounds::range(0, n - 1), |i| i.scalar() as f64),
    );
    let mut reference = env.clone();
    reference.exec_clause(&clause);

    let mut dm = DecompMap::new();
    dm.insert("A".into(), Decomp1::block(8, Bounds::range(0, n - 1)));
    dm.insert("B".into(), Decomp1::scatter(8, Bounds::range(0, n - 1)));
    let plan = SpmdPlan::build(&clause, &dm).unwrap();
    let mut arrays: BTreeMap<String, DistArray> = BTreeMap::new();
    for name in ["A", "B"] {
        arrays.insert(
            name.into(),
            DistArray::scatter_from(env.get(name).unwrap(), dm[name].clone()),
        );
    }
    run_distributed(&plan, &clause, &mut arrays, DistOptions::default()).unwrap();
    assert_eq!(
        arrays["A"]
            .gather()
            .max_abs_diff(reference.get("A").unwrap()),
        0.0
    );
}

/// A plan is not checked against its clause: one that reads past an
/// array's end panics its node thread, which the shared machine reports
/// as a typed error with the environment untouched.
#[test]
fn shared_out_of_range_read_is_a_typed_error() {
    let n = 32;
    let copy = |g: Fn1| Clause {
        iter: IndexSet::range(0, n - 1),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1("A", Fn1::identity()),
        rhs: Expr::Ref(ArrayRef::d1("B", g)),
    };
    let mut env = Env::new();
    env.insert("A", Array::zeros(Bounds::range(0, n - 1)));
    env.insert(
        "B",
        Array::from_fn(Bounds::range(0, n - 1), |i| i.scalar() as f64),
    );
    let mut dm = DecompMap::new();
    dm.insert("A".into(), Decomp1::block(4, Bounds::range(0, n - 1)));
    dm.insert("B".into(), Decomp1::block(4, Bounds::range(0, n - 1)));
    let plan = SpmdPlan::build(&copy(Fn1::identity()), &dm).unwrap();

    let before = env.clone();
    let err = run_shared(&plan, &copy(Fn1::shift(n)), &mut env).unwrap_err();
    assert!(matches!(err, MachineError::NodePanicked { .. }), "{err}");
    assert_eq!(env, before, "env untouched");
}
