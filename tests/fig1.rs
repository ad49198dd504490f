//! E1 — Figure 1 reproduction: the example program translates to exactly
//! the paper's V-cal expression, and the generated SPMD programs compute
//! the same result as the original loop on every machine.

use std::collections::BTreeMap;
use vcal_suite::core::{Array, Bounds, Env};
use vcal_suite::decomp::Decomp1;
use vcal_suite::lang;
use vcal_suite::machine::{run_distributed, run_sequential, run_shared, DistArray, DistOptions};
use vcal_suite::spmd::{DecompMap, SpmdPlan};

const FIG1_SRC: &str = "for i := 1 to 9 do if A[i] > 0 then A[i] := B[i+1]; fi; od;";

#[test]
fn fig1_vcal_form_matches_paper() {
    let clause = lang::compile(FIG1_SRC).unwrap()[0].clone();
    // the paper: ∆(i ∈ (k+1: n | [i]A>0 ) // ([i](A) := [f(i)](B))
    assert_eq!(
        lang::to_vcal(&clause),
        "∆(i ∈ (1:9 | [i]A>0)) // ([i](A) := [i+1](B))"
    );
}

#[test]
fn fig1_executes_identically_on_all_machines() {
    let clause = lang::compile(FIG1_SRC).unwrap()[0].clone();

    let mut env = Env::new();
    env.insert(
        "A",
        Array::from_fn(Bounds::range(0, 9), |i| {
            // mix of guard-passing and guard-failing values
            if i.scalar() % 2 == 0 {
                -(i.scalar() as f64)
            } else {
                i.scalar() as f64
            }
        }),
    );
    env.insert(
        "B",
        Array::from_fn(Bounds::range(0, 10), |i| 100.0 + i.scalar() as f64),
    );

    let mut reference = env.clone();
    run_sequential(&clause, &mut reference);

    // try several decomposition assignments
    let layouts: Vec<(Decomp1, Decomp1)> = vec![
        (
            Decomp1::block(4, Bounds::range(0, 9)),
            Decomp1::block(4, Bounds::range(0, 10)),
        ),
        (
            Decomp1::scatter(4, Bounds::range(0, 9)),
            Decomp1::block(4, Bounds::range(0, 10)),
        ),
        (
            Decomp1::block_scatter(2, 3, Bounds::range(0, 9)),
            Decomp1::scatter(3, Bounds::range(0, 10)),
        ),
    ];
    for (dec_a, dec_b) in layouts {
        let mut dm = DecompMap::new();
        dm.insert("A".into(), dec_a.clone());
        dm.insert("B".into(), dec_b.clone());
        let plan = SpmdPlan::build(&clause, &dm).unwrap();

        let mut shm = env.clone();
        run_shared(&plan, &clause, &mut shm).unwrap();
        assert_eq!(
            shm.get("A")
                .unwrap()
                .max_abs_diff(reference.get("A").unwrap()),
            0.0,
            "shared differs for A={dec_a} B={dec_b}"
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
            0.0,
            "distributed differs for A={dec_a} B={dec_b}"
        );
    }
}

#[test]
fn fig1_guard_blocks_updates() {
    // with all A <= 0 the guard never fires: A must be unchanged
    let clause = lang::compile(FIG1_SRC).unwrap()[0].clone();
    let mut env = Env::new();
    env.insert("A", Array::from_fn(Bounds::range(0, 9), |_| -1.0));
    env.insert("B", Array::from_fn(Bounds::range(0, 10), |_| 99.0));
    let before = env.get("A").unwrap().clone();
    let mut dm = DecompMap::new();
    dm.insert("A".into(), Decomp1::block(2, Bounds::range(0, 9)));
    dm.insert("B".into(), Decomp1::block(2, Bounds::range(0, 10)));
    let plan = SpmdPlan::build(&clause, &dm).unwrap();
    run_shared(&plan, &clause, &mut env).unwrap();
    assert_eq!(env.get("A").unwrap().max_abs_diff(&before), 0.0);
}
