//! Quickstart: the full pipeline of the paper on one page.
//!
//! 1. Parse an imperative loop (the paper's Fig. 1 shape).
//! 2. Translate it into a V-cal clause.
//! 3. Assign data decompositions (separately from the program!).
//! 4. Derive the SPMD plan — closed-form per-processor schedules.
//! 5. Execute on the simulated shared-memory and distributed-memory
//!    machines and check both against the sequential reference.
//!
//! Run with: `cargo run --example quickstart`

use std::collections::BTreeMap;
use vcal_suite::core::{Array, Bounds, Env};
use vcal_suite::decomp::{Decomp1, LayoutMap};
use vcal_suite::lang;
use vcal_suite::machine::{run_distributed, run_sequential, run_shared, DistArray, DistOptions};
use vcal_suite::spmd::{self, DecompMap, SpmdPlan};

fn main() {
    let n: i64 = 32;
    let pmax = 4;

    // ---- 1+2: source program -> V-cal clause ---------------------------
    let src = "for i := 1 to 30 do if A[i] > 0 then A[i] := B[i+1] * 0.5; fi; od;";
    println!("source:\n{src}\n");
    let clause = lang::compile(src).expect("compiles")[0].clone();
    println!("V-cal:  {}\n", lang::to_vcal(&clause));

    // ---- 3: decompositions (chosen independently of the program) -------
    let dec_a = Decomp1::block(pmax, Bounds::range(0, n - 1));
    let dec_b = Decomp1::scatter(pmax, Bounds::range(0, n));
    println!("{}", LayoutMap::of(&dec_a));
    println!("\n{}\n", LayoutMap::of(&dec_b));

    let mut decomps = DecompMap::new();
    decomps.insert("A".into(), dec_a.clone());
    decomps.insert("B".into(), dec_b.clone());

    // ---- 4: SPMD plan ----------------------------------------------------
    let plan = SpmdPlan::build(&clause, &decomps).expect("plan");
    println!("{}", spmd::emit::plan_report(&plan));
    println!("generated node program for p = 1 (distributed template):");
    println!("{}", spmd::emit::emit_distributed_node(&plan, 1));

    // ---- 5: execute everywhere and compare ------------------------------
    let mut env = Env::new();
    env.insert(
        "A",
        Array::from_fn(Bounds::range(0, n - 1), |i| {
            if i.scalar() % 3 == 0 {
                -1.0
            } else {
                i.scalar() as f64
            }
        }),
    );
    env.insert(
        "B",
        Array::from_fn(Bounds::range(0, n), |i| (i.scalar() * 2) as f64),
    );

    // sequential reference
    let mut seq_env = env.clone();
    run_sequential(&clause, &mut seq_env);

    // shared-memory machine
    let mut shm_env = env.clone();
    let shm = run_shared(&plan, &clause, &mut shm_env).expect("shared");
    assert_eq!(
        shm_env
            .get("A")
            .unwrap()
            .max_abs_diff(seq_env.get("A").unwrap()),
        0.0
    );
    println!(
        "shared-memory machine: OK ({} iterations over {} nodes, {} barrier)",
        shm.total().iterations,
        shm.nodes.len(),
        shm.barriers
    );

    // distributed-memory machine
    let mut arrays: BTreeMap<String, DistArray> = BTreeMap::new();
    for name in ["A", "B"] {
        arrays.insert(
            name.into(),
            DistArray::scatter_from(env.get(name).unwrap(), decomps[name].clone()),
        );
    }
    let dist = run_distributed(&plan, &clause, &mut arrays, DistOptions::default()).expect("dist");
    assert_eq!(
        arrays["A"].gather().max_abs_diff(seq_env.get("A").unwrap()),
        0.0
    );
    println!(
        "distributed machine:   OK ({} messages exchanged, {} local reads)",
        dist.total().msgs_sent,
        dist.total().local_reads
    );
    println!("\nall three executions agree.");
}
