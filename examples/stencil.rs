//! Domain example 1 — a 1-D Jacobi relaxation sweep, the workload class
//! the paper's introduction motivates (identical operations over large
//! arrays). Shows how the *same program* gets radically different
//! communication behaviour from different decompositions, and checks
//! that the engine's Block stencil already *is* the ghost exchange of
//! the Section 5 "overlapped decomposition" analysis.
//!
//! Run with: `cargo run --example stencil`

use std::collections::BTreeMap;
use vcal_suite::core::{Array, Bounds, Env};
use vcal_suite::decomp::{Decomp1, OverlapDecomp};
use vcal_suite::lang;
use vcal_suite::machine::{run_distributed, DistArray, DistOptions};
use vcal_suite::spmd::{CommStats, DecompMap, SpmdPlan};

fn main() {
    let n: i64 = 256;
    let pmax = 8;
    let sweeps = 10;

    // U_new[i] := 0.5 * (U[i-1] + U[i+1]) on the interior
    let src = "for i := 1 to 254 do V[i] := 0.5 * (U[i-1] + U[i+1]); od;";
    let clause = lang::compile(src).expect("compiles")[0].clone();
    println!("stencil clause: {}\n", lang::to_vcal(&clause));

    // initial condition: a spike in the middle
    let mut init = Env::new();
    init.insert(
        "U",
        Array::from_fn(Bounds::range(0, n - 1), |i| {
            if i.scalar() == n / 2 {
                1.0
            } else {
                0.0
            }
        }),
    );
    init.insert("V", Array::zeros(Bounds::range(0, n - 1)));

    // sequential reference: `sweeps` ping-pong iterations
    let mut seq = init.clone();
    let back = lang::compile("for i := 1 to 254 do U[i] := V[i]; od;").unwrap()[0].clone();
    for _ in 0..sweeps {
        seq.exec_clause(&clause);
        seq.exec_clause(&back);
    }

    println!("per-sweep communication by decomposition of U and V:");
    println!(
        "{:<14} {:>10} {:>12} {:>14}",
        "layout", "messages", "local reads", "max node work"
    );
    for (name, dec) in [
        ("Block", Decomp1::block(pmax, Bounds::range(0, n - 1))),
        ("Scatter", Decomp1::scatter(pmax, Bounds::range(0, n - 1))),
        (
            "BS(4)",
            Decomp1::block_scatter(4, pmax, Bounds::range(0, n - 1)),
        ),
        (
            "BS(16)",
            Decomp1::block_scatter(16, pmax, Bounds::range(0, n - 1)),
        ),
    ] {
        let mut dm = DecompMap::new();
        dm.insert("U".into(), dec.clone());
        dm.insert("V".into(), dec.clone());
        let plan = SpmdPlan::build(&clause, &dm).expect("plan");
        let stats = CommStats::of_plan(&plan, &dm);
        let max_work = plan
            .nodes
            .iter()
            .map(|nd| nd.modify.schedule.work_estimate())
            .max()
            .unwrap();
        println!(
            "{:<14} {:>10} {:>12} {:>14}",
            name, stats.sends, stats.local_updates, max_work
        );

        // actually run the sweeps on the distributed machine and verify
        let plan_back = SpmdPlan::build(&back, &dm).expect("plan");
        let mut arrays: BTreeMap<String, DistArray> = BTreeMap::new();
        for a in ["U", "V"] {
            arrays.insert(
                a.into(),
                DistArray::scatter_from(init.get(a).unwrap(), dm[a].clone()),
            );
        }
        let mut total_msgs = 0;
        for _ in 0..sweeps {
            let r1 = run_distributed(&plan, &clause, &mut arrays, DistOptions::default()).unwrap();
            let r2 =
                run_distributed(&plan_back, &back, &mut arrays, DistOptions::default()).unwrap();
            total_msgs += r1.total().msgs_sent + r2.total().msgs_sent;
        }
        let got = arrays["U"].gather();
        let diff = got.max_abs_diff(seq.get("U").unwrap());
        assert!(diff < 1e-12, "{name}: distributed result differs by {diff}");
        println!(
            "{:<14} verified over {sweeps} sweeps ({total_msgs} messages total)",
            ""
        );
    }

    // ---- overlapped decomposition (Section 5): a prediction, checked ----
    let block = Decomp1::block(pmax, Bounds::range(0, n - 1));
    let ov = OverlapDecomp::new(block.clone(), 1);
    let dm: DecompMap = [("U".into(), block.clone()), ("V".into(), block)].into();
    let plan = SpmdPlan::build(&clause, &dm).expect("plan");
    let mut arrays: BTreeMap<String, DistArray> = (dm.iter())
        .map(|(a, d)| {
            (
                a.clone(),
                DistArray::scatter_from(init.get(a).unwrap(), d.clone()),
            )
        })
        .collect();
    let engine = run_distributed(&plan, &clause, &mut arrays, DistOptions::default())
        .unwrap()
        .total();
    assert_eq!(
        engine.packets_sent,
        ov.exchange_plan().len() as u64,
        "one engine packet per ghost message"
    );
    println!("\noverlapped block decomposition (halo = 1) vs the engine's Block stencil:");
    println!(
        "  ghost plan: {} messages / {} elements per sweep",
        ov.exchange_plan().len(),
        ov.exchange_volume()
    );
    println!(
        "  engine:     {} packets  / {} elements per sweep (verified: one packet per ghost message)",
        engine.packets_sent, engine.msgs_sent
    );
}
