//! Domain example 5 — reductions: a dot product and a convergence-tested
//! iteration, the "intermediate tests on data values" the paper names as
//! the inherent sequential component of real algorithms.
//!
//! Each node folds its local elements (owner-computes), then the partials
//! combine along a binary tree — `pmax - 1` messages in `ceil(log2 pmax)`
//! rounds, the natural pattern of the paper's hypercube-era targets.
//!
//! Run with: `cargo run --example dot_product`

use std::collections::BTreeMap;
use vcal_suite::core::clause::{ReduceOp, Reduction};
use vcal_suite::core::func::Fn1;
use vcal_suite::core::{Array, ArrayRef, Bounds, Env, Expr, IndexSet};
use vcal_suite::decomp::Decomp1;
use vcal_suite::machine::{run_reduce_distributed, run_reduce_shared, DistArray};

fn main() {
    let n: i64 = 1 << 14;
    let pmax = 8;

    let mut env = Env::new();
    env.insert(
        "A",
        Array::from_fn(Bounds::range(0, n - 1), |i| (i.scalar() % 13) as f64),
    );
    env.insert(
        "B",
        Array::from_fn(Bounds::range(0, n - 1), |i| 1.0 / (1.0 + i.scalar() as f64)),
    );

    let dot = Reduction {
        iter: IndexSet::range(0, n - 1),
        op: ReduceOp::Sum,
        expr: Expr::mul(
            Expr::Ref(ArrayRef::d1("A", Fn1::identity())),
            Expr::Ref(ArrayRef::d1("B", Fn1::identity())),
        ),
    };
    println!("reduction: {dot}\n");

    let reference = env.eval_reduction(&dot);
    println!("sequential reference:     {reference:.9}");

    // shared-memory machine with two iteration decompositions
    for dec in [
        Decomp1::block(pmax, Bounds::range(0, n - 1)),
        Decomp1::scatter(pmax, Bounds::range(0, n - 1)),
    ] {
        let (v, report) = run_reduce_shared(&dot, &dec, &env).unwrap();
        println!(
            "shared  ({:<24}): {v:.9}  (rel.err {:.1e}, {} iterations)",
            dec.to_string(),
            (v - reference).abs() / reference,
            report.total().iterations
        );
    }

    // distributed machine: co-located arrays, tree combine
    let dec = Decomp1::block(pmax, Bounds::range(0, n - 1));
    let mut arrays = BTreeMap::new();
    for name in ["A", "B"] {
        arrays.insert(
            name.to_string(),
            DistArray::scatter_from(env.get(name).unwrap(), dec.clone()),
        );
    }
    let (v, report) = run_reduce_distributed(ReduceOp::Sum, &dot.expr, &arrays).unwrap();
    println!(
        "distributed (tree combine): {v:.9}  (rel.err {:.1e}, {} messages)",
        (v - reference).abs() / reference,
        report.total().msgs_sent
    );

    // convergence-tested iteration: max-residual reduction drives the loop
    println!("\nconvergence-driven sweep (max-residual reduction as loop test):");
    let mut u = Env::new();
    u.insert(
        "U",
        Array::from_fn(Bounds::range(0, 63), |i| {
            if i.scalar() == 32 {
                64.0
            } else {
                0.0
            }
        }),
    );
    u.insert("V", Array::zeros(Bounds::range(0, 63)));
    let sweep =
        vcal_suite::lang::compile("for i := 1 to 62 do V[i] := 0.5 * (U[i-1] + U[i+1]); od;")
            .unwrap()[0]
            .clone();
    let copy =
        vcal_suite::lang::compile("for i := 1 to 62 do U[i] := V[i]; od;").unwrap()[0].clone();
    let residual = Reduction {
        iter: IndexSet::range(1, 62),
        op: ReduceOp::Max,
        expr: Expr::Bin(
            vcal_suite::core::BinOp::Max,
            Box::new(Expr::Bin(
                vcal_suite::core::BinOp::Sub,
                Box::new(Expr::Ref(ArrayRef::d1("U", Fn1::identity()))),
                Box::new(Expr::Ref(ArrayRef::d1("V", Fn1::identity()))),
            )),
            Box::new(Expr::Bin(
                vcal_suite::core::BinOp::Sub,
                Box::new(Expr::Ref(ArrayRef::d1("V", Fn1::identity()))),
                Box::new(Expr::Ref(ArrayRef::d1("U", Fn1::identity()))),
            )),
        ),
    };
    let iter_dec = Decomp1::block(pmax, Bounds::range(1, 62));
    let mut sweeps = 0;
    loop {
        u.exec_clause(&sweep);
        let (res, _) = run_reduce_shared(&residual, &iter_dec, &u).unwrap();
        u.exec_clause(&copy);
        sweeps += 1;
        if res < 2.0 || sweeps >= 2000 {
            println!("  converged after {sweeps} sweeps (max residual {res:.4})");
            break;
        }
    }
}
