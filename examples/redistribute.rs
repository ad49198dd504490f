//! Domain example 3 — dynamic redistribution (the paper's Section 5
//! "further research": dynamic decompositions, i.e. a redistribution of
//! the data at run time).
//!
//! A program phase that favours block layout (stencil) is followed by a
//! phase that favours scatter layout (strided access). We plan a block →
//! scatter redistribution in between, compare the total communication
//! against staying in either layout throughout, and apply it through
//! `DistSession::redistribute`.
//!
//! Run with: `cargo run --example redistribute`

use vcal_suite::core::{Array, Bounds, Env};
use vcal_suite::decomp::{Decomp1, RedistPlan};
use vcal_suite::lang;
use vcal_suite::machine::DistSession;
use vcal_suite::spmd::{CommStats, DecompMap, SpmdPlan};

fn phase_cost(src: &str, dec_write: &Decomp1, dec_read: &Decomp1) -> u64 {
    let clause = lang::compile(src).expect("compiles")[0].clone();
    let mut dm = DecompMap::new();
    dm.insert(clause.lhs.array.clone(), dec_write.clone());
    for r in clause.read_refs() {
        dm.entry(r.array.clone())
            .or_insert_with(|| dec_read.clone());
    }
    let plan = SpmdPlan::build(&clause, &dm).expect("plan");
    CommStats::of_plan(&plan, &dm).sends
}

fn main() {
    let n: i64 = 1024;
    let pmax = 8;
    let ext = Bounds::range(0, n - 1);
    let block = Decomp1::block(pmax, ext);
    let scatter = Decomp1::scatter(pmax, ext);

    // phase 1: stencil (neighbour access) — block-friendly for V
    let stencil = "for i := 1 to 1022 do V[i] := 0.5 * (U[i-1] + U[i+1]); od;";
    // phase 2: feed V into a consumer W whose layout is fixed to scatter
    // (say, a solver that needs cyclic layout for load balance)
    let consume = "for i := 0 to 1023 do W[i] := V[i] * 2; od;";

    let stencil_block = phase_cost(stencil, &block, &block);
    let stencil_scatter = phase_cost(stencil, &scatter, &scatter);
    println!("phase 1 (stencil) per sweep:  V block {stencil_block:>5} msgs | V scatter {stencil_scatter:>5} msgs");

    let dm_stride_block = phase_cost(consume, &scatter, &block);
    let dm_stride_scatter = phase_cost(consume, &scatter, &scatter);
    println!("phase 2 (consume) per sweep:  V block {dm_stride_block:>5} msgs | V scatter {dm_stride_scatter:>5} msgs");

    // redistribution plan between the phases
    let plan = RedistPlan::build(&block, &scatter);
    println!(
        "\nblock -> scatter redistribution: {} elements move in {} messages ({} pairs), {} stay",
        plan.moved_elements(),
        plan.message_count(),
        plan.pair_count(),
        plan.stationary
    );

    // total costs of the three strategies for S sweeps of each phase
    let s = 20u64;
    let stay_block = s * stencil_block + s * dm_stride_block;
    let stay_scatter = s * stencil_scatter + s * dm_stride_scatter;
    let redistribute = s * stencil_block + plan.moved_elements() as u64 + s * dm_stride_scatter;
    println!("\ntotal communication for {s} sweeps of each phase:");
    println!("  stay block all along:    {stay_block:>7} elements");
    println!("  stay scatter all along:  {stay_scatter:>7} elements");
    println!("  redistribute in between: {redistribute:>7} elements");

    // apply the redistribution to real data: the session runs it as the
    // copy clause `V'[i] := V[i]` with `V'` laid out as scatter
    let mut env = Env::new();
    env.insert("V", Array::from_fn(ext, |i| (i.scalar() * 7 % 101) as f64));
    let dm = DecompMap::from([("V".to_string(), block)]);
    let mut session = DistSession::new(&env, dm).expect("session");
    let report = session.redistribute("V", scatter).expect("redistribute");
    let moved = report.total().msgs_sent;
    assert_eq!(
        moved as i64,
        plan.moved_elements(),
        "engine copy moves the plan's elements"
    );
    let got = session.gather("V").expect("gather");
    assert_eq!(got.max_abs_diff(env.get("V").unwrap()), 0.0);
    println!(
        "\nredistribution applied on the engine: {moved} elements in {} packets, \
         data identical in the new layout.",
        report.total().packets_sent
    );
}
