//! Automatic decomposition selection.
//!
//! The paper automates code generation *given* a decomposition and lists
//! "run-time optimizations" as future work. The advisor closes the loop:
//! enumerate candidate layouts per array, plan every clause of the
//! program under each assignment, and rank assignments by the price of
//! their plans' census under the era constants ([`CostModel::ERA`]). It
//! is exhaustive over a small candidate family, which is exactly what
//! the closed-form census makes affordable: no execution needed. The
//! autotuner re-prices the top of this ranking under constants fit to
//! the host.

use crate::compiled::clause_arrays;
use crate::cost::CostModel;
use crate::program::{DecompMap, SpmdPlan};
use std::collections::BTreeMap;
use vcal_core::{Bounds, Clause};
use vcal_decomp::Decomp1;

/// Block sizes of the block-scatter candidates.
const BS_SIZES: [i64; 2] = [4, 16];

/// A priced decomposition assignment, with every clause's plan under it.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The assignment.
    pub decomps: DecompMap,
    /// One plan per clause, in program order — what the tuner re-prices.
    pub plans: Vec<SpmdPlan>,
    /// Total elements communicated across all clauses.
    pub comm: u64,
    /// The largest per-processor work, summed over clauses.
    pub max_work: u64,
    /// Sum over clauses of the critical-path price under the era
    /// constants.
    pub cost: f64,
}

/// The candidate layout family for one array: Block, Scatter, and
/// BlockScatter(b) for each block size that fits the extent.
pub fn candidates_for(extent: Bounds, pmax: i64) -> Vec<Decomp1> {
    let mut v = vec![Decomp1::block(pmax, extent), Decomp1::scatter(pmax, extent)];
    for b in BS_SIZES {
        if b * pmax <= extent.count() as i64 * 2 {
            v.push(Decomp1::block_scatter(b, pmax, extent));
        }
    }
    v
}

/// Enumerate decomposition assignments for every array and rank them.
///
/// `extents` gives each array's index range; `pmax` the processor count.
/// Returns every assignment under which each clause has a plan, sorted
/// best-first by price; equal prices keep the enumeration order (the
/// first array's layout varies fastest, in [`candidates_for`]'s order),
/// so a ranking is byte-stable across runs. The search is exhaustive, so
/// the number of arrays should stay small (the cross product is
/// `|family|^arrays`; 4 arrays × 4 layouts = 256 plans).
pub fn advise(
    clauses: &[Clause],
    extents: &BTreeMap<String, Bounds>,
    pmax: i64,
) -> Result<Vec<Candidate>, String> {
    let names: Vec<&String> = extents.keys().collect();
    if clauses.is_empty() || names.is_empty() {
        return Err("no clauses or no arrays to decompose".into());
    }
    if names.len() > 5 {
        return Err("advisor search space too large (> 5 arrays)".into());
    }
    let families: Vec<Vec<Decomp1>> = names
        .iter()
        .map(|n| candidates_for(extents[*n], pmax))
        .collect();
    let mut out = Vec::new();
    let mut pick = vec![0usize; names.len()];
    loop {
        let dm = (names.iter().zip(&pick))
            .enumerate()
            .map(|(k, (name, &at))| ((*name).clone(), families[k][at].clone()))
            .collect();
        out.extend(candidate(clauses, dm));
        // advance the odometer; done when every digit wraps
        let wrapped = (0..names.len()).all(|k| {
            pick[k] = (pick[k] + 1) % families[k].len();
            pick[k] == 0
        });
        if wrapped {
            break;
        }
    }
    out.sort_by(|a, b| a.cost.total_cmp(&b.cost));
    Ok(out)
}

/// Plan every clause under the assignment `dm` and price it, or `None`
/// if some clause has no plan under it. The tuner uses it to price an
/// incumbent assignment that the family or the budget left out.
pub fn candidate(clauses: &[Clause], dm: DecompMap) -> Option<Candidate> {
    let mut plans = Vec::with_capacity(clauses.len());
    let (mut comm, mut max_work, mut cost) = (0u64, 0u64, 0.0);
    for clause in clauses {
        let plan = SpmdPlan::build(clause, &dm).ok()?;
        comm += plan.nodes.iter().map(|n| n.comm.send_elems()).sum::<u64>();
        max_work += (plan.nodes.iter())
            .map(|n| n.modify.schedule.work_estimate())
            .max()
            .unwrap_or(0);
        cost += CostModel::ERA.price_plan(&plan).total;
        plans.push(plan);
    }
    Some(Candidate {
        decomps: dm,
        plans,
        comm,
        max_work,
        cost,
    })
}

/// The arrays a clause program touches, sorted and deduplicated — the
/// tunable set whose extents [`advise`] needs.
pub fn program_arrays(clauses: &[Clause]) -> Vec<String> {
    let mut names: Vec<&str> = clauses.iter().flat_map(clause_arrays).collect();
    names.sort();
    names.dedup();
    names.into_iter().map(str::to_string).collect()
}

/// One-line description of an assignment: per-array layout names in
/// array order. Byte-stable for a given assignment.
pub fn describe_assignment(dm: &DecompMap) -> String {
    let parts: Vec<String> = dm
        .iter()
        .map(|(n, d)| format!("{n}: {}", d.dist().name()))
        .collect();
    parts.join(", ")
}

/// One-line description of a candidate: its assignment and its price.
pub fn describe(c: &Candidate) -> String {
    format!(
        "{} — comm {} elems, critical work {}, cost {:.0}",
        describe_assignment(&c.decomps),
        c.comm,
        c.max_work,
        c.cost
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::CommStats;
    use vcal_core::func::Fn1;
    use vcal_core::{ArrayRef, Expr, Guard, IndexSet, Ordering};
    use vcal_decomp::Distribution;

    fn stencil(n: i64) -> Clause {
        Clause {
            iter: IndexSet::range(1, n - 2),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("V", Fn1::identity()),
            rhs: Expr::add(
                Expr::Ref(ArrayRef::d1("U", Fn1::shift(-1))),
                Expr::Ref(ArrayRef::d1("U", Fn1::shift(1))),
            ),
        }
    }

    #[test]
    fn advisor_picks_block_for_stencils() {
        let n = 256;
        let mut extents = BTreeMap::new();
        extents.insert("U".to_string(), Bounds::range(0, n - 1));
        extents.insert("V".to_string(), Bounds::range(0, n - 1));
        let ranked = advise(&[stencil(n)], &extents, 8).unwrap();
        assert!(!ranked.is_empty());
        let best = &ranked[0];
        assert!(
            matches!(best.decomps["U"].dist(), Distribution::Block { .. }),
            "{}",
            describe(best)
        );
        assert!(
            matches!(best.decomps["V"].dist(), Distribution::Block { .. }),
            "{}",
            describe(best)
        );
        // and scatter/scatter must rank strictly worse
        let scatter_cost = ranked
            .iter()
            .find(|c| {
                c.decomps["U"].dist() == Distribution::Scatter
                    && c.decomps["V"].dist() == Distribution::Scatter
            })
            .unwrap()
            .cost;
        assert!(best.cost < scatter_cost);
    }

    #[test]
    fn advisor_aligns_with_a_fixed_consumer() {
        // two clauses: stencil on U/V, then V feeds W elementwise.
        // All-block should win overall.
        let n = 128;
        let consume = Clause {
            iter: IndexSet::range(0, n - 1),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("W", Fn1::identity()),
            rhs: Expr::Ref(ArrayRef::d1("V", Fn1::identity())),
        };
        let mut extents = BTreeMap::new();
        for a in ["U", "V", "W"] {
            extents.insert(a.to_string(), Bounds::range(0, n - 1));
        }
        let ranked = advise(&[stencil(n), consume], &extents, 4).unwrap();
        let best = &ranked[0];
        // V and W must agree (zero comm for the consume clause)
        assert_eq!(
            best.decomps["V"].dist(),
            best.decomps["W"].dist(),
            "{}",
            describe(best)
        );
        assert_eq!(best.comm, 2 * 3); // stencil boundary traffic only
    }

    #[test]
    fn candidate_ranking_is_sorted() {
        let n = 64;
        let mut extents = BTreeMap::new();
        extents.insert("U".to_string(), Bounds::range(0, n - 1));
        extents.insert("V".to_string(), Bounds::range(0, n - 1));
        let ranked = advise(&[stencil(n)], &extents, 4).unwrap();
        for pair in ranked.windows(2) {
            assert!(pair[0].cost <= pair[1].cost);
        }
        // 4 candidates per array (block, scatter, bs4, bs16), 2 arrays
        assert_eq!(ranked.len(), 16);
    }

    #[test]
    fn empty_input_rejected() {
        assert!(advise(&[], &BTreeMap::new(), 4).is_err());
    }

    #[test]
    fn ranking_is_deterministic_and_totally_ordered() {
        // a clause with no reads: every assignment of the read-free
        // array family costs the same work and zero comm, so the whole
        // ranking is one big cost tie — the enumeration order must
        // impose a single byte-stable order
        let n = 64;
        let constant = Clause {
            iter: IndexSet::range(0, n - 1),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("A", Fn1::identity()),
            rhs: Expr::Lit(1.0),
        };
        let mut extents = BTreeMap::new();
        extents.insert("A".to_string(), Bounds::range(0, n - 1));
        extents.insert("B".to_string(), Bounds::range(0, n - 1));
        let a = advise(std::slice::from_ref(&constant), &extents, 4).unwrap();
        let b = advise(&[constant], &extents, 4).unwrap();
        let render = |v: &[Candidate]| -> Vec<String> { v.iter().map(describe).collect() };
        assert_eq!(render(&a), render(&b), "two runs must rank identically");
        // enumeration rank: the first array's layout varies fastest
        let family = candidates_for(Bounds::range(0, n - 1), 4);
        let at = |d: &Decomp1| family.iter().position(|f| f == d).unwrap();
        let rank = |c: &Candidate| at(&c.decomps["A"]) + family.len() * at(&c.decomps["B"]);
        for pair in a.windows(2) {
            assert!(
                (pair[0].cost, rank(&pair[0])) < (pair[1].cost, rank(&pair[1])),
                "strict total order violated: {} !< {}",
                describe(&pair[0]),
                describe(&pair[1])
            );
        }
    }

    fn extents(n: i64, arrays: &[&str]) -> BTreeMap<String, Bounds> {
        arrays
            .iter()
            .map(|a| (a.to_string(), Bounds::range(0, n - 1)))
            .collect()
    }

    #[test]
    fn enumeration_is_deterministic_and_budgeted() {
        let clauses = [stencil(256)];
        let ex = extents(256, &["U", "V"]);
        let a = advise(&clauses, &ex, 4).unwrap();
        let b = advise(&clauses, &ex, 4).unwrap();
        assert_eq!(a.len(), 16); // 4 layouts per array, 2 arrays
        let names = |s: &[Candidate]| -> Vec<String> {
            s.iter().map(|c| describe_assignment(&c.decomps)).collect()
        };
        assert_eq!(names(&a), names(&b));
        // a budget truncates the *tail* of the ranking
        let mut tight = a.clone();
        tight.truncate(3);
        assert_eq!(names(&tight), names(&a)[..3].to_vec());
    }

    #[test]
    fn stencil_space_ranks_block_first() {
        let clauses = [stencil(256)];
        let ranked = advise(&clauses, &extents(256, &["U", "V"]), 8).unwrap();
        let best = &ranked[0];
        assert!(matches!(
            best.decomps["U"].dist(),
            Distribution::Block { .. }
        ));
        assert!(matches!(
            best.decomps["V"].dist(),
            Distribution::Block { .. }
        ));
        assert_eq!(best.plans.len(), 1);
    }

    #[test]
    fn incumbent_force_include_handles_out_of_family_layouts() {
        let clauses = [stencil(64)];
        let mut dm = DecompMap::new();
        dm.insert("U".into(), Decomp1::replicated(4, Bounds::range(0, 63)));
        dm.insert("V".into(), Decomp1::block(4, Bounds::range(0, 63)));
        let c = candidate(&clauses, dm).unwrap();
        assert_eq!(c.plans.len(), 1);
    }

    #[test]
    fn program_arrays_sorted_dedup() {
        let n = 32;
        let copy = Clause {
            iter: IndexSet::range(0, n - 1),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("U", Fn1::identity()),
            rhs: Expr::Ref(ArrayRef::d1("V", Fn1::identity())),
        };
        assert_eq!(program_arrays(&[stencil(n), copy]), vec!["U", "V"]);
    }

    #[test]
    fn bad_inputs_rejected() {
        let ex = extents(64, &["U", "V"]);
        assert!(advise(&[], &ex, 4).is_err());
        assert!(advise(&[stencil(64)], &BTreeMap::new(), 4).is_err());
        let six = extents(64, &["A", "B", "C", "D", "E", "F"]);
        assert!(advise(&[stencil(64)], &six, 4)
            .unwrap_err()
            .contains("too large"));
    }

    /// The census the advisor prices equals the element walk it
    /// replaced: over the layout family, every element a plan sends is a
    /// remote read of [`CommStats::of_plan`] and every element it
    /// receives one remote read consumed.
    #[test]
    fn census_equals_the_element_walk() {
        let read = |f: Fn1| Expr::Ref(ArrayRef::d1("U", f));
        let clause = |iter: (i64, i64), lhs: Fn1, rhs: Expr, guard: Guard| Clause {
            iter: IndexSet::range(iter.0, iter.1),
            ordering: Ordering::Par,
            guard,
            lhs: ArrayRef::d1("V", lhs),
            rhs,
        };
        let id = Fn1::identity;
        let mut plans = 0;
        for pmax in [2i64, 3, 4, 8] {
            for n in [64i64, 100, 256, 1024] {
                let shapes = [
                    stencil(n),
                    clause((0, n - 1), id(), read(id()), Guard::Always),
                    clause(
                        (0, (n - 2) / 3),
                        Fn1::affine(3, 1),
                        read(id()),
                        Guard::Always,
                    ),
                    clause(
                        (0, (n - 2) / 2),
                        id(),
                        read(Fn1::affine(2, 1)),
                        Guard::Always,
                    ),
                    clause(
                        (0, n - 2),
                        id(),
                        Expr::add(read(Fn1::shift(1)), read(Fn1::shift(1))),
                        Guard::Always,
                    ),
                    clause(
                        (1, n - 2),
                        id(),
                        read(Fn1::shift(-1)),
                        Guard::Cmp {
                            lhs: ArrayRef::d1("U", Fn1::shift(1)),
                            op: vcal_core::pred::CmpOp::Gt,
                            rhs: 0.0,
                        },
                    ),
                ];
                let family = candidates_for(Bounds::range(0, n - 1), pmax);
                for u in &family {
                    for v in &family {
                        let dm =
                            DecompMap::from([("U".into(), u.clone()), ("V".into(), v.clone())]);
                        for c in &shapes {
                            let plan = SpmdPlan::build(c, &dm).unwrap();
                            let walk = CommStats::of_plan(&plan, &dm);
                            let sum = |f: fn(&crate::NodeCommPlan) -> u64| -> u64 {
                                plan.nodes.iter().map(|n| f(&n.comm)).sum()
                            };
                            let what = format!("pmax {pmax} n {n} {u:?} {v:?} {c}");
                            assert_eq!(sum(crate::NodeCommPlan::send_elems), walk.sends, "{what}");
                            assert_eq!(
                                sum(crate::NodeCommPlan::recv_elems),
                                walk.receives,
                                "{what}"
                            );
                            plans += 1;
                        }
                    }
                }
            }
        }
        assert!(plans >= 1280, "{plans} plans");
    }
}
