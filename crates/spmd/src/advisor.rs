//! Automatic decomposition selection.
//!
//! The paper automates code generation *given* a decomposition and lists
//! "run-time optimizations" as future work. The advisor closes the loop:
//! enumerate candidate layouts per array, plan every clause of the
//! program under each assignment, and rank assignments by a combined
//! cost — communication volume plus critical-path work (load imbalance).
//! It is exhaustive over a small candidate family, which is exactly what
//! the closed-form cost analysis makes affordable: no execution needed.

use crate::compiled::decomp_fingerprint;
use crate::program::{CommStats, DecompMap, SpmdPlan};
use std::collections::BTreeMap;
use vcal_core::{Bounds, Clause};
use vcal_decomp::Decomp1;

/// A scored decomposition assignment, with every clause's plan under it.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The assignment.
    pub decomps: DecompMap,
    /// Structural fingerprint of the assignment (see
    /// [`crate::compiled::decomp_fingerprint`]) — the total-order
    /// tie-break when two assignments price identically, and the key
    /// the tuner's pricing cache uses.
    pub fingerprint: u64,
    /// One plan per clause, in program order — what the tuner's
    /// calibrated model prices.
    pub plans: Vec<SpmdPlan>,
    /// Total elements communicated across all clauses.
    pub comm: u64,
    /// The largest per-processor work over all clauses (critical path).
    pub max_work: u64,
    /// Combined cost: `comm * comm_weight + max_work`.
    pub cost: f64,
}

/// Advisor configuration.
#[derive(Debug, Clone, Copy)]
pub struct AdvisorOptions {
    /// Relative cost of communicating one element vs one local iteration
    /// (the classic "communication is ~10-100x compute" knob).
    pub comm_weight: f64,
    /// Block sizes to consider for block-scatter candidates.
    pub bs_sizes: [i64; 2],
}

impl Default for AdvisorOptions {
    fn default() -> Self {
        AdvisorOptions {
            comm_weight: 16.0,
            bs_sizes: [4, 16],
        }
    }
}

/// The candidate layout family for one array: Block, Scatter, and
/// BlockScatter(b) for each configured block size that fits the extent.
/// Deterministic and shared by the advisor and the auto-tuner.
pub fn candidates_for(extent: Bounds, pmax: i64, opts: &AdvisorOptions) -> Vec<Decomp1> {
    let mut v = vec![Decomp1::block(pmax, extent), Decomp1::scatter(pmax, extent)];
    for b in opts.bs_sizes {
        if b >= 1 && b * pmax <= extent.count() as i64 * 2 {
            v.push(Decomp1::block_scatter(b, pmax, extent));
        }
    }
    v
}

/// Enumerate decomposition assignments for every array and rank them.
///
/// `extents` gives each array's index range; `pmax` the processor count.
/// Returns every assignment under which each clause has a plan, sorted
/// best-first by `(cost, fingerprint)` — a strict total order, so equal
/// costs rank in the same byte-stable order across runs. The search is
/// exhaustive, so the number of arrays should stay small (the cross
/// product is `|family|^arrays`; 4 arrays × 4 layouts = 256 plans).
pub fn advise(
    clauses: &[Clause],
    extents: &BTreeMap<String, Bounds>,
    pmax: i64,
    opts: AdvisorOptions,
) -> Result<Vec<Candidate>, String> {
    let names: Vec<&String> = extents.keys().collect();
    if names.is_empty() {
        return Err("no arrays to decompose".into());
    }
    if names.len() > 5 {
        return Err("advisor search space too large (> 5 arrays)".into());
    }
    let families: Vec<Vec<Decomp1>> = names
        .iter()
        .map(|n| candidates_for(extents[*n], pmax, &opts))
        .collect();
    let mut out = Vec::new();
    let mut pick = vec![0usize; names.len()];
    loop {
        let dm = (names.iter().zip(&pick))
            .enumerate()
            .map(|(k, (name, &at))| ((*name).clone(), families[k][at].clone()))
            .collect();
        out.extend(candidate(clauses, dm, &opts));
        // advance the odometer; done when every digit wraps
        let wrapped = (0..names.len()).all(|k| {
            pick[k] = (pick[k] + 1) % families[k].len();
            pick[k] == 0
        });
        if wrapped {
            break;
        }
    }
    out.sort_by(|a, b| {
        a.cost
            .total_cmp(&b.cost)
            .then(a.fingerprint.cmp(&b.fingerprint))
    });
    Ok(out)
}

/// Plan every clause under the assignment `dm` and score it, or `None`
/// if some clause has no plan under it. The tuner uses it to price an
/// incumbent assignment that the family or the budget left out.
pub fn candidate(clauses: &[Clause], dm: DecompMap, opts: &AdvisorOptions) -> Option<Candidate> {
    let mut plans = Vec::with_capacity(clauses.len());
    let (mut comm, mut max_work) = (0u64, 0u64);
    for clause in clauses {
        let plan = SpmdPlan::build(clause, &dm).ok()?;
        comm += CommStats::of_plan(&plan, &dm).sends;
        max_work += (plan.nodes.iter())
            .map(|n| n.modify.schedule.work_estimate())
            .max()
            .unwrap_or(0);
        plans.push(plan);
    }
    let fingerprint = decomp_fingerprint(&dm, dm.keys().map(String::as_str));
    Some(Candidate {
        decomps: dm,
        fingerprint,
        plans,
        comm,
        max_work,
        cost: comm as f64 * opts.comm_weight + max_work as f64,
    })
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

/// One-line description of a candidate: its assignment and its score.
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
        let ranked = advise(&[stencil(n)], &extents, 8, AdvisorOptions::default()).unwrap();
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
        let ranked = advise(
            &[stencil(n), consume],
            &extents,
            4,
            AdvisorOptions::default(),
        )
        .unwrap();
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
        let ranked = advise(&[stencil(n)], &extents, 4, AdvisorOptions::default()).unwrap();
        for pair in ranked.windows(2) {
            assert!(pair[0].cost <= pair[1].cost);
        }
        // 4 candidates per array (block, scatter, bs4, bs16), 2 arrays
        assert_eq!(ranked.len(), 16);
    }

    #[test]
    fn empty_input_rejected() {
        assert!(advise(&[], &BTreeMap::new(), 4, AdvisorOptions::default()).is_err());
    }

    #[test]
    fn ranking_is_deterministic_and_totally_ordered() {
        // a clause with no reads: every assignment of the read-free
        // array family costs the same work and zero comm, so the whole
        // ranking is one big cost tie — the fingerprint tie-break must
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
        let a = advise(
            std::slice::from_ref(&constant),
            &extents,
            4,
            AdvisorOptions::default(),
        )
        .unwrap();
        let b = advise(&[constant], &extents, 4, AdvisorOptions::default()).unwrap();
        let render = |v: &[Candidate]| -> Vec<String> { v.iter().map(describe).collect() };
        assert_eq!(render(&a), render(&b), "two runs must rank identically");
        for pair in a.windows(2) {
            assert!(
                (pair[0].cost, pair[0].fingerprint) < (pair[1].cost, pair[1].fingerprint),
                "strict total order violated: {} !< {}",
                describe(&pair[0]),
                describe(&pair[1])
            );
        }
    }
}
