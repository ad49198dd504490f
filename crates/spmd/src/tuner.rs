//! Decomposition auto-tuner: the candidate-space half.
//!
//! The advisor ([`crate::advisor`]) ranks decomposition assignments by
//! a *static* heuristic (communication volume × a fixed weight plus
//! critical-path work). The tuner closes the loop the paper's §4 cost
//! model opens: it takes the advisor's ranking of the bounded candidate
//! family — Block / Scatter / BlockScatter(b) per array — up to a
//! budget, and every candidate carries its per-clause
//! [`crate::SpmdPlan`]s, so an *execution-calibrated* cost model (fit
//! from measured trace timings, see
//! `vcal-machine::perfmodel::CalibratedModel`) can price it from its
//! plans alone, without executing any of them.
//!
//! This module is machine-independent: it owns the candidate space and
//! its deterministic total order (heuristic cost, then decomposition
//! fingerprint — so rankings are byte-stable across runs); pricing and
//! the amortized-redistribution decision live in `vcal-machine`
//! (`DistSession::run_program_tuned`), which depends on this crate.

use crate::advisor::{advise, AdvisorOptions, Candidate};
use crate::compiled::clause_arrays;
use std::collections::BTreeMap;
use vcal_core::{Bounds, Clause};

/// Tuner enumeration options.
#[derive(Debug, Clone, Copy)]
pub struct TuneSpaceOptions {
    /// Maximum number of candidates surviving enumeration (the
    /// `--tune-budget`). The incumbent assignment is priced regardless,
    /// so the tuner can always compare "switch" against "stay".
    pub budget: usize,
    /// The advisor knobs reused for the per-array layout family and the
    /// heuristic pre-ranking.
    pub advisor: AdvisorOptions,
}

impl Default for TuneSpaceOptions {
    fn default() -> Self {
        TuneSpaceOptions {
            budget: 16,
            advisor: AdvisorOptions::default(),
        }
    }
}

/// The enumerated, deterministically ordered candidate space.
#[derive(Debug, Clone)]
pub struct TuneSpace {
    /// Candidates, best-heuristic-first, truncated to the budget; the
    /// calibrated model re-prices each from its plans.
    pub candidates: Vec<Candidate>,
    /// Assignments enumerated before the budget cut (feasible ones).
    pub enumerated: usize,
}

/// Enumerate the candidate space for a clause program: the advisor's
/// ranking ([`advise`], bounded to ≤ 5 arrays, ordered by `(cost,
/// fingerprint)`), truncated to `opts.budget`.
///
/// `extents` maps each *tunable* array (every array the program
/// touches) to its index range; `pmax` is the processor count.
pub fn enumerate_candidates(
    clauses: &[Clause],
    extents: &BTreeMap<String, Bounds>,
    pmax: i64,
    opts: &TuneSpaceOptions,
) -> Result<TuneSpace, String> {
    if clauses.is_empty() {
        return Err("no clauses to tune".into());
    }
    if opts.budget == 0 {
        return Err("tune budget must be at least 1".into());
    }
    let mut candidates = advise(clauses, extents, pmax, opts.advisor)?;
    let enumerated = candidates.len();
    candidates.truncate(opts.budget);
    Ok(TuneSpace {
        candidates,
        enumerated,
    })
}

/// The arrays a clause program touches, sorted and deduplicated — the
/// tunable set whose extents [`enumerate_candidates`] needs.
pub fn program_arrays(clauses: &[Clause]) -> Vec<String> {
    let mut names: Vec<&str> = clauses.iter().flat_map(clause_arrays).collect();
    names.sort();
    names.dedup();
    names.into_iter().map(str::to_string).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::candidate;
    use crate::program::DecompMap;
    use vcal_core::func::Fn1;
    use vcal_core::{ArrayRef, Expr, Guard, IndexSet, Ordering};
    use vcal_decomp::{Decomp1, Distribution};

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
        let opts = TuneSpaceOptions::default();
        let a = enumerate_candidates(&clauses, &ex, 4, &opts).unwrap();
        let b = enumerate_candidates(&clauses, &ex, 4, &opts).unwrap();
        assert_eq!(a.enumerated, 16); // 4 layouts per array, 2 arrays
        assert_eq!(a.candidates.len(), 16);
        let fps =
            |s: &TuneSpace| -> Vec<u64> { s.candidates.iter().map(|c| c.fingerprint).collect() };
        assert_eq!(fps(&a), fps(&b));
        // the budget truncates the *tail* of the ranking
        let tight = enumerate_candidates(
            &clauses,
            &ex,
            4,
            &TuneSpaceOptions {
                budget: 3,
                ..TuneSpaceOptions::default()
            },
        )
        .unwrap();
        assert_eq!(tight.candidates.len(), 3);
        assert_eq!(tight.enumerated, 16);
        assert_eq!(fps(&tight), fps(&a)[..3].to_vec());
    }

    #[test]
    fn stencil_space_ranks_block_first() {
        let clauses = [stencil(256)];
        let ex = extents(256, &["U", "V"]);
        let space = enumerate_candidates(&clauses, &ex, 8, &TuneSpaceOptions::default()).unwrap();
        let best = &space.candidates[0];
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
        let c = candidate(&clauses, dm, &TuneSpaceOptions::default().advisor).unwrap();
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
        assert!(enumerate_candidates(&[], &ex, 4, &TuneSpaceOptions::default()).is_err());
        assert!(enumerate_candidates(
            &[stencil(64)],
            &BTreeMap::new(),
            4,
            &TuneSpaceOptions::default()
        )
        .is_err());
        assert!(enumerate_candidates(
            &[stencil(64)],
            &ex,
            4,
            &TuneSpaceOptions {
                budget: 0,
                ..TuneSpaceOptions::default()
            }
        )
        .is_err());
        let six = extents(64, &["A", "B", "C", "D", "E", "F"]);
        assert!(
            enumerate_candidates(&[stencil(64)], &six, 4, &TuneSpaceOptions::default())
                .unwrap_err()
                .contains("too large")
        );
    }
}
