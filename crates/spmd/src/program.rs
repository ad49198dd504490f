//! SPMD node plans: the per-processor product of the paper's Section 2.6
//! derivation, ready for execution by `vcal-machine`.
//!
//! For a 1-D clause `∆(i ∈ (imin:imax)) ◊ [f(i)]A := Expr([g(i)]B, ...)`
//! and a decomposition assignment for every array, an [`SpmdPlan`] holds,
//! for each processor `p`:
//!
//! * the **Modify** schedule — the owner-computes iteration set
//!   `{ i | proc_A(f(i)) = p }`, optimized per Table I;
//! * one **Reside** schedule per read reference — `{ i | proc_B(g(i)) = p }`,
//!   from which the distributed-memory template derives its send set
//!   (`Reside_p \ Modify_p`) with an O(1) ownership test per element
//!   instead of a set-difference enumeration.

use crate::comm::NodeCommPlan;
use crate::optimizer::{optimize, Optimized};
use std::collections::BTreeMap;
use vcal_core::func::Fn1;
use vcal_core::{Bounds, Clause, Ordering};
use vcal_decomp::Decomp1;

/// Decomposition assignment: array name → its decomposition.
pub type DecompMap = BTreeMap<String, Decomp1>;

/// One read access of the clause, with its per-processor Reside schedule.
#[derive(Debug, Clone)]
pub struct ResidePlan {
    /// The read array.
    pub array: String,
    /// Its access function `g`.
    pub g: Fn1,
    /// `{ i | proc_B(g(i)) = p }`, optimized.
    pub opt: Optimized,
    /// Whether the array is replicated (reads never communicate).
    pub replicated: bool,
}

/// The per-processor slice of an SPMD program.
#[derive(Debug, Clone)]
pub struct NodePlan {
    /// Processor id.
    pub p: i64,
    /// Owner-computes iteration schedule for the written array.
    pub modify: Optimized,
    /// Reside schedules, one per distinct read reference.
    pub resides: Vec<ResidePlan>,
    /// Plan-time communication schedule: per-peer send/receive runs
    /// derived from `Reside_p ∩ Modify_q` (see [`crate::comm`]).
    pub comm: NodeCommPlan,
}

/// A complete SPMD plan for a 1-D clause.
#[derive(Debug, Clone)]
pub struct SpmdPlan {
    /// Number of processors.
    pub pmax: i64,
    /// Loop bounds `(imin, imax)`.
    pub loop_bounds: (i64, i64),
    /// The written array's name.
    pub lhs_array: String,
    /// The written array's access function `f`.
    pub f: Fn1,
    /// The clause ordering (`//` plans execute in parallel; `•` plans are
    /// only valid on a single processor or with DOACROSS-style sync, which
    /// the machines reject).
    pub ordering: Ordering,
    /// Per-processor plans, indexed by `p`.
    pub nodes: Vec<NodePlan>,
}

/// Errors from plan construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The clause iterates a multi-dimensional index set.
    NotOneDimensional,
    /// An array in the clause has no decomposition assigned.
    MissingDecomposition(String),
    /// Arrays are decomposed over different processor counts.
    ProcessorCountMismatch,
    /// The iteration set carries a non-trivial compile-time predicate
    /// (not supported by the closed-form schedules).
    PredicatedIteration,
    /// An array is indexed with a rank other than the loop's or its
    /// decomposition's.
    RankMismatch(String),
    /// An access reaches `value`, outside the array's extent `(lo, hi)`
    /// (along one axis of an n-D array).
    OutOfExtent {
        /// The array accessed.
        array: String,
        /// A subscript the loop reaches.
        value: i64,
        /// The extent's `(lo, hi)`.
        extent: (i64, i64),
    },
}

impl PlanError {
    /// `Ok` when `f` keeps `[imin, imax]` inside `extent` (along its
    /// first axis).
    pub(crate) fn check_extent(
        f: &Fn1,
        imin: i64,
        imax: i64,
        array: &str,
        extent: &Bounds,
    ) -> Result<(), PlanError> {
        let extent = (extent.lo()[0], extent.hi()[0]);
        match f.first_outside(imin, imax, extent.0, extent.1) {
            Some(value) => Err(PlanError::OutOfExtent {
                array: array.into(),
                value,
                extent,
            }),
            None => Ok(()),
        }
    }
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NotOneDimensional => {
                write!(f, "SPMD plans require a 1-D iteration space")
            }
            PlanError::MissingDecomposition(a) => {
                write!(f, "array `{a}` has no decomposition assigned")
            }
            PlanError::ProcessorCountMismatch => {
                write!(f, "all decompositions must use the same processor count")
            }
            PlanError::PredicatedIteration => {
                write!(
                    f,
                    "iteration sets with compile-time predicates are not supported"
                )
            }
            PlanError::RankMismatch(a) => write!(
                f,
                "array `{a}` is indexed with a rank other than the loop's or its decomposition's"
            ),
            PlanError::OutOfExtent {
                array,
                value,
                extent: (lo, hi),
            } => write!(
                f,
                "array `{array}` is accessed at {value}, outside its extent [{lo}, {hi}]"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

impl SpmdPlan {
    /// Derive the SPMD plan of `clause` under `decomps` — the executable
    /// form of the paper's Eq. (3).
    pub fn build(clause: &Clause, decomps: &DecompMap) -> Result<SpmdPlan, PlanError> {
        Self::build_impl(clause, decomps, false)
    }

    /// Like [`SpmdPlan::build`] but with every schedule left in naive
    /// guarded form — the baseline whose run-time membership tests the
    /// paper's optimizations eliminate.
    pub fn build_naive(clause: &Clause, decomps: &DecompMap) -> Result<SpmdPlan, PlanError> {
        Self::build_impl(clause, decomps, true)
    }

    fn build_impl(
        clause: &Clause,
        decomps: &DecompMap,
        naive: bool,
    ) -> Result<SpmdPlan, PlanError> {
        if clause.iter.dims() != 1 {
            return Err(PlanError::NotOneDimensional);
        }
        if !clause.iter.pred.is_true() {
            return Err(PlanError::PredicatedIteration);
        }
        let imin = clause.iter.bounds.lo()[0];
        let imax = clause.iter.bounds.hi()[0];

        let f = clause
            .lhs
            .map
            .as_fn1()
            .cloned()
            .ok_or(PlanError::NotOneDimensional)?;
        let dec_lhs = decomps
            .get(&clause.lhs.array)
            .ok_or_else(|| PlanError::MissingDecomposition(clause.lhs.array.clone()))?;
        let pmax = dec_lhs.pmax();
        PlanError::check_extent(&f, imin, imax, &clause.lhs.array, &dec_lhs.extent())?;

        // gather the distinct read accesses (array, g)
        let mut reads: Vec<(String, Fn1)> = Vec::new();
        for r in clause.read_refs() {
            let g = r
                .map
                .as_fn1()
                .cloned()
                .ok_or(PlanError::NotOneDimensional)?;
            if !reads.iter().any(|(a, h)| *a == r.array && *h == g) {
                reads.push((r.array.clone(), g));
            }
        }
        for (a, _) in &reads {
            let d = decomps
                .get(a)
                .ok_or_else(|| PlanError::MissingDecomposition(a.clone()))?;
            if d.pmax() != pmax {
                return Err(PlanError::ProcessorCountMismatch);
            }
        }
        for (a, g) in &reads {
            PlanError::check_extent(g, imin, imax, a, &decomps[a].extent())?;
        }

        let pick = |g: &Fn1, d: &Decomp1, p: i64| {
            if naive {
                Optimized {
                    schedule: crate::optimizer::naive_schedule(g, d, imin, imax, p),
                    kind: crate::optimizer::OptKind::Naive,
                }
            } else {
                optimize(g, d, imin, imax, p)
            }
        };
        let mut nodes = (0..pmax)
            .map(|p| {
                let modify = pick(&f, dec_lhs, p);
                let resides = reads
                    .iter()
                    .map(|(a, g)| {
                        let d = &decomps[a];
                        let opt = if d.is_replicated() {
                            // every index resides here; communication never
                            // needed for this read
                            Optimized {
                                schedule: crate::schedule::Schedule::range(imin, imax),
                                kind: crate::optimizer::OptKind::ReplicatedOwner,
                            }
                        } else {
                            pick(g, d, p)
                        };
                        ResidePlan {
                            array: a.clone(),
                            g: g.clone(),
                            opt,
                            replicated: d.is_replicated(),
                        }
                    })
                    .collect();
                NodePlan {
                    p,
                    modify,
                    resides,
                    comm: NodeCommPlan::default(),
                }
            })
            .collect::<Vec<_>>();

        let dec_reads: Vec<&Decomp1> = reads.iter().map(|(a, _)| &decomps[a]).collect();
        let comms = crate::comm::plan_comm(&nodes, &f, dec_lhs, &dec_reads, (imin, imax));
        for (node, comm) in nodes.iter_mut().zip(comms) {
            node.comm = comm;
        }

        Ok(SpmdPlan {
            pmax,
            loop_bounds: (imin, imax),
            lhs_array: clause.lhs.array.clone(),
            f,
            ordering: clause.ordering,
            nodes,
        })
    }

    /// Sum of the per-processor loop-overhead work (Section 3's complexity
    /// measure): tests + visits across all processors.
    pub fn total_work(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.modify.schedule.work_estimate())
            .sum()
    }
}

/// Communication statistics for a clause under given decompositions,
/// computed per the Section 2.10 classification (pure analysis — no
/// machine required).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Elements sent between distinct processors.
    pub sends: u64,
    /// Elements consumed from remote memories (equals `sends`).
    pub receives: u64,
    /// Purely local updates.
    pub local_updates: u64,
}

impl CommStats {
    /// Analyze a plan: for every read of every modify-iteration, classify
    /// local vs remote.
    pub fn of_plan(plan: &SpmdPlan, decomps: &DecompMap) -> CommStats {
        let mut stats = CommStats::default();
        for node in &plan.nodes {
            let mut remote_reads_here = 0u64;
            let mut all_local = 0u64;
            node.modify.schedule.for_each(|i| {
                let mut any_remote = false;
                for rp in &node.resides {
                    if rp.replicated {
                        continue;
                    }
                    let d = &decomps[&rp.array];
                    if d.proc_of(rp.g.eval(i)) != node.p {
                        remote_reads_here += 1;
                        any_remote = true;
                    }
                }
                if !any_remote {
                    all_local += 1;
                }
            });
            stats.sends += remote_reads_here;
            stats.receives += remote_reads_here;
            stats.local_updates += all_local;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcal_core::{ArrayRef, Bounds, Expr, Guard, IndexSet};

    fn copy_clause(n: i64, f: Fn1, g: Fn1) -> Clause {
        Clause {
            iter: IndexSet::range(0, n - 1),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("A", f),
            rhs: Expr::Ref(ArrayRef::d1("B", g)),
        }
    }

    fn decomps(a: Decomp1, b: Decomp1) -> DecompMap {
        let mut m = DecompMap::new();
        m.insert("A".into(), a);
        m.insert("B".into(), b);
        m
    }

    #[test]
    fn plan_partitions_iterations() {
        let n = 64;
        let clause = copy_clause(n, Fn1::identity(), Fn1::identity());
        let dm = decomps(
            Decomp1::block(4, Bounds::range(0, n - 1)),
            Decomp1::scatter(4, Bounds::range(0, n - 1)),
        );
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        let mut seen = vec![0u32; n as usize];
        for node in &plan.nodes {
            node.modify.schedule.for_each(|i| seen[i as usize] += 1);
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn comm_stats_block_vs_block_is_zero() {
        let n = 64;
        let clause = copy_clause(n, Fn1::identity(), Fn1::identity());
        let a = Decomp1::block(4, Bounds::range(0, n - 1));
        let dm = decomps(a.clone(), a);
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        let stats = CommStats::of_plan(&plan, &dm);
        assert_eq!(stats.sends, 0);
        assert_eq!(stats.local_updates, 64);
    }

    #[test]
    fn comm_stats_block_vs_scatter_communicates() {
        let n = 64;
        let clause = copy_clause(n, Fn1::identity(), Fn1::identity());
        let dm = decomps(
            Decomp1::block(4, Bounds::range(0, n - 1)),
            Decomp1::scatter(4, Bounds::range(0, n - 1)),
        );
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        let stats = CommStats::of_plan(&plan, &dm);
        // block p owns i in [16p, 16p+15]; scatter owner is i mod 4 == p.
        // locals: i with i div 16 == i mod 4 -> 16 of 64
        assert_eq!(stats.local_updates, 16);
        assert_eq!(stats.sends, 48);
        assert_eq!(stats.receives, stats.sends);
    }

    #[test]
    fn stencil_on_block_communicates_only_boundaries() {
        // A[i] := B[i-1], both block: one boundary element per processor pair
        let clause = Clause {
            iter: IndexSet::range(1, 63),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("A", Fn1::identity()),
            rhs: Expr::Ref(ArrayRef::d1("B", Fn1::shift(-1))),
        };
        let a = Decomp1::block(4, Bounds::range(0, 63));
        let dm = decomps(a.clone(), a);
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        let stats = CommStats::of_plan(&plan, &dm);
        assert_eq!(stats.sends, 3); // p1,p2,p3 each need one halo element
        assert_eq!(stats.local_updates, 60);
    }

    #[test]
    fn replicated_reads_never_communicate() {
        let n = 32;
        let clause = copy_clause(n, Fn1::identity(), Fn1::identity());
        let dm = decomps(
            Decomp1::block(4, Bounds::range(0, n - 1)),
            Decomp1::replicated(4, Bounds::range(0, n - 1)),
        );
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        let stats = CommStats::of_plan(&plan, &dm);
        assert_eq!(stats.sends, 0);
        assert_eq!(stats.local_updates, 32);
    }

    #[test]
    fn guard_reads_are_tracked() {
        // clause with a guard on C adds C to reside plans
        let clause = Clause {
            iter: IndexSet::range(0, 15),
            ordering: Ordering::Par,
            guard: Guard::Cmp {
                lhs: ArrayRef::d1("C", Fn1::identity()),
                op: vcal_core::CmpOp::Gt,
                rhs: 0.0,
            },
            lhs: ArrayRef::d1("A", Fn1::identity()),
            rhs: Expr::Ref(ArrayRef::d1("B", Fn1::identity())),
        };
        let mut dm = decomps(
            Decomp1::block(4, Bounds::range(0, 15)),
            Decomp1::block(4, Bounds::range(0, 15)),
        );
        dm.insert("C".into(), Decomp1::scatter(4, Bounds::range(0, 15)));
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        assert_eq!(plan.nodes[0].resides.len(), 2); // B and C
    }

    #[test]
    fn errors() {
        let clause = copy_clause(8, Fn1::identity(), Fn1::identity());
        let dm = DecompMap::new();
        assert_eq!(
            SpmdPlan::build(&clause, &dm).unwrap_err(),
            PlanError::MissingDecomposition("A".into())
        );
        let dm = decomps(
            Decomp1::block(4, Bounds::range(0, 7)),
            Decomp1::block(2, Bounds::range(0, 7)),
        );
        assert_eq!(
            SpmdPlan::build(&clause, &dm).unwrap_err(),
            PlanError::ProcessorCountMismatch
        );
    }

    #[test]
    fn dedup_identical_reads() {
        // B[i] appearing twice in the expression produces one reside plan
        let clause = Clause {
            iter: IndexSet::range(0, 15),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("A", Fn1::identity()),
            rhs: Expr::add(
                Expr::Ref(ArrayRef::d1("B", Fn1::identity())),
                Expr::Ref(ArrayRef::d1("B", Fn1::identity())),
            ),
        };
        let dm = decomps(
            Decomp1::block(4, Bounds::range(0, 15)),
            Decomp1::block(4, Bounds::range(0, 15)),
        );
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        assert_eq!(plan.nodes[0].resides.len(), 1);
    }
}
