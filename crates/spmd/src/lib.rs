//! # vcal-spmd — SPMD program generation and Table I optimization
//!
//! The compile-time half of the paper: given a clause and a decomposition
//! for every array, derive per-processor node programs whose iteration
//! sets are *closed-form* wherever Section 3's theorems apply:
//!
//! * [`schedule`] — run-time iteration schedules (`gen_p(t)` made
//!   executable): ranges, strides, repeated block, repeated scatter,
//!   piecewise concatenations, and the naive guarded loop they replace;
//! * [`optimizer`] — the Table I classification engine (Theorems 1–3,
//!   Corollaries 1–2, the `df/di < pmax` rule, breakpoint splitting);
//! * [`program`] — whole-clause SPMD plans: Modify/Reside schedules per
//!   processor plus communication statistics;
//! * [`comm`] — plan-time communication schedules: per-ordered-pair
//!   send/receive sets (`Reside_p ∩ Modify_q`) coalesced into strided
//!   runs, enabling vectorized message aggregation in the machines;
//! * [`cost`] — the one cost model: a plan's census priced per unit
//!   (§4), which every layout decision uses;
//! * [`nest`] — the one pattern algebra every strided table is built
//!   on: a base plus up to three `(count, stride)` levels;
//! * [`emit`] — pseudo-code rendering of the Section 2.9 / 2.10 templates
//!   and the Section 4 loop skeletons;
//! * [`validate`] — brute-force oracles the tests and benches check
//!   every schedule against.
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod advisor;
pub mod cache;
pub mod comm;
pub mod compiled;
pub mod cost;
pub mod dag;
pub mod derivation;
pub mod emit;
pub mod kernel;
pub mod nd;
pub mod nest;
pub mod obs;
pub mod optimizer;
pub mod program;
pub mod schedule;
pub mod simd;
pub mod validate;

pub use advisor::{
    advise, candidate, candidates_for, describe_assignment, program_arrays, Candidate,
};
pub use cache::{BoundedLru, CacheBudget};
pub use comm::{packetise, plan_comm, CommRun, NodeCommPlan, PairComm, PACKET_ELEMS};
pub use compiled::{
    clause_arrays, clause_signature, decomp_fingerprint, flatten_schedule, plan_key, plan_words,
    AccessPattern, CompiledNode, CompiledSchedule, ExecRun, OverlapCensus, SendPair, SendSeg,
    SlotAccess,
};
pub use cost::{CostModel, NodeCensus, Price, PACK_HEADER_BYTES};
pub use dag::{build_dag, program_signature, DepEdge, DepKind, ProgramDag, ProgramStep};
pub use derivation::derive;
pub use kernel::{CompiledKernel, FusedShape, KernelOp};
pub use nd::{lower_nd, optimize_nd, ScheduleNd};
pub use nest::Nest;
pub use obs::{NodeDispatch, PlanSummary, SlotDispatch};
pub use optimizer::{naive_schedule, optimize, optimize_with, OptKind, OptOptions, Optimized};
pub use program::{CommStats, DecompMap, NodePlan, PlanError, ResidePlan, SpmdPlan};
pub use schedule::{repeated_block_kmax, Schedule};
pub use simd::{SimdCensus, SimdPolicy};
