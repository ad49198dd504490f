//! Umbrella crate re-exporting the whole V-cal workspace for examples and
//! integration tests.
//!
//! The full pipeline in one example — source text to a verified parallel
//! execution:
//!
//! ```
//! use vcal_suite::{core, decomp::Decomp1, lang, machine, spmd};
//! use core::{Array, Bounds, Env};
//! use spmd::{DecompMap, SpmdPlan};
//!
//! // an ordinary loop (the paper's Fig. 1 shape)
//! let clause = lang::compile("for i := 0 to 30 do A[i] := B[i+1] * 0.5; od;")
//!     .unwrap()
//!     .remove(0);
//!
//! // decompositions chosen separately from the program
//! let mut decomps = DecompMap::new();
//! decomps.insert("A".into(), Decomp1::block(4, Bounds::range(0, 31)));
//! decomps.insert("B".into(), Decomp1::scatter(4, Bounds::range(0, 31)));
//!
//! // per-processor SPMD plan with closed-form schedules
//! let plan = SpmdPlan::build(&clause, &decomps).unwrap();
//!
//! // execute on the shared-memory machine and check vs the reference
//! let mut env = Env::new();
//! env.insert("A", Array::zeros(Bounds::range(0, 31)));
//! env.insert("B", Array::from_fn(Bounds::range(0, 31), |i| i.scalar() as f64));
//! let mut expect = env.clone();
//! expect.exec_clause(&clause);
//! machine::run_shared(&plan, &clause, &mut env).unwrap();
//! assert_eq!(env.get("A").unwrap().max_abs_diff(expect.get("A").unwrap()), 0.0);
//! ```
pub use vcal_core as core;
pub use vcal_decomp as decomp;
pub use vcal_lang as lang;
pub use vcal_machine as machine;
pub use vcal_numth as numth;
pub use vcal_spmd as spmd;
