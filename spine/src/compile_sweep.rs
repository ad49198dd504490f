//! `compile_sweep`: the compile-time workload. One op is one pass over
//! a seeded matrix of cold programs, each taken from source text and
//! `.dspec` text through parse, translate, plan, prepare, pool spawn,
//! one execution and gather. Planning dominates and execution is small:
//! the mirror image of `stream`.

use crate::loop1d::{dspec, seeded_env};
use crate::span::Spans;
use crate::stats::{fnv_f64, SplitMix64, FNV_BASIS};
use crate::workload::{exec_seq, Census, Counters, Phases, Workload};
use std::time::Instant;
use vcal_core::Env;
use vcal_machine::{prepare_run, CollectingTracer, DistSession};
use vcal_spmd::{CompiledSchedule, SpmdPlan};

/// Array extents of the matrix.
pub const SIZES: [i64; 2] = [8 << 10, 64 << 10];

const LAYOUTS: [&str; 3] = ["block", "scatter", "blockscatter(4)"];

/// The Table I function classes the matrix covers, by the access
/// function that makes the planner take that row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// `U[c]`: every iteration reads one element.
    Const,
    /// `U[i+c]`.
    Shift,
    /// `V[2*i+1]`: the stride divides the processor count's layouts.
    AffineDiv,
    /// `V[3*i+1]`: the stride is coprime to them, the gcd path.
    AffineGcd,
    /// `U[i-1]`, `U[i+1]`: two reads that cross block edges.
    Stencil,
}

const CLASSES: [Class; 5] = [
    Class::Const,
    Class::Shift,
    Class::AffineDiv,
    Class::AffineGcd,
    Class::Stencil,
];

impl Class {
    fn plan_span(self) -> &'static str {
        match self {
            Class::Const => "spmd.plan.const",
            Class::Shift => "spmd.plan.shift",
            Class::AffineDiv => "spmd.plan.affine_div",
            Class::AffineGcd => "spmd.plan.affine_gcd",
            Class::Stencil => "spmd.plan.stencil",
        }
    }

    /// Source text over `[0, n)`; `c` is the seeded offset.
    fn source(self, n: i64, c: i64) -> String {
        match self {
            Class::Const => format!(
                "for i := 0 to {} do V[i] := U[{}] + 1.5; od;",
                n - 1,
                c.rem_euclid(n)
            ),
            Class::Shift => format!(
                "for i := {} to {} do V[i] := U[i{c:+}]; od;",
                (-c).max(0),
                n - 1 - c.max(0)
            ),
            Class::AffineDiv => format!("for i := 0 to {} do V[2*i+1] := U[i]; od;", n / 2 - 1),
            Class::AffineGcd => format!("for i := 0 to {} do V[3*i+1] := U[i]; od;", (n - 2) / 3),
            Class::Stencil => format!(
                "for i := 1 to {} do V[i] := 0.5*(U[i-1]+U[i+1]); od;",
                n - 2
            ),
        }
    }
}

struct Program {
    class: Class,
    size: usize,
    source: String,
    spec: String,
}

/// The matrix and one input environment per array extent.
pub struct CompileSweep {
    programs: Vec<Program>,
    inputs: [Env; 2],
    last_fnv: u64,
}

impl CompileSweep {
    /// Build the 90 programs; `seed` draws the array values, the
    /// offsets `c` and the order of the matrix.
    pub fn new(seed: u64) -> Result<CompileSweep, String> {
        let mut rng = SplitMix64(seed);
        let mut programs = Vec::new();
        for class in CLASSES {
            for v in LAYOUTS {
                for u in LAYOUTS {
                    for (size, &n) in SIZES.iter().enumerate() {
                        let c = rng.range(1, 64)
                            * if rng.next_u64().is_multiple_of(2) {
                                1
                            } else {
                                -1
                            };
                        programs.push(Program {
                            class,
                            size,
                            source: class.source(n, c),
                            spec: dspec(n, &[("V", v), ("U", u)]),
                        });
                    }
                }
            }
        }
        for k in (1..programs.len()).rev() {
            programs.swap(k, rng.range(0, k as i64) as usize);
        }
        let inputs_of = |n: i64, rng: &mut SplitMix64| -> Result<Env, String> {
            let spec = vcal_lang::parse_spec(&dspec(n, &[("V", "block"), ("U", "block")]))
                .map_err(|e| e.to_string())?;
            Ok(seeded_env(&spec.decomps, rng))
        };
        let inputs = [
            inputs_of(SIZES[0], &mut rng)?,
            inputs_of(SIZES[1], &mut rng)?,
        ];
        Ok(CompileSweep {
            programs,
            inputs,
            last_fnv: 0,
        })
    }

    /// One pass. With spans on, the planner, `compile_exec` and
    /// `prepare_run` are also called directly on the same inputs so each
    /// gets a span of its own; the first run repeats that work inside.
    fn pass(&self, spans: &mut Spans, phases: &mut Phases) -> Result<Counters, String> {
        let mut c = Counters {
            result_fnv: FNV_BASIS,
            ..Counters::default()
        };
        spans.next_op();
        let op = spans.open("op.compile_sweep");
        for p in &self.programs {
            let stmts = spans
                .time("lang.parse", || vcal_lang::parse(&p.source))
                .map_err(|e| e.to_string())?;
            let clauses = spans
                .time("lang.translate", || vcal_lang::translate_program(&stmts))
                .map_err(|e| e.to_string())?;
            let spec = spans
                .time("lang.dspec", || vcal_lang::parse_spec(&p.spec))
                .map_err(|e| e.to_string())?;
            if spans.enabled() {
                for clause in &clauses {
                    let plan = spans
                        .time(p.class.plan_span(), || {
                            SpmdPlan::build(clause, &spec.decomps)
                        })
                        .map_err(|e| e.to_string())?;
                    spans.time("spmd.compile_exec", || {
                        CompiledSchedule::compile_exec(&plan, clause, &spec.decomps)
                    });
                    spans
                        .time("machine.prepare", || {
                            prepare_run(plan, clause, &spec.decomps)
                        })
                        .map_err(|e| e.to_string())?;
                }
            }
            let mut session = spans
                .time("machine.session_new", || {
                    DistSession::new(&self.inputs[p.size], spec.decomps)
                })
                .map_err(|e| e.to_string())?;
            let first = spans.open("machine.first_run");
            for clause in &clauses {
                let report = if spans.enabled() {
                    let tracer = CollectingTracer::new();
                    let r = session.run_traced(clause, &tracer);
                    phases.add_log(&tracer.finish());
                    r
                } else {
                    session.run(clause)
                };
                c.add_report(&report.map_err(|e| e.to_string())?);
            }
            spans.close(first);
            let out = spans
                .time("machine.gather", || session.gather("V"))
                .map_err(|e| e.to_string())?;
            c.result_fnv = fnv_f64(c.result_fnv, out.data());
            spans.time("machine.session_drop", || drop(session));
        }
        spans.close(op);
        Ok(c)
    }
}

impl Workload for CompileSweep {
    fn op(&mut self) -> Result<Counters, String> {
        self.op_traced(&mut Spans::off(), &mut Phases::default())
    }

    fn op_traced(&mut self, spans: &mut Spans, phases: &mut Phases) -> Result<Counters, String> {
        let c = self.pass(spans, phases)?;
        self.last_fnv = c.result_fnv;
        Ok(c)
    }

    fn op_span(&self) -> &'static str {
        "op.compile_sweep"
    }

    /// Every pass starts from the same inputs, so the state is the
    /// result hash of the last pass.
    fn state_fnv(&mut self) -> Result<u64, String> {
        Ok(self.last_fnv)
    }

    fn oracle(&mut self, _ops: usize) -> (u64, f64) {
        let mut h = FNV_BASIS;
        let mut secs = 0.0;
        for p in &self.programs {
            let clauses = vcal_lang::compile(&p.source).expect("compiled in every pass");
            let mut env = self.inputs[p.size].clone();
            let t = Instant::now();
            exec_seq(&mut env, &clauses);
            secs += t.elapsed().as_secs_f64();
            h = fnv_f64(h, env.get("V").map_or(&[][..], |a| a.data()));
        }
        (h, secs)
    }

    fn census(&self) -> Census {
        let mut c = Census::default();
        for p in &self.programs {
            let (Ok(clauses), Ok(spec)) = (
                vcal_lang::compile(&p.source),
                vcal_lang::parse_spec(&p.spec),
            ) else {
                continue;
            };
            for clause in &clauses {
                c.add_clause(clause, &spec.decomps, 1);
            }
        }
        c
    }
}
