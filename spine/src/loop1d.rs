//! A warm loop of one 1-D program on a `DistSession`: the shape of the
//! `stream` and `exchange` workloads and of the comm probes. The
//! program and the decompositions arrive as source text, the way a user
//! hands them to `vcalc`.

use crate::span::Spans;
use crate::stats::SplitMix64;
use crate::workload::{exec_seq_ops, fnv_env, Census, Counters, Phases, Workload, PMAX};
use vcal_core::{Array, Bounds, Clause, Env};
use vcal_machine::{prepare_run, CollectingTracer, DistSession};
use vcal_spmd::{DecompMap, SpmdPlan};

/// One 1-D program over arrays of one extent.
pub struct Loop1d {
    clauses: Vec<Clause>,
    decomps: DecompMap,
    names: Vec<String>,
    inputs: Env,
    session: DistSession,
    op_span: &'static str,
}

/// `.dspec` text for `arrays` of extent `[0, n)`: `(name, layout)`.
pub fn dspec(n: i64, arrays: &[(&str, &str)]) -> String {
    let mut s = format!("processors {PMAX};\n");
    for (name, layout) in arrays {
        s += &format!("array {name}[0 to {}] {layout};\n", n - 1);
    }
    s
}

/// Seeded initial values for every array the spec names.
pub fn seeded_env(decomps: &DecompMap, rng: &mut SplitMix64) -> Env {
    let mut env = Env::new();
    for (name, dec) in decomps {
        let b: Bounds = dec.extent();
        env.insert(name.clone(), Array::from_fn(b, |_| rng.value()));
    }
    env
}

impl Loop1d {
    /// Compile `program` and `spec`, draw the arrays from `seed` and
    /// scatter them. Traced ops are recorded as `op_span`. With a
    /// `prepare_span`, `prepare_run` is also called directly on each
    /// clause under that name, so its cost at this extent shows alone
    /// (the first run repeats the work inside).
    pub fn new(
        program: &str,
        spec: &str,
        seed: u64,
        op_span: &'static str,
        prepare_span: Option<&'static str>,
        spans: &mut Spans,
    ) -> Result<Loop1d, String> {
        let clauses = vcal_lang::compile(program).map_err(|e| e.to_string())?;
        let spec = vcal_lang::parse_spec(spec).map_err(|e| e.to_string())?;
        let inputs = seeded_env(&spec.decomps, &mut SplitMix64(seed));
        let session = DistSession::new(&inputs, spec.decomps.clone()).map_err(|e| e.to_string())?;
        if let Some(span) = prepare_span {
            for c in &clauses {
                let plan = SpmdPlan::build(c, &spec.decomps).map_err(|e| e.to_string())?;
                spans
                    .time(span, || prepare_run(plan, c, &spec.decomps))
                    .map_err(|e| e.to_string())?;
            }
        }
        Ok(Loop1d {
            op_span,
            clauses,
            names: spec.decomps.keys().cloned().collect(),
            decomps: spec.decomps,
            inputs,
            session,
        })
    }

    /// Elements one op updates, over all clauses.
    pub fn elems_per_op(&self) -> u64 {
        self.clauses.iter().map(|c| c.iter.bounds.count()).sum()
    }
}

impl Workload for Loop1d {
    fn op(&mut self) -> Result<Counters, String> {
        let mut c = Counters::default();
        for clause in &self.clauses {
            c.add_report(&self.session.run(clause).map_err(|e| e.to_string())?);
        }
        Ok(c)
    }

    fn op_traced(&mut self, spans: &mut Spans, phases: &mut Phases) -> Result<Counters, String> {
        let mut c = Counters::default();
        // one tracer per execution: the bottleneck node is per run
        let tracers: Vec<CollectingTracer> = self
            .clauses
            .iter()
            .map(|_| CollectingTracer::new())
            .collect();
        spans.next_op();
        let op = spans.open(self.op_span);
        for (clause, tracer) in self.clauses.iter().zip(&tracers) {
            let run = spans.open("machine.run");
            let report = self.session.run_traced(clause, tracer);
            spans.close(run);
            c.add_report(&report.map_err(|e| e.to_string())?);
        }
        spans.close(op);
        for tracer in &tracers {
            phases.add_log(&tracer.finish());
        }
        Ok(c)
    }

    fn op_span(&self) -> &'static str {
        self.op_span
    }

    fn state_fnv(&mut self) -> Result<u64, String> {
        Ok(fnv_env(&self.session.gather_all(), &self.names))
    }

    fn oracle(&mut self, ops: usize) -> (u64, f64) {
        let mut env = std::mem::take(&mut self.inputs);
        let one = exec_seq_ops(&mut env, &self.clauses, ops);
        (fnv_env(&env, &self.names), one)
    }

    fn census(&self) -> Census {
        let mut c = Census::default();
        for clause in &self.clauses {
            c.add_clause(clause, &self.decomps, 1);
        }
        c
    }
}
