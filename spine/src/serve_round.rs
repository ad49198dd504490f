//! `serve_round`: whole request round trips through the resident
//! service. One op is a round of 16 small requests and 1 bulk request
//! from one client: the small half is fixed per-request and per-step
//! overhead (32 clause executions of a few microseconds of kernel
//! each), the bulk half is codec and frame I/O. No other workload
//! touches the wire.

use crate::loop1d::{dspec, seeded_env};
use crate::span::Spans;
use crate::stats::{fnv_f64, SplitMix64, FNV_BASIS};
use crate::workload::{exec_seq, globals_of, Census, Counters, Phases, Workload};
use std::collections::BTreeMap;
use std::time::Instant;
use vcal_core::{Clause, Env};
use vcal_machine::{
    CollectingTracer, DistSession, ProgramStep, ScheduleMode, ServeClient, ServeConfig,
    ServeHandle, ServeRequest,
};
use vcal_spmd::{build_dag, DecompMap};

/// Small requests per round.
pub const SMALL_PER_ROUND: usize = 16;
/// Extent and timesteps of the small program.
pub const SMALL_N: i64 = 4096;
const SMALL_STEPS: u64 = 8;
/// Extent of the bulk request's two arrays.
pub const BULK_N: i64 = 256 << 10;

/// Two independent stencils, then their two copy-backs: a DAG of two
/// waves, each two clauses wide.
fn small_source() -> String {
    let hi = SMALL_N - 2;
    format!(
        "for i := 1 to {hi} do C[i] := 0.5*(A[i-1]+A[i+1]); od;\n\
         for i := 1 to {hi} do D[i] := 0.5*(B[i-1]+B[i+1]); od;\n\
         for i := 1 to {hi} do A[i] := C[i]; od;\n\
         for i := 1 to {hi} do B[i] := D[i]; od;\n"
    )
}

fn bulk_source() -> String {
    format!(
        "for i := 0 to {} do Y[i] := Y[i] + 0.5*X[i]; od;\n",
        BULK_N - 1
    )
}

/// One request kind: the program, its layouts and inputs.
struct Kind {
    clauses: Vec<Clause>,
    decomps: DecompMap,
    names: Vec<String>,
    inputs: Env,
    n_steps: u64,
    req: ServeRequest,
    /// The persistent in-process session of the traced run's direct
    /// path (same program, no wire, no per-request scatter).
    direct: Option<DistSession>,
}

impl Kind {
    fn new(source: &str, spec: &str, n_steps: u64, rng: &mut SplitMix64) -> Result<Kind, String> {
        let clauses = vcal_lang::compile(source).map_err(|e| e.to_string())?;
        let decomps = vcal_lang::parse_spec(spec)
            .map_err(|e| e.to_string())?
            .decomps;
        let inputs = seeded_env(&decomps, rng);
        let names: Vec<String> = decomps.keys().cloned().collect();
        let mut req = ServeRequest::new(
            steps_of(&clauses),
            decomps.clone(),
            globals_of(&inputs, &names),
            n_steps,
        );
        req.schedule = ScheduleMode::Dag;
        Ok(Kind {
            clauses,
            decomps,
            names,
            inputs,
            n_steps,
            req,
            direct: None,
        })
    }

    /// The request's program on the persistent direct session: reports
    /// into `c`, machine phases into `phases`.
    fn run_direct(&mut self, c: &mut Counters, phases: &mut Phases) -> Result<(), String> {
        let steps = steps_of(&self.clauses);
        if self.direct.is_none() {
            // plan, spawn the pool and fill the caches before any
            // measured run, as the service's shared tiers are by then
            let mut s =
                DistSession::new(&self.inputs, self.decomps.clone()).map_err(|e| e.to_string())?;
            s.run_program(&steps, ScheduleMode::Dag, &vcal_machine::NULL_TRACER)
                .map_err(|e| e.to_string())?;
            self.direct = Some(s);
        }
        let session = self.direct.as_mut().expect("set above");
        for _ in 0..self.n_steps {
            let tracer = CollectingTracer::new();
            let report = session
                .run_program(&steps, ScheduleMode::Dag, &tracer)
                .map_err(|e| e.to_string())?;
            for r in &report.steps {
                c.add_report(r);
            }
            phases.add_log(&tracer.finish());
        }
        std::hint::black_box(session.gather_all());
        Ok(())
    }

    /// Sequential reference: the response hash and the seconds it took.
    fn oracle(&self) -> (BTreeMap<String, Vec<f64>>, f64) {
        let mut env = self.inputs.clone();
        let t = Instant::now();
        for _ in 0..self.n_steps {
            exec_seq(&mut env, &self.clauses);
        }
        (globals_of(&env, &self.names), t.elapsed().as_secs_f64())
    }
}

fn steps_of(clauses: &[Clause]) -> Vec<ProgramStep> {
    clauses.iter().cloned().map(ProgramStep::Clause).collect()
}

fn fnv_globals(h: u64, globals: &BTreeMap<String, Vec<f64>>) -> u64 {
    globals.values().fold(h, |h, v| fnv_f64(h, v))
}

/// The service, one connected client and the two request kinds.
pub struct ServeRound {
    small: Kind,
    bulk: Kind,
    client: ServeClient,
    /// Kept for its `Drop`, which stops the service; declared after the
    /// client so the connection closes first.
    _service: ServeHandle,
    last_fnv: u64,
    /// Admission-queue waits the responses reported, in seconds.
    pub queue_waits: Vec<f64>,
}

impl ServeRound {
    /// Start the service (UDS listener, in-process pool, two requests
    /// at once) and connect one client. In a traced run also time the
    /// DAG builder alone and the first request of a few fresh tenants.
    pub fn new(seed: u64, spans: &mut Spans) -> Result<ServeRound, String> {
        let mut rng = SplitMix64(seed);
        let layout = |names: &[&str], n: i64| {
            dspec(n, &names.iter().map(|a| (*a, "block")).collect::<Vec<_>>())
        };
        let small = Kind::new(
            &small_source(),
            &layout(&["A", "B", "C", "D"], SMALL_N),
            SMALL_STEPS,
            &mut rng,
        )?;
        let bulk = Kind::new(&bulk_source(), &layout(&["X", "Y"], BULK_N), 1, &mut rng)?;
        let cfg = ServeConfig {
            concurrency: 2,
            ..ServeConfig::default()
        };
        let handle = spans
            .time("serve.start", || ServeHandle::start(cfg))
            .map_err(|e| e.to_string())?;
        let client = spans
            .time("serve.connect", || {
                ServeClient::connect(handle.addr(), "spine")
            })
            .map_err(|e| e.to_string())?;
        if spans.enabled() {
            for _ in 0..20 {
                spans.time("spmd.dag", || build_dag(&small.req.steps, &small.decomps));
            }
            for tenant in ["cold-1", "cold-2", "cold-3", "cold-4", "cold-5"] {
                let mut fresh =
                    ServeClient::connect(handle.addr(), tenant).map_err(|e| e.to_string())?;
                spans
                    .time("serve.tenant_cold", || fresh.request(&small.req))
                    .map_err(|e| e.to_string())?;
            }
        }
        Ok(ServeRound {
            small,
            bulk,
            client,
            _service: handle,
            last_fnv: 0,
            queue_waits: Vec::new(),
        })
    }

    /// Bytes one bulk request moves over the wire, in plus out.
    pub fn bulk_wire_bytes(&self) -> u64 {
        2 * 2 * BULK_N as u64 * 8
    }

    fn request(&mut self, bulk: bool, spans: &mut Spans, c: &mut Counters) -> Result<(), String> {
        let (req, span) = if bulk {
            (&self.bulk.req, "serve.bulk")
        } else {
            (&self.small.req, "serve.small")
        };
        let resp = spans
            .time(span, || self.client.request(req))
            .map_err(|e| e.to_string())?;
        c.add_service(&resp.service);
        c.result_fnv = fnv_globals(c.result_fnv, &resp.globals);
        self.queue_waits
            .push(resp.service.queue_wait_ns as f64 * 1e-9);
        Ok(())
    }

    fn round(&mut self, spans: &mut Spans) -> Result<Counters, String> {
        let mut c = Counters {
            result_fnv: FNV_BASIS,
            ..Counters::default()
        };
        spans.next_op();
        let op = spans.open("op.serve_round");
        for _ in 0..SMALL_PER_ROUND {
            self.request(false, spans, &mut c)?;
        }
        self.request(true, spans, &mut c)?;
        spans.close(op);
        self.last_fnv = c.result_fnv;
        Ok(c)
    }
}

impl Workload for ServeRound {
    fn op(&mut self) -> Result<Counters, String> {
        self.round(&mut Spans::off())
    }

    /// The wire round under spans, then the same programs on the direct
    /// path: the machine counters and phases of a round come from there,
    /// because a response carries only the service's counters.
    fn op_traced(&mut self, spans: &mut Spans, phases: &mut Phases) -> Result<Counters, String> {
        let mut c = self.round(spans)?;
        let (mut one, mut one_phases) = (Counters::default(), Phases::default());
        let direct = spans.open("serve.direct_small");
        let r = self.small.run_direct(&mut one, &mut one_phases);
        spans.close(direct);
        r?;
        for _ in 0..SMALL_PER_ROUND {
            c.add(&one);
            phases.add(&one_phases);
        }
        spans.time("serve.direct_bulk", || self.bulk.run_direct(&mut c, phases))?;
        Ok(c)
    }

    fn op_span(&self) -> &'static str {
        "op.serve_round"
    }

    /// Requests carry their inputs, so the state is the hash of the
    /// last round's responses.
    fn state_fnv(&mut self) -> Result<u64, String> {
        Ok(self.last_fnv)
    }

    fn oracle(&mut self, _ops: usize) -> (u64, f64) {
        let (small, small_secs) = self.small.oracle();
        let (bulk, bulk_secs) = self.bulk.oracle();
        let h = (0..SMALL_PER_ROUND).fold(FNV_BASIS, |h, _| fnv_globals(h, &small));
        (
            fnv_globals(h, &bulk),
            SMALL_PER_ROUND as f64 * small_secs + bulk_secs,
        )
    }

    fn census(&self) -> Census {
        let mut c = Census::default();
        for clause in &self.small.clauses {
            let times = SMALL_PER_ROUND as u64 * SMALL_STEPS;
            c.add_clause(clause, &self.small.decomps, times);
        }
        for clause in &self.bulk.clauses {
            c.add_clause(clause, &self.bulk.decomps, 1);
        }
        c
    }
}
