//! What every workload gives the harness: a closed loop of ops from
//! one client thread, exact counters per op, a state hash, and the
//! sequential oracle on a copy of the same inputs.

use crate::span::Spans;
use std::collections::BTreeMap;
use vcal_core::{Clause, Env};
use vcal_machine::{ExecReport, Phase, ServiceStats, TraceLog};
use vcal_spmd::{DecompMap, SimdPolicy, SpmdPlan};

/// Node threads behind every workload: one per core of the sizing box
/// (`nproc` = 2). With the client thread blocked on each op there are
/// never more runnable threads than cores.
pub const PMAX: i64 = 2;

/// Ops of a fresh workload whose result is compared with the oracle.
pub const CHECK_OPS: usize = 3;

/// The counters of one op that must repeat exactly on every later op.
/// Machine counters come from the public `ExecReport`, service counters
/// from `ServiceStats`; `result_fnv` is the hash of the op's output
/// where the output is a pure function of the inputs (0 where the op
/// advances state that `Workload::state_fnv` covers instead).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub iterations: u64,
    pub msgs_sent: u64,
    pub packets_sent: u64,
    pub bytes_sent: u64,
    pub max_packet_elems: u64,
    pub local_reads: u64,
    pub simd_lane_elems: u64,
    pub simd_fallback_runs: u64,
    pub retransmits: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub dag_hits: u64,
    pub dag_misses: u64,
    pub evictions: u64,
    pub result_fnv: u64,
}

impl Counters {
    /// Add one clause execution.
    pub fn add_report(&mut self, r: &ExecReport) {
        let t = r.total();
        self.iterations += t.iterations;
        self.msgs_sent += t.msgs_sent;
        self.packets_sent += t.packets_sent;
        self.bytes_sent += t.bytes_sent;
        self.max_packet_elems = self.max_packet_elems.max(t.max_packet_elems);
        self.local_reads += t.local_reads;
        self.simd_lane_elems += t.simd_lane_elems;
        self.simd_fallback_runs += t.simd_fallback_runs;
        self.retransmits += t.retransmits;
        self.cache_hits += r.cache_hits;
        self.cache_misses += r.cache_misses;
        self.evictions += r.evictions;
    }

    /// `name: mine != theirs` for every field that differs.
    pub fn diff(&self, o: &Counters) -> String {
        let fields = |c: &Counters| {
            [
                ("iterations", c.iterations),
                ("msgs_sent", c.msgs_sent),
                ("packets_sent", c.packets_sent),
                ("bytes_sent", c.bytes_sent),
                ("max_packet_elems", c.max_packet_elems),
                ("local_reads", c.local_reads),
                ("simd_lane_elems", c.simd_lane_elems),
                ("simd_fallback_runs", c.simd_fallback_runs),
                ("retransmits", c.retransmits),
                ("cache_hits", c.cache_hits),
                ("cache_misses", c.cache_misses),
                ("plan_hits", c.plan_hits),
                ("plan_misses", c.plan_misses),
                ("dag_hits", c.dag_hits),
                ("dag_misses", c.dag_misses),
                ("evictions", c.evictions),
                ("result_fnv", c.result_fnv),
            ]
        };
        let differing: Vec<String> = fields(self)
            .iter()
            .zip(fields(o))
            .filter(|(a, b)| a.1 != b.1)
            .map(|(a, b)| format!("{} {} != {}", a.0, a.1, b.1))
            .collect();
        differing.join(", ")
    }

    /// Add another op's counters (not its result hash).
    pub fn add(&mut self, o: &Counters) {
        self.iterations += o.iterations;
        self.msgs_sent += o.msgs_sent;
        self.packets_sent += o.packets_sent;
        self.bytes_sent += o.bytes_sent;
        self.max_packet_elems = self.max_packet_elems.max(o.max_packet_elems);
        self.local_reads += o.local_reads;
        self.simd_lane_elems += o.simd_lane_elems;
        self.simd_fallback_runs += o.simd_fallback_runs;
        self.retransmits += o.retransmits;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.plan_hits += o.plan_hits;
        self.plan_misses += o.plan_misses;
        self.dag_hits += o.dag_hits;
        self.dag_misses += o.dag_misses;
        self.evictions += o.evictions;
    }

    /// Add one service response (queue wait and the running request
    /// number vary by nature and are left out).
    pub fn add_service(&mut self, s: &ServiceStats) {
        self.plan_hits += s.plan_hits;
        self.plan_misses += s.plan_misses;
        self.dag_hits += s.dag_hits;
        self.dag_misses += s.dag_misses;
        self.evictions += s.evictions;
    }
}

/// Bottleneck-node seconds per machine phase, summed over the clause
/// executions of the traced ops. Filled from the machines' existing
/// public tracer argument, not from new instrumentation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    pub send: f64,
    pub update: f64,
    pub commit: f64,
    pub drain: f64,
}

impl Phases {
    /// Add the slowest node's time per phase of one traced execution:
    /// `TraceLog::phase_bottlenecks`, except that a node's spans of one
    /// phase are summed first, so a log that covers a whole wave of
    /// clauses still names the node the wave waited for.
    pub fn add_log(&mut self, log: &TraceLog) {
        let mut per_node: BTreeMap<(Phase, i64), u128> = BTreeMap::new();
        for t in &log.timings {
            *per_node.entry((t.phase, t.node)).or_default() += t.nanos;
        }
        let mut slowest: BTreeMap<Phase, u128> = BTreeMap::new();
        for ((phase, _), nanos) in per_node {
            let cell = slowest.entry(phase).or_default();
            *cell = (*cell).max(nanos);
        }
        for (phase, nanos) in slowest {
            let cell = match phase {
                Phase::Send => &mut self.send,
                Phase::Update => &mut self.update,
                Phase::Commit => &mut self.commit,
                Phase::Drain => &mut self.drain,
                Phase::Plan | Phase::Redistribute | Phase::Halo => continue,
            };
            *cell += nanos as f64 * 1e-9;
        }
    }

    /// Add another execution's phases.
    pub fn add(&mut self, o: &Phases) {
        self.send += o.send;
        self.update += o.update;
        self.commit += o.commit;
        self.drain += o.drain;
    }
}

/// Exact plan-time counts of one op, from the public plan accessors.
#[derive(Debug, Clone, Copy, Default)]
pub struct Census {
    pub plan_work: u64,
    pub send_packets: u64,
    pub send_elems: u64,
    pub interior_elems: u64,
    pub exec_elems: u64,
    pub simd_lane_elems: u64,
}

impl Census {
    /// Add one clause under `decomps`, `times` executions per op.
    pub fn add_clause(&mut self, clause: &Clause, decomps: &DecompMap, times: u64) {
        let Ok(plan) = SpmdPlan::build(clause, decomps) else {
            return;
        };
        self.plan_work += times * plan.total_work();
        for n in &plan.nodes {
            self.send_packets += times * n.comm.send_packets();
            self.send_elems += times * n.comm.send_elems();
        }
        let Ok(prepared) = vcal_machine::prepare_run(plan, clause, decomps) else {
            return;
        };
        let overlap = prepared.compiled().overlap_census();
        self.interior_elems += times * overlap.interior_elems;
        self.exec_elems += times * (overlap.interior_elems + overlap.boundary_elems);
        self.simd_lane_elems += times
            * prepared
                .compiled()
                .simd_census(SimdPolicy::default())
                .lane_elems;
    }

    /// Share of executed elements in interior runs.
    pub fn interior_share(&self) -> f64 {
        share(self.interior_elems, self.exec_elems)
    }

    /// Share of executed elements the plan puts in full SIMD lanes.
    pub fn simd_share(&self) -> f64 {
        share(self.simd_lane_elems, self.exec_elems)
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// One workload instance: inputs generated and scattered, nothing run.
pub trait Workload {
    /// One op, as timed end to end. `Err` is a failed op.
    fn op(&mut self) -> Result<Counters, String>;

    /// One op inside an `op` span with a child span per call into a
    /// layer, the machine phases added to `phases`. May do extra work
    /// (direct calls that time one layer alone); that is tracing
    /// overhead and is reported as such.
    fn op_traced(&mut self, spans: &mut Spans, phases: &mut Phases) -> Result<Counters, String>;

    /// Name of the span `op_traced` wraps each op in.
    fn op_span(&self) -> &'static str;

    /// Hash of the workload's output state after the ops run so far.
    fn state_fnv(&mut self) -> Result<u64, String>;

    /// The same ops on the plain single-threaded `Env::exec_clause`,
    /// on the workload's own copy of the inputs (which this consumes:
    /// call it once, after the last op): the state hash after `ops` ops
    /// and the seconds the first of them took.
    fn oracle(&mut self, ops: usize) -> (u64, f64);

    /// Plan-time counts of one op.
    fn census(&self) -> Census;
}

/// Run `clauses` once, in order, on the sequential reference machine.
pub fn exec_seq(env: &mut Env, clauses: &[Clause]) {
    for c in clauses {
        env.exec_clause(c);
    }
}

/// `ops` sequential ops on `env`; returns the seconds the first took.
pub fn exec_seq_ops(env: &mut Env, clauses: &[Clause], ops: usize) -> f64 {
    let t = std::time::Instant::now();
    exec_seq(env, clauses);
    let first = t.elapsed().as_secs_f64();
    for _ in 1..ops {
        exec_seq(env, clauses);
    }
    first
}

/// Hash the named arrays of `env` in the given order.
pub fn fnv_env(env: &Env, names: &[String]) -> u64 {
    names.iter().fold(crate::stats::FNV_BASIS, |h, n| {
        crate::stats::fnv_f64(h, env.get(n).map_or(&[][..], |a| a.data()))
    })
}

/// Flatten arrays into the wire image a service request carries.
pub fn globals_of(env: &Env, names: &[String]) -> BTreeMap<String, Vec<f64>> {
    names
        .iter()
        .filter_map(|n| env.get(n).map(|a| (n.clone(), a.data().to_vec())))
        .collect()
}
