//! Structured observability for the plan → emit → execute pipeline.
//!
//! The machines historically exposed only end-state
//! [`crate::stats::NodeStats`] counters, so a regression anywhere
//! between planning and the final
//! answer was visible only as a final-answer diff. This module adds a
//! zero-dependency span/event layer:
//!
//! * a [`Tracer`] trait with no-op defaults ([`NullTracer`]) — hot paths
//!   pay one branch on a cached boolean when tracing is off;
//! * a [`CollectingTracer`] that records [`Event`]s under **per-node
//!   logical clocks**, split into two classes: *deterministic* events
//!   (program order: phase boundaries, planned sends, consumed
//!   receives, enumeration-dispatch decisions) and *timing-dependent*
//!   events (reliability traffic: acks, nacks, retransmits, backoff),
//!   which depend on thread scheduling and are therefore kept out of
//!   the deterministic stream;
//! * a seed-stable JSONL serialization ([`TraceLog::to_jsonl`]) of the
//!   deterministic stream — logical clocks only, **no wall-time in the
//!   log body** — that is byte-identical across runs of the same plan
//!   and fault seed;
//! * wall-clock *phase timings* recorded separately
//!   ([`Tracer::timing`], [`PhaseTiming`]) so cost-model predictions
//!   can be compared against measured phase costs without polluting
//!   the deterministic log;
//! * a replay checker ([`replay_check`]) that re-validates an
//!   execution's event stream against its [`SpmdPlan`]: phase protocol
//!   per node, every planned packet present with the planned size in
//!   exact plan order, every receive matched to a planned incoming
//!   element, and reliability traffic within the
//!   [`RetryPolicy`] budget.
//!
//! See DESIGN.md §11 for the span taxonomy and the checker rules.

use crate::transport::RetryPolicy;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;
use std::time::Duration;
use vcal_spmd::{SpmdPlan, PACK_HEADER_BYTES};

/// Pseudo-node id used for host-side (planning, commit) events.
pub const HOST: i64 = -1;

/// The spans of one pipeline execution (span taxonomy of DESIGN.md §11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Host-side plan inspection / dispatch recording.
    Plan,
    /// A node's send phase (`Reside_p ∩ Modify_q` traffic).
    Send,
    /// A node's update phase (`Modify_p` iterations).
    Update,
    /// A node's post-run drain (servicing late retransmit requests).
    Drain,
    /// Host-side transactional write commit.
    Commit,
    /// The retired redistribution machine's per-node run. No longer
    /// emitted: a redistribution is the copy clause on the engine (its
    /// spans are [`Phase::Send`] and [`Phase::Update`]). Kept while the
    /// spine's phase table names it; removal waits for ROADMAP item 2.
    Redistribute,
    /// The retired halo machine's ghost exchange. No longer emitted:
    /// overlap runs as the engine's Block stencil (its traffic is
    /// [`Phase::Send`]); removal waits for ROADMAP item 2.
    Halo,
}

impl Phase {
    /// Stable lower-case name used in the JSONL schema.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Plan => "plan",
            Phase::Send => "send",
            Phase::Update => "update",
            Phase::Drain => "drain",
            Phase::Commit => "commit",
            Phase::Redistribute => "redistribute",
            Phase::Halo => "halo",
        }
    }
}

/// One traced occurrence. Variants are split into a *deterministic*
/// class (reproducible program order — these make up the seed-stable
/// JSONL stream) and a *timing-dependent* class (reliability traffic
/// whose count and order depend on thread scheduling).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    // -------- deterministic (program order) --------------------------
    /// A span opened on this node.
    PhaseStart(Phase),
    /// A span closed on this node.
    PhaseEnd(Phase),
    /// Which Table I row produced this node's Modify schedule.
    ModifyDispatch {
        /// [`vcal_spmd::OptKind::name`] of the schedule.
        kind: &'static str,
        /// Whether the row is closed-form (`false` = naive guard).
        closed_form: bool,
    },
    /// Which Table I row produced one Reside schedule of this node.
    ResideDispatch {
        /// Read-slot index into the node's reside list.
        slot: usize,
        /// The read array's name.
        array: String,
        /// [`vcal_spmd::OptKind::name`] of the schedule.
        kind: &'static str,
        /// Whether the row is closed-form (`false` = naive guard).
        closed_form: bool,
    },
    /// One planned vector packet put on the wire.
    PackSend {
        /// Destination node.
        dst: i64,
        /// Run ordinal within the `(src, dst)` pair — the packet tag.
        run: usize,
        /// Payload elements carried.
        elems: u64,
        /// Modeled wire bytes (header + payload).
        bytes: u64,
    },
    /// One remote operand consumed by the update loop.
    RecvValue {
        /// The owning (sending) node.
        src: i64,
        /// Read-slot index.
        slot: usize,
        /// Loop index.
        i: i64,
    },
    /// One compiled *interior* run completed (all operands owner-local;
    /// executed while boundary packets may still be in flight).
    InteriorRun {
        /// Exec-run ordinal within the node's compiled table.
        run: usize,
        /// Iterations the run covered.
        elems: u64,
    },
    /// One compiled *boundary* run completed (consumed remote operands).
    BoundaryRun {
        /// Exec-run ordinal within the node's compiled table.
        run: usize,
        /// Iterations the run covered.
        elems: u64,
        /// Remote operands the run had to receive before completing.
        recvs: u64,
    },
    /// SIMD census of the node's update phase: how the compiled entries
    /// split between lane maps and the bytecode (recorded once per
    /// update phase, after the last entry).
    SimdCensus {
        /// Entries that ran a fused shape's lane map once per rep.
        vector_runs: u64,
        /// The other entries: the bytecode, or a lane map over gathered
        /// chunks.
        fallback_runs: u64,
        /// Elements processed in full lane chunks.
        lane_elems: u64,
        /// Remainder elements handled by scalar tail loops.
        tail_elems: u64,
    },
    /// The DAG scheduler resolved a program step's dependencies: every
    /// DAG predecessor has committed and the step may start. Recorded
    /// by the host, once per step per program round, before the step's
    /// `clause_begin`.
    DagReady {
        /// Program-step ordinal.
        step: usize,
    },
    /// A DAG-scheduled program step began executing. Recorded by the
    /// host; [`replay_check_dag`] rejects a begin whose predecessors
    /// have not all ended.
    ClauseBegin {
        /// Program-step ordinal.
        step: usize,
    },
    /// A DAG-scheduled program step's writes were committed.
    ClauseEnd {
        /// Program-step ordinal.
        step: usize,
    },
    // -------- timing-dependent (reliability traffic) -----------------
    /// The node retransmitted one retained packet in answer to a NACK.
    Retransmit {
        /// The requesting node.
        dst: i64,
    },
    /// The node acknowledged an accepted (or duplicate) packet.
    Ack {
        /// The sender being acknowledged.
        dst: i64,
    },
    /// The node asked a peer to retransmit.
    Nack {
        /// The peer owing data.
        peer: i64,
    },
    /// A duplicate packet was suppressed.
    DupDropped {
        /// The duplicate's source.
        src: i64,
    },
    /// A packet arrived marked corrupt by a fault plan (treated as
    /// lost).
    CorruptDetected {
        /// The corrupt packet's source.
        src: i64,
    },
    /// The node entered an exponential-backoff wait after a NACK.
    Backoff {
        /// The peer being waited on.
        peer: i64,
    },
}

impl EventKind {
    /// Whether the event is reproducible program order (part of the
    /// seed-stable JSONL stream) as opposed to scheduling-dependent
    /// reliability traffic.
    pub fn is_deterministic(&self) -> bool {
        !matches!(
            self,
            EventKind::Retransmit { .. }
                | EventKind::Ack { .. }
                | EventKind::Nack { .. }
                | EventKind::DupDropped { .. }
                | EventKind::CorruptDetected { .. }
                | EventKind::Backoff { .. }
        )
    }

    /// Stable snake_case name used in the JSONL schema.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::PhaseStart(_) => "phase_start",
            EventKind::PhaseEnd(_) => "phase_end",
            EventKind::ModifyDispatch { .. } => "modify_dispatch",
            EventKind::ResideDispatch { .. } => "reside_dispatch",
            EventKind::PackSend { .. } => "pack_send",
            EventKind::RecvValue { .. } => "recv_value",
            EventKind::InteriorRun { .. } => "interior_run",
            EventKind::BoundaryRun { .. } => "boundary_run",
            EventKind::SimdCensus { .. } => "simd_census",
            EventKind::DagReady { .. } => "dag_ready",
            EventKind::ClauseBegin { .. } => "clause_begin",
            EventKind::ClauseEnd { .. } => "clause_end",
            EventKind::Retransmit { .. } => "retransmit",
            EventKind::Ack { .. } => "ack",
            EventKind::Nack { .. } => "nack",
            EventKind::DupDropped { .. } => "dup_dropped",
            EventKind::CorruptDetected { .. } => "corrupt_detected",
            EventKind::Backoff { .. } => "backoff",
        }
    }
}

/// One recorded event: node, per-node logical clock, and what happened.
/// Deterministic and timing-dependent events advance *separate* clocks,
/// so interleaved reliability traffic can never perturb the logical
/// timestamps of the deterministic stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Node the event belongs to ([`HOST`] for host-side events).
    pub node: i64,
    /// Per-node logical clock value (per class — see above).
    pub t: u64,
    /// What happened.
    pub kind: EventKind,
}

/// One measured span: wall-clock, kept out of the deterministic log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTiming {
    /// Node the span ran on ([`HOST`] for host-side spans).
    pub node: i64,
    /// Which span.
    pub phase: Phase,
    /// Measured wall-clock nanoseconds.
    pub nanos: u128,
}

/// The observability hooks the machines call. All methods default to
/// no-ops; implementations must be [`Sync`] because one tracer is
/// shared by every node thread of a run.
pub trait Tracer: Sync {
    /// Whether events should be recorded at all. The machines cache
    /// this once per run/phase, so a disabled tracer costs one branch
    /// per would-be event.
    fn enabled(&self) -> bool {
        false
    }

    /// Record one event for `node`.
    fn record(&self, node: i64, kind: EventKind) {
        let _ = (node, kind);
    }

    /// Record one measured span for `node`. Called even for
    /// event-disabled tracers that want timings only — implementations
    /// gate on whatever they collect.
    fn timing(&self, node: i64, phase: Phase, elapsed: Duration) {
        let _ = (node, phase, elapsed);
    }
}

/// A borrowed tracer, or one shared by `Arc`, records into its target:
/// what a node's endpoint holds is its node's buffer either way.
macro_rules! forward_tracer {
    ($($ptr:ty),*) => {$(
        impl<X: Tracer + Send + ?Sized> Tracer for $ptr {
            fn enabled(&self) -> bool {
                (**self).enabled()
            }

            fn record(&self, node: i64, kind: EventKind) {
                (**self).record(node, kind)
            }

            fn timing(&self, node: i64, phase: Phase, elapsed: Duration) {
                (**self).timing(node, phase, elapsed)
            }
        }
    )*};
}

forward_tracer!(&X, std::sync::Arc<X>);

/// The do-nothing tracer: every hook is a no-op and [`Tracer::enabled`]
/// is `false`, so instrumented hot paths stay free.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {}

/// A shared [`NullTracer`] for the untraced entry points.
pub static NULL_TRACER: NullTracer = NullTracer;

#[derive(Default)]
struct Collected {
    events: Vec<Event>,
    det_clock: BTreeMap<i64, u64>,
    aux_clock: BTreeMap<i64, u64>,
    timings: Vec<PhaseTiming>,
}

/// A tracer that collects every event and timing in memory; drain the
/// result with [`CollectingTracer::finish`].
#[derive(Default)]
pub struct CollectingTracer {
    inner: Mutex<Collected>,
}

impl CollectingTracer {
    /// A fresh, empty collector.
    pub fn new() -> CollectingTracer {
        CollectingTracer::default()
    }

    /// Take everything recorded so far, leaving the collector empty.
    pub fn finish(&self) -> TraceLog {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let collected = std::mem::take(&mut *inner);
        let mut events = collected.events;
        // deterministic first, each class sorted by (node, clock);
        // within a node the clock is assignment order, so this is a
        // stable program-order view independent of lock interleaving
        events.sort_by_key(|e| (!e.kind.is_deterministic(), e.node, e.t));
        TraceLog {
            events,
            timings: collected.timings,
        }
    }
}

impl Tracer for CollectingTracer {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, node: i64, kind: EventKind) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let clock = if kind.is_deterministic() {
            &mut inner.det_clock
        } else {
            &mut inner.aux_clock
        };
        let t_ref = clock.entry(node).or_insert(0);
        let t = *t_ref;
        *t_ref += 1;
        inner.events.push(Event { node, t, kind });
    }

    fn timing(&self, node: i64, phase: Phase, elapsed: Duration) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.timings.push(PhaseTiming {
            node,
            phase,
            nanos: elapsed.as_nanos(),
        });
    }
}

/// Everything one traced execution produced.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// All events, deterministic class first, each class ordered by
    /// `(node, t)`.
    pub events: Vec<Event>,
    /// Measured spans, in recording order (wall-clock — never part of
    /// the serialized event log).
    pub timings: Vec<PhaseTiming>,
}

fn jsonl_line(out: &mut String, e: &Event) {
    use std::fmt::Write;
    let _ = write!(
        out,
        "{{\"node\":{},\"t\":{},\"kind\":\"{}\"",
        e.node,
        e.t,
        e.kind.name()
    );
    match &e.kind {
        EventKind::PhaseStart(p) | EventKind::PhaseEnd(p) => {
            let _ = write!(out, ",\"phase\":\"{}\"", p.name());
        }
        EventKind::ModifyDispatch { kind, closed_form } => {
            let _ = write!(out, ",\"opt\":\"{kind}\",\"closed_form\":{closed_form}");
        }
        EventKind::ResideDispatch {
            slot,
            array,
            kind,
            closed_form,
        } => {
            let _ = write!(
                out,
                ",\"slot\":{slot},\"array\":\"{array}\",\"opt\":\"{kind}\",\"closed_form\":{closed_form}"
            );
        }
        EventKind::PackSend {
            dst,
            run,
            elems,
            bytes,
        } => {
            let _ = write!(
                out,
                ",\"dst\":{dst},\"run\":{run},\"elems\":{elems},\"bytes\":{bytes}"
            );
        }
        EventKind::RecvValue { src, slot, i } => {
            let _ = write!(out, ",\"src\":{src},\"slot\":{slot},\"i\":{i}");
        }
        EventKind::InteriorRun { run, elems } => {
            let _ = write!(out, ",\"run\":{run},\"elems\":{elems}");
        }
        EventKind::BoundaryRun { run, elems, recvs } => {
            let _ = write!(out, ",\"run\":{run},\"elems\":{elems},\"recvs\":{recvs}");
        }
        EventKind::SimdCensus {
            vector_runs,
            fallback_runs,
            lane_elems,
            tail_elems,
        } => {
            let _ = write!(
                out,
                ",\"vector_runs\":{vector_runs},\"fallback_runs\":{fallback_runs},\"lane_elems\":{lane_elems},\"tail_elems\":{tail_elems}"
            );
        }
        EventKind::DagReady { step }
        | EventKind::ClauseBegin { step }
        | EventKind::ClauseEnd { step } => {
            let _ = write!(out, ",\"step\":{step}");
        }
        EventKind::Retransmit { dst } | EventKind::Ack { dst } => {
            let _ = write!(out, ",\"dst\":{dst}");
        }
        EventKind::Nack { peer } | EventKind::Backoff { peer } => {
            let _ = write!(out, ",\"peer\":{peer}");
        }
        EventKind::DupDropped { src } | EventKind::CorruptDetected { src } => {
            let _ = write!(out, ",\"src\":{src}");
        }
    }
    out.push_str("}\n");
}

impl TraceLog {
    /// Iterate the deterministic event stream in `(node, t)` order.
    pub fn deterministic(&self) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(|e| e.kind.is_deterministic())
    }

    /// Serialize the **deterministic** stream as JSONL: one event per
    /// line, `(node, t)` order, logical clocks only. Byte-identical
    /// across two runs of the same plan + fault seed.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.deterministic() {
            jsonl_line(&mut out, e);
        }
        out
    }

    /// Serialize *every* event (reliability traffic appended after the
    /// deterministic stream). Ordering within the timing-dependent
    /// class is per-node program order but globally
    /// scheduling-dependent — use for diagnosis, not for diffing.
    pub fn to_jsonl_full(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            jsonl_line(&mut out, e);
        }
        out
    }

    /// Count enumeration-function dispatches by Table I row name
    /// (modify and reside schedules combined).
    pub fn dispatch_counts(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for e in &self.events {
            match &e.kind {
                EventKind::ModifyDispatch { kind, .. } | EventKind::ResideDispatch { kind, .. } => {
                    *out.entry(*kind).or_insert(0) += 1;
                }
                _ => {}
            }
        }
        out
    }

    /// Total measured wall-clock per phase, summed across nodes.
    pub fn phase_totals(&self) -> BTreeMap<Phase, Duration> {
        let mut out: BTreeMap<Phase, Duration> = BTreeMap::new();
        for t in &self.timings {
            let nanos = u64::try_from(t.nanos).unwrap_or(u64::MAX);
            *out.entry(t.phase).or_default() += Duration::from_nanos(nanos);
        }
        out
    }

    /// Largest single measured span per phase — the bottleneck node,
    /// which is what a barrier-synchronized machine actually waits on.
    pub fn phase_bottlenecks(&self) -> BTreeMap<Phase, Duration> {
        let mut out: BTreeMap<Phase, Duration> = BTreeMap::new();
        for t in &self.timings {
            let nanos = u64::try_from(t.nanos).unwrap_or(u64::MAX);
            let d = Duration::from_nanos(nanos);
            let cell = out.entry(t.phase).or_default();
            if d > *cell {
                *cell = d;
            }
        }
        out
    }

    /// Count events of the timing-dependent (reliability) class.
    pub fn reliability_events(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| !e.kind.is_deterministic())
            .count() as u64
    }
}

/// Record the plan's enumeration-function dispatch decisions (which
/// Table I row fired for every Modify/Reside schedule) on `tracer`.
/// Deterministic: iterates the plan in node/slot order on the caller's
/// thread. The machines call this once per traced run; it is public so
/// plan-only tooling can audit dispatch without executing.
pub fn trace_plan(tracer: &dyn Tracer, plan: &SpmdPlan) {
    if !tracer.enabled() {
        return;
    }
    tracer.record(HOST, EventKind::PhaseStart(Phase::Plan));
    for node in &plan.nodes {
        tracer.record(
            node.p,
            EventKind::ModifyDispatch {
                kind: node.modify.kind.name(),
                closed_form: node.modify.kind.is_closed_form(),
            },
        );
        for (slot, rp) in node.resides.iter().enumerate() {
            tracer.record(
                node.p,
                EventKind::ResideDispatch {
                    slot,
                    array: rp.array.clone(),
                    kind: rp.opt.kind.name(),
                    closed_form: rp.opt.kind.is_closed_form(),
                },
            );
        }
    }
    tracer.record(HOST, EventKind::PhaseEnd(Phase::Plan));
}

/// Why a trace failed replay validation against its plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// A node's events violate the phase protocol (send before update,
    /// sends only inside the send span, receives only inside update).
    Phase {
        /// The offending node.
        node: i64,
        /// What was violated.
        why: String,
    },
    /// A node's send events do not match the plan's send runs.
    Send {
        /// The offending node.
        node: i64,
        /// What differed.
        why: String,
    },
    /// A node's consumed receives do not match the plan's recv runs.
    Recv {
        /// The offending node.
        node: i64,
        /// What differed.
        why: String,
    },
    /// Reliability traffic exceeded what the retry policy permits.
    Budget {
        /// The offending node.
        node: i64,
        /// Which budget was blown.
        why: String,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Phase { node, why } => write!(f, "node {node}: phase protocol: {why}"),
            ReplayError::Send { node, why } => write!(f, "node {node}: send mismatch: {why}"),
            ReplayError::Recv { node, why } => write!(f, "node {node}: recv mismatch: {why}"),
            ReplayError::Budget { node, why } => write!(f, "node {node}: budget: {why}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// What a successful replay validated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Nodes whose streams were checked.
    pub nodes: u64,
    /// Deterministic events examined.
    pub det_events: u64,
    /// Planned send elements matched against the trace.
    pub send_elems: u64,
    /// Planned receive elements matched against the trace.
    pub recv_elems: u64,
    /// Retransmit events accounted against the budget.
    pub retransmits: u64,
    /// NACK events accounted against the budget.
    pub nacks: u64,
}

/// Expand a node's planned send packets, in exact wire order, as
/// `(peer, pkt_ord, elems, bytes)` per packet.
fn planned_packets(plan: &SpmdPlan, p: usize) -> Vec<(i64, usize, u64, u64)> {
    let mut out = Vec::new();
    for pair in &plan.nodes[p].comm.sends {
        for (pkt_ord, runs) in pair.packets().enumerate() {
            let elems = runs.iter().map(|r| r.nest.len()).sum::<u64>();
            out.push((pair.peer, pkt_ord, elems, PACK_HEADER_BYTES + 8 * elems));
        }
    }
    out
}

/// Expand a node's planned recv runs into `(src, slot, i)` elements.
fn planned_recv_elems(plan: &SpmdPlan, p: usize) -> Vec<(i64, usize, i64)> {
    let mut out = Vec::new();
    for pair in &plan.nodes[p].comm.recvs {
        for run in &pair.runs {
            run.nest.for_each(|i| out.push((pair.peer, run.slot, i)));
        }
    }
    out.sort_unstable();
    out
}

/// Re-validate a captured event stream against the plan it executed.
///
/// Checks, per node:
/// 1. **phase protocol** — the send span opens and closes exactly once,
///    strictly before the update span; send events occur only inside
///    the send span and receive events only inside the update span;
///    compiled interior/boundary run completions occur only inside the
///    update span, and a boundary run may not complete before the
///    receives it depends on have been consumed (running count);
/// 2. **sends vs plan** — packets appear in the plan's exact wire order
///    with the planned packet length (the runs the plan's packetisation
///    groups) and modeled byte size (`16 + 8·elems`);
/// 3. **receives vs plan** — the consumed remote operands equal the
///    plan's incoming expansion exactly (every planned element matched
///    by exactly one receive — "every send matched by a recv");
/// 4. **reliability budget** — NACKs from `d` to `s` never exceed
///    `max_retries` per awaited element; retransmits from `s` to `d`
///    never exceed `nacks(d→s) × packets(s→d)` (a go-back-N resend
///    services one NACK with at most the retained window); zero NACKs
///    when retries are disabled.
pub fn replay_check(
    log: &TraceLog,
    plan: &SpmdPlan,
    retry: RetryPolicy,
) -> Result<ReplaySummary, ReplayError> {
    let pmax = plan.pmax as usize;
    let mut summary = ReplaySummary {
        nodes: pmax as u64,
        ..ReplaySummary::default()
    };

    // split the deterministic stream per node, preserving (node, t) order
    let mut per_node: Vec<Vec<&EventKind>> = vec![Vec::new(); pmax];
    for e in log.deterministic() {
        summary.det_events += 1;
        if e.node >= 0 && (e.node as usize) < pmax {
            per_node[e.node as usize].push(&e.kind);
        }
    }

    for (p, events) in per_node.iter().enumerate() {
        let node = p as i64;
        // ---- rule 1: phase protocol ---------------------------------
        #[derive(PartialEq, Clone, Copy)]
        enum St {
            BeforeSend,
            InSend,
            BetweenPhases,
            InUpdate,
            AfterUpdate,
        }
        let mut st = St::BeforeSend;
        let mut packets: Vec<(i64, usize, u64, u64)> = Vec::new();
        let mut recvs: Vec<(i64, usize, i64)> = Vec::new();
        // rule 1b bookkeeping: receives consumed so far vs receives the
        // completed boundary runs claim to have depended on
        let mut recv_seen: u64 = 0;
        let mut boundary_recvs: u64 = 0;
        for kind in events {
            match kind {
                EventKind::PhaseStart(Phase::Send) => {
                    if st != St::BeforeSend {
                        return Err(ReplayError::Phase {
                            node,
                            why: "send span opened twice or out of order".into(),
                        });
                    }
                    st = St::InSend;
                }
                EventKind::PhaseEnd(Phase::Send) => {
                    if st != St::InSend {
                        return Err(ReplayError::Phase {
                            node,
                            why: "send span closed while not open".into(),
                        });
                    }
                    st = St::BetweenPhases;
                }
                EventKind::PhaseStart(Phase::Update) => {
                    if st != St::BetweenPhases {
                        return Err(ReplayError::Phase {
                            node,
                            why: "update span must follow the closed send span".into(),
                        });
                    }
                    st = St::InUpdate;
                }
                EventKind::PhaseEnd(Phase::Update) => {
                    if st != St::InUpdate {
                        return Err(ReplayError::Phase {
                            node,
                            why: "update span closed while not open".into(),
                        });
                    }
                    st = St::AfterUpdate;
                }
                EventKind::PackSend {
                    dst,
                    run,
                    elems,
                    bytes,
                } => {
                    if st != St::InSend {
                        return Err(ReplayError::Phase {
                            node,
                            why: format!("packet send (dst={dst}) outside the send span"),
                        });
                    }
                    packets.push((*dst, *run, *elems, *bytes));
                }
                EventKind::RecvValue { src, slot, i } => {
                    if st != St::InUpdate {
                        return Err(ReplayError::Phase {
                            node,
                            why: format!("receive (i={i}) outside the update span"),
                        });
                    }
                    recv_seen += 1;
                    recvs.push((*src, *slot, *i));
                }
                EventKind::InteriorRun { run, .. } if st != St::InUpdate => {
                    return Err(ReplayError::Phase {
                        node,
                        why: format!("interior run {run} outside the update span"),
                    });
                }
                EventKind::BoundaryRun {
                    run, recvs: need, ..
                } => {
                    if st != St::InUpdate {
                        return Err(ReplayError::Phase {
                            node,
                            why: format!("boundary run {run} outside the update span"),
                        });
                    }
                    // a boundary run can only complete after consuming
                    // its remote operands: the running receive count
                    // must cover every completed boundary run's claim
                    boundary_recvs += need;
                    if recv_seen < boundary_recvs {
                        return Err(ReplayError::Phase {
                            node,
                            why: format!(
                                "boundary run {run} completed after {recv_seen} receives but the completed boundary runs required {boundary_recvs}"
                            ),
                        });
                    }
                }
                _ => {}
            }
        }
        let ran = st != St::BeforeSend;
        if ran && st != St::AfterUpdate && st != St::BetweenPhases {
            return Err(ReplayError::Phase {
                node,
                why: "a span was left open at end of trace".into(),
            });
        }
        if !ran && (!packets.is_empty() || !recvs.is_empty()) {
            return Err(ReplayError::Phase {
                node,
                why: "traffic recorded without phase spans".into(),
            });
        }
        if !ran {
            continue; // node absent from the trace (plan-only log)
        }

        // ---- rule 2: sends vs plan ----------------------------------
        let want = planned_packets(plan, p);
        if packets.len() != want.len() {
            return Err(ReplayError::Send {
                node,
                why: format!("{} packets traced, plan has {}", packets.len(), want.len()),
            });
        }
        for (got, want) in packets.iter().zip(&want) {
            let (dst, run, elems, bytes) = *got;
            let (wdst, wrun, welems, wbytes) = *want;
            if dst != wdst || run != wrun {
                return Err(ReplayError::Send {
                    node,
                    why: format!(
                        "packet order: traced (dst={dst}, run={run}), plan (dst={wdst}, run={wrun})"
                    ),
                });
            }
            if elems != welems || bytes != wbytes {
                return Err(ReplayError::Send {
                    node,
                    why: format!(
                        "packet (dst={dst}, run={run}): traced {elems} elems / {bytes} B, plan {welems} elems / {wbytes} B"
                    ),
                });
            }
            summary.send_elems += elems;
        }

        // ---- rule 3: receives vs plan -------------------------------
        let want = planned_recv_elems(plan, p);
        recvs.sort_unstable();
        if recvs != want {
            return Err(ReplayError::Recv {
                node,
                why: format!(
                    "{} receives traced, plan expands to {} incoming elements",
                    recvs.len(),
                    want.len()
                ),
            });
        }
        summary.recv_elems += recvs.len() as u64;
    }

    // ---- rule 4: reliability budget (full stream) -------------------
    // nacks[d][s] = NACKs d sent to s; retransmits[s][d] likewise
    let mut nacks = vec![vec![0u64; pmax]; pmax];
    let mut retransmits = vec![vec![0u64; pmax]; pmax];
    for e in &log.events {
        let from = e.node;
        if from < 0 || from as usize >= pmax {
            continue;
        }
        match &e.kind {
            EventKind::Nack { peer } => {
                summary.nacks += 1;
                if *peer >= 0 && (*peer as usize) < pmax {
                    nacks[from as usize][*peer as usize] += 1;
                }
            }
            EventKind::Retransmit { dst } => {
                summary.retransmits += 1;
                if *dst >= 0 && (*dst as usize) < pmax {
                    retransmits[from as usize][*dst as usize] += 1;
                }
            }
            _ => {}
        }
    }
    for d in 0..pmax {
        for s in 0..pmax {
            if retry.max_retries == 0 && nacks[d][s] > 0 {
                return Err(ReplayError::Budget {
                    node: d as i64,
                    why: format!("{} NACKs to node {s} with retries disabled", nacks[d][s]),
                });
            }
            // a receiver only NACKs while awaiting a planned value: at
            // most max_retries per awaited element
            let awaited: u64 = plan.nodes[d]
                .comm
                .recvs
                .iter()
                .filter(|pc| pc.peer as usize == s)
                .map(|pc| pc.elems())
                .sum();
            let nack_cap = u64::from(retry.max_retries) * awaited;
            if nacks[d][s] > nack_cap {
                return Err(ReplayError::Budget {
                    node: d as i64,
                    why: format!(
                        "{} NACKs to node {s}, budget {nack_cap} ({awaited} awaited × {} retries)",
                        nacks[d][s], retry.max_retries
                    ),
                });
            }
            // a go-back-N resend services one NACK with at most the
            // whole retained window (all data packets of the flow)
            let sends_to_d = |pc: &&vcal_spmd::PairComm| pc.peer as usize == d;
            let window: u64 = plan.nodes[s]
                .comm
                .sends
                .iter()
                .filter(sends_to_d)
                .map(|pc| pc.packets().len() as u64)
                .sum();
            if retransmits[s][d] > nacks[d][s] * window {
                return Err(ReplayError::Budget {
                    node: s as i64,
                    why: format!(
                        "{} retransmits to node {d}, budget {} ({} NACKs × window {window})",
                        retransmits[s][d],
                        nacks[d][s] * window,
                        nacks[d][s]
                    ),
                });
            }
        }
    }
    Ok(summary)
}

/// Re-validate a program-level DAG schedule against its dependency DAG.
///
/// Walks the host-side deterministic events of a
/// [`crate::session::DistSession::run_program`] trace and checks, per
/// scheduling round (one pass over the whole program):
///
/// 1. a `clause_begin` for step `s` is preceded by a `dag_ready` for
///    `s` in the same round — the scheduler announced the step before
///    dispatching it;
/// 2. a `clause_begin` for step `s` occurs only after a `clause_end`
///    for **every** DAG predecessor of `s` in the same round — no
///    clause starts before the steps it depends on have committed;
/// 3. no step begins or ends twice in a round, no step ends without
///    beginning, and every begun step has ended by the end of the
///    trace.
///
/// Rounds are implicit: when every begun step has ended and a step
/// that already ran this round is announced again, a new round starts.
/// Any violation is a forged or reordered schedule and is reported as
/// [`ReplayError::Phase`] on [`HOST`].
pub fn replay_check_dag(
    log: &TraceLog,
    dag: &vcal_spmd::ProgramDag,
) -> Result<ReplaySummary, ReplayError> {
    let n = dag.steps;
    let mut summary = ReplaySummary::default();
    let err = |why: String| ReplayError::Phase { node: HOST, why };

    let mut ready = vec![false; n]; // dag_ready seen this round
    let mut begun = vec![false; n];
    let mut ended = vec![false; n];
    let mut open = 0usize; // begun but not yet ended
    let mut done = 0usize; // ended this round
    for e in log.deterministic() {
        if e.node != HOST {
            continue;
        }
        summary.det_events += 1;
        match &e.kind {
            EventKind::DagReady { step } => {
                let s = *step;
                if s >= n {
                    return Err(err(format!("dag_ready for step {s}, program has {n}")));
                }
                if ready[s] {
                    // a step is announced once per round: a repeat
                    // marks the next round, which may only start once
                    // the current one has fully drained
                    if open > 0 || done < n {
                        return Err(err(format!(
                            "dag_ready for step {s} repeated before the round completed"
                        )));
                    }
                    ready = vec![false; n];
                    begun = vec![false; n];
                    ended = vec![false; n];
                    done = 0;
                }
                ready[s] = true;
            }
            EventKind::ClauseBegin { step } => {
                let s = *step;
                if s >= n {
                    return Err(err(format!("clause_begin for step {s}, program has {n}")));
                }
                if !ready[s] {
                    return Err(err(format!(
                        "clause_begin for step {s} without a prior dag_ready"
                    )));
                }
                if begun[s] {
                    return Err(err(format!("clause_begin for step {s} repeated")));
                }
                for p in dag.preds_of(s) {
                    if !ended[p] {
                        return Err(err(format!(
                            "clause_begin for step {s} before its DAG predecessor {p} ended"
                        )));
                    }
                }
                begun[s] = true;
                open += 1;
            }
            EventKind::ClauseEnd { step } => {
                let s = *step;
                if s >= n {
                    return Err(err(format!("clause_end for step {s}, program has {n}")));
                }
                if !begun[s] {
                    return Err(err(format!("clause_end for step {s} that never began")));
                }
                if ended[s] {
                    return Err(err(format!("clause_end for step {s} repeated")));
                }
                ended[s] = true;
                open -= 1;
                done += 1;
            }
            _ => {}
        }
    }
    if open > 0 {
        return Err(err(format!("{open} clause(s) begun but never ended")));
    }
    Ok(summary)
}

/// A timer helper: measure a closure and report it to the tracer.
pub fn timed<R>(tracer: &dyn Tracer, node: i64, phase: Phase, f: impl FnOnce() -> R) -> R {
    if !tracer.enabled() {
        return f();
    }
    let t0 = std::time::Instant::now();
    let r = f();
    tracer.timing(node, phase, t0.elapsed());
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_are_per_node_and_per_class() {
        let tr = CollectingTracer::new();
        tr.record(0, EventKind::PhaseStart(Phase::Send));
        tr.record(1, EventKind::PhaseStart(Phase::Send));
        tr.record(0, EventKind::Ack { dst: 1 }); // aux class
        tr.record(0, EventKind::PhaseEnd(Phase::Send));
        let log = tr.finish();
        let det: Vec<_> = log.deterministic().collect();
        assert_eq!(det.len(), 3);
        // node 0's deterministic clock is 0, 1 — the interleaved Ack
        // advanced the aux clock, not the deterministic one
        assert_eq!((det[0].node, det[0].t), (0, 0));
        assert_eq!((det[1].node, det[1].t), (0, 1));
        assert_eq!((det[2].node, det[2].t), (1, 0));
        assert_eq!(log.reliability_events(), 1);
    }

    #[test]
    fn jsonl_is_sorted_and_excludes_aux() {
        let tr = CollectingTracer::new();
        tr.record(1, EventKind::PhaseStart(Phase::Send));
        tr.record(0, EventKind::Nack { peer: 1 });
        tr.record(0, EventKind::PhaseStart(Phase::Send));
        let log = tr.finish();
        let jsonl = log.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"node\":0"), "{jsonl}");
        assert!(lines[1].contains("\"node\":1"), "{jsonl}");
        assert!(!jsonl.contains("nack"), "{jsonl}");
        assert!(log.to_jsonl_full().contains("nack"));
    }

    #[test]
    fn timings_never_enter_the_log_body() {
        let tr = CollectingTracer::new();
        tr.record(0, EventKind::PhaseStart(Phase::Update));
        tr.timing(0, Phase::Update, Duration::from_millis(3));
        let log = tr.finish();
        assert_eq!(log.timings.len(), 1);
        assert!(!log.to_jsonl_full().contains("nanos"));
        assert!(log.phase_totals()[&Phase::Update] >= Duration::from_millis(3));
    }

    #[test]
    fn null_tracer_is_disabled() {
        assert!(!NULL_TRACER.enabled());
        // record/timing are no-ops — just exercise them
        NULL_TRACER.record(0, EventKind::PhaseStart(Phase::Send));
        NULL_TRACER.timing(0, Phase::Send, Duration::ZERO);
    }
}
