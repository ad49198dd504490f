//! The steady-state executor: a persistent worker pool replaying
//! compiled schedules (paper Section 4's amortization discipline).
//!
//! [`run_distributed`](crate::run_distributed) pays the full setup bill
//! on every call: it prepares the plan and runs it on a one-shot pool —
//! fresh OS threads, channels and staging per clause. That is the right
//! shape for a one-shot clause and exactly the wrong shape for a
//! timestep loop, where the same plan executes thousands of times. This
//! module splits the cost:
//!
//! * [`prepare_run`] does everything that depends only on
//!   `(plan, clause, decompositions)` — guard resolution and the
//!   [`CompiledSchedule`] materialization of every schedule, closed-form
//!   or naive-guard, into run tables (iteration, send packing, and
//!   run-granular receive addressing) plus the bytecode kernel — and
//!   freezes it in a shareable [`PreparedPlan`]. The tables are all a
//!   node executes: there is no second, interpreted evaluator.
//! * [`DistExecutor`] owns `pmax` node threads spawned **once**; between
//!   runs they park on their job channel. Transport endpoints (sequence
//!   numbers, dedup windows), receive staging, and operand buffers are
//!   *reset*, not reallocated, per run.
//!
//! Cold and warm runs are the same phase engine ([`warm_phases`]) and so
//! agree by construction: same results bit-for-bit, same statistics,
//! same deterministic event stream (worker events are buffered
//! thread-locally and replayed into the real tracer after the run —
//! sound because [`CollectingTracer`] canonicalizes event order by
//! `(class, node, per-node clock)`). A pooled worker that
//! crashes is retired without poisoning the session: the caught panic
//! becomes [`MachineError::NodePanicked`], uncommitted writes are
//! discarded (the host's all-or-nothing commit restores pre-run state),
//! and a genuinely dead thread causes the pool to rebuild itself on the
//! next run.
//!
//! [`CollectingTracer`]: crate::obs::CollectingTracer

use crate::darray::DistArray;
use crate::darray_nd::DistArrayNd;
use crate::distributed::{
    disassemble, exec_update_phase, finalize_run, resolve_guard, send_phase_element_compiled,
    send_phase_vectorized, slot_parts, CommMode, DistOptions, Image, JobLane, NodeOutcome, RGuard,
    RecvCtx, Staging, WaveRecv, Wire, WriteOp,
};
use crate::error::MachineError;
use crate::obs::{trace_plan, EventKind, Phase, Tracer};
use crate::stats::{ExecReport, NodeStats};
use crate::transport::{Endpoint, Frame};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::mpsc::{channel as unbounded, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use vcal_core::{ArrayRef, Clause, Ordering};
use vcal_decomp::Decomp1;
use vcal_spmd::{clause_arrays, lower_nd, CompiledSchedule, KernelOp, SpmdPlan};

/// Everything a repeated execution needs that depends only on the
/// `(clause, decompositions)` pair: the compiled run tables the phase
/// engine executes, the resolved guard and the referenced-array list —
/// plus, for a 1-D plan, the plan itself and the decompositions it was
/// built against. Built once by [`prepare_run`]; shared read-only (via
/// `Arc`) by the session cache and every pooled worker.
pub struct PreparedPlan {
    pub(crate) pmax: i64,
    pub(crate) lhs_array: String,
    pub(crate) compiled: CompiledSchedule,
    pub(crate) rguard: RGuard,
    pub(crate) referenced: Vec<String>,
    /// `None` for a lowered n-D clause, which has run tables only.
    pub(crate) d1: Option<Plan1>,
}

/// The 1-D plan behind a [`PreparedPlan`]: what the host checks live
/// images against, traces, and ships to socket workers. The phase engine
/// reads none of it — it runs the compiled tables.
pub(crate) struct Plan1 {
    pub(crate) plan: SpmdPlan,
    pub(crate) decomps: BTreeMap<String, Decomp1>,
}

impl PreparedPlan {
    /// The compiled schedule tables.
    pub fn compiled(&self) -> &CompiledSchedule {
        &self.compiled
    }

    /// The arrays the plan references (lhs first).
    pub fn referenced(&self) -> &[String] {
        &self.referenced
    }

    /// The 1-D plan behind the tables; a typed error for a lowered n-D
    /// clause, which the sessions, waves and socket pools do not run.
    pub(crate) fn d1(&self) -> Result<&Plan1, MachineError> {
        self.d1.as_ref().ok_or_else(|| {
            MachineError::PlanMismatch("a lowered n-D clause has no 1-D plan behind it".into())
        })
    }

    /// Rough resident size of the prepared tables — the byte charge the
    /// bounded plan caches account against their budget. Dominated by
    /// the compiled per-node run tables, so it grows with the number of
    /// runs (plus the explicit offsets of any non-affine pattern), not
    /// with the number of elements; an estimate (not an allocator
    /// census) is plenty for LRU pressure.
    pub fn approx_bytes(&self) -> usize {
        let mut b = std::mem::size_of::<PreparedPlan>();
        for node in &self.compiled.nodes {
            b += node.approx_bytes();
        }
        for np in self.d1.iter().flat_map(|d1| &d1.plan.nodes) {
            b += np.resides.len() * 128;
            let comm_runs: usize = (np.comm.sends.iter().chain(&np.comm.recvs))
                .map(|pc| pc.runs.len())
                .sum();
            b += comm_runs * std::mem::size_of::<vcal_spmd::CommRun>();
        }
        b
    }
}

impl std::fmt::Debug for PreparedPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedPlan")
            .field("lhs", &self.lhs_array)
            .field("pmax", &self.pmax)
            .field("referenced", &self.referenced)
            .finish_non_exhaustive()
    }
}

/// Freeze the run-invariant half of an execution: validate the clause
/// against the plan, resolve the guard, and compile every schedule —
/// closed-form or naive-guard alike — into flat run tables plus the
/// bytecode kernel. A clause the tables cannot express (a reference
/// outside the plan's read slots, a loop variable of another dimension)
/// is a [`MachineError::PlanMismatch`] here, not at run time: every
/// plan this returns has execution tables on every node. The
/// decompositions are captured so later runs can detect redistribution.
pub fn prepare_run(
    plan: SpmdPlan,
    clause: &Clause,
    decomps: &BTreeMap<String, Decomp1>,
) -> Result<PreparedPlan, MachineError> {
    if plan.ordering != Ordering::Par {
        return Err(MachineError::SequentialClause);
    }
    let node0 = plan
        .nodes
        .first()
        .ok_or_else(|| MachineError::PlanMismatch("plan has no nodes".into()))?;
    let mut referenced: Vec<String> = vec![plan.lhs_array.clone()];
    for rp in &node0.resides {
        if !referenced.contains(&rp.array) {
            referenced.push(rp.array.clone());
        }
    }
    let mut captured: BTreeMap<String, Decomp1> = BTreeMap::new();
    for name in &referenced {
        let dec = decomps
            .get(name)
            .ok_or_else(|| MachineError::UnknownArray(name.clone()))?;
        if dec.pmax() != plan.pmax {
            return Err(MachineError::PlanMismatch(format!(
                "array `{name}` decomposed over {} processors, plan has {}",
                dec.pmax(),
                plan.pmax
            )));
        }
        captured.insert(name.clone(), dec.clone());
    }
    let slot_of = |r: &ArrayRef| -> Result<usize, MachineError> {
        let g = r.map.as_fn1().ok_or_else(|| {
            MachineError::PlanMismatch(format!("read ref `{}` is not 1-D but the plan is", r.array))
        })?;
        (node0.resides.iter())
            .position(|rp| rp.array == r.array && rp.g == *g)
            .ok_or_else(|| {
                MachineError::PlanMismatch(format!(
                    "read ref `{}` missing from the plan's reside list",
                    r.array
                ))
            })
    };
    for r in clause.rhs.refs() {
        slot_of(r)?;
    }
    let rguard = resolve_guard(&clause.guard, |r| slot_of(r).ok())?;
    let compiled = CompiledSchedule::compile_exec(&plan, clause, &captured);
    // every reference resolved above, so only an operand that does not
    // fit the bytecode (slot ≥ 2¹⁶, loop dimension ≥ 2⁸) is left
    let kernel = compiled.kernel.as_ref().ok_or_else(|| {
        MachineError::PlanMismatch("the clause expression does not fit the kernel bytecode".into())
    })?;
    for op in kernel.ops() {
        if let KernelOp::LoopVar(dim @ 1..) = op {
            return Err(MachineError::PlanMismatch(format!(
                "loop variable of dimension {dim} in a 1-D plan"
            )));
        }
    }
    Ok(PreparedPlan {
        pmax: plan.pmax,
        lhs_array: plan.lhs_array.clone(),
        compiled,
        rguard,
        referenced,
        d1: Some(Plan1 {
            plan,
            decomps: captured,
        }),
    })
}

/// [`prepare_run`] against the decompositions of the live images in
/// `arrays` — what a one-shot (cold) execution prepares.
pub(crate) fn prepare_for(
    plan: &SpmdPlan,
    clause: &Clause,
    arrays: &BTreeMap<String, DistArray>,
) -> Result<PreparedPlan, MachineError> {
    let decomps = arrays
        .iter()
        .map(|(name, da)| (name.clone(), da.decomp().clone()))
        .collect();
    prepare_run(plan.clone(), clause, &decomps)
}

/// Lower a clause of any dimensionality against the decompositions of
/// the live images in `arrays`: run tables only, no 1-D plan.
pub(crate) fn prepare_nd(
    clause: &Clause,
    arrays: &BTreeMap<String, DistArrayNd>,
) -> Result<PreparedPlan, MachineError> {
    if clause.ordering != Ordering::Par {
        return Err(MachineError::SequentialClause);
    }
    let referenced = clause_arrays(clause);
    let mut decomps = BTreeMap::new();
    for name in &referenced {
        let da = arrays
            .get(name)
            .ok_or_else(|| MachineError::UnknownArray(name.clone()))?;
        decomps.insert(name.clone(), da.decomp().clone());
    }
    let compiled =
        lower_nd(clause, &decomps).map_err(|e| MachineError::PlanMismatch(e.to_string()))?;
    // slots are the distinct read references, in reference order
    let mut slots: Vec<&ArrayRef> = Vec::new();
    for r in clause.read_refs() {
        if !slots.contains(&r) {
            slots.push(r);
        }
    }
    let rguard = resolve_guard(&clause.guard, |r| slots.iter().position(|s| *s == r))?;
    Ok(PreparedPlan {
        pmax: decomps[&clause.lhs.array].pmax(),
        lhs_array: clause.lhs.array.clone(),
        compiled,
        rguard,
        referenced,
        d1: None,
    })
}

/// Per-run context shared by every worker of one execution.
struct RunCtx {
    prepared: Arc<PreparedPlan>,
    opts: DistOptions,
    trace_on: bool,
    /// Run the purge + Ready/Go barrier before sending. Needed only
    /// when the previous run may have left frames in the data channels
    /// (it failed, or its fault plan allowed post-`Done` retransmits);
    /// after a clean fault-free run the channels are provably empty —
    /// every frame a peer sends precedes its `Done`, and a worker only
    /// finishes its drain after consuming every peer's `Done`.
    handshake: bool,
}

/// One dispatched execution for one worker.
struct Job {
    ctx: Arc<RunCtx>,
    locals: BTreeMap<String, Vec<f64>>,
}

/// Shared context of one wave: the jobs of a DAG schedule wave in
/// program-ordinal order. A wave is ONE transport run — sequence
/// numbers run continuously across jobs, which is what makes the
/// plan-derived seq-window demultiplexing of [`WaveRecv`] exact (a
/// per-job endpoint reset would replay seqnos from 0 and a fast peer's
/// frames would be dropped as duplicates by a not-yet-reset slow peer).
struct WaveCtx {
    jobs: Vec<Arc<PreparedPlan>>,
    opts: DistOptions,
    trace_on: bool,
    handshake: bool,
}

/// One dispatched wave for one worker: per-job local memories (each
/// restricted to that job's referenced arrays) cloned from the host's
/// master parts.
struct WaveJob {
    ctx: Arc<WaveCtx>,
    locals: Vec<BTreeMap<String, Vec<f64>>>,
}

/// Host-to-worker control stream. A run is a two-step handshake:
/// `Job`/`Wave` (reset, purge stale frames, report
/// [`WorkerMsg::Ready`]) then `Go` (start sending). The barrier exists
/// because the stale-frame purge must finish on *every* worker before
/// *any* worker may put new frames on the wire — a fast peer could
/// otherwise have its fresh frames eaten by a slow peer's purge.
enum Cmd {
    Job(Job),
    Wave(WaveJob),
    Go,
}

/// What a worker ships back after a run.
struct Reply {
    outcome: NodeOutcome,
    events: Vec<(i64, EventKind)>,
    timings: Vec<(i64, Phase, Duration)>,
}

/// One job's share of a wave reply. Writes stay ordinal-keyed (the
/// position in [`WaveReply::jobs`] is the job's wave ordinal) so the
/// host can stage commits in strict program order.
struct JobReply {
    writes: Vec<WriteOp>,
    stats: NodeStats,
    sent_to: Vec<u64>,
    res: Result<(), MachineError>,
    events: Vec<(i64, EventKind)>,
    timings: Vec<(i64, Phase, Duration)>,
}

/// What a worker ships back after a wave: one [`JobReply`] per job in
/// wave order, plus the wave-level drain trace (recorded once — the
/// drain belongs to the transport run, not to any one job).
struct WaveReply {
    jobs: Vec<JobReply>,
    drain_events: Vec<(i64, EventKind)>,
    drain_timings: Vec<(i64, Phase, Duration)>,
}

/// Worker-to-host stream: `Ready` answers `Cmd::Job`/`Cmd::Wave`,
/// `Done`/`WaveDone` answer `Cmd::Go`.
enum WorkerMsg {
    Ready,
    Done(Box<Reply>),
    WaveDone(Box<WaveReply>),
}

#[derive(Default)]
pub(crate) struct BufInner {
    pub(crate) events: Vec<(i64, EventKind)>,
    pub(crate) timings: Vec<(i64, Phase, Duration)>,
}

/// A thread-local event buffer implementing [`Tracer`]. A pooled worker
/// cannot borrow the caller's tracer (its thread outlives any one run),
/// so it records into this buffer and the host replays the buffer into
/// the real tracer after collecting the reply — per-node event order is
/// preserved, which is all the collecting tracer's canonical sort needs.
pub(crate) struct BufTracer {
    on: AtomicBool,
    buf: Mutex<BufInner>,
}

impl BufTracer {
    pub(crate) fn new() -> BufTracer {
        BufTracer {
            on: AtomicBool::new(false),
            buf: Mutex::new(BufInner::default()),
        }
    }

    pub(crate) fn set_enabled(&self, on: bool) {
        self.on.store(on, AtomicOrdering::Relaxed);
    }

    pub(crate) fn take(&self) -> BufInner {
        let mut b = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut *b)
    }
}

impl Tracer for BufTracer {
    fn enabled(&self) -> bool {
        self.on.load(AtomicOrdering::Relaxed)
    }

    fn record(&self, node: i64, kind: EventKind) {
        if self.enabled() {
            let mut b = self.buf.lock().unwrap_or_else(|e| e.into_inner());
            b.events.push((node, kind));
        }
    }

    fn timing(&self, node: i64, phase: Phase, elapsed: Duration) {
        if self.enabled() {
            let mut b = self.buf.lock().unwrap_or_else(|e| e.into_inner());
            b.timings.push((node, phase, elapsed));
        }
    }
}

/// One parked node thread of the pool.
struct WorkerHandle {
    job_tx: Sender<Cmd>,
    reply_rx: Receiver<WorkerMsg>,
    handle: Option<JoinHandle<()>>,
}

/// The persistent distributed executor: `pmax` node threads spawned
/// once, parked between runs, replaying [`PreparedPlan`]s through
/// reused transport endpoints and staging buffers. See the module docs
/// for lifecycle and crash-retirement semantics.
pub struct DistExecutor {
    pmax: usize,
    workers: Vec<WorkerHandle>,
    broken: bool,
    /// The previous run may have left stale frames behind (see
    /// [`RunCtx::handshake`]); the next run must purge under a barrier.
    dirty: bool,
}

impl std::fmt::Debug for DistExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistExecutor")
            .field("pmax", &self.pmax)
            .field("workers", &self.workers.len())
            .field("broken", &self.broken)
            .finish()
    }
}

fn build_pool(pmax: usize) -> Vec<WorkerHandle> {
    let mut txs: Vec<Sender<Frame<Wire>>> = Vec::with_capacity(pmax);
    let mut data_rxs: Vec<Receiver<Frame<Wire>>> = Vec::with_capacity(pmax);
    for _ in 0..pmax {
        let (tx, rx) = unbounded();
        txs.push(tx);
        data_rxs.push(rx);
    }
    let mut workers = Vec::with_capacity(pmax);
    for (p, data_rx) in data_rxs.into_iter().enumerate() {
        let (job_tx, job_rx) = unbounded::<Cmd>();
        let (reply_tx, reply_rx) = unbounded::<WorkerMsg>();
        let txs = txs.clone();
        let handle =
            std::thread::spawn(move || worker_main(p as i64, txs, data_rx, job_rx, reply_tx));
        workers.push(WorkerHandle {
            job_tx,
            reply_rx,
            handle: Some(handle),
        });
    }
    workers
}

/// The placeholder outcome of a worker that died without replying.
fn dead_outcome(p: i64, pmax: usize) -> NodeOutcome {
    (
        p,
        BTreeMap::new(),
        Vec::new(),
        NodeStats::default(),
        vec![0u64; pmax],
        Err(MachineError::NodePanicked { node: p }),
    )
}

impl DistExecutor {
    /// Spawn a pool of `pmax` parked node threads.
    pub fn new(pmax: i64) -> DistExecutor {
        let pmax = pmax.max(0) as usize;
        DistExecutor {
            pmax,
            workers: build_pool(pmax),
            broken: false,
            dirty: false,
        }
    }

    /// Number of pooled node threads.
    pub fn pmax(&self) -> usize {
        self.pmax
    }

    /// Whether a worker died and the pool will rebuild on the next run.
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    fn teardown(&mut self) {
        let mut handles = Vec::new();
        for mut w in self.workers.drain(..) {
            if let Some(h) = w.handle.take() {
                handles.push(h);
            }
            // dropping `w` hangs up its job channel, unparking the thread
        }
        for h in handles {
            let _ = h.join();
        }
    }

    /// Retire every worker (dead or alive) and spawn a fresh pool.
    fn rebuild(&mut self) {
        self.teardown();
        self.workers = build_pool(self.pmax);
        self.broken = false;
        self.dirty = false; // fresh channels start empty
    }

    /// Execute `prepared` once on the pool. Semantics are identical to
    /// [`run_distributed_traced`](crate::run_distributed_traced) on the
    /// same plan: bit-identical results and statistics, same typed
    /// errors, all-or-nothing commit, replay-valid traces. Only the
    /// setup cost differs.
    pub fn run(
        &mut self,
        prepared: &Arc<PreparedPlan>,
        arrays: &mut BTreeMap<String, DistArray>,
        opts: DistOptions,
        tracer: &dyn Tracer,
    ) -> Result<ExecReport, MachineError> {
        // the plan was captured against specific decompositions; a run
        // against redistributed images would scatter garbage
        let d1 = prepared.d1()?;
        for name in &prepared.referenced {
            let da = arrays
                .get(name)
                .ok_or_else(|| MachineError::UnknownArray(name.clone()))?;
            if da.decomp() != &d1.decomps[name] {
                return Err(MachineError::PlanMismatch(format!(
                    "array `{name}` was redistributed since the plan was prepared"
                )));
            }
        }
        trace_plan(tracer, &d1.plan);
        self.run_on(prepared, arrays, opts, tracer)
    }

    /// [`DistExecutor::run`] on images of any rank, trusting the caller
    /// that `prepared` was built against their current decompositions.
    pub(crate) fn run_on<A: Image>(
        &mut self,
        prepared: &Arc<PreparedPlan>,
        arrays: &mut BTreeMap<String, A>,
        opts: DistOptions,
        tracer: &dyn Tracer,
    ) -> Result<ExecReport, MachineError> {
        if prepared.pmax.max(0) as usize != self.pmax {
            return Err(MachineError::PlanMismatch(format!(
                "prepared plan spans {} processors, pool has {}",
                prepared.pmax, self.pmax
            )));
        }
        if self.broken {
            self.rebuild();
        }
        let taken = disassemble(arrays, &prepared.referenced, prepared.pmax)?;
        let trace_on = tracer.enabled();
        let handshake = self.dirty;
        let ctx = Arc::new(RunCtx {
            prepared: Arc::clone(prepared),
            opts,
            trace_on,
            handshake,
        });
        // Dispatch. When the channels may hold stale frames this is a
        // two-step handshake (see [`Cmd`]): every worker must finish its
        // purge before any worker starts sending.
        let mut running = vec![false; self.pmax];
        for (p, locals) in taken.per_node.into_iter().enumerate() {
            let sent = self.workers[p]
                .job_tx
                .send(Cmd::Job(Job {
                    ctx: Arc::clone(&ctx),
                    locals,
                }))
                .is_ok();
            running[p] = sent;
            if !sent {
                self.broken = true;
            }
        }
        if handshake {
            for (p, w) in self.workers.iter().enumerate() {
                if running[p] && !matches!(w.reply_rx.recv(), Ok(WorkerMsg::Ready)) {
                    // died between dispatch and ready: retire, run without it
                    self.broken = true;
                    running[p] = false;
                }
            }
            for (p, w) in self.workers.iter().enumerate() {
                if running[p] && w.job_tx.send(Cmd::Go).is_err() {
                    self.broken = true;
                    running[p] = false;
                }
            }
        }
        let mut results: Vec<NodeOutcome> = Vec::with_capacity(self.pmax);
        let mut buffered = Vec::new();
        for (p, w) in self.workers.iter().enumerate() {
            if !running[p] {
                results.push(dead_outcome(p as i64, self.pmax));
                continue;
            }
            match w.reply_rx.recv() {
                Ok(WorkerMsg::Done(reply)) => {
                    results.push(reply.outcome);
                    buffered.push((reply.events, reply.timings));
                }
                Ok(WorkerMsg::Ready | WorkerMsg::WaveDone(_)) | Err(_) => {
                    // the thread died without replying (or broke the
                    // handshake): retire it and rebuild lazily next run
                    self.broken = true;
                    results.push(dead_outcome(p as i64, self.pmax));
                }
            }
        }
        // a failed node exits without draining, and a fault plan can
        // retransmit after `Done` — either way the next run must purge
        self.dirty = opts.faults.is_some() || results.iter().any(|r| r.5.is_err());
        if trace_on {
            // replies arrive in node order, and each buffer preserves
            // its node's recording order — the collecting tracer's
            // canonical (class, node, clock) sort sees the same stream
            // a cold run records live
            for (events, timings) in buffered {
                for (n, k) in events {
                    tracer.record(n, k);
                }
                for (n, ph, d) in timings {
                    tracer.timing(n, ph, d);
                }
            }
        }
        finalize_run(
            &prepared.lhs_array,
            &prepared.referenced,
            taken.shapes,
            results,
            arrays,
            tracer,
        )
    }

    /// Execute one DAG-schedule wave — a set of pairwise-independent
    /// jobs, in program-ordinal order — concurrently on the pool.
    ///
    /// Every job reads a snapshot of the pre-wave arrays (independence
    /// guarantees each job's inputs equal its strict-sequential inputs)
    /// and its writes are staged ordinal-keyed; the host commits them
    /// job-by-job in program order, so the post-wave arrays are bitwise
    /// identical to running the jobs strictly sequentially. The whole
    /// wave is all-or-nothing: any job failing on any node rolls the
    /// wave back to pre-wave state and reports the root-cause error.
    ///
    /// Returns one [`ExecReport`] per job, in wave order.
    pub fn run_wave(
        &mut self,
        jobs: &[Arc<PreparedPlan>],
        arrays: &mut BTreeMap<String, DistArray>,
        opts: DistOptions,
        tracer: &dyn Tracer,
    ) -> Result<Vec<ExecReport>, MachineError> {
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        for prepared in jobs {
            if prepared.pmax.max(0) as usize != self.pmax {
                return Err(MachineError::PlanMismatch(format!(
                    "prepared plan spans {} processors, pool has {}",
                    prepared.pmax, self.pmax
                )));
            }
        }
        if self.broken {
            self.rebuild();
        }
        // union of referenced arrays + their captured decompositions;
        // every plan must still match the live images
        let mut referenced: Vec<String> = Vec::new();
        let mut decomps: BTreeMap<String, Decomp1> = BTreeMap::new();
        for prepared in jobs {
            let d1 = prepared.d1()?;
            for name in &prepared.referenced {
                let da = arrays
                    .get(name)
                    .ok_or_else(|| MachineError::UnknownArray(name.clone()))?;
                if da.decomp() != &d1.decomps[name] {
                    return Err(MachineError::PlanMismatch(format!(
                        "array `{name}` was redistributed since the plan was prepared"
                    )));
                }
                if !referenced.contains(name) {
                    referenced.push(name.clone());
                    decomps.insert(name.clone(), d1.decomps[name].clone());
                }
            }
            trace_plan(tracer, &d1.plan);
        }
        let pmax = jobs[0].pmax;
        let mut master = disassemble(arrays, &referenced, pmax)?.per_node;
        let trace_on = tracer.enabled();
        let handshake = self.dirty;
        let ctx = Arc::new(WaveCtx {
            jobs: jobs.to_vec(),
            opts,
            trace_on,
            handshake,
        });
        let mut running = vec![false; self.pmax];
        for (p, w) in self.workers.iter().enumerate() {
            // per-job snapshots of this node's master parts, restricted
            // to each job's referenced arrays
            let locals: Vec<BTreeMap<String, Vec<f64>>> = jobs
                .iter()
                .map(|job| {
                    job.referenced
                        .iter()
                        .map(|name| {
                            (
                                name.clone(),
                                master[p].get(name).cloned().unwrap_or_default(),
                            )
                        })
                        .collect()
                })
                .collect();
            let sent = w
                .job_tx
                .send(Cmd::Wave(WaveJob {
                    ctx: Arc::clone(&ctx),
                    locals,
                }))
                .is_ok();
            running[p] = sent;
            if !sent {
                self.broken = true;
            }
        }
        if handshake {
            for (p, w) in self.workers.iter().enumerate() {
                if running[p] && !matches!(w.reply_rx.recv(), Ok(WorkerMsg::Ready)) {
                    self.broken = true;
                    running[p] = false;
                }
            }
            for (p, w) in self.workers.iter().enumerate() {
                if running[p] && w.job_tx.send(Cmd::Go).is_err() {
                    self.broken = true;
                    running[p] = false;
                }
            }
        }
        let mut replies: Vec<Option<Box<WaveReply>>> = Vec::with_capacity(self.pmax);
        for (p, w) in self.workers.iter().enumerate() {
            if !running[p] {
                replies.push(None);
                continue;
            }
            match w.reply_rx.recv() {
                Ok(WorkerMsg::WaveDone(reply)) => replies.push(Some(reply)),
                Ok(WorkerMsg::Ready | WorkerMsg::Done(_)) | Err(_) => {
                    self.broken = true;
                    replies.push(None);
                }
            }
        }
        self.dirty = opts.faults.is_some()
            || replies.iter().any(|r| match r {
                None => true,
                Some(wr) => wr.jobs.iter().any(|j| j.res.is_err()),
            });
        if trace_on {
            // replies arrive in node order; within a node, job streams
            // in wave order then the drain span — exactly the order a
            // sequence of single runs would have recorded per node
            for reply in replies.iter_mut().flatten() {
                for jr in &mut reply.jobs {
                    for (n, k) in jr.events.drain(..) {
                        tracer.record(n, k);
                    }
                    for (n, ph, d) in jr.timings.drain(..) {
                        tracer.timing(n, ph, d);
                    }
                }
                for (n, k) in reply.drain_events.drain(..) {
                    tracer.record(n, k);
                }
                for (n, ph, d) in reply.drain_timings.drain(..) {
                    tracer.timing(n, ph, d);
                }
            }
        }
        finalize_wave(
            jobs,
            &referenced,
            &decomps,
            &mut master,
            replies,
            arrays,
            tracer,
        )
    }
}

/// Host-side tail of a wave (the wave analogue of
/// [`finalize_run`]): pick the root-cause error across all jobs ×
/// nodes, validate *every* job's writes before committing *any*
/// (all-or-nothing for the whole wave), commit job-by-job in
/// program-ordinal order into the master parts, and reassemble — on
/// error from the untouched parts, restoring pre-wave state.
fn finalize_wave(
    jobs: &[Arc<PreparedPlan>],
    referenced: &[String],
    decomps: &BTreeMap<String, Decomp1>,
    master: &mut [BTreeMap<String, Vec<f64>>],
    mut replies: Vec<Option<Box<WaveReply>>>,
    arrays: &mut BTreeMap<String, DistArray>,
    tracer: &dyn Tracer,
) -> Result<Vec<ExecReport>, MachineError> {
    let commit_t0 = tracer.enabled().then(std::time::Instant::now);
    let root_cause = |e: &MachineError| {
        matches!(
            e,
            MachineError::NodePanicked { .. } | MachineError::Transport { .. }
        )
    };
    let mut first_err: Option<MachineError> = None;
    {
        let mut consider = |e: &MachineError| match &first_err {
            None => first_err = Some(e.clone()),
            Some(have) if !root_cause(have) && root_cause(e) => first_err = Some(e.clone()),
            Some(_) => {}
        };
        for (p, r) in replies.iter().enumerate() {
            match r {
                None => consider(&MachineError::NodePanicked { node: p as i64 }),
                Some(wr) => {
                    if wr.jobs.len() != jobs.len() {
                        consider(&MachineError::PlanMismatch(format!(
                            "node {p} replied with {} job results for a {}-job wave",
                            wr.jobs.len(),
                            jobs.len()
                        )));
                        continue;
                    }
                    for jr in &wr.jobs {
                        if let Err(e) = &jr.res {
                            consider(e);
                        }
                    }
                }
            }
        }
    }

    // validate every write of every job before committing any
    if first_err.is_none() {
        'validate: for (j, job) in jobs.iter().enumerate() {
            let lhs = &job.lhs_array;
            for (p, r) in replies.iter().enumerate() {
                let Some(wr) = r else { continue };
                let len = master[p].get(lhs).map_or(0, Vec::len);
                for w in &wr.jobs[j].writes {
                    let bad = match w {
                        WriteOp::El(off, _) => (*off >= len).then_some((*off, 1usize)),
                        WriteOp::Dense { base, values } => {
                            (base + values.len() > len).then_some((*base, values.len()))
                        }
                    };
                    if let Some((off, span)) = bad {
                        first_err = Some(MachineError::PlanMismatch(format!(
                            "write span [{off}, {}) outside node {p}'s local part (len {len})",
                            off + span
                        )));
                        break 'validate;
                    }
                }
            }
        }
    }
    let commit = first_err.is_none();

    // commit staging is ordinal-keyed: job j's writes land before job
    // j+1's, so the final image equals strict sequential execution even
    // if two jobs wrote the same element (the DAG builder never
    // schedules such jobs in one wave; this is defense in depth)
    if commit {
        for (j, job) in jobs.iter().enumerate() {
            let lhs = &job.lhs_array;
            for (p, r) in replies.iter_mut().enumerate() {
                let Some(wr) = r else { continue };
                let Some(part) = master[p].get_mut(lhs) else {
                    continue;
                };
                for w in std::mem::take(&mut wr.jobs[j].writes) {
                    match w {
                        WriteOp::El(off, v) => part[off] = v, // validated above
                        WriteOp::Dense { base, values } => {
                            part[base..base + values.len()].copy_from_slice(&values)
                        }
                    }
                }
            }
        }
    }

    // reassemble (on error: the parts were never touched → pre-wave)
    for name in referenced {
        let parts: Vec<Vec<f64>> = master
            .iter_mut()
            .map(|m| m.remove(name).unwrap_or_default())
            .collect();
        arrays.insert(
            name.clone(),
            DistArray::from_parts(decomps[name].clone(), parts),
        );
    }

    let mut reports = Vec::with_capacity(jobs.len());
    for j in 0..jobs.len() {
        let mut report = ExecReport::default();
        for r in &replies {
            match r {
                Some(wr) => {
                    report.nodes.push(wr.jobs[j].stats);
                    report.traffic.push(wr.jobs[j].sent_to.clone());
                }
                None => {
                    report.nodes.push(NodeStats::default());
                    report.traffic.push(vec![0u64; replies.len()]);
                }
            }
        }
        reports.push(report);
    }
    if let Some(t0) = commit_t0 {
        tracer.timing(crate::obs::HOST, Phase::Commit, t0.elapsed());
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(reports),
    }
}

/// The worker-side body of one wave: per-job lanes and seq windows
/// derived from the jobs' plans, then two passes — every job's send
/// phase first (pre-posting all boundary frames), then every job's
/// update phase in wave order — and one `Done` + drain for the whole
/// wave. Pre-posting means an update's receives almost never block on
/// a peer still parked in an earlier job, which matters most on an
/// oversubscribed host. After any job fails, the remaining jobs on
/// this node are skipped (their results carry the first failure) and
/// the wave aborts all-or-nothing.
fn wave_worker_body(
    p: i64,
    ep: &mut Endpoint<Wire>,
    scratch: &mut Scratch,
    buf: &BufTracer,
    ctx: &WaveCtx,
    locals: Vec<BTreeMap<String, Vec<f64>>>,
) -> WaveReply {
    let pu = p as usize;
    let pmax = ep.peer_count();
    let lanes: Vec<JobLane> = ctx
        .jobs
        .iter()
        .map(|job| {
            let cn = &job.compiled.nodes[pu];
            JobLane {
                src_ord: cn.src_ord.clone(),
                pending: BTreeMap::new(),
                staging: cn.staging_packets.iter().map(|&n| vec![None; n]).collect(),
            }
        })
        .collect();
    // cumulative planned data frames per source: element mode sends one
    // frame per element, vectorized one per planned packet — mirrored
    // exactly by the sender's send phase, which walks the same pair
    // sets in the same order
    let mut cuts: Vec<Vec<u64>> = vec![vec![0]; pmax];
    for job in &ctx.jobs {
        let cn = &job.compiled.nodes[pu];
        let mut from = vec![0u64; pmax];
        for (ord, peer) in cn.src_peers.iter().enumerate() {
            let frames = match ctx.opts.mode {
                CommMode::Element => cn.recv_elems[ord],
                CommMode::Vectorized => cn.staging_packets[ord] as u64,
            };
            if let Some(from) = usize::try_from(*peer).ok().and_then(|s| from.get_mut(s)) {
                *from += frames;
            }
        }
        for (src, col) in cuts.iter_mut().enumerate() {
            let last = col.last().copied().unwrap_or(0);
            col.push(last + from[src]);
        }
    }
    let mut wr = WaveRecv {
        cur: 0,
        lanes,
        cuts,
    };
    let njobs = ctx.jobs.len();
    let mut jobs_out: Vec<JobReply> = Vec::with_capacity(njobs);
    let mut first_fail: Option<MachineError> = None;
    let mut panicked = false;
    let mut stats_v = vec![NodeStats::default(); njobs];
    let mut sent_v = vec![vec![0u64; pmax]; njobs];
    let mut send_buf: Vec<BufInner> = Vec::with_capacity(njobs);
    // pass 1 — post *every* job's boundary sends before any update
    // phase blocks on a receive: on an oversubscribed host this turns
    // k send→recv thread handoffs into one wave-wide exchange. The
    // per-source seq-window cuts route early frames to the right job
    // lane, so arrival before the consuming job starts is fine.
    for (j, (prepared, job_locals)) in ctx.jobs.iter().zip(&locals).enumerate() {
        let res = if first_fail.is_some() {
            Ok(())
        } else {
            let stats = &mut stats_v[j];
            let sent_to = &mut sent_v[j];
            let phases = catch_unwind(AssertUnwindSafe(|| {
                warm_phases(
                    p,
                    job_locals,
                    prepared,
                    &ctx.opts,
                    ep,
                    scratch,
                    None,
                    stats,
                    sent_to,
                    buf,
                    PhaseSpan::SendOnly,
                )
            }));
            match phases {
                Ok(r) => r,
                Err(_) => {
                    panicked = true;
                    Err(MachineError::NodePanicked { node: p })
                }
            }
        };
        if let Err(e) = res {
            if first_fail.is_none() {
                first_fail = Some(e);
            }
        }
        send_buf.push(buf.take());
    }
    // pass 2 — run each job's update phase in wave order, consuming
    // through its lane. Buffered per-job events replay host-side as
    // send-then-update per job, so the canonical trace is identical to
    // the interleaved schedule's.
    for (j, (prepared, job_locals)) in ctx.jobs.iter().zip(&locals).enumerate() {
        wr.cur = j;
        reset_scratch(scratch, prepared, p);
        let mut stats = std::mem::take(&mut stats_v[j]);
        let sent_to = std::mem::take(&mut sent_v[j]);
        let res = match &first_fail {
            Some(e) => Err(e.clone()),
            None => {
                let phases = catch_unwind(AssertUnwindSafe(|| {
                    warm_phases(
                        p,
                        job_locals,
                        prepared,
                        &ctx.opts,
                        ep,
                        scratch,
                        Some(&mut wr),
                        &mut stats,
                        &mut [],
                        buf,
                        PhaseSpan::UpdateOnly,
                    )
                }));
                match phases {
                    Ok(r) => r,
                    Err(_) => {
                        panicked = true;
                        Err(MachineError::NodePanicked { node: p })
                    }
                }
            }
        };
        if res.is_err() {
            scratch.writes.clear();
            if first_fail.is_none() {
                first_fail = res.as_ref().err().cloned();
            }
        }
        let BufInner {
            mut events,
            mut timings,
        } = std::mem::take(&mut send_buf[j]);
        let BufInner {
            events: up_events,
            timings: up_timings,
        } = buf.take();
        events.extend(up_events);
        timings.extend(up_timings);
        jobs_out.push(JobReply {
            writes: std::mem::take(&mut scratch.writes),
            stats,
            sent_to,
            res,
            events,
            timings,
        });
    }
    ep.announce_done();
    if !panicked {
        // drain stats land on the wave's last job, mirroring how a solo
        // run charges its own drain
        let mut fallback = NodeStats::default();
        let dstats = jobs_out
            .last_mut()
            .map_or(&mut fallback, |last| &mut last.stats);
        if ctx.trace_on {
            buf.record(p, EventKind::PhaseStart(Phase::Drain));
            let t0 = std::time::Instant::now();
            ep.drain(ctx.opts.recv_timeout, dstats);
            buf.timing(p, Phase::Drain, t0.elapsed());
            buf.record(p, EventKind::PhaseEnd(Phase::Drain));
        } else {
            ep.drain(ctx.opts.recv_timeout, dstats);
        }
    }
    let BufInner { events, timings } = buf.take();
    WaveReply {
        jobs: jobs_out,
        drain_events: events,
        drain_timings: timings,
    }
}

impl Drop for DistExecutor {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// Per-worker scratch reused (cleared, not reallocated) across runs.
/// Shared with the process-backed pool (`crate::proc`), whose workers
/// carry one across jobs exactly like a pooled thread does.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Element mode: out-of-order arrivals keyed `(slot, i)`.
    pending: BTreeMap<(usize, i64), f64>,
    /// Vectorized mode: `staging[source ordinal][packet]` packet values.
    staging: Staging,
    /// Operand values of the current iteration, one per read slot.
    vals: Vec<f64>,
    /// Kernel evaluation stack (compiled path), reused across runs.
    stack: Vec<f64>,
    /// Collected local writes, committed by the host.
    pub(crate) writes: Vec<WriteOp>,
}

/// Size (and clear) a worker's scratch for one prepared plan — shared
/// by the pooled-thread and pooled-process workers so both reuse
/// buffers instead of reallocating per run.
pub(crate) fn reset_scratch(scratch: &mut Scratch, prepared: &PreparedPlan, p: i64) {
    let cn = &prepared.compiled.nodes[p as usize];
    scratch.pending.clear();
    scratch
        .staging
        .resize_with(cn.staging_packets.len(), Vec::new);
    for (row, &npackets) in scratch.staging.iter_mut().zip(&cn.staging_packets) {
        row.clear();
        row.resize(npackets, None);
    }
    scratch.vals.clear();
    scratch
        .vals
        .resize(prepared.compiled.slot_arrays.len(), 0.0);
    scratch.writes.clear();
}

/// The body of one pooled node thread: park on the job channel, and for
/// each job reset the endpoint + scratch, run the warm phases under the
/// panic supervisor, drain, and ship the outcome (plus buffered trace)
/// back to the host.
fn worker_main(
    p: i64,
    txs: Vec<Sender<Frame<Wire>>>,
    data_rx: Receiver<Frame<Wire>>,
    job_rx: Receiver<Cmd>,
    reply_tx: Sender<WorkerMsg>,
) {
    let buf = BufTracer::new();
    let mut ep: Endpoint<Wire> = Endpoint::in_proc(p, txs, data_rx, None, &buf);
    let mut scratch = Scratch::default();
    while let Ok(cmd) = job_rx.recv() {
        let job = match cmd {
            Cmd::Job(job) => job,
            Cmd::Wave(wj) => {
                let ctx = Arc::clone(&wj.ctx);
                buf.set_enabled(ctx.trace_on);
                ep.reset(ctx.opts.faults, ctx.trace_on);
                if ctx.handshake {
                    // same purge + Ready/Go barrier as a single job
                    ep.purge_link();
                    if reply_tx.send(WorkerMsg::Ready).is_err() {
                        break;
                    }
                    match job_rx.recv() {
                        Ok(Cmd::Go) => {}
                        Ok(Cmd::Job(_) | Cmd::Wave(_)) | Err(_) => break,
                    }
                }
                let reply = wave_worker_body(p, &mut ep, &mut scratch, &buf, &ctx, wj.locals);
                if reply_tx.send(WorkerMsg::WaveDone(Box::new(reply))).is_err() {
                    break;
                }
                continue;
            }
            Cmd::Go => continue, // stray Go (host retired us mid-handshake)
        };
        let ctx = job.ctx;
        let locals = job.locals;
        buf.set_enabled(ctx.trace_on);
        ep.reset(ctx.opts.faults, ctx.trace_on);
        if ctx.handshake {
            // discard frames a previous (failed or faulty) run left
            // behind; every peer finished that run before the host
            // dispatched this one, so anything buffered here is stale by
            // construction — and the Ready/Go barrier below keeps new
            // frames off the wire until every peer's purge is complete
            ep.purge_link();
        }

        let prepared = &ctx.prepared;
        reset_scratch(&mut scratch, prepared, p);

        let mut stats = NodeStats::default();
        let mut sent_to = vec![0u64; ep.peer_count()];
        let trace_on = ctx.trace_on;

        if ctx.handshake {
            // purge complete: report ready, then hold all sends until
            // every peer has purged too
            if reply_tx.send(WorkerMsg::Ready).is_err() {
                break; // host hung up
            }
            match job_rx.recv() {
                Ok(Cmd::Go) => {}
                Ok(Cmd::Job(_) | Cmd::Wave(_)) | Err(_) => break, // handshake broken
            }
        }

        let phases = catch_unwind(AssertUnwindSafe(|| {
            warm_phases(
                p,
                &locals,
                prepared,
                &ctx.opts,
                &mut ep,
                &mut scratch,
                None,
                &mut stats,
                &mut sent_to,
                &buf,
                PhaseSpan::Full,
            )
        }));
        let res = match phases {
            Ok(r) => {
                ep.announce_done();
                if trace_on {
                    buf.record(p, EventKind::PhaseStart(Phase::Drain));
                    let t0 = std::time::Instant::now();
                    ep.drain(ctx.opts.recv_timeout, &mut stats);
                    buf.timing(p, Phase::Drain, t0.elapsed());
                    buf.record(p, EventKind::PhaseEnd(Phase::Drain));
                } else {
                    ep.drain(ctx.opts.recv_timeout, &mut stats);
                }
                r
            }
            Err(_) => {
                // mirror the cold supervisor: announce completion so
                // peers stop waiting, service nothing, report typed
                ep.announce_done();
                Err(MachineError::NodePanicked { node: p })
            }
        };
        if res.is_err() {
            scratch.writes.clear();
        }
        let BufInner { events, timings } = buf.take();
        let outcome = (
            p,
            locals,
            std::mem::take(&mut scratch.writes),
            stats,
            sent_to,
            res,
        );
        if reply_tx
            .send(WorkerMsg::Done(Box::new(Reply {
                outcome,
                events,
                timings,
            })))
            .is_err()
        {
            break; // host hung up
        }
    }
}

/// Which half of a warm run to execute. A solo run is always
/// [`PhaseSpan::Full`]; the wave worker splits the run so it can post
/// *every* job's boundary sends before any job's update phase blocks
/// on a receive — on an oversubscribed host that collapses the
/// per-job send/recv thread ping-pong into one wave-wide exchange.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum PhaseSpan {
    Full,
    SendOnly,
    UpdateOnly,
}

/// The send + update phases of one run of one node — the phase engine
/// behind pooled threads, wave jobs, socket workers and (on a one-shot
/// pool) cold runs, for clauses of any rank and plans of any dispatch
/// (closed-form or naive-guard). Every loop is driven from the compiled
/// run tables, and receives go through the worker's persistent scratch.
#[allow(clippy::too_many_arguments)]
pub(crate) fn warm_phases(
    p: i64,
    locals: &BTreeMap<String, Vec<f64>>,
    prepared: &PreparedPlan,
    opts: &DistOptions,
    ep: &mut Endpoint<Wire>,
    scratch: &mut Scratch,
    wave: Option<&mut WaveRecv>,
    stats: &mut NodeStats,
    sent_to: &mut [u64],
    tracer: &dyn Tracer,
    span: PhaseSpan,
) -> Result<(), MachineError> {
    let cs = &prepared.compiled;
    let cn = &cs.nodes[p as usize];
    let Scratch {
        pending,
        staging,
        vals,
        stack,
        writes,
    } = scratch;
    // wave jobs receive through their per-job lane in the shared
    // router; a solo run uses the scratch buffers directly
    let mut rcv = match wave {
        Some(w) => RecvCtx::Wave(w),
        None => RecvCtx::Single { pending, staging },
    };
    let parts = slot_parts(locals, cs)?;
    let trace_on = tracer.enabled();

    // ---- send phase: Reside_p ∩ Modify_q, q ≠ p -------------------------
    if span != PhaseSpan::UpdateOnly {
        if trace_on {
            tracer.record(p, EventKind::PhaseStart(Phase::Send));
        }
        let send_t0 = trace_on.then(std::time::Instant::now);
        match opts.mode {
            CommMode::Vectorized => send_phase_vectorized(cn, &parts, ep, stats, sent_to, tracer),
            CommMode::Element => {
                send_phase_element_compiled(cn, &parts, ep, stats, sent_to, tracer)
            }
        }
        ep.end_send_phase(); // flush delayed packets; crash point
        if let Some(t0) = send_t0 {
            tracer.timing(p, Phase::Send, t0.elapsed());
            tracer.record(p, EventKind::PhaseEnd(Phase::Send));
        }
    }
    if span == PhaseSpan::SendOnly {
        return Ok(());
    }

    // ---- update phase: Modify_p -----------------------------------------
    // the modify guard work is charged to the update half, once
    stats.guard_tests += cn.modify_work;
    if trace_on {
        tracer.record(p, EventKind::PhaseStart(Phase::Update));
    }
    let update_t0 = trace_on.then(std::time::Instant::now);
    stack.clear();
    let res = exec_update_phase(
        cs,
        cn,
        &parts,
        &prepared.rguard,
        ep,
        &mut rcv,
        vals,
        stack,
        opts,
        stats,
        writes,
        tracer,
    );
    if let Some(t0) = update_t0 {
        tracer.timing(p, Phase::Update, t0.elapsed());
        tracer.record(p, EventKind::PhaseEnd(Phase::Update));
    }
    res
}
