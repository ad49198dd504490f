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
//!   waves they park on their job channel. Transport endpoints (sequence
//!   numbers, dedup windows), receive lanes, and operand buffers are
//!   *reset*, not reallocated, per wave.
//!
//! The **wave** is the only unit of execution: a set of
//! pairwise-independent prepared clauses in program order, and a single
//! run — cold or warm, of any rank — is a wave of one. There is one
//! node-side body (`wave_body`: every job's send phase, every job's
//! update phase, one `Done`, one drain), called by the pooled threads
//! here and by the socket workers of `crate::proc`, and one host-side
//! dispatch + commit (`DistExecutor::run_wave`, `finalize_wave`).
//! The host *lends* the nodes the disassembled pre-wave parts and keeps
//! ownership: a node never writes a lent part, so every job of the wave
//! reads the same immutable pre-wave memories — no per-job copy. A job's
//! results leave the node as a **next image** (a part-sized buffer every
//! run wrote its span of; the host swaps it in after copying over what
//! the spans leave out) or as staged `WriteOp`s, chosen per node from
//! plan-time counts (`PreparedPlan::writes_image`). The host commits
//! job-by-job in ordinal order into the parts it kept, or not at all;
//! the parts a swap retires feed the next wave's images.
//!
//! Cold and warm runs therefore agree by construction: same results
//! bit-for-bit, same statistics, same deterministic event stream (worker
//! events are buffered thread-locally and replayed into the real tracer
//! after the wave — sound because [`CollectingTracer`] canonicalizes
//! event order by `(class, node, per-node clock)`). A pooled worker that
//! crashes is retired without poisoning the session: the caught panic
//! becomes [`MachineError::NodePanicked`], uncommitted images and writes
//! are discarded (the parts never left the host, so pre-wave state is
//! simply what it still holds), and a genuinely dead thread causes the
//! pool to rebuild itself on the next run.
//!
//! [`CollectingTracer`]: crate::obs::CollectingTracer

use crate::darray::DistArray;
use crate::darray_nd::DistArrayNd;
use crate::distributed::{
    disassemble, exec_update_phase, resolve_guard, send_phase_vectorized, slot_parts, Disassembled,
    DistOptions, Image, RGuard, WaveRecv, Wire, WriteOp,
};
use crate::error::MachineError;
use crate::obs::{EventKind, Phase, Tracer};
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
use vcal_spmd::{clause_arrays, lower_nd, CompiledKernel, CompiledSchedule, KernelOp, SpmdPlan};

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
/// images against and traces, and the clause it ships to socket workers.
/// The phase engine reads none of it — it runs the compiled tables.
pub(crate) struct Plan1 {
    pub(crate) plan: SpmdPlan,
    pub(crate) clause: Clause,
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

    /// The 1-D callers' pre-flight: the plan was captured against
    /// specific decompositions, and a run against redistributed images
    /// would scatter garbage.
    pub(crate) fn check_live(
        &self,
        arrays: &BTreeMap<String, DistArray>,
    ) -> Result<&Plan1, MachineError> {
        let d1 = self.d1()?;
        for name in &self.referenced {
            let da = arrays
                .get(name)
                .ok_or_else(|| MachineError::UnknownArray(name.clone()))?;
            if da.decomp() != &d1.decomps[name] {
                return Err(MachineError::PlanMismatch(format!(
                    "array `{name}` was redistributed since the plan was prepared"
                )));
            }
        }
        Ok(d1)
    }

    /// Whether node `p` commits this job as a *next image* of its
    /// `len`-element lhs part instead of staged [`WriteOp`]s: the clause
    /// is unguarded, the node may ([`CompiledNode::can_write_image`]) and
    /// the plan's write spans exist and lie inside the part.
    ///
    /// [`CompiledNode::can_write_image`]: vcal_spmd::CompiledNode::can_write_image
    pub(crate) fn writes_image(&self, p: usize, len: usize) -> bool {
        let Some(cn) = self.compiled.nodes.get(p) else {
            return false;
        };
        matches!(self.rguard, RGuard::Always)
            && cn.can_write_image(len)
            && (cn.write_spans.as_ref())
                .is_some_and(|spans| spans.last().is_none_or(|last| last.1 <= len))
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
    for op in kernel_of(&compiled)?.ops() {
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
            clause: clause.clone(),
            decomps: captured,
        }),
    })
}

/// The kernel of a compiled schedule, which every [`PreparedPlan`] of
/// either rank has: both prepare paths resolve every reference first, so
/// the only way to be without one is an operand that does not fit the
/// bytecode (slot ≥ 2¹⁶, loop dimension ≥ 2⁸).
fn kernel_of(compiled: &CompiledSchedule) -> Result<&CompiledKernel, MachineError> {
    compiled.kernel.as_ref().ok_or_else(|| {
        MachineError::PlanMismatch("the clause expression does not fit the kernel bytecode".into())
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
    kernel_of(&compiled)?;
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

/// Shared context of one wave: pairwise-independent jobs in
/// program-ordinal order (a single run is a wave of one), plus the node
/// memories the host lends for its duration. A wave is ONE transport
/// run — sequence numbers run continuously across jobs, which is what
/// makes the plan-derived seq-window demultiplexing of [`WaveRecv`]
/// exact (a per-job endpoint reset would replay seqnos from 0 and a fast
/// peer's frames would be dropped as duplicates by a not-yet-reset slow
/// peer).
struct WaveCtx {
    jobs: Vec<Arc<PreparedPlan>>,
    opts: DistOptions,
    trace_on: bool,
    /// Run the purge + Ready/Go barrier before sending. Needed only
    /// when the previous wave may have left frames in the data channels
    /// (it failed, or its fault plan allowed post-`Done` retransmits);
    /// after a clean fault-free wave the channels are provably empty —
    /// every frame a peer sends precedes its `Done`, and a worker only
    /// finishes its drain after consuming every peer's `Done`.
    handshake: bool,
    /// Per node, its part of every array the wave references. Lent, not
    /// given: what the nodes produce is committed by the host afterwards,
    /// so every job of every node reads these pre-wave parts through a
    /// shared reference, and the host takes them back once every worker
    /// has replied (and thereby dropped its handle).
    parts: Vec<BTreeMap<String, Vec<f64>>>,
}

/// Host-to-worker control stream. A wave is a two-step handshake:
/// `Wave` (reset, purge stale frames, report [`WorkerMsg::Ready`]) then
/// `Go` (start sending). The barrier exists because the stale-frame
/// purge must finish on *every* worker before *any* worker may put new
/// frames on the wire — a fast peer could otherwise have its fresh
/// frames eaten by a slow peer's purge.
enum Cmd {
    /// The wave, and this node's free parts to draw next images from.
    Wave(Arc<WaveCtx>, FreeParts),
    Go,
}

/// One job's share of a wave reply. Writes stay ordinal-keyed (the
/// position in [`WaveReply::jobs`] is the job's wave ordinal) so the
/// host can stage commits in strict program order.
#[derive(Debug, Clone)]
pub(crate) struct JobReply {
    /// The node's next lhs part, in place of `writes`, when the plan
    /// allows one ([`PreparedPlan::writes_image`]). Never on the wire: a
    /// socket worker has no free parts and stages writes.
    pub(crate) image: Option<Vec<f64>>,
    pub(crate) writes: Vec<WriteOp>,
    pub(crate) stats: NodeStats,
    pub(crate) sent_to: Vec<u64>,
    pub(crate) res: Result<(), MachineError>,
    pub(crate) events: Vec<(i64, EventKind)>,
    pub(crate) timings: Vec<(i64, Phase, Duration)>,
}

/// What a node ships back after a wave: one [`JobReply`] per job in
/// wave order, plus the wave-level drain trace (recorded once — the
/// drain belongs to the transport run, not to any one job). A socket
/// worker ships it as is ([`crate::codec::ResultMsg`]).
#[derive(Debug, Clone)]
pub(crate) struct WaveReply {
    pub(crate) jobs: Vec<JobReply>,
    pub(crate) drain_events: Vec<(i64, EventKind)>,
    pub(crate) drain_timings: Vec<(i64, Phase, Duration)>,
}

/// Node `p`'s slot in a wave's replies: what it shipped back, or the
/// typed reason it shipped nothing (a dead thread, a dead process).
pub(crate) type NodeReply = Result<Box<WaveReply>, MachineError>;

/// Worker-to-host stream: `Ready` answers `Cmd::Wave` under the purge
/// barrier, `WaveDone` answers the wave itself.
enum WorkerMsg {
    Ready,
    /// The reply, and the free parts the wave did not use.
    WaveDone(Box<WaveReply>, FreeParts),
}

/// Retired parts of one node, kept to become next images.
pub(crate) type FreeParts = Vec<Vec<f64>>;

/// Most retired parts one node keeps; the oldest goes first. A part is
/// reused only at its exact length, so this covers a wave four image
/// jobs wide, or four part lengths in rotation (DESIGN §12).
pub const FREE_PARTS_PER_NODE: usize = 4;

/// What an element nothing wrote reads as in a debug build: a signalling
/// NaN, so a span the node skipped or the host failed to fill fails every
/// differential suite instead of showing a previous run's data.
const STALE: f64 = f64::from_bits(0x7ff0_0000_dead_beef);

/// A `len`-element next image: a free part of that length, or a fresh one.
fn take_image(spare: &mut FreeParts, len: usize) -> Vec<f64> {
    match spare.iter().position(|part| part.len() == len) {
        Some(k) => spare.remove(k),
        None => vec![if cfg!(debug_assertions) { STALE } else { 0.0 }; len],
    }
}

/// Keep a part the commit replaced, within the bound.
fn retire(free: &mut FreeParts, mut part: Vec<f64>) {
    if cfg!(debug_assertions) {
        part.fill(STALE);
    }
    if free.len() == FREE_PARTS_PER_NODE {
        free.remove(0);
    }
    free.push(part);
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
/// once, parked between waves, replaying [`PreparedPlan`]s through
/// reused transport endpoints and staging buffers. See the module docs
/// for lifecycle and crash-retirement semantics.
pub struct DistExecutor {
    pmax: usize,
    workers: Vec<WorkerHandle>,
    broken: bool,
    /// The previous wave may have left stale frames behind (see
    /// [`WaveCtx::handshake`]); the next one must purge under a barrier.
    dirty: bool,
    /// Per node, the parts image commits retired: they travel to the
    /// node with the wave and come back with its reply.
    free: Vec<FreeParts>,
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

impl DistExecutor {
    /// Spawn a pool of `pmax` parked node threads.
    pub fn new(pmax: i64) -> DistExecutor {
        let pmax = pmax.max(0) as usize;
        DistExecutor {
            pmax,
            workers: build_pool(pmax),
            broken: false,
            dirty: false,
            free: vec![Vec::new(); pmax],
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

    /// Retired parts held for reuse, ≤ [`FREE_PARTS_PER_NODE`] per node.
    pub fn free_parts(&self) -> usize {
        self.free.iter().map(Vec::len).sum()
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
        self.free.iter_mut().for_each(Vec::clear);
    }

    /// Execute one prepared clause: a wave of one.
    pub(crate) fn run_clause<A: Image>(
        &mut self,
        prepared: &Arc<PreparedPlan>,
        arrays: &mut BTreeMap<String, A>,
        opts: DistOptions,
        tracer: &dyn Tracer,
    ) -> Result<ExecReport, MachineError> {
        let mut reports = self.run_wave(std::slice::from_ref(prepared), arrays, opts, tracer)?;
        Ok(reports.pop().unwrap_or_default())
    }

    /// Execute one wave — a set of pairwise-independent jobs, in
    /// program-ordinal order — concurrently on the pool, over images of
    /// any rank. The caller vouches that every plan was prepared against
    /// the images' current decompositions ([`PreparedPlan::check_live`]
    /// is the 1-D callers' check).
    ///
    /// The host keeps ownership of the disassembled parts and lends them
    /// to the nodes for the wave: no node writes a lent part, so every
    /// job reads the pre-wave memories (independence guarantees each
    /// job's inputs equal its strict-sequential inputs), and the host
    /// commits each job's next images and staged writes in program order
    /// into the parts it kept — the post-wave arrays are bitwise identical
    /// to running the jobs strictly sequentially. The whole wave is
    /// all-or-nothing: any job failing on any node, or a node dying,
    /// leaves the parts untouched and reports the root-cause error.
    ///
    /// Returns one [`ExecReport`] per job, in wave order.
    pub(crate) fn run_wave<A: Image>(
        &mut self,
        jobs: &[Arc<PreparedPlan>],
        arrays: &mut BTreeMap<String, A>,
        opts: DistOptions,
        tracer: &dyn Tracer,
    ) -> Result<Vec<ExecReport>, MachineError> {
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        check_span(jobs, self.pmax)?;
        if self.broken {
            self.rebuild();
        }
        let Disassembled { per_node, decomps } = disassemble(arrays, jobs)?;
        let handshake = self.dirty;
        let ctx = Arc::new(WaveCtx {
            jobs: jobs.to_vec(),
            opts,
            trace_on: tracer.enabled(),
            handshake,
            parts: per_node,
        });
        // Dispatch. When the channels may hold stale frames this is a
        // two-step handshake (see [`Cmd`]): every worker must finish its
        // purge before any worker starts sending. A failed send drops
        // the returned command, and with it that worker's handle on the
        // lent parts.
        let mut running = vec![false; self.pmax];
        for (p, w) in self.workers.iter().enumerate() {
            let cmd = Cmd::Wave(Arc::clone(&ctx), std::mem::take(&mut self.free[p]));
            running[p] = w.job_tx.send(cmd).is_ok();
            if !running[p] {
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
        let mut replies: Vec<NodeReply> = Vec::with_capacity(self.pmax);
        for (p, w) in self.workers.iter().enumerate() {
            let reply = match running[p].then(|| w.reply_rx.recv()) {
                Some(Ok(WorkerMsg::WaveDone(reply, spare))) => {
                    self.free[p] = spare;
                    Ok(reply)
                }
                // the thread died without replying (or broke the
                // handshake): retire it and rebuild lazily next run
                Some(Ok(WorkerMsg::Ready) | Err(_)) | None => {
                    self.broken = true;
                    Err(MachineError::NodePanicked { node: p as i64 })
                }
            };
            replies.push(reply);
        }
        // a failed node exits without draining, and a fault plan can
        // retransmit after `Done` — either way the next wave must purge
        self.dirty = opts.faults.is_some() || !wave_clean(&replies);
        // every worker dropped its handle before it replied (or died),
        // so the loan is back; copying is the fallback, never the path
        let parts = Arc::try_unwrap(ctx).map_or_else(|lent| lent.parts.clone(), |ctx| ctx.parts);
        let free = &mut self.free;
        finalize_wave(jobs, decomps, parts, replies, free, arrays, tracer)
    }
}

/// Every job of a wave spans the pool's `pmax` nodes.
pub(crate) fn check_span(jobs: &[Arc<PreparedPlan>], pmax: usize) -> Result<(), MachineError> {
    match jobs.iter().find(|job| job.pmax.max(0) as usize != pmax) {
        Some(job) => Err(MachineError::PlanMismatch(format!(
            "prepared plan spans {} processors, pool has {pmax}",
            job.pmax
        ))),
        None => Ok(()),
    }
}

/// Whether every node replied and every job of the wave succeeded on it.
pub(crate) fn wave_clean(replies: &[NodeReply]) -> bool {
    (replies.iter()).all(|r| {
        r.as_ref()
            .is_ok_and(|wr| wr.jobs.iter().all(|j| j.res.is_ok()))
    })
}

/// The host-side tail every distributed execution shares (pooled
/// threads and worker processes alike). `parts` are the disassembled
/// pre-wave memories the host kept; `replies[p]` is node `p`'s reply, or
/// why there is none. Replay the buffered node traces (replies are in
/// node order; within a node, job streams in wave order then the drain
/// span — the stream a cold run records live, which is all the
/// collecting tracer's canonical `(class, node, clock)` sort needs),
/// pick the root-cause error across all jobs × nodes, validate *every*
/// job's writes before committing *any* (all-or-nothing for the whole
/// wave), commit job-by-job in program-ordinal order into `parts`, and
/// reassemble — on error from the untouched parts, restoring pre-wave
/// state.
///
/// A next image commits as a swap: the host copies what the plan's write
/// spans leave out from the part as the wave's earlier jobs left it,
/// makes the image the part, and retires the old part into `free[p]`
/// (dropped when the backend keeps no list for `p`).
pub(crate) fn finalize_wave<A: Image>(
    jobs: &[Arc<PreparedPlan>],
    decomps: Vec<(String, A::Decomp)>,
    mut parts: Vec<BTreeMap<String, Vec<f64>>>,
    mut replies: Vec<NodeReply>,
    free: &mut [FreeParts],
    arrays: &mut BTreeMap<String, A>,
    tracer: &dyn Tracer,
) -> Result<Vec<ExecReport>, MachineError> {
    if tracer.enabled() {
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
    let commit_t0 = tracer.enabled().then(std::time::Instant::now);
    // a panic or a dead worker is the root cause and wins over the
    // secondary Unrecoverable/Missing* errors it induces on peers
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
                Err(e) => consider(e),
                Ok(wr) if wr.jobs.len() != jobs.len() => {
                    consider(&MachineError::PlanMismatch(format!(
                        "node {p} replied with {} job results for a {}-job wave",
                        wr.jobs.len(),
                        jobs.len()
                    )));
                }
                Ok(wr) => {
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
                let Ok(wr) = r else { continue };
                let len = parts[p].get(lhs).map_or(0, Vec::len);
                let jr = &wr.jobs[j];
                if let Some(next) = &jr.image {
                    if next.len() != len || !job.writes_image(p, len) {
                        first_err = Some(MachineError::PlanMismatch(format!(
                            "node {p}'s next image ({} elements) does not fit its part of \
                             `{lhs}` (len {len}) and the plan's write spans",
                            next.len()
                        )));
                        break 'validate;
                    }
                }
                for w in &jr.writes {
                    // offsets come off the wire: no unchecked arithmetic
                    let (off, span) = match w {
                        WriteOp::El(off, _) => (*off, 1),
                        WriteOp::Dense { base, values } => (*base, values.len()),
                    };
                    if off.checked_add(span).is_none_or(|end| end > len) {
                        first_err = Some(MachineError::PlanMismatch(format!(
                            "write span [{off}, {}) outside node {p}'s local part (len {len})",
                            off.saturating_add(span)
                        )));
                        break 'validate;
                    }
                }
            }
        }
    }

    // commit staging is ordinal-keyed: job j's writes land before job
    // j+1's, so the final image equals strict sequential execution even
    // if two jobs wrote the same element (the DAG builder never
    // schedules such jobs in one wave; this is defense in depth)
    if first_err.is_none() {
        for (j, job) in jobs.iter().enumerate() {
            let lhs = &job.lhs_array;
            for (p, r) in replies.iter_mut().enumerate() {
                let Ok(wr) = r else { continue };
                let Some(part) = parts[p].get_mut(lhs) else {
                    continue;
                };
                if let Some(mut next) = wr.jobs[j].image.take() {
                    // validated above: same length, spans inside it
                    let spans = job.compiled.nodes[p].write_spans.iter().flatten();
                    let mut at = 0;
                    for &(lo, hi) in spans {
                        next[at..lo].copy_from_slice(&part[at..lo]);
                        at = hi;
                    }
                    next[at..].copy_from_slice(&part[at..]);
                    let old = std::mem::replace(part, next);
                    if let Some(free) = free.get_mut(p) {
                        retire(free, old);
                    }
                }
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
    for (name, dec) in decomps {
        let image = (parts.iter_mut())
            .map(|m| m.remove(&name).unwrap_or_default())
            .collect();
        arrays.insert(name, A::from_parts(dec, image));
    }
    if let Some(t0) = commit_t0 {
        tracer.timing(crate::obs::HOST, Phase::Commit, t0.elapsed());
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    let reports = (0..jobs.len()).map(|j| {
        let mut report = ExecReport::default();
        for wr in replies.iter_mut().flatten() {
            report.nodes.push(wr.jobs[j].stats);
            report.traffic.push(std::mem::take(&mut wr.jobs[j].sent_to));
        }
        report
    });
    Ok(reports.collect())
}

/// Run one phase of one job under the panic supervisor: a caught panic
/// becomes the typed error and marks the node as having crashed.
fn supervised(
    p: i64,
    panicked: &mut bool,
    phase: impl FnOnce() -> Result<(), MachineError>,
) -> Result<(), MachineError> {
    catch_unwind(AssertUnwindSafe(phase)).unwrap_or_else(|_| {
        *panicked = true;
        Err(MachineError::NodePanicked { node: p })
    })
}

/// The node-side body of one wave — the one send → update → `Done` →
/// drain template every node runs, on a pooled thread or in a socket
/// worker process. Lanes and seq windows are derived from the jobs'
/// plans, then two passes — every job's send
/// phase first (pre-posting all boundary frames), then every job's
/// update phase in wave order — and one `Done` + drain for the whole
/// wave. Pre-posting means an update's receives almost never block on a
/// peer still parked in an earlier job, which matters most on an
/// oversubscribed host. Every job reads the same `locals`, the node's
/// pre-wave parts, and nothing here changes them: a job's results go
/// into a next image drawn from `spare` when the plan allows one, into
/// staged [`WriteOp`]s otherwise — always so without a `spare` list
/// (socket workers: their wire carries only `WriteOp`s). After any job
/// fails, the remaining jobs on this node are skipped (their results
/// carry the first failure) and the wave aborts all-or-nothing.
#[allow(clippy::too_many_arguments)]
pub(crate) fn wave_body(
    p: i64,
    ep: &mut Endpoint<Wire>,
    scratch: &mut Scratch,
    buf: &BufTracer,
    jobs: &[Arc<PreparedPlan>],
    opts: &DistOptions,
    locals: &BTreeMap<String, Vec<f64>>,
    mut spare: Option<&mut FreeParts>,
) -> WaveReply {
    let pmax = ep.peer_count();
    let tables = jobs.iter().map(|job| &job.compiled.nodes[p as usize]);
    scratch.recv.reset(tables, pmax);
    let mut first_fail: Option<MachineError> = None;
    let mut panicked = false;
    // pass 1 — post *every* job's boundary sends before any update
    // phase blocks on a receive: on an oversubscribed host this turns
    // k send→recv thread handoffs into one wave-wide exchange. The
    // per-source seq-window cuts route early frames to the right job
    // lane, so arrival before the consuming job starts is fine.
    let mut sent: Vec<(NodeStats, Vec<u64>, BufInner)> = Vec::with_capacity(jobs.len());
    for prepared in jobs {
        let mut stats = NodeStats::default();
        let mut sent_to = vec![0u64; pmax];
        if first_fail.is_none() {
            let send = || {
                warm_phases(
                    p,
                    locals,
                    prepared,
                    opts,
                    ep,
                    scratch,
                    &mut stats,
                    buf,
                    PhaseSpan::Send(&mut sent_to),
                )
            };
            first_fail = supervised(p, &mut panicked, send).err();
        }
        sent.push((stats, sent_to, buf.take()));
    }
    // pass 2 — run each job's update phase in wave order, consuming
    // through its lane. Buffered per-job events replay host-side as
    // send-then-update per job, so the canonical trace is identical to
    // the interleaved schedule's.
    let mut jobs_out: Vec<JobReply> = Vec::with_capacity(jobs.len());
    for (j, (prepared, (mut stats, sent_to, sent_trace))) in jobs.iter().zip(sent).enumerate() {
        scratch.recv.cur = j;
        scratch.vals.clear();
        scratch
            .vals
            .resize(prepared.compiled.slot_arrays.len(), 0.0);
        scratch.writes.clear();
        let mut image = None;
        let res = match &first_fail {
            Some(e) => Err(e.clone()),
            None => {
                let len = locals.get(&prepared.lhs_array).map_or(0, Vec::len);
                image = (spare.as_deref_mut())
                    .filter(|_| prepared.writes_image(p as usize, len))
                    .map(|spare| take_image(spare, len));
                let update = || {
                    warm_phases(
                        p,
                        locals,
                        prepared,
                        opts,
                        ep,
                        scratch,
                        &mut stats,
                        buf,
                        PhaseSpan::Update(image.as_deref_mut()),
                    )
                };
                supervised(p, &mut panicked, update)
            }
        };
        if let Err(e) = &res {
            scratch.writes.clear();
            image = None;
            first_fail.get_or_insert_with(|| e.clone());
        }
        let BufInner {
            mut events,
            mut timings,
        } = sent_trace;
        let updated = buf.take();
        events.extend(updated.events);
        timings.extend(updated.timings);
        jobs_out.push(JobReply {
            image,
            writes: std::mem::take(&mut scratch.writes),
            stats,
            sent_to,
            res,
            events,
            timings,
        });
    }
    // a crashed node still announces completion so peers stop waiting,
    // but services nothing
    ep.announce_done();
    if !panicked {
        // drain stats land on the wave's last job
        let mut fallback = NodeStats::default();
        let dstats = jobs_out
            .last_mut()
            .map_or(&mut fallback, |last| &mut last.stats);
        if buf.enabled() {
            buf.record(p, EventKind::PhaseStart(Phase::Drain));
            let t0 = std::time::Instant::now();
            ep.drain(opts.recv_timeout, dstats);
            buf.timing(p, Phase::Drain, t0.elapsed());
            buf.record(p, EventKind::PhaseEnd(Phase::Drain));
        } else {
            ep.drain(opts.recv_timeout, dstats);
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

/// Per-worker scratch reused (cleared, not reallocated) across waves.
/// Shared with the process-backed pool (`crate::proc`), whose workers
/// carry one across jobs exactly like a pooled thread does.
#[derive(Default)]
pub(crate) struct Scratch {
    /// The receive router: one lane per job of the wave (its packet
    /// staging) and the wave's seq windows.
    recv: WaveRecv,
    /// Operand values of the current iteration, one per read slot.
    vals: Vec<f64>,
    /// Kernel evaluation stack, reused across runs.
    stack: Vec<f64>,
    /// Collected local writes of the current job, committed by the host.
    writes: Vec<WriteOp>,
}

/// The body of one pooled node thread: park on the job channel, and for
/// each wave reset the endpoint, run [`wave_body`] over this node's
/// share of the lent parts, and ship the reply (images or writes,
/// statistics, buffered trace) and the unused free parts to the host.
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
        let Cmd::Wave(ctx, mut spare) = cmd else {
            continue; // stray Go (host retired us mid-handshake)
        };
        buf.set_enabled(ctx.trace_on);
        ep.reset(ctx.opts.faults, ctx.trace_on);
        if ctx.handshake {
            // discard frames a previous (failed or faulty) wave left
            // behind; every peer finished that wave before the host
            // dispatched this one, so anything buffered here is stale by
            // construction — then report ready and hold all sends until
            // every peer has purged too
            ep.purge_link();
            if reply_tx.send(WorkerMsg::Ready).is_err() {
                break; // host hung up
            }
            match job_rx.recv() {
                Ok(Cmd::Go) => {}
                Ok(Cmd::Wave(..)) | Err(_) => break, // handshake broken
            }
        }
        let locals = &ctx.parts[p as usize];
        let reply = wave_body(
            p,
            &mut ep,
            &mut scratch,
            &buf,
            &ctx.jobs,
            &ctx.opts,
            locals,
            Some(&mut spare),
        );
        drop(ctx); // the loan ends before the host hears the wave is done
        let done = WorkerMsg::WaveDone(Box::new(reply), spare);
        if reply_tx.send(done).is_err() {
            break; // host hung up
        }
    }
}

/// Which half of a job to execute: the wave body posts *every* job's
/// boundary sends before any job's update phase blocks on a receive —
/// on an oversubscribed host that collapses the per-job send/recv
/// thread ping-pong into one wave-wide exchange.
enum PhaseSpan<'a> {
    /// The send phase, counting the elements sent to each peer.
    Send(&'a mut [u64]),
    /// The update phase, writing the node's next image if it has one.
    Update(Option<&'a mut [f64]>),
}

/// The send or update phase of one job on one node — the phase engine
/// behind pooled threads, socket workers and (on a one-shot pool) cold
/// runs, for clauses of any rank and plans of any dispatch (closed-form
/// or naive-guard). Every loop is driven from the compiled run tables,
/// and receives go through the job's lane in the worker's persistent
/// scratch.
#[allow(clippy::too_many_arguments)]
fn warm_phases(
    p: i64,
    locals: &BTreeMap<String, Vec<f64>>,
    prepared: &PreparedPlan,
    opts: &DistOptions,
    ep: &mut Endpoint<Wire>,
    scratch: &mut Scratch,
    stats: &mut NodeStats,
    tracer: &dyn Tracer,
    span: PhaseSpan,
) -> Result<(), MachineError> {
    let cs = &prepared.compiled;
    let cn = &cs.nodes[p as usize];
    let parts = slot_parts(locals, cs)?;
    let trace_on = tracer.enabled();

    let next = match span {
        PhaseSpan::Update(next) => next,
        PhaseSpan::Send(sent_to) => {
            // ---- send phase: Reside_p ∩ Modify_q, q ≠ p ---------------------
            if trace_on {
                tracer.record(p, EventKind::PhaseStart(Phase::Send));
            }
            let send_t0 = trace_on.then(std::time::Instant::now);
            send_phase_vectorized(cn, &parts, ep, stats, sent_to, tracer);
            ep.end_send_phase(); // flush delayed packets; crash point
            if let Some(t0) = send_t0 {
                tracer.timing(p, Phase::Send, t0.elapsed());
                tracer.record(p, EventKind::PhaseEnd(Phase::Send));
            }
            return Ok(());
        }
    };

    // ---- update phase: Modify_p -----------------------------------------
    // the modify guard work is charged to the update half, once
    stats.guard_tests += cn.modify_work;
    if trace_on {
        tracer.record(p, EventKind::PhaseStart(Phase::Update));
    }
    let update_t0 = trace_on.then(std::time::Instant::now);
    let Scratch {
        recv,
        vals,
        stack,
        writes,
    } = scratch;
    stack.clear();
    let res = exec_update_phase(
        cs,
        cn,
        &parts,
        &prepared.rguard,
        ep,
        recv,
        vals,
        stack,
        opts,
        stats,
        writes,
        next,
        tracer,
    );
    if let Some(t0) = update_t0 {
        tracer.timing(p, Phase::Update, t0.elapsed());
        tracer.record(p, EventKind::PhaseEnd(Phase::Update));
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::NULL_TRACER;
    use vcal_core::func::Fn1;
    use vcal_core::map::IndexMap;
    use vcal_core::{Array, Bounds, Env, Expr, Guard, IndexSet, Ix};
    use vcal_decomp::DecompNd;

    /// A dead pooled worker costs the run, never the data: the host
    /// keeps the parts it lends, so the images come back bit-for-bit
    /// (the solo path this replaced rebuilt the dead node's part as
    /// zeros), and the pool rebuilds itself for the next run.
    #[test]
    fn dead_worker_fails_the_run_but_keeps_the_data() {
        let n = 32;
        let extent = Bounds::range(0, n - 1);
        // communication-free, so the live peers do not wait on the dead one
        let clause = Clause {
            iter: IndexSet::range(0, n - 1),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("A", Fn1::identity()),
            rhs: Expr::add(
                Expr::Ref(ArrayRef::d1("B", Fn1::identity())),
                Expr::Lit(0.5),
            ),
        };
        let mut decomps = BTreeMap::new();
        let mut arrays = BTreeMap::new();
        for (name, scale) in [("A", -1.0), ("B", 3.0)] {
            let dec = Decomp1::block(4, extent);
            let global = Array::from_fn(extent, |i| (i.scalar() + 1) as f64 * scale);
            arrays.insert(
                name.to_string(),
                DistArray::scatter_from(&global, dec.clone()),
            );
            decomps.insert(name.to_string(), dec);
        }
        let plan = SpmdPlan::build(&clause, &decomps).unwrap();
        let prepared = Arc::new(prepare_run(plan, &clause, &decomps).unwrap());
        let before = arrays.clone();

        let mut pool = DistExecutor::new(4);
        // hang up node 0's job channel from the host side: its thread
        // exits, and every send to it fails
        pool.workers[0].job_tx = unbounded().0;
        // the live peers' drain waits this long for node 0's `Done`
        let opts = DistOptions {
            recv_timeout: Duration::from_millis(50),
            ..DistOptions::default()
        };
        let err = pool.run_clause(&prepared, &mut arrays, opts, &NULL_TRACER);
        assert_eq!(err.unwrap_err(), MachineError::NodePanicked { node: 0 });
        assert_eq!(arrays, before, "a failed run must restore every image");
        assert!(pool.is_broken());

        let report = pool.run_clause(&prepared, &mut arrays, opts, &NULL_TRACER);
        assert_eq!(report.unwrap().nodes.len(), 4, "the rebuilt pool runs it");
        assert!(!pool.is_broken());
        let a = arrays["A"].gather();
        let b = before["B"].gather();
        assert!(extent.iter().all(|i| a.get(&i) == b.get(&i) + 0.5));
    }

    /// `U[i] := 0.5·(U[i-1] + U[i+1])` over `[lo, hi]`: the clause
    /// reads its own target.
    fn relax(lo: i64, hi: i64) -> Clause {
        let u = |d: i64| Expr::Ref(ArrayRef::d1("U", Fn1::shift(d)));
        Clause {
            iter: IndexSet::range(lo, hi),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("U", Fn1::identity()),
            rhs: Expr::mul(Expr::Lit(0.5), Expr::add(u(-1), u(1))),
        }
    }

    /// `names` as arrays of `n` distinct values, block-decomposed over
    /// `pmax` nodes: the sequential state, the layouts and the images.
    fn block_state(
        names: &[&str],
        n: i64,
        pmax: i64,
    ) -> (Env, BTreeMap<String, Decomp1>, BTreeMap<String, DistArray>) {
        let extent = Bounds::range(0, n - 1);
        let (mut env, mut decomps, mut arrays) = (Env::new(), BTreeMap::new(), BTreeMap::new());
        for (k, name) in names.iter().enumerate() {
            let global = Array::from_fn(extent, |i| ((i.scalar() * 7 + k as i64) % 13) as f64);
            let dec = Decomp1::block(pmax, extent);
            arrays.insert(
                name.to_string(),
                DistArray::scatter_from(&global, dec.clone()),
            );
            decomps.insert(name.to_string(), dec);
            env.insert(*name, global);
        }
        (env, decomps, arrays)
    }

    fn prepared(clause: &Clause, decomps: &BTreeMap<String, Decomp1>) -> Arc<PreparedPlan> {
        let plan = SpmdPlan::build(clause, decomps).unwrap();
        Arc::new(prepare_run(plan, clause, decomps).unwrap())
    }

    fn assert_bitwise(arrays: &BTreeMap<String, DistArray>, expect: &Env, what: &str) {
        for (name, image) in arrays {
            let diff = image.gather().max_abs_diff(expect.get(name).unwrap());
            assert_eq!(
                diff, 0.0,
                "{what}: `{name}` differs from the sequential machine"
            );
        }
    }

    /// A clause that reads its own target needs no footprint test to
    /// write a next image: the pre-wave part it reads stays as it was
    /// until the host swaps. Warm on a session and on a bare pool.
    #[test]
    fn a_clause_reading_its_own_target_commits_as_an_image() {
        let n = 64;
        let clause = relax(1, n - 2);
        let (env, decomps, mut arrays) = block_state(&["U"], n, 4);

        let mut expect = env.clone();
        let mut session = crate::session::DistSession::new(&env, decomps.clone()).unwrap();
        for step in 0..3 {
            session.run(&clause).unwrap();
            expect.exec_clause(&clause);
            let diff = (session.gather("U").unwrap()).max_abs_diff(expect.get("U").unwrap());
            assert_eq!(diff, 0.0, "session step {step}");
        }
        // one part per node went round: drawn, written, swapped, retired
        assert_eq!(session.free_parts(), 4);

        let mut expect = env;
        let job = prepared(&clause, &decomps);
        let mut pool = DistExecutor::new(4);
        for step in 0..3 {
            let wave = std::slice::from_ref(&job);
            pool.run_wave(wave, &mut arrays, DistOptions::default(), &NULL_TRACER)
                .unwrap();
            expect.exec_clause(&clause);
            assert_bitwise(&arrays, &expect, &format!("wave {step}"));
            assert_eq!(pool.free_parts(), 4);
        }
    }

    /// The commit form follows the plan's counts: a node whose runs
    /// cover half of its part or more answers with an image (its free
    /// list gains the part the swap retired), one element under half
    /// and it stages writes. 64 elements over 4 nodes: parts of 16.
    #[test]
    fn half_coverage_is_where_a_node_starts_writing_an_image() {
        let n = 64;
        for (lo, hi, images) in [
            (1, n - 2, [true; 4]),                 // 15, 16, 16, 15 of 16
            (16, 23, [false, true, false, false]), // exactly half of node 1's
            (16, 22, [false; 4]),                  // one under
            (20, 40, [false, true, true, false]),  // 12 and 9
        ] {
            let clause = relax(lo, hi);
            let (mut expect, decomps, mut arrays) = block_state(&["U"], n, 4);
            let job = prepared(&clause, &decomps);
            for (p, image) in images.iter().enumerate() {
                assert_eq!(job.writes_image(p, 16), *image, "[{lo}, {hi}] p={p}");
            }
            let mut pool = DistExecutor::new(4);
            pool.run_clause(&job, &mut arrays, DistOptions::default(), &NULL_TRACER)
                .unwrap();
            expect.exec_clause(&clause);
            assert_bitwise(&arrays, &expect, &format!("[{lo}, {hi}]"));
            let swapped: Vec<bool> = pool.free.iter().map(|free| !free.is_empty()).collect();
            assert_eq!(swapped, images, "[{lo}, {hi}]");
        }
    }

    /// Two jobs of one wave write the same array, one as an image and
    /// one as staged strided writes: whichever comes second lands on top
    /// of the first, and the image's unwritten ends come from the part
    /// as the earlier job left it, not from the pre-wave part.
    #[test]
    fn jobs_sharing_a_target_commit_in_ordinal_order() {
        let n = 64;
        let b = |f: Fn1| Expr::Ref(ArrayRef::d1("B", f));
        let dense = Clause {
            iter: IndexSet::range(1, n - 2),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("A", Fn1::identity()),
            rhs: Expr::add(b(Fn1::identity()), Expr::Lit(0.5)),
        };
        // a third of each part: under half, so it stages its writes
        let sparse = Clause {
            iter: IndexSet::range(0, (n - 2) / 3),
            lhs: ArrayRef::d1("A", Fn1::affine(3, 1)),
            rhs: Expr::mul(b(Fn1::identity()), Expr::Lit(-3.0)),
            ..dense.clone()
        };
        for order in [[&dense, &sparse], [&sparse, &dense]] {
            let (mut expect, decomps, mut arrays) = block_state(&["A", "B"], n, 4);
            let jobs: Vec<Arc<PreparedPlan>> = order.map(|c| prepared(c, &decomps)).into();
            let forms: Vec<bool> = jobs.iter().map(|job| job.writes_image(0, 16)).collect();
            assert_eq!(forms, order.map(|c| std::ptr::eq(c, &dense)));
            let mut pool = DistExecutor::new(4);
            pool.run_wave(&jobs, &mut arrays, DistOptions::default(), &NULL_TRACER)
                .unwrap();
            for clause in order {
                expect.exec_clause(clause);
            }
            assert_bitwise(&arrays, &expect, &format!("{} first", order[0]));
        }
    }

    /// The two commit forms are one computation: the same job run as
    /// published (image) and with its write spans struck out (staged, as
    /// a socket worker runs it) leaves the same bits and charges every
    /// counter alike — across the SIMD stencil with its one-element
    /// boundary runs, the packet-fed slice copy, the scalar axpy arm
    /// over a strided source, and the generic bytecode arm.
    #[test]
    fn image_and_staged_commits_agree_on_bits_and_counters() {
        let n = 96;
        let extent = Bounds::range(0, n - 1);
        let b = |f: Fn1| Expr::Ref(ArrayRef::d1("B", f));
        let onto_a = |lo: i64, hi: i64, rhs: Expr| Clause {
            iter: IndexSet::range(lo, hi),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("A", Fn1::identity()),
            rhs,
        };
        let axpy = Expr::add(Expr::mul(b(Fn1::shift(3)), Expr::Lit(2.0)), Expr::Lit(-1.0));
        let generic = Expr::mul(b(Fn1::identity()), Expr::LoopVar { dim: 0 });
        let cases = [
            (relax(1, n - 2), Decomp1::block(4, extent), "stencil"),
            (
                onto_a(0, n - 1, b(Fn1::identity())),
                Decomp1::block_scatter(4, 4, extent),
                "copy",
            ),
            (onto_a(0, n - 4, axpy), Decomp1::scatter(4, extent), "axpy"),
            (
                onto_a(2, n - 1, generic),
                Decomp1::block_scatter(4, 4, extent),
                "generic",
            ),
        ];
        for (clause, dec_b, what) in cases {
            let (mut expect, mut decomps, mut arrays) = block_state(&["A", "B", "U"], n, 4);
            let global_b = expect.get("B").unwrap().clone();
            arrays.insert(
                "B".into(),
                DistArray::scatter_from(&global_b, dec_b.clone()),
            );
            decomps.insert("B".into(), dec_b);
            let plan = SpmdPlan::build(&clause, &decomps).unwrap();
            let image = prepare_run(plan.clone(), &clause, &decomps).unwrap();
            let mut staged = prepare_run(plan, &clause, &decomps).unwrap();
            for (p, cn) in staged.compiled.nodes.iter_mut().enumerate() {
                assert!(image.writes_image(p, 24), "{what} p={p}");
                cn.write_spans = None;
            }
            let mut staged_arrays = arrays.clone();
            let mut pool = DistExecutor::new(4);
            let opts = DistOptions::default();
            let as_image = pool
                .run_clause(&Arc::new(image), &mut arrays, opts, &NULL_TRACER)
                .unwrap();
            assert_eq!(pool.free_parts(), 4, "{what}");
            let as_staged = pool
                .run_clause(&Arc::new(staged), &mut staged_arrays, opts, &NULL_TRACER)
                .unwrap();
            assert_eq!(
                pool.free_parts(),
                4,
                "{what}: staged commits retire nothing"
            );
            expect.exec_clause(&clause);
            assert_bitwise(&arrays, &expect, what);
            assert_eq!(arrays, staged_arrays, "{what}");
            assert_eq!(as_image.nodes, as_staged.nodes, "{what}");
            assert_eq!(as_image.traffic, as_staged.traffic, "{what}");
            assert!(as_image.total().iterations > 0, "{what}");
        }
    }

    /// What a socket worker's reply may claim is checked before any of
    /// it is applied: a dense write whose base makes `base + len` wrap,
    /// an image of the wrong length, an image from a job whose plan
    /// allows none. Each is a typed error and the arrays come back as
    /// they went in.
    #[test]
    fn a_reply_that_does_not_fit_the_part_is_refused_whole() {
        let n = 64;
        let clause = relax(1, n - 2);
        let few = relax(4, 6);
        let (_, decomps, arrays) = block_state(&["U"], n, 4);
        let reply = |image: Option<Vec<f64>>, writes: Vec<WriteOp>| -> NodeReply {
            Ok(Box::new(WaveReply {
                jobs: vec![JobReply {
                    image,
                    writes,
                    stats: NodeStats::default(),
                    sent_to: vec![0; 4],
                    res: Ok(()),
                    events: Vec::new(),
                    timings: Vec::new(),
                }],
                drain_events: Vec::new(),
                drain_timings: Vec::new(),
            }))
        };
        let wrapping = WriteOp::Dense {
            base: usize::MAX,
            values: vec![1.0, 2.0],
        };
        let cases = [
            (&clause, None, vec![wrapping], "write span"),
            (&clause, None, vec![WriteOp::El(16, 1.0)], "write span"),
            (&clause, Some(vec![0.0; 17]), Vec::new(), "next image"),
            (&few, Some(vec![0.0; 16]), Vec::new(), "next image"),
        ];
        for (clause, image, writes, why) in cases {
            let job = prepared(clause, &decomps);
            let mut live = arrays.clone();
            let Disassembled { per_node, decomps } =
                disassemble(&mut live, std::slice::from_ref(&job)).unwrap();
            let mut replies: Vec<NodeReply> = (0..3).map(|_| reply(None, Vec::new())).collect();
            replies.insert(1, reply(image, writes));
            let mut free = vec![Vec::new(); 4];
            let err = finalize_wave(
                std::slice::from_ref(&job),
                decomps,
                per_node,
                replies,
                &mut free,
                &mut live,
                &NULL_TRACER,
            )
            .unwrap_err();
            assert!(
                matches!(&err, MachineError::PlanMismatch(msg) if msg.contains(why)),
                "{err}"
            );
            assert_eq!(live, arrays, "{why}: a refused reply must change nothing");
            assert!(free.iter().all(Vec::is_empty));
        }
    }

    /// Both prepare paths refuse a schedule without a kernel, in the
    /// same words. (The bytecode's operand limits are out of reach of a
    /// clause in a test, so the kernel is removed by hand.)
    #[test]
    fn a_schedule_without_a_kernel_is_refused_at_prepare_time() {
        let clause = Clause {
            iter: IndexSet::range(0, 7),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("A", Fn1::identity()),
            rhs: Expr::Lit(1.0),
        };
        let mut decomps = BTreeMap::new();
        decomps.insert("A".to_string(), Decomp1::block(2, Bounds::range(0, 7)));
        let plan = SpmdPlan::build(&clause, &decomps).unwrap();
        let mut compiled = CompiledSchedule::compile_exec(&plan, &clause, &decomps);
        assert!(kernel_of(&compiled).is_ok());
        compiled.kernel = None;
        match kernel_of(&compiled) {
            Err(MachineError::PlanMismatch(why)) => {
                assert_eq!(
                    why,
                    "the clause expression does not fit the kernel bytecode"
                )
            }
            other => panic!("expected PlanMismatch, got {:?}", other.map(|_| ())),
        }
    }

    /// Two independent 2-D clauses (a five-point stencil and a copy) as
    /// ONE wave over `DistArrayNd`: bitwise the sequential machine
    /// applying them in order, and per job the same counters as two
    /// one-job waves.
    #[test]
    fn two_nd_clauses_run_as_one_wave() {
        let n = 12i64;
        let whole = Bounds::range2(0, n - 1, 0, n - 1);
        let u = |di: i64, dj: i64| {
            let map = IndexMap::per_dim(vec![Fn1::shift(di), Fn1::shift(dj)]);
            Expr::Ref(ArrayRef::new("U", map))
        };
        let stencil = Clause {
            iter: IndexSet::full(Bounds::range2(1, n - 2, 1, n - 2)),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::new("V", IndexMap::identity(2)),
            rhs: Expr::mul(
                Expr::add(Expr::add(u(-1, 0), u(1, 0)), Expr::add(u(0, -1), u(0, 1))),
                Expr::Lit(0.25),
            ),
        };
        let copy = Clause {
            iter: IndexSet::full(whole),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::new("W", IndexMap::identity(2)),
            rhs: u(0, 0),
        };
        let mut env = Env::new();
        env.insert(
            "U",
            Array::from_fn(whole, |i: &Ix| ((i[0] * 7 + i[1] * 3) % 11) as f64),
        );
        env.insert("V", Array::zeros(whole));
        env.insert("W", Array::zeros(whole));
        let axis = || Decomp1::block(2, Bounds::range(0, n - 1));
        let scatter = || -> BTreeMap<String, DistArrayNd> {
            (["U", "V", "W"].iter())
                .map(|name| {
                    let dec = DecompNd::new(vec![axis(), axis()]);
                    let image = DistArrayNd::scatter_from(env.get(name).unwrap(), dec);
                    (name.to_string(), image)
                })
                .collect()
        };
        let mut expect = env.clone();
        expect.exec_clause(&stencil);
        expect.exec_clause(&copy);

        let mut arrays = scatter();
        let jobs: Vec<Arc<PreparedPlan>> = [&stencil, &copy]
            .map(|c| Arc::new(prepare_nd(c, &arrays).unwrap()))
            .into();
        let opts = DistOptions::default();
        let mut pool = DistExecutor::new(4);
        let together = pool
            .run_wave(&jobs, &mut arrays, opts, &NULL_TRACER)
            .unwrap();
        for name in ["U", "V", "W"] {
            let diff = arrays[name]
                .gather()
                .max_abs_diff(expect.get(name).unwrap());
            assert_eq!(diff, 0.0, "`{name}` differs from the sequential machine");
        }

        let mut apart = scatter();
        assert_eq!(together.len(), 2);
        for (job, wave) in jobs.iter().zip(&together) {
            let alone = pool
                .run_clause(job, &mut apart, opts, &NULL_TRACER)
                .unwrap();
            assert_eq!(wave.traffic, alone.traffic);
            // acks are charged to whichever job is polling when a frame
            // lands, so a wave may move them between its jobs
            let quiet = |nodes: &[NodeStats]| -> Vec<NodeStats> {
                let unacked = |s: &NodeStats| NodeStats { acks_sent: 0, ..*s };
                nodes.iter().map(unacked).collect()
            };
            assert_eq!(quiet(&wave.nodes), quiet(&alone.nodes));
        }
        assert_eq!(apart, arrays);
        assert!(
            together[0].total().msgs_sent > 0,
            "the stencil communicates"
        );
    }
}
