//! The steady-state executor: persistent node pools replaying compiled
//! schedules (paper Section 4's amortization discipline).
//!
//! [`run_distributed`](crate::run_distributed) prepares its plan on
//! every call — the right shape for a one-shot clause and exactly the
//! wrong one for a timestep loop, where the same plan executes thousands
//! of times. This module splits the cost:
//!
//! * [`prepare_run`] does everything that depends only on
//!   `(plan, clause, decompositions)` — guard resolution and the
//!   [`CompiledSchedule`] materialization of every schedule, closed-form
//!   or naive-guard, into run tables (iteration, send packing, and
//!   run-granular receive addressing) plus the bytecode kernel — and
//!   freezes it in a shareable [`PreparedPlan`]. The tables are all a
//!   node executes: there is no second, interpreted evaluator.
//! * `Pool` owns `pmax` nodes made **once**, parked on their links
//!   between waves; endpoints, receive lanes and operand buffers are
//!   *reset*, not reallocated, per wave. In-process pools are made only
//!   by a process-wide registry, which keeps at most one idle pool per
//!   `pmax`: sessions, the resident service and the one-shot entries of
//!   either rank borrow from it (`Pool::borrow`) and return what they
//!   borrowed, so a process pays a pool's spawn once per size.
//! * As in the paper's SPMD model, no processor idles as a master: on
//!   the thread link the caller is node 0. Its end stays in the link and
//!   runs on the calling thread once every peer has its step, so a pool
//!   spawns `pmax − 1` threads and a warm wave costs one thread hand-off
//!   per peer, not one more each way for the host. Every wait on a
//!   channel spins a fixed ≈ 20 µs, one futex wake on a small host,
//!   before it parks (`transport::wait`).
//!
//! The **wave** is the only unit of execution: pairwise-independent
//! prepared clauses in program order; a single run, cold or warm, of any
//! rank, is a wave of one. One host loop (`Pool::run_wave`: dispatch,
//! the Ready/Go purge barrier after a dirty wave, collect under the run
//! deadline, `finalize_wave`) and one node protocol (`node_step`: job,
//! optional barrier, `wave_body`, reply; `node_loop` feeds it every step
//! a node thread or worker receives) run on every backend; only the link
//! differs — `ThreadLink` here, `crate::proc`'s socket link to worker
//! processes, whose host only routes and waits.
//!
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
//! Cold and warm runs therefore agree by construction: same bits, same
//! statistics, same deterministic event stream (node events are buffered
//! and replayed after the wave — sound because [`CollectingTracer`]
//! canonicalizes event order by `(class, node, per-node clock)`). A
//! crashed node costs the run, never the session or the data: a caught
//! panic is its reply ([`MachineError::NodePanicked`]); a node thread
//! that exits for any reason sends its `Done` to every peer as it goes
//! (the host may be busy as node 0), one that dies or hangs is retired,
//! and the pool rebuilds on the next run. The parts never left the host,
//! so a failed wave leaves exactly the pre-wave state.
//!
//! [`CollectingTracer`]: crate::obs::CollectingTracer

use crate::darray::DistArray;
use crate::darray_nd::DistArrayNd;
use crate::distributed::{
    disassemble, exec_update_phase, resolve_guard, send_phase_vectorized, slot_parts, Disassembled,
    DistOptions, Image, RGuard, WaveRecv, Wire, WriteOp,
};
use crate::error::MachineError;
use crate::net::lock;
use crate::obs::{EventKind, Phase, Tracer};
use crate::stats::{ExecReport, NodeStats};
use crate::transport::{wait, Endpoint, Frame};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::mpsc::{channel as unbounded, Receiver, Sender};
use std::sync::{Arc, LazyLock, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vcal_core::{ArrayRef, Clause, Ordering};
use vcal_decomp::Decomp1;
use vcal_spmd::{
    clause_arrays, lower_nd, plan_key, BoundedLru, CacheBudget, CompiledKernel, CompiledSchedule,
    KernelOp, SpmdPlan,
};

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

    /// The 1-D callers' pre-flight: the plan was captured against
    /// specific decompositions, and a run against redistributed images
    /// would scatter garbage. A lowered n-D clause has no 1-D plan, and
    /// the sessions and socket pools do not run it.
    pub(crate) fn check_live(
        &self,
        arrays: &BTreeMap<String, DistArray>,
    ) -> Result<&Plan1, MachineError> {
        let d1 = self.d1.as_ref().ok_or_else(|| {
            MachineError::PlanMismatch("a lowered n-D clause has no 1-D plan behind it".into())
        })?;
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

/// Prepared plans by [`plan_key`], bounded like a session's plan tier:
/// a long-lived socket worker's, and the one-shot n-D entry's.
pub(crate) type PlanCache = BoundedLru<(u64, u64), Arc<PreparedPlan>>;

/// The one-shot n-D entry's prepared plans, process-wide.
static ND_PLANS: LazyLock<Mutex<PlanCache>> =
    LazyLock::new(|| Mutex::new(PlanCache::new(CacheBudget::default())));

/// Lower a clause of any dimensionality against the decompositions of
/// the live images in `arrays`: run tables only, no 1-D plan. A clause
/// lowered before against the same decompositions is not lowered again.
pub(crate) fn prepare_nd(
    clause: &Clause,
    arrays: &BTreeMap<String, DistArrayNd>,
) -> Result<Arc<PreparedPlan>, MachineError> {
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
    let key = plan_key(clause, &decomps);
    if let Some(prepared) = lock(&ND_PLANS).get(&key) {
        return Ok(Arc::clone(prepared));
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
    let prepared = Arc::new(PreparedPlan {
        pmax: decomps[&clause.lhs.array].pmax(),
        lhs_array: clause.lhs.array.clone(),
        compiled,
        rguard,
        referenced,
        d1: None,
    });
    let bytes = prepared.approx_bytes();
    lock(&ND_PLANS).insert(key, Arc::clone(&prepared), bytes);
    Ok(prepared)
}

/// One wave as the host lends it: pairwise-independent jobs in
/// program-ordinal order (a single run is a wave of one) and the node
/// memories lent for its duration. A wave is ONE transport run —
/// sequence numbers run continuously across jobs, which is what makes
/// the plan-derived seq-window demultiplexing of [`WaveRecv`] exact (a
/// per-job endpoint reset would replay seqnos from 0 and a fast peer's
/// frames would be dropped as duplicates by a not-yet-reset slow peer).
pub(crate) struct WaveCtx {
    /// The pool's wave counter: a node answers a re-sent job of a run it
    /// finished without running it again; the host drops stale replies.
    pub(crate) run_id: u64,
    pub(crate) jobs: Vec<Arc<PreparedPlan>>,
    pub(crate) opts: DistOptions,
    pub(crate) trace_on: bool,
    /// Run the purge + Ready/Go barrier before sending — needed only
    /// when the previous wave may have left frames behind (it failed, or
    /// its fault plan or wire chaos allowed post-`Done` frames). After a
    /// clean wave the channels are provably empty: every frame a peer
    /// sends precedes its `Done`, and a node only finishes its drain
    /// after consuming every peer's `Done`.
    pub(crate) handshake: bool,
    /// A fault plan or wire chaos may lose this wave's frames, control
    /// frames included: nodes drain on evidence and re-announce `Done`
    /// ([`Endpoint::drain`]), and the host purges before the next wave.
    pub(crate) lossy: bool,
    /// Per node, its part of every array the wave references. Lent, not
    /// given: the host commits what the nodes produce into these pre-wave
    /// parts once it takes them back ([`Link::reclaim`]).
    pub(crate) parts: Vec<BTreeMap<String, Vec<f64>>>,
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

/// A protocol step from the host to one node, the same on every link.
/// `J` is what a job carries: the node's free parts as the host sends
/// it, the job itself as the node's end of the link delivers it.
pub(crate) enum Step<J> {
    /// Run a wave — behind the purge barrier when the wave asks for it.
    Job(J),
    /// Leave the barrier: every node has purged, sending may start.
    Go,
    /// Leave the node loop.
    Shutdown,
}

/// What a node tells the host, the same on every link.
pub(crate) enum Event {
    /// Purged under the barrier of this run, holding its job for `Go`.
    Ready(u64),
    /// This run's reply, and the free parts the wave did not use.
    Result(u64, Box<WaveReply>, FreeParts),
    /// The node's connection closed; a severed socket reconnects.
    Eof,
}

/// The host's end of a pool's links, one per node: threads of this
/// process ([`ThreadLink`]) or worker processes behind a socket router
/// (`crate::proc::ProcLink`). The host loop, [`Pool::run_wave`], is
/// written once against it.
pub(crate) trait Link {
    /// Replace the nodes that died since the last wave; whether any was
    /// (its peers may still hold frames meant for it).
    fn revive(&mut self) -> Result<bool, MachineError>;
    /// Hold `wave`, the host's parts with it, as what `Step::Job` sends.
    fn lend(&mut self, wave: WaveCtx);
    /// Send a step to node `p`. A node this does not reach is found dead
    /// by [`Link::alive`], or reconnects and is sent its job again.
    fn send(&mut self, p: usize, step: Step<FreeParts>);
    /// The next node event, waiting at most `slice`.
    fn next_event(&mut self, slice: Duration) -> Option<(usize, Event)>;
    /// Whether node `p` lives; why not, typed, if it died.
    fn alive(&mut self, p: usize) -> Result<(), MachineError>;
    /// Give up on node `p`, dead or past a deadline, and release its
    /// peers with the `Done` it will not send.
    fn retire(&mut self, p: usize);
    /// End the loan: every node's parts, as the host lent them.
    fn reclaim(&mut self) -> Vec<BTreeMap<String, Vec<f64>>>;
}

/// A persistent pool of `pmax` nodes behind one [`Link`]: spawned once,
/// parked between waves, driven by the one host loop.
pub(crate) struct Pool<L> {
    pub(crate) link: L,
    pub(crate) pmax: usize,
    /// The next wave must purge under a barrier ([`WaveCtx::handshake`]).
    dirty: bool,
    /// The last wave's [`WaveCtx::run_id`].
    run_seq: u64,
    /// Per node, the parts image commits retired: they travel to the
    /// node with its job and come back with its reply.
    free: Vec<FreeParts>,
}

impl<L> std::fmt::Debug for Pool<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("pmax", &self.pmax)
            .finish_non_exhaustive()
    }
}

/// How long the host waits for an event before it checks on the nodes.
pub(crate) const POLL: Duration = Duration::from_millis(50);

/// The process's idle in-process pools, at most one per `pmax`: what
/// [`Pool::borrow`] hands out before it spawns.
static IDLE: Mutex<Vec<Pool<ThreadLink>>> = Mutex::new(Vec::new());

impl Pool<ThreadLink> {
    /// A pool of `pmax` nodes: the caller as node 0 and `pmax − 1` parked
    /// threads. Outside the tests only the registry makes one
    /// ([`Pool::borrow`]).
    fn threads(pmax: usize) -> Self {
        Pool::new(ThreadLink::new(pmax), pmax)
    }

    /// Borrow the process's idle pool of `pmax` nodes, or spawn one when
    /// none is idle (none was made yet, or another borrower holds it).
    pub(crate) fn borrow(pmax: usize) -> Lease {
        let idle = {
            let mut idle = lock(&IDLE);
            let k = idle.iter().position(|pool| pool.pmax == pmax);
            k.map(|k| idle.swap_remove(k))
        };
        Lease(Some(idle.unwrap_or_else(|| Pool::threads(pmax))))
    }
}

/// A borrowed in-process pool. To its borrower it is a fresh pool, except
/// that a pool left dirty still purges under the barrier before its next
/// wave. Dropping the lease returns the pool, its free lists emptied —
/// unless it is broken, it comes back during unwinding, or the registry
/// already holds an idle pool of its size: then its threads are joined.
#[derive(Debug)]
pub(crate) struct Lease(Option<Pool<ThreadLink>>);

impl std::ops::Deref for Lease {
    type Target = Pool<ThreadLink>;

    fn deref(&self) -> &Pool<ThreadLink> {
        self.0
            .as_ref()
            .expect("a lease holds its pool until dropped")
    }
}

impl std::ops::DerefMut for Lease {
    fn deref_mut(&mut self) -> &mut Pool<ThreadLink> {
        self.0
            .as_mut()
            .expect("a lease holds its pool until dropped")
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        let Some(mut pool) = self.0.take() else {
            return;
        };
        if std::thread::panicking() || pool.link.broken() {
            return;
        }
        pool.free.iter_mut().for_each(Vec::clear);
        let surplus = {
            let mut idle = lock(&IDLE);
            if idle.iter().any(|held| held.pmax == pool.pmax) {
                Some(pool)
            } else {
                idle.push(pool);
                None
            }
        };
        drop(surplus); // joined outside the registry's lock
    }
}

impl<L: Link> Pool<L> {
    pub(crate) fn new(link: L, pmax: usize) -> Pool<L> {
        let free = vec![Vec::new(); pmax];
        Pool {
            link,
            pmax,
            dirty: false,
            run_seq: 0,
            free,
        }
    }

    /// Retired parts held for reuse, ≤ [`FREE_PARTS_PER_NODE`] per node.
    pub(crate) fn free_parts(&self) -> usize {
        self.free.iter().map(Vec::len).sum()
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
    /// Three steps on every link: dispatch one job per node; after a
    /// dirty wave, the Ready/Go purge barrier; collect under the run
    /// deadline. Returns one [`ExecReport`] per job, in wave order.
    pub(crate) fn run_wave<A: Image>(
        &mut self,
        jobs: &[Arc<PreparedPlan>],
        arrays: &mut BTreeMap<String, A>,
        opts: DistOptions,
        tracer: &dyn Tracer,
    ) -> Result<Vec<ExecReport>, MachineError> {
        if let Some(job) = jobs
            .iter()
            .find(|job| job.pmax.max(0) as usize != self.pmax)
        {
            return Err(MachineError::PlanMismatch(format!(
                "prepared plan spans {} processors, pool has {}",
                job.pmax, self.pmax
            )));
        }
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        if self.link.revive()? {
            self.dirty = true; // peers may hold frames for a replaced node
        }
        let Disassembled { per_node, decomps } = disassemble(arrays, jobs)?;
        self.run_seq += 1;
        let (run_id, handshake) = (self.run_seq, self.dirty);
        let lossy = opts.faults.is_some() || opts.chaos.is_some();
        self.link.lend(WaveCtx {
            run_id,
            jobs: jobs.to_vec(),
            opts,
            trace_on: tracer.enabled(),
            handshake,
            lossy,
            parts: per_node,
        });
        for (p, spare) in self.free.iter_mut().enumerate() {
            self.link.send(p, Step::Job(std::mem::take(spare)));
        }
        // `replies[p]`: `None` while node `p` owes the wave its reply, then
        // the reply or the typed reason there is none; `ready[p]`: it has
        // purged under the barrier. Every node must purge before any node
        // sends — a slow peer's purge would eat a fast one's fresh frames,
        // and the `Done` of a node lost at the barrier, so the lost are
        // retired when the barrier closes.
        let mut replies: Vec<Option<NodeReply>> = (0..self.pmax).map(|_| None).collect();
        let mut ready = vec![false; self.pmax];
        let mut barrier = handshake;
        // nodes bound their own waits (recv_timeout, retry deadline): the
        // run deadline is a backstop against a hung node
        let retry = opts.retry.deadline.unwrap_or(Duration::ZERO);
        let run_time = opts.recv_timeout * 4 + retry + opts.timeouts.run_grace;
        let barrier_time = opts.timeouts.spawn_deadline;
        let mut sent = Instant::now();
        let mut deadline = sent + if barrier { barrier_time } else { run_time };
        while replies.iter().any(Option::is_none) {
            match self.link.next_event(POLL) {
                Some((p, Event::Ready(id))) if id == run_id => {
                    if barrier {
                        ready[p] = true;
                    } else {
                        // a re-sent job answered after the barrier: its
                        // `Go` was lost to a severed link — repeat it
                        self.link.send(p, Step::Go);
                    }
                }
                Some((p, Event::Result(id, reply, spare))) if id == run_id => {
                    replies[p].get_or_insert(Ok(reply));
                    self.free[p] = spare;
                }
                _ => {}
            }
            // a job unanswered for the resend interval goes out again:
            // only the answer confirms its delivery
            let now = Instant::now();
            let resend = now.duration_since(sent) > opts.timeouts.resend_ivl;
            for p in 0..self.pmax {
                if replies[p].is_some() || barrier && ready[p] {
                    continue;
                }
                let late = if barrier {
                    "never reached the purge barrier"
                } else {
                    "made no progress before the run deadline"
                };
                let lost = match self.link.alive(p) {
                    Ok(()) if now > deadline => Err(MachineError::Transport {
                        node: p as i64,
                        detail: format!("worker {late}"),
                    }),
                    alive => alive,
                };
                if let Err(e) = lost {
                    if !barrier {
                        self.link.retire(p);
                    }
                    replies[p] = Some(Err(e));
                } else if resend {
                    self.link.send(p, Step::Job(Vec::new()));
                }
            }
            if resend {
                sent = now;
            }
            if barrier && (0..self.pmax).all(|p| ready[p] || replies[p].is_some()) {
                barrier = false;
                deadline = now + run_time;
                for (p, reply) in replies.iter().enumerate() {
                    match reply {
                        None => self.link.send(p, Step::Go),
                        Some(_) => self.link.retire(p),
                    }
                }
            }
        }
        let replies: Vec<NodeReply> = replies.into_iter().flatten().collect();
        // a failed node exits without draining, and a lossy wave leaves
        // frames after `Done`: the next wave must purge
        let clean = |r: &NodeReply| {
            r.as_ref()
                .is_ok_and(|r| r.jobs.iter().all(|j| j.res.is_ok()))
        };
        self.dirty = lossy || !replies.iter().all(clean);
        let (parts, free) = (self.link.reclaim(), &mut self.free);
        finalize_wave(jobs, decomps, parts, replies, free, arrays, tracer)
    }
}

/// A job as the thread link delivers it: the lent wave, and the node's
/// free parts to draw next images from.
type ThreadJob = (Arc<WaveCtx>, FreeParts);

/// The thread link. As in the paper's SPMD model, no processor idles as
/// a master: node 0 is the caller. Its end stays in the link and
/// [`Link::next_event`] runs its steps on the calling thread; nodes 1 to
/// pmax − 1 are threads of this process, each parked on its own job
/// channel and answering on its own event channel. Every node is reached
/// the same way — a step on its job channel, an event on its event
/// channel — and takes it with the same [`node_step`], so a warm wave
/// costs one hand-off per peer thread and none for node 0. Nothing is
/// encoded: the wave and its parts are lent by `Arc`.
pub(crate) struct ThreadLink {
    nodes: Vec<ThreadNode>,
    /// Node 0's end; `None` once a panic escaped it.
    caller: Option<Caller>,
    /// Every node's data channel, to send a retired node's `Done` on.
    data: Vec<Sender<Frame<Wire>>>,
    wave: Option<Arc<WaveCtx>>,
}

struct ThreadNode {
    jobs: Sender<Step<ThreadJob>>,
    events: Receiver<Event>,
    /// The node's thread; node 0 has none. Dropped unjoined when the
    /// node is retired: a thread that may hang is never joined.
    handle: Option<JoinHandle<()>>,
    /// Given up on: the pool rebuilds before its next wave.
    retired: bool,
    /// The node holds this wave's job: a channel send is a delivery.
    has_job: bool,
    /// The node was handed a job or a `Go` it has not answered yet.
    owes: bool,
}

/// Node 0's end of the thread link, stepped by the calling thread.
struct Caller {
    end: ThreadEnd,
    state: NodeState<ThreadJob>,
    buf: Arc<BufTracer>,
}

impl ThreadLink {
    fn new(pmax: usize) -> ThreadLink {
        let (data, data_rxs): (Vec<_>, Vec<_>) = (0..pmax).map(|_| unbounded()).unzip();
        let mut caller = None;
        let mut nodes = Vec::with_capacity(pmax);
        for (p, data_rx) in data_rxs.into_iter().enumerate() {
            let (jobs, job_rx) = unbounded();
            let (event_tx, events) = unbounded();
            let buf = Arc::new(BufTracer::new());
            let ep = Endpoint::in_proc(p as i64, data.clone(), data_rx, None, Arc::clone(&buf));
            let mut end = ThreadEnd {
                p,
                ep,
                jobs: job_rx,
                events: event_tx,
            };
            let handle = if p == 0 {
                let state = NodeState::default();
                caller = Some(Caller { end, state, buf });
                None
            } else {
                Some(std::thread::spawn(move || node_loop(&mut end, &buf)))
            };
            nodes.push(ThreadNode {
                jobs,
                events,
                handle,
                retired: false,
                has_job: false,
                owes: false,
            });
        }
        ThreadLink {
            nodes,
            caller,
            data,
            wave: None,
        }
    }

    /// Whether a node was retired, so the next wave rebuilds the pool. A
    /// node dies only inside a wave, where the host loop finds it.
    pub(crate) fn broken(&self) -> bool {
        self.nodes.iter().any(|n| n.retired)
    }
}

impl Link for ThreadLink {
    fn revive(&mut self) -> Result<bool, MachineError> {
        let broken = self.broken();
        if broken {
            *self = ThreadLink::new(self.nodes.len());
        }
        Ok(broken)
    }

    fn lend(&mut self, wave: WaveCtx) {
        self.wave = Some(Arc::new(wave));
        self.nodes.iter_mut().for_each(|n| n.has_job = false);
    }

    fn send(&mut self, p: usize, step: Step<FreeParts>) {
        let node = &mut self.nodes[p];
        let step = match (step, &self.wave) {
            (Step::Job(spare), Some(wave)) if !node.has_job => {
                node.has_job = true; // a channel send is a delivery
                Step::Job((Arc::clone(wave), spare))
            }
            (Step::Job(_), _) => return, // delivered: a re-send is a no-op
            (Step::Go, _) => Step::Go,
            (Step::Shutdown, _) => Step::Shutdown,
        };
        let answered = !matches!(step, Step::Shutdown);
        // a node this does not reach is gone, and found dead by `alive`
        node.owes = node.jobs.send(step).is_ok() && answered;
    }

    fn next_event(&mut self, slice: Duration) -> Option<(usize, Event)> {
        // node 0's steps, on this thread: the host loop sends every node
        // its step before it asks for an event, so node 0 starts once
        // each peer has its own. A dirty wave's job waits here for `Go`.
        if let Some(caller) = &mut self.caller {
            let Caller { end, state, buf } = caller;
            let steps = || {
                while let Ok(step) = end.jobs.try_recv() {
                    node_step(end, state, buf, step);
                }
            };
            if catch_unwind(AssertUnwindSafe(steps)).is_err() {
                // found dead by `alive`; its end's drop sends its `Done`
                self.caller = None;
            }
        }
        // what has arrived, else a wait on the first node that owes an
        // answer: a wave then wakes the host about once, not once per
        // node, which on a small host is a tenth of a one-shot run
        let arrived = (self.nodes.iter().enumerate())
            .find_map(|(p, n)| n.events.try_recv().ok().map(|event| (p, event)));
        let (p, event) = match arrived {
            Some(arrived) => arrived,
            None => {
                // none owes one only while a lost node is being found out
                let p = self.nodes.iter().position(|n| n.owes).unwrap_or(0);
                (p, wait(&self.nodes[p].events, slice)?)
            }
        };
        self.nodes[p].owes = false;
        Some((p, event))
    }

    fn alive(&mut self, p: usize) -> Result<(), MachineError> {
        let node = &self.nodes[p];
        let gone = node.retired
            || match &node.handle {
                Some(h) => h.is_finished(),
                None => self.caller.is_none(),
            };
        if gone {
            return Err(MachineError::NodePanicked { node: p as i64 });
        }
        Ok(())
    }

    fn retire(&mut self, p: usize) {
        for (_, tx) in self.data.iter().enumerate().filter(|&(q, _)| q != p) {
            let _ = tx.send(Frame::Done { from: p as i64 });
        }
        let node = &mut self.nodes[p];
        node.handle = None;
        node.retired = true; // marks the pool for a rebuild
    }

    fn reclaim(&mut self) -> Vec<BTreeMap<String, Vec<f64>>> {
        // a node drops its handle before it replies, so the loan is back
        // unless a retired node holds it: copying is the fallback only
        let wave = self.wave.take().map(|wave| {
            Arc::try_unwrap(wave).map_or_else(|lent| lent.parts.clone(), |wave| wave.parts)
        });
        wave.unwrap_or_default()
    }
}

impl Drop for ThreadLink {
    fn drop(&mut self) {
        // dropping a node's job channel ends its node loop
        let handles: Vec<_> = self.nodes.drain(..).filter_map(|n| n.handle).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

/// A node's end of its link: where its steps come from and its events
/// go. The node loop, [`node_loop`], is written once against it.
pub(crate) trait NodeEnd {
    /// A job as this link delivers it.
    type Job;
    /// The job's run id, and whether it asks for the purge barrier.
    fn head(job: &Self::Job) -> (u64, bool);
    /// The next step from the host; `None` once the host is gone.
    fn recv(&mut self) -> Option<Step<Self::Job>>;
    /// Tell the host; `false` once the host is gone.
    fn send(&mut self, event: Event) -> bool;
    /// Answer a re-sent job of the last finished run with its result
    /// again; `false` once the host is gone.
    fn reship(&mut self) -> bool;
    /// Discard the data frames a dirty wave left behind.
    fn purge(&mut self);
    /// Run the job's wave: the reply, and the free parts it left.
    fn run(
        &mut self,
        job: Self::Job,
        scratch: &mut Scratch,
        buf: &BufTracer,
    ) -> (WaveReply, FreeParts);
}

/// What a node keeps from one step to the next: its scratch, the run it
/// answered last, and a job held under the purge barrier until `Go`.
pub(crate) struct NodeState<J> {
    scratch: Scratch,
    done: Option<u64>,
    held: Option<J>,
}

impl<J> Default for NodeState<J> {
    fn default() -> Self {
        NodeState {
            scratch: Scratch::default(),
            done: None,
            held: None,
        }
    }
}

/// The node loop of a node thread or worker process: every step it
/// receives, through [`node_step`], until it leaves.
pub(crate) fn node_loop<E: NodeEnd>(end: &mut E, buf: &BufTracer) {
    let mut state = NodeState::default();
    while let Some(step) = end.recv() {
        if !node_step(end, &mut state, buf, step) {
            return;
        }
    }
}

/// One step of the node protocol, the same on every link and for node 0
/// of the thread link on its caller's thread: take a job; after a dirty
/// wave, purge and hold it until the host's `Go` says every peer has
/// purged too; run the wave body; reply. A re-sent job of the run last
/// finished is answered again, never run twice. `false` once the node
/// leaves: shut down, or its host gone.
pub(crate) fn node_step<E: NodeEnd>(
    end: &mut E,
    state: &mut NodeState<E::Job>,
    buf: &BufTracer,
    step: Step<E::Job>,
) -> bool {
    let job = match (step, state.held.take()) {
        (Step::Shutdown, _) => return false,
        (Step::Go, Some(held)) => held,
        (Step::Go, None) => return true, // stray: the barrier it ended is over
        (Step::Job(again), Some(held)) => {
            let (run_id, repeat) = (E::head(&held).0, E::head(&again).0);
            state.held = Some(held);
            // the Ready was lost to a severed link: answer again
            return repeat != run_id || end.send(Event::Ready(run_id));
        }
        (Step::Job(job), None) => {
            let (run_id, handshake) = E::head(&job);
            if state.done == Some(run_id) {
                return end.reship();
            }
            if handshake {
                // every peer finished the previous wave before the host
                // sent this one, so anything buffered here is stale
                end.purge();
                state.held = Some(job);
                return end.send(Event::Ready(run_id));
            }
            job
        }
    };
    let run_id = E::head(&job).0;
    let (reply, spare) = end.run(job, &mut state.scratch, buf);
    state.done = Some(run_id);
    end.send(Event::Result(run_id, Box::new(reply), spare))
}

/// A node's end of the thread link, on its thread or on the caller's.
struct ThreadEnd {
    p: usize,
    /// Reset, not rebuilt, per wave.
    ep: Endpoint<'static, Wire>,
    jobs: Receiver<Step<ThreadJob>>,
    events: Sender<Event>,
}

impl Drop for ThreadEnd {
    /// A node that leaves for any reason — its link dropped, a panic
    /// outside its phases — releases its peers' drains with its `Done`:
    /// the host may be busy as node 0 and cannot retire it mid-wave.
    fn drop(&mut self) {
        self.ep.announce_done();
    }
}

impl NodeEnd for ThreadEnd {
    type Job = ThreadJob;

    fn head((wave, _): &ThreadJob) -> (u64, bool) {
        (wave.run_id, wave.handshake)
    }

    fn recv(&mut self) -> Option<Step<ThreadJob>> {
        wait(&self.jobs, Duration::MAX)
    }

    fn send(&mut self, event: Event) -> bool {
        self.events.send(event).is_ok()
    }

    fn reship(&mut self) -> bool {
        true // never asked: a channel loses nothing, no job comes twice
    }

    fn purge(&mut self) {
        self.ep.purge_link();
    }

    fn run(
        &mut self,
        job: ThreadJob,
        scratch: &mut Scratch,
        buf: &BufTracer,
    ) -> (WaveReply, FreeParts) {
        let (wave, mut spare) = job;
        buf.set_enabled(wave.trace_on);
        self.ep.reset(wave.opts.faults, wave.trace_on);
        let (p, locals, spare_parts) = (self.p as i64, &wave.parts[self.p], Some(&mut spare));
        let reply = wave_body(
            p,
            &mut self.ep,
            scratch,
            buf,
            &wave.jobs,
            &wave.opts,
            wave.lossy,
            locals,
            spare_parts,
        );
        drop(wave); // the loan ends before the host hears the wave is done
        (reply, spare)
    }
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
    lossy: bool,
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
            ep.drain(opts.recv_timeout, lossy, dstats);
            buf.timing(p, Phase::Drain, t0.elapsed());
            buf.record(p, EventKind::PhaseEnd(Phase::Drain));
        } else {
            ep.drain(opts.recv_timeout, lossy, dstats);
        }
    }
    let BufInner { events, timings } = buf.take();
    WaveReply {
        jobs: jobs_out,
        drain_events: events,
        drain_timings: timings,
    }
}

/// Per-node scratch, reused (cleared, not reallocated) across waves by
/// [`node_loop`] on every link.
#[derive(Default)]
pub(crate) struct Scratch {
    /// The receive router: one lane per job of the wave (its packet
    /// staging) and the wave's seq windows.
    recv: WaveRecv,
    /// Operand buffers: one chunk of values per read slot plus one of
    /// results (a guarded run's per-element operands use the first cells).
    bufs: Vec<f64>,
    /// Kernel evaluation stack, reused across runs.
    stack: Vec<f64>,
    /// Collected local writes of the current job, committed by the host.
    writes: Vec<WriteOp>,
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
/// behind pooled threads (warm and cold runs alike) and socket workers,
/// for clauses of any rank and plans of any dispatch (closed-form or
/// naive-guard). Every loop is driven from the compiled run tables,
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
        bufs,
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
        bufs,
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
    use vcal_core::{Array, BinOp, Bounds, Env, Expr, Guard, IndexSet, Ix};
    use vcal_decomp::DecompNd;
    use vcal_spmd::{ExecRun, SimdPolicy, SlotAccess};

    /// A dead node thread costs the run, never the data: the host keeps
    /// the parts it lends, so the images come back bit-for-bit, and the
    /// pool rebuilds itself for the next run. Node 0 is the caller and
    /// has no thread, so the dead node is node 1 or the last one. On a
    /// clean pool its exit guard's `Done` releases node 0's drain, run by
    /// the host; on a dirty one the host retires it when the purge
    /// barrier closes. Either way no live peer waits out `recv_timeout`.
    #[test]
    fn dead_worker_fails_the_run_but_keeps_the_data() {
        let n = 32;
        let extent = Bounds::range(0, n - 1);
        // communication-free: the live peers wait on the dead node only
        // for its `Done`
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
        let wave = [Arc::new(prepare_run(plan, &clause, &decomps).unwrap())];
        // a live peer's drain would wait this long for the dead node's `Done`
        let opts = DistOptions {
            recv_timeout: Duration::from_secs(30),
            ..DistOptions::default()
        };
        let faulted = DistOptions {
            faults: Some(crate::transport::FaultPlan::seeded(3)),
            ..opts
        };
        for (dead, dirty) in [(1, false), (1, true), (3, false), (3, true)] {
            let mut pool = Pool::threads(4);
            if dirty {
                // a faulted wave leaves the pool dirty: the next one
                // opens with the purge barrier
                pool.run_wave(&wave, &mut arrays, faulted, &NULL_TRACER)
                    .unwrap();
            }
            let before = arrays.clone();
            // hang up the node's job channel from the host side: its
            // thread exits, and every job sent to it is lost
            pool.link.nodes[dead].jobs = unbounded().0;
            let t0 = Instant::now();
            let err = pool.run_wave(&wave, &mut arrays, opts, &NULL_TRACER);
            let waited = t0.elapsed();
            let node = dead as i64;
            assert_eq!(err.unwrap_err(), MachineError::NodePanicked { node });
            let why = format!("node {dead}, dirty={dirty}");
            assert!(waited < Duration::from_secs(5), "{why}: {waited:?}");
            assert_eq!(
                arrays, before,
                "{why}: a failed run must restore every image"
            );
            assert!(pool.link.broken(), "{why}");

            let report = pool.run_wave(&wave, &mut arrays, opts, &NULL_TRACER);
            assert_eq!(
                report.unwrap()[0].nodes.len(),
                4,
                "{why}: the rebuilt pool runs it"
            );
            assert!(!pool.link.broken());
            let a = arrays["A"].gather();
            let b = before["B"].gather();
            assert!(extent.iter().all(|i| a.get(&i) == b.get(&i) + 0.5));
        }
    }

    /// A wave that fails on node 0 — the caller, on the host's thread —
    /// fails like one on any node: a crash before its first packet and
    /// one at the end of its send phase are its typed reply, and the
    /// arrays come back as they went in. The pool is then dirty: node 0
    /// purges, answers `Ready` and holds its job until `Go`, and the
    /// wave runs bitwise. Under a seeded drop/duplicate plan on node 0's
    /// packets the peers' NACKs reach node 0 in its drain, and the result
    /// is still bitwise.
    #[test]
    fn a_fault_on_node_0_is_its_reply_and_the_pool_runs_on() {
        let n = 64;
        let clause = relax(1, n - 2);
        let (mut expect, decomps, mut arrays) = block_state(&["U"], n, 4);
        let wave = [prepared(&clause, &decomps)];
        let clean = DistOptions {
            recv_timeout: Duration::from_secs(10),
            retry: crate::transport::RetryPolicy {
                max_retries: 10,
                nack_timeout: Duration::from_millis(2),
                backoff_cap: Duration::from_millis(8),
                ..crate::transport::RetryPolicy::default()
            },
            ..DistOptions::default()
        };
        let mut pool = Pool::threads(4);
        for after in [0, u64::MAX] {
            let crash = crate::transport::FaultPlan::seeded(1).with_crash(0, after);
            let faults = Some(crash);
            let before = arrays.clone();
            let err = pool.run_wave(
                &wave,
                &mut arrays,
                DistOptions { faults, ..clean },
                &NULL_TRACER,
            );
            assert_eq!(
                err.unwrap_err(),
                MachineError::NodePanicked { node: 0 },
                "after {after}"
            );
            assert_eq!(
                arrays, before,
                "after {after}: a failed run must restore every image"
            );
            assert!(
                !pool.link.broken(),
                "a caught panic is a reply, not a dead node"
            );
        }

        // the next wave purges: driven by hand, node 0 holds its job
        // after its `Ready` and runs it on `Go`
        assert!(pool.dirty);
        let mut lent = arrays.clone();
        let parts = disassemble(&mut lent, &wave).unwrap().per_node;
        pool.link.lend(WaveCtx {
            run_id: u64::MAX,
            jobs: wave.to_vec(),
            opts: clean,
            trace_on: false,
            handshake: true,
            lossy: false,
            parts,
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        let collect = |pool: &mut Pool<ThreadLink>, want: fn(&Event) -> bool| {
            let mut got = 0;
            while got < 4 {
                assert!(Instant::now() < deadline, "{got} of 4 answered");
                got += pool.link.next_event(POLL).is_some_and(|(_, e)| want(&e)) as usize;
            }
        };
        (0..4).for_each(|p| pool.link.send(p, Step::Job(Vec::new())));
        collect(&mut pool, |e| matches!(e, Event::Ready(u64::MAX)));
        let held =
            |pool: &Pool<ThreadLink>| pool.link.caller.as_ref().unwrap().state.held.is_some();
        assert!(held(&pool), "node 0 holds its job until `Go`");
        (0..4).for_each(|p| pool.link.send(p, Step::Go));
        collect(&mut pool, |e| matches!(e, Event::Result(u64::MAX, ..)));
        assert!(!held(&pool));
        pool.link.reclaim();
        // and through the host loop, still dirty
        assert!(pool.dirty);
        pool.run_wave(&wave, &mut arrays, clean, &NULL_TRACER)
            .unwrap();
        expect.exec_clause(&clause);
        assert_bitwise(&arrays, &expect, "the wave after the crash");

        let lossy = crate::transport::FaultPlan::seeded(7)
            .with_drop(0.5)
            .with_duplicate(0.25)
            .with_from_only(0);
        let faults = Some(lossy);
        let mut retransmits = 0;
        for step in 0..4 {
            let report = pool.run_wave(
                &wave,
                &mut arrays,
                DistOptions { faults, ..clean },
                &NULL_TRACER,
            );
            retransmits += report.unwrap()[0].nodes[0].retransmits;
            expect.exec_clause(&clause);
            assert_bitwise(&arrays, &expect, &format!("lossy step {step}"));
        }
        assert!(retransmits > 0, "node 0 never answered a NACK");
    }

    /// A pool of `pmax` nodes spawns `pmax − 1` threads: node 0 is the
    /// caller. At `pmax = 1` it spawns none, and a one-node session runs
    /// bitwise against the sequential machine. Node 0's buffer tracer
    /// lives and dies with its pool.
    #[test]
    fn the_caller_is_node_0_and_owns_its_tracer() {
        for pmax in [1, 2, 4] {
            let pool = Pool::threads(pmax);
            let threads = pool
                .link
                .nodes
                .iter()
                .filter(|n| n.handle.is_some())
                .count();
            assert_eq!(threads, pmax - 1, "pmax {pmax}");
            let buf = Arc::downgrade(&pool.link.caller.as_ref().unwrap().buf);
            drop(pool);
            assert!(
                buf.upgrade().is_none(),
                "pmax {pmax}: node 0's tracer outlived its pool"
            );
        }
        let n = 24;
        let clause = relax(1, n - 2);
        let (env, decomps, _) = block_state(&["U"], n, 1);
        let mut expect = env.clone();
        let mut session = crate::session::DistSession::new(&env, decomps).unwrap();
        for _ in 0..3 {
            session.run(&clause).unwrap();
            expect.exec_clause(&clause);
        }
        assert_eq!(
            bits(&session.gather("U").unwrap()),
            bits(expect.get("U").unwrap())
        );
    }

    /// Two sessions take turns with the registry's pool: each borrows
    /// the pool the other returned — node 0's end included — and every
    /// result is bitwise the sequential machine's.
    #[test]
    fn sessions_taking_turns_reuse_node_0() {
        // 6 nodes: no other test of this crate borrows a pool of that size
        let pmax = 6;
        let idle_runs = || {
            let idle = lock(&IDLE);
            let pool = idle.iter().find(|pool| pool.pmax == pmax);
            pool.map(|pool| pool.run_seq)
        };
        let mut tenants: Vec<_> = [60, 45]
            .map(|n| {
                let (env, decomps, _) = block_state(&["U"], n, pmax as i64);
                (relax(1, n - 2), env, decomps)
            })
            .into();
        let mut runs = None;
        for round in 0..6 {
            let (clause, expect, decomps) = &mut tenants[round % 2];
            let mut session = crate::session::DistSession::new(expect, decomps.clone()).unwrap();
            for _ in 0..=round {
                session.run(clause).unwrap();
                expect.exec_clause(clause);
            }
            let got = session.gather("U").unwrap();
            assert_eq!(bits(&got), bits(expect.get("U").unwrap()), "round {round}");
            drop(session);
            let now = idle_runs().expect("the session returns its pool");
            if let Some(runs) = runs {
                assert_eq!(now, runs + round as u64 + 1, "round {round} spawned a pool");
            }
            runs = Some(now);
        }
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
        let mut pool = Pool::threads(4);
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
            let mut pool = Pool::threads(4);
            let wave = std::slice::from_ref(&job);
            pool.run_wave(wave, &mut arrays, DistOptions::default(), &NULL_TRACER)
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
            let mut pool = Pool::threads(4);
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
            let mut pool = Pool::threads(4);
            let opts = DistOptions::default();
            let as_image = pool
                .run_wave(&[Arc::new(image)], &mut arrays, opts, &NULL_TRACER)
                .unwrap()
                .remove(0);
            assert_eq!(pool.free_parts(), 4, "{what}");
            let as_staged = pool
                .run_wave(&[Arc::new(staged)], &mut staged_arrays, opts, &NULL_TRACER)
                .unwrap()
                .remove(0);
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

    /// A hand-altered entry whose addresses do not fit the part — an
    /// operand or lhs stride, within a rep or from rep to rep, whose last
    /// offset overflows `i64`, an operand or lhs offset past the part — is
    /// refused with a typed `PlanMismatch` by the slice copy, the lane tier
    /// and the chunk path alike, and the arrays come back bitwise as they
    /// went in. Block parts give one-rep entries, BS(4) parts entries of
    /// four reps that the chunk path takes whole.
    #[test]
    fn an_entry_that_does_not_fit_the_part_is_refused() {
        let (env, _, _) = block_state(&["U", "V"], 64, 4);
        let u = |d: i64| Expr::Ref(ArrayRef::d1("U", Fn1::shift(d)));
        let clause = |rhs: Expr| Clause {
            iter: IndexSet::range(1, 62),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("V", Fn1::identity()),
            rhs,
        };
        let clauses = [
            clause(u(0)),
            clause(Expr::mul(Expr::Lit(0.5), Expr::add(u(-1), u(1)))),
            clause(Expr::Bin(BinOp::Sub, Box::new(u(1)), Box::new(u(0)))),
        ];
        let huge = i64::MAX / 4;
        let alter = |er: &mut ExecRun, what: &str| {
            let slot = match &mut er.slots[0] {
                SlotAccess::Local(p) | SlotAccess::Packet { pattern: p, .. } => &mut p.nest,
            };
            match what {
                "operand stride" => slot.levels[0].1 = huge,
                "operand rep stride" => slot.levels[1].1 = huge,
                "operand offset" => slot.base += 16,
                "lhs stride" => er.lhs.nest.levels[0].1 = huge,
                "lhs rep stride" => er.lhs.nest.levels[1].1 = huge,
                _ => er.lhs.nest.base += 16,
            }
        };
        let alterations = [
            "operand stride",
            "operand rep stride",
            "operand offset",
            "lhs stride",
            "lhs rep stride",
            "lhs offset",
        ];
        let extent = Bounds::range(0, 63);
        let mut pool = Pool::threads(4);
        for layout in [
            Decomp1::block(4, extent),
            Decomp1::block_scatter(4, 4, extent),
        ] {
            let decomps: BTreeMap<String, Decomp1> =
                ["U", "V"].map(|a| (a.to_string(), layout.clone())).into();
            let scatter = |a: &String| DistArray::scatter_from(env.get(a).unwrap(), layout.clone());
            let arrays: BTreeMap<String, DistArray> =
                decomps.keys().map(|a| (a.clone(), scatter(a))).collect();
            for (cl, what) in clauses.iter().flat_map(|c| alterations.map(|a| (c, a))) {
                for simd in [SimdPolicy::auto(), SimdPolicy::off()] {
                    let plan = SpmdPlan::build(cl, &decomps).unwrap();
                    let mut job = prepare_run(plan, cl, &decomps).unwrap();
                    let exec = &mut job.compiled.nodes[1].exec;
                    let er = (exec.iter_mut())
                        .max_by_key(|er| (er.index.reps(), er.elems()))
                        .unwrap();
                    if what.contains("rep") && er.index.reps() < 2 {
                        continue;
                    }
                    alter(er, what);
                    let mut live = arrays.clone();
                    let opts = DistOptions {
                        simd,
                        ..DistOptions::default()
                    };
                    let err = pool
                        .run_wave(&[Arc::new(job)], &mut live, opts, &NULL_TRACER)
                        .unwrap_err();
                    assert!(
                        matches!(err, MachineError::PlanMismatch(_)),
                        "{layout:?} {what}: {err}"
                    );
                    assert_eq!(live, arrays, "{what}: a refused entry must change nothing");
                }
            }
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
            .map(|c| prepare_nd(c, &arrays).unwrap())
            .into();
        let opts = DistOptions::default();
        let mut pool = Pool::threads(4);
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
                .run_wave(std::slice::from_ref(job), &mut apart, opts, &NULL_TRACER)
                .unwrap()
                .remove(0);
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

    fn bits(a: &Array) -> Vec<u64> {
        a.data().iter().map(|v| v.to_bits()).collect()
    }

    /// The one-shot n-D entry keeps its plans and borrows its pool: a
    /// repeated call neither lowers the clause again nor spawns a pool,
    /// and the same arrays under another grid are another plan that still
    /// runs bitwise right.
    #[test]
    fn a_repeated_nd_call_reuses_its_plan_and_its_pool() {
        let n = 14i64;
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
            rhs: Expr::add(Expr::add(u(-1, 0), u(1, 0)), u(0, 1)),
        };
        let mut env = Env::new();
        env.insert(
            "U",
            Array::from_fn(whole, |i: &Ix| ((i[0] * 5 + i[1]) % 9) as f64),
        );
        env.insert("V", Array::zeros(whole));
        let mut expect = env.clone();
        expect.exec_clause(&stencil);
        // 7 nodes: no other test of this crate borrows a pool of that size
        let axis = |pmax| Decomp1::block(pmax, Bounds::range(0, n - 1));
        let scatter = |dec: DecompNd| -> BTreeMap<String, DistArrayNd> {
            (["U", "V"].iter())
                .map(|a| {
                    (
                        a.to_string(),
                        DistArrayNd::scatter_from(env.get(a).unwrap(), dec.clone()),
                    )
                })
                .collect()
        };
        let timeout = Duration::from_secs(10);
        let idle_runs = || {
            let idle = lock(&IDLE);
            idle.iter()
                .find(|pool| pool.pmax == 7)
                .map(|pool| pool.run_seq)
        };

        let mut rows = scatter(DecompNd::new(vec![axis(7), axis(1)]));
        let plan = prepare_nd(&stencil, &rows).unwrap();
        assert!(
            Arc::ptr_eq(&plan, &prepare_nd(&stencil, &rows).unwrap()),
            "lowered again"
        );
        crate::run_distributed_nd(&stencil, &mut rows, timeout).unwrap();
        let runs = idle_runs().expect("the call returns its pool");
        crate::run_distributed_nd(&stencil, &mut rows, timeout).unwrap();
        assert_eq!(
            idle_runs(),
            Some(runs + 1),
            "the second call spawned a pool"
        );
        assert_eq!(bits(&rows["V"].gather()), bits(expect.get("V").unwrap()));

        let mut columns = scatter(DecompNd::new(vec![axis(1), axis(7)]));
        let other = prepare_nd(&stencil, &columns).unwrap();
        assert!(!Arc::ptr_eq(&plan, &other), "another grid hit the cache");
        crate::run_distributed_nd(&stencil, &mut columns, timeout).unwrap();
        assert_eq!(bits(&columns["V"].gather()), bits(expect.get("V").unwrap()));
    }

    /// Four threads, each with its own session at pmax 2, borrow at once:
    /// those that find no idle pool spawn one, every result is bitwise the
    /// sequential machine's, and the registry then keeps at most one idle
    /// pool per pmax.
    #[test]
    fn concurrent_sessions_borrow_apart_and_leave_one_idle_pool() {
        let n = 40;
        let clause = relax(1, n - 2);
        let sessions: Vec<_> = (0..4)
            .map(|_| {
                let clause = clause.clone();
                std::thread::spawn(move || {
                    let (env, decomps, _) = block_state(&["U"], n, 2);
                    let mut expect = env.clone();
                    let mut session = crate::session::DistSession::new(&env, decomps).unwrap();
                    for _ in 0..5 {
                        session.run(&clause).unwrap();
                        expect.exec_clause(&clause);
                    }
                    let got = session.gather("U").unwrap();
                    assert_eq!(bits(&got), bits(expect.get("U").unwrap()));
                })
            })
            .collect();
        for session in sessions {
            session.join().unwrap();
        }
        let idle = lock(&IDLE);
        let mut sizes: Vec<usize> = idle.iter().map(|pool| pool.pmax).collect();
        sizes.sort_unstable();
        let all = sizes.len();
        sizes.dedup();
        assert_eq!(sizes.len(), all, "two idle pools of one size: {sizes:?}");
    }
}
