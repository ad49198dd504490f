//! The distributed-memory SPMD machine (paper Section 2.10).
//!
//! Each virtual processor is an OS thread owning private local memories
//! (the machine images `A'`, `B'` of Section 2.6), connected by
//! unbounded channels giving the paper's assumed semantics: non-blocking
//! `send`, blocking `receive`. Every node executes the template:
//!
//! ```text
//! p := my_node;
//! -- send phase: i ∈ Reside_p with proc_A(f(i)) ≠ p
//! send(proc_A(f(i)), B_L[local_B(g(i))]);
//! -- update phase: i ∈ Modify_p
//! tmp := if proc_B(g(i)) = p then B_L[local_B(g(i))] else receive(...);
//! A_L[local_A(f(i))] := Expr(tmp);
//! ```
//!
//! The iteration sets come from the plan's schedules (naive or
//! closed-form), so the machine measures exactly the run-time the paper's
//! compile-time optimizations buy. Whichever produced them, the schedules
//! are flattened once into run tables with plan-time addressing
//! (`vcal_spmd::CompiledSchedule`) and the clause expression into one
//! bytecode kernel: the tables are the only thing a node executes, and
//! the sequential machine (`Env::exec_clause`) is the only reference.
//! Clauses of any rank run here:
//! [`run_distributed_nd`] lowers a multi-dimensional clause onto the run
//! tables a 1-D plan compiles to (`vcal_spmd::lower_nd`) and hands them
//! to the same phase engine.
//!
//! The plan's communication schedule ([`vcal_spmd::NodeCommPlan`],
//! derived at plan time from `Reside_p ∩ Modify_q`) drives the send
//! phase directly: one vector message per planned packet (whole
//! coalesced runs, grouped at plan time up to `vcal_spmd::PACKET_ELEMS`),
//! packed in run order. The receiver stages each packet by its
//! `(source, packet)` tag — derived from the *same* plan, so no
//! per-element matching happens — and the update phase reads values by
//! plan-computed offsets. The literal per-element template of Section
//! 2.10 is what `vcal_spmd::emit` prints and `Env::exec_clause` runs.
//!
//! Packets travel through the reliable transport of
//! [`crate::transport`] (per-flow sequence numbers, duplicate
//! suppression, NACK/retransmit recovery with bounded retries), so runs
//! survive transient faults injected by a seeded [`FaultPlan`] and
//! degrade into typed [`MachineError`]s — never a hang — when a fault is
//! permanent. A panicking node thread is caught by the supervisor and
//! surfaced as [`MachineError::NodePanicked`]. A node stores
//! `A'[local(f(i))]` into its *next* image of the part or stages the
//! store as a [`WriteOp`], never into the part it reads; the host commits
//! either only when *every* node succeeded, so a failed run leaves the
//! distributed arrays exactly as they were.
//!
//! Wire traffic is modeled in [`NodeStats`]: `msgs_sent`/`msgs_received`
//! count payload *elements*, while `packets_sent`/`bytes_sent`/
//! `max_packet_elems` expose the batching (a packet costs 16 modeled
//! header bytes plus 8 per element). Reliability traffic is counted
//! separately (`retransmits`, `dups_dropped`, `corrupt_detected`,
//! `acks_sent`, `nacks_sent`).

use crate::darray::DistArray;
use crate::darray_nd::DistArrayNd;
use crate::error::MachineError;
use crate::executor::{prepare_nd, prepare_run, Pool, PreparedPlan};
use crate::net::ChaosPlan;
use crate::obs::{EventKind, Tracer, NULL_TRACER};
use crate::session::PoolState;
use crate::stats::{ExecReport, NodeStats};
use crate::transport::{
    await_until, AwaitFail, Endpoint, FaultPlan, ProtoTimeouts, RetryPolicy, TransportKind,
};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;
use vcal_core::{ArrayRef, Clause, CmpOp, Guard, Ix};
use vcal_decomp::{Decomp1, DecompNd};
use vcal_spmd::{
    kernel::CHUNK, simd, AccessPattern, CompiledKernel, CompiledNode, CompiledSchedule, ExecRun,
    FusedShape, KernelOp, SimdPolicy, SlotAccess, SpmdPlan,
};

/// Modeled header cost of one packet (source + packet tag).
pub(crate) const PACK_HEADER_BYTES: u64 = 16;

/// The machine-level payload of a wire packet: all values of one
/// planned packet, in run order. `run_ord` (the wire name) is the
/// packet's ordinal in the pair's packet list, which the plan makes
/// identical on both sides. The values are shared, not copied, between
/// the wire, the sender's retransmit buffer and (in process) the
/// receiver's staging.
#[derive(Debug, Clone)]
pub(crate) struct Wire {
    pub(crate) run_ord: usize,
    pub(crate) values: Arc<[f64]>,
}

/// Execution options for the distributed machine.
#[derive(Debug, Clone, Copy)]
pub struct DistOptions {
    /// How long a blocking receive waits, in total, before reporting a
    /// lost message (also caps the post-run drain that services late
    /// retransmit requests).
    pub recv_timeout: Duration,
    /// Optional seed-driven fault injection.
    pub faults: Option<FaultPlan>,
    /// NACK/retransmit recovery policy; [`RetryPolicy::none`] restores
    /// the legacy fail-on-first-timeout behavior.
    pub retry: RetryPolicy,
    /// SIMD lane policy for fused interior runs (see
    /// `vcal_spmd::simd`). Lane parallelism never re-associates any
    /// per-element computation, so results are bitwise identical to the
    /// chunked bytecode.
    pub simd: SimdPolicy,
    /// Which carrier moves frames between nodes. [`TransportKind::InProc`]
    /// (the default) runs nodes as threads over channels; `Uds`/`Tcp`
    /// run every node as a real OS process exchanging length-prefixed
    /// frames through a host-side router (DESIGN.md §15). Results,
    /// statistics, and the deterministic trace class are identical
    /// across backends.
    pub transport: TransportKind,
    /// Byte-level wire chaos (truncate/bitflip/stall/sever), injected by
    /// a proxy between the workers and the router. Only meaningful on
    /// the socket backends; ignored under `InProc`.
    pub chaos: Option<ChaosPlan>,
    /// Socket-backend protocol timeouts (heartbeat, spawn deadline, run
    /// grace, job resend). Per-run before; service-level now, so a
    /// resident `vcalc serve` can tighten failure detection without a
    /// recompile. Ignored under [`TransportKind::InProc`].
    pub timeouts: ProtoTimeouts,
}

impl Default for DistOptions {
    fn default() -> Self {
        DistOptions {
            recv_timeout: Duration::from_secs(5),
            faults: None,
            retry: RetryPolicy::default(),
            simd: SimdPolicy::default(),
            transport: TransportKind::default(),
            chaos: None,
            timeouts: ProtoTimeouts::default(),
        }
    }
}

pub(crate) enum RGuard {
    Always,
    Cmp { slot: usize, op: CmpOp, rhs: f64 },
}

/// Resolve the clause guard against the read slots (`slot_of` names
/// the slot of a read reference).
pub(crate) fn resolve_guard(
    g: &Guard,
    slot_of: impl Fn(&ArrayRef) -> Option<usize>,
) -> Result<RGuard, MachineError> {
    match g {
        Guard::Always => Ok(RGuard::Always),
        Guard::Cmp { lhs, op, rhs } => {
            let slot = slot_of(lhs).ok_or_else(|| {
                MachineError::PlanMismatch(format!(
                    "guard ref `{}` missing from the plan's read slots",
                    lhs.array
                ))
            })?;
            Ok(RGuard::Cmp {
                slot,
                op: *op,
                rhs: *rhs,
            })
        }
    }
}

/// One staged local write of a node that is not writing a next image:
/// committed by the host, in collection order, only when the whole run
/// succeeded. A contiguous run of an unguarded clause stages one dense
/// span — whatever kernel arm filled it — and commits as one slice copy
/// instead of per-element stores.
#[derive(Debug, Clone)]
pub(crate) enum WriteOp {
    /// One element: `lhs_local[offset] = value`.
    El(usize, f64),
    /// A contiguous span:
    /// `lhs_local[base..base+values.len()].copy_from_slice(values)`.
    Dense {
        /// First local offset of the span.
        base: usize,
        /// The values, in offset order.
        values: Vec<f64>,
    },
}

/// A zero part of the right local size. A negative local count means
/// the decomposition does not cover node `p` at all: that is a
/// plan/decomposition mismatch and is reported as a typed error instead
/// of being silently clamped to an empty part.
pub(crate) fn zero_part(dec: &Decomp1, p: i64) -> Result<Vec<f64>, MachineError> {
    let count = dec.local_count(p);
    if count < 0 {
        return Err(MachineError::PlanMismatch(format!(
            "decomposition reports negative local count {count} for node {p}"
        )));
    }
    Ok(vec![0.0; count as usize])
}

/// A distributed image as the host edge sees it: per-node parts under
/// some decomposition, whatever its rank.
pub(crate) trait Image: Sized {
    /// The decomposition the parts were cut by.
    type Decomp;
    /// Split into the decomposition and the per-node parts.
    fn into_parts(self) -> (Self::Decomp, Vec<Vec<f64>>);
    /// Inverse of [`Image::into_parts`].
    fn from_parts(decomp: Self::Decomp, parts: Vec<Vec<f64>>) -> Self;
}

impl Image for DistArray {
    type Decomp = Decomp1;
    fn into_parts(self) -> (Decomp1, Vec<Vec<f64>>) {
        DistArray::into_parts(self)
    }
    fn from_parts(decomp: Decomp1, parts: Vec<Vec<f64>>) -> Self {
        DistArray::from_parts(decomp, parts)
    }
}

impl Image for DistArrayNd {
    type Decomp = DecompNd;
    fn into_parts(self) -> (DecompNd, Vec<Vec<f64>>) {
        DistArrayNd::into_parts(self)
    }
    fn from_parts(decomp: DecompNd, parts: Vec<Vec<f64>>) -> Self {
        DistArrayNd::from_parts(decomp, parts)
    }
}

/// The referenced images of one wave, taken apart: every node's local
/// memories, and the decompositions `finalize_wave` puts the images
/// back together under.
pub(crate) struct Disassembled<D> {
    /// Per node, its part of every referenced array.
    pub(crate) per_node: Vec<BTreeMap<String, Vec<f64>>>,
    /// Every referenced array with its decomposition.
    pub(crate) decomps: Vec<(String, D)>,
}

/// Remove every image a wave references — the union of its jobs'
/// arrays, in first-reference order — from `arrays` and split it into
/// per-node local memories. Two-phase: a missing array restores the
/// already-removed images and reports a typed error, so the map is
/// never left partially disassembled.
pub(crate) fn disassemble<A: Image>(
    arrays: &mut BTreeMap<String, A>,
    jobs: &[Arc<PreparedPlan>],
) -> Result<Disassembled<A::Decomp>, MachineError> {
    let mut taken: Vec<(String, A)> = Vec::new();
    for name in jobs.iter().flat_map(|job| &job.referenced) {
        if taken.iter().any(|(n, _)| n == name) {
            continue;
        }
        match arrays.remove(name) {
            Some(da) => taken.push((name.clone(), da)),
            None => {
                for (n, da) in taken {
                    arrays.insert(n, da);
                }
                return Err(MachineError::UnknownArray(name.clone()));
            }
        }
    }
    let pmax = jobs.first().map_or(0, |job| job.pmax);
    let mut per_node: Vec<BTreeMap<String, Vec<f64>>> =
        (0..pmax).map(|_| BTreeMap::new()).collect();
    let mut decomps = Vec::with_capacity(taken.len());
    for (name, da) in taken {
        let (dec, parts) = da.into_parts();
        for (p, part) in parts.into_iter().enumerate() {
            per_node[p].insert(name.clone(), part);
        }
        decomps.push((name, dec));
    }
    Ok(Disassembled { per_node, decomps })
}

/// Execute a `//` clause on the distributed-memory machine.
///
/// `arrays` maps every referenced array to its distributed image; the
/// decompositions of those images must be the ones the plan was built
/// with. On success the images are updated in place; on *any* error the
/// images are restored to their pre-run state (what the nodes wrote is
/// committed by the host only after every node succeeded).
pub fn run_distributed(
    plan: &SpmdPlan,
    clause: &Clause,
    arrays: &mut BTreeMap<String, DistArray>,
    opts: DistOptions,
) -> Result<ExecReport, MachineError> {
    run_distributed_traced(plan, clause, arrays, opts, &NULL_TRACER)
}

/// Like [`run_distributed`] but with an observability hook: dispatch
/// decisions, phase spans, per-element/packet traffic, and transport
/// reliability events are reported to `tracer` (see [`crate::obs`]).
/// With a disabled tracer the instrumented paths cost one cached
/// branch each — [`run_distributed`] simply passes
/// [`crate::obs::NULL_TRACER`].
///
/// A cold run prepares `plan` and runs it as a wave of one on the
/// backend `opts` selects — in process, on a pool borrowed from the
/// process-wide registry; over a socket, on worker processes spawned for
/// the call: same phase engine, same tables, same trace as a
/// [`crate::DistSession`] replaying the plan. On a socket transport the
/// workers receive the clause and the decompositions, not `plan`, and
/// always re-plan with [`SpmdPlan::build`]: a `plan` built any other way
/// ([`SpmdPlan::build_naive`]) only shapes the host-side trace there.
pub fn run_distributed_traced(
    plan: &SpmdPlan,
    clause: &Clause,
    arrays: &mut BTreeMap<String, DistArray>,
    opts: DistOptions,
    tracer: &dyn Tracer,
) -> Result<ExecReport, MachineError> {
    let decomps = (arrays.iter()).map(|(name, da)| (name.clone(), da.decomp().clone()));
    let prepared = Arc::new(prepare_run(plan.clone(), clause, &decomps.collect())?);
    let wave = std::slice::from_ref(&prepared);
    let mut reports = PoolState::default().run_wave(wave, arrays, opts, tracer)?;
    Ok(reports.pop().unwrap_or_default())
}

/// Execute a `//` clause of any dimensionality on the distributed grid
/// machine with default options. All referenced arrays must be in
/// `arrays`, decomposed over grids with the same total processor count.
pub fn run_distributed_nd(
    clause: &Clause,
    arrays: &mut BTreeMap<String, DistArrayNd>,
    recv_timeout: Duration,
) -> Result<ExecReport, MachineError> {
    let opts = DistOptions {
        recv_timeout,
        ..DistOptions::default()
    };
    run_distributed_nd_traced(clause, arrays, opts, &NULL_TRACER)
}

/// Like [`run_distributed_nd`] but with full [`DistOptions`] and an
/// observability hook. The clause is lowered onto the run tables
/// (`vcal_spmd::lower_nd`) and executed by the engine that runs 1-D
/// plans, on an in-process pool borrowed from the process-wide registry:
/// same wire, same receive path, same commit, same trace events (indices
/// are linearised loop indices). The lowered plan is kept in a
/// process-wide cache keyed by clause signature × decomposition
/// fingerprint, so a repeated call neither lowers nor spawns; the
/// report's cache counters stay 0 all the same, as for every one-shot
/// call. The socket backends and wire chaos are not available to n-D
/// clauses; asking for them is a typed error.
pub fn run_distributed_nd_traced(
    clause: &Clause,
    arrays: &mut BTreeMap<String, DistArrayNd>,
    opts: DistOptions,
    tracer: &dyn Tracer,
) -> Result<ExecReport, MachineError> {
    if opts.transport != TransportKind::InProc || opts.chaos.is_some() {
        let what = match opts.transport {
            TransportKind::InProc => "wire chaos".to_string(),
            kind => format!("the {kind:?} transport"),
        };
        return Err(MachineError::Transport {
            node: crate::obs::HOST,
            detail: format!("n-D clauses run in-process only: {what} is not supported"),
        });
    }
    let prepared = prepare_nd(clause, arrays)?;
    let mut pool = Pool::borrow(prepared.pmax.max(0) as usize);
    let mut reports = pool.run_wave(std::slice::from_ref(&prepared), arrays, opts, tracer)?;
    Ok(reports.pop().unwrap_or_default())
}

/// Every read slot's local part.
pub(crate) fn slot_parts<'a>(
    locals: &'a BTreeMap<String, Vec<f64>>,
    cs: &CompiledSchedule,
) -> Result<Vec<&'a [f64]>, MachineError> {
    (cs.slot_arrays.iter())
        .map(|array| {
            let part = locals.get(array).map(Vec::as_slice);
            part.ok_or_else(|| MachineError::UnknownArray(array.clone()))
        })
        .collect()
}

/// The send phase: the plan already knows every destination and
/// packet, so each packet is built in one allocation — copied out of the
/// local parts through the plan-time segments (one slice copy when the
/// packet is a single unit-stride segment), with no run-time ownership
/// test or `local(g(i))` evaluation.
pub(crate) fn send_phase_vectorized(
    cn: &CompiledNode,
    parts: &[&[f64]],
    ep: &mut Endpoint<Wire>,
    stats: &mut NodeStats,
    sent_to: &mut [u64],
    tracer: &dyn Tracer,
) {
    let trace_on = tracer.enabled();
    for pair in &cn.sends {
        for (run_ord, segs) in pair.packets.iter().enumerate() {
            let n: usize = segs.iter().map(|seg| seg.pattern.nest.len() as usize).sum();
            let values: Arc<[f64]> = match segs.as_slice() {
                [seg] if seg.pattern.nest.depth() <= 1 && seg.pattern.is_unit_stride() => {
                    let base = seg.pattern.offset(0) as usize;
                    Arc::from(&parts[seg.slot][base..base + n])
                }
                // `RepeatN` reports an exact length, so this is the
                // packet's one allocation; the segments fill it in place
                _ => {
                    let mut values: Arc<[f64]> = std::iter::repeat_n(0.0, n).collect();
                    let mut out = Arc::get_mut(&mut values)
                        .expect("not yet shared")
                        .iter_mut();
                    for seg in segs {
                        let src = parts[seg.slot];
                        seg.pattern.for_each(|off| {
                            if let Some(v) = out.next() {
                                *v = src[off as usize];
                            }
                        });
                    }
                    values
                }
            };
            let elems = n as u64;
            ep.send(pair.peer as usize, Wire { run_ord, values });
            if trace_on {
                tracer.record(
                    cn.p,
                    EventKind::PackSend {
                        dst: pair.peer,
                        run: run_ord,
                        elems,
                        bytes: PACK_HEADER_BYTES + 8 * elems,
                    },
                );
            }
            sent_to[pair.peer as usize] += elems;
            stats.msgs_sent += elems;
            stats.packets_sent += 1;
            stats.bytes_sent += PACK_HEADER_BYTES + 8 * elems;
            stats.max_packet_elems = stats.max_packet_elems.max(elems);
        }
    }
}

/// The compiled update phase: execute the node's [`ExecRun`] tables with
/// the compiled kernel. On a node with boundary runs every *interior*
/// run (all operands owner-local by the Table I dispatch) executes
/// before any *boundary* run touches the transport, so compute proceeds
/// while packets are in flight. With `next`, the node's next image of
/// its lhs part, every run stores into its window of it: the plan's
/// write spans are disjoint, so the execution order cannot show. Without
/// one the writes are staged in `writes` and merged back into visit
/// order before returning, so the commit order — and therefore the
/// result, even for non-injective `f` — is that of the schedule.
///
/// The buffers come from the caller so the executor can reuse its
/// scratch allocations across runs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_update_phase(
    cs: &CompiledSchedule,
    cn: &CompiledNode,
    parts: &[&[f64]],
    rguard: &RGuard,
    ep: &mut Endpoint<Wire>,
    rcv: &mut WaveRecv,
    bufs: &mut Vec<f64>,
    stack: &mut Vec<f64>,
    opts: &DistOptions,
    stats: &mut NodeStats,
    writes: &mut Vec<WriteOp>,
    next: Option<&mut [f64]>,
    tracer: &dyn Tracer,
) -> Result<(), MachineError> {
    let p = cn.p;
    // baseline for the per-phase SIMD census event (the executor's warm
    // path may hand us stats that already carry earlier counts)
    let simd0 = (
        stats.simd_runs,
        stats.simd_fallback_runs,
        stats.simd_lane_elems,
        stats.simd_tail_elems,
    );
    let mut run = |k: usize,
                   er: &ExecRun,
                   stats: &mut NodeStats,
                   out: &mut Vec<WriteOp>,
                   next: Option<&mut [f64]>| {
        exec_one_run(
            k, er, parts, cs, cn, rguard, ep, rcv, bufs, stack, opts, stats, out, next, tracer,
        )
    };
    // interior first — boundary runs block on receives, interior runs
    // never do
    if let Some(next) = next {
        for boundary in [false, true] {
            for (k, er) in cn.exec.iter().enumerate() {
                if er.boundary == boundary {
                    run(k, er, stats, writes, Some(&mut *next))?;
                }
            }
        }
    } else if cn.exec.iter().any(|er| er.boundary) {
        // the two staged passes are merged back by run ordinal
        let mut counts = vec![0usize; cn.exec.len()];
        let mut passes: [Vec<WriteOp>; 2] = [Vec::new(), Vec::new()];
        for (boundary, ops) in [false, true].into_iter().zip(&mut passes) {
            for (k, er) in cn.exec.iter().enumerate() {
                if er.boundary == boundary {
                    let before = ops.len();
                    run(k, er, stats, ops, None)?;
                    counts[k] = ops.len() - before;
                }
            }
        }
        let [mut interior, mut boundary] = passes.map(Vec::into_iter);
        for (er, n) in cn.exec.iter().zip(counts) {
            let ops = if er.boundary {
                &mut boundary
            } else {
                &mut interior
            };
            for op in ops.by_ref().take(n) {
                push_write(writes, op);
            }
        }
    } else {
        for (k, er) in cn.exec.iter().enumerate() {
            run(k, er, stats, writes, None)?;
        }
    }
    if tracer.enabled() {
        tracer.record(
            p,
            EventKind::SimdCensus {
                vector_runs: stats.simd_runs - simd0.0,
                fallback_runs: stats.simd_fallback_runs - simd0.1,
                lane_elems: stats.simd_lane_elems - simd0.2,
                tail_elems: stats.simd_tail_elems - simd0.3,
            },
        );
    }
    Ok(())
}

/// Append one collected write in commit order. A dense span that starts
/// where the previous one ends grows it instead: alternating interior
/// and boundary runs of a unit-stride clause reach the host as one span
/// per node, not one per run.
fn push_write(writes: &mut Vec<WriteOp>, op: WriteOp) {
    if let (
        Some(WriteOp::Dense { base, values }),
        WriteOp::Dense {
            base: next,
            values: more,
        },
    ) = (writes.last_mut(), &op)
    {
        if *base + values.len() == *next {
            values.extend_from_slice(more);
            return;
        }
    }
    writes.push(op);
}

fn map_recv_fail(f: RecvFail, p: i64, array: &str, i: i64, slot: usize) -> MachineError {
    match f {
        RecvFail::PacketTimeout { peer, run } => MachineError::MissingPacket {
            node: p,
            peer,
            slot,
            run,
        },
        RecvFail::Exhausted { peer, retries } => MachineError::Unrecoverable {
            node: p,
            peer,
            retries,
        },
        RecvFail::BadWire(why) => {
            MachineError::PlanMismatch(format!("node {p}, array `{array}`, i={i}: {why}"))
        }
    }
}

/// Make every remote operand of boundary entry `er` available and account
/// for it: await each packet the entry names *once* and check that every
/// rep's window lies inside it (the offsets are affine in rep and
/// position, so the first and last rep's ends bound them all). One
/// `RecvValue` is traced per consumed element, rep by rep,
/// position-major then slot.
#[allow(clippy::too_many_arguments)]
fn receive_operands(
    er: &ExecRun,
    arrays: &[String],
    cn: &CompiledNode,
    ep: &mut Endpoint<Wire>,
    rcv: &mut WaveRecv,
    opts: &DistOptions,
    stats: &mut NodeStats,
    tracer: &dyn Tracer,
) -> Result<(), MachineError> {
    let (p, i0) = (cn.p, er.index.base);
    for (slot, sa) in er.slots.iter().enumerate() {
        let Some((so, po)) = sa.packet() else {
            continue;
        };
        let array = &arrays[slot];
        let len = await_packet(ep, rcv, cn, so, po, opts, stats)
            .map_err(|f| map_recv_fail(f, p, array, i0, slot))?;
        let (lo, hi) = sa.pattern().hull();
        let inside = lo >= 0 && usize::try_from(hi).is_ok_and(|hi| hi < len);
        if !(inside || er.index.is_empty()) {
            return Err(map_recv_fail(
                RecvFail::BadWire("packet shorter than its planned runs"),
                p,
                array,
                i0,
                slot,
            ));
        }
    }
    stats.msgs_received += er.remote_elems;
    if tracer.enabled() {
        let peer_of = |src_ord: usize| cn.src_peers.get(src_ord).copied().unwrap_or(-1);
        er.index.for_each(|i| {
            for (slot, sa) in er.slots.iter().enumerate() {
                if let Some((so, _)) = sa.packet() {
                    let src = peer_of(so);
                    tracer.record(p, EventKind::RecvValue { src, slot, i });
                }
            }
        });
    }
    Ok(())
}

/// One entry as its arms see it: per read slot a slice — the local part
/// or a staged packet — and the pattern that indexes it, the lhs pattern,
/// and the words of their errors. Every offset is taken in checked
/// arithmetic ([`AccessPattern::at`]).
struct Entry<'a> {
    k: usize,
    er: &'a ExecRun,
    parts: &'a [&'a [f64]],
    staging: &'a Staging,
    arrays: &'a [String],
    p: i64,
}

impl<'a> Entry<'a> {
    fn operand(&self, s: usize) -> (&'a [f64], &'a AccessPattern) {
        let sa = &self.er.slots[s];
        match sa.packet() {
            None => (self.parts[s], sa.pattern()),
            Some((so, po)) => (self.staging[so][po].as_deref().unwrap_or(&[]), sa.pattern()),
        }
    }

    fn reads_outside(&self, s: usize) -> MachineError {
        let (p, array) = (self.p, &self.arrays[s]);
        MachineError::PlanMismatch(format!("node {p}: compiled run reads outside `{array}`"))
    }

    fn writes_outside(&self) -> MachineError {
        let (p, k) = (self.p, self.k);
        MachineError::PlanMismatch(format!("node {p}: run {k} writes outside its part"))
    }

    /// Positions `t0..t0 + m` of rep `r` of a unit-stride slot, borrowed.
    fn window(&self, s: usize, r: u64, t0: usize, m: usize) -> Result<&'a [f64], MachineError> {
        let (src, pat) = self.operand(s);
        (window(pat, r, t0, m, src.len()).map(|w| &src[w])).ok_or_else(|| self.reads_outside(s))
    }

    /// The positions of chunk `c` of slot `s`, gathered into `dst` in nest
    /// order.
    fn gather(&self, s: usize, c: Chunk, dst: &mut [f64]) -> Result<(), MachineError> {
        let (src, pat) = self.operand(s);
        visit_offsets(pat, c, src.len(), |k, o| dst[k] = src[o])
            .ok_or_else(|| self.reads_outside(s))
    }

    /// The local offset of lhs position `t` of rep `r`.
    fn lhs_at(&self, r: u64, t: usize) -> Result<usize, MachineError> {
        let at = self.er.lhs.at(r, t).and_then(|o| usize::try_from(o).ok());
        at.ok_or_else(|| self.writes_outside())
    }

    /// Positions `t0..t0 + m` of rep `r` of a unit-stride (or one-position)
    /// lhs, as a window of the next image.
    fn lhs_window<'n>(
        &self,
        next: &'n mut [f64],
        r: u64,
        t0: usize,
        m: usize,
    ) -> Result<&'n mut [f64], MachineError> {
        let w = window(&self.er.lhs, r, t0, m, next.len()).ok_or_else(|| self.writes_outside())?;
        Ok(&mut next[w])
    }

    /// The loop point of the first element of rep `r`. A run stays in one
    /// row of the loop box, so only the innermost coordinate moves along it.
    fn loop_point(&self, cs: &CompiledSchedule, r: u64) -> Ix {
        let inner = cs.loop_box.dims() - 1;
        let row = (self.er.index.rep(r).base - cs.loop_box.lo()[inner]) as usize;
        cs.loop_box.from_linear_offset(row)
    }
}

/// Positions `t0..t0 + m` (`m ≥ 1`) of each of the reps `r..r + nr`.
type Chunk = (u64, usize, usize, usize);

/// Visit `(k, offset)` for the `k`-th position of a chunk of `pat`, in nest
/// order, every offset inside `0..len` by checked arithmetic. `None` when
/// an offset falls outside.
#[inline]
fn visit_offsets(
    pat: &AccessPattern,
    (r0, nr, t0, m): Chunk,
    len: usize,
    mut visit: impl FnMut(usize, usize),
) -> Option<()> {
    let inside = |r, t| usize::try_from(pat.at(r, t)?).ok().filter(|&o| o < len);
    let (c1, end, t1) = (pat.nest.count(1).max(1) as u64, r0 + nr as u64, t0 + m - 1);
    let (s0, s1) = (pat.nest.stride(0) as isize, pat.nest.stride(1) as isize);
    let (mut r, mut k, table) = (r0, 0, pat.table.is_some());
    while r < end {
        // the reps left in this pass of level 1 advance by its stride
        let run = if table { 1 } else { (c1 - r % c1).min(end - r) };
        let first = inside(r, t0)?;
        for (r, t) in [(r, t1), (r + run - 1, t0), (r + run - 1, t1)] {
            inside(r, t)?;
        }
        // the corners of an affine pass are inside, so is every offset
        // between them; a table's offsets are checked one by one
        for j in 0..run as isize {
            let base = first.wrapping_add_signed(s1 * j);
            for t in 0..m {
                let o = match table {
                    true => inside(r, t0 + t)?,
                    false => base.wrapping_add_signed(s0 * t as isize),
                };
                visit(k, o);
                k += 1;
            }
        }
        r += run;
    }
    Some(())
}

/// Positions `t0..t0 + m` of rep `r` of a unit-stride (or one-position)
/// `pat`, as a range of a slice of `len`, if they lie inside it.
fn window(pat: &AccessPattern, r: u64, t0: usize, m: usize, len: usize) -> Option<Range<usize>> {
    let lo = usize::try_from(pat.at(r, t0)?).ok()?;
    let hi = lo.checked_add(m)?;
    (hi <= len).then_some(lo..hi)
}

/// Execute one compiled entry: its receives, packet-window checks, census
/// and trace event once, then its positions by one of four arms. Interior
/// and boundary entries share one code path: a boundary entry first makes
/// its remote operands available ([`receive_operands`]), after which every
/// slot is a slice plus a pattern — the local part or a staged packet —
/// and no arm can tell the difference. An unguarded entry takes the slice
/// copy, the SIMD lane tier or the chunk path ([`exec_chunks`]); only a
/// guarded one gathers and runs the bytecode per element. Every arm writes
/// into `next` when there is one, else stages its writes in `out`.
#[allow(clippy::too_many_arguments)]
fn exec_one_run(
    k: usize,
    er: &ExecRun,
    parts: &[&[f64]],
    cs: &CompiledSchedule,
    cn: &CompiledNode,
    rguard: &RGuard,
    ep: &mut Endpoint<Wire>,
    rcv: &mut WaveRecv,
    bufs: &mut Vec<f64>,
    stack: &mut Vec<f64>,
    opts: &DistOptions,
    stats: &mut NodeStats,
    out: &mut Vec<WriteOp>,
    mut next: Option<&mut [f64]>,
    tracer: &dyn Tracer,
) -> Result<(), MachineError> {
    let p = cn.p;
    let Some(kernel) = &cs.kernel else {
        return Err(MachineError::PlanMismatch(
            "exec tables without a compiled kernel".into(),
        ));
    };
    let arrays = &cs.slot_arrays;
    let (n, reps) = (er.index.count(0).max(0) as usize, er.index.reps());
    if er.boundary {
        receive_operands(er, arrays, cn, ep, rcv, opts, stats, tracer)?;
    }
    let staging = rcv.cur_staging();
    let en = Entry {
        k,
        er,
        parts,
        staging,
        arrays,
        p,
    };
    // every position is charged one iteration, one data guard and one
    // read per local slot, whichever arm runs it
    let local_slots = (er.slots.iter())
        .filter(|sa| matches!(sa, SlotAccess::Local(_)))
        .count() as u64;
    stats.iterations += er.elems();
    stats.data_guards += er.elems();
    stats.local_reads += er.elems() * local_slots;
    let unguarded = matches!(rguard, RGuard::Always);
    // SIMD lane tier: the plan-time predicate (unit-stride writes, all
    // read slots unit-stride) plus the runtime guard/policy. The lane
    // kernels perform the exact per-element operation sequence of the
    // bytecode, so results are bitwise identical.
    let simd_ok = opts.simd.enabled() && unguarded && er.simd_eligible(&kernel.fused);
    // a copy between unit strides is `gen_p`'s outer level at its barest:
    // per rep two bases, their bounds checks and one slice copy. It
    // predates the lane tier; the census claims it only when the policy
    // is on. A one-element rep is contiguous whatever step its compressed
    // pattern records — the predicate of the plan's write spans
    let slice_copy = match kernel.fused {
        FusedShape::Copy { slot } if unguarded && (er.lhs.is_unit_stride() || n == 1) => {
            Some(slot).filter(|&s| n > 0 && en.operand(s).1.is_unit_stride())
        }
        _ => None,
    };
    let vectorized = if !unguarded {
        exec_guarded(&en, kernel, cs, rguard, stack, out, next)?;
        false
    } else if let Some(s) = slice_copy {
        // the operand is resolved once, not per rep: reps may be a few
        // elements each
        let (part, pat) = en.operand(s);
        for r in 0..reps {
            let src = &part[window(pat, r, 0, n, part.len()).ok_or_else(|| en.reads_outside(s))?];
            match next.as_deref_mut() {
                Some(next) => en.lhs_window(next, r, 0, n)?.copy_from_slice(src),
                None => out.push(WriteOp::Dense {
                    base: en.lhs_at(r, 0)?,
                    values: src.to_vec(),
                }),
            }
        }
        simd_ok
    } else if simd_ok {
        for r in 0..reps {
            let mut dense = Vec::new();
            let win = match next.as_deref_mut() {
                Some(next) => en.lhs_window(next, r, 0, n)?,
                None => {
                    dense = vec![0.0; n];
                    &mut dense
                }
            };
            // the operands the shape reads, in its slot order
            let (mut x, shape) = ([&[][..]; 3], &kernel.fused);
            for (x, &s) in x.iter_mut().zip(shape.read_slots()) {
                *x = en.window(s, r, 0, n)?;
            }
            match (shape, shape.read_slots().len()) {
                (FusedShape::Axpy { a, b, .. }, _) => simd::axpy(opts.simd, *a, *b, x[0], win),
                (FusedShape::Stencil { scale, offset, .. }, 2) => {
                    simd::stencil2(opts.simd, *scale, *offset, x[0], x[1], win)
                }
                (
                    FusedShape::Stencil {
                        left_assoc,
                        scale,
                        offset,
                        ..
                    },
                    3,
                ) => {
                    let (l, s, o) = (*left_assoc, *scale, *offset);
                    simd::stencil3(opts.simd, l, s, o, x[0], x[1], x[2], win)
                }
                (other, _) => {
                    let why = format!("node {p}: run {k}: no lane kernel for {other:?}");
                    return Err(MachineError::PlanMismatch(why));
                }
            }
            if next.is_none() {
                let base = en.lhs_at(r, 0)?;
                out.push(WriteOp::Dense {
                    base,
                    values: dense,
                });
            }
        }
        true
    } else {
        exec_chunks(&en, kernel, cs, bufs, stack, out, next)?;
        false
    };
    // SIMD census: every executed entry is either vectorized or fallback,
    // and vectorized elements split, rep by rep, into full lanes plus a
    // scalar tail.
    if vectorized {
        let lanes = opts.simd.census_lanes() as u64;
        stats.simd_runs += 1;
        stats.simd_lane_elems += reps * (n as u64 / lanes * lanes);
        stats.simd_tail_elems += reps * (n as u64 % lanes);
        stats.simd_lanes = stats.simd_lanes.max(lanes);
    } else {
        stats.simd_fallback_runs += 1;
    }
    if tracer.enabled() {
        tracer.record(
            p,
            if er.boundary {
                EventKind::BoundaryRun {
                    run: k,
                    elems: er.elems(),
                    recvs: er.remote_elems,
                }
            } else {
                EventKind::InteriorRun {
                    run: k,
                    elems: er.elems(),
                }
            },
        );
    }
    Ok(())
}

/// The chunk path of an unguarded entry: its positions in nest order, up
/// to [`CHUNK`] at a time — a piece of a rep longer than a chunk, else as
/// many whole reps as fit, so that an entry of many one-element reps
/// batches like one long run. A kernel that reads a loop coordinate takes
/// one rep per chunk, along which the coordinate advances by the step.
/// Per chunk an operand is borrowed where it is one unit-stride window and
/// gathered into its buffer in `bufs` otherwise, and the bytecode runs
/// once ([`CompiledKernel::eval_run`]): into the lhs window when the chunk
/// is one contiguous stretch of it, else into the results buffer, which is
/// then copied or scattered into `next`, or staged (a `Dense` per
/// contiguous rep, an `El` per element). Within a pass of level 1 a
/// chunk's affine addresses are a two-level nest, checked by its corners.
fn exec_chunks(
    en: &Entry,
    kernel: &CompiledKernel,
    cs: &CompiledSchedule,
    bufs: &mut Vec<f64>,
    stack: &mut Vec<f64>,
    out: &mut Vec<WriteOp>,
    mut next: Option<&mut [f64]>,
) -> Result<(), MachineError> {
    let (er, n_slots) = (en.er, en.er.slots.len());
    let (n, reps) = (er.index.count(0).max(0) as usize, er.index.reps());
    let (inner, step) = (cs.loop_box.dims() - 1, er.index.stride(0));
    let loop_var = (kernel.ops().iter()).any(|op| matches!(op, KernelOp::LoopVar(_)));
    let per = if loop_var {
        1
    } else {
        (CHUNK / n.max(1)).max(1)
    };
    let contiguous = er.lhs.is_unit_stride() || n == 1;
    // buffers, one chunk per slot and one of results, where some chunk
    // gathers or scatters
    let unit = |s| en.operand(s).1.is_unit_stride();
    if !(per == 1 && contiguous && (0..n_slots).all(unit)) {
        bufs.resize(bufs.len().max((n_slots + 1) * CHUNK), 0.0);
    }
    let mid = (n_slots * CHUNK).min(bufs.len());
    let (gathered, results) = bufs.split_at_mut(mid);
    let borrowed = |s: usize, nr: usize| nr == 1 && unit(s);
    let mut dense = Vec::new();
    for r in (0..reps).step_by(per) {
        let nr = (per as u64).min(reps - r) as usize;
        for t0 in (0..n).step_by(CHUNK) {
            let m = CHUNK.min(n - t0);
            let len = nr * m;
            for (s, buf) in gathered.chunks_exact_mut(CHUNK).enumerate() {
                if !borrowed(s, nr) {
                    en.gather(s, (r, nr, t0, m), &mut buf[..len])?;
                }
            }
            let segs = (0..n_slots)
                .map(|s| match borrowed(s, nr) {
                    true => en.window(s, r, t0, m),
                    false => Ok(&gathered[s * CHUNK..][..len]),
                })
                .collect::<Result<Vec<_>, _>>()?;
            let point = loop_var.then(|| {
                let mut i = en.loop_point(cs, r);
                i[inner] += step * t0 as i64;
                i
            });
            let idx = point.as_ref().map_or(&[][..], Ix::coords);
            if nr == 1 && contiguous {
                // one contiguous stretch of the lhs: written in place
                let win = match next.as_deref_mut() {
                    Some(next) => en.lhs_window(next, r, t0, m)?,
                    None if t0 == 0 => {
                        dense = vec![0.0; n];
                        &mut dense[..m]
                    }
                    None => &mut dense[t0..t0 + m],
                };
                kernel.eval_run(idx, inner, step, &segs, win, stack);
                if next.is_none() && t0 + m == n {
                    let (base, values) = (en.lhs_at(r, 0)?, std::mem::take(&mut dense));
                    out.push(WriteOp::Dense { base, values });
                }
                continue;
            }
            let results = &mut results[..len];
            kernel.eval_run(idx, inner, step, &segs, results, stack);
            let chunk = (r, nr, t0, m);
            let scattered = match next.as_deref_mut() {
                Some(next) => {
                    visit_offsets(&er.lhs, chunk, next.len(), |k, o| next[o] = results[k])
                }
                None if contiguous => {
                    for (j, vals) in (0..).zip(results.chunks_exact(m)) {
                        let (base, values) = (en.lhs_at(r + j, t0)?, vals.to_vec());
                        out.push(WriteOp::Dense { base, values });
                    }
                    Some(())
                }
                None => visit_offsets(&er.lhs, chunk, usize::MAX, |k, o| {
                    out.push(WriteOp::El(o, results[k]))
                }),
            };
            scattered.ok_or_else(|| en.writes_outside())?;
        }
    }
    Ok(())
}

/// A guarded entry, element by element: gather every slot, test the
/// guard, and run the bytecode where it holds.
fn exec_guarded(
    en: &Entry,
    kernel: &CompiledKernel,
    cs: &CompiledSchedule,
    rguard: &RGuard,
    stack: &mut Vec<f64>,
    out: &mut Vec<WriteOp>,
    mut next: Option<&mut [f64]>,
) -> Result<(), MachineError> {
    let er = en.er;
    let (inner, step) = (cs.loop_box.dims() - 1, er.index.stride(0));
    let vals = &mut vec![0.0; er.slots.len()];
    for r in 0..er.index.reps() {
        let mut i = en.loop_point(cs, r);
        for t in 0..er.index.count(0).max(0) as usize {
            for (s, v) in vals.iter_mut().enumerate() {
                en.gather(s, (r, 1, t, 1), std::slice::from_mut(v))?;
            }
            let holds = match rguard {
                RGuard::Always => true,
                RGuard::Cmp { slot, op, rhs } => {
                    op.holds(vals.get(*slot).copied().unwrap_or(0.0), *rhs)
                }
            };
            if holds {
                let (off, v) = (en.lhs_at(r, t)?, kernel.eval(i.coords(), vals, stack));
                match next.as_deref_mut() {
                    Some(next) => *next.get_mut(off).ok_or_else(|| en.writes_outside())? = v,
                    None => out.push(WriteOp::El(off, v)),
                }
            }
            i[inner] += step;
        }
    }
    Ok(())
}

/// Why a remote value could not be produced.
enum RecvFail {
    /// The planned packet never arrived within the timeout (recovery
    /// disabled), identified by the wire protocol's own coordinates.
    PacketTimeout { peer: i64, run: usize },
    /// The NACK/retransmit budget was exhausted.
    Exhausted { peer: i64, retries: u32 },
    /// The wire carried something the plan does not account for.
    BadWire(&'static str),
}

/// Packet staging, `[source ordinal][packet]`: the
/// payload of every planned incoming packet that has landed.
pub(crate) type Staging = Vec<Vec<Option<Arc<[f64]>>>>;

/// One job's private receive buffers. Lanes are strictly per job: two
/// jobs of a wave generally disagree about source and packet ordinals.
#[derive(Default)]
struct JobLane {
    /// source processor id → ordinal in this job's recv pair list
    /// (`usize::MAX` when the source owes this job nothing).
    src_ord: Vec<usize>,
    /// the job's packet staging.
    staging: Staging,
}

/// The receive router threaded through the update phase. A wave is ONE
/// transport run: every job's frames share the per-source sequence
/// space back-to-back, and frames may surface out of order (reorder
/// faults), so arrival counting is unsound. Senders assign dense
/// per-flow seqnos in job-ordinal send order, which makes plan-derived
/// cumulative frame counts an exact demultiplexer: the frame with
/// sequence number `s` from source `src` belongs to the unique job `j`
/// with `cuts[src][j] <= s < cuts[src][j+1]`, regardless of delivery
/// order. It lives in the worker's scratch: lanes and windows are
/// resized per wave, not reallocated.
#[derive(Default)]
pub(crate) struct WaveRecv {
    /// ordinal of the job currently executing on this node.
    pub(crate) cur: usize,
    /// per-job receive buffers.
    lanes: Vec<JobLane>,
    /// `cuts[src][j]` = total data frames `src` sends this node across
    /// jobs `0..j` (length `jobs + 1`, `cuts[src][0] == 0`).
    cuts: Vec<Vec<u64>>,
}

impl WaveRecv {
    /// Size the lanes and seq windows for one wave from each job's
    /// tables for this node, in wave order: one frame per planned packet
    /// — mirrored exactly by the sender's send phase, which walks the
    /// same pair sets in the same order.
    pub(crate) fn reset<'a>(&mut self, jobs: impl Iterator<Item = &'a CompiledNode>, pmax: usize) {
        self.cur = 0;
        self.cuts.resize_with(pmax, Vec::new);
        for col in &mut self.cuts {
            col.clear();
            col.push(0);
        }
        let mut njobs = 0;
        for cn in jobs {
            if self.lanes.len() == njobs {
                self.lanes.push(JobLane::default());
            }
            let lane = &mut self.lanes[njobs];
            njobs += 1;
            lane.src_ord.clone_from(&cn.src_ord);
            lane.staging.resize_with(cn.staging_packets.len(), Vec::new);
            for (row, &npackets) in lane.staging.iter_mut().zip(&cn.staging_packets) {
                row.clear();
                row.resize(npackets, None);
            }
            for col in &mut self.cuts {
                col.push(col[njobs - 1]);
            }
            for (peer, &npackets) in cn.src_peers.iter().zip(&cn.staging_packets) {
                if let Some(col) = usize::try_from(*peer)
                    .ok()
                    .and_then(|s| self.cuts.get_mut(s))
                {
                    col[njobs] += npackets as u64;
                }
            }
        }
        self.lanes.truncate(njobs);
    }

    /// The job owning sequence number `seq` of flow `src → self`.
    fn lane_of(&mut self, src: i64, seq: u64) -> Result<&mut JobLane, &'static str> {
        let col = usize::try_from(src).ok().and_then(|s| self.cuts.get(s));
        let j = col
            .ok_or("frame from unknown source")?
            .partition_point(|&c| c <= seq);
        (j.checked_sub(1))
            .and_then(|j| self.lanes.get_mut(j))
            .ok_or("data frame outside the wave's planned windows")
    }

    /// The staging rows the currently executing job reads from.
    fn cur_staging(&self) -> &Staging {
        &self.lanes[self.cur].staging
    }

    /// Stage one packet into its owning job's staging row, routed with
    /// that lane's own source table (jobs generally disagree about
    /// source ordinals).
    fn stage_pack(
        &mut self,
        src: i64,
        seq: u64,
        run_ord: usize,
        values: Arc<[f64]>,
    ) -> Result<(), &'static str> {
        let lane = self.lane_of(src, seq)?;
        let ord = usize::try_from(src).ok().and_then(|s| lane.src_ord.get(s));
        let row = ord
            .and_then(|&o| lane.staging.get_mut(o))
            .ok_or("packet from unplanned source")?;
        let cell = row.get_mut(run_ord).ok_or("packet run tag out of range")?;
        if cell.is_none() {
            // first arrival wins; retransmitted duplicates carry
            // identical payloads
            *cell = Some(values);
        }
        Ok(())
    }
}

/// Blocking receive of one whole planned packet: stage
/// arrivals by `(source, packet)` until packet `(so, po)` has landed,
/// and return its length. The compiled update phase calls this once per
/// packet a boundary run names.
fn await_packet(
    ep: &mut Endpoint<Wire>,
    rcv: &mut WaveRecv,
    cn: &CompiledNode,
    so: usize,
    po: usize,
    opts: &DistOptions,
    stats: &mut NodeStats,
) -> Result<usize, RecvFail> {
    let peer = cn
        .src_peers
        .get(so)
        .copied()
        .ok_or(RecvFail::BadWire("source ordinal out of range"))?;
    await_until(
        ep,
        peer,
        opts.recv_timeout,
        opts.retry,
        stats,
        rcv,
        |rcv| {
            let cell = rcv.cur_staging().get(so).and_then(|row| row.get(po));
            cell.and_then(Option::as_ref).map(|vals| Ok(vals.len()))
        },
        |rcv, src, seq, wire: Wire| rcv.stage_pack(src, seq, wire.run_ord, wire.values),
    )
    .map_err(|e| match e {
        AwaitFail::Timeout => RecvFail::PacketTimeout { peer, run: po },
        AwaitFail::Exhausted { retries } => RecvFail::Exhausted { peer, retries },
        AwaitFail::BadWire(w) => RecvFail::BadWire(w),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;
    use vcal_core::func::Fn1;
    use vcal_core::{Array, Bounds, Env, Expr, IndexSet, Ordering};
    use vcal_spmd::DecompMap;

    fn copy_setup(
        n: i64,
        f: Fn1,
        g: Fn1,
        dec_a: Decomp1,
        dec_b: Decomp1,
        imin: i64,
        imax: i64,
    ) -> (Clause, Env, DecompMap) {
        let clause = Clause {
            iter: IndexSet::range(imin, imax),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("A", f),
            rhs: Expr::add(Expr::Ref(ArrayRef::d1("B", g)), Expr::Lit(0.5)),
        };
        let mut env = Env::new();
        env.insert("A", Array::zeros(dec_a.extent()));
        env.insert(
            "B",
            Array::from_fn(dec_b.extent(), |i| (i.scalar() * 3) as f64),
        );
        let mut dm = DecompMap::new();
        dm.insert("A".into(), dec_a);
        dm.insert("B".into(), dec_b);
        let _ = n;
        (clause, env, dm)
    }

    fn scatter_arrays(env0: &Env, dm: &DecompMap) -> BTreeMap<String, DistArray> {
        let mut arrays: BTreeMap<String, DistArray> = BTreeMap::new();
        for name in ["A", "B"] {
            arrays.insert(
                name.into(),
                DistArray::scatter_from(env0.get(name).unwrap(), dm[name].clone()),
            );
        }
        arrays
    }

    fn run_and_compare(clause: &Clause, env0: &Env, dm: &DecompMap, naive: bool) -> ExecReport {
        let mut expect = env0.clone();
        expect.exec_clause(clause);

        let plan = if naive {
            SpmdPlan::build_naive(clause, dm).unwrap()
        } else {
            SpmdPlan::build(clause, dm).unwrap()
        };
        let mut arrays = scatter_arrays(env0, dm);
        let report = run_distributed(&plan, clause, &mut arrays, DistOptions::default()).unwrap();
        let got = arrays["A"].gather();
        assert_eq!(
            got.max_abs_diff(expect.get("A").unwrap()),
            0.0,
            "distributed result differs (naive={naive})"
        );
        report
    }

    #[test]
    fn block_to_scatter_copy() {
        let n = 64;
        let (clause, env, dm) = copy_setup(
            n,
            Fn1::identity(),
            Fn1::identity(),
            Decomp1::block(4, Bounds::range(0, n - 1)),
            Decomp1::scatter(4, Bounds::range(0, n - 1)),
            0,
            n - 1,
        );
        let report = run_and_compare(&clause, &env, &dm, false);
        // comm matches the analytic count: 48 remote of 64
        assert_eq!(report.total().msgs_sent, 48);
        assert_eq!(report.total().msgs_received, 48);
        run_and_compare(&clause, &env, &dm, true);
    }

    #[test]
    fn stencil_block_block() {
        let n = 64;
        let (clause, env, dm) = copy_setup(
            n,
            Fn1::identity(),
            Fn1::shift(-1),
            Decomp1::block(4, Bounds::range(0, n - 1)),
            Decomp1::block(4, Bounds::range(0, n - 1)),
            1,
            n - 1,
        );
        let report = run_and_compare(&clause, &env, &dm, false);
        assert_eq!(report.total().msgs_sent, 3); // one halo value per boundary
    }

    #[test]
    fn strided_access_under_scatter() {
        let n = 128;
        let (clause, env, dm) = copy_setup(
            n,
            Fn1::affine(2, 1),
            Fn1::affine(3, 0),
            Decomp1::scatter(4, Bounds::range(0, n - 1)),
            Decomp1::block_scatter(4, 4, Bounds::range(0, 3 * n)),
            0,
            n / 2 - 1,
        );
        run_and_compare(&clause, &env, &dm, false);
        run_and_compare(&clause, &env, &dm, true);
    }

    #[test]
    fn rotate_view_piecewise() {
        let n = 20;
        let (clause, env, dm) = copy_setup(
            n,
            Fn1::identity(),
            Fn1::rotate(6, 20),
            Decomp1::block(4, Bounds::range(0, n - 1)),
            Decomp1::scatter(4, Bounds::range(0, n - 1)),
            0,
            n - 1,
        );
        run_and_compare(&clause, &env, &dm, false);
    }

    #[test]
    fn replicated_read_no_messages() {
        let n = 32;
        let (clause, env, dm) = copy_setup(
            n,
            Fn1::identity(),
            Fn1::identity(),
            Decomp1::block(4, Bounds::range(0, n - 1)),
            Decomp1::replicated(4, Bounds::range(0, n - 1)),
            0,
            n - 1,
        );
        let report = run_and_compare(&clause, &env, &dm, false);
        assert_eq!(report.total().msgs_sent, 0);
    }

    #[test]
    fn guarded_clause_still_consumes_messages() {
        // guard reads C (scatter) while A is block: values must flow even
        // for iterations whose guard fails, or the pairing deadlocks.
        let n = 32;
        let clause = Clause {
            iter: IndexSet::range(0, n - 1),
            ordering: Ordering::Par,
            guard: Guard::Cmp {
                lhs: ArrayRef::d1("C", Fn1::identity()),
                op: CmpOp::Gt,
                rhs: 0.0,
            },
            lhs: ArrayRef::d1("A", Fn1::identity()),
            rhs: Expr::Ref(ArrayRef::d1("B", Fn1::identity())),
        };
        let mut env = Env::new();
        env.insert("A", Array::zeros(Bounds::range(0, n - 1)));
        env.insert(
            "B",
            Array::from_fn(Bounds::range(0, n - 1), |i| i.scalar() as f64),
        );
        env.insert(
            "C",
            Array::from_fn(Bounds::range(0, n - 1), |i| {
                if i.scalar() % 2 == 0 {
                    1.0
                } else {
                    -1.0
                }
            }),
        );
        let mut dm = DecompMap::new();
        dm.insert("A".into(), Decomp1::block(4, Bounds::range(0, n - 1)));
        dm.insert("B".into(), Decomp1::block(4, Bounds::range(0, n - 1)));
        dm.insert("C".into(), Decomp1::scatter(4, Bounds::range(0, n - 1)));

        let mut expect = env.clone();
        expect.exec_clause(&clause);
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        let mut arrays: BTreeMap<String, DistArray> = BTreeMap::new();
        for name in ["A", "B", "C"] {
            arrays.insert(
                name.into(),
                DistArray::scatter_from(env.get(name).unwrap(), dm[name].clone()),
            );
        }
        run_distributed(&plan, &clause, &mut arrays, DistOptions::default()).unwrap();
        assert_eq!(
            arrays["A"].gather().max_abs_diff(expect.get("A").unwrap()),
            0.0
        );
    }

    #[test]
    fn vectorized_aggregates_packets() {
        let n = 64;
        let (clause, env, dm) = copy_setup(
            n,
            Fn1::identity(),
            Fn1::identity(),
            Decomp1::block(4, Bounds::range(0, n - 1)),
            Decomp1::scatter(4, Bounds::range(0, n - 1)),
            0,
            n - 1,
        );
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        let mut arrays = scatter_arrays(&env, &dm);
        let report = run_distributed(&plan, &clause, &mut arrays, DistOptions::default()).unwrap();
        let t = report.total();
        // the plan is the ground truth for what travels
        let elems: u64 = plan.nodes.iter().map(|np| np.comm.send_elems()).sum();
        let packets: u64 = plan.nodes.iter().map(|np| np.comm.send_packets()).sum();
        assert_eq!(t.msgs_sent, elems);
        assert_eq!(t.msgs_received, elems);
        assert_eq!(t.packets_sent, packets);
        // strictly fewer, larger messages than one per element
        assert!(t.packets_sent < t.msgs_sent);
        assert!(t.max_packet_elems > 1);
        assert_eq!(t.bytes_sent, PACK_HEADER_BYTES * packets + 8 * elems);
    }

    #[test]
    fn dropped_message_recovered_by_retransmit() {
        // the legacy fatal fault is now transient: the receiver NACKs,
        // the sender retransmits, and the run completes bit-for-bit
        let n = 32;
        let (clause, env, dm) = copy_setup(
            n,
            Fn1::identity(),
            Fn1::identity(),
            Decomp1::block(4, Bounds::range(0, n - 1)),
            Decomp1::scatter(4, Bounds::range(0, n - 1)),
            0,
            n - 1,
        );
        let mut expect = env.clone();
        expect.exec_clause(&clause);
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        let mut arrays = scatter_arrays(&env, &dm);
        let opts = DistOptions {
            recv_timeout: Duration::from_secs(2),
            faults: Some(FaultPlan::drop_nth(1, 0)),
            retry: RetryPolicy::fast(),
            ..DistOptions::default()
        };
        let report = run_distributed(&plan, &clause, &mut arrays, opts).unwrap();
        assert_eq!(
            arrays["A"].gather().max_abs_diff(expect.get("A").unwrap()),
            0.0
        );
        let t = report.total();
        assert!(t.retransmits > 0, "recovery must retransmit: {t:?}");
        assert!(t.nacks_sent > 0);
        assert!(t.acks_sent > 0);
    }

    #[test]
    fn dropped_packet_reports_wire_coordinates() {
        // no retries: the error names (peer, slot, run)
        let n = 32;
        let (clause, env, dm) = copy_setup(
            n,
            Fn1::identity(),
            Fn1::identity(),
            Decomp1::block(4, Bounds::range(0, n - 1)),
            Decomp1::scatter(4, Bounds::range(0, n - 1)),
            0,
            n - 1,
        );
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        let mut arrays = scatter_arrays(&env, &dm);
        let opts = DistOptions {
            recv_timeout: Duration::from_millis(200),
            faults: Some(FaultPlan::drop_nth(1, 0)),
            retry: RetryPolicy::none(),
            ..DistOptions::default()
        };
        let err = run_distributed(&plan, &clause, &mut arrays, opts).unwrap_err();
        match err {
            MachineError::MissingPacket { peer, .. } => assert_eq!(peer, 1),
            e => panic!("expected MissingPacket, got {e}"),
        }
    }

    #[test]
    fn crashed_node_reported_not_aborted() {
        let n = 32;
        let (clause, env, dm) = copy_setup(
            n,
            Fn1::identity(),
            Fn1::identity(),
            Decomp1::block(4, Bounds::range(0, n - 1)),
            Decomp1::scatter(4, Bounds::range(0, n - 1)),
            0,
            n - 1,
        );
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        let mut arrays = scatter_arrays(&env, &dm);
        let before = arrays["A"].gather();
        let opts = DistOptions {
            recv_timeout: Duration::from_millis(500),
            faults: Some(FaultPlan::seeded(7).with_crash(2, 0)),
            retry: RetryPolicy::fast(),
            ..DistOptions::default()
        };
        let t0 = Instant::now();
        let err = run_distributed(&plan, &clause, &mut arrays, opts).unwrap_err();
        assert_eq!(err, MachineError::NodePanicked { node: 2 }, "{err}");
        // bounded detection, no hang
        assert!(t0.elapsed() < Duration::from_secs(10));
        // transactional: the failed run left the array untouched
        assert_eq!(arrays["A"].gather().max_abs_diff(&before), 0.0);
    }

    #[test]
    fn persistent_drop_exhausts_budget() {
        // drop *everything* node 1 sends (including retransmits): the
        // waiting peers must give up with a typed error, quickly
        let n = 32;
        let (clause, env, dm) = copy_setup(
            n,
            Fn1::identity(),
            Fn1::identity(),
            Decomp1::block(4, Bounds::range(0, n - 1)),
            Decomp1::scatter(4, Bounds::range(0, n - 1)),
            0,
            n - 1,
        );
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        let mut arrays = scatter_arrays(&env, &dm);
        let opts = DistOptions {
            recv_timeout: Duration::from_secs(2),
            faults: Some(FaultPlan::seeded(3).with_drop(1.0).with_from_only(1)),
            retry: RetryPolicy::fast(),
            ..DistOptions::default()
        };
        let t0 = Instant::now();
        let err = run_distributed(&plan, &clause, &mut arrays, opts).unwrap_err();
        match err {
            MachineError::Unrecoverable { peer, retries, .. } => {
                assert_eq!(peer, 1);
                assert!(retries > 0);
            }
            e => panic!("expected Unrecoverable, got {e}"),
        }
        assert!(t0.elapsed() < Duration::from_secs(15));
    }

    #[test]
    fn noisy_link_recovered() {
        // seeded drop+dup+reorder+corrupt+delay soup, still bit-exact
        let n = 64;
        let (clause, env, dm) = copy_setup(
            n,
            Fn1::identity(),
            Fn1::affine(3, 1),
            Decomp1::scatter(4, Bounds::range(0, n - 1)),
            Decomp1::scatter(4, Bounds::range(0, 3 * n)),
            0,
            n - 1,
        );
        let mut expect = env.clone();
        expect.exec_clause(&clause);
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        let mut arrays = scatter_arrays(&env, &dm);
        let opts = DistOptions {
            recv_timeout: Duration::from_secs(5),
            faults: Some(
                FaultPlan::seeded(11)
                    .with_drop(0.08)
                    .with_duplicate(0.08)
                    .with_reorder(0.08)
                    .with_corrupt(0.05)
                    .with_delay(0.08),
            ),
            retry: RetryPolicy::fast(),
            ..DistOptions::default()
        };
        run_distributed(&plan, &clause, &mut arrays, opts).unwrap();
        assert_eq!(
            arrays["A"].gather().max_abs_diff(expect.get("A").unwrap()),
            0.0
        );
    }

    #[test]
    fn sequential_clause_rejected() {
        let n = 16;
        let (mut clause, env, dm) = copy_setup(
            n,
            Fn1::identity(),
            Fn1::identity(),
            Decomp1::block(4, Bounds::range(0, n - 1)),
            Decomp1::block(4, Bounds::range(0, n - 1)),
            0,
            n - 1,
        );
        clause.ordering = Ordering::Seq;
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        let mut arrays = scatter_arrays(&env, &dm);
        assert_eq!(
            run_distributed(&plan, &clause, &mut arrays, DistOptions::default()).unwrap_err(),
            MachineError::SequentialClause
        );
    }
}
