//! Compiled (steady-state) schedules — Section 4's amortization made
//! explicit.
//!
//! The paper's run-time cost analysis assumes the closed-form
//! enumerators (`gen_p`, extended Euclid, `f^{-1}` probes) are paid
//! once and the resulting loop *templates* replayed for every timestep.
//! Our executor, however, re-walks [`Schedule::for_each`] on every run:
//! the repeated-block and repeated-scatter shapes call
//! `Fn1::preimage_range` per cycle or probe on *every* execution.
//!
//! [`CompiledSchedule`] materializes that enumeration output exactly
//! once, at plan time, into loop nests ([`Nest`]) — the same greedy
//! coalescing the communication planner applies to pair sets — plus
//! run-granular receive addressing: `Modify_p` is met with the plan's
//! receive runs ([`Nest::meet`]), so every [`ExecRun`] reads
//! each slot either from owner-local memory or from an affine window of
//! exactly one planned packet (a plan-time group of whole receive runs,
//! see [`crate::comm::packetise`]). Table size and compile cost follow
//! the number of runs, not of elements, and a warm execution iterates
//! plain strided loops with no closed-form re-derivation.
//!
//! The module also provides the plan-cache keys used by the machine's
//! session layer: a [`clause_signature`] and a [`decomp_fingerprint`]
//! (structural hashes, a word at a time — stable within a process,
//! which is all a session-lifetime cache needs).

use crate::comm::{CommRun, PairComm};
use crate::kernel::{CompiledKernel, FusedShape};
use crate::nest::{Nest, MAX_LEVELS};
use crate::program::{DecompMap, NodePlan, SpmdPlan};
use crate::schedule::Schedule;
use crate::simd::{self, SimdCensus, SimdPolicy};
use std::hash::{Hash, Hasher};
use vcal_core::func::Fn1;
use vcal_core::{Bounds, Clause, Guard};
use vcal_decomp::Decomp1;
use vcal_numth::{div_ceil, div_floor, gcd};

/// Greedily coalesce an index sequence into maximal equal-stride runs,
/// preserving the sequence order exactly (no sorting, no dedup — a
/// schedule's visit order is part of its semantics, and
/// `RepeatedScatter` visits in `t`-major order, not ascending).
pub(crate) fn coalesce_ordered(v: &[i64], out: &mut Vec<Nest>) {
    let (mut tiling, emit) = (Tiling::default(), &mut |run, _: &Sig| out.push(run));
    v.iter()
        .for_each(|&i| tiling.push(Nest::run(i, 1, 1), &[], emit));
    tiling.flush(emit);
}

fn flatten_into(s: &Schedule, out: &mut Vec<Nest>) {
    match s {
        Schedule::Empty => {}
        Schedule::Range { lo, hi } => {
            if lo <= hi {
                out.push(Nest::run(*lo, 1, hi - lo + 1));
            }
        }
        Schedule::Strided { start, step, count } => {
            if *count > 0 {
                out.push(Nest::run(*start, *step, *count));
            }
        }
        Schedule::Concat(parts) => {
            for p in parts {
                flatten_into(p, out);
            }
        }
        // the shapes that re-derive per visit: walk their stretches once
        // (a repeated scatter with affine `f`: one progression per
        // in-block offset, in the t-major visit order) and coalesce them
        // as `coalesce_ordered` would their elements
        other => {
            let (mut tiling, emit) = (Tiling::default(), &mut |run, _: &Sig| out.push(run));
            let runs = (matches!(other, Schedule::RepeatedScatter { .. }))
                .then(|| other.offset_runs())
                .flatten();
            match runs {
                Some(runs) => (runs.iter())
                    .for_each(|&(i, step, n)| tiling.push(Nest::run(i, step, n), &[], emit)),
                None => other.for_each_range(&mut |lo, hi| {
                    tiling.push(Nest::run(lo, 1, hi - lo + 1), &[], emit)
                }),
            }
            tiling.flush(emit);
        }
    }
}

/// Flatten a schedule into one-level nests whose concatenated visit
/// order is *identical* to [`Schedule::for_each`]. Arithmetic shapes
/// convert directly; the repeated/guarded shapes pay their enumeration
/// cost here, once, instead of on every execution.
pub fn flatten_schedule(s: &Schedule) -> Vec<Nest> {
    let mut out = Vec::new();
    flatten_into(s, &mut out);
    out
}

/// Where an operand's elements sit, along the loop nest that reads or
/// writes them: an address nest with the loop nest's counts and strides
/// of its own — the closed-form `local_of ∘ g ∘ gen_p` of the common
/// Table I outcome — or, when that composition is not affine along a
/// level-0 run, the first run's offsets as an explicit table that the
/// outer levels shift.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessPattern {
    /// The addresses (its level-0 stride is 0 where `table` is set).
    pub nest: Nest,
    /// The first run's offsets, one per element, when not affine.
    pub table: Option<Box<[i64]>>,
}

impl AccessPattern {
    /// The affine pattern `nest`.
    pub fn affine(nest: Nest) -> AccessPattern {
        AccessPattern { nest, table: None }
    }

    /// The offset of element `t` of the first level-0 run.
    #[inline]
    pub fn offset(&self, t: usize) -> i64 {
        match &self.table {
            None => self.nest.base + self.nest.stride(0) * t as i64,
            Some(offs) => offs.get(t).copied().unwrap_or(0),
        }
    }

    /// How far level-0 run `r` sits from the first.
    #[inline]
    pub fn shift(&self, r: u64) -> i64 {
        let [_, (c1, s1), (_, s2)] = self.nest.levels;
        match c1.max(1) as u64 {
            c1 if r < c1 => r as i64 * s1,
            c1 => (r % c1) as i64 * s1 + (r / c1) as i64 * s2,
        }
    }

    /// The offset of element `t` of level-0 run `r` — `offset(t) +
    /// shift(r)` in checked arithmetic: `None` where it overflows, or
    /// past the end of a table.
    #[inline]
    pub fn at(&self, r: u64, t: usize) -> Option<i64> {
        let [(_, s0), (c1, s1), (_, s2)] = self.nest.levels;
        let first = match &self.table {
            None => s0.checked_mul(t as i64)?.checked_add(self.nest.base)?,
            Some(offs) => *offs.get(t)?,
        };
        let c1 = c1.max(1) as u64;
        let (j1, j2) = if r < c1 { (r, 0) } else { (r % c1, r / c1) };
        let shift = s1
            .checked_mul(j1 as i64)?
            .checked_add(s2.checked_mul(j2 as i64)?)?;
        first.checked_add(shift)
    }

    /// Visit every offset in order.
    pub fn for_each(&self, mut visit: impl FnMut(i64)) {
        match &self.table {
            None => self.nest.for_each(visit),
            Some(offs) => self.nest.outer().for_each(|at| {
                offs.iter().for_each(|o| visit(o + at - self.nest.base));
            }),
        }
    }

    /// The smallest and the largest offset.
    pub fn hull(&self) -> (i64, i64) {
        let (lo, hi) = self.nest.hull();
        let Some(offs) = &self.table else {
            return (lo, hi);
        };
        let (min, max) = (offs.iter()).fold((i64::MAX, i64::MIN), |m, &o| (m.0.min(o), m.1.max(o)));
        (lo + min - self.nest.base, hi + max - self.nest.base)
    }

    /// Whether the pattern is unit-stride (`copy_from_slice` eligible).
    pub fn is_unit_stride(&self) -> bool {
        self.table.is_none() && self.nest.stride(0) == 1
    }

    /// One level of explicit offsets, compressed into an affine pattern
    /// when possible.
    pub(crate) fn compress(offs: Vec<i64>) -> AccessPattern {
        let (first, n) = (offs.first().copied().unwrap_or(0), offs.len() as i64);
        let step = offs.get(1).map_or(0, |o| o - first);
        if offs.windows(2).all(|w| w[1] - w[0] == step) {
            return AccessPattern::affine(Nest::run(first, step, n));
        }
        let table = Some(offs.into_boxed_slice());
        AccessPattern {
            nest: Nest::run(first, 0, n),
            table,
        }
    }
}

/// How one read slot is addressed across a whole [`ExecRun`]. Runs are
/// split at plan time so that every slot is homogeneous: all elements
/// owner-local, or all elements inside one planned packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotAccess {
    /// Every element of the run reads owner-local memory (always the
    /// case for interior runs and replicated slots); the pattern gives
    /// offsets into the local part.
    Local(AccessPattern),
    /// Every element of the run is carried by one planned packet:
    /// packet `pkt_ord` of the receive pair `src_ord`. The pattern gives
    /// offsets into that packet's values (the offset of the carrying
    /// receive run inside the packet is folded into its base).
    Packet {
        /// Ordinal of the source in the node's receive pair list.
        src_ord: usize,
        /// Packet ordinal within the pair — the packet tag.
        pkt_ord: usize,
        /// Affine window into the packet.
        pattern: AccessPattern,
    },
}

impl SlotAccess {
    /// The offsets of the run's elements, into the local part or into
    /// the packet.
    pub fn pattern(&self) -> &AccessPattern {
        match self {
            SlotAccess::Local(pattern) | SlotAccess::Packet { pattern, .. } => pattern,
        }
    }

    /// `(src_ord, pkt_ord)` of a packet slot.
    pub fn packet(&self) -> Option<(usize, usize)> {
        match self {
            SlotAccess::Local(_) => None,
            SlotAccess::Packet {
                src_ord, pkt_ord, ..
            } => Some((*src_ord, *pkt_ord)),
        }
    }
}

/// One compiled update-phase entry: a loop nest over `Modify_p` whose
/// elements all read every slot from the same place, with every address
/// the loops need resolved at plan time. The lhs and every slot share
/// the index nest's counts and differ in base and strides; all of a
/// packet slot's elements read one packet.
///
/// The indices are linearised loop indices
/// ([`CompiledSchedule::loop_box`]), and a level-0 run never leaves one
/// row of the loop box, so only the innermost loop coordinate varies
/// along it; in n dimensions a row is one more level.
///
/// *Interior* entries (`boundary == false`) read only owner-local memory —
/// provable from the Table I dispatch, because the plan's receive runs
/// (`Reside_q ∩ Modify_p` for `q ≠ p`) enumerate exactly the remote
/// reads. *Boundary* entries read at least one slot from a packet and
/// must wait for it to land.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecRun {
    /// The loop indices.
    pub index: Nest,
    /// Whether any element of the entry reads remote data.
    pub boundary: bool,
    /// Local offsets of the written elements `local_of(f(i))`.
    pub lhs: AccessPattern,
    /// Per read slot, the resolved addressing.
    pub slots: Vec<SlotAccess>,
    /// Number of remote-element consumptions (zero for interior entries).
    pub remote_elems: u64,
}

impl ExecRun {
    /// Elements over all levels.
    pub fn elems(&self) -> u64 {
        self.index.len()
    }

    /// Whether every rep reads each operand as one unit-stride window
    /// and writes one contiguous window (a one-element rep always does):
    /// a machine then hands the kernel a rep at a time, borrowed and
    /// written in place, instead of gathering chunks.
    pub fn is_dense(&self) -> bool {
        (self.lhs.is_unit_stride() || self.index.count(0) == 1)
            && self.slots.iter().all(|sa| sa.pattern().is_unit_stride())
    }

    /// Whether a run with this addressing is of this entry's class: the
    /// same level-0 shape of the indices and of every operand, each
    /// operand affine and, per slot, read from the same place.
    fn same_class(&self, run: &Nest, lhs: &AccessPattern, slots: &[SlotAccess]) -> bool {
        let same = |a: &AccessPattern, b: &AccessPattern| {
            b.table.is_none() && a.nest.levels[0] == b.nest.levels[0]
        };
        self.index.levels[0] == run.levels[0]
            && same(&self.lhs, lhs)
            && (self.slots.iter().zip(slots))
                .all(|(a, b)| a.packet() == b.packet() && same(a.pattern(), b.pattern()))
    }

    /// Take a run of this entry's class as one more position of its
    /// outer level, if the indices and every operand advance by that
    /// level's strides (the second run sets them). `grown` is scratch.
    fn absorb(
        &mut self,
        (run, lhs, slots): (&Nest, &AccessPattern, &[SlotAccess]),
        remote: u64,
        grown: &mut Vec<Nest>,
    ) -> bool {
        let grow = |n: &Nest, next: &Nest| {
            let mut n = *n;
            n.absorb(next, 1).then_some(n)
        };
        let (Some(index), Some(lhs)) = (grow(&self.index, run), grow(&self.lhs.nest, &lhs.nest))
        else {
            return false;
        };
        grown.clear();
        for (a, b) in self.slots.iter().zip(slots) {
            match grow(&a.pattern().nest, &b.pattern().nest) {
                Some(n) => grown.push(n),
                None => return false,
            }
        }
        (self.index, self.lhs.nest) = (index, lhs);
        for (sa, n) in self.slots.iter_mut().zip(grown.iter()) {
            match sa {
                SlotAccess::Local(p) | SlotAccess::Packet { pattern: p, .. } => p.nest = *n,
            }
        }
        self.remote_elems += remote;
        true
    }
}

/// One stretch of an outgoing packet's payload: the elements of read
/// slot `slot` at `pattern` in the sender's local part, in packing order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendSeg {
    /// The read slot whose array the elements come from.
    pub slot: usize,
    /// Local offsets of the elements.
    pub pattern: AccessPattern,
}

/// Everything one node sends to one peer: per packet — the same cut of
/// the same run list as the peer's receive side — where the values sit
/// in the sender's local parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendPair {
    /// The destination processor.
    pub peer: i64,
    /// Per packet, the segments that pack it. Runs that continue one
    /// affine progression share a segment.
    pub packets: Vec<Vec<SendSeg>>,
}

/// Interior/boundary census of a compiled schedule — printed by `vcalc`
/// next to the Table I dispatch census.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverlapCensus {
    /// Interior runs across all nodes.
    pub interior_runs: u64,
    /// Elements in interior runs.
    pub interior_elems: u64,
    /// Boundary runs across all nodes.
    pub boundary_runs: u64,
    /// Elements in boundary runs.
    pub boundary_elems: u64,
    /// Remote-element consumptions across all boundary runs.
    pub remote_elems: u64,
}

/// The steady-state tables of one processor: every enumeration the
/// executor would otherwise re-derive per run, materialized.
#[derive(Debug, Clone)]
pub struct CompiledNode {
    /// Processor id.
    pub p: i64,
    /// `Modify_p` as one-level nests, in schedule visit order.
    pub modify: Vec<Nest>,
    /// `Modify_p` iteration count (pre-sizes the write buffer).
    pub modify_iters: u64,
    /// `Modify_p` loop-overhead estimate (the `guard_tests` accounting
    /// the cold path charges via `Schedule::work_estimate`).
    pub modify_work: u64,
    /// source processor id → ordinal in the recv pair list
    /// (`usize::MAX` when the source sends nothing).
    pub src_ord: Vec<usize>,
    /// source ordinal → processor id (the NACK target).
    pub src_peers: Vec<i64>,
    /// source ordinal → number of planned incoming packets (the staging
    /// shape the receiver pre-sizes).
    pub staging_packets: Vec<usize>,
    /// Per outgoing pair, in ascending peer order: what is sent and
    /// where the packed elements sit in the local parts, so the send
    /// phase copies slices instead of re-evaluating `local(g(i))`.
    /// Empty when compiled without decompositions
    /// ([`CompiledSchedule::compile`]).
    pub sends: Vec<SendPair>,
    /// The interior/boundary execution split of `modify`, with fully
    /// resolved addressing. Empty when the plan was compiled without
    /// execution tables ([`CompiledSchedule::compile`]).
    pub exec: Vec<ExecRun>,
    /// The local offsets `exec` writes as sorted, disjoint, merged spans
    /// ([`write_spans`]). When `Some` they hold exactly `modify_iters`
    /// elements and the runs' execution order cannot change the result.
    /// Not built for a node that could not commit by them
    /// ([`CompiledNode::can_write_image`]).
    pub write_spans: Option<Vec<(usize, usize)>>,
}

impl CompiledNode {
    /// Whether this node's writes may commit as a next image of its
    /// `len`-element lhs part: they cover at least half of it. Half is
    /// where the two commits cost the host the same: an image makes it
    /// copy the elements the node did not write, staging the ones it did.
    pub fn can_write_image(&self, len: usize) -> bool {
        len > 0 && 2 * self.modify_iters >= len as u64
    }

    /// Rough resident size of this node's tables: a fixed charge per
    /// run plus the explicit offsets of every non-affine pattern. An
    /// estimate for cache budgets, not an allocator census.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let table = |p: &AccessPattern| p.table.as_ref().map_or(0, |t| t.len() * size_of::<i64>());
        let mut b = self.modify.len() * size_of::<Nest>();
        b += (self.src_ord.len() + self.src_peers.len() + self.staging_packets.len()) * 8;
        for pair in &self.sends {
            for segs in &pair.packets {
                b += size_of::<Vec<SendSeg>>() + segs.len() * size_of::<SendSeg>();
                b += segs.iter().map(|s| table(&s.pattern)).sum::<usize>();
            }
        }
        for er in &self.exec {
            b += size_of::<ExecRun>() + er.slots.len() * size_of::<SlotAccess>() + table(&er.lhs);
            b += er.slots.iter().map(|sa| table(sa.pattern())).sum::<usize>();
        }
        b += (self.write_spans.as_ref()).map_or(0, |s| s.len() * size_of::<(usize, usize)>());
        b
    }

    /// Interior/boundary census of this node's exec table: entries, and
    /// their elements.
    pub fn census(&self) -> OverlapCensus {
        let mut c = OverlapCensus::default();
        for er in &self.exec {
            if er.boundary {
                c.boundary_runs += 1;
                c.boundary_elems += er.elems();
                c.remote_elems += er.remote_elems;
            } else {
                c.interior_runs += 1;
                c.interior_elems += er.elems();
            }
        }
        c
    }
}

/// A whole plan's enumeration output, materialized for repeated
/// execution. Built once per `(clause, decompositions)`; shared
/// read-only by every warm run.
#[derive(Debug, Clone)]
pub struct CompiledSchedule {
    /// The loop box. A run index is the point's row-major offset in the
    /// box plus the innermost lower bound: along a row it advances with
    /// the innermost loop coordinate, and in one dimension it is the
    /// loop index itself.
    pub loop_box: Bounds,
    /// Read slot → the array it reads.
    pub slot_arrays: Vec<String>,
    /// Per-processor tables, indexed by processor id.
    pub nodes: Vec<CompiledNode>,
    /// The clause expression compiled to bytecode + fused shape, shared
    /// by every node (`None` when compiled without execution tables or
    /// when a reference failed to resolve).
    pub kernel: Option<CompiledKernel>,
    /// Whether the source clause carries a data-dependent guard. A
    /// guarded clause runs the bytecode, its guard tested into a chunk
    /// mask, so the SIMD census classifies all its runs as fallback.
    pub guarded: bool,
}

impl CompiledSchedule {
    /// Materialize every node's Table I enumeration output and receive
    /// staging shape from `plan`.
    pub fn compile(plan: &SpmdPlan) -> CompiledSchedule {
        let pmax = plan.pmax.max(0) as usize;
        let nodes = plan
            .nodes
            .iter()
            .map(|node| {
                let modify = flatten_schedule(&node.modify.schedule);
                let modify_iters = modify.iter().map(Nest::len).sum();
                let mut src_ord = vec![usize::MAX; pmax];
                let mut src_peers = Vec::with_capacity(node.comm.recvs.len());
                let mut staging_packets = Vec::with_capacity(node.comm.recvs.len());
                for (ord, pc) in node.comm.recvs.iter().enumerate() {
                    if let Some(slot) = src_ord.get_mut(pc.peer as usize) {
                        *slot = ord;
                    }
                    src_peers.push(pc.peer);
                    staging_packets.push(pc.packets().len());
                }
                CompiledNode {
                    p: node.p,
                    modify,
                    modify_iters,
                    modify_work: node.modify.schedule.work_estimate(),
                    src_ord,
                    src_peers,
                    staging_packets,
                    sends: Vec::new(),
                    exec: Vec::new(),
                    write_spans: None,
                }
            })
            .collect();
        let slot_arrays = plan.nodes.first().map_or_else(Vec::new, |n| {
            n.resides.iter().map(|rp| rp.array.clone()).collect()
        });
        CompiledSchedule {
            loop_box: Bounds::range(plan.loop_bounds.0, plan.loop_bounds.1),
            slot_arrays,
            nodes,
            kernel: None,
            guarded: false,
        }
    }

    /// Like [`CompiledSchedule::compile`], but additionally resolve where
    /// every outgoing run is packed from, compile the clause kernel, and
    /// split every node's `Modify_p` into interior and boundary
    /// [`ExecRun`]s with plan-time-resolved addressing.
    ///
    /// The split meets the flattened runs with the receive runs, whatever
    /// produced them: a naive-guard schedule is enumerated once by
    /// [`flatten_schedule`] and tiled like a closed-form one.
    pub fn compile_exec(plan: &SpmdPlan, clause: &Clause, decomps: &DecompMap) -> CompiledSchedule {
        let mut cs = Self::compile(plan);
        cs.guarded = !matches!(clause.guard, Guard::Always);
        let Some(node0) = plan.nodes.first() else {
            return cs;
        };
        // every table below addresses local parts: needs the layouts
        let Some(dec_lhs) = decomps.get(&plan.lhs_array) else {
            return cs;
        };
        let Some(dec_reads) = node0
            .resides
            .iter()
            .map(|rp| decomps.get(&rp.array))
            .collect::<Option<Vec<&Decomp1>>>()
        else {
            return cs;
        };
        for (node, cn) in plan.nodes.iter().zip(&mut cs.nodes) {
            let at = |slot: usize, idx: &Nest| {
                local_pattern(idx, &node.resides[slot].g, dec_reads[slot])
            };
            cn.sends = node
                .comm
                .sends
                .iter()
                .map(|pair| send_pair(pair, at))
                .collect();
        }
        let resolve = |r: &vcal_core::ArrayRef| {
            let g = r.map.as_fn1()?;
            node0
                .resides
                .iter()
                .position(|rp| rp.array == r.array && rp.g == *g)
        };
        let Some(kernel) = CompiledKernel::compile(&clause.rhs, node0.resides.len(), resolve)
        else {
            return cs;
        };
        let injective = is_injective(&plan.f);
        for (node, cn) in plan.nodes.iter().zip(&mut cs.nodes) {
            cn.exec = build_exec(node, &cn.modify, &plan.f, dec_lhs, &dec_reads);
            if cn.can_write_image(dec_lhs.local_count(node.p) as usize) {
                cn.write_spans = write_spans(&cn.exec, injective);
            }
        }
        cs.kernel = Some(kernel);
        cs
    }

    /// Whether the execution tables (kernel + interior/boundary split)
    /// were built.
    pub fn has_exec(&self) -> bool {
        self.kernel.is_some()
    }

    /// Interior/boundary census summed over all nodes.
    pub fn overlap_census(&self) -> OverlapCensus {
        let mut total = OverlapCensus::default();
        for n in &self.nodes {
            let c = n.census();
            total.interior_runs += c.interior_runs;
            total.interior_elems += c.interior_elems;
            total.boundary_runs += c.boundary_runs;
            total.boundary_elems += c.boundary_elems;
            total.remote_elems += c.remote_elems;
        }
        total
    }

    /// Total iterations across all nodes (sanity/report helper).
    pub fn total_iters(&self) -> u64 {
        self.nodes.iter().map(|n| n.modify_iters).sum()
    }

    /// Whether entry `er` runs a fused shape's lane map once per rep: a
    /// nonempty [dense](ExecRun::is_dense) entry of an unguarded clause
    /// whose kernel has a fused shape. A fused entry that is not dense runs
    /// its lane map over gathered chunks, which the census counts with the
    /// bytecode. The one predicate the plan-time census and the machines'
    /// runtime census share, so the two never disagree.
    pub fn runs_fused(&self, er: &ExecRun) -> bool {
        let fused = (self.kernel.as_ref()).is_some_and(|k| k.fused != FusedShape::Generic);
        fused && !self.guarded && !er.index.is_empty() && er.is_dense()
    }

    /// Plan-time SIMD census, summed over all nodes: how many exec entries
    /// run a lane map ([`CompiledSchedule::runs_fused`]) and how their
    /// elements split, rep by rep, into full lanes vs remainder tails.
    /// It predicts the runtime census exactly (`vcalc --trace` prints
    /// both side by side).
    pub fn fused_census(&self) -> SimdCensus {
        let mut c = SimdCensus {
            lanes: simd::lanes() as u64,
            ..Default::default()
        };
        for er in self.nodes.iter().flat_map(|node| &node.exec) {
            if self.runs_fused(er) {
                c.add_vector_run(er.index.count(0) as u64, er.index.reps());
            } else {
                c.fallback_runs += 1;
            }
        }
        c
    }

    /// [`CompiledSchedule::fused_census`] under the name the measurement
    /// spine calls; the policy is not read ([`SimdPolicy`]).
    pub fn simd_census(&self, _policy: SimdPolicy) -> SimdCensus {
        self.fused_census()
    }
}

/// The local offsets `local(h(i))` along every level of `idx`, or `None`
/// when an outer level does not shift them by one constant over the
/// nest's hull ([`Decomp1::local_shift`]). Along level 0 they are in
/// closed form when `h` is affine and the layout makes the composition
/// affine over a run — it stays inside one block, or strides whole
/// scatter cycles — which is every run Table I produces for the block
/// and scatter families; anything else is enumerated once and compressed.
pub(crate) fn local_pattern(idx: &Nest, h: &Fn1, dec: &Decomp1) -> Option<AccessPattern> {
    let affine = match *h {
        Fn1::Const(c) => Some((0, c)),
        Fn1::Affine { a, c } => Some((a, c)),
        _ => None,
    };
    // per outer level, the local-offset shift (none for a one-level nest)
    let mut shifts = [0; MAX_LEVELS];
    let outer = 1..idx.depth().max(1);
    for (l, shift) in shifts.iter_mut().enumerate().take(outer.end).skip(1) {
        *shift = match (affine, idx.levels[l]) {
            (_, (1, _)) | (Some((0, _)), _) => 0,
            (Some((a, c)), (_, stride)) => {
                let (lo, hi) = idx.hull();
                let (x0, x1) = (a * lo + c, a * hi + c);
                dec.local_shift(x0.min(x1), x0.max(x1), a * stride)?
            }
            (None, _) => return None,
        };
    }
    let (count, step) = idx.levels[0];
    let mut pattern = match affine {
        Some((0, c)) => AccessPattern::affine(Nest::run(dec.local_of(c), 0, count)),
        Some((a, c)) if count > 2 => {
            let (x0, sx) = (a * idx.base + c, a * step);
            let xl = x0 + sx * (count - 1);
            match dec.local_shift(x0.min(xl), x0.max(xl), sx) {
                Some(s) => AccessPattern::affine(Nest::run(dec.local_of(x0), s, count)),
                None => tabulate(idx, h, dec),
            }
        }
        _ => tabulate(idx, h, dec),
    };
    for l in outer {
        pattern.nest.levels[l] = (idx.levels[l].0, shifts[l]);
    }
    Some(pattern)
}

/// The local offsets `local(h(i))` of `idx`'s first level-0 run, one by one.
fn tabulate(idx: &Nest, h: &Fn1, dec: &Decomp1) -> AccessPattern {
    let mut offs = Vec::with_capacity(idx.count(0).max(0) as usize);
    idx.rep(0).for_each(|i| offs.push(dec.local_of(h.eval(i))));
    AccessPattern::compress(offs)
}

/// Where the sender finds the elements of each packet it packs for
/// `pair`, given the local offsets `at(slot, idx)` along a run's index
/// nest: one segment per run, per rep where its reps do not advance by a
/// constant, with levels that continue their inner one merged, and a
/// one-level segment that continues its predecessor's affine progression
/// in the same slot absorbed into it (a block-scatter source packs a
/// whole packet with one slice copy).
pub(crate) fn send_pair(
    pair: &PairComm,
    mut at: impl FnMut(usize, &Nest) -> Option<AccessPattern>,
) -> SendPair {
    let mut segs_of = |runs: &[CommRun]| {
        let mut segs: Vec<SendSeg> = Vec::new();
        let mut push = |slot: usize, mut pattern: AccessPattern| {
            if pattern.table.is_some() {
                return segs.push(SendSeg { slot, pattern });
            }
            pattern.nest = pattern.nest.merged();
            let last = (segs.last_mut()).filter(|last| {
                (last.slot, last.pattern.table.is_none()) == (slot, true)
                    && last.pattern.nest.depth() <= 1
            });
            if !last.is_some_and(|last| last.pattern.nest.absorb(&pattern.nest, 0)) {
                segs.push(SendSeg { slot, pattern });
            }
        };
        for r in runs {
            match at(r.slot, &r.nest) {
                Some(pattern) => push(r.slot, pattern),
                None => (0..r.nest.reps()).for_each(|k| {
                    let one = at(r.slot, &r.nest.rep(k)).expect("a one-level nest has no shift");
                    push(r.slot, one)
                }),
            }
        }
        segs
    };
    SendPair {
        peer: pair.peer,
        packets: pair.packets().map(&mut segs_of).collect(),
    }
}

/// Per read slot, the node's receive nests as `(largest hull end up to
/// here, nest, (source ordinal, run ordinal))`, sorted by base: the
/// nests a range of loop indices meets lie between two binary searches.
pub(crate) type Receives = Vec<Vec<(i64, Nest, (usize, usize))>>;

/// The receive nests `(slot, nest, origin)`, per slot.
pub(crate) fn receives(
    n_slots: usize,
    nests: impl IntoIterator<Item = (usize, Nest, (usize, usize))>,
) -> Receives {
    let mut by_slot: Receives = vec![Vec::new(); n_slots];
    for (slot, nest, origin) in nests {
        if let Some(nests) = by_slot.get_mut(slot).filter(|_| !nest.is_empty()) {
            nests.push((0, nest, origin));
        }
    }
    for nests in &mut by_slot {
        nests.sort_by_key(|r| r.1.base);
        let mut top = i64::MIN;
        for r in nests {
            top = top.max(r.1.hull().1);
            r.0 = top;
        }
    }
    by_slot
}

/// A meet of a modify run with a receive nest: `(slot, origin of its
/// first rep, reps per level-1 position, positions)` ([`Nest::meet`]).
type Meet = (usize, Origin, u64, Nest);

/// Every meet of the one-level modify nest `m` with a receive nest.
fn meets(recvs: &Receives, m: &Nest, out: &mut Vec<Meet>) {
    out.clear();
    let (lo, hi) = m.hull();
    for (slot, nests) in recvs.iter().enumerate() {
        let end = nests.partition_point(|r| r.1.base <= hi);
        let begin = nests[..end].partition_point(|r| r.0 < lo);
        for &(_, r, (src, run)) in &nests[begin..end] {
            m.meet(&r, |k, p, at| out.push((slot, (src, run, k), p, at)));
        }
    }
}

/// Cut the one-level modify nest `m` wherever the receive rep some slot
/// reads changes, and hand each maximal piece and its signature to
/// `emit`, in visit order. A rep whose meet is contiguous covers one
/// stretch of positions; an interleaving one covers single positions.
pub(crate) fn pieces(recvs: &Receives, m: &Nest, emit: &mut impl FnMut(Nest, &Sig)) {
    let mut met = Vec::new();
    meets(recvs, m, &mut met);
    // (first position, last position, slot, origin), by first position
    let mut spans = Vec::new();
    for &(slot, (src, run, k), p, at) in &met {
        for j in 0..at.reps() {
            let (rep, origin) = (at.rep(j), (src, run, k + j * p));
            match rep.count(0) == 1 || rep.stride(0) == 1 {
                true => spans.push((rep.base, rep.base + rep.count(0) - 1, slot, origin)),
                false => rep.for_each(|t| spans.push((t, t, slot, origin))),
            }
        }
    }
    spans.sort_unstable_by_key(|s| (s.0, s.2));
    let (mut sig, mut last): (Sig, Vec<i64>) = (vec![None; recvs.len()], vec![0; recvs.len()]);
    let ([(count, step), ..], mut t, mut next) = (m.levels, 0, 0);
    while t < count {
        for (origin, &last) in sig.iter_mut().zip(&last) {
            if last < t {
                *origin = None;
            }
        }
        while let Some(&(_, t1, slot, origin)) = spans.get(next).filter(|s| s.0 <= t) {
            (sig[slot], last[slot]) = (Some(origin), t1);
            next += 1;
        }
        let mut end = spans.get(next).map_or(count, |s| s.0);
        for (origin, &last) in sig.iter().zip(&last) {
            if origin.is_some() {
                end = end.min(last + 1);
            }
        }
        emit(Nest::run(m.base + step * t, step, end - t), &sig);
        t = end;
    }
}

/// The stretches of a modify run over which its meets repeat one period,
/// as `(first position, periods, period)`, by first position. A period is
/// the step of a meet with four or more instances — its reps or, within
/// one rep, the positions of an interleaving meet — and its stretches
/// start and end where one of them starts, so the pieces are cut there
/// anyway. Period `w` repeats period `w − 1`, the same pieces `period`
/// positions on, unless some meet starts or stops in either: a meet that
/// steps by the period has its first instance or the one past its last
/// in `w`, or any other meet has positions in `w` or `w − 1`.
fn periods(met: &[Meet], out: &mut Vec<(i64, i64, i64)>) {
    out.clear();
    // per meet: (step, instances, extent of one instance, positions)
    let views = met.iter().map(|(.., at)| match at.levels {
        [_, (reps, step), _] if reps > 1 => (step, reps, at.rep(0).hull().1 - at.base, at),
        [(count, step), ..] if count > 1 && step > 1 => (step, count, 0, at),
        _ => (0, 1, 0, at),
    });
    let mut unsteady: Vec<(i64, i64)> = Vec::new();
    for (d, n, _, anchor) in views.clone().filter(|v| v.0 > 0 && v.1 >= 4) {
        let window = |x: i64| div_floor(x - anchor.base, d);
        unsteady.clear();
        for (step, count, ext, at) in views.clone() {
            let (first, past) = (at.base, at.base + count * d);
            match step == d {
                true => unsteady.extend([
                    (window(first), window(first + ext)),
                    (window(past), window(past + ext)),
                ]),
                false => unsteady.push((window(at.hull().0), window(at.hull().1) + 1)),
            }
        }
        unsteady.sort_unstable();
        // the steady periods run from `w` up to the next unsteady one, or
        // up to the anchor's last instance
        let mut w = 1;
        for &(lo, hi) in unsteady.iter().chain([&(n - 1, n - 1)]) {
            let end = lo.min(n - 1);
            if end - w >= 2 {
                out.push((anchor.base + (w - 1) * d, end - w + 1, d));
            }
            w = w.max(hi + 1);
        }
    }
    out.sort_unstable();
}

/// `(source ordinal, run ordinal, rep)` of one rep of a receive run.
pub(crate) type Origin = (usize, usize, u64);

/// Per slot, the receive rep a piece reads (`None` = owner-local). Keyed
/// by rep, not by packet, so pieces are never glued across a rep
/// boundary inside one packet.
pub(crate) type Sig = Vec<Option<Origin>>;

/// Glue pieces with equal signatures back into maximal strided runs,
/// exactly as a greedy element-at-a-time coalescing of the visit
/// sequence would (two elements always form a run; a third joins only
/// if it continues the stride), so the tiling does not depend on how
/// the schedule happened to be cut into modify runs. Finished runs go
/// to `emit` with their signature.
#[derive(Default)]
pub(crate) struct Tiling {
    /// The open run, not yet emitted.
    pub(crate) cur: Option<Nest>,
    sig: Sig,
}

impl Tiling {
    pub(crate) fn push(
        &mut self,
        piece: Nest,
        sig: &[Option<Origin>],
        emit: &mut impl FnMut(Nest, &Sig),
    ) {
        let (count, step) = piece.levels[0];
        // the piece's first element ...
        let head = Nest::run(piece.base, 1, 1);
        let glued = self.sig == sig && (self.cur.as_mut()).is_some_and(|run| run.absorb(&head, 0));
        if !glued {
            let piece = Nest::run(piece.base, if count > 1 { step } else { 1 }, count);
            return self.restart(piece, sig, emit);
        }
        // ... and the rest of it
        let rest = Nest::run(
            piece.base + step,
            if count > 2 { step } else { 1 },
            count - 1,
        );
        if count > 1 && !(self.cur.as_mut()).is_some_and(|run| run.absorb(&rest, 0)) {
            self.restart(rest, sig, emit);
        }
    }

    fn restart(&mut self, run: Nest, sig: &[Option<Origin>], emit: &mut impl FnMut(Nest, &Sig)) {
        self.flush(emit);
        self.cur = Some(run);
        self.sig.clear();
        self.sig.extend_from_slice(sig);
    }

    pub(crate) fn flush(&mut self, emit: &mut impl FnMut(Nest, &Sig)) {
        if let Some(run) = self.cur.take() {
            emit(run, &self.sig);
        }
    }
}

/// Whether `f` writes every element at most once, so that the order
/// the loop visits its iterations in cannot show in the result.
fn is_injective(f: &Fn1) -> bool {
    matches!(f, Fn1::Affine { a, .. } if *a != 0)
}

/// Most entries a [`Fold`] keeps open at once.
const OPEN_CAP: usize = 64;

/// Fold resolved runs, as they stream in, into two-level [`ExecRun`]s.
/// A run joins an open entry of its class ([`ExecRun::same_class`]) when
/// its indices and every address advance by that entry's outer strides
/// ([`ExecRun::absorb`]). With `reorder` (an injective `f`) any open
/// entry may take it; without, only the newest may, so the entries
/// expand to the visit order.
#[derive(Default)]
pub(crate) struct Fold {
    pub(crate) entries: Vec<ExecRun>,
    /// Entries that may still grow, least recently grown first.
    open: Vec<usize>,
    reorder: bool,
    /// Scratch for [`ExecRun::absorb`].
    grown: Vec<Nest>,
}

impl Fold {
    /// Fold in a run; returns the entry it went to and whether that
    /// entry grew (rather than being created).
    pub(crate) fn push(
        &mut self,
        run: Nest,
        lhs: AccessPattern,
        slots: &[SlotAccess],
        remote: u64,
    ) -> (usize, bool) {
        let entries = &mut self.entries;
        let class = (self.open.iter()).rposition(|&e| entries[e].same_class(&run, &lhs, slots));
        if let Some(e) = class.map(|j| self.open.remove(j)) {
            if entries[e].absorb((&run, &lhs, slots), remote, &mut self.grown) {
                self.open.push(e);
                return (e, true);
            }
        }
        if !self.reorder {
            self.open.clear();
        }
        if lhs.table.is_none() && slots.iter().all(|sa| sa.pattern().table.is_none()) {
            if self.open.len() == OPEN_CAP {
                self.open.remove(0);
            }
            self.open.push(entries.len());
        }
        entries.push(ExecRun {
            index: run,
            boundary: remote > 0,
            lhs,
            slots: slots.to_vec(),
            remote_elems: remote,
        });
        (entries.len() - 1, false)
    }
}

/// Split one node's modify runs so that every [`ExecRun`] reads each
/// slot from one place, resolve every address, and fold the runs into
/// two-level entries ([`Fold`]).
///
/// Each modify run is met with the plan's receive nests (`Reside_q ∩
/// Modify_p`, `q ≠ p` — exactly the reads the plan routes over the
/// wire): no per-element table is built and no `proc_of` is evaluated.
/// When `f` is injective, a run that every receive nest meets only every
/// `d`-th position goes by residue class (stride `d·step`), each meeting
/// every receive nest in one stretch. Where the meets repeat with a
/// period ([`periods`]), one period is cut and tiled and the fold takes
/// it for every period at once ([`Resolver::push_periods`]). The entries
/// tile `Modify_p`; in visit order unless `f` is injective.
fn build_exec(
    node: &NodePlan,
    modify: &[Nest],
    f: &Fn1,
    dec_lhs: &Decomp1,
    dec_reads: &[&Decomp1],
) -> Vec<ExecRun> {
    let recvs = (node.comm.recvs.iter().enumerate()).flat_map(|(src, pc)| {
        (pc.runs.iter().enumerate()).map(move |(run, r)| (r.slot, r.nest, (src, run)))
    });
    let recvs = receives(node.resides.len(), recvs);
    let reorder = is_injective(f);
    let mut rs = Resolver {
        node,
        // per source, per receive run: its packet and its offset inside it
        places: (node.comm.recvs.iter()).map(PairComm::run_places).collect(),
        f,
        dec_lhs,
        dec_reads,
        fold: Fold {
            reorder,
            ..Fold::default()
        },
        slots: Vec::new(),
    };
    let (mut tiling, mut met, mut stretches) = Default::default();
    let mut period: Vec<(Nest, Sig)> = Vec::new();
    let tile = |tiling: &mut Tiling, run: &Nest, mut sink: &mut dyn FnMut(Nest, &Sig)| {
        pieces(&recvs, run, &mut |run, sig| {
            tiling.push(run, sig, &mut sink)
        })
    };
    for m in modify {
        meets(&recvs, m, &mut met);
        let [(count, step), ..] = m.levels;
        let d = (met.iter().map(|(.., at)| at).filter(|at| at.count(0) > 1))
            .try_fold(1i64, |d, at| {
                let period = at.stride(0);
                let lcm = (d / gcd(d, period)).checked_mul(period);
                lcm.filter(|&l| period > 1 && l < count)
            })
            .filter(|_| reorder)
            .unwrap_or(1);
        for r in 0..d {
            let class = Nest::run(m.base + step * r, step * d, (count - r + d - 1) / d);
            let sub = |t0: i64, t1: i64| Nest::run(class.base + step * d * t0, step * d, t1 - t0);
            if d > 1 {
                meets(&recvs, &class, &mut met);
            }
            periods(&met, &mut stretches);
            let mut t = 0;
            for &(first, reps, len) in &stretches {
                // a stretch that starts inside the last one loses its head
                let skip = div_ceil(t - first, len).max(0);
                let (first, reps) = (first + skip * len, reps - skip);
                if reps < 3 {
                    continue;
                }
                let mut fold = |run, sig: &Sig| _ = rs.push(run, sig);
                tile(&mut tiling, &sub(t, first), &mut fold);
                tiling.flush(&mut fold);
                let mut keep = |run, sig: &Sig| period.push((run, sig.clone()));
                tile(&mut tiling, &sub(first, first + len), &mut keep);
                tiling.flush(&mut keep);
                rs.push_periods(&period, reps, len * step * d);
                period.clear();
                t = first + reps * len;
            }
            let tail = sub(t, class.count(0));
            tile(&mut tiling, &tail, &mut |run, sig| _ = rs.push(run, sig));
        }
    }
    tiling.flush(&mut |run, sig| _ = rs.push(run, sig));
    rs.fold.entries
}

/// Resolves the addresses of tiled runs and folds them ([`build_exec`]).
struct Resolver<'a> {
    node: &'a NodePlan,
    places: Vec<Vec<(usize, u64)>>,
    f: &'a Fn1,
    dec_lhs: &'a Decomp1,
    dec_reads: &'a [&'a Decomp1],
    fold: Fold,
    slots: Vec<SlotAccess>,
}

impl Resolver<'_> {
    /// Resolve `run` — one level, or a run repeated at level 1 — reading
    /// each slot where `sig` says, and fold it; `None`, and nothing
    /// folded, when an address does not advance by one constant per rep.
    fn push(&mut self, run: Nest, sig: &[Option<Origin>]) -> Option<(usize, bool)> {
        let (node, mut remote) = (self.node, 0u64);
        self.slots.clear();
        for (slot, origin) in sig.iter().enumerate() {
            let Some((src_ord, run_ord, _)) = *origin else {
                let local = local_pattern(&run, &node.resides[slot].g, self.dec_reads[slot])?;
                self.slots.push(SlotAccess::Local(local));
                continue;
            };
            remote += run.len();
            let r = &node.comm.recvs[src_ord].runs[run_ord].nest;
            let (pkt_ord, run_off) = self.places[src_ord][run_ord];
            let [(count, step), (reps, shift), _] = run.levels;
            let rstep = r.stride(0).max(1);
            // where loop index i sits in the packet: reps are packed rep-major
            let at = |i: i64| {
                let k = div_floor(i - r.base, r.stride(1).max(1)).min(r.count(1) - 1);
                run_off as i64 + k * r.count(0) + (i - r.base - k * r.stride(1)) / rstep
            };
            let mut nest = Nest::run(
                at(run.base),
                if count > 1 { step / rstep } else { 0 },
                count,
            );
            if reps > 1 {
                nest.levels[1] = (reps, at(run.base + shift) - at(run.base));
            }
            let pattern = AccessPattern::affine(nest);
            self.slots.push(SlotAccess::Packet {
                src_ord,
                pkt_ord,
                pattern,
            });
        }
        let lhs = local_pattern(&run, self.f, self.dec_lhs)?;
        Some(self.fold.push(run, lhs, &self.slots, remote))
    }

    /// Fold `reps` periods of the tiled runs `runs`, each `shift` loop
    /// indices after the one before: period by period until one grows
    /// exactly the entries the one before it grew, one each — from there
    /// the fold repeats, its open list in the same order every period —
    /// and then the rest of each run as one two-level run, which joins
    /// its entry. That is the state a period-by-period fold reaches.
    fn push_periods(&mut self, runs: &[(Nest, Sig)], reps: i64, shift: i64) {
        let mut grown: Vec<(usize, bool)> = Vec::new();
        for w in 0..reps {
            let at = |run: &Nest, w: i64| Nest {
                base: run.base + w * shift,
                ..*run
            };
            let rest = |run: &Nest| {
                let mut rest = at(run, w + 1);
                rest.levels[1] = (reps - w - 1, shift);
                rest
            };
            let now: Vec<(usize, bool)> = (runs.iter())
                .map(|(run, sig)| self.push(at(run, w), sig).expect("one level"))
                .collect();
            let mut entries: Vec<usize> = grown.iter().map(|g| g.0).collect();
            entries.sort_unstable();
            entries.dedup();
            let steady = entries.len() == runs.len()
                && now.iter().zip(&grown).all(|(n, g)| *n == (g.0, true));
            grown = now;
            let affine = |(run, sig): &(Nest, Sig)| self.resolves(&rest(run), sig);
            if steady && w + 1 < reps && runs.iter().all(affine) {
                for (run, sig) in runs {
                    self.push(rest(run), sig);
                }
                return;
            }
        }
    }

    /// Whether `run` resolves with affine addresses ([`Resolver::push`]).
    fn resolves(&self, run: &Nest, sig: &[Option<Origin>]) -> bool {
        let affine =
            |g: &Fn1, dec: &Decomp1| local_pattern(run, g, dec).is_some_and(|p| p.table.is_none());
        affine(self.f, self.dec_lhs)
            && (sig.iter().enumerate())
                .all(|(s, o)| o.is_some() || affine(&self.node.resides[s].g, self.dec_reads[s]))
    }
}

/// The local offsets a node's exec entries write, as sorted, disjoint
/// half-open spans with adjacent ones merged. With an injective `f` no
/// offset is written twice, so overlapping entry hulls that hold as many
/// writes as offsets are one span — a node that fills its part has one
/// span, however many entries — and only where that closed form leaves
/// holes are strided runs taken element by element. Otherwise the spans
/// are `None` when some level-0 run is not contiguous (a one-element run
/// is, whatever step its compressed pattern records) or two runs overlap.
pub(crate) fn write_spans(exec: &[ExecRun], injective: bool) -> Option<Vec<(usize, usize)>> {
    let entries = exec.iter().filter(|er| er.elems() > 0);
    if injective {
        let hulls = entries.clone().map(|er| {
            let (lo, hi) = er.lhs.hull();
            (lo, hi, er.elems())
        });
        if let Some(spans) = cover(hulls.collect(), true) {
            return Some(spans);
        }
    }
    let mut stretches = Vec::new();
    for er in entries {
        let n = er.index.count(0) as usize;
        let contiguous = n == 1 || (er.lhs.table.is_none() && er.lhs.nest.stride(0).abs() == 1);
        let (a, b) = (er.lhs.offset(0), er.lhs.offset(n - 1));
        for r in 0..er.index.reps() {
            let shift = er.lhs.shift(r);
            if contiguous {
                stretches.push((a.min(b) + shift, a.max(b) + shift, n as u64));
            } else if injective {
                let at = (0..n).map(|t| er.lhs.offset(t) + shift);
                stretches.extend(at.map(|o| (o, o, 1)));
            } else {
                return None;
            }
        }
    }
    cover(stretches, injective)
}

/// Merge written stretches `(lo, hi, count)` into spans: `None` when a
/// merged span holds fewer writes than offsets or, unless the stretches
/// are `disjoint`, when two overlap.
fn cover(mut hulls: Vec<(i64, i64, u64)>, disjoint: bool) -> Option<Vec<(usize, usize)>> {
    hulls.sort_unstable_by_key(|h| h.0);
    let mut spans: Vec<(i64, i64, u64)> = Vec::new();
    for (lo, hi, count) in hulls {
        match spans.last_mut() {
            Some(last) if lo <= last.1 && !disjoint => return None,
            Some(last) if lo <= last.1 + 1 => {
                last.1 = last.1.max(hi);
                last.2 += count;
            }
            _ => spans.push((lo, hi, count)),
        }
    }
    (spans.into_iter())
        .map(|(lo, hi, count)| {
            let full = count == (hi - lo + 1) as u64;
            Some((usize::try_from(lo).ok()?, hi as usize + 1)).filter(|_| full)
        })
        .collect()
}

/// The word stream behind every cache key: a [`Hasher`] that hands each
/// word of a structural [`Hash`] to its sink, in order. [`key_of`] folds
/// the words into a key; [`plan_words`] keeps them.
struct Words<F: FnMut(u64)>(F);

impl<F: FnMut(u64)> Hasher for Words<F> {
    fn write_u64(&mut self, w: u64) {
        (self.0)(w)
    }

    /// Bytes (a name, a slice of integers): their length, then the
    /// bytes eight to a word, the last word zero-padded.
    fn write(&mut self, bytes: &[u8]) {
        self.write_usize(bytes.len());
        for chunk in bytes.chunks(8) {
            let mut w = [0; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(w));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(i.into());
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    /// Unused: the sink holds what the words make.
    fn finish(&self) -> u64 {
        0
    }
}

/// The key of no words.
const KEY_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold word `w` into key `s`: an xor-multiply-xorshift, a bijection of
/// the key for a fixed word and of the word for a fixed key. So two
/// inputs of one shape that differ in a single word never collide; but
/// the last round inverts in its word, and whoever chooses a clause's
/// last literal can give it another clause's key. Keys are the same on
/// every run and never leave the process.
fn round(s: u64, w: u64) -> u64 {
    let h = (s ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^ (h >> 32)
}

/// The cache key of `x`: its structural [`Hash`], folded word by word.
pub(crate) fn key_of(x: &(impl Hash + ?Sized)) -> u64 {
    let mut s = KEY_SEED;
    x.hash(&mut Words(|w| s = round(s, w)));
    s
}

/// A session-lifetime signature of a clause: its structural hash (every
/// field of the clause participates — iteration set, ordering, guard,
/// lhs access, rhs expression; a literal or guard constant by its bits).
/// Two clauses with equal signatures plan identically for the same
/// decompositions, unless one was forged to the other's key.
pub fn clause_signature(clause: &Clause) -> u64 {
    key_of(clause)
}

/// The arrays a clause touches (lhs first, then reads in reference
/// order, deduplicated) — the set whose decompositions a plan depends
/// on, and therefore the set a decomposition fingerprint must cover.
pub fn clause_arrays(clause: &Clause) -> Vec<&str> {
    let mut names = vec![clause.lhs.array.as_str()];
    clause.any_read(&mut |r| {
        if !names.contains(&r.array.as_str()) {
            names.push(&r.array);
        }
        false
    });
    names
}

/// Hash the decompositions of `names` into `h`, sorted and deduplicated
/// by name, each with its name; a missing entry as absent.
fn hash_decomps<'a, D: Hash>(
    h: &mut impl Hasher,
    decomps: &std::collections::BTreeMap<String, D>,
    names: impl IntoIterator<Item = &'a str>,
) {
    let mut sorted: Vec<&str> = names.into_iter().collect();
    sorted.sort_unstable();
    sorted.dedup();
    for name in sorted {
        (name, decomps.get(name)).hash(h);
    }
}

/// Fingerprint the decompositions of `names` (order-insensitive: names
/// are hashed sorted and deduplicated), of either rank: `D` is
/// [`Decomp1`] or `DecompNd`, hashed structurally with each name. A
/// missing entry hashes as absent, so adding the decomposition later
/// changes the fingerprint too. Redistribution or replacement of any
/// covered array's decomposition changes the result — the plan-cache
/// invalidation rule.
pub fn decomp_fingerprint<'a, D: Hash>(
    decomps: &std::collections::BTreeMap<String, D>,
    names: impl IntoIterator<Item = &'a str>,
) -> u64 {
    let mut s = KEY_SEED;
    hash_decomps(&mut Words(|w| s = round(s, w)), decomps, names);
    s
}

/// The plan-cache key of `clause` over `decomps`, of either rank: its
/// [`clause_signature`] and the [`decomp_fingerprint`] of the arrays it
/// touches ([`clause_arrays`]).
pub fn plan_key<D: Hash>(
    clause: &Clause,
    decomps: &std::collections::BTreeMap<String, D>,
) -> (u64, u64) {
    (
        clause_signature(clause),
        decomp_fingerprint(decomps, clause_arrays(clause)),
    )
}

/// Every word [`plan_key`] folds, in order: `clause` over `decomps`
/// exactly, as far as their [`Hash`] tells them apart. A cache that
/// parties who do not trust each other share keys its entries by this,
/// since a [`plan_key`] can be forged.
pub fn plan_words<D: Hash>(
    clause: &Clause,
    decomps: &std::collections::BTreeMap<String, D>,
) -> Vec<u64> {
    let mut words = Vec::new();
    let mut h = Words(|w| words.push(w));
    clause.hash(&mut h);
    hash_decomps(&mut h, decomps, clause_arrays(clause));
    words
}

/// Test oracle for [`CompiledNode::write_spans`], shared with the n-D
/// lowering's tests: the table equals the set of local offsets the
/// node's entries write, expanded rep by rep and element by element; it
/// is absent exactly when the node is not `eligible` to commit by it,
/// two writes hit one element or, unless `f` is `injective`, some rep is
/// not contiguous; and [`CompiledNode::approx_bytes`] counts it.
#[cfg(test)]
pub(crate) fn check_write_spans(cn: &CompiledNode, injective: bool, eligible: bool, what: &str) {
    let mut written: Vec<i64> = Vec::new();
    let mut strided = Vec::new();
    for er in &cn.exec {
        for k in 0..er.index.reps() {
            let shift = er.lhs.shift(k);
            let offs: Vec<i64> = (0..er.index.count(0) as usize)
                .map(|t| er.lhs.offset(t) + shift)
                .collect();
            let step = offs.get(1).map_or(1, |o| o - offs[0]);
            if !(step.abs() == 1 && offs.windows(2).all(|w| w[1] - w[0] == step)) {
                strided.push(k);
            }
            written.extend(offs);
        }
    }
    written.sort_unstable();
    let disjoint = written.windows(2).all(|w| w[0] != w[1]);
    let representable = eligible && disjoint && (injective || strided.is_empty());
    let Some(spans) = &cn.write_spans else {
        assert!(!representable, "{what} p={}: no span table", cn.p);
        return;
    };
    assert!(representable, "{what} p={}: {spans:?}", cn.p);
    let mut want: Vec<(usize, usize)> = Vec::new();
    for off in written {
        let off = off as usize;
        match want.last_mut() {
            Some(last) if last.1 == off => last.1 += 1,
            _ => want.push((off, off + 1)),
        }
    }
    assert_eq!(spans, &want, "{what} p={}", cn.p);
    let covered: usize = spans.iter().map(|(lo, hi)| hi - lo).sum();
    assert_eq!(covered as u64, cn.modify_iters, "{what} p={}", cn.p);
    let bare = CompiledNode {
        write_spans: None,
        ..cn.clone()
    };
    assert_eq!(
        cn.approx_bytes() - bare.approx_bytes(),
        spans.len() * std::mem::size_of::<(usize, usize)>(),
        "{what} p={}",
        cn.p
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::PACKET_ELEMS;
    use crate::dag::{program_signature, ProgramStep};
    use std::collections::BTreeMap;
    use vcal_core::{ArrayRef, Bounds, Clause, Expr, IndexSet, Ordering};

    fn copy_clause(imin: i64, imax: i64, f: Fn1, g: Fn1) -> Clause {
        Clause {
            iter: IndexSet::range(imin, imax),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("A", f),
            rhs: Expr::Ref(ArrayRef::d1("B", g)),
        }
    }

    fn decomps(a: Decomp1, b: Decomp1) -> DecompMap {
        let mut m = DecompMap::new();
        m.insert("A".into(), a);
        m.insert("B".into(), b);
        m
    }

    fn visit_order(runs: &[Nest]) -> Vec<i64> {
        runs.iter().flat_map(Nest::expand).collect()
    }

    /// The greedy element-at-a-time coalescing [`Tiling`] reproduces:
    /// two elements always form a run, a third joins only if it
    /// continues the stride.
    fn greedy_runs(v: &[i64]) -> Vec<Nest> {
        let mut out = Vec::new();
        let mut k = 0usize;
        while k < v.len() {
            let step = v.get(k + 1).map_or(1, |next| next - v[k]);
            let mut j = (k + 1).min(v.len() - 1);
            while j + 1 < v.len() && v[j + 1] - v[j] == step {
                j += 1;
            }
            out.push(Nest::run(v[k], step, (j - k + 1) as i64));
            k = j + 1;
        }
        out
    }

    /// `count()` is the enumeration's length, and a shape flattened
    /// stretch by stretch gets the runs its element sequence coalesces to.
    fn check_count_and_runs(s: &Schedule, visited: &[i64]) {
        assert_eq!(s.count(), visited.len() as u64, "{s:?}");
        if let Schedule::RepeatedBlock { .. }
        | Schedule::RepeatedScatter { .. }
        | Schedule::Guarded { .. } = s
        {
            assert_eq!(flatten_schedule(s), greedy_runs(visited), "{s:?}");
        }
    }

    #[test]
    fn flatten_preserves_visit_order_across_table1_shapes() {
        let n = 96i64;
        let e = Bounds::range(0, n - 1);
        let decs = [
            Decomp1::block(4, e),
            Decomp1::scatter(4, e),
            Decomp1::block_scatter(3, 4, e),
        ];
        // a of both signs and beyond 1, c of both signs: the repeated
        // shapes' closed-form count and per-offset progressions
        let fns = [
            (Fn1::identity(), 0, n - 1),
            (Fn1::shift(5), 0, n - 6),
            (Fn1::shift(-5), 5, n - 1),
            (Fn1::affine(3, 1), 0, (n - 2) / 3),
            (Fn1::affine(2, -3), 2, (n + 2) / 2),
            (Fn1::affine(-1, n - 1), 0, n - 1),
            (Fn1::affine(-3, n - 2), 0, (n - 2) / 3),
            (Fn1::rotate(7, n), 0, n - 1),
        ];
        for da in &decs {
            for db in &decs {
                for (f, flo, fhi) in &fns {
                    for (g, glo, ghi) in &fns {
                        let (lo, hi) = ((*flo).max(*glo), (*fhi).min(*ghi));
                        if lo > hi {
                            continue;
                        }
                        let clause = copy_clause(lo, hi, f.clone(), g.clone());
                        let dm = decomps(da.clone(), db.clone());
                        for naive in [false, true] {
                            let plan = if naive {
                                SpmdPlan::build_naive(&clause, &dm).unwrap()
                            } else {
                                SpmdPlan::build(&clause, &dm).unwrap()
                            };
                            let compiled = CompiledSchedule::compile(&plan);
                            for (node, cn) in plan.nodes.iter().zip(&compiled.nodes) {
                                let mut want = Vec::new();
                                node.modify.schedule.for_each(|i| want.push(i));
                                assert_eq!(
                                    visit_order(&cn.modify),
                                    want,
                                    "modify p={} naive={naive}",
                                    node.p
                                );
                                assert_eq!(cn.modify_iters, want.len() as u64);
                                check_count_and_runs(&node.modify.schedule, &want);
                                for (slot, rp) in node.resides.iter().enumerate() {
                                    let mut want = Vec::new();
                                    rp.opt.schedule.for_each(|i| want.push(i));
                                    assert_eq!(
                                        visit_order(&flatten_schedule(&rp.opt.schedule)),
                                        want,
                                        "reside p={} slot={slot} naive={naive}",
                                        node.p
                                    );
                                    check_count_and_runs(&rp.opt.schedule, &want);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// `(slot, i)` → `(source ordinal, run, packet, offset in packet)`,
    /// expanded element by element from the plan's receive packets: the
    /// table the machines used to build, kept here as the oracle for
    /// the run algebra.
    fn brute_origin(node: &NodePlan) -> BTreeMap<(usize, i64), (usize, usize, usize, i64)> {
        let mut origin = BTreeMap::new();
        for (ord, pc) in node.comm.recvs.iter().enumerate() {
            let mut run_ord = 0;
            for (pkt_ord, runs) in pc.packets().enumerate() {
                let mut off = 0;
                for run in runs {
                    run.nest.for_each(|i| {
                        origin.insert((run.slot, i), (ord, run_ord, pkt_ord, off));
                        off += 1;
                    });
                    run_ord += 1;
                }
            }
            assert_eq!(run_ord, pc.runs.len(), "packets partition the run list");
        }
        origin
    }

    /// Re-fold and re-cut every pair of the plan at `cap` elements per
    /// packet, the way `plan_comm` does at `PACKET_ELEMS`.
    fn recut(plan: &mut SpmdPlan, cap: u64) {
        for node in &mut plan.nodes {
            let comm = &mut node.comm;
            for pc in comm.sends.iter_mut().chain(&mut comm.recvs) {
                let mut runs: Vec<CommRun> = Vec::new();
                for r in pc.runs.drain(..) {
                    if !runs.last_mut().is_some_and(|last| last.absorb(&r)) {
                        runs.push(r);
                    }
                }
                pc.cuts = crate::comm::packetise(&mut runs, cap);
                pc.runs = runs;
            }
        }
    }

    /// Check one compiled plan against per-element `proc_of`/`local_of`,
    /// every rep of every entry expanded.
    fn check_exec_tables(plan: &SpmdPlan, compiled: &CompiledSchedule, dm: &DecompMap, what: &str) {
        let mut remote_total = 0u64;
        let injective = is_injective(&plan.f);
        for (node, cn) in plan.nodes.iter().zip(&compiled.nodes) {
            let p = node.p;
            let len = dm[&plan.lhs_array].local_count(p) as usize;
            check_write_spans(cn, injective, cn.can_write_image(len), what);
            let origin = brute_origin(node);
            let mut seq = visit_order(&cn.modify);
            // (a) the entries tile Modify_p: in visit order when the
            // order can show (f not injective), as a set always
            let mut got = Vec::new();
            for er in &cn.exec {
                assert!(er.elems() > 0, "{what} p={p}");
                assert!(er.index.depth() <= 2, "{what} p={p}");
                assert_eq!(
                    er.lhs.nest.levels.map(|l| l.0),
                    er.index.levels.map(|l| l.0)
                );
                er.index.for_each(|i| got.push(i));
            }
            if !injective {
                assert_eq!(got, seq, "{what} p={p}: visit-order tiling");
            }
            got.sort_unstable();
            seq.sort_unstable();
            assert_eq!(got, seq, "{what} p={p}: tiling");

            for er in &cn.exec {
                let mut remote = 0u64;
                for k in 0..er.index.reps() {
                    let mut t = 0usize;
                    er.index.rep(k).for_each(|i| {
                        let at = format!("{what} p={p} i={i} rep={k}");
                        assert_eq!(
                            er.lhs.offset(t) + er.lhs.shift(k),
                            dm[&plan.lhs_array].local_of(plan.f.eval(i)),
                            "{at}"
                        );
                        for (slot, rp) in node.resides.iter().enumerate() {
                            let x = rp.g.eval(i);
                            let dec = &dm[&rp.array];
                            let owner = if rp.replicated { p } else { dec.proc_of(x) };
                            let pat = er.slots[slot].pattern();
                            let off = pat.offset(t) + pat.shift(k);
                            match &er.slots[slot] {
                                // (b) local reads resolve to the owner-local offset
                                SlotAccess::Local(_) => {
                                    assert_eq!(
                                        owner, p,
                                        "{at} slot={slot}: remote read marked local"
                                    );
                                    assert_eq!(off, dec.local_of(x), "{at} slot={slot}");
                                }
                                // (b) remote reads to the element-wise (src, packet, off)
                                SlotAccess::Packet {
                                    src_ord,
                                    pkt_ord,
                                    pattern,
                                } => {
                                    remote += 1;
                                    assert_ne!(
                                        owner, p,
                                        "{at} slot={slot}: local read marked remote"
                                    );
                                    assert_eq!(cn.src_peers[*src_ord], owner, "{at} slot={slot}");
                                    assert_eq!(
                                        origin
                                            .get(&(slot, i))
                                            .map(|&(so, _, po, off)| (so, po, off)),
                                        Some((*src_ord, *pkt_ord, off)),
                                        "{at} slot={slot}"
                                    );
                                    // (c) the window stays inside its packet
                                    let pair = &node.comm.recvs[*src_ord];
                                    let packet =
                                        pair.packets().nth(*pkt_ord).expect("planned packet");
                                    let len =
                                        packet.iter().map(|r| r.nest.len()).sum::<u64>() as i64;
                                    assert!((0..len).contains(&off), "{at} slot={slot}");
                                    assert!(*pkt_ord < cn.staging_packets[*src_ord], "{at}");
                                    assert!(pattern.table.is_none(), "{at}");
                                }
                            }
                        }
                        t += 1;
                    });
                }
                assert_eq!(er.remote_elems, remote, "{what} p={p}");
                assert_eq!(er.boundary, remote > 0, "{what} p={p}");
                remote_total += remote;
            }
        }
        let c = compiled.overlap_census();
        assert_eq!(
            c.interior_elems + c.boundary_elems,
            compiled.total_iters(),
            "{what}"
        );
        assert_eq!(c.remote_elems, remote_total, "{what}");
        assert_eq!(
            c.remote_elems,
            plan.nodes.iter().map(|n| n.comm.recv_elems()).sum::<u64>(),
            "{what}"
        );
    }

    #[test]
    fn exec_tables_match_brute_force_expansion() {
        let n = 96i64;
        let fns = [
            (Fn1::Const(7), 0, n - 1),
            (Fn1::identity(), 0, n - 1),
            (Fn1::shift(5), 0, n - 6),
            (Fn1::affine(2, 1), 0, (n - 2) / 2),
            (Fn1::affine(3, 1), 0, (n - 2) / 3),
            (Fn1::rotate(7, n), 0, n - 1),
        ];
        let e = Bounds::range(0, n - 1);
        let mut checked = 0;
        for pmax in [2, 3, 4, 8] {
            let decs = [
                Decomp1::block(pmax, e),
                Decomp1::scatter(pmax, e),
                Decomp1::block_scatter(3, pmax, e),
                Decomp1::block_scatter(4, pmax, e),
            ];
            for da in &decs {
                for db in &decs {
                    let dm = decomps(da.clone(), db.clone());
                    let mut clauses = Vec::new();
                    for (f, flo, fhi) in &fns[1..] {
                        for (g, glo, ghi) in &fns {
                            let (lo, hi) = ((*flo).max(*glo), (*fhi).min(*ghi));
                            clauses.push(copy_clause(lo, hi, f.clone(), g.clone()));
                        }
                    }
                    // 3-point stencil: two read slots with 1-element halos
                    let mut stencil = copy_clause(1, n - 2, Fn1::identity(), Fn1::identity());
                    stencil.rhs = Expr::mul(
                        Expr::Lit(0.5),
                        Expr::add(
                            Expr::Ref(ArrayRef::d1("B", Fn1::shift(-1))),
                            Expr::Ref(ArrayRef::d1("B", Fn1::shift(1))),
                        ),
                    );
                    clauses.push(stencil);
                    for clause in &clauses {
                        let mut plan = SpmdPlan::build(clause, &dm).unwrap();
                        // every pair of these plans is one packet at the
                        // production cap; small caps cut each run stream
                        // into many, and the tables must follow the cut
                        for cap in [PACKET_ELEMS, 1, 3, 8] {
                            recut(&mut plan, cap);
                            let compiled = CompiledSchedule::compile_exec(&plan, clause, &dm);
                            assert!(compiled.has_exec(), "{clause}");
                            let what = format!("pmax={pmax} A={da} B={db} cap={cap} {clause}");
                            check_exec_tables(&plan, &compiled, &dm, &what);
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 4000, "only {checked} plans checked");
    }

    /// The three ways a node's writes come out: one span when it fills
    /// its part, one span per stretch when it skips elements, and no
    /// table when two runs collide or a run of an `f` not known to be
    /// injective writes with a stride.
    #[test]
    fn write_spans_merge_follow_gaps_and_refuse_strides_and_overlaps() {
        let n = 96i64;
        let e = Bounds::range(0, n - 1);
        let spans_of =
            |clause: &Clause, a: Decomp1, b: Decomp1| -> Vec<Option<Vec<(usize, usize)>>> {
                let dm = decomps(a, b);
                let plan = SpmdPlan::build(clause, &dm).unwrap();
                let cs = CompiledSchedule::compile_exec(&plan, clause, &dm);
                for cn in &cs.nodes {
                    let eligible = cn.can_write_image(dm["A"].local_count(cn.p) as usize);
                    check_write_spans(cn, is_injective(&plan.f), eligible, &format!("{clause}"));
                }
                cs.nodes.into_iter().map(|cn| cn.write_spans).collect()
            };
        // block-scatter(4) source, block target: 24 runs per node, one span
        let copy = copy_clause(0, n - 1, Fn1::identity(), Fn1::identity());
        let full = spans_of(&copy, Decomp1::block(4, e), Decomp1::block_scatter(4, 4, e));
        assert_eq!(full, vec![Some(vec![(0, 24)]); 4]);
        // scatter target: one-element runs, still one span
        let full = spans_of(&copy, Decomp1::scatter(4, e), Decomp1::block(4, e));
        assert_eq!(full, vec![Some(vec![(0, 24)]); 4]);
        // an interior range leaves the two end elements out
        let inner = copy_clause(1, n - 2, Fn1::identity(), Fn1::identity());
        let gaps = spans_of(&inner, Decomp1::block(2, e), Decomp1::block(2, e));
        assert_eq!(gaps, [Some(vec![(1, 48)]), Some(vec![(0, 47)])]);
        // A[2i+1] over a block: stride-2 writes, each offset once
        let strided = copy_clause(0, (n - 2) / 2, Fn1::affine(2, 1), Fn1::identity());
        let gaps = spans_of(&strided, Decomp1::block(2, e), Decomp1::block(2, e));
        let odd: Vec<(usize, usize)> = (0..24).map(|k| (2 * k + 1, 2 * k + 2)).collect();
        assert_eq!(gaps, [Some(odd.clone()), Some(odd)]);
        // ... refused when the same writes come from an `f` not known to
        // be injective
        let mut scaled = strided.clone();
        let inner = Box::new(Fn1::identity());
        scaled.lhs = ArrayRef::d1("A", Fn1::Scaled { a: 2, c: 1, inner });
        let none = spans_of(&scaled, Decomp1::block(2, e), Decomp1::block(2, e));
        assert_eq!(none, [None, None]);
        // ... but over scatter(2) the odd elements are node 1's whole part,
        // and node 0, which writes none of its part, gets no table
        let odd = spans_of(&strided, Decomp1::scatter(2, e), Decomp1::block(2, e));
        assert_eq!(odd, [None, Some(vec![(0, 48)])]);
        // every iteration writes A[7]: the runs collide
        let collide = copy_clause(0, n - 1, Fn1::Const(7), Fn1::identity());
        let none = spans_of(&collide, Decomp1::block(2, e), Decomp1::block(2, e));
        assert_eq!(none[0], None);
    }

    #[test]
    fn send_patterns_address_the_packed_elements() {
        let n = 96i64;
        let e = Bounds::range(0, n - 1);
        for (da, db) in [
            (Decomp1::block(4, e), Decomp1::block_scatter(3, 4, e)),
            (Decomp1::scatter(4, e), Decomp1::block(4, e)),
            (Decomp1::block_scatter(4, 3, e), Decomp1::scatter(3, e)),
        ] {
            let clause = copy_clause(0, (n - 2) / 3, Fn1::shift(2), Fn1::affine(3, 1));
            let dm = decomps(da, db);
            for (naive, cap) in [(false, u64::MAX), (true, u64::MAX), (false, 5), (true, 1)] {
                let mut plan = if naive {
                    SpmdPlan::build_naive(&clause, &dm).unwrap()
                } else {
                    SpmdPlan::build(&clause, &dm).unwrap()
                };
                recut(&mut plan, cap);
                let compiled = CompiledSchedule::compile_exec(&plan, &clause, &dm);
                for (node, cn) in plan.nodes.iter().zip(&compiled.nodes) {
                    assert_eq!(cn.sends.len(), node.comm.sends.len());
                    for (pair, sent) in node.comm.sends.iter().zip(&cn.sends) {
                        assert_eq!(sent.peer, pair.peer);
                        assert_eq!(sent.packets.len(), pair.packets().len());
                        for (runs, segs) in pair.packets().zip(&sent.packets) {
                            // the segments, walked in order, name exactly
                            // the elements the packet's runs pack
                            let mut got = Vec::new();
                            for seg in segs {
                                let dec = &dm[&node.resides[seg.slot].array];
                                assert!(!seg.pattern.nest.is_empty());
                                seg.pattern.for_each(|o| got.push((dec, o)));
                            }
                            let mut want = Vec::new();
                            for run in runs {
                                let rp = &node.resides[run.slot];
                                let dec = &dm[&rp.array];
                                run.nest
                                    .for_each(|i| want.push((dec, dec.local_of(rp.g.eval(i)))));
                            }
                            assert_eq!(got, want, "naive={naive} cap={cap} p={}", node.p);
                            assert!(segs.len() <= runs.len());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn block_scatter_source_packs_each_packet_with_one_segment() {
        // the acceptance layout: the sender's half of a block-scatter(16)
        // array is contiguous in its local part, so the pair's 2 048
        // cycles — one two-level run per packet — collapse to one
        // unit-stride segment per 8 192-element packet
        let n = 128i64 << 10;
        let e = Bounds::range(0, n - 1);
        let clause = copy_clause(0, n - 1, Fn1::identity(), Fn1::identity());
        let dm = decomps(Decomp1::block(2, e), Decomp1::block_scatter(16, 2, e));
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        let compiled = CompiledSchedule::compile_exec(&plan, &clause, &dm);
        for (node, cn) in plan.nodes.iter().zip(&compiled.nodes) {
            assert_eq!(node.comm.sends[0].runs.len(), 4);
            assert!(node.comm.sends[0]
                .runs
                .iter()
                .all(|r| r.nest.count(1) == 512));
            assert_eq!(cn.sends[0].packets.len(), 4);
            assert_eq!(cn.staging_packets, [4]);
            for segs in &cn.sends[0].packets {
                assert_eq!(segs.len(), 1);
                assert_eq!(segs[0].pattern.nest.levels, [(8192, 1), (1, 0), (1, 0)]);
                assert!(segs[0].pattern.is_unit_stride());
            }
        }
    }

    #[test]
    fn tables_grow_with_packets_not_runs() {
        // block-scatter(16) -> block copy: each node alternates 16 local
        // and 16 remote elements, n / 32 runs of each — and one entry for
        // the local ones plus one per incoming packet, whatever n is
        let tables = |n: i64, cap: u64| {
            let e = Bounds::range(0, n - 1);
            let clause = copy_clause(0, n - 1, Fn1::identity(), Fn1::identity());
            let dm = decomps(Decomp1::block(2, e), Decomp1::block_scatter(16, 2, e));
            let mut plan = SpmdPlan::build(&clause, &dm).unwrap();
            recut(&mut plan, cap);
            let compiled = CompiledSchedule::compile_exec(&plan, &clause, &dm);
            check_exec_tables(&plan, &compiled, &dm, &format!("n={n} cap={cap}"));
            for cn in &compiled.nodes {
                let packets: usize = cn.staging_packets.iter().sum();
                assert_eq!(cn.exec.len(), 1 + packets, "n={n} cap={cap}");
                assert!(cn.exec.iter().all(|er| er.index.count(0) == 16));
                // ... and every node fills its part: one write span
                assert_eq!(cn.write_spans, Some(vec![(0, (n / 2) as usize)]));
            }
            let entries: Vec<usize> = compiled.nodes.iter().map(|cn| cn.exec.len()).collect();
            let bytes: usize = compiled.nodes.iter().map(CompiledNode::approx_bytes).sum();
            // ... and so are the plan's receive runs: one per packet
            let runs = plan.nodes.iter().flat_map(|node| &node.comm.recvs);
            let runs: Vec<usize> = runs.map(|pc| pc.runs.len()).collect();
            (entries, bytes, runs)
        };
        // one packet per pair: the same tables at 1 Ki and at 64 Ki
        assert_eq!(tables(1 << 10, u64::MAX), tables(1 << 16, u64::MAX));
        assert_eq!(tables(1 << 10, u64::MAX).2, [1, 1]);
        assert_eq!(tables(1 << 10, PACKET_ELEMS).0, [2, 2]);
        assert_eq!(tables(1 << 16, PACKET_ELEMS).0, [3, 3]);
        assert_eq!(tables(1 << 16, PACKET_ELEMS).2, [2, 2]);
    }

    /// Where the meets repeat, `build_exec` cuts one period, not every
    /// element: over V Scatter, U BS(4) at pmax 3 a stencil's modify runs
    /// meet a two-level receive nest per peer (rep by rep) and a one-level
    /// one (single positions), both every 4 positions, and the periods
    /// found cover all but a few positions of every run.
    #[test]
    fn periodic_meets_are_cut_one_period_at_a_time() {
        let (n, e) = (8192, Bounds::range(0, 8191));
        let mut clause = copy_clause(1, n - 2, Fn1::identity(), Fn1::identity());
        clause.rhs = Expr::add(
            Expr::Ref(ArrayRef::d1("B", Fn1::shift(-1))),
            Expr::Ref(ArrayRef::d1("B", Fn1::shift(1))),
        );
        let dm = decomps(Decomp1::scatter(3, e), Decomp1::block_scatter(4, 3, e));
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        let (mut met, mut stretches) = (Vec::new(), Vec::new());
        for node in &plan.nodes {
            let runs = (node.comm.recvs.iter().enumerate()).flat_map(|(src, pc)| {
                (pc.runs.iter().enumerate()).map(move |(run, r)| (r.slot, r.nest, (src, run)))
            });
            let recvs = receives(node.resides.len(), runs);
            for m in flatten_schedule(&node.modify.schedule) {
                meets(&recvs, &m, &mut met);
                periods(&met, &mut stretches);
                let (mut t, mut covered) = (0, 0);
                for &(first, reps, len) in &stretches {
                    let skip = div_ceil(t - first, len).max(0);
                    if reps - skip >= 3 {
                        covered += (reps - skip) * len;
                        t = first + reps * len;
                    }
                }
                assert!(
                    covered + 32 >= m.count(0),
                    "p={}: {covered} of {m:?}",
                    node.p
                );
            }
        }
    }

    #[test]
    fn naive_plans_get_exec_tables() {
        let n = 96i64;
        let e = Bounds::range(0, n - 1);
        let clause = copy_clause(1, n - 2, Fn1::identity(), Fn1::shift(1));
        let dm = decomps(Decomp1::block(4, e), Decomp1::scatter(4, e));
        let naive = SpmdPlan::build_naive(&clause, &dm).unwrap();
        let compiled = CompiledSchedule::compile_exec(&naive, &clause, &dm);
        assert!(compiled.has_exec());
        check_exec_tables(&naive, &compiled, &dm, "naive");
        // the tiling follows the runs, not the dispatch that produced them
        let closed = SpmdPlan::build(&clause, &dm).unwrap();
        let closed = CompiledSchedule::compile_exec(&closed, &clause, &dm);
        assert_eq!(compiled.overlap_census(), closed.overlap_census());
    }

    #[test]
    fn coalesce_keeps_t_major_order() {
        // a deliberately non-monotone sequence must round-trip exactly
        let v = [0, 4, 8, 1, 5, 9, 2, 6, 10, 40];
        let mut runs = Vec::new();
        coalesce_ordered(&v, &mut runs);
        assert_eq!(visit_order(&runs), v);
        assert_eq!(runs, greedy_runs(&v));
        for v in [&[][..], &[3], &[3, 9], &[1, 2, 3, 7, 8, 9, 10, 12]] {
            let mut runs = Vec::new();
            coalesce_ordered(v, &mut runs);
            assert_eq!(runs, greedy_runs(v), "{v:?}");
        }
    }

    #[test]
    fn signatures_separate_clauses_and_fingerprints_track_decomps() {
        let c1 = copy_clause(0, 63, Fn1::identity(), Fn1::identity());
        let c2 = copy_clause(0, 63, Fn1::identity(), Fn1::shift(1));
        assert_ne!(clause_signature(&c1), clause_signature(&c2));
        assert_eq!(clause_signature(&c1), clause_signature(&c1.clone()));
        assert_eq!(clause_arrays(&c1), vec!["A", "B"]);

        // a literal or guard constant by its bits: signed zeros and NaN
        // payloads, which `==` or the debug text cannot tell apart
        let with_lit = |v: f64| Clause {
            rhs: Expr::add(c1.rhs.clone(), Expr::Lit(v)),
            ..c1.clone()
        };
        let nan = |payload: u64| f64::from_bits(0x7ff8_0000_0000_0000 | payload);
        let guarded = |v: f64| Clause {
            guard: Guard::Cmp {
                lhs: ArrayRef::d1("B", Fn1::identity()),
                op: vcal_core::CmpOp::Gt,
                rhs: v,
            },
            ..c1.clone()
        };
        let pairs = [
            (with_lit(0.0), with_lit(-0.0)),
            (with_lit(nan(1)), with_lit(nan(2))),
            (guarded(0.0), guarded(1.0)),
            (guarded(0.0), guarded(-0.0)),
            (guarded(0.0), c1.clone()),
        ];
        for (a, b) in &pairs {
            assert_ne!(clause_signature(a), clause_signature(b), "{a:?} / {b:?}");
        }
        // one access function read from a 1-D and from a 2-D loop index
        let id = vcal_core::DimFn {
            src: 0,
            f: Fn1::identity(),
        };
        let of_rank = |d_in: usize| Clause {
            lhs: ArrayRef::new("A", vcal_core::IndexMap::new(d_in, vec![id.clone()])),
            ..c1.clone()
        };
        assert_ne!(clause_signature(&of_rank(1)), clause_signature(&of_rank(2)));
        // a redistribution's target is part of the program
        let e = Bounds::range(0, 63);
        let redist = |to: Decomp1| {
            let array = "B".to_string();
            vec![
                ProgramStep::Clause(c1.clone()),
                ProgramStep::Redistribute { array, to },
            ]
        };
        let (block, scatter) = (redist(Decomp1::block(4, e)), redist(Decomp1::scatter(4, e)));
        assert_ne!(program_signature(&block), program_signature(&scatter));
        assert_eq!(program_signature(&block), program_signature(&block.clone()));

        let dm1 = decomps(Decomp1::block(4, e), Decomp1::block(4, e));
        let dm2 = decomps(Decomp1::scatter(4, e), Decomp1::block(4, e));
        let names = ["A", "B"];
        assert_ne!(
            decomp_fingerprint(&dm1, names),
            decomp_fingerprint(&dm2, names)
        );
        // an uncovered array's decomposition does not perturb the print
        let mut dm3 = dm1.clone();
        dm3.insert("Z".into(), Decomp1::scatter(4, e));
        assert_eq!(
            decomp_fingerprint(&dm1, names),
            decomp_fingerprint(&dm3, names)
        );
        // ... but a covered one does, including appearing at all
        assert_ne!(
            decomp_fingerprint(&dm1, names),
            decomp_fingerprint(&dm1, ["A"])
        );
        // names are hashed whole: "AB","C" is not "A","BC"
        let of = |names: [&str; 2]| names.map(|n| (n.to_string(), Decomp1::block(4, e)));
        assert_ne!(
            decomp_fingerprint(&of(["AB", "C"]).into(), ["AB", "C"]),
            decomp_fingerprint(&of(["A", "BC"]).into(), ["A", "BC"])
        );
        // the key format is pinned: a change to it is a deliberate one
        let dm4 = decomps(Decomp1::block(4, e), Decomp1::block_scatter(3, 4, e));
        assert_eq!(decomp_fingerprint(&dm4, names), 0x9a7b_fabc_f3fc_24b9);
        assert_eq!(clause_signature(&c2), 0xaf05_3144_5e23_687a);
        assert_eq!(program_signature(&block), 0xb862_0352_6e4f_545d);
    }
}
