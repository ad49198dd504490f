//! Compile-time communication schedules for the distributed machine.
//!
//! The Section 2.10 template makes processor `p` send, for every read
//! slot, the elements `{ i ∈ Reside_p | proc_A(f(i)) ≠ p }` — one tagged
//! message per element, with the destination computed by an ownership
//! test *at run time*. But the destination set is itself a V-cal set
//! expression: the elements `p` sends to `q` for slot `s` are exactly
//!
//! ```text
//! Send_{p→q}(s) = Reside_p(s) ∩ Modify_q
//! ```
//!
//! and both operands are schedules the optimizer already derived in
//! closed form (Theorems 1–3). This module intersects them per ordered
//! processor pair at *plan time* — using the lattice algebra of
//! [`crate::setops`] when both schedules are arithmetic, and falling
//! back to a single enumeration + run-coalescing pass otherwise — and
//! stores the result as strided runs ([`CommRun`]) on each node plan.
//!
//! Because the pair set is computed once and shared by sender and
//! receiver, both sides agree on the exact packing order of every run
//! and on how the run stream is cut into wire packets ([`packetise`]):
//! the executor ships whole runs grouped into packets of up to
//! [`PACKET_ELEMS`] elements (`packets ≈ pairs` instead of
//! `packets = elements`) and the receiver unpacks by
//! `(source, packet, offset)` with no per-element tag matching.

use crate::program::NodePlan;
use crate::schedule::Schedule;
use vcal_core::func::Fn1;
use vcal_decomp::Decomp1;

/// One coalesced run of loop indices, all belonging to a single read
/// slot: `reps` repetitions of `start + step·t, t ∈ [0, count)`, rep `r`
/// shifted by `r·stride` — the cycle loop of Theorem 2's `gen_p` kept as
/// an outer level. The values of a run travel packed rep-major, the
/// order in which its reps would sit as runs of their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommRun {
    /// Index into the node's reside/read slot list.
    pub slot: usize,
    /// First loop index of the run.
    pub start: i64,
    /// Stride between consecutive indices (≥ 1).
    pub step: i64,
    /// Number of indices per rep (≥ 1).
    pub count: i64,
    /// Number of reps (≥ 1).
    pub reps: u64,
    /// Loop-index advance per rep: past the rep's last index, never
    /// abutting it (0 when `reps == 1`).
    pub stride: i64,
}

impl CommRun {
    /// The one-level run `start + step·t, t ∈ [0, count)`.
    pub fn one(slot: usize, start: i64, step: i64, count: i64) -> CommRun {
        let (reps, stride) = (1, 0);
        CommRun {
            slot,
            start,
            step,
            count,
            reps,
            stride,
        }
    }

    /// Reps `r0..r0 + n` as a run of their own.
    pub fn reps_of(&self, r0: u64, n: u64) -> CommRun {
        CommRun {
            start: self.start + r0 as i64 * self.stride,
            reps: n,
            stride: if n > 1 { self.stride } else { 0 },
            ..*self
        }
    }

    /// Rep `r` as a one-level run.
    pub fn rep(&self, r: u64) -> CommRun {
        self.reps_of(r, 1)
    }

    /// Visit the loop indices of the run in packing order.
    pub fn for_each(&self, mut visit: impl FnMut(i64)) {
        for r in 0..self.reps {
            let mut i = self.start + r as i64 * self.stride;
            for _ in 0..self.count {
                visit(i);
                i += self.step;
            }
        }
    }

    /// Number of elements in the run, over all reps.
    pub fn len(&self) -> u64 {
        self.count.max(0) as u64 * self.reps
    }

    /// Whether the run is degenerate.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Take `next`'s reps as more reps of this run when they repeat its
    /// shape one stride on, past its last rep without abutting it.
    pub(crate) fn absorb(&mut self, next: &CommRun) -> bool {
        let delta = next.start - (self.start + (self.reps as i64 - 1) * self.stride);
        let stride = if self.reps > 1 { self.stride } else { delta };
        let fits = (self.slot, self.step, self.count) == (next.slot, next.step, next.count)
            && delta == stride
            && (next.reps == 1 || next.stride == stride)
            && stride > self.step * (self.count - 1)
            && stride != self.step * self.count;
        if fits {
            self.stride = stride;
            self.reps += next.reps;
        }
        fits
    }
}

/// Payload cap of one wire packet, in elements (64 KiB of `f64`).
///
/// §4 of the paper charges `t_startup` per message, so how a pair's
/// element set is cut into messages is a planning decision: a packet
/// costs ≈ 0.7 µs of fixed work (allocation, digest, channel hop, ack,
/// retained-buffer prune) whatever it carries, and at 8192 elements that
/// is < 0.1 ns per element. The cap stays under the allocator's mmap
/// threshold, keeps a packet L2-resident while it is packed, digested
/// and unpacked, and is four 16 KiB socket reads.
pub const PACKET_ELEMS: u64 = 8192;

/// Cut a pair's run stream into wire packets: consecutive whole reps,
/// grouped greedily while the packet holds at most `cap` elements — the
/// cut the same runs would get with every rep a run of its own. A rep
/// longer than `cap` is its own packet. A two-level run the cut falls
/// inside is split at that rep boundary, so every run lies in one packet
/// and a receive window never crosses one. Returns the cut points:
/// packet `k` is `runs[cuts[k]..cuts[k + 1]]`.
pub fn packetise(runs: &mut Vec<CommRun>, cap: u64) -> Vec<usize> {
    let mut cuts = vec![0];
    let mut load = 0u64;
    let mut out = Vec::with_capacity(runs.len());
    for r in runs.drain(..) {
        let each = r.count.max(1) as u64;
        let mut r0 = 0;
        while r0 < r.reps {
            if load > 0 && load.saturating_add(each) > cap {
                cuts.push(out.len());
                load = 0;
            }
            let n = (cap.saturating_sub(load) / each).clamp(1, r.reps - r0);
            out.push(r.reps_of(r0, n));
            load = load.saturating_add(n * each);
            r0 += n;
        }
    }
    if !out.is_empty() {
        cuts.push(out.len());
    }
    *runs = out;
    cuts
}

/// All runs exchanged with one peer, ordered by slot then derivation
/// order, and their cut into wire packets. The packet ordinal is the
/// packet tag, shared by sender and receiver.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PairComm {
    /// The other processor.
    pub peer: i64,
    /// The runs, in wire order.
    pub runs: Vec<CommRun>,
    /// Packet boundaries ([`packetise`] at [`PACKET_ELEMS`]): packet `k`
    /// carries `runs[cuts[k]..cuts[k + 1]]`, packed back to back.
    pub cuts: Vec<usize>,
}

impl PairComm {
    /// Total elements across all runs of the pair.
    pub fn elems(&self) -> u64 {
        self.runs.iter().map(CommRun::len).sum()
    }

    /// The packets of the pair in wire order, each as the runs it carries.
    pub fn packets(&self) -> impl ExactSizeIterator<Item = &[CommRun]> {
        self.cuts.windows(2).map(|w| &self.runs[w[0]..w[1]])
    }

    /// Per run, the packet that carries it and the offset of the run's
    /// first element inside that packet.
    pub fn run_places(&self) -> Vec<(usize, u64)> {
        let mut places = Vec::with_capacity(self.runs.len());
        for (pkt_ord, runs) in self.packets().enumerate() {
            let mut off = 0;
            for r in runs {
                places.push((pkt_ord, off));
                off += r.len();
            }
        }
        places
    }
}

/// The plan-time communication schedule of one processor: what it sends
/// to and expects from every peer, as coalesced runs.
#[derive(Debug, Clone, Default)]
pub struct NodeCommPlan {
    /// Outgoing runs, one entry per destination (ascending peer id,
    /// empty pairs omitted).
    pub sends: Vec<PairComm>,
    /// Incoming runs, one entry per source (ascending peer id, empty
    /// pairs omitted). `recvs[so].runs[k]` on the receiver is the same
    /// run as `sends[..].runs[k]` on source `so` — derived once, shared.
    pub recvs: Vec<PairComm>,
    /// Read slots whose pair sets came from closed-form intersection.
    pub closed_form_slots: u64,
    /// Read slots that needed the enumeration + coalescing fallback.
    pub enumerated_slots: u64,
}

impl NodeCommPlan {
    /// Total elements this node sends.
    pub fn send_elems(&self) -> u64 {
        self.sends.iter().map(PairComm::elems).sum()
    }

    /// Total elements this node expects to receive.
    pub fn recv_elems(&self) -> u64 {
        self.recvs.iter().map(PairComm::elems).sum()
    }

    /// Number of outgoing vector messages (one per planned packet).
    pub fn send_packets(&self) -> u64 {
        self.sends.iter().map(|pc| pc.packets().len() as u64).sum()
    }

    /// Number of incoming vector messages.
    pub fn recv_packets(&self) -> u64 {
        self.recvs.iter().map(|pc| pc.packets().len() as u64).sum()
    }
}

/// Append `runs` to the pair entry for `peer`, creating it on first use,
/// and fold each into its predecessor as one more rep where it can.
fn push_runs(pairs: &mut Vec<PairComm>, peer: i64, runs: &[CommRun]) {
    let at = match pairs.iter().position(|pc| pc.peer == peer) {
        Some(at) => at,
        None => {
            pairs.push(PairComm {
                peer,
                ..PairComm::default()
            });
            pairs.len() - 1
        }
    };
    let list = &mut pairs[at].runs;
    for r in runs {
        if !list.last_mut().is_some_and(|last| last.absorb(r)) {
            list.push(*r);
        }
    }
}

/// Flatten an arithmetic schedule into runs for `slot`. `false` when the
/// schedule has no run form (guarded / repeated shapes).
fn schedule_to_runs(s: &Schedule, slot: usize, out: &mut Vec<CommRun>) -> bool {
    match s {
        Schedule::Empty => true,
        Schedule::Range { lo, hi } => {
            if lo <= hi {
                out.push(CommRun::one(slot, *lo, 1, hi - lo + 1));
            }
            true
        }
        Schedule::Strided { start, step, count } => {
            if *count > 0 {
                out.push(CommRun::one(slot, *start, *step, *count));
            }
            true
        }
        Schedule::Concat(parts) => parts.iter().all(|p| schedule_to_runs(p, slot, out)),
        _ => false,
    }
}

/// Greedily coalesce a sorted, deduplicated index list into arithmetic
/// runs, as [`coalesce_ordered`](crate::compiled::coalesce_ordered) does.
fn coalesce(v: &[i64], slot: usize) -> Vec<CommRun> {
    let mut runs = Vec::new();
    crate::compiled::coalesce_ordered(v, &mut runs);
    (runs.iter())
        .map(|r| CommRun::one(slot, r.start, r.step, r.count))
        .collect()
}

/// Derive `Reside_p(slot) ∩ Modify_q` for every destination `q ≠ p` in
/// closed form. `None` when any required intersection is not arithmetic.
fn closed_form_slot(
    nodes: &[NodePlan],
    p: usize,
    slot: usize,
    reside: &Schedule,
) -> Option<Vec<Vec<CommRun>>> {
    let mut per_q: Vec<Vec<CommRun>> = vec![Vec::new(); nodes.len()];
    for (q, dst) in nodes.iter().enumerate() {
        if q == p {
            continue;
        }
        let set = crate::setops::intersect(reside, &dst.modify.schedule)?;
        if !schedule_to_runs(&set, slot, &mut per_q[q]) {
            return None;
        }
    }
    Some(per_q)
}

/// Derive the same sets by one enumeration pass over the reside
/// schedule, bucketing each index by the owner of its write target.
fn enumerate_slot(
    reside: &Schedule,
    slot: usize,
    f: &Fn1,
    dec_lhs: &Decomp1,
    p: usize,
    pmax: usize,
) -> Vec<Vec<CommRun>> {
    let mut buckets: Vec<Vec<i64>> = vec![Vec::new(); pmax];
    reside.for_each(|i| {
        let q = dec_lhs.proc_of(f.eval(i));
        if q as usize != p {
            buckets[q as usize].push(i);
        }
    });
    buckets
        .into_iter()
        .map(|mut v| {
            v.sort_unstable();
            v.dedup();
            coalesce(&v, slot)
        })
        .collect()
}

/// Build the per-node communication plans for a whole SPMD program.
///
/// Each ordered pair set is derived exactly once and pushed to both the
/// sender's `sends` and the receiver's `recvs`, so the two sides hold
/// identical run lists in identical order — and, the cut being a function
/// of the run list alone, identical packets: the invariant the vectorized
/// executor's `(source, packet, offset)` addressing relies on.
pub fn plan_comm(nodes: &[NodePlan], f: &Fn1, dec_lhs: &Decomp1) -> Vec<NodeCommPlan> {
    let pmax = nodes.len();
    let mut plans: Vec<NodeCommPlan> = vec![NodeCommPlan::default(); pmax];
    for (p, node) in nodes.iter().enumerate() {
        for (slot, rp) in node.resides.iter().enumerate() {
            if rp.replicated {
                continue;
            }
            let reside = &rp.opt.schedule;
            let per_q = match closed_form_slot(nodes, p, slot, reside) {
                Some(per_q) => {
                    plans[p].closed_form_slots += 1;
                    per_q
                }
                None => {
                    plans[p].enumerated_slots += 1;
                    enumerate_slot(reside, slot, f, dec_lhs, p, pmax)
                }
            };
            for (q, runs) in per_q.iter().enumerate() {
                if q == p || runs.is_empty() {
                    continue;
                }
                push_runs(&mut plans[p].sends, q as i64, runs);
                push_runs(&mut plans[q].recvs, p as i64, runs);
            }
        }
    }
    for plan in &mut plans {
        plan.sends.sort_by_key(|pc| pc.peer);
        plan.recvs.sort_by_key(|pc| pc.peer);
        for pc in plan.sends.iter_mut().chain(&mut plan.recvs) {
            pc.cuts = packetise(&mut pc.runs, PACKET_ELEMS);
        }
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{DecompMap, SpmdPlan};
    use vcal_core::{ArrayRef, Bounds, Clause, Expr, Guard, IndexSet, Ordering};

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

    /// Expand every send run of `p` into `(peer, slot, i)` triples.
    fn expand_sends(plan: &NodeCommPlan) -> Vec<(i64, usize, i64)> {
        let mut out = Vec::new();
        for pc in &plan.sends {
            for run in &pc.runs {
                run.for_each(|i| out.push((pc.peer, run.slot, i)));
            }
        }
        out.sort_unstable();
        out
    }

    /// Brute-force reference: walk the reside schedules with an
    /// ownership test per element, exactly as the element-wise executor
    /// does.
    fn brute_sends(plan: &SpmdPlan, dec_lhs: &Decomp1, p: usize) -> Vec<(i64, usize, i64)> {
        let node = &plan.nodes[p];
        let mut out = Vec::new();
        for (slot, rp) in node.resides.iter().enumerate() {
            if rp.replicated {
                continue;
            }
            rp.opt.schedule.for_each(|i| {
                let q = dec_lhs.proc_of(plan.f.eval(i));
                if q as usize != p {
                    out.push((q, slot, i));
                }
            });
        }
        out.sort_unstable();
        out
    }

    /// Every rep as a run of its own: the per-cycle run list.
    fn expand(runs: &[CommRun]) -> Vec<CommRun> {
        runs.iter()
            .flat_map(|r| (0..r.reps).map(|k| r.rep(k)))
            .collect()
    }

    /// Cut `runs` at `cap`, checking that the packets, expanded, are those
    /// of the expanded list and that those are greedy.
    fn cut(runs: &[CommRun], cap: u64) -> (Vec<CommRun>, Vec<usize>) {
        let (mut split, mut flat) = (runs.to_vec(), expand(runs));
        let (cuts, flat_cuts) = (packetise(&mut split, cap), packetise(&mut flat, cap));
        assert_eq!(flat, expand(runs), "one-level runs are never split");
        let packets = |runs: &[CommRun], cuts: &[usize]| -> Vec<Vec<CommRun>> {
            cuts.windows(2).map(|w| expand(&runs[w[0]..w[1]])).collect()
        };
        assert_eq!(
            packets(&split, &cuts),
            packets(&flat, &flat_cuts),
            "cap={cap}"
        );
        check_cuts(&flat, &flat_cuts, cap);
        (split, cuts)
    }

    /// `cuts` partitions `runs` in order into greedy packets of at most
    /// `cap` elements (a longer single run is its own packet).
    fn check_cuts(runs: &[CommRun], cuts: &[usize], cap: u64) {
        assert_eq!(cuts.first(), Some(&0));
        assert_eq!(cuts.last(), Some(&runs.len()));
        let elems = |w: &[usize]| runs[w[0]..w[1]].iter().map(CommRun::len).sum::<u64>();
        for w in cuts.windows(2) {
            assert!(w[0] < w[1], "empty packet: {cuts:?}");
            assert!(elems(w) <= cap || w[1] - w[0] == 1, "cap={cap} {cuts:?}");
            // greedy: the next run did not fit
            if let Some(next) = runs.get(w[1]) {
                assert!(elems(w) + next.len() > cap, "cap={cap} {cuts:?}");
            }
        }
    }

    #[test]
    fn packetise_cuts_at_the_cap() {
        let run = |count| CommRun::one(0, 0, 1, count);
        let runs = [run(3), run(3), run(2), run(9), run(1), run(8)];
        assert_eq!(cut(&runs, 1).1, [0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(cut(&runs, 3).1, [0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(cut(&runs, 8).1, [0, 3, 4, 5, 6]);
        assert_eq!(cut(&runs, 9).1, [0, 3, 4, 6]);
        assert_eq!(cut(&runs, u64::MAX).1, [0, 6]);
        assert_eq!(cut(&[], 8).1, [0]);
        let pair = PairComm {
            peer: 1,
            runs: runs.to_vec(),
            cuts: cut(&runs, 8).1,
        };
        assert_eq!(pair.packets().len(), 4);
        assert_eq!(
            pair.run_places(),
            [(0, 0), (0, 3), (0, 6), (1, 0), (2, 0), (3, 0)]
        );
        assert_eq!(PairComm::default().packets().len(), 0);
        // two-level runs are cut only at rep boundaries, where the
        // expanded list is
        let reps = |start, count, reps, stride| CommRun {
            reps,
            stride,
            ..CommRun::one(0, start, 2, count)
        };
        let runs = [
            reps(0, 3, 5, 10),
            run(2),
            reps(90, 1, 9, 3),
            reps(200, 9, 3, 40),
            run(8),
        ];
        for cap in [1, 3, 8, 9, 8192, u64::MAX] {
            let (split, cuts) = cut(&runs, cap);
            assert_eq!(expand(&split), expand(&runs));
            let places = PairComm {
                peer: 1,
                runs: split,
                cuts,
            }
            .run_places();
            assert!(places.windows(2).all(|w| w[0] <= w[1]), "cap={cap}");
        }
        assert_eq!(
            cut(&runs, 8).0[..3],
            [reps(0, 3, 2, 10), reps(20, 3, 2, 10), reps(40, 3, 1, 0)]
        );
        assert_eq!(cut(&runs, u64::MAX).0, runs);
    }

    fn check_plan(clause: &Clause, dm: &DecompMap, naive: bool) {
        let plan = if naive {
            SpmdPlan::build_naive(clause, dm).unwrap()
        } else {
            SpmdPlan::build(clause, dm).unwrap()
        };
        let dec_lhs = &dm["A"];
        for p in 0..plan.pmax as usize {
            let comm = &plan.nodes[p].comm;
            assert_eq!(
                expand_sends(comm),
                brute_sends(&plan, dec_lhs, p),
                "send sets p={p} naive={naive}"
            );
            // sender and receiver hold the same run lists
            for pc in &comm.sends {
                let dst = &plan.nodes[pc.peer as usize].comm;
                let back = dst
                    .recvs
                    .iter()
                    .find(|r| r.peer == p as i64)
                    .expect("receiver must expect this pair");
                assert_eq!(pc.runs, back.runs, "pair ({p} -> {}) runs", pc.peer);
                assert_eq!(pc.cuts, back.cuts, "pair ({p} -> {}) packets", pc.peer);
                // the cut is the per-cycle list's, and cutting it again
                // changes nothing
                assert_eq!(
                    cut(&pc.runs, PACKET_ELEMS),
                    (pc.runs.clone(), pc.cuts.clone())
                );
                for cap in [1, 3, 8, u64::MAX] {
                    cut(&pc.runs, cap);
                }
                // folded reps repeat one shape, neither overlapping nor
                // abutting
                for r in pc.runs.iter().filter(|r| r.reps > 1) {
                    assert!(r.stride > r.step * (r.count - 1), "{r:?}");
                    assert_ne!(r.stride, r.step * r.count, "{r:?}");
                }
            }
        }
        // global conservation: every element sent is expected somewhere
        let sent: u64 = plan.nodes.iter().map(|n| n.comm.send_elems()).sum();
        let recv: u64 = plan.nodes.iter().map(|n| n.comm.recv_elems()).sum();
        assert_eq!(sent, recv);
    }

    #[test]
    fn pair_sets_match_brute_force() {
        let n = 96i64;
        let e = Bounds::range(0, n - 1);
        let decs = [
            Decomp1::block(4, e),
            Decomp1::scatter(4, e),
            Decomp1::block_scatter(3, 4, e),
            Decomp1::replicated(4, e),
        ];
        let fns = [
            (Fn1::identity(), 0, n - 1),
            (Fn1::shift(5), 0, n - 6),
            (Fn1::affine(3, 1), 0, (n - 2) / 3),
            (Fn1::rotate(7, n), 0, n - 1),
        ];
        for da in &decs {
            if da.is_replicated() {
                continue; // writes need a real owner
            }
            for db in &decs {
                for (f, flo, fhi) in &fns {
                    for (g, glo, ghi) in &fns {
                        let (lo, hi) = ((*flo).max(*glo), (*fhi).min(*ghi));
                        if lo > hi {
                            continue;
                        }
                        let clause = copy_clause(lo, hi, f.clone(), g.clone());
                        let dm = decomps(da.clone(), db.clone());
                        check_plan(&clause, &dm, false);
                        check_plan(&clause, &dm, true);
                    }
                }
            }
        }
    }

    #[test]
    fn optimized_plans_use_closed_forms() {
        let n = 1024i64;
        let clause = copy_clause(0, n - 1, Fn1::identity(), Fn1::affine(3, 1));
        let dm = decomps(
            Decomp1::scatter(8, Bounds::range(0, n - 1)),
            Decomp1::scatter(8, Bounds::range(0, 3 * n)),
        );
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        for node in &plan.nodes {
            assert_eq!(node.comm.enumerated_slots, 0, "p={}", node.p);
        }
        // scatter/scatter with an affine access coalesces each pair into
        // very few strided runs: far fewer packets than elements
        let elems: u64 = plan.nodes.iter().map(|n| n.comm.send_elems()).sum();
        let packets: u64 = plan.nodes.iter().map(|n| n.comm.send_packets()).sum();
        assert!(elems >= 10 * packets, "elems={elems} packets={packets}");
    }

    #[test]
    fn naive_plans_fall_back_to_enumeration() {
        let n = 64i64;
        let clause = copy_clause(0, n - 1, Fn1::identity(), Fn1::identity());
        let dm = decomps(
            Decomp1::block(4, Bounds::range(0, n - 1)),
            Decomp1::scatter(4, Bounds::range(0, n - 1)),
        );
        let plan = SpmdPlan::build_naive(&clause, &dm).unwrap();
        let enumerated: u64 = plan.nodes.iter().map(|n| n.comm.enumerated_slots).sum();
        assert!(enumerated > 0);
    }

    #[test]
    fn replicated_reads_have_no_runs() {
        let n = 32i64;
        let clause = copy_clause(0, n - 1, Fn1::identity(), Fn1::identity());
        let dm = decomps(
            Decomp1::block(4, Bounds::range(0, n - 1)),
            Decomp1::replicated(4, Bounds::range(0, n - 1)),
        );
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        for node in &plan.nodes {
            assert!(node.comm.sends.is_empty());
            assert!(node.comm.recvs.is_empty());
        }
    }

    #[test]
    fn coalesce_handles_irregular_gaps() {
        let v = [0, 1, 2, 10, 14, 18, 40];
        let runs = coalesce(&v, 0);
        let mut expanded = Vec::new();
        for r in &runs {
            r.for_each(|i| expanded.push(i));
        }
        assert_eq!(expanded, v);
        assert!(runs.len() <= 3, "{runs:?}");
    }
}
