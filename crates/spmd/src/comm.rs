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
//! closed form (Theorems 1–3). This module derives every pair set once,
//! at *plan time*, by one algebra: walk the send predicate
//! `proc_B(g(i)) = p ∧ proc_A(f(i)) = q` over the loop range in ascending
//! order and coalesce each destination's indices into [`Nest`]s. Where
//! both maps are constant or affine the predicate is periodic between the
//! block layouts' breakpoints, so the walk covers one lattice period and
//! replays it; a map with no period is walked index by index. The result
//! is stored as strided runs ([`CommRun`]) on each node plan, and it is
//! also what `emit` prints as the node's send and receive sets.
//!
//! Because the pair set is computed once and shared by sender and
//! receiver, both sides agree on the exact packing order of every run
//! and on how the run stream is cut into wire packets ([`packetise`]):
//! the executor ships whole runs grouped into packets of up to
//! [`PACKET_ELEMS`] elements (`packets ≈ pairs` instead of
//! `packets = elements`) and the receiver unpacks by
//! `(source, packet, offset)` with no per-element tag matching.

use crate::compiled::Tiling;
use crate::nest::Nest;
use crate::program::NodePlan;
use vcal_core::func::Fn1;
use vcal_decomp::{Decomp1, Distribution};
use vcal_numth::gcd;

/// One coalesced run of loop indices, all belonging to a single read
/// slot: a nest whose level 0 is one rep and whose level 1, when it has
/// more than one position, is the cycle loop of Theorem 2's `gen_p` (or
/// an n-D row loop). Reps never overlap or abut. The values of a run
/// travel packed in visit order, the order in which its reps would sit
/// as runs of their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommRun {
    /// Index into the node's reside/read slot list.
    pub slot: usize,
    /// The loop indices (level-0 stride ≥ 1).
    pub nest: Nest,
}

impl CommRun {
    /// Take `next`'s reps as more reps of this run when they repeat its
    /// shape one stride on, past its last rep without abutting it.
    pub(crate) fn absorb(&mut self, next: &CommRun) -> bool {
        let mut nest = self.nest;
        let fits = self.slot == next.slot && nest.absorb(&next.nest, 1) && {
            let [(count, step), (_, stride), _] = nest.levels;
            stride > step * (count - 1) && stride != step * count
        };
        if fits {
            self.nest = nest;
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
    for CommRun { slot, mut nest } in runs.drain(..) {
        let each = nest.count(0).max(1) as u64;
        loop {
            if load > 0 && load.saturating_add(each) > cap {
                cuts.push(out.len());
                load = 0;
            }
            let reps = nest.count(1);
            let n = (cap.saturating_sub(load) / each).clamp(1, reps as u64);
            let (head, rest) = nest.cut(1, n as i64);
            out.push(CommRun { slot, nest: head });
            load = load.saturating_add(n * each);
            if n as i64 == reps {
                break;
            }
            nest = rest;
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
        self.runs.iter().map(|r| r.nest.len()).sum()
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
                off += r.nest.len();
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
    /// Read slots walked one lattice period at a time (both maps constant
    /// or affine).
    pub period_walked_slots: u64,
    /// Read slots walked index by index (a map with no period).
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
    for r in runs {
        fold(&mut pairs[at].runs, *r);
    }
}

/// One side of the send predicate: `i ↦ proc(h(i))` for an access `h`
/// into an array laid out by `dec`.
#[derive(Clone, Copy)]
struct Side<'a> {
    h: &'a Fn1,
    dec: &'a Decomp1,
}

/// `⌈n / d⌉` for `d > 0`.
fn ceil_div(n: i128, d: i128) -> i128 {
    -(-n).div_euclid(d)
}

impl Side<'_> {
    fn proc_at(&self, i: i64) -> i64 {
        self.dec.proc_of(self.h.eval(i))
    }

    /// `(a, c)` with `h(i) = a·i + c`; `None` when `h` is neither
    /// constant nor affine.
    fn affine(&self) -> Option<(i64, i64)> {
        match *self.h {
            Fn1::Const(c) => Some((0, c)),
            Fn1::Affine { a, c } => Some((a, c)),
            _ => None,
        }
    }

    /// Block size of the layout (1 for scatter; `None` when replicated).
    fn block(&self) -> Option<i64> {
        match self.dec.dist() {
            Distribution::Block { b } | Distribution::BlockScatter { b } => Some(b),
            Distribution::Scatter => Some(1),
            Distribution::Replicated => None,
        }
    }

    /// The period of `proc(h(i))` between breakpoints: `b·pmax / gcd(|a|,
    /// b·pmax)` for a dealt layout, 1 for a constant owner or a block
    /// layout. `None` when `h` has none, or it does not fit an `i64`.
    fn period(&self) -> Option<i64> {
        let (a, _) = self.affine()?;
        match self.dec.dist() {
            Distribution::Scatter | Distribution::BlockScatter { .. } if a != 0 => {
                let cycle = self.block()?.checked_mul(self.dec.pmax())?;
                Some(cycle / gcd(a, cycle))
            }
            _ => Some(1),
        }
    }

    /// Push the indices of `(lo, hi]` where a block layout changes owner:
    /// the first `i` past each block edge `h` crosses.
    fn breaks(&self, lo: i64, hi: i64, out: &mut Vec<i64>) {
        let (Some((a, c)), Distribution::Block { b }) = (self.affine(), self.dec.dist()) else {
            return;
        };
        let (a, b) = (a as i128, b as i128);
        let c0 = c as i128 - self.dec.extent().lo()[0] as i128;
        let (x0, x1) = (a * lo as i128 + c0, a * hi as i128 + c0);
        for k in x0.min(x1).div_euclid(b) + 1..=x0.max(x1).div_euclid(b) {
            let i = if a > 0 {
                ceil_div(k * b - c0, a)
            } else {
                ceil_div(c0 - k * b + 1, -a)
            };
            out.push(i as i64);
        }
    }

    /// The first index of `[i, hi]` that this side maps to `p`. An affine
    /// `h` jumps straight to the next block of `p` in the direction it
    /// moves; any other map tests each index.
    fn next_on(&self, mut i: i64, hi: i64, p: i64) -> Option<i64> {
        while i <= hi {
            if self.proc_at(i) == p {
                return Some(i);
            }
            let Some((a, c)) = self.affine() else {
                i = i.checked_add(1)?;
                continue;
            };
            let b = self.block().filter(|_| a != 0)? as i128;
            let (a, p, pmax) = (a as i128, p as i128, self.dec.pmax() as i128);
            let c0 = c as i128 - self.dec.extent().lo()[0] as i128;
            let k = (a * i as i128 + c0).div_euclid(b);
            let dealt = !matches!(self.dec.dist(), Distribution::Block { .. });
            let k = match (a > 0, dealt) {
                (true, true) => k + (p - k).rem_euclid(pmax),
                (false, true) => k - (k - p).rem_euclid(pmax),
                (true, false) if k < p => p,
                (false, false) if k > p => p,
                _ => return None,
            };
            let j = if a > 0 {
                ceil_div(k * b - c0, a)
            } else {
                ceil_div(c0 - k * b - b + 1, -a)
            };
            i = i64::try_from(j).ok()?;
        }
        None
    }
}

/// Append `r` to `runs`, as one more rep of the last run where it fits;
/// whether it did.
fn fold(runs: &mut Vec<CommRun>, r: CommRun) -> bool {
    let absorbed = runs.last_mut().is_some_and(|last| last.absorb(&r));
    if !absorbed {
        runs.push(r);
    }
    absorbed
}

/// The destinations' coalescers during one slot's walk: per `q`, the
/// open run, the runs emitted so far (folded) and those emitted since
/// the current period began.
struct Walk {
    slot: usize,
    tiles: Vec<Tiling>,
    runs: Vec<Vec<CommRun>>,
    fresh: Vec<Vec<Nest>>,
}

impl Walk {
    /// Feed every index of `[lo, hi]` that `read` maps to `p` to the
    /// coalescer of its write owner `q ≠ p`, in ascending order.
    fn walk(&mut self, read: Side, lhs: Side, p: usize, lo: i64, hi: i64) {
        let mut at = Some(lo);
        while let Some(i) = at.and_then(|i| read.next_on(i, hi, p as i64)) {
            let q = lhs.proc_at(i) as usize;
            if q != p {
                let (runs, fresh, slot) = (&mut self.runs[q], &mut self.fresh[q], self.slot);
                self.tiles[q].push(Nest::run(i, 1, 1), &[], &mut |nest, _| {
                    fresh.push(nest);
                    fold(runs, CommRun { slot, nest });
                });
            }
            at = i.checked_add(1);
        }
    }

    /// Walk one segment, where the send predicate is `l`-periodic. After
    /// each full period, when every coalescer's open run is the one of
    /// the period before shifted by `l` (so the period emitted its
    /// predecessor's runs shifted by `l`), or the same run grown by `l`
    /// or not at all (so it emitted nothing), every remaining full period
    /// does the same again: replay it instead of walking it.
    fn segment(&mut self, read: Side, lhs: Side, p: usize, lo: i64, hi: i64, l: Option<i64>) {
        let Some(l) = l else {
            return self.walk(read, lhs, p, lo, hi);
        };
        let (mut start, mut was) = (lo, None::<Vec<Option<Nest>>>);
        loop {
            // full periods left before `hi`, which the tail walk takes
            let left = ((hi as i128 - start as i128) / l as i128) as i64;
            if left == 0 {
                return self.walk(read, lhs, p, start, hi);
            }
            if let Some(was) = was.as_deref().filter(|was| self.steady(was, l)) {
                self.replay(was, l, left);
                return self.walk(read, lhs, p, start + left * l, hi);
            }
            was = Some(self.tiles.iter().map(|t| t.cur).collect());
            self.fresh.iter_mut().for_each(Vec::clear);
            self.walk(read, lhs, p, start, start + (l - 1));
            start += l;
        }
    }

    fn steady(&self, was: &[Option<Nest>], l: i64) -> bool {
        let now = self.tiles.iter().map(|t| t.cur);
        was.iter().zip(now).all(|(was, now)| match (was, now) {
            (None, None) => true,
            (Some(w), Some(n)) if w.stride(0) == n.stride(0) => {
                let grown = n.count(0) - w.count(0);
                (grown == 0 && n.base - w.base == l)
                    || (n.base == w.base && (grown == 0 || n.stride(0) * grown == l))
            }
            _ => false,
        })
    }

    /// Do `m` more periods as the last one did, each `l` further on.
    fn replay(&mut self, was: &[Option<Nest>], l: i64, m: i64) {
        for (q, was) in was.iter().enumerate() {
            let (Some(cur), Some(was)) = (self.tiles[q].cur.as_mut(), was) else {
                continue;
            };
            if cur.base == was.base {
                cur.levels[0].0 += m * (cur.count(0) - was.count(0));
                continue;
            }
            cur.base += m * l;
            let (fresh, runs, slot) = (&self.fresh[q], &mut self.runs[q], self.slot);
            'periods: for k in 1..=m {
                for r in fresh {
                    let nest = Nest {
                        base: r.base + k * l,
                        ..*r
                    };
                    // one run folding into its predecessor folds every time
                    if fold(runs, CommRun { slot, nest }) && fresh.len() == 1 {
                        let last = runs.last_mut().expect("just folded");
                        last.nest.levels[1].0 += m - k;
                        break 'periods;
                    }
                }
            }
        }
    }
}

/// Derive `Reside_p(slot) ∩ Modify_q` for every `q ≠ p` by walking the
/// loop range in ascending order, with no sort: the indices `read` maps
/// to `p`, bucketed by their `lhs` owner and coalesced greedily, as
/// `coalesce_ordered` would the sorted sets. With both maps constant or
/// affine the predicate is periodic between the block layouts'
/// breakpoints, and each segment walks only until its period repeats
/// ([`Walk::segment`]). Also returns whether it was.
fn walk_slot(
    read: Side,
    lhs: Side,
    p: usize,
    slot: usize,
    (imin, imax): (i64, i64),
) -> (Vec<Vec<CommRun>>, bool) {
    let pmax = lhs.dec.pmax() as usize;
    let period =
        (read.period().zip(lhs.period())).and_then(|(x, y)| (x / gcd(x, y)).checked_mul(y));
    let mut cuts = vec![imin];
    read.breaks(imin, imax, &mut cuts);
    lhs.breaks(imin, imax, &mut cuts);
    cuts.sort_unstable();
    cuts.dedup();
    let mut w = Walk {
        slot,
        tiles: (0..pmax).map(|_| Tiling::default()).collect(),
        runs: vec![Vec::new(); pmax],
        fresh: vec![Vec::new(); pmax],
    };
    for (k, &lo) in cuts.iter().enumerate() {
        let hi = cuts.get(k + 1).map_or(imax, |next| next - 1);
        w.segment(read, lhs, p, lo, hi, period);
    }
    for (tile, runs) in w.tiles.iter_mut().zip(&mut w.runs) {
        tile.flush(&mut |nest, _| {
            fold(runs, CommRun { slot, nest });
        });
    }
    (w.runs, period.is_some())
}

/// Build the per-node communication plans for a whole SPMD program whose
/// clause writes through `f` into `dec_lhs` and reads slot `s` from
/// `dec_reads[s]`, over the loop range `bounds`.
///
/// Each ordered pair set is derived exactly once and pushed to both the
/// sender's `sends` and the receiver's `recvs`, so the two sides hold
/// identical run lists in identical order — and, the cut being a function
/// of the run list alone, identical packets: the invariant the vectorized
/// executor's `(source, packet, offset)` addressing relies on.
pub fn plan_comm(
    nodes: &[NodePlan],
    f: &Fn1,
    dec_lhs: &Decomp1,
    dec_reads: &[&Decomp1],
    bounds: (i64, i64),
) -> Vec<NodeCommPlan> {
    let pmax = nodes.len();
    let lhs = Side { h: f, dec: dec_lhs };
    let mut plans: Vec<NodeCommPlan> = vec![NodeCommPlan::default(); pmax];
    for (p, node) in nodes.iter().enumerate() {
        for (slot, rp) in node.resides.iter().enumerate() {
            if rp.replicated {
                continue;
            }
            let read = Side {
                h: &rp.g,
                dec: dec_reads[slot],
            };
            let (per_q, periodic) = walk_slot(read, lhs, p, slot, bounds);
            *if periodic {
                &mut plans[p].period_walked_slots
            } else {
                &mut plans[p].enumerated_slots
            } += 1;
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
    use crate::schedule::Schedule;

    /// Greedily coalesce a sorted, deduplicated index list into arithmetic
    /// runs, as [`coalesce_ordered`](crate::compiled::coalesce_ordered) does.
    fn coalesce(v: &[i64], slot: usize) -> Vec<CommRun> {
        let mut runs = Vec::new();
        crate::compiled::coalesce_ordered(v, &mut runs);
        (runs.iter()).map(|&nest| CommRun { slot, nest }).collect()
    }

    /// The element walk the period walk replaces: every index of the
    /// reside schedule, bucketed by the owner of its write target, each
    /// bucket sorted, deduplicated and coalesced.
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
                run.nest.for_each(|i| out.push((pc.peer, run.slot, i)));
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
            .flat_map(|r| {
                (0..r.nest.reps()).map(|k| CommRun {
                    nest: r.nest.rep(k),
                    ..*r
                })
            })
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
        let elems = |w: &[usize]| runs[w[0]..w[1]].iter().map(|r| r.nest.len()).sum::<u64>();
        for w in cuts.windows(2) {
            assert!(w[0] < w[1], "empty packet: {cuts:?}");
            assert!(elems(w) <= cap || w[1] - w[0] == 1, "cap={cap} {cuts:?}");
            // greedy: the next run did not fit
            if let Some(next) = runs.get(w[1]) {
                assert!(elems(w) + next.nest.len() > cap, "cap={cap} {cuts:?}");
            }
        }
    }

    #[test]
    fn packetise_cuts_at_the_cap() {
        let run = |count| CommRun {
            slot: 0,
            nest: Nest::run(0, 1, count),
        };
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
        let reps = |base, count, reps, stride| CommRun {
            slot: 0,
            nest: Nest {
                base,
                levels: [(count, 2), (reps, stride), (1, 0)],
            },
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
            let brute = brute_sends(&plan, dec_lhs, p);
            assert_eq!(expand_sends(comm), brute, "send sets p={p} naive={naive}");
            for pc in &comm.sends {
                // each slot's runs, rep by rep, are the greedy coalescing
                // of its set: the pair set is canonical
                for slot in 0..plan.nodes[p].resides.len() {
                    let set: Vec<i64> = (brute.iter())
                        .filter(|&&(q, s, _)| q == pc.peer && s == slot)
                        .map(|&(_, _, i)| i)
                        .collect();
                    let runs: Vec<CommRun> =
                        pc.runs.iter().filter(|r| r.slot == slot).copied().collect();
                    assert_eq!(
                        expand(&runs),
                        coalesce(&set, slot),
                        "pair ({p} -> {}) slot {slot} naive={naive}",
                        pc.peer
                    );
                }
                // sender and receiver hold the same run lists
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
                for r in pc.runs.iter().filter(|r| r.nest.count(1) > 1) {
                    let [(count, step), (_, stride), _] = r.nest.levels;
                    assert!(stride > step * (count - 1), "{r:?}");
                    assert_ne!(stride, step * count, "{r:?}");
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
    fn optimized_affine_plans_walk_by_period() {
        let n = 1024i64;
        let clause = copy_clause(0, n - 1, Fn1::identity(), Fn1::affine(3, 1));
        let dm = decomps(
            Decomp1::scatter(8, Bounds::range(0, n - 1)),
            Decomp1::scatter(8, Bounds::range(0, 3 * n)),
        );
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        for node in &plan.nodes {
            assert_eq!(node.comm.period_walked_slots, 1, "p={}", node.p);
            assert_eq!(node.comm.enumerated_slots, 0, "p={}", node.p);
        }
        // scatter/scatter with an affine access coalesces each pair into
        // very few strided runs: far fewer packets than elements
        let elems: u64 = plan.nodes.iter().map(|n| n.comm.send_elems()).sum();
        let packets: u64 = plan.nodes.iter().map(|n| n.comm.send_packets()).sum();
        assert!(elems >= 10 * packets, "elems={elems} packets={packets}");
    }

    /// A naive plan has no closed-form reside sets: an affine one walks
    /// by period, and one whose read has no period walks index by index.
    #[test]
    fn naive_plans_walk_by_period_unless_a_map_has_none() {
        let n = 64i64;
        let dm = decomps(
            Decomp1::block(4, Bounds::range(0, n - 1)),
            Decomp1::scatter(4, Bounds::range(0, n - 1)),
        );
        let slots = |g: Fn1| {
            let clause = copy_clause(0, 7, Fn1::identity(), g);
            let plan = SpmdPlan::build_naive(&clause, &dm).unwrap();
            let sum = |count: fn(&NodeCommPlan) -> u64| -> u64 {
                plan.nodes.iter().map(|n| count(&n.comm)).sum()
            };
            (sum(|c| c.period_walked_slots), sum(|c| c.enumerated_slots))
        };
        assert_eq!(slots(Fn1::identity()), (4, 0));
        let square = Fn1::Square(Box::new(Fn1::identity()));
        assert_eq!(slots(square), (0, 4));
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
            r.nest.for_each(|i| expanded.push(i));
        }
        assert_eq!(expanded, v);
        assert!(runs.len() <= 3, "{runs:?}");
    }

    /// The plans `plan_comm` made before the period walk: every slot
    /// walked element by element.
    fn plan_by_elements(plan: &SpmdPlan, dec_lhs: &Decomp1) -> Vec<NodeCommPlan> {
        let pmax = plan.nodes.len();
        let mut plans = vec![NodeCommPlan::default(); pmax];
        for (p, node) in plan.nodes.iter().enumerate() {
            for (slot, rp) in node.resides.iter().enumerate() {
                if rp.replicated {
                    continue;
                }
                let per_q = enumerate_slot(&rp.opt.schedule, slot, &plan.f, dec_lhs, p, pmax);
                for (q, runs) in per_q.iter().enumerate() {
                    if q != p && !runs.is_empty() {
                        push_runs(&mut plans[p].sends, q as i64, runs);
                        push_runs(&mut plans[q].recvs, p as i64, runs);
                    }
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

    /// Build `clause` both ways and check the period walk against the
    /// element walk, run for run and cut for cut.
    fn check_walk(clause: &Clause, dm: &DecompMap, naive: bool) {
        let plan = if naive {
            SpmdPlan::build_naive(clause, dm).unwrap()
        } else {
            SpmdPlan::build(clause, dm).unwrap()
        };
        let want = plan_by_elements(&plan, &dm["A"]);
        for (node, want) in plan.nodes.iter().zip(want) {
            let what = format!(
                "{clause} A={} B={} naive={naive} p={}",
                dm["A"], dm["B"], node.p
            );
            assert_eq!(node.comm.sends, want.sends, "{what}");
            assert_eq!(node.comm.recvs, want.recvs, "{what}");
            assert_eq!(node.comm.enumerated_slots, 0, "{what}");
        }
    }

    /// The loop range over which `f` and `g` stay inside `[0, n)`.
    fn inside(n: i64, maps: [&Fn1; 2]) -> Option<(i64, i64)> {
        use vcal_numth::{div_ceil, div_floor};
        let (mut lo, mut hi) = (-4 * n, 4 * n);
        for h in maps {
            match *h {
                Fn1::Affine { a, c } if a > 0 => {
                    lo = lo.max(div_ceil(-c, a));
                    hi = hi.min(div_floor(n - 1 - c, a));
                }
                Fn1::Affine { a, c } => {
                    lo = lo.max(div_ceil(c - (n - 1), -a));
                    hi = hi.min(div_floor(c, -a));
                }
                _ => {}
            }
        }
        (lo <= hi).then_some((lo, hi))
    }

    /// Bounded-exhaustive: constant and affine maps with `a ∈ ±{1, 2, 3}`
    /// on both sides, block, scatter and block-scatter(b ≤ 8) layouts on
    /// both arrays, two to four processors, optimized and naive plans.
    #[test]
    fn period_walk_equals_the_element_walk() {
        let n = 64i64;
        let e = Bounds::range(0, n - 1);
        let mut maps = vec![Fn1::Const(5), Fn1::Const(n - 1)];
        for a in [1, 2, 3] {
            for c in [0, 1, 7] {
                maps.push(Fn1::affine(a, c));
                maps.push(Fn1::affine(-a, n - 1 - c));
            }
        }
        let mut checked = 0;
        for pmax in [2, 3, 4] {
            let mut layouts = vec![Decomp1::block(pmax, e), Decomp1::scatter(pmax, e)];
            layouts.extend([2, 3, 4, 5, 8].map(|b| Decomp1::block_scatter(b, pmax, e)));
            for (da, db) in layouts
                .iter()
                .flat_map(|a| layouts.iter().map(move |b| (a, b)))
            {
                let dm = decomps(da.clone(), db.clone());
                for f in &maps {
                    for g in &maps {
                        let Some((lo, hi)) = inside(n, [f, g]) else {
                            continue;
                        };
                        let clause = copy_clause(lo, hi, f.clone(), g.clone());
                        check_walk(&clause, &dm, false);
                        if checked % 4 == 0 {
                            check_walk(&clause, &dm, true);
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 20_000, "only {checked} clauses");
    }

    /// Longer ranges, where whole periods replay and single runs fold in
    /// bulk: seeded random affine clauses, block sizes up to 40.
    #[test]
    fn period_walk_replays_long_ranges_exactly() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |m: i64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            ((state >> 33) % m as u64) as i64
        };
        for _ in 0..300 {
            let (n, pmax) = (200 + next(2800), 2 + next(4));
            let e = Bounds::range(0, n - 1);
            let layout = |next: &mut dyn FnMut(i64) -> i64| match next(3) {
                0 => Decomp1::block(pmax, e),
                1 => Decomp1::scatter(pmax, e),
                _ => Decomp1::block_scatter(1 + next(40), pmax, e),
            };
            let dm = decomps(layout(&mut next), layout(&mut next));
            let map = |next: &mut dyn FnMut(i64) -> i64| {
                let a = [1, -1, 2, -2, 3, -3][next(6) as usize];
                Fn1::affine(a, if a > 0 { next(9) } else { n - 1 - next(9) })
            };
            let (f, g) = (map(&mut next), map(&mut next));
            let (lo, hi) = inside(n, [&f, &g]).unwrap();
            check_walk(&copy_clause(lo, hi, f, g), &dm, false);
        }
    }
}
