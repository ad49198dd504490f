//! Multi-dimensional SPMD schedules.
//!
//! The paper carries out its derivations in one dimension "for reasons of
//! clarity"; the generalization is per-axis: with data decomposed axis by
//! axis onto a processor grid ([`vcal_decomp::DecompNd`]) and an access
//! map that sends each output axis through a 1-D function of one input
//! axis ([`vcal_core::IndexMap`]), the ownership condition factorizes
//!
//! ```text
//! proc(f(i)) = p   ⇔   ∀axis d:  proc_d(f_d(i[src_d])) = grid(p)[d]
//! ```
//!
//! so the per-processor iteration set is a *Cartesian product* of 1-D
//! schedules, each produced by the Table I optimizer.
//!
//! [`lower_nd`] turns those products into the run tables of
//! [`CompiledSchedule`]: loop indices are linearised row-major over the
//! loop box, the innermost axis of a product is cut where a read changes
//! owner along any axis, and a row is one more level of the
//! [`Nest`]s the 1-D tables are made of — rows that repeat one shape fold
//! into one exec entry and one comm run, as cycles do in one dimension.
//! The machine executes the result with the engine it uses for 1-D plans.

use crate::comm::{packetise, CommRun, PairComm, PACKET_ELEMS};
use crate::compiled::{
    coalesce_ordered, flatten_schedule, local_pattern, pieces, receives, send_pair, write_spans,
    AccessPattern, CompiledNode, CompiledSchedule, ExecRun, Fold, SendPair, SlotAccess,
};
use crate::kernel::CompiledKernel;
use crate::nest::Nest;
use crate::optimizer::{optimize, OptKind};
use crate::program::PlanError;
use crate::schedule::Schedule;
use std::collections::BTreeMap;
use vcal_core::map::IndexMap;
use vcal_core::{ArrayRef, Bounds, Clause, Guard, Ix};
use vcal_decomp::DecompNd;

/// A per-processor iteration schedule over a d-dimensional loop box:
/// the product of one 1-D schedule per *loop* dimension.
#[derive(Debug, Clone)]
pub struct ScheduleNd {
    /// One schedule per loop dimension, in loop-dimension order.
    pub axes: Vec<Schedule>,
    /// The Table I kind chosen per loop dimension.
    pub kinds: Vec<OptKind>,
}

impl ScheduleNd {
    /// Visit every scheduled point in lexicographic order of the
    /// per-axis schedules.
    pub fn for_each(&self, mut visit: impl FnMut(&Ix)) {
        // materialize each axis once (axes are small relative to the
        // product) then walk the product
        let lists: Vec<Vec<i64>> = self
            .axes
            .iter()
            .map(|s| {
                let mut v = Vec::new();
                s.for_each(|i| v.push(i));
                v
            })
            .collect();
        if lists.iter().any(Vec::is_empty) {
            return;
        }
        let d = lists.len();
        let mut idx = vec![0usize; d];
        let mut coords: Vec<i64> = lists.iter().map(|l| l[0]).collect();
        loop {
            visit(&Ix::new(&coords));
            // odometer
            let mut axis = d;
            loop {
                if axis == 0 {
                    return;
                }
                axis -= 1;
                idx[axis] += 1;
                if idx[axis] < lists[axis].len() {
                    coords[axis] = lists[axis][idx[axis]];
                    for a in axis + 1..d {
                        idx[a] = 0;
                        coords[a] = lists[a][0];
                    }
                    break;
                }
            }
        }
    }

    /// Number of scheduled points.
    pub fn count(&self) -> u64 {
        self.axes.iter().map(Schedule::count).product()
    }

    /// Total loop-overhead work: sum of per-axis work times the product
    /// of the other axes' visit counts (each axis' tests repeat once per
    /// combination of outer iterations) — an upper bound that reduces to
    /// the exact product cost for closed forms.
    pub fn work_estimate(&self) -> u64 {
        let counts: Vec<u64> = self.axes.iter().map(Schedule::count).collect();
        let mut total = 0u64;
        for (d, s) in self.axes.iter().enumerate() {
            let outer: u64 = counts[..d].iter().product();
            total += outer.max(1) * s.work_estimate();
        }
        total
    }
}

/// Per loop dimension, the output axis of `map` it drives. `None` when
/// some loop dimension drives two output axes: the ownership condition
/// then couples them and does not factorize.
fn drivers(map: &IndexMap) -> Option<Vec<Option<usize>>> {
    let mut driver_of_loopdim: Vec<Option<usize>> = vec![None; map.d_in()];
    for (out_axis, df) in map.dims().iter().enumerate() {
        if driver_of_loopdim[df.src].replace(out_axis).is_some() {
            return None;
        }
    }
    Some(driver_of_loopdim)
}

/// Derive the d-dimensional schedule of
/// `{ i ∈ loop_box | proc(map(i)) = p }` under `dec`.
///
/// Requirements (checked): the map must have one output axis per
/// decomposition axis, and each *loop* dimension must feed at most one
/// output axis (otherwise the ownership condition does not factorize and
/// the caller should fall back to brute force).
pub fn optimize_nd(
    map: &IndexMap,
    dec: &DecompNd,
    loop_box: &Bounds,
    p: i64,
) -> Option<ScheduleNd> {
    if map.d_out() != dec.dims() || map.d_in() != loop_box.dims() {
        return None;
    }
    let driver_of_loopdim = drivers(map)?;
    let grid = dec.grid_coords(p);
    let mut axes = vec![Schedule::Empty; map.d_in()];
    let mut kinds = vec![OptKind::EmptyLoop; map.d_in()];
    for (loop_dim, driver) in driver_of_loopdim.iter().enumerate() {
        let (imin, imax) = (loop_box.lo()[loop_dim], loop_box.hi()[loop_dim]);
        match driver {
            Some(out_axis) => {
                let f = &map.dims()[*out_axis].f;
                let d1 = &dec.axes()[*out_axis];
                let opt = optimize(f, d1, imin, imax, grid[*out_axis]);
                axes[loop_dim] = opt.schedule;
                kinds[loop_dim] = opt.kind;
            }
            None => {
                // loop dim not used by the access: every index iterates
                axes[loop_dim] = Schedule::range(imin, imax);
                kinds[loop_dim] = OptKind::EmptyLoop;
            }
        }
    }
    Some(ScheduleNd { axes, kinds })
}

/// One array access of the clause with the layout it addresses.
struct Access<'a> {
    aref: &'a ArrayRef,
    dec: &'a DecompNd,
    /// Per processor, the row-major strides of its local box.
    strides: Vec<Vec<i64>>,
}

impl<'a> Access<'a> {
    fn new(
        aref: &'a ArrayRef,
        decomps: &'a BTreeMap<String, DecompNd>,
        bx: &Bounds,
    ) -> Result<Self, PlanError> {
        let ArrayRef { array, map } = aref;
        let dec = decomps
            .get(array)
            .ok_or_else(|| PlanError::MissingDecomposition(array.clone()))?;
        if map.d_in() != bx.dims() || map.d_out() != dec.dims() {
            return Err(PlanError::RankMismatch(array.clone()));
        }
        for (df, axis) in map.dims().iter().zip(dec.axes()) {
            let (lo, hi) = (bx.lo()[df.src], bx.hi()[df.src]);
            PlanError::check_extent(&df.f, lo, hi, array, &axis.extent())?;
        }
        let strides = (0..dec.pmax()).map(|p| {
            let local = dec.local_bounds(p);
            let mut strides = vec![1i64; dec.dims()];
            for k in (1..dec.dims()).rev() {
                strides[k - 1] = strides[k] * local.extent(k);
            }
            strides
        });
        Ok(Access {
            aref,
            dec,
            strides: strides.collect(),
        })
    }
}

/// One loop dimension of a Modify set, cut so that along it every read
/// slot has one owner per piece.
struct AxisPiece {
    run: Nest,
    /// Per read slot, the grid coordinate that owns the read on the
    /// output axis this dimension drives (0 when it drives none).
    owner: Vec<i64>,
}

/// The schedule's indices as ascending runs: a per-axis schedule may
/// visit in another order, the lowered tables visit row-major.
fn ascending(s: &Schedule) -> Vec<Nest> {
    let mut runs = flatten_schedule(s);
    for r in &mut runs {
        let (count, step) = r.levels[0];
        if step < 0 {
            *r = Nest::run(r.base + step * (count - 1), -step, count);
        }
    }
    let sorted = runs.iter().all(|r| r.stride(0) > 0 || r.count(0) == 1)
        && runs.windows(2).all(|w| w[0].hull().1 < w[1].base);
    if !sorted {
        let mut idx = s.to_sorted_vec();
        idx.dedup();
        runs.clear();
        coalesce_ordered(&idx, &mut runs);
    }
    runs
}

/// The tables of every node while the clause's runs are pushed into
/// them, in row-major order per node.
struct Lowering<'a> {
    bx: Bounds,
    lhs: Access<'a>,
    reads: Vec<Access<'a>>,
    /// Per node, its rows so far, one-level entries in visit order. A
    /// remote slot names its source processor, and its pattern's base
    /// where the row starts in the slot's stream from that source, until
    /// [`Lowering::finish`] has cut the pair into packets.
    rows: Vec<Vec<ExecRun>>,
    /// `recv[p][q][slot]`: the runs node `p` reads from `q`, in visit
    /// order, a row that repeats its predecessor's shape one stride on
    /// folded into it as one more rep. Sender and receiver both take their
    /// tables from this one list, so they agree on packing order and on
    /// the packet cut.
    recv: Vec<Vec<Vec<Vec<CommRun>>>>,
    /// Per node, the loop-overhead estimate of its Modify schedule.
    work: Vec<u64>,
}

impl<'a> Lowering<'a> {
    /// The linearised index of loop point `i`: its row-major offset in
    /// the loop box plus the innermost lower bound, so that along a row
    /// the index advances with the innermost loop coordinate (and in one
    /// dimension is the loop index itself).
    fn lin(&self, i: &Ix) -> i64 {
        self.bx.linear_offset(i) as i64 + self.bx.lo()[self.bx.dims() - 1]
    }

    /// Inverse of [`Lowering::lin`].
    fn point(&self, lin: i64) -> Ix {
        let lo = self.bx.lo()[self.bx.dims() - 1];
        self.bx.from_linear_offset((lin - lo) as usize)
    }

    /// The local offsets, in processor `q`'s part, of the elements `a`
    /// addresses along `run`, whose first loop point is `at`. One row, so only the innermost loop
    /// coordinate moves: the output axes it drives contribute their 1-D
    /// pattern scaled by the local box's stride, the others a constant.
    fn offsets(&self, a: &Access, q: i64, at: &Ix, run: Nest) -> AccessPattern {
        let inner = self.bx.dims() - 1;
        let row = Nest {
            base: at[inner],
            ..run
        };
        let (mut base, mut step) = (0i64, 0i64);
        let mut table: Option<Vec<i64>> = None;
        let axes = a.aref.map.dims().iter().zip(a.dec.axes());
        for ((df, axis), stride) in axes.zip(&a.strides[q as usize]) {
            if df.src != inner {
                base += stride * axis.local_of(df.f.eval(at[df.src]));
                continue;
            }
            let pattern = local_pattern(&row, &df.f, axis).expect("a row is one level");
            match pattern.table {
                None => {
                    base += stride * pattern.nest.base;
                    step += stride * pattern.nest.stride(0);
                }
                Some(offs) => {
                    let sum = table.get_or_insert_with(|| vec![0; offs.len()]);
                    for (x, o) in sum.iter_mut().zip(offs.iter()) {
                        *x += stride * o;
                    }
                }
            }
        }
        match table {
            None => AccessPattern::affine(Nest::run(base, step, run.count(0))),
            Some(sum) => AccessPattern::compress(
                (sum.iter().enumerate())
                    .map(|(t, x)| base + step * t as i64 + x)
                    .collect(),
            ),
        }
    }

    /// Append one run of node `p`'s Modify set whose reads of slot `s`
    /// all belong to processor `owners[s]`.
    fn push(&mut self, p: usize, mut run: Nest, owners: &[i64]) {
        if run.count(0) == 1 {
            run.levels[0].1 = 1;
        }
        let at = self.point(run.base);
        let mut remote_elems = 0;
        let mut slots = Vec::with_capacity(owners.len());
        for (slot, &q) in owners.iter().enumerate() {
            if q == p as i64 {
                let local = self.offsets(&self.reads[slot], q, &at, run);
                slots.push(SlotAccess::Local(local));
                continue;
            }
            let runs = &mut self.recv[p][q as usize][slot];
            let pos = runs.iter().map(|r| r.nest.len()).sum::<u64>() as i64;
            let next = CommRun { slot, nest: run };
            if !(runs.last_mut()).is_some_and(|last| last.absorb(&next)) {
                runs.push(next);
            }
            slots.push(SlotAccess::Packet {
                src_ord: q as usize,
                pkt_ord: 0,
                pattern: AccessPattern::affine(Nest::run(pos, 1, run.count(0))),
            });
            remote_elems += run.len();
        }
        let lhs = self.offsets(&self.lhs, p as i64, &at, run);
        self.rows[p].push(ExecRun {
            index: run,
            boundary: remote_elems > 0,
            lhs,
            slots,
            remote_elems,
        });
    }

    /// Per-axis run algebra, for maps that factorize: tile every axis of
    /// `Modify_p` by the owners of the reads along it, then emit one run
    /// per row of the product and piece of its innermost axis.
    fn product(&mut self) {
        let dims = self.bx.dims();
        let inner = dims - 1;
        // per loop dimension, every read's reside runs along it, tagged
        // by the grid coordinate that owns them
        let index: Vec<_> = (0..dims)
            .map(|d| {
                let (lo, hi) = (self.bx.lo()[d], self.bx.hi()[d]);
                let mut owned = Vec::new();
                for (slot, a) in self.reads.iter().enumerate() {
                    let map = a.aref.map.dims();
                    let Some(k) = map.iter().position(|df| df.src == d) else {
                        continue;
                    };
                    let axis = &a.dec.axes()[k];
                    for c in 0..axis.pmax() {
                        let runs = ascending(&optimize(&map[k].f, axis, lo, hi, c).schedule);
                        let tagged = runs.into_iter().enumerate();
                        owned.extend(tagged.map(|(r, nest)| (slot, nest, (c as usize, r))));
                    }
                }
                receives(self.reads.len(), owned)
            })
            .collect();
        let mut owners = vec![0i64; self.reads.len()];
        for p in 0..self.rows.len() {
            let map = &self.lhs.aref.map;
            let Some(modify) = optimize_nd(map, self.lhs.dec, &self.bx, p as i64) else {
                continue;
            };
            self.work[p] = modify.work_estimate();
            let pieces: Vec<Vec<AxisPiece>> = (modify.axes.iter().zip(&index))
                .map(|(axis, index)| {
                    let mut out = Vec::new();
                    for m in ascending(axis) {
                        pieces(index, &m, &mut |run, sig| {
                            let owner = sig.iter().map(|o| o.map_or(0, |(c, ..)| c as i64));
                            out.push(AxisPiece {
                                run,
                                owner: owner.collect(),
                            });
                        });
                    }
                    out
                })
                .collect();
            if pieces.iter().any(Vec::is_empty) {
                continue;
            }
            // odometer over the outer dimensions: (piece, position in it)
            let mut at = vec![(0usize, 0i64); inner];
            let mut i = self.bx.lo();
            let mut grid = Vec::new();
            loop {
                for (d, &(piece, t)) in at.iter().enumerate() {
                    let run = &pieces[d][piece].run;
                    i[d] = run.base + run.stride(0) * t;
                }
                for row in &pieces[inner] {
                    for (slot, (o, a)) in owners.iter_mut().zip(&self.reads).enumerate() {
                        grid.clear();
                        grid.extend(a.aref.map.dims().iter().map(|df| match at.get(df.src) {
                            Some(&(piece, _)) => pieces[df.src][piece].owner[slot],
                            None => row.owner[slot],
                        }));
                        *o = a.dec.flat_proc(&grid);
                    }
                    i[inner] = row.run.base;
                    let run = Nest {
                        base: self.lin(&i),
                        ..row.run
                    };
                    self.push(p, run, &owners);
                }
                // advance; done when the outermost dimension wraps
                let wrapped = at.iter_mut().zip(&pieces).rev().all(|(at, pieces)| {
                    at.1 += 1;
                    if at.1 == pieces[at.0].run.count(0) {
                        *at = (at.0 + 1, 0);
                    }
                    let wrap = at.0 == pieces.len();
                    if wrap {
                        *at = (0, 0);
                    }
                    wrap
                });
                if wrapped {
                    break;
                }
            }
        }
    }

    /// Enumerate-and-coalesce, for coupled-axis maps: classify every
    /// loop point by its owners and coalesce, per node and row, each
    /// stretch with the same owners.
    fn enumerate(&mut self) {
        let inner = self.bx.dims() - 1;
        // per node, the open stretch: its owners and its indices so far
        let mut open: Vec<(Vec<i64>, Vec<i64>)> = vec![Default::default(); self.rows.len()];
        let mut owners = vec![0i64; self.reads.len()];
        let mut runs = Vec::new();
        let mut close = |this: &mut Self, p: usize, open: &mut (Vec<i64>, Vec<i64>)| {
            runs.clear();
            coalesce_ordered(&open.1, &mut runs);
            for run in &runs {
                this.push(p, *run, &open.0);
            }
            open.1.clear();
        };
        for i in self.bx.iter() {
            if i[inner] == self.bx.lo()[inner] {
                for (p, open) in open.iter_mut().enumerate() {
                    close(self, p, open);
                }
            }
            let p = self.lhs.dec.proc_of(&self.lhs.aref.map.eval(&i)) as usize;
            for (o, a) in owners.iter_mut().zip(&self.reads) {
                *o = a.dec.proc_of(&a.aref.map.eval(&i));
            }
            if open[p].0 != owners {
                close(self, p, &mut open[p]);
                open[p].0.clone_from(&owners);
            }
            open[p].1.push(self.lin(&i));
        }
        for (p, open) in open.iter_mut().enumerate() {
            close(self, p, open);
        }
        self.work.fill(self.bx.count());
    }

    /// Cut every pair's runs into packets of at most `cap` elements,
    /// resolve both ends against the cut — the receiver's packet windows
    /// and the sender's segments — and fold each node's rows into
    /// entries, as `compile_exec` folds cycles.
    fn finish(mut self, cap: u64) -> Vec<CompiledNode> {
        let pmax = self.rows.len();
        let mut sends: Vec<Vec<SendPair>> = vec![Vec::new(); pmax];
        let mut nodes = Vec::with_capacity(pmax);
        for p in 0..pmax {
            let mut src_ord = vec![usize::MAX; pmax];
            let (mut src_peers, mut staging_packets) = (vec![], vec![]);
            // per source: where each slot's stream and each packet start
            // in the pair's stream
            let mut first = vec![Vec::new(); pmax];
            let mut starts = vec![Vec::new(); pmax];
            for (q, per_slot) in std::mem::take(&mut self.recv[p]).into_iter().enumerate() {
                let mut runs: Vec<CommRun> = Vec::new();
                for slot_runs in per_slot {
                    first[q].push(runs.iter().map(|r| r.nest.len()).sum::<u64>());
                    runs.extend(slot_runs);
                }
                if runs.is_empty() {
                    continue;
                }
                let cuts = packetise(&mut runs, cap);
                let pair = PairComm {
                    peer: p as i64,
                    cuts,
                    runs,
                };
                src_ord[q] = src_peers.len();
                src_peers.push(q as i64);
                staging_packets.push(pair.packets().len());
                starts[q] = (pair.packets())
                    .scan(0, |at, runs| {
                        let start = *at;
                        *at += runs.iter().map(|r| r.nest.len()).sum::<u64>();
                        Some(start)
                    })
                    .collect();
                let packed_from = |slot: usize, idx: &Nest| {
                    let at = self.point(idx.base);
                    (idx.depth() <= 1).then(|| self.offsets(&self.reads[slot], q as i64, &at, *idx))
                };
                sends[q].push(send_pair(&pair, packed_from));
            }
            let rows = std::mem::take(&mut self.rows[p]);
            let modify: Vec<Nest> = rows.iter().map(|er| er.index).collect();
            let mut fold = Fold::default();
            for mut er in rows {
                for (slot, sa) in er.slots.iter_mut().enumerate() {
                    if let SlotAccess::Packet {
                        src_ord: so,
                        pkt_ord,
                        pattern,
                    } = sa
                    {
                        let pos = first[*so][slot] + pattern.nest.base as u64;
                        let packet = starts[*so].partition_point(|&s| s <= pos) - 1;
                        pattern.nest.base = (pos - starts[*so][packet]) as i64;
                        (*so, *pkt_ord) = (src_ord[*so], packet);
                    }
                }
                fold.push(er.index, er.lhs, &er.slots, er.remote_elems);
            }
            let exec = fold.entries;
            nodes.push(CompiledNode {
                p: p as i64,
                modify_iters: modify.iter().map(Nest::len).sum(),
                modify,
                modify_work: self.work[p],
                src_ord,
                src_peers,
                staging_packets,
                sends: Vec::new(),
                write_spans: write_spans(&exec, false),
                exec,
            });
        }
        for (node, sends) in nodes.iter_mut().zip(sends) {
            node.sends = sends;
        }
        nodes
    }
}

/// Lower a `//` clause of any dimensionality onto the run tables the
/// machine executes: every array the clause references must have a
/// decomposition in `decomps`, over grids with one total processor
/// count.
pub fn lower_nd(
    clause: &Clause,
    decomps: &BTreeMap<String, DecompNd>,
) -> Result<CompiledSchedule, PlanError> {
    lower_capped(clause, decomps, PACKET_ELEMS)
}

/// [`lower_nd`] with packets of at most `cap` elements.
fn lower_capped(
    clause: &Clause,
    decomps: &BTreeMap<String, DecompNd>,
    cap: u64,
) -> Result<CompiledSchedule, PlanError> {
    let lowering = lower_rows(clause, decomps)?;
    let slot_arrays = (lowering.reads.iter())
        .map(|a| a.aref.array.clone())
        .collect();
    let slot_of = |r: &ArrayRef| lowering.reads.iter().position(|a| a.aref == r);
    let kernel = CompiledKernel::compile(&clause.rhs, lowering.reads.len(), slot_of);
    Ok(CompiledSchedule {
        loop_box: lowering.bx,
        slot_arrays,
        nodes: lowering.finish(cap),
        kernel,
        guarded: !matches!(clause.guard, Guard::Always),
    })
}

/// Every node's rows and every pair's runs, before the packet cut.
fn lower_rows<'a>(
    clause: &'a Clause,
    decomps: &'a BTreeMap<String, DecompNd>,
) -> Result<Lowering<'a>, PlanError> {
    if !clause.iter.pred.is_true() {
        return Err(PlanError::PredicatedIteration);
    }
    let bx = clause.iter.bounds;
    let lhs = Access::new(&clause.lhs, decomps, &bx)?;
    let pmax = lhs.dec.pmax();
    let mut reads: Vec<Access> = Vec::new();
    for r in clause.read_refs() {
        if !reads.iter().any(|a| a.aref == r) {
            let a = Access::new(r, decomps, &bx)?;
            if a.dec.pmax() != pmax {
                return Err(PlanError::ProcessorCountMismatch);
            }
            reads.push(a);
        }
    }
    let factorizes =
        drivers(&lhs.aref.map).is_some() && reads.iter().all(|a| drivers(&a.aref.map).is_some());
    let n = pmax as usize;
    let mut lowering = Lowering {
        bx,
        rows: vec![Vec::new(); n],
        recv: vec![vec![vec![Vec::new(); reads.len()]; n]; n],
        work: vec![0; n],
        lhs,
        reads,
    };
    if bx.is_empty() {
    } else if factorizes {
        lowering.product();
    } else {
        lowering.enumerate();
    }
    Ok(lowering)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vcal_core::func::Fn1;
    use vcal_core::map::DimFn;
    use vcal_core::{Expr, IndexSet, Ordering};
    use vcal_decomp::Decomp1;

    fn grid(n0: i64, n1: i64, p0: i64, p1: i64) -> DecompNd {
        DecompNd::new(vec![
            Decomp1::block(p0, Bounds::range(0, n0 - 1)),
            Decomp1::scatter(p1, Bounds::range(0, n1 - 1)),
        ])
    }

    fn brute(map: &IndexMap, dec: &DecompNd, loop_box: &Bounds, p: i64) -> Vec<Ix> {
        loop_box
            .iter()
            .filter(|i| dec.proc_of(&map.eval(i)) == p)
            .collect()
    }

    #[test]
    fn identity_2d_partition() {
        let dec = grid(12, 10, 2, 2);
        let map = IndexMap::identity(2);
        let lb = Bounds::range2(0, 11, 0, 9);
        let mut total = 0u64;
        for p in 0..dec.pmax() {
            let s = optimize_nd(&map, &dec, &lb, p).unwrap();
            let mut got = Vec::new();
            s.for_each(|i| got.push(*i));
            got.sort();
            let mut want = brute(&map, &dec, &lb, p);
            want.sort();
            assert_eq!(got, want, "p={p}");
            total += s.count();
        }
        assert_eq!(total, 120);
    }

    #[test]
    fn shifted_2d_stencil_access() {
        // A[i-1, 2j+1] under a 2x3 grid
        let dec = DecompNd::new(vec![
            Decomp1::block(2, Bounds::range(-1, 10)),
            Decomp1::block_scatter(2, 3, Bounds::range(0, 25)),
        ]);
        let map = IndexMap::per_dim(vec![Fn1::shift(-1), Fn1::affine(2, 1)]);
        let lb = Bounds::range2(0, 10, 0, 12);
        for p in 0..dec.pmax() {
            let s = optimize_nd(&map, &dec, &lb, p).unwrap();
            let mut got = Vec::new();
            s.for_each(|i| got.push(*i));
            got.sort();
            let mut want = brute(&map, &dec, &lb, p);
            want.sort();
            assert_eq!(got, want, "p={p}");
        }
    }

    #[test]
    fn transpose_access_factorizes() {
        // A[j, i]: output axis 0 reads loop dim 1 and vice versa —
        // still one driver per loop dim, so it factorizes.
        let dec = grid(8, 8, 2, 2);
        let map = IndexMap::permutation(2, &[1, 0]);
        let lb = Bounds::range2(0, 7, 0, 7);
        for p in 0..dec.pmax() {
            let s = optimize_nd(&map, &dec, &lb, p).unwrap();
            let mut got = Vec::new();
            s.for_each(|i| got.push(*i));
            got.sort();
            let mut want = brute(&map, &dec, &lb, p);
            want.sort();
            assert_eq!(got, want, "p={p}");
        }
    }

    #[test]
    fn coupled_axes_rejected() {
        // A[i, i]: loop dim 0 drives both output axes — not factorizable
        let dec = grid(8, 8, 2, 2);
        let map = IndexMap::new(
            2,
            vec![
                DimFn {
                    src: 0,
                    f: Fn1::identity(),
                },
                DimFn {
                    src: 0,
                    f: Fn1::identity(),
                },
            ],
        );
        assert!(optimize_nd(&map, &dec, &Bounds::range2(0, 7, 0, 7), 0).is_none());
    }

    #[test]
    fn unused_loop_dim_iterates_fully() {
        // 1-D data indexed by the first loop dim of a 2-D loop: every j
        // iterates on the owner of row i... here out=1 axis, loop 2-D
        let dec = DecompNd::new(vec![Decomp1::block(4, Bounds::range(0, 15))]);
        let map = IndexMap::new(
            2,
            vec![DimFn {
                src: 0,
                f: Fn1::identity(),
            }],
        );
        let lb = Bounds::range2(0, 15, 0, 3);
        for p in 0..4 {
            let s = optimize_nd(&map, &dec, &lb, p).unwrap();
            assert_eq!(s.count(), 4 * 4, "p={p}"); // 4 owned rows x 4 js
        }
    }

    #[test]
    fn empty_axis_empties_product() {
        let dec = grid(12, 10, 2, 2);
        // constant access on axis 0: only the owner's grid row is active
        let map = IndexMap::new(
            2,
            vec![
                DimFn {
                    src: 0,
                    f: Fn1::Const(0),
                },
                DimFn {
                    src: 1,
                    f: Fn1::identity(),
                },
            ],
        );
        let lb = Bounds::range2(0, 5, 0, 9);
        let mut nonempty = 0;
        for p in 0..4 {
            let s = optimize_nd(&map, &dec, &lb, p).unwrap();
            if s.count() > 0 {
                nonempty += 1;
            }
            let want = brute(&map, &dec, &lb, p);
            assert_eq!(s.count() as usize, want.len(), "p={p}");
        }
        assert_eq!(nonempty, 2); // grid row 0, both columns
    }

    #[test]
    fn work_estimate_reasonable() {
        let dec = grid(64, 64, 2, 2);
        let map = IndexMap::identity(2);
        let lb = Bounds::range2(0, 63, 0, 63);
        let s = optimize_nd(&map, &dec, &lb, 0).unwrap();
        assert_eq!(s.count(), 32 * 32);
        assert!(s.work_estimate() >= s.count());
        assert!(s.work_estimate() < 4 * s.count());
    }

    /// A grid of `dims` axes whose sizes multiply to `pmax`.
    fn grid_shape(rng: &mut StdRng, pmax: i64, dims: usize) -> Vec<i64> {
        let mut shape = vec![1i64; dims];
        let mut rest = pmax;
        for prime in [2, 3] {
            while rest % prime == 0 {
                shape[rng.gen_range(0..dims)] *= prime;
                rest /= prime;
            }
        }
        shape
    }

    /// A random access of a `bx` loop and a layout that covers it:
    /// every output axis an affine function of a loop dimension, the
    /// dimensions permuted — or, `coupled`, two axes driven by one.
    fn random_access(
        rng: &mut StdRng,
        name: &str,
        bx: &Bounds,
        pmax: i64,
        coupled: bool,
    ) -> (ArrayRef, DecompNd) {
        let dims = bx.dims();
        let mut srcs: Vec<usize> = (0..dims).collect();
        for k in (1..dims).rev() {
            srcs.swap(k, rng.gen_range(0..k + 1));
        }
        if coupled {
            srcs[1] = srcs[0];
        }
        let shape = grid_shape(rng, pmax, dims);
        let (mut fns, mut axes) = (Vec::new(), Vec::new());
        for (&src, &procs) in srcs.iter().zip(&shape) {
            let (a, c) = (rng.gen_range(1..3i64), rng.gen_range(-1..3i64));
            let (lo, hi) = (a * bx.lo()[src] + c, a * bx.hi()[src] + c);
            let extent = Bounds::range(lo - rng.gen_range(0..2i64), hi + rng.gen_range(0..3i64));
            axes.push(match rng.gen_range(0..3) {
                0 => Decomp1::block(procs, extent),
                1 => Decomp1::scatter(procs, extent),
                _ => Decomp1::block_scatter(rng.gen_range(1..4), procs, extent),
            });
            fns.push(DimFn {
                src,
                f: Fn1::affine(a, c),
            });
        }
        let aref = ArrayRef::new(name, IndexMap::new(dims, fns));
        (aref, DecompNd::new(axes))
    }

    /// A random clause `W[f(i)] := R0[g0(i)] + R1[g1(i)]` over a 2-D or
    /// 3-D box, with its layouts.
    fn random_clause(rng: &mut StdRng, coupled: bool) -> (Clause, BTreeMap<String, DecompNd>) {
        let dims = rng.gen_range(2..4usize);
        let lo: Vec<i64> = (0..dims).map(|_| rng.gen_range(0..3)).collect();
        let hi: Vec<i64> = lo.iter().map(|l| l + rng.gen_range(2..9i64)).collect();
        let bx = Bounds::new(Ix::new(&lo), Ix::new(&hi));
        let pmax = [1, 2, 3, 4, 6][rng.gen_range(0..5usize)];
        let mut decomps = BTreeMap::new();
        let mut access = |rng: &mut StdRng, name: &str, coupled| {
            let (aref, dec) = random_access(rng, name, &bx, pmax, coupled);
            decomps.insert(name.to_string(), dec);
            aref
        };
        let lhs = access(rng, "W", false);
        let reads = [access(rng, "R0", coupled), access(rng, "R1", false)];
        let clause = Clause {
            iter: IndexSet::full(bx),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs,
            rhs: Expr::add(Expr::Ref(reads[0].clone()), Expr::Ref(reads[1].clone())),
        };
        (clause, decomps)
    }

    /// Check lowered tables against per-element `proc_of`/`local_of`.
    fn check_lowered(clause: &Clause, decomps: &BTreeMap<String, DecompNd>, cap: u64) {
        let cs = lower_capped(clause, decomps, cap).unwrap();
        let what = format!("cap={cap} {clause} {decomps:?}");
        let bx = clause.iter.bounds;
        let inner = bx.dims() - 1;
        let point = |lin: i64| bx.from_linear_offset((lin - bx.lo()[inner]) as usize);
        let dec_w = &decomps[&clause.lhs.array];
        let mut reads: Vec<&ArrayRef> = clause.read_refs();
        reads.dedup();
        let arrays: Vec<&str> = reads.iter().map(|r| r.array.as_str()).collect();
        assert_eq!(cs.slot_arrays, arrays);
        // where `aref` finds loop point `i`: (owner, offset in its part)
        let home = |aref: &ArrayRef, i: &Ix| {
            let (dec, x) = (&decomps[&aref.array], aref.map.eval(i));
            let owner = dec.proc_of(&x);
            let off = dec.local_bounds(owner).linear_offset(&dec.local_of(&x));
            (owner, off as i64)
        };
        // what each packet carries, read off the sender's segments
        let sent = |q: i64, p: i64, packet: usize| -> Vec<(usize, i64)> {
            let pair = cs.nodes[q as usize].sends.iter().find(|s| s.peer == p);
            let segs = &pair.expect("planned pair").packets[packet];
            let mut packed = Vec::new();
            for seg in segs {
                seg.pattern.for_each(|off| packed.push((seg.slot, off)));
            }
            packed
        };
        // per ordered pair, the (packet, position) cells the receiver reads
        let mut routed: BTreeMap<(i64, i64), Vec<(usize, usize)>> = BTreeMap::new();
        for cn in &cs.nodes {
            let p = cn.p;
            let want: Vec<Ix> = (bx.iter())
                .filter(|i| dec_w.proc_of(&clause.lhs.map.eval(i)) == p)
                .collect();
            let mut got = Vec::new();
            for er in &cn.exec {
                let (mut remote, n) = (0, er.index.count(0) as usize);
                for (k, lin) in er.index.expand().into_iter().enumerate() {
                    let (r, t) = ((k / n) as u64, k % n);
                    let first = point(er.index.rep(r).base);
                    let at = |pattern: &AccessPattern| pattern.offset(t) + pattern.shift(r);
                    let i = point(lin);
                    // a level-0 run never leaves its row
                    assert_eq!(i.coords()[..inner], first.coords()[..inner], "{what}");
                    let step = er.index.stride(0);
                    assert_eq!(i[inner], first[inner] + step * t as i64, "{what}");
                    assert_eq!(at(&er.lhs), home(&clause.lhs, &i).1, "{what} p={p} {i}");
                    for (slot, aref) in reads.iter().enumerate() {
                        let (owner, off) = home(aref, &i);
                        match &er.slots[slot] {
                            SlotAccess::Local(pattern) => {
                                assert_eq!((owner, at(pattern)), (p, off), "{what} {i}");
                            }
                            SlotAccess::Packet {
                                src_ord,
                                pkt_ord,
                                pattern,
                            } => {
                                remote += 1;
                                assert_ne!(owner, p, "{what} p={p} {i}: local read marked remote");
                                assert_eq!(cn.src_peers[*src_ord], owner, "{what} p={p} {i}");
                                assert!(*pkt_ord < cn.staging_packets[*src_ord], "{what}");
                                let at = at(pattern) as usize;
                                let packet = sent(owner, p, *pkt_ord);
                                assert_eq!(packet.get(at), Some(&(slot, off)), "{what} p={p} {i}");
                                routed.entry((owner, p)).or_default().push((*pkt_ord, at));
                            }
                        }
                    }
                    got.push(i);
                }
                assert_eq!(
                    (er.remote_elems, er.boundary),
                    (remote, remote > 0),
                    "{what}"
                );
            }
            // every Modify point exactly once, in row-major order
            assert_eq!(got, want, "{what} p={p}");
            crate::compiled::check_write_spans(cn, false, true, &what);
            assert_eq!(cn.modify_iters, want.len() as u64);
        }
        // send multiset = recv multiset per pair, cut into the same
        // packets: every packed cell is read exactly once
        for cn in &cs.nodes {
            for pair in &cn.sends {
                let lens = (pair.packets.iter()).map(|segs| {
                    segs.iter()
                        .map(|s| s.pattern.nest.len() as usize)
                        .sum::<usize>()
                });
                let packed: Vec<(usize, usize)> = (lens.enumerate())
                    .flat_map(|(k, n)| (0..n).map(move |at| (k, at)))
                    .collect();
                let mut want = routed.remove(&(cn.p, pair.peer)).unwrap_or_default();
                want.sort_unstable();
                assert_eq!(packed, want, "{what} {} -> {}", cn.p, pair.peer);
                let dst = &cs.nodes[pair.peer as usize];
                let ord = dst.src_ord[cn.p as usize];
                assert_eq!(dst.staging_packets[ord], pair.packets.len(), "{what}");
            }
        }
        assert!(
            routed.is_empty(),
            "{what}: reads routed to pairs nobody sends"
        );
    }

    #[test]
    fn lowered_tables_match_brute_force() {
        let mut rng = StdRng::seed_from_u64(0x10e5);
        for trial in 0..120 {
            let (clause, decomps) = random_clause(&mut rng, trial % 4 == 3);
            for cap in [PACKET_ELEMS, 1, 3, 8] {
                check_lowered(&clause, &decomps, cap);
            }
        }
    }

    /// The five-point sweep over a `side`² box on a `p0`×`p1` grid of
    /// block layouts, and its lowering.
    fn five_point(side: i64, p0: i64, p1: i64) -> (Clause, BTreeMap<String, DecompNd>) {
        let u = |di: i64, dj: i64| {
            let map = IndexMap::per_dim(vec![Fn1::shift(di), Fn1::shift(dj)]);
            Expr::Ref(ArrayRef::new("U", map))
        };
        let clause = Clause {
            iter: IndexSet::full(Bounds::range2(1, side - 2, 1, side - 2)),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::new("V", IndexMap::identity(2)),
            rhs: Expr::mul(
                Expr::add(Expr::add(u(-1, 0), u(1, 0)), Expr::add(u(0, -1), u(0, 1))),
                Expr::Lit(0.25),
            ),
        };
        let axis = Bounds::range(0, side - 1);
        let dec = DecompNd::new(vec![Decomp1::block(p0, axis), Decomp1::block(p1, axis)]);
        let decomps = [("U", dec.clone()), ("V", dec)]
            .map(|(n, d)| (n.to_string(), d))
            .into();
        (clause, decomps)
    }

    #[test]
    fn five_point_sweep_folds_its_rows() {
        let side = 256i64;
        let (clause, decomps) = five_point(side, 2, 1);
        let cs = lower_nd(&clause, &decomps).unwrap();
        assert!(cs.has_exec());
        for cn in &cs.nodes {
            // the interior rows fold into one entry, the halo row is one
            // more, read from one packet
            assert_eq!(cn.exec.len(), 2);
            let interior = cn.exec.iter().find(|er| !er.boundary).unwrap();
            assert_eq!(interior.index.reps() as i64, side / 2 - 2);
            for er in &cn.exec {
                assert_eq!(er.index.count(0), side - 2);
                assert!(er.lhs.is_unit_stride());
                assert!(er.slots.iter().all(|sa| sa.pattern().is_unit_stride()));
            }
            assert_eq!(cn.census().boundary_runs, 1);
            // one write span per row, two elements apart
            let spans = cn.write_spans.as_ref().expect("contiguous rows");
            assert_eq!(spans.len() as i64, side / 2 - 1);
            assert!(spans.windows(2).all(|w| w[1].0 - w[0].1 == 2));
            assert_eq!(cn.staging_packets, [1]);
            let [segs] = cn.sends[0].packets.as_slice() else {
                panic!("one packet per pair");
            };
            let [seg] = segs.as_slice() else {
                panic!("one segment per packet");
            };
            assert_eq!(seg.slot, if cn.p == 0 { 0 } else { 1 });
            assert_eq!(seg.pattern.nest.levels, [(side - 2, 1), (1, 0), (1, 0)]);
            assert!(cn.approx_bytes() < 64 * side as usize * 8);
        }
        for cap in [1, 3, PACKET_ELEMS] {
            check_lowered(&clause, &decomps, cap);
        }
    }

    /// Split by columns, each node reads a halo column of single
    /// elements, one per row: one comm run per pair and slot, whose reps
    /// are the rows.
    #[test]
    fn five_point_column_halo_is_one_comm_run() {
        let side = 256i64;
        let (clause, decomps) = five_point(side, 1, 2);
        for cap in [1, 3, PACKET_ELEMS] {
            check_lowered(&clause, &decomps, cap);
        }
        let lowering = lower_rows(&clause, &decomps).unwrap();
        for (p, per_src) in lowering.recv.iter().enumerate() {
            let runs: Vec<&CommRun> = per_src.iter().flatten().flatten().collect();
            let [run] = runs.as_slice() else {
                panic!("p={p}: {runs:?}");
            };
            assert_eq!(run.nest.levels[..2], [(1, 1), (side - 2, side - 2)]);
        }
    }
}
