//! Overlapped (halo / ghost-cell) decompositions — the second of the
//! paper's Section 5 "further research" items ("dynamic- and overlapped
//! decompositions").
//!
//! An [`OverlapDecomp`] extends a block decomposition with `h` ghost cells
//! on each side of every processor's owned range. For stencil accesses
//! `B[i±s]` with `s <= h`, every read becomes local after one ghost
//! exchange per sweep, turning the per-iteration communication of the
//! Section 2.10 template into a single boundary exchange. The machine
//! executes no separate halo program: its packetised Block stencil *is*
//! that exchange, and `tests/comm_vectorization.rs` checks
//! [`OverlapDecomp::exchange_plan`] against the engine's packets.

use crate::dist::{Decomp1, Distribution};

/// A block decomposition widened by `h` ghost cells per side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlapDecomp {
    base: Decomp1,
    halo: i64,
}

/// One ghost-exchange message: `src` sends the globals
/// `[global_lo, global_hi]` (which it owns) to `dst`, which stores them in
/// its ghost region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GhostMsg {
    /// Owner and sender of the boundary elements.
    pub src: i64,
    /// Receiver holding them as ghosts.
    pub dst: i64,
    /// First global index sent.
    pub global_lo: i64,
    /// Last global index sent.
    pub global_hi: i64,
}

impl OverlapDecomp {
    /// Widen a block decomposition by `h >= 0` ghost cells per side.
    /// Panics if `base` is not a block decomposition.
    pub fn new(base: Decomp1, halo: i64) -> Self {
        assert!(
            matches!(base.dist(), Distribution::Block { .. }),
            "overlap decompositions are defined for block layouts"
        );
        assert!(halo >= 0);
        OverlapDecomp { base, halo }
    }

    /// The underlying block decomposition.
    pub fn base(&self) -> &Decomp1 {
        &self.base
    }

    /// Ghost width per side.
    pub fn halo(&self) -> i64 {
        self.halo
    }

    /// The *owned* global range of processor `p` (no ghosts), or `None`
    /// if `p` owns nothing.
    pub fn owned_range(&self, p: i64) -> Option<(i64, i64)> {
        let cnt = self.base.local_count(p);
        if cnt == 0 {
            return None;
        }
        let lo = self.base.global_of(p, 0);
        Some((lo, lo + cnt - 1))
    }

    /// The *stored* global range of `p`: owned range extended by the halo,
    /// clipped to the extent.
    pub fn stored_range(&self, p: i64) -> Option<(i64, i64)> {
        let (lo, hi) = self.owned_range(p)?;
        let e = self.base.extent();
        Some((
            (lo - self.halo).max(e.lo()[0]),
            (hi + self.halo).min(e.hi()[0]),
        ))
    }

    /// Whether `p` can read global `i` without communication (owned or
    /// ghost).
    pub fn readable_locally(&self, i: i64, p: i64) -> bool {
        match self.stored_range(p) {
            Some((lo, hi)) => (lo..=hi).contains(&i),
            None => false,
        }
    }

    /// Local offset of global `i` in `p`'s storage (ghost-inclusive,
    /// starting at 0 for the lowest stored global). Panics if not stored.
    pub fn local_of(&self, i: i64, p: i64) -> i64 {
        let (lo, hi) = self.stored_range(p).expect("processor stores nothing");
        assert!((lo..=hi).contains(&i), "global {i} not stored on {p}");
        i - lo
    }

    /// Storage size (owned + ghosts) of processor `p`.
    pub fn storage_count(&self, p: i64) -> i64 {
        match self.stored_range(p) {
            Some((lo, hi)) => hi - lo + 1,
            None => 0,
        }
    }

    /// The complete ghost-exchange schedule for one sweep: every processor
    /// sends its boundary elements to neighbours whose halo covers them.
    pub fn exchange_plan(&self) -> Vec<GhostMsg> {
        let pmax = self.base.pmax();
        let mut msgs = Vec::new();
        for dst in 0..pmax {
            let Some((olo, ohi)) = self.owned_range(dst) else {
                continue;
            };
            let Some((slo, shi)) = self.stored_range(dst) else {
                continue;
            };
            // left ghosts [slo, olo-1] and right ghosts [ohi+1, shi]
            for (glo, ghi) in [(slo, olo - 1), (ohi + 1, shi)] {
                if glo > ghi {
                    continue;
                }
                // group the ghost range by owner (a halo can span blocks)
                let mut i = glo;
                while i <= ghi {
                    let src = self.base.proc_of(i);
                    let src_cnt = self.base.local_count(src);
                    let src_hi = self.base.global_of(src, src_cnt - 1);
                    let run_hi = src_hi.min(ghi);
                    msgs.push(GhostMsg {
                        src,
                        dst,
                        global_lo: i,
                        global_hi: run_hi,
                    });
                    i = run_hi + 1;
                }
            }
        }
        msgs
    }

    /// Total elements exchanged per sweep.
    pub fn exchange_volume(&self) -> i64 {
        self.exchange_plan()
            .iter()
            .map(|m| m.global_hi - m.global_lo + 1)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcal_core::Bounds;

    fn overlap(n: i64, pmax: i64, h: i64) -> OverlapDecomp {
        OverlapDecomp::new(Decomp1::block(pmax, Bounds::range(0, n - 1)), h)
    }

    #[test]
    fn stored_ranges_extend_owned() {
        let d = overlap(16, 4, 1); // blocks of 4
        assert_eq!(d.owned_range(1), Some((4, 7)));
        assert_eq!(d.stored_range(1), Some((3, 8)));
        // edges clip to the extent
        assert_eq!(d.stored_range(0), Some((0, 4)));
        assert_eq!(d.stored_range(3), Some((11, 15)));
    }

    #[test]
    fn stencil_reads_become_local() {
        let d = overlap(16, 4, 1);
        // every owner can read i-1 and i+1 of its owned range locally
        for p in 0..4 {
            let (lo, hi) = d.owned_range(p).unwrap();
            for i in lo..=hi {
                for s in [-1i64, 0, 1] {
                    let j = i + s;
                    if (0..16).contains(&j) {
                        assert!(d.readable_locally(j, p), "p={p} j={j}");
                    }
                }
            }
        }
        // but not two away
        assert!(!d.readable_locally(9, 0));
    }

    #[test]
    fn exchange_plan_is_neighbor_only_for_small_halo() {
        let d = overlap(16, 4, 1);
        let plan = d.exchange_plan();
        // interior procs receive 2 msgs, edges 1: total 6 messages of 1 elem
        assert_eq!(plan.len(), 6);
        assert_eq!(d.exchange_volume(), 6);
        for m in &plan {
            assert_eq!((m.src - m.dst).abs(), 1, "non-neighbor msg {m:?}");
            assert_eq!(m.global_lo, m.global_hi);
            // the source really owns what it sends
            assert_eq!(d.base().proc_of(m.global_lo), m.src);
        }
    }

    #[test]
    fn wide_halo_spans_multiple_owners() {
        let d = overlap(16, 4, 6); // halo wider than one block of 4
        let plan = d.exchange_plan();
        // p0's right halo covers globals 4..=9, owned by p1 (4..=7) and p2 (8..=9)
        let p0_right: Vec<_> = plan
            .iter()
            .filter(|m| m.dst == 0 && m.global_lo > 3)
            .collect();
        assert_eq!(p0_right.len(), 2);
        assert_eq!(p0_right[0].src, 1);
        assert_eq!(p0_right[1].src, 2);
        // every ghost cell of every processor is covered exactly once
        for p in 0..4 {
            let (olo, ohi) = d.owned_range(p).unwrap();
            let (slo, shi) = d.stored_range(p).unwrap();
            for g in slo..=shi {
                if (olo..=ohi).contains(&g) {
                    continue;
                }
                let covers: Vec<_> = plan
                    .iter()
                    .filter(|m| m.dst == p && (m.global_lo..=m.global_hi).contains(&g))
                    .collect();
                assert_eq!(covers.len(), 1, "ghost {g} of p{p} covered {covers:?}");
            }
        }
    }

    #[test]
    fn zero_halo_means_no_exchange() {
        let d = overlap(16, 4, 0);
        assert!(d.exchange_plan().is_empty());
        assert_eq!(d.storage_count(0), 4);
    }

    #[test]
    #[should_panic(expected = "block layouts")]
    fn scatter_base_rejected() {
        let _ = OverlapDecomp::new(Decomp1::scatter(4, Bounds::range(0, 15)), 1);
    }
}
