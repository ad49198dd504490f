//! Multi-dimensional decompositions over processor grids.
//!
//! The paper restricts its derivations to one dimension "for reasons of
//! clarity"; the natural d-dimensional generalization (the one HPF later
//! standardized) decomposes each axis independently onto one axis of a
//! processor grid. A [`DecompNd`] is a per-axis vector of [`Decomp1`]s; an
//! undistributed axis is simply an axis decomposed on a grid dimension of
//! size 1.

use crate::dist::Decomp1;
use vcal_core::{Bounds, Ix};

/// A d-dimensional decomposition: axis `k` of the data is distributed by
/// `axes[k]` over dimension `k` of the processor grid.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DecompNd {
    axes: Vec<Decomp1>,
}

impl DecompNd {
    /// Build from per-axis decompositions. The flat processor id is
    /// row-major over the implied grid `axes[0].pmax() x axes[1].pmax() x ...`.
    pub fn new(axes: Vec<Decomp1>) -> Self {
        assert!(!axes.is_empty() && axes.len() <= vcal_core::ix::MAX_DIMS);
        DecompNd { axes }
    }

    /// Dimensionality of the data.
    pub fn dims(&self) -> usize {
        self.axes.len()
    }

    /// Per-axis decompositions.
    pub fn axes(&self) -> &[Decomp1] {
        &self.axes
    }

    /// Total number of processors (grid volume).
    pub fn pmax(&self) -> i64 {
        self.axes.iter().map(|a| a.pmax()).product()
    }

    /// The global data extent.
    pub fn extent(&self) -> Bounds {
        let lo: Vec<i64> = self.axes.iter().map(|a| a.extent().lo()[0]).collect();
        let hi: Vec<i64> = self.axes.iter().map(|a| a.extent().hi()[0]).collect();
        Bounds::new(Ix::new(&lo), Ix::new(&hi))
    }

    /// Grid coordinates of flat processor id `p` (row-major).
    pub fn grid_coords(&self, p: i64) -> Vec<i64> {
        let mut coords = vec![0; self.dims()];
        let mut rest = p;
        for k in (0..self.dims()).rev() {
            let extent = self.axes[k].pmax();
            coords[k] = rest % extent;
            rest /= extent;
        }
        coords
    }

    /// Flat processor id from grid coordinates.
    pub fn flat_proc(&self, coords: &[i64]) -> i64 {
        assert_eq!(coords.len(), self.dims());
        let mut p = 0;
        for (k, &c) in coords.iter().enumerate() {
            debug_assert!((0..self.axes[k].pmax()).contains(&c));
            p = p * self.axes[k].pmax() + c;
        }
        p
    }

    /// Owning (flat) processor of global index `i`.
    pub fn proc_of(&self, i: &Ix) -> i64 {
        debug_assert_eq!(i.dims(), self.dims());
        let coords: Vec<i64> = (0..self.dims())
            .map(|k| self.axes[k].proc_of(i[k]))
            .collect();
        self.flat_proc(&coords)
    }

    /// Local index of global index `i` on its owner.
    pub fn local_of(&self, i: &Ix) -> Ix {
        debug_assert_eq!(i.dims(), self.dims());
        let coords: Vec<i64> = (0..self.dims())
            .map(|k| self.axes[k].local_of(i[k]))
            .collect();
        Ix::new(&coords)
    }

    /// Global index stored at `(p, local)`.
    pub fn global_of(&self, p: i64, local: &Ix) -> Ix {
        let g = self.grid_coords(p);
        let coords: Vec<i64> = (0..self.dims())
            .map(|k| self.axes[k].global_of(g[k], local[k]))
            .collect();
        Ix::new(&coords)
    }

    /// The local index box of processor `p` (zero-based per axis, sized by
    /// the per-axis local counts).
    pub fn local_bounds(&self, p: i64) -> Bounds {
        let g = self.grid_coords(p);
        let lo = vec![0i64; self.dims()];
        let hi: Vec<i64> = (0..self.dims())
            .map(|k| self.axes[k].local_count(g[k]) - 1)
            .collect();
        Bounds::new(Ix::new(&lo), Ix::new(&hi))
    }

    /// Iterate all global indices owned by `p` in lexicographic order.
    pub fn owned_globals(&self, p: i64) -> impl Iterator<Item = Ix> + '_ {
        let lb = self.local_bounds(p);
        lb.iter().map(move |l| self.global_of(p, &l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_2x2() -> DecompNd {
        // 8x6 matrix, rows block over 2 procs, cols scatter over 2 procs
        DecompNd::new(vec![
            Decomp1::block(2, Bounds::range(0, 7)),
            Decomp1::scatter(2, Bounds::range(0, 5)),
        ])
    }

    #[test]
    fn grid_roundtrip() {
        let d = grid_2x2();
        assert_eq!(d.pmax(), 4);
        for p in 0..4 {
            let c = d.grid_coords(p);
            assert_eq!(d.flat_proc(&c), p);
        }
    }

    #[test]
    fn ownership_partitions_matrix() {
        let d = grid_2x2();
        let mut count = std::collections::HashMap::new();
        for i in d.extent().iter() {
            let p = d.proc_of(&i);
            *count.entry(p).or_insert(0) += 1;
            // roundtrip
            assert_eq!(d.global_of(p, &d.local_of(&i)), i);
        }
        // 8*6 = 48 elements over 4 procs, rows split 4/4, cols 3/3
        assert_eq!(count.values().sum::<i32>(), 48);
        for p in 0..4 {
            assert_eq!(count[&p], 12, "p={p}");
        }
    }

    #[test]
    fn owned_globals_cover() {
        let d = grid_2x2();
        let mut seen = std::collections::HashSet::new();
        for p in 0..4 {
            let lb = d.local_bounds(p);
            assert_eq!(lb.count(), 12);
            for g in d.owned_globals(p) {
                assert_eq!(d.proc_of(&g), p);
                assert!(seen.insert(g));
            }
        }
        assert_eq!(seen.len(), 48);
    }

    #[test]
    fn undistributed_axis_via_unit_grid() {
        // rows block over 3 procs, columns not distributed
        let d = DecompNd::new(vec![
            Decomp1::block(3, Bounds::range(0, 8)),
            Decomp1::block(1, Bounds::range(0, 4)),
        ]);
        assert_eq!(d.pmax(), 3);
        assert_eq!(d.proc_of(&Ix::d2(0, 4)), 0);
        assert_eq!(d.proc_of(&Ix::d2(8, 0)), 2);
        assert_eq!(d.local_bounds(0), Bounds::range2(0, 2, 0, 4));
    }
}
