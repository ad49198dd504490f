//! One-dimensional data decompositions (paper Section 2.6 and Figure 2).
//!
//! A decomposition is a view from a global index space onto a
//! `(processor, local)` machine image. The paper's family is
//! **block-scatter** `BS(b)`: split the data into blocks of `b` consecutive
//! elements and deal the blocks to processors round-robin:
//!
//! ```text
//! proc(i)  = (i div b) mod pmax
//! local(i) = b * (i div (b * pmax)) + i mod b
//! ```
//!
//! `Scatter` is `BS(1)`; `Block` is `BS(ceil(n / pmax))` (every processor
//! gets exactly one block). `Replicated` gives every processor a full
//! copy (a read-only decomposition: it has no single owner).

use vcal_core::func::Fn1;
use vcal_core::Bounds;
use vcal_numth::{div_ceil, div_floor, mod_floor};

/// The distribution family of a 1-D decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Distribution {
    /// Contiguous blocks of size `b`, processor `p` owning
    /// `[p*b, (p+1)*b)` (Fig. 2b).
    Block {
        /// Block size.
        b: i64,
    },
    /// Round-robin single elements: `proc(i) = i mod pmax` (Fig. 2c).
    Scatter,
    /// Blocks of size `b` dealt round-robin (Fig. 2a).
    BlockScatter {
        /// Block size.
        b: i64,
    },
    /// Every processor holds the whole array (read-only decomposition).
    Replicated,
}

impl Distribution {
    /// Short display name matching the paper's terminology.
    pub fn name(&self) -> String {
        match self {
            Distribution::Block { b } => format!("Block({b})"),
            Distribution::Scatter => "Scatter".to_string(),
            Distribution::BlockScatter { b } => format!("BS({b})"),
            Distribution::Replicated => "Replicated".to_string(),
        }
    }
}

/// A 1-D decomposition of a global index range over `pmax` processors.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Decomp1 {
    dist: Distribution,
    pmax: i64,
    extent: Bounds,
}

impl Decomp1 {
    /// Create a decomposition of `extent` (a 1-D bounds box) over `pmax`
    /// processors. Panics on invalid parameters ([`Decomp1::try_new`]).
    pub fn new(dist: Distribution, pmax: i64, extent: Bounds) -> Self {
        Decomp1::try_new(dist, pmax, extent).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Create a decomposition, or say why the parameters describe none
    /// this code can represent: fewer than one processor, a block size
    /// below 1, a block layout that cannot hold the extent, or a layout
    /// cycle `b·pmax` beyond `i64`.
    pub fn try_new(dist: Distribution, pmax: i64, extent: Bounds) -> Result<Self, String> {
        if pmax < 1 {
            return Err("need at least one processor".into());
        }
        if extent.dims() != 1 {
            return Err("Decomp1 needs a 1-D extent".into());
        }
        if let Distribution::Block { b } | Distribution::BlockScatter { b } = dist {
            if b < 1 {
                return Err(format!("block size {b} must be >= 1"));
            }
            let cycle = (b.checked_mul(pmax))
                .ok_or_else(|| format!("{} on {pmax} processors overflows", dist.name()))?;
            if matches!(dist, Distribution::Block { .. }) && cycle < extent.count() as i64 {
                return Err(format!(
                    "Block({b}) on {pmax} processors cannot hold {} elements",
                    extent.count()
                ));
            }
        }
        Ok(Decomp1 { dist, pmax, extent })
    }

    /// Block decomposition with the canonical block size
    /// `b = ceil(n / pmax)` (the paper's `pmax.b = f(imax)` case).
    pub fn block(pmax: i64, extent: Bounds) -> Self {
        let n = extent.count() as i64;
        let b = div_ceil(n.max(1), pmax);
        Decomp1::new(Distribution::Block { b }, pmax, extent)
    }

    /// Scatter (cyclic) decomposition.
    pub fn scatter(pmax: i64, extent: Bounds) -> Self {
        Decomp1::new(Distribution::Scatter, pmax, extent)
    }

    /// Block-scatter (block-cyclic) decomposition with block size `b`.
    pub fn block_scatter(b: i64, pmax: i64, extent: Bounds) -> Self {
        Decomp1::new(Distribution::BlockScatter { b }, pmax, extent)
    }

    /// Replicated decomposition.
    pub fn replicated(pmax: i64, extent: Bounds) -> Self {
        Decomp1::new(Distribution::Replicated, pmax, extent)
    }

    /// The distribution family.
    pub fn dist(&self) -> Distribution {
        self.dist
    }

    /// Number of processors.
    pub fn pmax(&self) -> i64 {
        self.pmax
    }

    /// The decomposed global index range.
    pub fn extent(&self) -> Bounds {
        self.extent
    }

    /// Number of elements.
    pub fn len(&self) -> i64 {
        self.extent.count() as i64
    }

    /// Whether the extent is empty.
    pub fn is_empty(&self) -> bool {
        self.extent.is_empty()
    }

    /// Whether every processor holds every element.
    pub fn is_replicated(&self) -> bool {
        matches!(self.dist, Distribution::Replicated)
    }

    #[inline]
    fn zero_based(&self, i: i64) -> i64 {
        i - self.extent.lo()[0]
    }

    /// Owning processor of global index `i` (the paper's `proc(i)`).
    /// For `Replicated` the canonical owner is processor 0.
    #[inline]
    pub fn proc_of(&self, i: i64) -> i64 {
        debug_assert!(
            self.extent.contains(&vcal_core::Ix::d1(i)),
            "index {i} outside extent"
        );
        let x = self.zero_based(i);
        match self.dist {
            Distribution::Block { b } => div_floor(x, b),
            Distribution::Scatter => mod_floor(x, self.pmax),
            Distribution::BlockScatter { b } => mod_floor(div_floor(x, b), self.pmax),
            Distribution::Replicated => 0,
        }
    }

    /// Local memory offset of global index `i` on its owner (the paper's
    /// `local(i)`).
    #[inline]
    pub fn local_of(&self, i: i64) -> i64 {
        debug_assert!(
            self.extent.contains(&vcal_core::Ix::d1(i)),
            "index {i} outside extent"
        );
        let x = self.zero_based(i);
        match self.dist {
            Distribution::Block { b } => mod_floor(x, b),
            Distribution::Scatter => div_floor(x, self.pmax),
            Distribution::BlockScatter { b } => b * div_floor(x, b * self.pmax) + mod_floor(x, b),
            Distribution::Replicated => x,
        }
    }

    /// What moving a global index `shift` places on adds to its local
    /// offset, when that is one constant for every index of `[lo, hi]`
    /// moved to another of `[lo, hi]`: the range lies in one block, or
    /// the shift is a whole number of layout periods.
    pub fn local_shift(&self, lo: i64, hi: i64, shift: i64) -> Option<i64> {
        let one_block =
            |b: i64| div_floor(self.zero_based(lo), b) == div_floor(self.zero_based(hi), b);
        match self.dist {
            Distribution::Replicated => Some(shift),
            Distribution::Block { b } | Distribution::BlockScatter { b } if one_block(b) => {
                Some(shift)
            }
            Distribution::Scatter if shift % self.pmax == 0 => Some(shift / self.pmax),
            Distribution::BlockScatter { b } if shift % (b * self.pmax) == 0 => {
                Some(shift / self.pmax)
            }
            _ => None,
        }
    }

    /// Inverse mapping: the global index stored at `(p, local)`.
    /// Returns values that may fall outside the extent for out-of-range
    /// locals; callers should check with [`Bounds::contains`].
    #[inline]
    pub fn global_of(&self, p: i64, local: i64) -> i64 {
        debug_assert!((0..self.pmax).contains(&p), "processor {p} out of range");
        let lo = self.extent.lo()[0];
        lo + match self.dist {
            Distribution::Block { b } => p * b + local,
            Distribution::Scatter => local * self.pmax + p,
            Distribution::BlockScatter { b } => {
                div_floor(local, b) * b * self.pmax + p * b + mod_floor(local, b)
            }
            Distribution::Replicated => local,
        }
    }

    /// Whether processor `p` holds global index `i` in its local memory.
    #[inline]
    pub fn resides_on(&self, i: i64, p: i64) -> bool {
        if self.is_replicated() {
            return true;
        }
        self.proc_of(i) == p
    }

    /// Number of elements in processor `p`'s local memory.
    pub fn local_count(&self, p: i64) -> i64 {
        debug_assert!((0..self.pmax).contains(&p));
        let n = self.len();
        if n == 0 {
            return 0;
        }
        match self.dist {
            Distribution::Block { b } => (n - p * b).clamp(0, b),
            Distribution::Scatter => {
                if p < n {
                    (n - 1 - p) / self.pmax + 1
                } else {
                    0
                }
            }
            Distribution::BlockScatter { b } => {
                let cycle = b * self.pmax;
                let full = div_floor(n, cycle);
                let rem = mod_floor(n, cycle);
                full * b + (rem - p * b).clamp(0, b)
            }
            Distribution::Replicated => n,
        }
    }

    /// Size of the largest local memory over all processors (the per-node
    /// allocation size of the machine image `A'`).
    pub fn max_local_count(&self) -> i64 {
        (0..self.pmax)
            .map(|p| self.local_count(p))
            .max()
            .unwrap_or(0)
    }

    /// Iterate the global indices owned by `p`, in increasing order.
    pub fn owned_globals(&self, p: i64) -> impl Iterator<Item = i64> + '_ {
        let count = self.local_count(p);
        (0..count).map(move |l| self.global_of(p, l))
    }

    /// The symbolic `proc` function as an [`Fn1`] over global indices —
    /// this is what feeds the ownership predicate `proc(f(i)) = p` into
    /// the Table I classifier.
    pub fn proc_fn(&self) -> Fn1 {
        let lo = self.extent.lo()[0];
        let x = Fn1::shift(-lo);
        match self.dist {
            Distribution::Block { b } => Fn1::Div {
                inner: Box::new(x),
                q: b,
            },
            Distribution::Scatter => Fn1::Mod {
                inner: Box::new(x),
                z: self.pmax,
                d: 0,
            },
            Distribution::BlockScatter { b } => Fn1::Mod {
                inner: Box::new(Fn1::Div {
                    inner: Box::new(x),
                    q: b,
                }),
                z: self.pmax,
                d: 0,
            },
            Distribution::Replicated => Fn1::Const(0),
        }
        .simplify()
    }

    /// The symbolic `local` function as an [`Fn1`] over global indices.
    pub fn local_fn(&self) -> Fn1 {
        let lo = self.extent.lo()[0];
        let x = || Box::new(Fn1::shift(-lo));
        match self.dist {
            Distribution::Block { b } => Fn1::Mod {
                inner: x(),
                z: b,
                d: 0,
            },
            Distribution::Scatter => Fn1::Div {
                inner: x(),
                q: self.pmax,
            },
            Distribution::BlockScatter { b } => Fn1::Sum(
                Box::new(Fn1::Scaled {
                    a: b,
                    c: 0,
                    inner: Box::new(Fn1::Div {
                        inner: x(),
                        q: b * self.pmax,
                    }),
                }),
                Box::new(Fn1::Mod {
                    inner: x(),
                    z: b,
                    d: 0,
                }),
            ),
            Distribution::Replicated => Fn1::shift(-lo),
        }
        .simplify()
    }
}

impl std::fmt::Display for Decomp1 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} of ({}) on {} procs",
            self.dist.name(),
            self.extent,
            self.pmax
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_decomps(n: i64, pmax: i64) -> Vec<Decomp1> {
        let e = Bounds::range(0, n - 1);
        let mut v = vec![
            Decomp1::block(pmax, e),
            Decomp1::scatter(pmax, e),
            Decomp1::replicated(pmax, e),
        ];
        for b in [1, 2, 3, 5] {
            v.push(Decomp1::block_scatter(b, pmax, e));
        }
        v
    }

    #[test]
    fn fig2a_block_scatter() {
        // Fig 2a: BS(2), n = 15, pmax = 4:
        // i:    0 1 2 3 4 5 6 7 8 9 10 11 12 13 14
        // proc: 0 0 1 1 2 2 3 3 0 0  1  1  2  2  3
        let d = Decomp1::block_scatter(2, 4, Bounds::range(0, 14));
        let procs: Vec<i64> = (0..15).map(|i| d.proc_of(i)).collect();
        assert_eq!(procs, vec![0, 0, 1, 1, 2, 2, 3, 3, 0, 0, 1, 1, 2, 2, 3]);
        // locals within p0: i=0,1,8,9 -> 0,1,2,3
        assert_eq!([0, 1, 8, 9].map(|i| d.local_of(i)), [0, 1, 2, 3]);
    }

    #[test]
    fn fig2b_block() {
        // Fig 2b: block, n = 15, pmax = 4, b = ceil(15/4) = 4:
        // proc: 0 0 0 0 1 1 1 1 2 2 2 2 3 3 3
        let d = Decomp1::block(4, Bounds::range(0, 14));
        assert_eq!(d.dist(), Distribution::Block { b: 4 });
        let procs: Vec<i64> = (0..15).map(|i| d.proc_of(i)).collect();
        assert_eq!(procs, vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3]);
        assert_eq!(d.local_count(3), 3);
        assert_eq!(d.local_count(0), 4);
    }

    #[test]
    fn fig2c_scatter() {
        // Fig 2c: scatter, n = 15, pmax = 4:
        // proc: 0 1 2 3 0 1 2 3 0 1 2 3 0 1 2
        let d = Decomp1::scatter(4, Bounds::range(0, 14));
        let procs: Vec<i64> = (0..15).map(|i| d.proc_of(i)).collect();
        assert_eq!(procs, vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2]);
        assert_eq!(d.local_count(0), 4);
        assert_eq!(d.local_count(3), 3);
    }

    #[test]
    fn scatter_is_bs1() {
        let s = Decomp1::scatter(4, Bounds::range(0, 20));
        let bs1 = Decomp1::block_scatter(1, 4, Bounds::range(0, 20));
        for i in 0..=20 {
            assert_eq!(s.proc_of(i), bs1.proc_of(i));
            assert_eq!(s.local_of(i), bs1.local_of(i));
        }
    }

    #[test]
    fn global_of_inverts_proc_local() {
        for d in all_decomps(23, 4) {
            if d.is_replicated() {
                continue;
            }
            for i in 0..23 {
                let (p, l) = (d.proc_of(i), d.local_of(i));
                assert_eq!(d.global_of(p, l), i, "roundtrip failed for {d} at {i}");
            }
        }
    }

    #[test]
    fn local_counts_sum_to_n() {
        for n in [1, 2, 7, 16, 23, 64, 101] {
            for pmax in [1, 2, 3, 4, 7, 16] {
                for d in all_decomps(n, pmax) {
                    if d.is_replicated() {
                        continue;
                    }
                    let total: i64 = (0..pmax).map(|p| d.local_count(p)).sum();
                    assert_eq!(total, n, "counts wrong for {d}");
                    // and match brute force
                    for p in 0..pmax {
                        let brute = (0..n).filter(|&i| d.proc_of(i) == p).count() as i64;
                        assert_eq!(d.local_count(p), brute, "{d} p={p}");
                    }
                }
            }
        }
    }

    #[test]
    fn owned_globals_match_brute_force() {
        for d in all_decomps(23, 4) {
            if d.is_replicated() {
                continue;
            }
            for p in 0..4 {
                let got: Vec<i64> = d.owned_globals(p).collect();
                let brute: Vec<i64> = (0..23).filter(|&i| d.proc_of(i) == p).collect();
                assert_eq!(got, brute, "{d} p={p}");
            }
        }
    }

    #[test]
    fn symbolic_fns_agree_with_methods() {
        for d in all_decomps(23, 4) {
            let pf = d.proc_fn();
            let lf = d.local_fn();
            for i in 0..23 {
                if !d.is_replicated() {
                    assert_eq!(pf.eval(i), d.proc_of(i), "{d} proc_fn at {i}");
                }
                assert_eq!(lf.eval(i), d.local_of(i), "{d} local_fn at {i}");
            }
        }
    }

    #[test]
    fn nonzero_based_extent() {
        let d = Decomp1::block_scatter(2, 3, Bounds::range(10, 27));
        for i in 10..=27 {
            let (p, l) = (d.proc_of(i), d.local_of(i));
            assert!((0..3).contains(&p));
            assert_eq!(d.global_of(p, l), i);
            assert_eq!(d.proc_fn().eval(i), p);
            assert_eq!(d.local_fn().eval(i), l);
        }
    }

    #[test]
    fn replicated_semantics() {
        let d = Decomp1::replicated(4, Bounds::range(0, 9));
        assert!(d.is_replicated());
        for i in 0..10 {
            for p in 0..4 {
                assert!(d.resides_on(i, p));
            }
        }
        assert_eq!(d.local_count(2), 10);
        assert_eq!(d.max_local_count(), 10);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn undersized_block_rejected() {
        let _ = Decomp1::new(Distribution::Block { b: 2 }, 4, Bounds::range(0, 14));
    }

    #[test]
    fn unrepresentable_layouts_are_errors() {
        let e = Bounds::range(0, 9);
        let bs = |b| Distribution::BlockScatter { b };
        for (dist, pmax, why) in [
            (bs(1 << 62), 2, "overflows"),
            (bs(4), 1 << 62, "overflows"),
            (bs(3_074_457_345_618_258_603), 3, "overflows"),
            (bs(i64::MAX), 2, "overflows"),
            (bs(0), 2, ">= 1"),
            (Distribution::Block { b: -1 }, 2, ">= 1"),
            (Distribution::Block { b: 4 }, 2, "cannot hold"),
            (Distribution::Scatter, 0, "processor"),
        ] {
            let err = Decomp1::try_new(dist, pmax, e).unwrap_err();
            assert!(err.contains(why), "{dist:?} on {pmax}: {err}");
        }
        assert!(Decomp1::try_new(bs(1 << 61), 4, e).is_err());
        assert!(Decomp1::try_new(bs(1 << 61), 3, e).is_ok());
    }
}
