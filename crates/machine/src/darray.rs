//! Distributed arrays: the machine image `A'` of Section 2.6 — per-node
//! local memories indexed by the decomposition's `local` function.

use vcal_core::Array;
use vcal_decomp::{Decomp1, Distribution};

/// A 1-D array physically split into per-processor local memories
/// according to a [`Decomp1`]. Replicated decompositions give every node
/// a full copy.
#[derive(Debug, Clone, PartialEq)]
pub struct DistArray {
    decomp: Decomp1,
    parts: Vec<Vec<f64>>,
}

/// Node `p`'s part as the contiguous stretches of the global image it is
/// made of, in local order: `(zero-based global offset, length)` per
/// stretch. What moves between an image and its parts follows from the
/// distribution alone — one stretch for a Block or Replicated part, one
/// per dealt block for BlockScatter(b) — so `global_of` is asked once
/// per stretch, never per element.
fn stretches(dec: &Decomp1, p: i64) -> impl Iterator<Item = (usize, usize)> + '_ {
    let count = dec.local_count(p);
    let b = match dec.dist() {
        Distribution::BlockScatter { b } => b,
        Distribution::Scatter => 1,
        Distribution::Block { .. } | Distribution::Replicated => count.max(1),
    };
    let lo = dec.extent().lo()[0];
    (0..count).step_by(b as usize).map(move |l| {
        let g = dec.global_of(p, l) - lo;
        (g as usize, b.min(count - l) as usize)
    })
}

impl DistArray {
    /// Zero-filled distributed array.
    pub fn zeros(decomp: Decomp1) -> Self {
        let parts = (0..decomp.pmax())
            .map(|p| vec![0.0; decomp.local_count(p) as usize])
            .collect();
        DistArray { decomp, parts }
    }

    /// Scatter a global array into its distributed image.
    /// Panics if the bounds do not match the decomposition extent.
    pub fn scatter_from(global: &Array, decomp: Decomp1) -> Self {
        assert_eq!(
            global.bounds(),
            decomp.extent(),
            "array bounds must equal the decomposed extent"
        );
        DistArray::scatter_slice(global.data(), decomp)
    }

    /// Scatter a flat global image — `image[k]` is global index
    /// `extent.lo + k` — into its distributed image, one slice copy per
    /// contiguous stretch (a strided walk for Scatter).
    /// Panics if the image does not hold exactly the extent.
    pub fn scatter_slice(image: &[f64], decomp: Decomp1) -> Self {
        assert_eq!(
            image.len() as i64,
            decomp.len(),
            "image length must equal the decomposed extent"
        );
        let parts = (0..decomp.pmax())
            .map(|p| {
                let mut part = Vec::with_capacity(decomp.local_count(p) as usize);
                if decomp.dist() == Distribution::Scatter {
                    let every = decomp.pmax() as usize;
                    part.extend(image.iter().skip(p as usize).step_by(every));
                } else {
                    for (g, len) in stretches(&decomp, p) {
                        part.extend_from_slice(&image[g..g + len]);
                    }
                }
                part
            })
            .collect();
        DistArray { decomp, parts }
    }

    /// Gather the distributed image back into a global array.
    pub fn gather(&self) -> Array {
        let mut out = Array::zeros(self.decomp.extent());
        self.gather_into(out.data_mut());
        out
    }

    /// Gather the distributed image into a flat global image (the
    /// inverse of [`DistArray::scatter_slice`]), stretch by stretch.
    /// Panics if `image` does not hold exactly the extent.
    pub fn gather_into(&self, image: &mut [f64]) {
        assert_eq!(
            image.len() as i64,
            self.decomp.len(),
            "image length must equal the decomposed extent"
        );
        // every node of a replicated layout holds the whole image
        let owners = if self.decomp.is_replicated() {
            1
        } else {
            self.decomp.pmax()
        };
        for p in 0..owners {
            let part = &self.parts[p as usize];
            if self.decomp.dist() == Distribution::Scatter {
                let every = self.decomp.pmax() as usize;
                let slots = image.iter_mut().skip(p as usize).step_by(every);
                for (slot, v) in slots.zip(part) {
                    *slot = *v;
                }
            } else {
                let mut l = 0;
                for (g, len) in stretches(&self.decomp, p) {
                    image[g..g + len].copy_from_slice(&part[l..l + len]);
                    l += len;
                }
            }
        }
    }

    /// Like [`DistArray::gather_into`], but only the local offsets
    /// `spans[p]` (sorted, disjoint, half-open) of each node's part.
    pub(crate) fn gather_spans_into(&self, image: &mut [f64], spans: &[Vec<(usize, usize)>]) {
        for (p, spans) in spans.iter().enumerate() {
            let (mut l, mut spans) = (0, spans.iter());
            let mut span = spans.next();
            for (g, len) in stretches(&self.decomp, p as i64) {
                // a span that runs past this stretch stays for the next
                while let Some(&(lo, hi)) = span.filter(|s| s.0 < l + len) {
                    let (a, b) = (lo.max(l), hi.min(l + len));
                    image[g + a - l..g + b - l].copy_from_slice(&self.parts[p][a..b]);
                    if hi > l + len {
                        break;
                    }
                    span = spans.next();
                }
                l += len;
            }
        }
    }

    /// Trade every node's part with `other`'s (of the same decomposition),
    /// except that the local offsets outside `spans[p]` stay where they
    /// were. Swaps, never clones, a part.
    pub(crate) fn trade_parts(&mut self, other: &mut DistArray, spans: &[Vec<(usize, usize)>]) {
        for ((a, b), spans) in self.parts.iter_mut().zip(&mut other.parts).zip(spans) {
            std::mem::swap(a, b);
            let mut at = 0;
            for &(lo, hi) in spans {
                a[at..lo].swap_with_slice(&mut b[at..lo]);
                at = hi;
            }
            a[at..].swap_with_slice(&mut b[at..]);
        }
    }

    /// The decomposition.
    pub fn decomp(&self) -> &Decomp1 {
        &self.decomp
    }

    /// Read the value of global index `g` from node `p`'s memory.
    /// Panics (in debug) if `g` does not reside on `p`.
    #[inline]
    pub fn read_local(&self, p: i64, g: i64) -> f64 {
        debug_assert!(self.decomp.resides_on(g, p), "global {g} not on node {p}");
        let l = self.decomp.local_of(g) as usize;
        self.parts[p as usize][l]
    }

    /// Split into per-node local memories (consumes the array; the
    /// executor hands each `Vec` to its node thread and reassembles).
    pub fn into_parts(self) -> (Decomp1, Vec<Vec<f64>>) {
        (self.decomp, self.parts)
    }

    /// Reassemble from parts (inverse of [`DistArray::into_parts`]).
    pub fn from_parts(decomp: Decomp1, parts: Vec<Vec<f64>>) -> Self {
        assert_eq!(parts.len() as i64, decomp.pmax());
        for p in 0..decomp.pmax() {
            assert_eq!(parts[p as usize].len() as i64, decomp.local_count(p));
        }
        DistArray { decomp, parts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcal_core::Bounds;

    #[test]
    fn scatter_gather_roundtrip_all_layouts() {
        let global = Array::from_fn(Bounds::range(0, 22), |i| i.scalar() as f64 * 1.5);
        for dec in [
            Decomp1::block(4, Bounds::range(0, 22)),
            Decomp1::scatter(4, Bounds::range(0, 22)),
            Decomp1::block_scatter(3, 4, Bounds::range(0, 22)),
            Decomp1::replicated(4, Bounds::range(0, 22)),
        ] {
            let d = DistArray::scatter_from(&global, dec.clone());
            let back = d.gather();
            assert_eq!(
                back.max_abs_diff(&global),
                0.0,
                "roundtrip failed for {dec}"
            );
        }
    }

    /// The per-element definition the stretch copies replace, kept as
    /// the reference: part `p`, slot `l` holds global `global_of(p, l)`.
    fn oracle_parts(image: &[f64], dec: &Decomp1) -> Vec<Vec<f64>> {
        let lo = dec.extent().lo()[0];
        (0..dec.pmax())
            .map(|p| {
                (0..dec.local_count(p))
                    .map(|l| image[(dec.global_of(p, l) - lo) as usize])
                    .collect()
            })
            .collect()
    }

    #[test]
    fn scatter_and_gather_match_the_per_element_oracle() {
        for (lo, n) in [(0i64, 0i64), (-7, 1), (3, 2), (0, 4), (5, 23), (-40, 97)] {
            let extent = Bounds::range(lo, lo + n - 1);
            let image: Vec<f64> = (0..n).map(|k| k as f64 * 0.25 - 3.0).collect();
            for pmax in [1, 2, 3, 5] {
                let mut layouts = vec![
                    Decomp1::block(pmax, extent),
                    Decomp1::scatter(pmax, extent),
                    Decomp1::replicated(pmax, extent),
                ];
                layouts.extend([1, 3, 16].map(|b| Decomp1::block_scatter(b, pmax, extent)));
                for dec in layouts {
                    let d = DistArray::scatter_slice(&image, dec.clone());
                    assert_eq!(d.parts, oracle_parts(&image, &dec), "scatter {dec}");
                    // gather: per element through `global_of`, every
                    // slot of the image written exactly once
                    let owners = if dec.is_replicated() { 1 } else { pmax };
                    let mut want = vec![f64::NAN; n as usize];
                    for p in 0..owners {
                        for (l, v) in d.parts[p as usize].iter().enumerate() {
                            let g = (dec.global_of(p, l as i64) - lo) as usize;
                            assert!(want[g].is_nan(), "{dec}: global {g} owned twice");
                            want[g] = *v;
                        }
                    }
                    let mut got = vec![f64::NAN; n as usize];
                    d.gather_into(&mut got);
                    assert_eq!(got, image, "gather {dec}");
                    assert_eq!(want, image, "oracle covers the image for {dec}");
                    let stretch_count =
                        (0..pmax).map(|p| stretches(&dec, p).count()).sum::<usize>();
                    if let Distribution::Block { .. } | Distribution::Replicated = dec.dist() {
                        assert!(
                            stretch_count <= pmax as usize,
                            "{dec}: one stretch per node"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn read_local_matches_global() {
        let global = Array::from_fn(Bounds::range(0, 15), |i| (i.scalar() * 10) as f64);
        let dec = Decomp1::block_scatter(2, 4, Bounds::range(0, 15));
        let d = DistArray::scatter_from(&global, dec.clone());
        for g in 0..16 {
            let p = dec.proc_of(g);
            assert_eq!(d.read_local(p, g), (g * 10) as f64);
        }
    }

    #[test]
    fn parts_roundtrip() {
        let dec = Decomp1::scatter(3, Bounds::range(0, 10));
        let d = DistArray::zeros(dec.clone());
        let (dec2, parts) = d.clone().into_parts();
        let d2 = DistArray::from_parts(dec2, parts);
        assert_eq!(d, d2);
    }

    #[test]
    fn replicated_copies_everywhere() {
        let global = Array::from_slice(&[1.0, 2.0, 3.0]);
        let dec = Decomp1::replicated(3, Bounds::range(0, 2));
        let d = DistArray::scatter_from(&global, dec);
        for p in 0..3 {
            for g in 0..3 {
                assert_eq!(d.read_local(p, g), (g + 1) as f64);
            }
        }
    }
}
