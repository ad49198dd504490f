//! Multi-dimensional index points.
//!
//! The paper's index sets are finite sets of `d`-tuples over the integers
//! (Definition 1). [`Ix`] is a small inline `d`-tuple (`d <= MAX_DIMS`),
//! `Copy` so that hot enumeration loops never allocate.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Index, IndexMut};

/// Maximum supported dimensionality of an index set.
///
/// The paper's derivations are carried out in one dimension "for reasons of
/// clarity"; real decompositions rarely exceed 3-D data + 1 spare.
pub const MAX_DIMS: usize = 4;

/// A `d`-dimensional integer index point, stored inline.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Ix {
    len: u8,
    data: [i64; MAX_DIMS],
}

impl Ix {
    /// Create an index from a slice of coordinates. Panics if
    /// `coords.len() > MAX_DIMS` or is zero.
    #[inline]
    pub fn new(coords: &[i64]) -> Self {
        assert!(
            !coords.is_empty() && coords.len() <= MAX_DIMS,
            "index dimensionality must be 1..={MAX_DIMS}, got {}",
            coords.len()
        );
        let mut data = [0i64; MAX_DIMS];
        data[..coords.len()].copy_from_slice(coords);
        Ix {
            len: coords.len() as u8,
            data,
        }
    }

    /// One-dimensional index.
    #[inline]
    pub fn d1(i: i64) -> Self {
        Ix {
            len: 1,
            data: [i, 0, 0, 0],
        }
    }

    /// Two-dimensional index.
    #[inline]
    pub fn d2(i: i64, j: i64) -> Self {
        Ix {
            len: 2,
            data: [i, j, 0, 0],
        }
    }

    /// Three-dimensional index.
    #[inline]
    pub fn d3(i: i64, j: i64, k: i64) -> Self {
        Ix {
            len: 3,
            data: [i, j, k, 0],
        }
    }

    /// Dimensionality of the index.
    #[inline]
    pub fn dims(&self) -> usize {
        self.len as usize
    }

    /// Coordinates as a slice.
    #[inline]
    pub fn coords(&self) -> &[i64] {
        &self.data[..self.len as usize]
    }

    /// The single coordinate of a 1-D index. Panics in debug if `d != 1`.
    #[inline]
    pub fn scalar(&self) -> i64 {
        debug_assert_eq!(self.len, 1, "scalar() on {}-D index", self.len);
        self.data[0]
    }

    /// Append a coordinate, producing a `d+1`-dimensional index.
    /// Used by decompositions to form `(proc, local)` machine indices.
    #[inline]
    pub fn prepend(&self, head: i64) -> Self {
        assert!(
            (self.len as usize) < MAX_DIMS,
            "index dimensionality overflow"
        );
        let mut data = [0i64; MAX_DIMS];
        data[0] = head;
        data[1..=self.len as usize].copy_from_slice(self.coords());
        Ix {
            len: self.len + 1,
            data,
        }
    }

    /// Drop the first coordinate (inverse of [`Ix::prepend`]).
    #[inline]
    pub fn tail(&self) -> Self {
        assert!(self.len >= 2, "tail() needs dims >= 2");
        let mut data = [0i64; MAX_DIMS];
        data[..(self.len - 1) as usize].copy_from_slice(&self.coords()[1..]);
        Ix {
            len: self.len - 1,
            data,
        }
    }

    /// Element-wise addition. Panics in debug on dimension mismatch.
    #[inline]
    pub fn add(&self, other: &Ix) -> Ix {
        debug_assert_eq!(self.len, other.len);
        let mut out = *self;
        for d in 0..self.dims() {
            out.data[d] += other.data[d];
        }
        out
    }

    /// Map each coordinate through `f`.
    #[inline]
    pub fn map(&self, mut f: impl FnMut(i64) -> i64) -> Ix {
        let mut out = *self;
        for d in 0..self.dims() {
            out.data[d] = f(out.data[d]);
        }
        out
    }
}

/// Its dimensionality and the coordinates in use, word by word.
impl Hash for Ix {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u8(self.len);
        self.coords().iter().for_each(|c| state.write_i64(*c));
    }
}

impl Index<usize> for Ix {
    type Output = i64;
    #[inline]
    fn index(&self, d: usize) -> &i64 {
        debug_assert!(d < self.dims());
        &self.data[d]
    }
}

impl IndexMut<usize> for Ix {
    #[inline]
    fn index_mut(&mut self, d: usize) -> &mut i64 {
        debug_assert!(d < self.dims());
        &mut self.data[d]
    }
}

impl From<i64> for Ix {
    #[inline]
    fn from(i: i64) -> Self {
        Ix::d1(i)
    }
}

impl From<(i64, i64)> for Ix {
    #[inline]
    fn from((i, j): (i64, i64)) -> Self {
        Ix::d2(i, j)
    }
}

impl From<(i64, i64, i64)> for Ix {
    #[inline]
    fn from((i, j, k): (i64, i64, i64)) -> Self {
        Ix::d3(i, j, k)
    }
}

impl fmt::Debug for Ix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ix{:?}", self.coords())
    }
}

impl fmt::Display for Ix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.dims() == 1 {
            write!(f, "{}", self.data[0])
        } else {
            write!(f, "(")?;
            for (n, c) in self.coords().iter().enumerate() {
                if n > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{c}")?;
            }
            write!(f, ")")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let i = Ix::new(&[2, 3]);
        assert_eq!(i.dims(), 2);
        assert_eq!(i[0], 2);
        assert_eq!(i[1], 3);
        assert_eq!(i.coords(), &[2, 3]);
        assert_eq!(Ix::d1(7).scalar(), 7);
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn zero_dims_rejected() {
        let _ = Ix::new(&[]);
    }

    #[test]
    fn prepend_and_tail_roundtrip() {
        let i = Ix::d2(4, 5);
        let m = i.prepend(1);
        assert_eq!(m, Ix::d3(1, 4, 5));
        assert_eq!(m.tail(), i);
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(Ix::d2(1, 9) < Ix::d2(2, 0));
        assert!(Ix::d2(1, 1) < Ix::d2(1, 2));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Ix::d1(3).to_string(), "3");
        assert_eq!(Ix::d2(2, 4).to_string(), "(2,4)");
    }

    #[test]
    fn map_and_add() {
        let i = Ix::d2(1, 2);
        assert_eq!(i.map(|x| x * 10), Ix::d2(10, 20));
        assert_eq!(i.add(&Ix::d2(3, 4)), Ix::d2(4, 6));
    }
}
