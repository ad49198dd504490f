//! Multi-dimensional index-propagation maps.
//!
//! The paper's derivations are one-dimensional; real arrays are not. An
//! [`IndexMap`] applies, per *output* dimension, a symbolic [`Fn1`] to one
//! chosen *input* dimension. This covers everything the paper's view
//! machinery needs — shifts (`A[i-1, j]`), strides, transposes
//! (`A[j, i]`), rotations, and broadcasts of a constant coordinate — while
//! remaining closed under composition, so parameter-expression contraction
//! (Definition 5) stays exact in any dimension.

use crate::func::Fn1;
use crate::ix::Ix;
use std::fmt;

/// One output coordinate of an [`IndexMap`]: `out[d] = f(in[src])`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DimFn {
    /// Which input dimension feeds this output dimension.
    pub src: usize,
    /// The 1-D function applied to that coordinate.
    pub f: Fn1,
}

/// A `d_in -> d_out` index-propagation function built from per-dimension
/// [`Fn1`]s and a source-dimension selection (generalized permutation).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IndexMap {
    dims: Vec<DimFn>,
    d_in: usize,
}

impl IndexMap {
    /// Build from explicit per-output-dimension specs.
    /// Panics if any `src >= d_in`.
    pub fn new(d_in: usize, dims: Vec<DimFn>) -> Self {
        assert!(!dims.is_empty(), "IndexMap needs at least one output dim");
        for (d, df) in dims.iter().enumerate() {
            assert!(
                df.src < d_in,
                "output dim {d} reads input dim {} but d_in = {d_in}",
                df.src
            );
        }
        IndexMap { dims, d_in }
    }

    /// Identity map on `d` dimensions.
    pub fn identity(d: usize) -> Self {
        IndexMap {
            dims: (0..d)
                .map(|src| DimFn {
                    src,
                    f: Fn1::identity(),
                })
                .collect(),
            d_in: d,
        }
    }

    /// 1-D map from a single [`Fn1`].
    pub fn d1(f: Fn1) -> Self {
        IndexMap {
            dims: vec![DimFn { src: 0, f }],
            d_in: 1,
        }
    }

    /// Per-dimension map: output dim `d` applies `fs[d]` to input dim `d`.
    pub fn per_dim(fs: Vec<Fn1>) -> Self {
        let d = fs.len();
        IndexMap {
            dims: fs
                .into_iter()
                .enumerate()
                .map(|(src, f)| DimFn { src, f })
                .collect(),
            d_in: d,
        }
    }

    /// Pure permutation: output dim `d` copies input dim `perm[d]`
    /// (e.g. `[1, 0]` is a 2-D transpose).
    pub fn permutation(d_in: usize, perm: &[usize]) -> Self {
        IndexMap::new(
            d_in,
            perm.iter()
                .map(|&src| DimFn {
                    src,
                    f: Fn1::identity(),
                })
                .collect(),
        )
    }

    /// Number of input dimensions.
    pub fn d_in(&self) -> usize {
        self.d_in
    }

    /// Number of output dimensions.
    pub fn d_out(&self) -> usize {
        self.dims.len()
    }

    /// Per-output-dimension specs.
    pub fn dims(&self) -> &[DimFn] {
        &self.dims
    }

    /// For a 1-D map, the underlying [`Fn1`].
    pub fn as_fn1(&self) -> Option<&Fn1> {
        if self.d_out() == 1 && self.dims[0].src == 0 {
            Some(&self.dims[0].f)
        } else {
            None
        }
    }

    /// Apply to an index point.
    pub fn eval(&self, i: &Ix) -> Ix {
        debug_assert_eq!(i.dims(), self.d_in, "IndexMap arity mismatch");
        let coords: Vec<i64> = self.dims.iter().map(|df| df.f.eval(i[df.src])).collect();
        Ix::new(&coords)
    }

    /// Composition `(self ∘ inner)(i) = self(inner(i))`. Exact and closed:
    /// output dim `d` of the result reads input dim
    /// `inner.dims[self.dims[d].src].src` through the composed [`Fn1`].
    pub fn compose(&self, inner: &IndexMap) -> IndexMap {
        assert_eq!(
            self.d_in,
            inner.d_out(),
            "compose: outer expects {} dims, inner produces {}",
            self.d_in,
            inner.d_out()
        );
        let dims = self
            .dims
            .iter()
            .map(|outer| {
                let mid = &inner.dims[outer.src];
                DimFn {
                    src: mid.src,
                    f: outer.f.compose(&mid.f),
                }
            })
            .collect();
        IndexMap {
            dims,
            d_in: inner.d_in,
        }
    }

    /// Whether the map is the identity (after simplification).
    pub fn is_identity(&self) -> bool {
        self.d_in == self.d_out()
            && self
                .dims
                .iter()
                .enumerate()
                .all(|(d, df)| df.src == d && df.f.simplify() == Fn1::identity())
    }
}

impl fmt::Display for IndexMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (n, df) in self.dims.iter().enumerate() {
            if n > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", display_fn1(&df.f, &var_name(df.src, self.d_in)))?;
        }
        write!(f, "]")
    }
}

fn var_name(src: usize, d_in: usize) -> String {
    if d_in == 1 {
        "i".to_string()
    } else {
        const NAMES: [&str; 4] = ["i", "j", "k", "l"];
        NAMES
            .get(src)
            .map(|s| s.to_string())
            .unwrap_or_else(|| format!("i{src}"))
    }
}

/// Render an [`Fn1`] applied to a named variable, in paper-style notation.
pub fn display_fn1(f: &Fn1, var: &str) -> String {
    match f {
        Fn1::Const(c) => c.to_string(),
        Fn1::Affine { a: 0, c } => c.to_string(),
        Fn1::Affine { a: 1, c: 0 } => var.to_string(),
        Fn1::Affine { a: 1, c } if *c > 0 => format!("{var}+{c}"),
        Fn1::Affine { a: 1, c } => format!("{var}-{}", -c),
        Fn1::Affine { a, c: 0 } => format!("{a}.{var}"),
        Fn1::Affine { a, c } if *c > 0 => format!("{a}.{var}+{c}"),
        Fn1::Affine { a, c } => format!("{a}.{var}-{}", -c),
        Fn1::Mod { inner, z, d: 0 } => format!("({}) mod {z}", display_fn1(inner, var)),
        Fn1::Mod { inner, z, d } => format!("({}) mod {z}+{d}", display_fn1(inner, var)),
        Fn1::Div { inner, q } => format!("({}) div {q}", display_fn1(inner, var)),
        Fn1::Sum(l, r) => format!("{}+{}", display_fn1(l, var), display_fn1(r, var)),
        Fn1::Square(inner) => format!("({})\u{b2}", display_fn1(inner, var)),
        Fn1::Scaled { a, c: 0, inner } => format!("{a}.({})", display_fn1(inner, var)),
        Fn1::Scaled { a, c, inner } => format!("{a}.({})+{c}", display_fn1(inner, var)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_map() {
        let m = IndexMap::identity(2);
        assert!(m.is_identity());
        assert_eq!(m.eval(&Ix::d2(3, 4)), Ix::d2(3, 4));
    }

    #[test]
    fn per_dim_shift() {
        // A[i-1, j+1]
        let m = IndexMap::per_dim(vec![Fn1::shift(-1), Fn1::shift(1)]);
        assert_eq!(m.eval(&Ix::d2(5, 5)), Ix::d2(4, 6));
    }

    #[test]
    fn transpose_permutation() {
        let t = IndexMap::permutation(2, &[1, 0]);
        assert_eq!(t.eval(&Ix::d2(2, 7)), Ix::d2(7, 2));
        // transpose ∘ transpose = identity
        assert!(t.compose(&t).is_identity());
    }

    #[test]
    fn compose_matches_pointwise() {
        let shift = IndexMap::per_dim(vec![Fn1::shift(3), Fn1::affine(2, 0)]);
        let transpose = IndexMap::permutation(2, &[1, 0]);
        let c = shift.compose(&transpose);
        for i in -3..3 {
            for j in -3..3 {
                let x = Ix::d2(i, j);
                assert_eq!(c.eval(&x), shift.eval(&transpose.eval(&x)));
            }
        }
    }

    #[test]
    fn broadcast_from_1d() {
        // out = (i, 5): a column selection map from a 1-D index
        let m = IndexMap::new(
            1,
            vec![
                DimFn {
                    src: 0,
                    f: Fn1::identity(),
                },
                DimFn {
                    src: 0,
                    f: Fn1::Const(5),
                },
            ],
        );
        assert_eq!(m.eval(&Ix::d1(3)), Ix::d2(3, 5));
        assert_eq!(m.d_in(), 1);
        assert_eq!(m.d_out(), 2);
    }

    #[test]
    fn as_fn1_extraction() {
        let m = IndexMap::d1(Fn1::affine(2, 1));
        assert_eq!(m.as_fn1(), Some(&Fn1::affine(2, 1)));
        assert_eq!(IndexMap::identity(2).as_fn1(), None);
    }

    #[test]
    fn display_paper_notation() {
        assert_eq!(IndexMap::d1(Fn1::affine(2, 1)).to_string(), "[2.i+1]");
        assert_eq!(
            IndexMap::d1(Fn1::rotate(6, 20)).to_string(),
            "[(i+6) mod 20]"
        );
        assert_eq!(
            IndexMap::per_dim(vec![Fn1::shift(-1), Fn1::identity()]).to_string(),
            "[i-1, j]"
        );
    }

    // the arity check is a `debug_assert_eq!`: release builds skip it
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics_in_debug() {
        let m = IndexMap::identity(2);
        let _ = m.eval(&Ix::d1(0));
    }
}
