//! Index sets (paper Definition 2): a bounded set refined by a predicate,
//! written `I = (b, P)` as a set comprehension `{ i ∈ N_b | P(i) }`.

use crate::bounds::Bounds;
use crate::ix::Ix;
use crate::pred::Pred;
use std::fmt;

/// An index set `I = (b, P)`.
#[derive(Debug, Clone, Hash)]
pub struct IndexSet {
    /// The bounded set `N_b`.
    pub bounds: Bounds,
    /// The refining predicate `P`.
    pub pred: Pred,
}

impl IndexSet {
    /// The full bounded set `(b, true)`.
    pub fn full(bounds: Bounds) -> Self {
        IndexSet {
            bounds,
            pred: Pred::True,
        }
    }

    /// 1-D range `lo:hi` with no predicate.
    pub fn range(lo: i64, hi: i64) -> Self {
        IndexSet::full(Bounds::range(lo, hi))
    }

    /// A bounded set refined by `pred`.
    pub fn new(bounds: Bounds, pred: Pred) -> Self {
        IndexSet { bounds, pred }
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.bounds.dims()
    }

    /// Membership test.
    pub fn contains(&self, i: &Ix) -> bool {
        self.bounds.contains(i) && self.pred.eval(i)
    }

    /// Iterate members in lexicographic order. This is the *naive
    /// enumeration* whose cost the paper's optimizations eliminate: every
    /// point of the bounding box is visited and tested.
    pub fn iter(&self) -> impl Iterator<Item = Ix> + '_ {
        self.bounds.iter().filter(move |i| self.pred.eval(i))
    }

    /// Collect members into a vector (test/diagnostic helper).
    pub fn to_vec(&self) -> Vec<Ix> {
        self.iter().collect()
    }

    /// Number of members (by enumeration unless the predicate is `True`).
    pub fn count(&self) -> u64 {
        if self.pred.is_true() {
            self.bounds.count()
        } else {
            self.iter().count() as u64
        }
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        if self.pred.is_true() {
            self.bounds.is_empty()
        } else {
            self.iter().next().is_none()
        }
    }

    /// Refine with an additional predicate (set intersection with a
    /// comprehension over the same bounds).
    pub fn refine(&self, pred: Pred) -> IndexSet {
        IndexSet {
            bounds: self.bounds,
            pred: self.pred.clone().and(pred),
        }
    }

    /// Intersect with another index set (bounds via the paper's `&`
    /// operator, predicates conjoined).
    pub fn intersect(&self, other: &IndexSet) -> IndexSet {
        IndexSet {
            bounds: self.bounds.intersect(&other.bounds),
            pred: self.pred.clone().and(other.pred.clone()),
        }
    }
}

impl fmt::Display for IndexSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.pred.is_true() {
            write!(f, "({})", self.bounds)
        } else {
            write!(f, "({} | {})", self.bounds, self.pred)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::Fn1;
    use crate::pred::CmpOp;

    #[test]
    fn paper_example_2() {
        // I = (0:2 x 0:2, i1 < i2) = {(0,1),(0,2),(1,2)}
        let i = IndexSet::new(
            Bounds::range2(0, 2, 0, 2),
            Pred::DimCmp {
                dim_a: 0,
                op: CmpOp::Lt,
                dim_b: 1,
            },
        );
        assert_eq!(i.to_vec(), vec![Ix::d2(0, 1), Ix::d2(0, 2), Ix::d2(1, 2)]);
        assert_eq!(i.count(), 3);
        assert!(i.contains(&Ix::d2(0, 1)));
        assert!(!i.contains(&Ix::d2(1, 1)));
        assert!(!i.contains(&Ix::d2(9, 9)));
    }

    #[test]
    fn full_range() {
        let s = IndexSet::range(2, 5);
        assert_eq!(s.count(), 4);
        assert!(!s.is_empty());
        assert_eq!(s.to_vec(), vec![Ix::d1(2), Ix::d1(3), Ix::d1(4), Ix::d1(5)]);
    }

    #[test]
    fn refine_and_intersect() {
        let s = IndexSet::range(0, 9);
        let evens = s.refine(Pred::Cmp {
            dim: 0,
            f: Fn1::Mod {
                inner: Box::new(Fn1::identity()),
                z: 2,
                d: 0,
            },
            op: CmpOp::Eq,
            rhs: 0,
        });
        assert_eq!(evens.count(), 5);
        let tail = IndexSet::range(6, 20);
        let both = evens.intersect(&tail);
        assert_eq!(both.to_vec(), vec![Ix::d1(6), Ix::d1(8)]);
    }

    #[test]
    fn empty_behaviour() {
        assert!(IndexSet::range(5, 2).is_empty());
        assert_eq!(IndexSet::range(5, 2).count(), 0);
        let never = IndexSet::new(Bounds::range(0, 9), Pred::False);
        assert!(never.is_empty());
        assert_eq!(never.count(), 0);
    }

    #[test]
    fn display() {
        assert_eq!(IndexSet::range(0, 9).to_string(), "(0:9)");
    }
}
