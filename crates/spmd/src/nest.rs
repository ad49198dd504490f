//! One pattern algebra: the strided loop nest.
//!
//! The paper's normal form for a Table I schedule is a short loop nest:
//! §4's repeated-block and repeated-scatter templates are a cycle loop
//! around an in-block range, and an n-D sweep adds a row loop around
//! both. A [`Nest`] is that form — a base plus up to [`MAX_LEVELS`]
//! `(count, stride)` levels, innermost first — and every strided table of
//! the crate is one: the loop indices of `Modify_p` and of a comm run, the
//! addresses an exec entry reads and writes, and the local offsets a send
//! segment packs. Levels are folded ([`Nest::absorb`]), cut
//! ([`Nest::cut`]), expanded ([`Nest::for_each`]) and intersected
//! ([`Nest::meet`]) here and nowhere else.

use vcal_numth::{div_ceil, div_floor, gcd, solve_congruence};

/// Most levels a [`Nest`] holds.
pub const MAX_LEVELS: usize = 3;

/// `base + Σ_l stride_l·j_l` for `j_l ∈ [0, count_l)`, visited with
/// level 0 fastest. Visit order is preserved, not sortedness: strides may
/// be negative or zero. A level past the nest's depth is `(1, 0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Nest {
    /// The first element.
    pub base: i64,
    /// `(count, stride)` per level, innermost first.
    pub levels: [(i64, i64); MAX_LEVELS],
}

impl Nest {
    /// The one-level nest `base + stride·t`, `t ∈ [0, count)`.
    pub const fn run(base: i64, stride: i64, count: i64) -> Nest {
        Nest {
            base,
            levels: [(count, stride), (1, 0), (1, 0)],
        }
    }

    /// Number of positions of level `l`.
    pub fn count(&self, l: usize) -> i64 {
        self.levels[l].0
    }

    /// Advance per position of level `l`.
    pub fn stride(&self, l: usize) -> i64 {
        self.levels[l].1
    }

    /// Levels up to the outermost with more than one position.
    pub fn depth(&self) -> usize {
        self.levels
            .iter()
            .rposition(|l| l.0 != 1)
            .map_or(0, |l| l + 1)
    }

    /// Number of elements.
    pub fn len(&self) -> u64 {
        self.levels.iter().map(|l| l.0.max(0) as u64).product()
    }

    /// Whether the nest has no element.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The levels above 0 as a nest of their own: the first element of
    /// every level-0 run, in visit order.
    pub fn outer(&self) -> Nest {
        let [_, l1, l2] = self.levels;
        Nest {
            base: self.base,
            levels: [l1, l2, (1, 0)],
        }
    }

    /// Number of level-0 runs.
    pub fn reps(&self) -> u64 {
        self.outer().len()
    }

    /// Level-0 run `r`, as a one-level nest.
    pub fn rep(&self, r: u64) -> Nest {
        let (count, stride) = self.levels[0];
        Nest::run(self.outer().at(r), stride, count)
    }

    /// Element `k` in visit order (one multiply while `k` stays in the
    /// first level-0 run or the first level-1 pass).
    #[inline]
    pub fn at(&self, k: u64) -> i64 {
        let [(c0, s0), (c1, s1), (_, s2)] = self.levels;
        let (c0, c1) = (c0.max(1) as u64, c1.max(1) as u64);
        if k < c0 {
            return self.base + k as i64 * s0;
        }
        let (r, x) = (k / c0, self.base + (k % c0) as i64 * s0);
        match r < c1 {
            true => x + r as i64 * s1,
            false => x + (r % c1) as i64 * s1 + (r / c1) as i64 * s2,
        }
    }

    /// Visit the elements in order.
    #[inline]
    pub fn for_each(&self, mut visit: impl FnMut(i64)) {
        let [(c0, s0), (c1, s1), (c2, s2)] = self.levels;
        for k2 in 0..c2 {
            for k1 in 0..c1 {
                let mut x = self.base + k2 * s2 + k1 * s1;
                for _ in 0..c0 {
                    visit(x);
                    x += s0;
                }
            }
        }
    }

    /// The elements in visit order (for oracles).
    pub fn expand(&self) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.len() as usize);
        self.for_each(|x| out.push(x));
        out
    }

    /// The smallest and the largest element of a nonempty nest.
    pub fn hull(&self) -> (i64, i64) {
        self.levels
            .iter()
            .fold((self.base, self.base), |(lo, hi), &(count, stride)| {
                let ext = stride * (count - 1);
                (lo + ext.min(0), hi + ext.max(0))
            })
    }

    /// Split at position `j` of level `l` (the levels above it hold one
    /// position each): the two nests expand, one after the other, to this
    /// one. A piece of one position at level `l` has stride 0 there.
    pub fn cut(&self, l: usize, j: i64) -> (Nest, Nest) {
        let (count, stride) = self.levels[l];
        let piece = |from: i64, n: i64| {
            let mut out = *self;
            out.base += from * stride;
            out.levels[l] = (n, if n > 1 { stride } else { 0 });
            out
        };
        (piece(0, j), piece(j, count - j))
    }

    /// Take `next` as more positions of level `l` — the outermost level
    /// in use, or `floor` if that is higher — when `next` repeats every
    /// level below `l`, has none above it, and continues level `l` one
    /// stride on. A level of one position adopts the stride `next`
    /// implies. Whether it did; the concatenation of the two is then this
    /// nest.
    pub fn absorb(&mut self, next: &Nest, floor: usize) -> bool {
        let l = self.depth().saturating_sub(1).max(floor);
        if l >= MAX_LEVELS
            || next.depth() > l + 1
            || (0..l).any(|k| self.levels[k] != next.levels[k])
        {
            return false;
        }
        let ((count, stride), (more, next_stride)) = (self.levels[l], next.levels[l]);
        let Some(delta) = next.base.checked_sub(self.base) else {
            return false;
        };
        let stride = if count > 1 { stride } else { delta };
        let fits = count.checked_mul(stride) == Some(delta) && (more == 1 || next_stride == stride);
        match count.checked_add(more).filter(|_| fits) {
            Some(count) => {
                self.levels[l] = (count, stride);
                true
            }
            None => false,
        }
    }

    /// The same visit sequence with every level that continues the one
    /// below it (or sits over a single position) folded into it.
    pub fn merged(mut self) -> Nest {
        let mut l = 1;
        while l < MAX_LEVELS {
            let ((c0, s0), (c1, s1)) = (self.levels[l - 1], self.levels[l]);
            let joined = match c1 > 1 {
                true if c0 == 1 => Some((c1, s1)),
                true if c0.checked_mul(s0) == Some(s1) => c0.checked_mul(c1).map(|c| (c, s0)),
                _ => None,
            };
            let Some(joined) = joined else {
                l += 1;
                continue;
            };
            self.levels[l - 1] = joined;
            self.levels.copy_within(l + 1.., l);
            self.levels[MAX_LEVELS - 1] = (1, 0);
        }
        self
    }

    /// The positions of this one-level nest whose elements lie in
    /// `other` (at most two levels), rep by rep of `other`: `visit(k, p,
    /// at)` gets a two-level nest of positions whose level-1 position `j`
    /// holds those in rep `k + j·p`, in this nest's order. A rep meets a
    /// progression in one progression: one linear congruence, clipped to
    /// both. Every `p`-th rep lies a whole number of this nest's strides
    /// further on (`p` is the least such count), so those inside its hull
    /// meet it alike and come as one nest; the reps cut by its ends come
    /// one by one. Every (position, rep) pair is visited once.
    pub fn meet(&self, other: &Nest, mut visit: impl FnMut(u64, u64, Nest)) {
        debug_assert!(self.depth() <= 1 && other.depth() <= 2);
        if self.is_empty() || other.is_empty() {
            return;
        }
        let ((count, step), (reps, stride)) = (self.levels[0], other.levels[1]);
        let (p, far) = match step != 0 && count > 1 && stride != 0 {
            true => {
                let p = (step / gcd(step, stride)).abs();
                stride.checked_mul(p).map_or((1, stride), |far| (p, far))
            }
            false => (1, stride),
        };
        let rep = |k: i64| Nest::run(other.base + stride * k, other.stride(0), other.count(0));
        let (lo, hi) = self.hull();
        for r in 0..p.min(reps) {
            // reps r + p·k, k ∈ [0, n): those whose hull meets this one's,
            // and those inside it
            let (n, (r0, r1)) = ((reps - r + p - 1) / p, rep(r).hull());
            let (ta, tb) = steps(far, lo - r1, hi - r0, n);
            let (fa, fb) = match step != 0 && count > 1 && far % step == 0 {
                true => steps(far, lo - r0, hi - r1, n),
                false => (tb + 1, tb),
            };
            let mut k = ta;
            while k <= tb {
                let group = if k == fa && fa < fb { fb - fa + 1 } else { 1 };
                if let Some(mut at) = self.meet_rep(&rep(r + p * k)) {
                    if group > 1 {
                        at.levels[1] = (group, far / step);
                    }
                    visit((r + p * k) as u64, p as u64, at);
                }
                k += group;
            }
        }
    }

    /// The positions of this one-level nest whose elements lie in
    /// one-level `rep`, as a one-level nest of positions.
    fn meet_rep(&self, rep: &Nest) -> Option<Nest> {
        let (count, stride) = self.levels[0];
        let (lo, hi) = rep.hull();
        let step = match rep.levels[0] {
            (c, s) if c > 1 && s != 0 => s.abs(),
            _ => 1,
        };
        let cong = solve_congruence(stride, lo - self.base, step)?;
        // lo <= base + stride·t <= hi
        let (a, b) = (lo - self.base, hi - self.base);
        let (tlo, thi) = steps(stride, a, b, count);
        let first = cong.first_at_or_above(tlo);
        let n = (first <= thi).then(|| (thi - first) / cong.period + 1)?;
        Some(Nest::run(first, cong.period, n))
    }
}

/// The `k ∈ [0, n)` with `a <= stride·k <= b`, as an inclusive range
/// (empty when its start passes its end).
fn steps(stride: i64, a: i64, b: i64, n: i64) -> (i64, i64) {
    let (k0, k1) = match stride.signum() {
        1 => (div_ceil(a, stride), div_floor(b, stride)),
        -1 => (div_ceil(b, stride), div_floor(a, stride)),
        _ if a <= 0 && 0 <= b => (0, n - 1),
        _ => (0, -1),
    };
    (k0.max(0), k1.min(n - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A level of 1..=4 positions with stride in [-5, 5]; a single
    /// position has stride 0.
    fn levels() -> Vec<(i64, i64)> {
        let mut out = vec![(1, 0)];
        for count in 2..=4 {
            out.extend((-5..=5).map(|stride| (count, stride)));
        }
        out
    }

    /// Every nest of at most two levels over `levels()` with its base in
    /// `bases`.
    fn scope(bases: std::ops::RangeInclusive<i64>) -> Vec<Nest> {
        let ls = levels();
        let mut out = Vec::new();
        for base in bases {
            for &l0 in &ls {
                out.push(Nest {
                    base,
                    levels: [l0, (1, 0), (1, 0)],
                });
                for &l1 in ls.iter().filter(|l| l.0 > 1) {
                    out.push(Nest {
                        base,
                        levels: [l0, l1, (1, 0)],
                    });
                }
            }
        }
        out
    }

    #[test]
    fn expansion_len_at_hull_and_merge_agree() {
        for x in scope(-3..=3) {
            let v = x.expand();
            assert_eq!(v.len() as u64, x.len(), "{x:?}");
            assert!(v.iter().enumerate().all(|(k, &e)| x.at(k as u64) == e));
            let reps: Vec<i64> = (0..x.reps()).flat_map(|r| x.rep(r).expand()).collect();
            assert_eq!(reps, v, "{x:?}");
            let (lo, hi) = x.hull();
            assert_eq!(
                (lo, hi),
                (*v.iter().min().unwrap(), *v.iter().max().unwrap())
            );
            let m = x.merged();
            assert_eq!(m.expand(), v, "{x:?} -> {m:?}");
            assert!(m.depth() <= x.depth(), "{x:?} -> {m:?}");
        }
    }

    /// `cut`'s pieces, one after the other, expand to the nest.
    #[test]
    fn cut_pieces_concatenate_to_the_nest() {
        for x in scope(-3..=3) {
            for l in x.depth().saturating_sub(1)..MAX_LEVELS {
                for j in 1..x.count(l) {
                    let (a, b) = x.cut(l, j);
                    let mut v = a.expand();
                    v.extend(b.expand());
                    assert_eq!(v, x.expand(), "{x:?} cut at {j} of level {l}");
                    assert_eq!(a.len() + b.len(), x.len());
                }
            }
        }
    }

    /// `absorb` succeeds exactly when `next` repeats the levels below the
    /// extended one, has none above it, and the concatenation is the nest
    /// with that level grown by `next`'s positions — and it then expands
    /// to the concatenation. `absorb` depends on the two bases only
    /// through their difference, so a first nest based at 0 against
    /// second ones based in [-6, 6] covers every pair of bases in [-3, 3].
    #[test]
    fn absorb_succeeds_exactly_when_the_concatenation_is_one_nest() {
        let (xs, ys) = (scope(0..=0), scope(-6..=6));
        let mut joined = 0;
        for floor in [0, 1] {
            for x in &xs {
                let l = x.depth().saturating_sub(1).max(floor);
                let inner: i64 = x.levels[..l].iter().map(|l| l.0).product();
                for y in &ys {
                    let mut z = *x;
                    let got = z.absorb(y, floor);
                    let shaped = x.levels[..l] == y.levels[..l] && y.depth() <= l + 1;
                    let want = shaped && {
                        let (count, stride) = x.levels[l];
                        let stride = if count > 1 { stride } else { y.base - x.base };
                        let mut grown = *x;
                        grown.levels[l] = (count + y.len() as i64 / inner, stride);
                        let mut cat = x.expand();
                        cat.extend(y.expand());
                        grown.expand() == cat
                    };
                    assert_eq!(got, want, "{x:?} absorb {y:?} floor {floor}");
                    if got {
                        let mut cat = x.expand();
                        cat.extend(y.expand());
                        assert_eq!(z.expand(), cat, "{x:?} absorb {y:?}");
                        joined += 1;
                    } else {
                        assert_eq!(z, *x);
                    }
                }
            }
        }
        assert!(joined > 5_000, "only {joined} joins");
    }

    /// `meet` names exactly the positions of a one-level nest whose
    /// elements lie in each rep of a nest of at most two levels — every
    /// (position, rep) pair once and, within a rep, in the first nest's
    /// order — and the reps it groups meet alike. `meet`
    /// depends on the two bases only through their difference, so a first
    /// nest based at 0 against second ones based in [-6, 6] covers every
    /// pair of bases in [-3, 3].
    #[test]
    fn meet_is_the_brute_force_intersection() {
        let all = scope(-6..=6);
        let ones: Vec<(Nest, Vec<i64>)> = (scope(0..=0).iter())
            .filter(|n| n.depth() <= 1)
            .map(|n| (*n, n.expand()))
            .collect();
        let (mut met, mut grouped) = (0, 0);
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for y in &all {
            let reps: Vec<Vec<i64>> = (0..y.reps()).map(|k| y.rep(k).expand()).collect();
            for (x, pos) in &ones {
                want.clear();
                for (k, rep) in reps.iter().enumerate() {
                    let at = (0..pos.len()).filter(|&t| rep.contains(&pos[t]));
                    want.extend(at.map(|t| (k as u64, t as i64)));
                }
                got.clear();
                x.meet(y, |k, p, at| {
                    assert!(at.depth() <= 2, "{x:?} meet {y:?}: {at:?}");
                    grouped += usize::from(at.count(1) > 1);
                    for j in 0..at.reps() {
                        at.rep(j).for_each(|t| got.push((k + j * p, t)));
                    }
                });
                got.sort_by_key(|&(k, _)| k);
                assert_eq!(got, want, "{x:?} meet {y:?}");
                met += usize::from(!got.is_empty());
            }
        }
        assert!(
            met > 100_000 && grouped > 10_000,
            "{met} meets, {grouped} grouped"
        );
    }
}
