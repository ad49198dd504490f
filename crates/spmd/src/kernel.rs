//! Compiled compute kernels — the clause's element expression lowered
//! once, at plan time, into a flat postfix program.
//!
//! The paper's cost model charges the update phase *per element*; any
//! per-element constant therefore multiplies straight into the total.
//! Walking the [`Expr`] tree per element pays a recursion frame and a
//! `Box` pointer chase per operator plus a `BTreeMap` array lookup per
//! reference. [`CompiledKernel::compile`] removes all of it:
//!
//! * array references are resolved to dense *slot* numbers (positions
//!   in the plan's deduplicated read list — identical on every node,
//!   because the read list is built once from the clause before the
//!   per-processor split);
//! * the tree is flattened into postfix [`KernelOp`] bytecode over a
//!   pre-sized value stack — no recursion, no pointer chasing — and a run
//!   evaluates it a chunk at a time ([`CompiledKernel::eval_run`]): each op
//!   is dispatched once per [`CHUNK`] elements into one plain loop, and a
//!   slot or literal right operand is applied to the stack top in place;
//! * the dominant shapes are recognized into a [`FusedShape`] — pure copy
//!   (a `copy_from_slice`), `a·X[g(i)] + b`, and 2/3-point stencil sums
//!   with an optional scale and offset — which `eval_run` runs as one lane
//!   map ([`crate::simd`]) instead of the bytecode.
//!
//! Bit-exactness contract: [`CompiledKernel::eval`] performs *exactly*
//! the operation sequence of [`vcal_core::Env::eval_expr`] — same
//! [`BinOp::apply`] calls in the same association order — so compiled
//! results are bit-identical to the interpreted reference. The fused
//! shapes only ever commute operands of a single `+` or `*` (IEEE-754
//! commutative for finite values and literals), never re-associate.

use vcal_core::{ArrayRef, BinOp, Expr};

/// One postfix instruction of a compiled kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelOp {
    /// Push the gathered value of read slot `n`.
    Slot(u16),
    /// Push a literal.
    Lit(f64),
    /// Push loop coordinate `idx[dim]` as a value.
    LoopVar(u8),
    /// Negate the top of stack.
    Neg,
    /// Pop two values, apply the operator (left operand popped second).
    Bin(BinOp),
}

/// A recognized fast-path shape of the right-hand side. All evaluation
/// orders mirror the source expression exactly (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum FusedShape {
    /// `X[g(i)]` — pure copy of one slot.
    Copy {
        /// The copied read slot.
        slot: usize,
    },
    /// `(a · X[g(i)]) + b` with the multiply and/or add skipped when the
    /// source expression has no such factor (skipping matters: `x + 0.0`
    /// is not the identity for `-0.0`).
    Axpy {
        /// Optional scale factor `a`.
        a: Option<f64>,
        /// The read slot.
        slot: usize,
        /// Optional additive offset `b`.
        b: Option<f64>,
    },
    /// `scale · (X ± Y [± Z]) + offset` — a 2- or 3-point stencil sum
    /// with optional scale and offset, the Jacobi/heat-equation shape.
    Stencil {
        /// The summed read slots, in source order (2 or 3).
        slots: Vec<usize>,
        /// For 3-point sums: `true` for `(x+y)+z`, `false` for `x+(y+z)`.
        left_assoc: bool,
        /// Optional scale factor.
        scale: Option<f64>,
        /// Optional additive offset.
        offset: Option<f64>,
    },
    /// No fast path — evaluate the bytecode.
    Generic,
}

/// A clause expression compiled to postfix bytecode plus its recognized
/// fused shape. One kernel serves every node of a plan: slot numbering
/// comes from the clause's read list, which is node-independent.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledKernel {
    ops: Vec<KernelOp>,
    max_stack: usize,
    /// The recognized fast-path shape (or [`FusedShape::Generic`]).
    pub fused: FusedShape,
    /// Number of read slots the kernel consumes.
    pub n_slots: usize,
}

impl CompiledKernel {
    /// Compile `rhs` against a slot resolver (array reference → read
    /// slot). Returns `None` when a reference fails to resolve or a
    /// slot / loop dimension does not fit its operand — there is no
    /// other evaluator, so the caller reports it as a plan error.
    pub fn compile<F>(rhs: &Expr, n_slots: usize, resolve: F) -> Option<CompiledKernel>
    where
        F: Fn(&ArrayRef) -> Option<usize>,
    {
        let mut ops = Vec::new();
        let max_stack = lower(rhs, &resolve, &mut ops)?;
        let fused = classify(rhs, &resolve);
        Some(CompiledKernel {
            ops,
            max_stack,
            fused,
            n_slots,
        })
    }

    /// The postfix program.
    pub fn ops(&self) -> &[KernelOp] {
        &self.ops
    }

    /// Capacity the evaluation stack needs (pre-size once, reuse).
    pub fn stack_capacity(&self) -> usize {
        self.max_stack
    }

    /// Evaluate the bytecode for loop index `idx` over the gathered
    /// slot values `vals`. Non-recursive: one loop over the ops with an
    /// explicit value stack (cleared, capacity retained across calls).
    #[inline]
    pub fn eval(&self, idx: &[i64], vals: &[f64], stack: &mut Vec<f64>) -> f64 {
        stack.clear();
        stack.reserve(self.max_stack);
        for op in &self.ops {
            match *op {
                KernelOp::Slot(s) => stack.push(vals.get(s as usize).copied().unwrap_or(0.0)),
                KernelOp::Lit(v) => stack.push(v),
                KernelOp::LoopVar(d) => {
                    stack.push(idx.get(d as usize).copied().unwrap_or(0) as f64)
                }
                KernelOp::Neg => {
                    if let Some(top) = stack.last_mut() {
                        *top = -*top;
                    }
                }
                KernelOp::Bin(op) => {
                    let b = stack.pop().unwrap_or(0.0);
                    let a = stack.pop().unwrap_or(0.0);
                    stack.push(op.apply(a, b));
                }
            }
        }
        stack.pop().unwrap_or(0.0)
    }

    /// The kernel's one evaluator over a span: element `t` of `out` is
    /// [`CompiledKernel::eval`] at loop index `idx` with coordinate
    /// `inner` advanced by `step·t`, over the slot values `slots[s][t]`.
    /// Each slot slice holds exactly `out.len()` values.
    ///
    /// A fused shape runs its lane map ([`crate::simd`]), which the CPU
    /// picks. Otherwise the ops run column-wise over chunks of at most
    /// [`CHUNK`] elements, each op dispatched once per chunk into one
    /// plain loop per operator, the value stack widened to one chunk
    /// buffer per level (level 0 is the output chunk itself). A `Slot` or `Lit`
    /// that is the right operand of the next `Bin` is applied to the
    /// stack top in place instead of being pushed first. Every element
    /// still sees the same [`BinOp::apply`] sequence on the same
    /// operands, so the result is bit-identical to the per-element loop.
    /// A lane map commutes at most the operands of one `+` or `*`, so its
    /// result is too, up to the sign and payload of a NaN.
    pub fn eval_run(
        &self,
        idx: &[i64],
        inner: usize,
        step: i64,
        slots: &[&[f64]],
        out: &mut [f64],
        stack: &mut Vec<f64>,
    ) {
        if crate::simd::run(&self.fused, slots, out) {
            return;
        }
        // one buffer of `w` values per stack level above 0; whatever a
        // buffer holds is overwritten by the push that claims it
        let w = out.len().min(CHUNK);
        let need = self.max_stack.saturating_sub(1) * w;
        if stack.len() < need {
            stack.resize(need, 0.0);
        }
        let operand = |s: u16, t0: usize, m: usize| match slots.get(s as usize) {
            Some(vals) => Operand::Vals(&vals[t0..t0 + m]),
            None => Operand::Lit(0.0),
        };
        for (c, out) in out.chunks_mut(CHUNK).enumerate() {
            let (t0, m) = (c * CHUNK, out.len());
            let (mut sp, mut ops) = (0, self.ops.iter().peekable());
            while let Some(&op) = ops.next() {
                let in_place = match (op, ops.peek()) {
                    (KernelOp::Slot(s), Some(KernelOp::Bin(b))) => Some((operand(s, t0, m), *b)),
                    (KernelOp::Lit(v), Some(KernelOp::Bin(b))) => Some((Operand::Lit(v), *b)),
                    _ => None,
                };
                if let Some((rhs, b)) = in_place {
                    ops.next();
                    bin_each(b, level(out, stack, w, sp - 1), rhs);
                    continue;
                }
                match op {
                    KernelOp::Slot(s) => match operand(s, t0, m) {
                        Operand::Vals(v) => level(out, stack, w, sp).copy_from_slice(v),
                        Operand::Lit(v) => level(out, stack, w, sp).fill(v),
                    },
                    KernelOp::Lit(v) => level(out, stack, w, sp).fill(v),
                    KernelOp::LoopVar(d) => {
                        let at = idx.get(d as usize).copied().unwrap_or(0);
                        let along = if d as usize == inner { step } else { 0 };
                        for (t, v) in level(out, stack, w, sp).iter_mut().enumerate() {
                            *v = (at + along * (t0 + t) as i64) as f64;
                        }
                    }
                    KernelOp::Neg => {
                        level(out, stack, w, sp - 1)
                            .iter_mut()
                            .for_each(|v| *v = -*v);
                        continue;
                    }
                    KernelOp::Bin(b) => {
                        // level `sp - 1` is buffer `sp - 2`
                        let (below, top) = stack.split_at_mut((sp - 2) * w);
                        let top = Operand::Vals(&top[..m]);
                        bin_each(b, level(out, below, w, sp - 2), top);
                        sp -= 1;
                        continue;
                    }
                }
                sp += 1;
            }
        }
    }
}

/// Elements [`CompiledKernel::eval_run`] carries through the bytecode at
/// a time: a few chunk buffers of this width stay in L1.
pub const CHUNK: usize = 256;

/// Level `l` of a chunk's value stack: level 0 is the output chunk, level
/// `l ≥ 1` is buffer `l − 1` of `stack`, `w` values apart.
fn level<'a>(out: &'a mut [f64], stack: &'a mut [f64], w: usize, l: usize) -> &'a mut [f64] {
    let m = out.len();
    if l == 0 {
        out
    } else {
        &mut stack[(l - 1) * w..][..m]
    }
}

/// The right operand of a chunk-wide op: a column of values or one literal.
#[derive(Clone, Copy)]
enum Operand<'a> {
    Vals(&'a [f64]),
    Lit(f64),
}

/// `a[t] = op.apply(a[t], b[t])` over a chunk, the operator matched once.
fn bin_each(op: BinOp, a: &mut [f64], b: Operand) {
    fn each(a: &mut [f64], b: Operand, f: impl Fn(f64, f64) -> f64) {
        match b {
            Operand::Vals(b) => a.iter_mut().zip(b).for_each(|(a, b)| *a = f(*a, *b)),
            Operand::Lit(b) => a.iter_mut().for_each(|a| *a = f(*a, b)),
        }
    }
    match op {
        BinOp::Add => each(a, b, |x, y| x + y),
        BinOp::Sub => each(a, b, |x, y| x - y),
        BinOp::Mul => each(a, b, |x, y| x * y),
        BinOp::Div => each(a, b, |x, y| x / y),
        BinOp::Min => each(a, b, f64::min),
        BinOp::Max => each(a, b, f64::max),
    }
}

/// Emit postfix ops for `e`; returns the maximum stack depth reached.
fn lower<F>(e: &Expr, resolve: &F, out: &mut Vec<KernelOp>) -> Option<usize>
where
    F: Fn(&ArrayRef) -> Option<usize>,
{
    match e {
        Expr::Ref(r) => {
            let slot = resolve(r)?;
            out.push(KernelOp::Slot(u16::try_from(slot).ok()?));
            Some(1)
        }
        Expr::Lit(v) => {
            out.push(KernelOp::Lit(*v));
            Some(1)
        }
        Expr::LoopVar { dim } => {
            out.push(KernelOp::LoopVar(u8::try_from(*dim).ok()?));
            Some(1)
        }
        Expr::Neg(inner) => {
            let d = lower(inner, resolve, out)?;
            out.push(KernelOp::Neg);
            Some(d)
        }
        Expr::Bin(op, a, b) => {
            let da = lower(a, resolve, out)?;
            let db = lower(b, resolve, out)?;
            out.push(KernelOp::Bin(*op));
            // left value sits on the stack while the right subtree runs
            Some(da.max(db + 1))
        }
    }
}

/// Recognize the fused fast-path shape of `rhs`, if any.
fn classify<F>(rhs: &Expr, resolve: &F) -> FusedShape
where
    F: Fn(&ArrayRef) -> Option<usize>,
{
    // peel one additive literal offset: `core + b` / `b + core`
    let (core, offset) = match rhs {
        Expr::Bin(BinOp::Add, x, y) => match (x.as_ref(), y.as_ref()) {
            (c, Expr::Lit(b)) => (c, Some(*b)),
            (Expr::Lit(b), c) => (c, Some(*b)),
            _ => (rhs, None),
        },
        _ => (rhs, None),
    };
    // peel one multiplicative literal scale: `core * a` / `a * core`
    let (core, scale) = match core {
        Expr::Bin(BinOp::Mul, x, y) => match (x.as_ref(), y.as_ref()) {
            (c, Expr::Lit(a)) => (c, Some(*a)),
            (Expr::Lit(a), c) => (c, Some(*a)),
            _ => (core, None),
        },
        _ => (core, None),
    };
    let slot_of = |e: &Expr| match e {
        Expr::Ref(r) => resolve(r),
        _ => None,
    };
    if let Some(slot) = slot_of(core) {
        return match (scale, offset) {
            (None, None) => FusedShape::Copy { slot },
            (a, b) => FusedShape::Axpy { a, slot, b },
        };
    }
    if let Expr::Bin(BinOp::Add, x, y) = core {
        // 2-point: X + Y
        if let (Some(s0), Some(s1)) = (slot_of(x), slot_of(y)) {
            return FusedShape::Stencil {
                slots: vec![s0, s1],
                left_assoc: true,
                scale,
                offset,
            };
        }
        // 3-point: (X + Y) + Z
        if let (Expr::Bin(BinOp::Add, xa, xb), Some(s2)) = (x.as_ref(), slot_of(y)) {
            if let (Some(s0), Some(s1)) = (slot_of(xa), slot_of(xb)) {
                return FusedShape::Stencil {
                    slots: vec![s0, s1, s2],
                    left_assoc: true,
                    scale,
                    offset,
                };
            }
        }
        // 3-point: X + (Y + Z)
        if let (Some(s0), Expr::Bin(BinOp::Add, ya, yb)) = (slot_of(x), y.as_ref()) {
            if let (Some(s1), Some(s2)) = (slot_of(ya), slot_of(yb)) {
                return FusedShape::Stencil {
                    slots: vec![s0, s1, s2],
                    left_assoc: false,
                    scale,
                    offset,
                };
            }
        }
    }
    FusedShape::Generic
}

impl FusedShape {
    /// The read slots this shape consumes, in evaluation order, borrowed
    /// from the shape: `eval_run` asks once per span.
    pub fn read_slots(&self) -> &[usize] {
        match self {
            FusedShape::Copy { slot } | FusedShape::Axpy { slot, .. } => std::slice::from_ref(slot),
            FusedShape::Stencil { slots, .. } => slots,
            FusedShape::Generic => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcal_core::func::Fn1;
    use vcal_core::{Array, Bounds, Env, Ix};

    fn refs(names: &[(&str, Fn1)]) -> Vec<(String, Fn1)> {
        names
            .iter()
            .map(|(a, g)| (a.to_string(), g.clone()))
            .collect()
    }

    fn resolver(reads: &[(String, Fn1)]) -> impl Fn(&ArrayRef) -> Option<usize> + '_ {
        move |r: &ArrayRef| {
            let g = r.map.as_fn1()?;
            reads.iter().position(|(a, h)| *a == r.array && h == g)
        }
    }

    fn b(g: Fn1) -> Expr {
        Expr::Ref(ArrayRef::d1("B", g))
    }

    #[test]
    fn bytecode_matches_tree_interpreter_bitwise() {
        // kernel over two reads, evaluated against an Env the reference
        // interpreter also sees
        let reads = refs(&[("B", Fn1::shift(-1)), ("B", Fn1::shift(1))]);
        let exprs = vec![
            Expr::mul(
                Expr::Lit(0.5),
                Expr::add(b(Fn1::shift(-1)), b(Fn1::shift(1))),
            ),
            Expr::add(
                Expr::Neg(Box::new(b(Fn1::shift(-1)))),
                Expr::mul(b(Fn1::shift(1)), Expr::Lit(3.25)),
            ),
            Expr::Bin(
                BinOp::Div,
                Box::new(b(Fn1::shift(1))),
                Box::new(Expr::add(b(Fn1::shift(-1)), Expr::Lit(1.5e6))),
            ),
            Expr::add(Expr::LoopVar { dim: 0 }, b(Fn1::shift(1))),
        ];
        let mut env = Env::new();
        env.insert(
            "B",
            Array::from_fn(Bounds::range(-2, 66), |i| (i.scalar() as f64) * 0.37 - 3.0),
        );
        let mut stack = Vec::new();
        for e in &exprs {
            let k = CompiledKernel::compile(e, reads.len(), resolver(&reads)).expect("compiles");
            for i in 0..64i64 {
                let vals: Vec<f64> = reads
                    .iter()
                    .map(|(a, g)| env.get(a).unwrap().get(&Ix::d1(g.eval(i))))
                    .collect();
                let want = env.eval_expr(e, &Ix::d1(i));
                let got = k.eval(&[i], &vals, &mut stack);
                assert_eq!(got.to_bits(), want.to_bits(), "expr={e:?} i={i}");
            }
        }
    }

    #[test]
    fn fused_shapes_recognized_and_bit_exact() {
        let reads = refs(&[
            ("B", Fn1::shift(-1)),
            ("B", Fn1::shift(1)),
            ("B", Fn1::identity()),
        ]);
        let cases: Vec<(Expr, FusedShape)> = vec![
            (b(Fn1::shift(-1)), FusedShape::Copy { slot: 0 }),
            (
                Expr::mul(Expr::Lit(2.0), b(Fn1::identity())),
                FusedShape::Axpy {
                    a: Some(2.0),
                    slot: 2,
                    b: None,
                },
            ),
            (
                Expr::add(
                    Expr::mul(b(Fn1::identity()), Expr::Lit(2.0)),
                    Expr::Lit(7.0),
                ),
                FusedShape::Axpy {
                    a: Some(2.0),
                    slot: 2,
                    b: Some(7.0),
                },
            ),
            (
                Expr::mul(
                    Expr::Lit(0.5),
                    Expr::add(b(Fn1::shift(-1)), b(Fn1::shift(1))),
                ),
                FusedShape::Stencil {
                    slots: vec![0, 1],
                    left_assoc: true,
                    scale: Some(0.5),
                    offset: None,
                },
            ),
            (
                Expr::add(
                    Expr::mul(
                        Expr::add(
                            Expr::add(b(Fn1::shift(-1)), b(Fn1::identity())),
                            b(Fn1::shift(1)),
                        ),
                        Expr::Lit(0.25),
                    ),
                    Expr::Lit(-1.0),
                ),
                FusedShape::Stencil {
                    slots: vec![0, 2, 1],
                    left_assoc: true,
                    scale: Some(0.25),
                    offset: Some(-1.0),
                },
            ),
        ];
        let mut env = Env::new();
        env.insert(
            "B",
            Array::from_fn(Bounds::range(-2, 34), |i| (i.scalar() as f64) * -1.7 + 0.3),
        );
        for (e, want_shape) in &cases {
            let k = CompiledKernel::compile(e, reads.len(), resolver(&reads)).expect("compiles");
            assert_eq!(&k.fused, want_shape, "expr={e:?}");
            // one column per read slot over i = 0..32, run as one span
            let cols: Vec<Vec<f64>> = (reads.iter())
                .map(|(a, g)| {
                    let at = |i| env.get(a).unwrap().get(&Ix::d1(g.eval(i)));
                    (0..32i64).map(at).collect()
                })
                .collect();
            let segs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
            let mut out = vec![f64::NAN; 32];
            k.eval_run(&[0], 0, 1, &segs, &mut out, &mut Vec::new());
            for (i, got) in (0..32i64).zip(&out) {
                let want = env.eval_expr(e, &Ix::d1(i));
                assert_eq!(got.to_bits(), want.to_bits(), "expr={e:?} i={i}");
            }
        }
    }

    #[test]
    fn odd_shapes_fall_back_to_generic() {
        let reads = refs(&[("B", Fn1::identity()), ("C", Fn1::identity())]);
        let odd = vec![
            // subtraction core is not a stencil sum
            Expr::Bin(
                BinOp::Sub,
                Box::new(b(Fn1::identity())),
                Box::new(Expr::Ref(ArrayRef::d1("C", Fn1::identity()))),
            ),
            // scale by a non-literal
            Expr::mul(
                b(Fn1::identity()),
                Expr::Ref(ArrayRef::d1("C", Fn1::identity())),
            ),
            Expr::Lit(4.0),
        ];
        for e in &odd {
            let k = CompiledKernel::compile(e, reads.len(), resolver(&reads)).expect("compiles");
            assert_eq!(k.fused, FusedShape::Generic, "expr={e:?}");
        }
    }

    /// A `Slot` or a `Lit` right operand of each of the six operators is
    /// applied to the stack top in place; as the left operand of `Sub`
    /// and `Div` it is pushed, not fused. Either way `eval_run` is `eval`
    /// bit for bit, on runs of one element, one chunk and one past it —
    /// a NaN result matching any NaN, whose sign and payload Rust leaves
    /// unspecified.
    #[test]
    fn in_place_operands_match_eval_bitwise() {
        use BinOp::{Add, Div, Max, Min, Mul, Sub};
        let reads = refs(&[("B", Fn1::identity()), ("B", Fn1::shift(1))]);
        let bin = |op, x: &Expr, y: &Expr| Expr::Bin(op, Box::new(x.clone()), Box::new(y.clone()));
        let top = Expr::Neg(Box::new(b(Fn1::identity())));
        let mut cases = Vec::new();
        for op in [Add, Sub, Mul, Div, Min, Max] {
            for y in [b(Fn1::shift(1)), Expr::Lit(-0.0), Expr::Lit(2.5)] {
                cases.push((bin(op, &top, &y), true));
                if matches!(op, Sub | Div) {
                    cases.push((bin(op, &y, &top), false));
                }
            }
        }
        let special = [
            0.0,
            -0.0,
            1.5,
            -2.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let (mut stack, mut scratch) = (Vec::new(), Vec::new());
        for (e, right) in &cases {
            let k = CompiledKernel::compile(e, reads.len(), resolver(&reads)).expect("compiles");
            // `Slot(0) Neg y Bin` against `y Slot(0) Neg Bin`
            let fused = matches!(k.ops(), [_, _, KernelOp::Slot(_) | KernelOp::Lit(_), _]);
            assert_eq!(fused, *right, "expr={e:?}: {:?}", k.ops());
            for n in [1usize, 256, 257] {
                let col = |s: usize| (0..n).map(|t| special[(t * (s + 2) + s) % 7]).collect();
                let cols: [Vec<f64>; 2] = [col(0), col(1)];
                let mut out = vec![f64::NAN; n];
                k.eval_run(&[0], 0, 1, &[&cols[0], &cols[1]], &mut out, &mut scratch);
                for (t, got) in out.iter().enumerate() {
                    let want = k.eval(&[t as i64], &[cols[0][t], cols[1][t]], &mut stack);
                    let same = got.to_bits() == want.to_bits() || got.is_nan() && want.is_nan();
                    assert!(same, "expr={e:?} n={n} t={t}: {got} against {want}");
                }
            }
        }
    }

    /// Every fused shape runs its lane map inside `eval_run`, and the
    /// result is `eval` per element: Copy, Axpy with a scale, an offset or
    /// both (each literal on either side), Stencil of 2 and of 3 points in
    /// both associations with and without scale and offset, at every
    /// length up to two chunks and one. Finite operands match bit for
    /// bit; with signed zeros, NaN and both infinities mixed in, a NaN
    /// result matches any NaN (Rust leaves its sign and payload
    /// unspecified, and a lane map commutes the operands of a `*`).
    #[test]
    fn eval_run_runs_every_fused_shape_as_eval() {
        let reads = refs(&[
            ("B", Fn1::identity()),
            ("B", Fn1::shift(1)),
            ("B", Fn1::shift(2)),
        ]);
        let (x, y, z) = (b(Fn1::identity()), b(Fn1::shift(1)), b(Fn1::shift(2)));
        let lit = Expr::Lit;
        let (add, mul) = (Expr::add, Expr::mul);
        let cases = [
            x.clone(),
            mul(lit(2.5), x.clone()),
            mul(x.clone(), lit(-0.0)),
            add(x.clone(), lit(-0.0)),
            add(lit(0.0), x.clone()),
            add(mul(x.clone(), lit(3.25)), lit(1.5)),
            add(lit(-1.5), mul(lit(0.5), x.clone())),
            add(x.clone(), y.clone()),
            mul(add(x.clone(), y.clone()), lit(0.5)),
            add(mul(lit(0.5), add(y.clone(), x.clone())), lit(-1.0)),
            add(add(x.clone(), y.clone()), z.clone()),
            add(
                mul(add(add(x.clone(), y.clone()), z.clone()), lit(0.25)),
                lit(-0.0),
            ),
            add(x.clone(), add(y.clone(), z.clone())),
            mul(lit(2.0), add(z.clone(), add(x.clone(), y.clone()))),
        ];
        let finite = |j: usize| (j % 23) as f64 * 0.37 - 4.0;
        let special = [
            0.0,
            -0.0,
            1.5,
            -2.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let (mut stack, mut scratch) = (Vec::new(), Vec::new());
        for e in &cases {
            let k = CompiledKernel::compile(e, reads.len(), resolver(&reads)).expect("compiles");
            assert_ne!(k.fused, FusedShape::Generic, "expr={e:?}");
            for n in 0..=2 * CHUNK + 1 {
                for specials in [false, true] {
                    let value = |j: usize| match specials {
                        true => special[j % 7],
                        false => finite(j),
                    };
                    let cols: Vec<Vec<f64>> = (0..3)
                        .map(|s| (0..n).map(|t| value(t * (s + 2) + 3 * s)).collect())
                        .collect();
                    let segs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
                    let mut out = vec![f64::NAN; n];
                    k.eval_run(&[0], 0, 1, &segs, &mut out, &mut scratch);
                    for (t, got) in out.iter().enumerate() {
                        let vals = [cols[0][t], cols[1][t], cols[2][t]];
                        let want = k.eval(&[t as i64], &vals, &mut stack);
                        let nans = specials && got.is_nan() && want.is_nan();
                        assert!(
                            got.to_bits() == want.to_bits() || nans,
                            "expr={e:?} n={n} t={t}: {got} against {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unresolvable_reference_declines() {
        let reads = refs(&[("B", Fn1::identity())]);
        let e = b(Fn1::shift(4));
        assert!(CompiledKernel::compile(&e, reads.len(), resolver(&reads)).is_none());
    }
}
