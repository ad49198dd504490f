//! Compiled-kernel equivalence: the plan-time bytecode/fused-shape
//! execution path must be **bit-identical** to the tree interpreter
//! ([`Env::eval_expr`]) it replaces, and the interior-first update
//! schedule must be purely a scheduling change — never a value change.
//!
//! Covered properties, over random expression trees × Table I
//! index-function classes × block/scatter/block-scatter decompositions:
//!
//! * [`CompiledKernel::eval`] reproduces `Env::eval_expr` bit-for-bit at
//!   every loop index (unit level — no machine involved);
//! * the distributed machine's compiled update path produces arrays
//!   bit-identical to the sequential reference executor;
//! * the same holds under recoverable seeded `FaultPlan`s — a dropped
//!   boundary packet is retransmitted and consumed, never satisfied
//!   from stale staging by an interior run;
//! * the plan-time interior/boundary split is exhaustive: interior plus
//!   boundary elements equal the clause's iteration count;
//! * a fused shape's lane map (AVX2 where the CPU has it) is
//!   bit-identical to the bytecode — and both to `eval_expr` — with
//!   iteration counts chosen to cover remainder-lane tails (n not a
//!   multiple of the lane width) and single-element runs, with and
//!   without recoverable fault plans;
//! * the chunk path takes strided and table reads and writes, entries of
//!   one-element reps, kernels that read their loop coordinate and
//!   guarded clauses whose guard fails inside a chunk, cold and warm,
//!   under both schedulers;
//! * a clause signature (the plan-cache key) separates every two random
//!   clauses that the clause's debug text separates.
//!
//! CI runs this suite in release too, where NaN results may differ from
//! a debug build's.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;
use vcal_suite::core::func::Fn1;
use vcal_suite::core::{
    Array, ArrayRef, BinOp, Bounds, Clause, CmpOp, Env, Expr, Guard, IndexSet, Ix, Ordering,
};
use vcal_suite::decomp::Decomp1;
use vcal_suite::machine::{
    replay_check, run_distributed, run_distributed_traced, CollectingTracer, DistArray,
    DistOptions, DistSession, FaultPlan, RetryPolicy, ScheduleMode, TransportKind, NULL_TRACER,
};
use vcal_suite::spmd::{
    clause_signature, CompiledKernel, CompiledSchedule, DecompMap, ProgramStep, SpmdPlan,
};

const N: i64 = 64;
const PMAX: i64 = 4;
/// Operand extent covering every vocabulary access over `0..N-1`
/// (worst case: `2i+1` at `i = N-1`, `i-2` at `i = 0`).
const OP_LO: i64 = -2;
const OP_HI: i64 = 2 * (N - 1) + 1;

/// The read-reference vocabulary random expressions draw from — Table I
/// index-function classes (`i`, `i+c`, `a·i+c`) over two operand arrays.
fn vocab() -> Vec<(&'static str, Fn1)> {
    vec![
        ("B", Fn1::identity()),
        ("B", Fn1::shift(-1)),
        ("B", Fn1::shift(1)),
        ("B", Fn1::shift(2)),
        ("B", Fn1::affine(2, 1)),
        ("C", Fn1::identity()),
        ("C", Fn1::shift(-2)),
    ]
}

/// Random expression trees over the vocabulary: literals, the loop
/// index, negation and every scalar binary operator, to depth 3.
fn arb_expr() -> BoxedStrategy<Expr> {
    let mut leaves: Vec<Expr> = vocab()
        .into_iter()
        .map(|(a, g)| Expr::Ref(ArrayRef::d1(a, g)))
        .collect();
    leaves.extend([
        Expr::Lit(-2.5),
        Expr::Lit(0.0),
        Expr::Lit(0.5),
        Expr::Lit(3.25),
        Expr::LoopVar { dim: 0 },
    ]);
    let ops = vec![
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Min,
        BinOp::Max,
    ];
    let leaf = prop::sample::select(leaves);
    leaf.prop_recursive(3, 24, 2, move |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Neg(Box::new(e))),
            (prop::sample::select(ops.clone()), inner.clone(), inner)
                .prop_map(|(op, a, b)| Expr::Bin(op, Box::new(a), Box::new(b))),
        ]
    })
}

/// Deduplicated `(array, g)` read list of an expression — the slot
/// numbering the machines hand to [`CompiledKernel::compile`].
fn read_list(e: &Expr) -> Vec<(String, Fn1)> {
    let mut out: Vec<(String, Fn1)> = Vec::new();
    for r in e.refs() {
        if let Some(g) = r.map.as_fn1() {
            if !out.iter().any(|(a, h)| *a == r.array && h == g) {
                out.push((r.array.clone(), g.clone()));
            }
        }
    }
    out
}

/// Operand arrays with value mixes that expose sign/NaN-sensitive
/// divergence (negatives, zeros, a spread of magnitudes).
fn operand_env() -> Env {
    let mut env = Env::new();
    env.insert("A", Array::zeros(Bounds::range(0, N - 1)));
    env.insert(
        "B",
        Array::from_fn(Bounds::range(OP_LO, OP_HI), |i| {
            (i.scalar() % 23) as f64 * 0.5 - 5.0
        }),
    );
    env.insert(
        "C",
        Array::from_fn(Bounds::range(OP_LO, OP_HI), |i| {
            let v = i.scalar();
            if v % 7 == 0 {
                0.0
            } else {
                v as f64 * -0.37 + 1.25
            }
        }),
    );
    env
}

fn dec_of(kind: u8, ext: Bounds) -> Decomp1 {
    match kind % 3 {
        0 => Decomp1::block(PMAX, ext),
        1 => Decomp1::scatter(PMAX, ext),
        _ => Decomp1::block_scatter(3, PMAX, ext),
    }
}

fn decomps(a_kind: u8, b_kind: u8, c_kind: u8) -> DecompMap {
    let mut dm = DecompMap::new();
    dm.insert("A".into(), dec_of(a_kind, Bounds::range(0, N - 1)));
    dm.insert("B".into(), dec_of(b_kind, Bounds::range(OP_LO, OP_HI)));
    dm.insert("C".into(), dec_of(c_kind, Bounds::range(OP_LO, OP_HI)));
    dm
}

/// `A[i] := rhs` over `0..n-1`, optionally guarded by a data-dependent
/// comparison on `B[i]` (the paper's Fig. 1 shape). `n` below `N`
/// shrinks per-node runs off lane-width multiples, so the lane maps'
/// remainder tails — down to single-element runs at `n = 1` — are
/// exercised against the same scalar oracle.
fn clause_of_n(rhs: Expr, guarded: bool, n: i64) -> Clause {
    Clause {
        iter: IndexSet::range(0, n - 1),
        ordering: Ordering::Par,
        guard: if guarded {
            Guard::Cmp {
                lhs: ArrayRef::d1("B", Fn1::identity()),
                op: CmpOp::Gt,
                rhs: 0.0,
            }
        } else {
            Guard::Always
        },
        lhs: ArrayRef::d1("A", Fn1::identity()),
        rhs,
    }
}

/// One distributed execution; returns the gathered `A`.
fn run_dist(
    cl: &Clause,
    dm: &DecompMap,
    env0: &Env,
    faults: Option<FaultPlan>,
) -> Result<Array, String> {
    let plan = SpmdPlan::build(cl, dm).map_err(|e| e.to_string())?;
    let mut arrays: BTreeMap<String, DistArray> = BTreeMap::new();
    for name in ["A", "B", "C"] {
        arrays.insert(
            name.to_string(),
            DistArray::scatter_from(env0.get(name).unwrap(), dm[name].clone()),
        );
    }
    let opts = DistOptions {
        recv_timeout: Duration::from_secs(10),
        faults,
        retry: if faults.is_some() {
            RetryPolicy::fast()
        } else {
            RetryPolicy::default()
        },
        ..DistOptions::default()
    };
    run_distributed(&plan, cl, &mut arrays, opts).map_err(|e| e.to_string())?;
    Ok(arrays["A"].gather())
}

/// Bit pattern of every element — `-0.0` vs `0.0` and NaN payloads
/// included, which `max_abs_diff` cannot distinguish.
fn bits(a: &Array) -> Vec<u64> {
    a.data().iter().map(|v| v.to_bits()).collect()
}

/// The plan-time interior/boundary split covers the stencil's iteration
/// space exactly and both classes are non-empty on a block layout.
#[test]
fn interior_boundary_split_is_exhaustive() {
    let rhs = Expr::mul(
        Expr::add(
            Expr::Ref(ArrayRef::d1("B", Fn1::shift(-1))),
            Expr::Ref(ArrayRef::d1("B", Fn1::shift(1))),
        ),
        Expr::Lit(0.5),
    );
    let cl = Clause {
        iter: IndexSet::range(1, N - 2),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1("A", Fn1::identity()),
        rhs,
    };
    let mut dm = DecompMap::new();
    dm.insert("A".into(), Decomp1::block(PMAX, Bounds::range(0, N - 1)));
    dm.insert("B".into(), Decomp1::block(PMAX, Bounds::range(0, N - 1)));
    let plan = SpmdPlan::build(&cl, &dm).unwrap();
    let cs = CompiledSchedule::compile_exec(&plan, &cl, &dm);
    assert!(cs.has_exec(), "stencil clause must compile");
    let census = cs.overlap_census();
    assert_eq!(
        census.interior_elems + census.boundary_elems,
        (N - 2) as u64,
        "split must cover the iteration space exactly"
    );
    assert!(census.interior_elems > 0, "block stencil has interior work");
    assert!(
        census.boundary_runs > 0,
        "block stencil has halo boundaries"
    );
    assert!(
        census.remote_elems >= census.boundary_runs,
        "every boundary run consumes at least one remote element"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Unit level: the compiled bytecode reproduces the tree interpreter
    /// bit-for-bit at every loop index, for random expression trees.
    #[test]
    fn bytecode_bitwise_equals_eval_expr(e in arb_expr()) {
        let env = operand_env();
        let reads = read_list(&e);
        let k = CompiledKernel::compile(&e, reads.len(), |r: &ArrayRef| {
            let g = r.map.as_fn1()?;
            reads.iter().position(|(a, h)| *a == r.array && h == g)
        });
        let k = k.expect("every vocabulary reference resolves");
        let mut stack = Vec::with_capacity(k.stack_capacity());
        for i in 0..N {
            let vals: Vec<f64> = reads
                .iter()
                .map(|(a, g)| env.get(a).unwrap().get(&Ix::d1(g.eval(i))))
                .collect();
            let want = env.eval_expr(&e, &Ix::d1(i));
            let got = k.eval(&[i], &vals, &mut stack);
            prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "expr={:?} i={} got={} want={}",
                &e, i, got, want
            );
        }
    }

    /// The chunked run evaluator is the per-element evaluator, bit for
    /// bit: run lengths around the 256-element chunk (none, one, a chunk
    /// less one, a chunk, a chunk plus one, several chunks and a tail),
    /// with the loop coordinate advancing by 1 and by 3, over finite
    /// operands and again with signed zeros, NaN and both infinities mixed
    /// in — what `Min`, `Max`, `Div` and the operands applied in place are
    /// sensitive to. In the second mix a NaN result matches any NaN: Rust
    /// leaves the sign and payload of a NaN result unspecified, and an
    /// optimised build commutes the operands of a `*` of two NaNs.
    #[test]
    fn eval_run_bitwise_equals_eval_per_element(e in arb_expr(), i0 in -40i64..40) {
        let reads = read_list(&e);
        let k = CompiledKernel::compile(&e, reads.len(), |r: &ArrayRef| {
            let g = r.map.as_fn1()?;
            reads.iter().position(|(a, h)| *a == r.array && h == g)
        });
        let k = k.expect("every vocabulary reference resolves");
        let (mut stack, mut scratch) = (Vec::new(), Vec::new());
        let specials = [-0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for (n, special) in [0usize, 1, 255, 256, 257, 1000]
            .into_iter()
            .flat_map(|n| [(n, &[][..]), (n, &specials[..])])
        {
            // zeros, negatives and a spread of magnitudes per slot, the
            // first few values replaced by the specials
            let value = |j: usize| special.get(j).copied().unwrap_or(j as f64 * 0.5 - 5.0);
            let slots: Vec<Vec<f64>> = (0..reads.len())
                .map(|s| (0..n).map(|t| value((s * 31 + t * 7) % 23)).collect())
                .collect();
            let segs: Vec<&[f64]> = slots.iter().map(Vec::as_slice).collect();
            for step in [1i64, 3] {
                let mut out = vec![f64::NAN; n];
                k.eval_run(&[i0], 0, step, &segs, &mut out, &mut scratch);
                for (t, got) in out.iter().enumerate() {
                    let vals: Vec<f64> = slots.iter().map(|s| s[t]).collect();
                    let want = k.eval(&[i0 + step * t as i64], &vals, &mut stack);
                    let nans = !special.is_empty() && got.is_nan() && want.is_nan();
                    prop_assert!(
                        got.to_bits() == want.to_bits() || nans,
                        "expr={:?} n={} step={} t={} got={} want={}",
                        &e, n, step, t, got, want
                    );
                }
            }
        }
    }

    /// Machine level: the compiled update path is bit-identical to the
    /// sequential reference across random expressions, guards,
    /// decomposition layouts, and iteration extents (including extents
    /// that leave remainder-lane tails or single-element runs).
    #[test]
    fn distributed_matches_sequential_bitwise(
        e in arb_expr(),
        guarded in any::<bool>(),
        n in 1i64..=N,
        a_kind in 0u8..3,
        b_kind in 0u8..3,
        c_kind in 0u8..3,
    ) {
        let cl = clause_of_n(e, guarded, n);
        let dm = decomps(a_kind, b_kind, c_kind);
        let env0 = operand_env();
        let mut reference = env0.clone();
        reference.exec_clause(&cl);
        let want = bits(reference.get("A").unwrap());

        let got = run_dist(&cl, &dm, &env0, None).map_err(TestCaseError::fail)?;
        prop_assert_eq!(&bits(&got), &want, "n={} diverges: {}", n, cl);
    }

    /// Under a recoverable seeded fault plan the results are *still*
    /// bit-identical to the sequential reference — a dropped boundary
    /// packet is recovered and consumed, never replaced by stale staging
    /// in an interior-first schedule, and retry loops never re-enter a
    /// lane map with partial state.
    #[test]
    fn overlap_invariant_under_recoverable_faults(
        e in arb_expr(),
        seed in any::<u64>(),
        p_drop in 0u32..15,
        n in 1i64..=N,
        a_kind in 0u8..3,
        b_kind in 0u8..3,
    ) {
        let cl = clause_of_n(e, false, n);
        let dm = decomps(a_kind, b_kind, 0);
        let env0 = operand_env();
        let mut reference = env0.clone();
        reference.exec_clause(&cl);
        let want = bits(reference.get("A").unwrap());

        let fp = FaultPlan::seeded(seed)
            .with_drop(f64::from(p_drop) / 100.0)
            .with_duplicate(0.05)
            .with_reorder(0.05);
        let got = run_dist(&cl, &dm, &env0, Some(fp)).map_err(TestCaseError::fail)?;
        prop_assert_eq!(&bits(&got), &want, "under faults: {}", cl);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A clause signature tells apart at least what the clause's debug
    /// text does: of the clauses over a batch of random expressions,
    /// guarded and not, every two whose texts differ have different
    /// signatures, and a clone has an equal one. A batch makes pairs
    /// that differ in one literal or one access likely.
    #[test]
    fn signatures_separate_what_debug_texts_separate(
        es in prop::collection::vec(arb_expr(), 24..40),
    ) {
        let clauses = es.into_iter().flat_map(|e| {
            [clause_of_n(e.clone(), false, N), clause_of_n(e, true, N)]
        });
        let keyed: Vec<(String, u64)> = clauses
            .map(|c| {
                assert_eq!(clause_signature(&c), clause_signature(&c.clone()));
                (format!("{c:?}"), clause_signature(&c))
            })
            .collect();
        for (k, (text_a, sig_a)) in keyed.iter().enumerate() {
            for (text_b, sig_b) in &keyed[k + 1..] {
                prop_assert!(text_a == text_b || sig_a != sig_b, "{} / {}", text_a, text_b);
            }
        }
    }
}

/// The plan-time SIMD census and the runtime per-node counters agree:
/// same lane width, same lane-map/bytecode run split, same lane/tail
/// element accounting. This pins the one shared predicate
/// (`CompiledSchedule::runs_fused`) — what the planner promises is
/// exactly what the machine executes.
#[test]
fn simd_census_plan_matches_runtime() {
    let rhs = Expr::mul(
        Expr::add(
            Expr::Ref(ArrayRef::d1("B", Fn1::shift(-1))),
            Expr::Ref(ArrayRef::d1("B", Fn1::shift(1))),
        ),
        Expr::Lit(0.5),
    );
    let cl = Clause {
        iter: IndexSet::range(1, N - 2),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1("A", Fn1::identity()),
        rhs,
    };
    let mut dm = DecompMap::new();
    dm.insert("A".into(), Decomp1::block(PMAX, Bounds::range(0, N - 1)));
    dm.insert("B".into(), Decomp1::block(PMAX, Bounds::range(0, N - 1)));
    let plan = SpmdPlan::build(&cl, &dm).unwrap();
    let cs = CompiledSchedule::compile_exec(&plan, &cl, &dm);
    assert!(cs.has_exec(), "stencil clause must compile");

    let planned = cs.fused_census();
    let mut env0 = Env::new();
    env0.insert("A", Array::zeros(Bounds::range(0, N - 1)));
    env0.insert(
        "B",
        Array::from_fn(Bounds::range(0, N - 1), |i| i.scalar() as f64 * 0.25 - 3.0),
    );
    let mut arrays: BTreeMap<String, DistArray> = BTreeMap::new();
    for name in ["A", "B"] {
        arrays.insert(
            name.to_string(),
            DistArray::scatter_from(env0.get(name).unwrap(), dm[name].clone()),
        );
    }
    let report = run_distributed(&plan, &cl, &mut arrays, DistOptions::default()).unwrap();
    let ran = report.simd_census();
    assert_eq!(ran.vector_runs, planned.vector_runs);
    assert_eq!(ran.fallback_runs, planned.fallback_runs);
    assert_eq!(ran.lane_elems, planned.lane_elems);
    assert_eq!(ran.tail_elems, planned.tail_elems);
    assert!(planned.vector_runs > 0, "interior stencil must vectorize");
    assert_eq!(ran.lanes, planned.lanes, "lane width must agree");
}

// ---------------------------------------------------------------------
// boundary-heavy layouts: the run-granular receive path
// ---------------------------------------------------------------------

/// A fixed-seed LCG of array values in `[-10, 10]`.
fn lcg(mut state: u64) -> impl FnMut() -> f64 {
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % 2001) as f64 * 0.01 - 10.0
    }
}

/// The case `A[lhs(i)] := rhs` over `iter`, with `A` laid out by `a`
/// (zeros) and `B` by `b` (drawn from `next`).
fn layout_case(
    next: &mut impl FnMut() -> f64,
    name: &'static str,
    iter: (i64, i64),
    lhs: Fn1,
    rhs: Expr,
    (a, b): (Decomp1, Decomp1),
) -> (&'static str, Clause, DecompMap, Env) {
    let cl = Clause {
        iter: IndexSet::range(iter.0, iter.1),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1("A", lhs),
        rhs,
    };
    let mut env = Env::new();
    env.insert("A", Array::zeros(a.extent()));
    env.insert("B", Array::from_fn(b.extent(), |_| next()));
    let mut dm = DecompMap::new();
    dm.insert("A".into(), a);
    dm.insert("B".into(), b);
    (name, cl, dm, env)
}

/// The layouts whose update phase is dominated by boundary runs: every
/// other block remote (block-scatter → block), every other element
/// remote through a stride-3 read (scatter → block), and a 3-point
/// stencil whose only remote operands are 1-element halos. Array
/// contents come from a fixed-seed LCG.
fn boundary_cases() -> Vec<(&'static str, Clause, DecompMap, Env)> {
    let mut next = lcg(0x5eed);
    let mut case =
        |name, iter, rhs, a, b| layout_case(&mut next, name, iter, Fn1::identity(), rhs, (a, b));
    let b_ref = |g: Fn1| Expr::Ref(ArrayRef::d1("B", g));
    let (n, m, s) = (256i64, 96i64, 128i64);
    vec![
        case(
            "bs_to_block",
            (0, n - 1),
            b_ref(Fn1::identity()),
            Decomp1::block(2, Bounds::range(0, n - 1)),
            Decomp1::block_scatter(8, 2, Bounds::range(0, n - 1)),
        ),
        case(
            "scatter_stride3",
            (0, m - 1),
            Expr::add(b_ref(Fn1::affine(3, 1)), Expr::Lit(0.5)),
            Decomp1::block(2, Bounds::range(0, m - 1)),
            Decomp1::scatter(2, Bounds::range(0, 3 * m)),
        ),
        case(
            "stencil_halo",
            (1, s - 2),
            Expr::mul(
                Expr::Lit(0.5),
                Expr::add(b_ref(Fn1::shift(-1)), b_ref(Fn1::shift(1))),
            ),
            Decomp1::block(4, Bounds::range(0, s - 1)),
            Decomp1::block(4, Bounds::range(0, s - 1)),
        ),
    ]
}

/// Entries neither the lane tier nor the slice copy takes, which run a
/// chunk at a time: a strided write `A[2i+1]` of a generic rhs over three
/// layouts of `A` (on some nodes it covers half the part and commits as
/// an image, on others it is staged), a strided read into a unit-stride
/// lhs, a Block → BS(16) copy whose boundary entries are one-element
/// reps, a read through a table (`B[i²]` is not affine) and a kernel
/// that reads its loop coordinate along strided entries of many reps.
fn strided_cases() -> Vec<(&'static str, Clause, DecompMap, Env)> {
    let mut next = lcg(0x57e1de);
    let b_ref = |g: Fn1| Expr::Ref(ArrayRef::d1("B", g));
    let bin = |op, x, y| Expr::Bin(op, Box::new(x), Box::new(y));
    let generic = bin(
        BinOp::Sub,
        b_ref(Fn1::identity()),
        Expr::mul(b_ref(Fn1::shift(1)), Expr::Lit(0.75)),
    );
    let (m, copy) = (100i64, 4096i64);
    let (odd, ext) = (Fn1::affine(2, 1), Bounds::range(0, 2 * m + 7));
    let b = Decomp1::block(2, Bounds::range(0, m));
    let mut case =
        |name, iter, lhs, rhs, layouts| layout_case(&mut next, name, iter, lhs, rhs, layouts);
    vec![
        case(
            "odd_block",
            (0, m - 1),
            odd.clone(),
            generic.clone(),
            (Decomp1::block(2, ext), b.clone()),
        ),
        case(
            "odd_scatter",
            (0, m - 1),
            odd.clone(),
            generic.clone(),
            (Decomp1::scatter(2, ext), b.clone()),
        ),
        case(
            "odd_bs4",
            (0, m - 1),
            odd,
            generic,
            (Decomp1::block_scatter(4, 2, ext), b),
        ),
        case(
            "strided_read",
            (0, m - 1),
            Fn1::identity(),
            bin(BinOp::Max, b_ref(Fn1::affine(2, 0)), b_ref(Fn1::shift(1))),
            (
                Decomp1::block(2, Bounds::range(0, m - 1)),
                Decomp1::block(2, Bounds::range(0, 2 * m)),
            ),
        ),
        case(
            "block_to_bs16",
            (0, copy - 1),
            Fn1::identity(),
            b_ref(Fn1::identity()),
            (
                Decomp1::block_scatter(16, 2, Bounds::range(0, copy - 1)),
                Decomp1::block(2, Bounds::range(0, copy - 1)),
            ),
        ),
        case(
            "table_read",
            (0, 15),
            Fn1::identity(),
            bin(BinOp::Sub, b_ref(Fn1::square()), b_ref(Fn1::identity())),
            (
                Decomp1::block(2, Bounds::range(0, 15)),
                Decomp1::block(2, Bounds::range(0, 255)),
            ),
        ),
        case(
            "loop_var_strided",
            (0, m - 1),
            Fn1::identity(),
            bin(
                BinOp::Sub,
                b_ref(Fn1::affine(3, 1)),
                Expr::LoopVar { dim: 0 },
            ),
            (
                Decomp1::block_scatter(4, 2, Bounds::range(0, m - 1)),
                Decomp1::scatter(2, Bounds::range(0, 3 * m)),
            ),
        ),
    ]
}

fn scatter_ab(env0: &Env, dm: &DecompMap) -> BTreeMap<String, DistArray> {
    ["A", "B"]
        .into_iter()
        .map(|name| {
            (
                name.to_string(),
                DistArray::scatter_from(env0.get(name).unwrap(), dm[name].clone()),
            )
        })
        .collect()
}

/// One traced cold run of a boundary case; returns the deterministic
/// JSONL and the gathered `A`.
fn traced_boundary_run(
    cl: &Clause,
    dm: &DecompMap,
    env0: &Env,
    opts: DistOptions,
) -> (String, Array) {
    let plan = SpmdPlan::build(cl, dm).unwrap();
    let mut arrays = scatter_ab(env0, dm);
    let tracer = CollectingTracer::new();
    run_distributed_traced(&plan, cl, &mut arrays, opts, &tracer).unwrap();
    let log = tracer.finish();
    replay_check(&log, &plan, opts.retry).unwrap();
    (log.to_jsonl(), arrays["A"].gather())
}

fn fixture_path(case: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(format!("{case}_vectorized_overlap.jsonl"))
}

/// One node's share of a deterministic trace, with the `t` clock cut
/// out of every line: its `recv_value` lines as a multiset, Σ `elems`
/// over its `interior_run` and `boundary_run` lines, Σ `recvs`, its
/// `simd_census` counts, and every other line in order.
#[derive(Debug, Default, PartialEq)]
struct NodeLog {
    recv_values: Vec<String>,
    run_elems: u64,
    recvs: u64,
    census: Vec<[u64; 4]>,
    rest: Vec<String>,
}

fn node_logs(log: &str) -> BTreeMap<String, NodeLog> {
    let num = |line: &str, key: &str| -> u64 {
        let (_, tail) = line.split_once(&format!("\"{key}\":")).expect(key);
        let digits = tail.split(|c: char| !c.is_ascii_digit()).next();
        digits.and_then(|d| d.parse().ok()).expect(key)
    };
    let mut nodes: BTreeMap<String, NodeLog> = BTreeMap::new();
    for line in log.lines() {
        let (head, rest) = line.split_once(",\"t\":").expect("clocked line");
        let (_, tail) = rest.split_once(',').expect("fields after the clock");
        let line = format!("{head},{tail}");
        let node = nodes.entry(head.to_string()).or_default();
        if line.contains("\"recv_value\"") {
            node.recv_values.push(line);
        } else if line.contains("\"interior_run\"") {
            node.run_elems += num(&line, "elems");
        } else if line.contains("\"boundary_run\"") {
            node.run_elems += num(&line, "elems");
            node.recvs += num(&line, "recvs");
        } else if line.contains("\"simd_census\"") {
            let keys = ["vector_runs", "fallback_runs", "lane_elems", "tail_elems"];
            node.census.push(keys.map(|k| num(&line, k)));
        } else {
            node.rest.push(line);
        }
    }
    for node in nodes.values_mut() {
        node.recv_values.sort_unstable();
    }
    nodes
}

/// The deterministic trace of every boundary case is byte-identical to
/// the fixture under `tests/data/`. The fixtures were regenerated when
/// the exec tables started folding runs into two-level entries (one
/// `interior_run` / `boundary_run` per entry, elements summed over its
/// reps); the logs of the commit before are kept under
/// `tests/data/parent/` and must agree with them node by node: equal
/// `recv_value` multisets, Σ `elems` over the run lines, Σ `recvs`, equal
/// SIMD lane and tail elements over no more runs, and every other line
/// byte for byte once the `t` clock the folding shifts is cut out. All
/// fixtures were captured when a switch could send every entry through
/// the bytecode; now that a fused entry always runs its lane map, the
/// only lines allowed to differ are the `simd_census` ones, and each of
/// those still counts every entry once.
#[test]
fn boundary_traces_match_parent_commit_fixtures() {
    std::env::set_var("VCAL_WORKER_BIN", env!("CARGO_BIN_EXE_vcalc"));
    let without_census = |log: &str| -> String {
        log.lines()
            .filter(|l| !l.contains("\"simd_census\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    for (name, cl, dm, env0) in boundary_cases() {
        let mut reference = env0.clone();
        reference.exec_clause(&cl);
        let want_bits = bits(reference.get("A").unwrap());
        let path = fixture_path(name);
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("fixture {}: {e}", path.display()));
        let file = path.file_name().expect("fixture file name");
        let parent = path.with_file_name("parent").join(file);
        let parent = std::fs::read_to_string(&parent)
            .unwrap_or_else(|e| panic!("fixture {}: {e}", parent.display()));
        let (mine, theirs) = (node_logs(&want), node_logs(&parent));
        assert_eq!(
            mine.keys().collect::<Vec<_>>(),
            theirs.keys().collect::<Vec<_>>(),
            "{name}"
        );
        for ((node, m), t) in mine.iter().zip(theirs.values()) {
            let what = format!("{name} {node}: differs from the parent's");
            assert_eq!(m.recv_values, t.recv_values, "{what} recv_value multiset");
            assert_eq!((m.run_elems, m.recvs), (t.run_elems, t.recvs), "{what}");
            assert_eq!(m.rest, t.rest, "{what}");
            assert_eq!(m.census.len(), t.census.len(), "{what}");
            for (m, t) in m.census.iter().zip(&t.census) {
                assert_eq!(m[2..], t[2..], "{what}: lane/tail elements");
                assert!(m[0] <= t[0] && m[1] <= t[1], "{what}: {m:?} vs {t:?}");
            }
        }
        for transport in [TransportKind::InProc, TransportKind::Uds] {
            let opts = DistOptions {
                recv_timeout: Duration::from_secs(10),
                transport,
                ..DistOptions::default()
            };
            let what = format!("{name} {transport:?}");
            let (got, a) = traced_boundary_run(&cl, &dm, &env0, opts);
            assert_eq!(bits(&a), want_bits, "{what}: result");
            assert_eq!(
                without_census(&got),
                without_census(&want),
                "{what}: trace differs from the fixture beyond the census lines"
            );
            for ((node, g), w) in node_logs(&got).iter().zip(mine.values()) {
                assert_eq!(g.census.len(), w.census.len(), "{what} {node}");
                for (g, w) in g.census.iter().zip(&w.census) {
                    assert_eq!(g[0] + g[1], w[0] + w[1], "{what} {node}: {g:?} vs {w:?}");
                }
            }
        }
    }
}

/// Bitwise differential sweep over the boundary-heavy and the strided
/// layouts and the guarded ones: the cold machine, then the same clause
/// as a two-step program through a warm session under both schedulers —
/// every combination equals the sequential machine bit for bit, and the
/// runtime SIMD census equals the plan-time one.
#[test]
fn boundary_layouts_match_sequential_bitwise() {
    // a block-scatter source at pmax = 4 too: three packets from three
    // peers feed each contiguous boundary stretch
    let mut cases = boundary_cases();
    let (_, cl, dm, env0) = cases[0].clone();
    let mut dm4 = dm.clone();
    dm4.insert("A".into(), Decomp1::block(4, dm["A"].extent()));
    dm4.insert("B".into(), Decomp1::block_scatter(8, 4, dm["B"].extent()));
    cases.push(("bs_to_block_p4", cl, dm4, env0));
    cases.extend(strided_cases());

    for (name, cl, dm, env0) in cases {
        let mut reference = env0.clone();
        reference.exec_clause(&cl);
        let want = bits(reference.get("A").unwrap());
        let plan = SpmdPlan::build(&cl, &dm).unwrap();
        let cs = CompiledSchedule::compile_exec(&plan, &cl, &dm);
        assert!(cs.has_exec(), "{name}: closed-form plan must compile");
        let mut arrays = scatter_ab(&env0, &dm);
        let opts = DistOptions::default();
        let report = run_distributed(&plan, &cl, &mut arrays, opts).unwrap();
        assert_eq!(bits(&arrays["A"].gather()), want, "{name}");
        let (ran, planned) = (report.simd_census(), cs.fused_census());
        assert_eq!(ran.vector_runs, planned.vector_runs, "{name}");
        assert_eq!(ran.fallback_runs, planned.fallback_runs, "{name}");
        assert_eq!(ran.lane_elems, planned.lane_elems, "{name}");
        assert_eq!(ran.tail_elems, planned.tail_elems, "{name}");

        // warm pool, twice (the second run replays cached
        // tables through reset staging); under Dag the two
        // independent clauses share one wave, so each
        // receives through its own lane
        for schedule in [ScheduleMode::Seq, ScheduleMode::Dag] {
            let mut cl2 = cl.clone();
            cl2.lhs = ArrayRef::new("A2", cl.lhs.map.clone());
            let mut env2 = env0.clone();
            env2.insert("A2", Array::zeros(dm["A"].extent()));
            let mut dm2 = dm.clone();
            dm2.insert("A2".into(), dm["A"].clone());
            let mut session = DistSession::new(&env2, dm2).unwrap().with_options(opts);
            let steps = [ProgramStep::Clause(cl.clone()), ProgramStep::Clause(cl2)];
            for _ in 0..2 {
                session.run_program(&steps, schedule, &NULL_TRACER).unwrap();
            }
            for out in ["A", "A2"] {
                assert_eq!(
                    bits(&session.gather(out).unwrap()),
                    want,
                    "{name} {schedule:?} {out}"
                );
            }
        }
    }
}

/// Guarded clauses run a chunk at a time: the guard is tested into a chunk
/// mask, and a position it drops keeps its value. Each case has a guard
/// that fails inside chunks of more than one, over an operand read
/// strided (`B[2i+1]`, local and from packets) or fed by packets from a
/// BS(8) layout, into a contiguous lhs and into a strided one (`A[2i+1]`).
/// `A` starts from a distinct value per element. Cold (in process and on
/// worker processes) and warm under both schedulers, the result equals
/// the sequential machine bit for bit, every dropped position still
/// holds its start value, and the census puts every entry on the
/// bytecode, in the plan as at run time. A guarded clause always stages
/// its writes: `writes_image` leaves next images to unguarded ones.
#[test]
fn guarded_chunks_keep_masked_elements() {
    std::env::set_var("VCAL_WORKER_BIN", env!("CARGO_BIN_EXE_vcalc"));
    let mut next = lcg(0x6a2d);
    let b_ref = |g: Fn1| Expr::Ref(ArrayRef::d1("B", g));
    let m = 600i64;
    let (odd, wide) = (Fn1::affine(2, 1), Bounds::range(0, 2 * m + 1));
    let guard = |g: Fn1, op| Guard::Cmp {
        lhs: ArrayRef::d1("B", g),
        op,
        rhs: 0.0,
    };
    let axpy = Expr::add(
        Expr::mul(Expr::Lit(2.0), b_ref(odd.clone())),
        Expr::Lit(1.0),
    );
    let generic = Expr::Bin(
        BinOp::Sub,
        Box::new(b_ref(Fn1::identity())),
        Box::new(Expr::mul(b_ref(Fn1::shift(1)), Expr::Lit(0.75))),
    );
    let stencil = Expr::mul(
        Expr::Lit(0.5),
        Expr::add(b_ref(Fn1::identity()), b_ref(Fn1::shift(1))),
    );
    let cases = [
        (
            "strided_read",
            Fn1::identity(),
            axpy,
            guard(odd, CmpOp::Gt),
            (
                Decomp1::block(2, Bounds::range(0, m - 1)),
                Decomp1::block(2, wide),
            ),
        ),
        (
            "packet_read",
            Fn1::identity(),
            generic,
            guard(Fn1::identity(), CmpOp::Lt),
            (
                Decomp1::block(2, Bounds::range(0, m - 1)),
                Decomp1::block_scatter(8, 2, Bounds::range(0, m)),
            ),
        ),
        (
            "strided_lhs",
            Fn1::affine(2, 1),
            stencil,
            guard(Fn1::shift(1), CmpOp::Ge),
            (
                Decomp1::block(2, wide),
                Decomp1::block_scatter(8, 2, Bounds::range(0, m)),
            ),
        ),
    ];
    for (name, lhs, rhs, guard, layouts) in cases {
        let (_, mut cl, dm, mut env0) = layout_case(&mut next, name, (0, m - 1), lhs, rhs, layouts);
        cl.guard = guard;
        let start = Array::from_fn(dm["A"].extent(), |i| 1000.0 + i.scalar() as f64);
        env0.insert("A", start.clone());
        let mut reference = env0.clone();
        reference.exec_clause(&cl);
        let want = bits(reference.get("A").unwrap());
        // the written positions the guard drops, each one a start value
        let dropped: Vec<usize> = (0..m)
            .map(|i| cl.lhs.map.as_fn1().unwrap().eval(i) as usize)
            .filter(|&o| reference.get("A").unwrap().data()[o] == start.data()[o])
            .collect();
        assert!(dropped.len() > 16, "{name}: the guard fails inside chunks");
        let plan = SpmdPlan::build(&cl, &dm).unwrap();
        let cs = CompiledSchedule::compile_exec(&plan, &cl, &dm);
        let planned = cs.fused_census();
        assert!(
            planned.vector_runs == 0 && planned.fallback_runs > 0,
            "{name}"
        );
        for transport in [TransportKind::InProc, TransportKind::Uds] {
            let what = format!("{name} {transport:?}");
            let mut arrays = scatter_ab(&env0, &dm);
            let opts = DistOptions {
                transport,
                ..DistOptions::default()
            };
            let report = run_distributed(&plan, &cl, &mut arrays, opts).unwrap();
            let got = arrays["A"].gather();
            assert_eq!(bits(&got), want, "{what}");
            for &o in &dropped {
                assert_eq!(
                    got.data()[o].to_bits(),
                    start.data()[o].to_bits(),
                    "{what} {o}"
                );
            }
            assert_eq!(report.simd_census().fallback_runs, planned.fallback_runs);
            assert_eq!(report.simd_census().vector_runs, 0, "{what}");
        }
        for schedule in [ScheduleMode::Seq, ScheduleMode::Dag] {
            let mut cl2 = cl.clone();
            cl2.lhs = ArrayRef::new("A2", cl.lhs.map.clone());
            let mut env2 = env0.clone();
            env2.insert("A2", start.clone());
            let mut dm2 = dm.clone();
            dm2.insert("A2".into(), dm["A"].clone());
            let mut session = DistSession::new(&env2, dm2).unwrap();
            let steps = [ProgramStep::Clause(cl.clone()), ProgramStep::Clause(cl2)];
            for _ in 0..2 {
                session.run_program(&steps, schedule, &NULL_TRACER).unwrap();
            }
            for out in ["A", "A2"] {
                let got = bits(&session.gather(out).unwrap());
                assert_eq!(got, want, "{name} {schedule:?} {out}");
            }
        }
    }
}
