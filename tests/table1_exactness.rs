//! E3 — Table I exactness: for every row of the paper's optimization
//! table and every decomposition column, the closed-form schedule must
//! enumerate *exactly* the ownership set `{ i | proc(f(i)) = p }`, the
//! per-processor sets must partition the loop, the expected theorem must
//! fire, and the closed-form work must be strictly below the naive
//! (`imax - imin + 1` tests per processor) cost.

use vcal_suite::core::func::Fn1;
use vcal_suite::core::Bounds;
use vcal_suite::decomp::Decomp1;
use vcal_suite::machine::{trace_plan, CollectingTracer};
use vcal_suite::spmd::{naive_schedule, optimize, OptKind, PlanSummary, SpmdPlan};

/// Check one (f, dec) pair over the loop range for all processors.
/// Returns the kinds seen.
fn check_cell(f: &Fn1, dec: &Decomp1, imin: i64, imax: i64) -> Vec<OptKind> {
    let mut kinds = Vec::new();
    let mut covered = 0u64;
    for p in 0..dec.pmax() {
        let opt = optimize(f, dec, imin, imax, p);
        let got = opt.schedule.to_sorted_vec();
        let want: Vec<i64> = (imin..=imax)
            .filter(|&i| dec.proc_of(f.eval(i)) == p)
            .collect();
        assert_eq!(
            got, want,
            "EXACTNESS p={p} f={f:?} {dec} kind={:?}",
            opt.kind
        );
        covered += got.len() as u64;
        kinds.push(opt.kind);
    }
    assert_eq!(
        covered,
        (imax - imin + 1).max(0) as u64,
        "PARTITION f={f:?} {dec}"
    );
    kinds
}

fn total_closed_work(f: &Fn1, dec: &Decomp1, imin: i64, imax: i64) -> u64 {
    (0..dec.pmax())
        .map(|p| optimize(f, dec, imin, imax, p).schedule.work_estimate())
        .sum()
}

fn total_naive_work(f: &Fn1, dec: &Decomp1, imin: i64, imax: i64) -> u64 {
    (0..dec.pmax())
        .map(|p| naive_schedule(f, dec, imin, imax, p).work_estimate())
        .sum()
}

const N: i64 = 1200;

fn block(pmax: i64) -> Decomp1 {
    Decomp1::block(pmax, Bounds::range(0, N - 1))
}
fn scatter(pmax: i64) -> Decomp1 {
    Decomp1::scatter(pmax, Bounds::range(0, N - 1))
}
fn bs(b: i64, pmax: i64) -> Decomp1 {
    Decomp1::block_scatter(b, pmax, Bounds::range(0, N - 1))
}

// ---- Table I row 1: f(i) = c ------------------------------------------

#[test]
fn row_constant() {
    for pmax in [2, 4, 7] {
        for dec in [block(pmax), scatter(pmax), bs(5, pmax)] {
            for c in [0, 1, 599, N - 1] {
                let kinds = check_cell(&Fn1::Const(c), &dec, 0, 499);
                assert!(kinds.iter().all(|k| *k == OptKind::ConstantFn));
                // exactly one processor is active
                let active = (0..pmax)
                    .filter(|&p| {
                        !optimize(&Fn1::Const(c), &dec, 0, 499, p)
                            .schedule
                            .is_empty()
                    })
                    .count();
                assert_eq!(active, 1);
            }
        }
    }
}

// ---- Table I row 2: f(i) = i + c ----------------------------------------

#[test]
fn row_shift() {
    for pmax in [2, 4, 8] {
        for c in [-3i64, 0, 1, 7] {
            let f = Fn1::shift(c);
            let (imin, imax) = (c.abs(), N - 1 - c.abs());
            let kb = check_cell(&f, &block(pmax), imin, imax);
            assert!(kb.iter().all(|k| *k == OptKind::BlockAffine), "{kb:?}");
            let ks = check_cell(&f, &scatter(pmax), imin, imax);
            assert!(
                ks.iter()
                    .all(|k| matches!(k, OptKind::ScatterLinear { corollary: 1 })),
                "a=1 should hit Corollary 1: {ks:?}"
            );
            check_cell(&f, &bs(4, pmax), imin, imax);
        }
    }
}

// ---- Table I rows 3-5: f(i) = a*i + c -----------------------------------

#[test]
fn row_linear_general_and_corollaries() {
    for pmax in [4i64, 6, 8] {
        for a in [2i64, 3, 5, 6, 7, -2, -5] {
            for c in [0i64, 1, 11] {
                let f = Fn1::affine(a, c);
                // keep accesses within 0..N-1
                let lo_img = 0.max(c.min(a * 120 + c));
                let (imin, imax) = if a > 0 {
                    (if c < 0 { (-c + a - 1) / a } else { 0 }, (N - 1 - c) / a)
                } else {
                    ((c - (N - 1)) / a.abs() + 1, c / a.abs())
                };
                assert!(lo_img >= 0);
                check_cell(&f, &block(pmax), imin, imax);
                let ks = check_cell(&f, &scatter(pmax), imin, imax);
                let expected = if a.abs() % pmax == 0 {
                    2u8
                } else if pmax % a.abs() == 0 {
                    1
                } else {
                    0
                };
                assert!(
                    ks.iter().all(|k| *k
                        == OptKind::ScatterLinear {
                            corollary: expected
                        }),
                    "a={a} pmax={pmax}: {ks:?}"
                );
                check_cell(&f, &bs(3, pmax), imin, imax);
                check_cell(&f, &bs(16, pmax), imin, imax);
            }
        }
    }
}

#[test]
fn corollary_2_single_active_processor() {
    // a mod pmax = 0: only p = c mod pmax executes anything
    let pmax = 4;
    let f = Fn1::affine(8, 3);
    let dec = scatter(pmax);
    for p in 0..pmax {
        let opt = optimize(&f, &dec, 0, (N - 1 - 3) / 8, p);
        assert_eq!(opt.schedule.is_empty(), p != 3, "p={p}");
    }
}

// ---- Table I row 6: monotone non-linear ---------------------------------

#[test]
fn row_monotonic() {
    let sq = Fn1::square();
    let idiv = Fn1::i_plus_i_div(4);
    for pmax in [4i64, 8] {
        // block column: exact range via f^{-1}
        let kb = check_cell(&sq, &block(pmax), 0, 34); // 34^2 = 1156 < N
        assert!(kb.iter().all(|k| *k == OptKind::BlockMonotonic));
        let kb = check_cell(&idiv, &block(pmax), 0, 900);
        assert!(kb.iter().all(|k| *k == OptKind::BlockMonotonic));
        // block-scatter column: repeated block (Theorem 2)
        let kbs = check_cell(&sq, &bs(40, pmax), 0, 34);
        assert!(
            kbs.iter()
                .all(|k| matches!(k, OptKind::RepeatedBlock | OptKind::RepeatedScatter)),
            "{kbs:?}"
        );
        check_cell(&idiv, &bs(7, pmax), 0, 900);
    }
    // scatter column: slope < pmax -> enumerate on k
    let ks = check_cell(&idiv, &scatter(16), 0, 900);
    assert!(
        ks.iter().all(|k| *k == OptKind::ScatterMonotonicViaK),
        "{ks:?}"
    );
    // slope >= pmax -> naive fallback (still exact)
    let ks = check_cell(&sq, &scatter(4), 0, 34);
    assert!(ks.iter().all(|k| *k == OptKind::Naive), "{ks:?}");
}

#[test]
fn monotonic_decreasing_block() {
    let f = Fn1::affine(-1, N - 1); // reversal
    let kinds = check_cell(&f, &block(4), 0, N - 1);
    assert!(kinds.iter().all(|k| *k == OptKind::BlockAffine));
    check_cell(&f, &scatter(4), 0, N - 1);
    check_cell(&f, &bs(8, 4), 0, N - 1);
}

// ---- Section 3.3: piecewise-monotonic -----------------------------------

#[test]
fn piecewise_rotate_and_multiwrap() {
    let rot = Fn1::rotate(6, 20);
    for dec in [
        Decomp1::block(4, Bounds::range(0, 19)),
        Decomp1::scatter(4, Bounds::range(0, 19)),
        Decomp1::block_scatter(2, 4, Bounds::range(0, 19)),
    ] {
        let kinds = check_cell(&rot, &dec, 0, 19);
        assert!(
            kinds.iter().all(|k| *k == OptKind::PiecewiseSplit),
            "{dec}: {kinds:?}"
        );
    }
    // rotate by a larger span with multiple wraps relative to pieces
    let rot2 = Fn1::Mod {
        inner: Box::new(Fn1::affine(1, 250)),
        z: 300,
        d: 0,
    };
    for dec in [
        Decomp1::block(4, Bounds::range(0, 299)),
        Decomp1::scatter(4, Bounds::range(0, 299)),
        Decomp1::block_scatter(5, 4, Bounds::range(0, 299)),
    ] {
        check_cell(&rot2, &dec, 0, 299);
    }
}

#[test]
fn paper_special_case_mod_multiple_of_pmax() {
    // Section 3.3: "For cases where z is a multiple of pmax and d=0,
    // f(i) mod pmax = g(i) mod pmax" — the scatter schedule of the rotate
    // then equals the scatter schedule of the unrotated inner, shifted.
    let pmax = 4;
    let z = 20; // multiple of pmax
    let rot = Fn1::rotate(6, z);
    let dec = Decomp1::scatter(pmax, Bounds::range(0, z - 1));
    for p in 0..pmax {
        let rot_sched = optimize(&rot, &dec, 0, z - 1, p).schedule.to_sorted_vec();
        let inner_sched: Vec<i64> = (0..z).filter(|&i| (i + 6).rem_euclid(pmax) == p).collect();
        assert_eq!(rot_sched, inner_sched, "p={p}");
    }
}

// ---- edge rows: negative strides ----------------------------------------

#[test]
fn row_negative_stride_exact_and_closed_form() {
    // a < 0 across all three decomposition columns: the image runs
    // backwards through the array, but every schedule must stay exact
    // and closed-form (Theorem 3 is symmetric in the sign of `a`).
    for (a, pmax, expected_corollary) in [(-3i64, 4i64, 0u8), (-4, 4, 2), (-2, 8, 1), (-7, 4, 0)] {
        for c in [N - 1, N - 5] {
            let f = Fn1::affine(a, c);
            // f(i) = a*i + c with a < 0 descends from c; keep the image
            // inside [0, N-1]
            let imax = c / a.abs();
            let kb = check_cell(&f, &block(pmax), 0, imax);
            assert!(
                kb.iter().all(|k| *k == OptKind::BlockAffine),
                "a={a}: {kb:?}"
            );
            let ks = check_cell(&f, &scatter(pmax), 0, imax);
            assert!(
                ks.iter().all(|k| *k
                    == OptKind::ScatterLinear {
                        corollary: expected_corollary
                    }),
                "a={a} pmax={pmax}: {ks:?}"
            );
            let kbs = check_cell(&f, &bs(5, pmax), 0, imax);
            assert!(kbs.iter().all(|k| k.is_closed_form()), "a={a}: {kbs:?}");
        }
    }
}

// ---- edge rows: offset outside the loop's image --------------------------

#[test]
fn offset_outside_image_stays_exact() {
    // `c` alone lies outside the accessed image (negative, or beyond the
    // far end with a negative stride); the composed accesses f(i) stay
    // inside the extent for the tested range, and every column must
    // still classify closed-form — no silent naive fallback.
    for pmax in [4i64, 8] {
        // c < 0: f(i) = 7i - 5 ∈ [2, ...] for i >= 1
        let f = Fn1::affine(7, -5);
        let (imin, imax) = (1, (N - 1 + 5) / 7);
        for dec in [block(pmax), scatter(pmax), bs(6, pmax)] {
            let kinds = check_cell(&f, &dec, imin, imax);
            assert!(kinds.iter().all(|k| k.is_closed_form()), "{dec}: {kinds:?}");
        }
        // c > N-1 with a < 0: f(i) = -3i + (N+3) ∈ [.., N-3] for i >= 2
        let f = Fn1::affine(-3, N + 3);
        let (imin, imax) = (2, (N + 3) / 3);
        for dec in [block(pmax), scatter(pmax), bs(9, pmax)] {
            let kinds = check_cell(&f, &dec, imin, imax);
            assert!(kinds.iter().all(|k| k.is_closed_form()), "{dec}: {kinds:?}");
        }
    }
}

// ---- edge rows: degenerate single-element blocks --------------------------

#[test]
fn degenerate_single_element_blocks() {
    // b = 1 makes block-scatter collapse onto plain scatter, and a block
    // decomposition with one element per processor is the finest block —
    // both must classify closed-form and enumerate exactly.
    for pmax in [2i64, 4, 8] {
        for f in [Fn1::identity(), Fn1::shift(2), Fn1::affine(3, 1)] {
            let imax = match &f {
                Fn1::Affine { a, c } => (N - 1 - c) / a,
                _ => N - 3,
            };
            let kinds = check_cell(&f, &bs(1, pmax), 0, imax);
            assert!(
                kinds.iter().all(|k| k.is_closed_form()),
                "b=1 pmax={pmax} f={f:?}: {kinds:?}"
            );
        }
    }
    // one element per processor: extent 0..pmax-1, block size 1
    let pmax = 16;
    let tiny = Decomp1::block(pmax, Bounds::range(0, pmax - 1));
    let kinds = check_cell(&Fn1::identity(), &tiny, 0, pmax - 1);
    assert!(kinds.iter().all(|k| k.is_closed_form()), "{kinds:?}");
    for p in 0..pmax {
        let opt = optimize(&Fn1::identity(), &tiny, 0, pmax - 1, p);
        assert_eq!(opt.schedule.to_sorted_vec(), vec![p], "p={p}");
    }
}

// ---- edge rows: gcd(a, P·b) > 1 Diophantine no-solution -------------------

#[test]
fn gcd_no_solution_is_empty_not_naive() {
    // gcd(a, pmax) > 1: the congruence a·i + c ≡ p (mod pmax) has no
    // solution for half the processors. Theorem 3 must answer with an
    // *empty* closed-form schedule — falling back to membership testing
    // would be exact too, which is why only the dispatch kind can catch
    // the regression.
    let (a, c, pmax) = (6i64, 1i64, 4i64);
    let f = Fn1::affine(a, c);
    let imax = (N - 1 - c) / a;
    let kinds = check_cell(&f, &scatter(pmax), 0, imax);
    assert!(
        kinds
            .iter()
            .all(|k| *k == OptKind::ScatterLinear { corollary: 0 }),
        "{kinds:?}"
    );
    for p in 0..pmax {
        let opt = optimize(&f, &scatter(pmax), 0, imax, p);
        // 6i+1 mod 4 ∈ {1, 3}: even processors own nothing
        assert_eq!(opt.schedule.is_empty(), p % 2 == 0, "p={p}");
        assert!(opt.kind.is_closed_form(), "p={p}: {:?}", opt.kind);
    }
    // block-scatter column: gcd(a, P·b) = gcd(6, 4·2) = 2 > 1
    let kbs = check_cell(&f, &bs(2, pmax), 0, imax);
    assert!(kbs.iter().all(|k| k.is_closed_form()), "{kbs:?}");
}

// ---- the dispatch trace is the witness ------------------------------------

#[test]
fn edge_rows_dispatch_trace_shows_no_fallback() {
    // Whole-plan check through the observability layer: the recorded
    // enumeration-dispatch trace for an edge clause (negative stride,
    // gcd > 1, offset outside the image) must contain no `naive-guard`
    // row — the paper's closed forms cover all of them.
    use vcal_suite::core::func::Fn1;
    use vcal_suite::core::{ArrayRef, Clause, Expr, Guard, IndexSet, Ordering};
    use vcal_suite::spmd::DecompMap;

    let cases: Vec<(Fn1, Fn1, i64, i64)> = vec![
        (Fn1::identity(), Fn1::affine(-3, N + 3), 2, (N + 3) / 3), // a<0, c>N-1
        (Fn1::identity(), Fn1::affine(6, 1), 0, (N - 2) / 6),      // gcd(6,8)=2
        (Fn1::shift(1), Fn1::affine(7, -5), 1, (N + 4) / 7),       // c<0
    ];
    for (f, g, imin, imax) in cases {
        let clause = Clause {
            iter: IndexSet::range(imin, imax),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("A", f),
            rhs: Expr::Ref(ArrayRef::d1("B", g.clone())),
        };
        let mut dm = DecompMap::new();
        dm.insert("A".into(), Decomp1::block(8, Bounds::range(0, N - 1)));
        dm.insert("B".into(), Decomp1::scatter(8, Bounds::range(0, N - 1)));
        let plan = SpmdPlan::build(&clause, &dm).unwrap();

        // plan-level summary and the machine-level dispatch trace must
        // agree: fully closed-form, no naive-guard row anywhere
        let summary = PlanSummary::of(&plan);
        assert!(
            summary.is_fully_closed_form(),
            "g={g:?}: {:?}",
            summary.dispatch_counts()
        );
        let tracer = CollectingTracer::new();
        trace_plan(&tracer, &plan);
        let counts = tracer.finish().dispatch_counts();
        assert!(!counts.contains_key("naive-guard"), "g={g:?}: {counts:?}");
        assert_eq!(
            counts.values().sum::<u64>(),
            summary.dispatch_counts().values().sum::<u64>(),
            "trace and plan summary disagree for g={g:?}"
        );
    }
}

// ---- work comparison: the point of the whole exercise --------------------

#[test]
fn closed_form_work_beats_naive() {
    let cases: Vec<(Fn1, Decomp1, i64, i64)> = vec![
        (Fn1::identity(), block(8), 0, N - 1),
        (Fn1::shift(3), scatter(8), 0, N - 4),
        (Fn1::affine(3, 1), scatter(8), 0, (N - 2) / 3),
        (Fn1::identity(), bs(4, 8), 0, N - 1),
        (Fn1::i_plus_i_div(4), scatter(16), 0, 900),
    ];
    for (f, dec, imin, imax) in cases {
        let closed = total_closed_work(&f, &dec, imin, imax);
        let naive = total_naive_work(&f, &dec, imin, imax);
        let loop_len = (imax - imin + 1) as u64;
        assert_eq!(naive, loop_len * dec.pmax() as u64);
        assert!(
            closed < naive / 2,
            "f={f:?} {dec}: closed {closed} not << naive {naive}"
        );
    }
}

// ---- accesses outside the extent ------------------------------------------

/// An access the loop drives outside its array's extent is refused by
/// every planner entry point as a typed `OutOfExtent` — over block layouts
/// (where it used to run and compute something), a block-scatter read
/// (a sender panic) and a block-scatter write (a late part mismatch) —
/// and a `DistSession` reports it before touching a part.
#[test]
fn out_of_extent_access_is_a_typed_plan_error() {
    use vcal_suite::core::{Array, Env};
    use vcal_suite::lang;
    use vcal_suite::machine::{DistSession, MachineError};
    use vcal_suite::spmd::{lower_nd, PlanError};
    let cases = [
        ("block", "block", "V[i] := U[i+7]", "U", 106),
        ("block", "block", "V[i+5] := U[i]", "V", 104),
        ("blockscatter(4)", "scatter", "V[i] := U[i+7]", "U", 106),
        ("blockscatter(4)", "scatter", "V[i+5] := U[i]", "V", 104),
    ];
    for (v, u, body, array, value) in cases {
        let spec = format!("processors 2;\narray V[0 to 99] {v};\narray U[0 to 99] {u};\n");
        let spec = lang::parse_spec(&spec).unwrap();
        let clause = &lang::compile(&format!("for i := 0 to 99 do {body}; od;")).unwrap()[0];
        let want = PlanError::OutOfExtent {
            array: array.into(),
            value,
            extent: (0, 99),
        };
        assert_eq!(
            SpmdPlan::build(clause, &spec.decomps).unwrap_err(),
            want,
            "{body}"
        );
        assert_eq!(
            SpmdPlan::build_naive(clause, &spec.decomps).unwrap_err(),
            want,
            "{body}"
        );
        let nd = (spec.decomps.iter())
            .map(|(a, d)| {
                (
                    a.clone(),
                    vcal_suite::decomp::DecompNd::new(vec![d.clone()]),
                )
            })
            .collect();
        assert_eq!(lower_nd(clause, &nd).unwrap_err(), want, "{body}");
        let mut env = Env::new();
        for (name, dec) in &spec.decomps {
            env.insert(
                name.clone(),
                Array::from_fn(dec.extent(), |i| i.scalar() as f64),
            );
        }
        let mut session = DistSession::new(&env, spec.decomps.clone()).unwrap();
        match session.run(clause) {
            Err(MachineError::PlanMismatch(why)) => assert_eq!(why, want.to_string()),
            other => panic!("{body} V={v}: expected a typed refusal, got {other:?}"),
        }
        assert_eq!(
            session.gather("V").unwrap().data(),
            env.get("V").unwrap().data()
        );
    }
    assert_eq!(
        PlanError::OutOfExtent {
            array: "U".into(),
            value: 106,
            extent: (0, 99)
        }
        .to_string(),
        "array `U` is accessed at 106, outside its extent [0, 99]"
    );
}
