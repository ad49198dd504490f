//! Property-based tests (proptest) on the calculus invariants:
//!
//! * view composition agrees with sequential application and is
//!   associative in effect;
//! * `Fn1` composition and simplification preserve semantics;
//! * Table I schedules enumerate exactly the brute-force ownership set
//!   and partition the loop, for arbitrary parameters;
//! * decomposition `proc`/`local`/`global` stay mutually inverse;
//! * redistribution plans move every element to its new owner.

use proptest::prelude::*;
use vcal_suite::core::func::Fn1;
use vcal_suite::core::pred::{CmpOp, Pred};
use vcal_suite::core::set::IndexSet;
use vcal_suite::core::view::View;
use vcal_suite::core::{Bounds, Ix};
use vcal_suite::decomp::{Decomp1, RedistPlan};
use vcal_suite::spmd::optimize;

fn arb_fn1() -> impl Strategy<Value = Fn1> {
    prop_oneof![
        (-50i64..50).prop_map(Fn1::Const),
        (-6i64..7, -20i64..20).prop_map(|(a, c)| Fn1::affine(a, c)),
        (1i64..30, 2i64..40, -5i64..5).prop_map(|(s, z, d)| Fn1::Mod {
            inner: Box::new(Fn1::shift(s)),
            z,
            d,
        }),
        (1i64..5, 2i64..6).prop_map(|(a, q)| Fn1::Div {
            inner: Box::new(Fn1::affine(a, 0)),
            q,
        }),
        (1i64..4, 2i64..6).prop_map(|(a, q)| Fn1::Sum(
            Box::new(Fn1::affine(a, 0)),
            Box::new(Fn1::Div {
                inner: Box::new(Fn1::identity()),
                q
            }),
        )),
    ]
}

fn arb_decomp(n: i64) -> impl Strategy<Value = Decomp1> {
    (1i64..9, 1i64..7, prop::sample::select(vec![0u8, 1, 2])).prop_map(move |(pmax, b, kind)| {
        let e = Bounds::range(0, n - 1);
        match kind {
            0 => Decomp1::block(pmax, e),
            1 => Decomp1::scatter(pmax, e),
            _ => Decomp1::block_scatter(b, pmax, e),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn fn1_compose_preserves_semantics(f in arb_fn1(), g in arb_fn1(), i in -40i64..40) {
        let fg = f.compose(&g);
        prop_assert_eq!(fg.eval(i), f.eval(g.eval(i)));
    }

    #[test]
    fn fn1_simplify_preserves_semantics(f in arb_fn1(), i in -40i64..40) {
        prop_assert_eq!(f.simplify().eval(i), f.eval(i));
    }

    #[test]
    fn monotone_pieces_cover_and_agree(
        s in 0i64..40, z in 2i64..40, lo in 0i64..20, len in 0i64..40,
    ) {
        let f = Fn1::Mod { inner: Box::new(Fn1::shift(s)), z, d: 0 };
        let hi = lo + len;
        let pieces = f.monotone_pieces(lo, hi).unwrap();
        let mut expected = lo;
        for p in &pieces {
            prop_assert_eq!(p.lo, expected, "gap before piece");
            for i in p.lo..=p.hi {
                prop_assert_eq!(p.f.eval(i), f.eval(i));
            }
            expected = p.hi + 1;
        }
        prop_assert_eq!(expected, hi + 1, "pieces do not cover the domain");
    }

    #[test]
    fn view_composition_matches_sequential_application(
        c1 in -10i64..10, a2 in 1i64..4, c2 in -10i64..10,
        src_lo in -20i64..0, src_len in 0i64..60,
        probe in -30i64..30,
    ) {
        let v = View::d1(
            Bounds::range(-100, 100),
            Pred::Cmp { dim: 0, f: Fn1::identity(), op: CmpOp::Ge, rhs: c1 },
            Fn1::identity(),
            Fn1::shift(c1),
        );
        let w = View::d1(
            Bounds::range(-100, 100),
            Pred::True,
            Fn1::identity(),
            Fn1::affine(a2, c2),
        );
        let src = IndexSet::range(src_lo, src_lo + src_len);
        let composed = v.compose(&w).apply(&src);
        let sequential = v.apply(&w.apply(&src));
        let p = Ix::d1(probe);
        prop_assert_eq!(composed.contains(&p), sequential.contains(&p));
    }

    #[test]
    fn schedules_are_exact_and_partition(
        f in arb_fn1(),
        dec in arb_decomp(400),
        imin in 0i64..50,
        len in 0i64..120,
    ) {
        let imax = imin + len;
        // keep all accesses inside the extent; skip otherwise
        let ok = (imin..=imax).all(|i| (0..400).contains(&f.eval(i)));
        prop_assume!(ok);
        let mut covered = 0u64;
        for p in 0..dec.pmax() {
            let opt = optimize(&f, &dec, imin, imax, p);
            let got = opt.schedule.to_sorted_vec();
            let want: Vec<i64> =
                (imin..=imax).filter(|&i| dec.proc_of(f.eval(i)) == p).collect();
            prop_assert_eq!(&got, &want,
                "p={} f={:?} dec={} kind={:?}", p, f, dec, opt.kind);
            covered += got.len() as u64;
        }
        prop_assert_eq!(covered, (imax - imin + 1) as u64);
    }

    #[test]
    fn decomp_roundtrip(
        dec in arb_decomp(300),
        i in 0i64..300,
    ) {
        let p = dec.proc_of(i);
        let l = dec.local_of(i);
        prop_assert!((0..dec.pmax()).contains(&p));
        prop_assert!(l >= 0);
        prop_assert_eq!(dec.global_of(p, l), i);
        prop_assert!(l < dec.local_count(p));
    }

    #[test]
    fn redistribution_moves_everything_correctly(
        from in arb_decomp(200),
        to in arb_decomp(200),
    ) {
        let plan = RedistPlan::build(&from, &to);
        let mut moved = std::collections::HashSet::new();
        for (g, src, dst) in plan.element_moves() {
            prop_assert_eq!(from.proc_of(g), src);
            prop_assert_eq!(to.proc_of(g), dst);
            prop_assert_ne!(src, dst);
            prop_assert!(moved.insert(g), "element {} moved twice", g);
        }
        // stationary + moved = everything
        prop_assert_eq!(moved.len() as i64 + plan.stationary, 200);
        for g in 0..200 {
            if !moved.contains(&g) {
                prop_assert_eq!(from.proc_of(g), to.proc_of(g));
            }
        }
    }

    #[test]
    fn preimage_range_is_exact(
        f in arb_fn1(),
        y_lo in -60i64..60,
        y_len in 0i64..50,
        lo in -30i64..30,
        len in 0i64..60,
    ) {
        let (hi, y_hi) = (lo + len, y_lo + y_len);
        prop_assume!(f.monotonicity(lo, hi).is_monotone());
        let brute: Vec<i64> =
            (lo..=hi).filter(|&i| (y_lo..=y_hi).contains(&f.eval(i))).collect();
        match f.preimage_range(y_lo, y_hi, lo, hi) {
            Some((a, b)) => {
                let got: Vec<i64> = (a..=b).collect();
                prop_assert_eq!(got, brute);
            }
            None => prop_assert!(brute.is_empty(), "said empty, brute = {:?}", brute),
        }
    }
}
