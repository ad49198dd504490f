//! Multi-dimensional integration: per-axis schedule products are exact
//! for randomized grids and access maps, and the grid machines agree
//! bitwise with the sequential reference (`Env::exec_clause`, the n-D
//! oracle) on randomized 2-D and 3-D clauses.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Duration;
use vcal_suite::core::func::Fn1;
use vcal_suite::core::map::{DimFn, IndexMap};
use vcal_suite::core::{
    Array, ArrayRef, Bounds, Clause, CmpOp, Env, Expr, Guard, IndexSet, Ix, Ordering,
};
use vcal_suite::decomp::{Decomp1, DecompNd};
use vcal_suite::machine::{
    run_distributed_nd, run_distributed_nd_traced, run_shared_nd, ChaosPlan, DistArrayNd,
    DistOptions, ExecReport, FaultPlan, MachineError, RetryPolicy, TransportKind, NULL_TRACER,
};
use vcal_suite::spmd::{lower_nd, optimize_nd};

fn axis_decomp(kind: u8, pmax: i64, n: i64) -> Decomp1 {
    let e = Bounds::range(0, n - 1);
    match kind % 3 {
        0 => Decomp1::block(pmax, e),
        1 => Decomp1::scatter(pmax, e),
        _ => Decomp1::block_scatter(2, pmax, e),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(80))]

    #[test]
    fn optimize_nd_is_exact(
        k0 in 0u8..3, k1 in 0u8..3,
        p0 in 1i64..4, p1 in 1i64..4,
        shift0 in -2i64..3, a1 in 1i64..3, c1 in 0i64..3,
        swap in any::<bool>(),
    ) {
        let (n0, n1) = (18i64, 15i64);
        let dec = DecompNd::new(vec![
            axis_decomp(k0, p0, n0),
            axis_decomp(k1, p1, n1),
        ]);
        // access map, optionally transposing the loop dims
        let f0 = Fn1::shift(shift0);
        let f1 = Fn1::affine(a1, c1);
        let (s0, s1) = if swap { (1, 0) } else { (0, 1) };
        let map = IndexMap::new(2, vec![
            DimFn { src: s0, f: f0.clone() },
            DimFn { src: s1, f: f1.clone() },
        ]);
        // loop box keeping accesses inside both extents
        let (l0_lo, l0_hi, l1_lo, l1_hi);
        {
            // output axis 0 reads loop dim s0 through f0 into [0, n0-1]
            let d0 = ((0 - shift0).max(0), n0 - 1 - shift0.max(0));
            let d1 = ((0 - c1 + a1 - 1) / a1, (n1 - 1 - c1) / a1);
            if swap {
                // loop dim 0 feeds output 1 (f1), loop dim 1 feeds output 0 (f0)
                l0_lo = d1.0.max(0); l0_hi = d1.1;
                l1_lo = d0.0; l1_hi = d0.1;
            } else {
                l0_lo = d0.0; l0_hi = d0.1;
                l1_lo = d1.0.max(0); l1_hi = d1.1;
            }
        }
        prop_assume!(l0_lo <= l0_hi && l1_lo <= l1_hi);
        let lb = Bounds::range2(l0_lo, l0_hi, l1_lo, l1_hi);
        let mut covered = 0u64;
        for p in 0..dec.pmax() {
            let Some(s) = optimize_nd(&map, &dec, &lb, p) else {
                return Err(TestCaseError::fail("factorizable map rejected"));
            };
            let mut got = Vec::new();
            s.for_each(|i| got.push(*i));
            got.sort();
            let mut want: Vec<_> =
                lb.iter().filter(|i| dec.proc_of(&map.eval(i)) == p).collect();
            want.sort();
            prop_assert_eq!(&got, &want, "p={} dec axes ({},{})", p, k0, k1);
            covered += got.len() as u64;
        }
        prop_assert_eq!(covered, lb.count());
    }
}

/// A grid of `dims` axes whose sizes multiply to `pmax`.
fn grid_shape(rng: &mut StdRng, pmax: i64, dims: usize) -> Vec<i64> {
    let mut shape = vec![1i64; dims];
    let mut rest = pmax;
    for prime in [2, 3] {
        while rest % prime == 0 {
            shape[rng.gen_range(0..dims)] *= prime;
            rest /= prime;
        }
    }
    shape
}

/// One clause with inputs and a layout per array.
struct Trial {
    clause: Clause,
    env: Env,
    decs: BTreeMap<String, DecompNd>,
}

impl Trial {
    /// A random access of the `bx` loop — every output axis `a·i + c`
    /// of a loop dimension, the dimensions permuted or, `coupled`, two
    /// axes driven by one — over a fresh array that covers it, laid out
    /// on its own grid of `pmax` processors.
    fn access(
        &mut self,
        rng: &mut StdRng,
        name: &str,
        bx: &Bounds,
        pmax: i64,
        coupled: bool,
    ) -> ArrayRef {
        let dims = bx.dims();
        let mut srcs: Vec<usize> = (0..dims).collect();
        for k in (1..dims).rev() {
            srcs.swap(k, rng.gen_range(0..k + 1));
        }
        if coupled {
            srcs[1] = srcs[0];
        }
        let shape = grid_shape(rng, pmax, dims);
        let (mut fns, mut axes, mut lo, mut hi) = (vec![], vec![], vec![], vec![]);
        for (&src, &procs) in srcs.iter().zip(&shape) {
            let (a, c) = (rng.gen_range(1..3i64), rng.gen_range(-1..3i64));
            lo.push(a * bx.lo()[src] + c - rng.gen_range(0..2i64));
            hi.push(a * bx.hi()[src] + c + rng.gen_range(0..3i64));
            let extent = Bounds::range(lo[lo.len() - 1], hi[hi.len() - 1]);
            axes.push(match rng.gen_range(0..3) {
                0 => Decomp1::block(procs, extent),
                1 => Decomp1::scatter(procs, extent),
                _ => Decomp1::block_scatter(rng.gen_range(1..4), procs, extent),
            });
            fns.push(DimFn {
                src,
                f: Fn1::affine(a, c),
            });
        }
        let salt = rng.gen_range(1..50i64);
        let value = |i: &Ix| {
            let h = i.coords().iter().fold(salt, |h, x| h * 31 + x);
            (h % 23 - 11) as f64 * 0.5
        };
        let extent = Bounds::new(Ix::new(&lo), Ix::new(&hi));
        self.env.insert(name, Array::from_fn(extent, value));
        self.decs.insert(name.to_string(), DecompNd::new(axes));
        ArrayRef::new(name, IndexMap::new(dims, fns))
    }

    /// Trial `k`: a 2-D or 3-D box, `W[f(i)] := Expr(R0[g0(i)], R1[g1(i)])`
    /// in one of six flavours — bytecode with a loop variable, the three
    /// fused shapes, a coupled-axis read, a data guard.
    fn random(rng: &mut StdRng, k: usize) -> Trial {
        let dims = if k % 3 == 2 { 3 } else { 2 };
        let lo: Vec<i64> = (0..dims).map(|_| rng.gen_range(0..3)).collect();
        let hi: Vec<i64> = lo.iter().map(|l| l + rng.gen_range(2..9i64)).collect();
        let bx = Bounds::new(Ix::new(&lo), Ix::new(&hi));
        let pmax = [1, 2, 3, 4, 6][rng.gen_range(0..5usize)];
        let mut t = Trial {
            clause: Clause {
                iter: IndexSet::full(bx),
                ordering: Ordering::Par,
                guard: Guard::Always,
                lhs: ArrayRef::new("W", IndexMap::identity(dims)),
                rhs: Expr::Lit(0.0),
            },
            env: Env::new(),
            decs: BTreeMap::new(),
        };
        let flavour = k % 6;
        t.clause.lhs = t.access(rng, "W", &bx, pmax, false);
        let r0 = Expr::Ref(t.access(rng, "R0", &bx, pmax, flavour == 4));
        let r1 = Expr::Ref(t.access(rng, "R1", &bx, pmax, false));
        let loop_var = Expr::LoopVar {
            dim: rng.gen_range(0..dims),
        };
        t.clause.rhs = match flavour {
            0 => Expr::add(Expr::add(r0, r1), loop_var),
            1 => r0,
            2 => Expr::add(Expr::mul(r0, Expr::Lit(2.0)), Expr::Lit(1.0)),
            3 => Expr::mul(Expr::add(r0, r1), Expr::Lit(0.5)),
            4 => Expr::add(r0, loop_var),
            _ => {
                t.clause.guard = Guard::Cmp {
                    lhs: t.access(rng, "C", &bx, pmax, false),
                    op: CmpOp::Gt,
                    rhs: 0.0,
                };
                Expr::add(r0, r1)
            }
        };
        t
    }

    fn scatter(&self) -> BTreeMap<String, DistArrayNd> {
        let image = |(name, dec): (&String, &DecompNd)| {
            let global = self.env.get(name).expect("every laid-out array has inputs");
            (name.clone(), DistArrayNd::scatter_from(global, dec.clone()))
        };
        self.decs.iter().map(image).collect()
    }

    /// Run on the distributed grid machine and compare the written
    /// array bitwise against `Env::exec_clause`.
    fn run_and_check(&self, opts: DistOptions, what: &str) -> ExecReport {
        let mut reference = self.env.clone();
        reference.exec_clause(&self.clause);
        let mut arrays = self.scatter();
        let report = run_distributed_nd_traced(&self.clause, &mut arrays, opts, &NULL_TRACER)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let lhs = &self.clause.lhs.array;
        let (got, want) = (arrays[lhs].gather(), reference.get(lhs).unwrap());
        assert_eq!(got.max_abs_diff(want), 0.0, "{what}: {}", self.clause);
        report
    }
}

#[test]
fn randomized_grid_machine_equivalence() {
    let mut rng = StdRng::seed_from_u64(0xd00d);
    let (mut msgs, mut lane_runs, mut scalar_runs) = (0, 0, 0);
    for k in 0..36 {
        let t = Trial::random(&mut rng, k);
        let mut reference = t.env.clone();
        reference.exec_clause(&t.clause);

        // shared grid machine (owner-computes on the write decomposition)
        let mut shm = t.env.clone();
        run_shared_nd(&t.clause, &t.decs["W"], &mut shm).unwrap();
        let (got, want) = (shm.get("W").unwrap(), reference.get("W").unwrap());
        assert_eq!(got.max_abs_diff(want), 0.0, "shared trial {k}");

        // distributed grid machine, every way the engine can run it
        let opts = DistOptions {
            recv_timeout: Duration::from_secs(10),
            ..DistOptions::default()
        };
        let total = t.run_and_check(opts, &format!("trial {k}")).total();
        msgs += total.msgs_sent;
        lane_runs += total.simd_runs;
        scalar_runs += total.simd_fallback_runs;
    }
    // the sweep reached the wire, the lane tier and the scalar arms
    assert!(msgs > 0 && lane_runs > 0 && scalar_runs > 0);
}

fn range2(n: i64) -> Bounds {
    Bounds::range2(0, n - 1, 0, n - 1)
}

fn grid(kinds: [fn(i64, Bounds) -> Decomp1; 2], procs: [i64; 2], n: i64) -> DecompNd {
    let axis = |k: usize| kinds[k](procs[k], Bounds::range(0, n - 1));
    DecompNd::new(vec![axis(0), axis(1)])
}

/// `B[j,i] := A[i,j]` with different grids for `A` (block × scatter)
/// and `B` (scatter × block): all-to-all traffic.
fn transpose(n: i64) -> Trial {
    let clause = Clause {
        iter: IndexSet::full(range2(n)),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::new("B", IndexMap::permutation(2, &[1, 0])),
        rhs: Expr::Ref(ArrayRef::new("A", IndexMap::identity(2))),
    };
    let mut env = Env::new();
    let a = |i: &Ix| (i[0] * 100 + i[1]) as f64;
    env.insert("A", Array::from_fn(range2(n), a));
    env.insert("B", Array::zeros(range2(n)));
    let decs = [
        ("A", grid([Decomp1::block, Decomp1::scatter], [2, 2], n)),
        ("B", grid([Decomp1::scatter, Decomp1::block], [2, 2], n)),
    ];
    Trial {
        clause,
        env,
        decs: decs.map(|(name, d)| (name.to_string(), d)).into(),
    }
}

fn with_timeout(recv_timeout: Duration) -> DistOptions {
    DistOptions {
        recv_timeout,
        ..DistOptions::default()
    }
}

#[test]
fn jacobi2d_distributed() {
    let n = 20i64;
    let u = |di: i64, dj: i64| {
        let map = IndexMap::per_dim(vec![Fn1::shift(di), Fn1::shift(dj)]);
        Expr::Ref(ArrayRef::new("U", map))
    };
    let clause = Clause {
        iter: IndexSet::full(Bounds::range2(1, n - 2, 1, n - 2)),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::new("V", IndexMap::identity(2)),
        rhs: Expr::mul(
            Expr::add(Expr::add(u(-1, 0), u(1, 0)), Expr::add(u(0, -1), u(0, 1))),
            Expr::Lit(0.25),
        ),
    };
    let mut env = Env::new();
    let u0 = |i: &Ix| ((i[0] * 7 + i[1] * 3) % 11) as f64;
    env.insert("U", Array::from_fn(range2(n), u0));
    env.insert("V", Array::zeros(range2(n)));
    let dec = grid([Decomp1::block, Decomp1::scatter], [2, 2], n);
    let decs = [("U", dec.clone()), ("V", dec)];
    let t = Trial {
        clause,
        env,
        decs: decs.map(|(name, d)| (name.to_string(), d)).into(),
    };
    t.run_and_check(with_timeout(Duration::from_secs(5)), "jacobi2d");
}

/// The sweep the next-image commit is for: block rows × whole columns,
/// so every node writes one unit-stride span per interior row with the
/// two boundary columns between consecutive spans. The nodes write those
/// spans into a fresh part and the host fills in the gaps (and the
/// boundary rows) from the part it swaps out — `V` starts from distinct
/// values, so a gap filled from anywhere else shows. Three sweeps with
/// the copy-back between them, each step against the sequential machine.
#[test]
fn five_point_sweep_commits_row_spans_with_gaps() {
    let n = 24i64;
    let u = |di: i64, dj: i64| {
        let map = IndexMap::per_dim(vec![Fn1::shift(di), Fn1::shift(dj)]);
        Expr::Ref(ArrayRef::new("U", map))
    };
    let sweep = Clause {
        iter: IndexSet::full(Bounds::range2(1, n - 2, 1, n - 2)),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::new("V", IndexMap::identity(2)),
        rhs: Expr::mul(
            Expr::add(Expr::add(u(-1, 0), u(1, 0)), Expr::add(u(0, -1), u(0, 1))),
            Expr::Lit(0.25),
        ),
    };
    let copy_back = Clause {
        iter: IndexSet::full(range2(n)),
        lhs: ArrayRef::new("U", IndexMap::identity(2)),
        rhs: Expr::Ref(ArrayRef::new("V", IndexMap::identity(2))),
        ..sweep.clone()
    };
    let mut env = Env::new();
    env.insert(
        "U",
        Array::from_fn(range2(n), |i: &Ix| ((i[0] * 7 + i[1] * 3) % 11) as f64),
    );
    env.insert(
        "V",
        Array::from_fn(range2(n), |i: &Ix| -1.0 - (i[0] * n + i[1]) as f64),
    );
    let dec = grid([Decomp1::block, Decomp1::block], [3, 1], n);
    let decs: BTreeMap<String, DecompNd> = [("U", dec.clone()), ("V", dec.clone())]
        .map(|(name, d)| (name.to_string(), d))
        .into();

    // the plan-time facts the commit form is chosen from
    let tables = lower_nd(&sweep, &decs).unwrap();
    for cn in &tables.nodes {
        let spans = cn.write_spans.as_ref().expect("every row is contiguous");
        assert!(spans.len() >= 6, "a span per interior row: {spans:?}");
        assert!(spans.windows(2).all(|w| w[1].0 - w[0].1 == 2));
        let part = dec.local_bounds(cn.p).count();
        assert!(2 * cn.modify_iters >= part && cn.modify_iters < part);
    }

    let t = Trial {
        clause: sweep.clone(),
        env: env.clone(),
        decs,
    };
    let mut arrays = t.scatter();
    for step in 0..3 {
        for clause in [&sweep, &copy_back] {
            run_distributed_nd(clause, &mut arrays, Duration::from_secs(5)).unwrap();
            env.exec_clause(clause);
            for name in ["U", "V"] {
                let diff = arrays[name].gather().max_abs_diff(env.get(name).unwrap());
                assert_eq!(diff, 0.0, "step {step}, `{name}` after {clause}");
            }
        }
    }
}

#[test]
fn transpose_across_grids() {
    transpose(12).run_and_check(with_timeout(Duration::from_secs(5)), "transpose");
}

#[test]
fn guarded_2d_clause() {
    let n = 10i64;
    let at = |name: &str| ArrayRef::new(name, IndexMap::identity(2));
    let clause = Clause {
        iter: IndexSet::full(range2(n)),
        ordering: Ordering::Par,
        guard: Guard::Cmp {
            lhs: at("C"),
            op: CmpOp::Gt,
            rhs: 0.0,
        },
        lhs: at("A"),
        rhs: Expr::add(Expr::Ref(at("B")), Expr::LoopVar { dim: 1 }),
    };
    let mut env = Env::new();
    env.insert("A", Array::zeros(range2(n)));
    env.insert("B", Array::from_fn(range2(n), |i| (i[0] + i[1]) as f64));
    let sign = |i: &Ix| if (i[0] + i[1]) % 2 == 0 { 1.0 } else { -1.0 };
    env.insert("C", Array::from_fn(range2(n), sign));
    let decs = [
        ("A", grid([Decomp1::block, Decomp1::scatter], [2, 2], n)),
        ("B", grid([Decomp1::block, Decomp1::block], [4, 1], n)),
        ("C", grid([Decomp1::block, Decomp1::scatter], [4, 1], n)),
    ];
    let t = Trial {
        clause,
        env,
        decs: decs.map(|(name, d)| (name.to_string(), d)).into(),
    };
    t.run_and_check(with_timeout(Duration::from_secs(5)), "guarded");
}

#[test]
fn transpose_traffic_matches_ownership_and_batches() {
    let t = transpose(16);
    let total = t.run_and_check(DistOptions::default(), "transpose").total();
    // ground truth: an element travels iff its reader is not its owner
    let (a, b) = (&t.decs["A"], &t.decs["B"]);
    let remote = (range2(16).iter())
        .filter(|i| a.proc_of(i) != b.proc_of(&t.clause.lhs.map.eval(i)))
        .count() as u64;
    assert_eq!(total.msgs_sent, remote);
    assert_eq!(total.msgs_received, remote);
    assert!(total.packets_sent < total.msgs_sent);
    assert!(total.max_packet_elems > 1);
    assert_eq!(total.bytes_sent, 16 * total.packets_sent + 8 * remote);
}

#[test]
fn faulty_transpose_recovers_bit_exact() {
    // a noisy seeded link on the all-to-all transpose still converges
    let t = transpose(12);
    let faults = FaultPlan::seeded(42)
        .with_drop(0.1)
        .with_duplicate(0.1)
        .with_reorder(0.1);
    let opts = DistOptions {
        faults: Some(faults),
        retry: RetryPolicy::fast(),
        ..DistOptions::default()
    };
    let report = t.run_and_check(opts, "faulty transpose");
    assert!(report.total().acks_sent > 0);
}

#[test]
fn nd_crash_fault_is_typed_error() {
    let t = transpose(12);
    let mut arrays = t.scatter();
    let before = arrays.clone();
    let opts = DistOptions {
        recv_timeout: Duration::from_millis(500),
        faults: Some(FaultPlan::seeded(1).with_crash(3, 0)),
        retry: RetryPolicy::fast(),
        ..DistOptions::default()
    };
    let err = run_distributed_nd_traced(&t.clause, &mut arrays, opts, &NULL_TRACER).unwrap_err();
    assert_eq!(err, MachineError::NodePanicked { node: 3 });
    assert_eq!(arrays, before, "a failed run leaves the images untouched");
}

#[test]
fn mismatched_pmax_rejected() {
    let n = 8i64;
    let t = transpose(n);
    let mut arrays = t.scatter();
    let wide = grid([Decomp1::block, Decomp1::scatter], [2, 3], n);
    arrays.insert("B".to_string(), DistArrayNd::zeros(wide));
    assert!(matches!(
        run_distributed_nd(&t.clause, &mut arrays, Duration::from_millis(100)),
        Err(MachineError::PlanMismatch(_))
    ));
}

#[test]
fn socket_backends_and_chaos_are_rejected_not_ignored() {
    let t = transpose(8);
    let mut arrays = t.scatter();
    let before = arrays.clone();
    for (transport, named) in [(TransportKind::Uds, "Uds"), (TransportKind::Tcp, "Tcp")] {
        let opts = DistOptions {
            transport,
            ..DistOptions::default()
        };
        let err =
            run_distributed_nd_traced(&t.clause, &mut arrays, opts, &NULL_TRACER).unwrap_err();
        let MachineError::Transport { node: -1, detail } = &err else {
            panic!("{transport:?}: expected a host transport error, got {err}");
        };
        assert!(detail.contains(named), "{detail}");
    }
    let opts = DistOptions {
        chaos: Some(ChaosPlan::seeded(1).with_bitflip(0.1)),
        ..DistOptions::default()
    };
    let err = run_distributed_nd_traced(&t.clause, &mut arrays, opts, &NULL_TRACER).unwrap_err();
    assert!(
        matches!(err, MachineError::Transport { node: -1, .. }),
        "{err}"
    );
    assert_eq!(arrays, before);
}
