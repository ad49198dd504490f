//! Folded exec tables, end to end: the five Table I classes of the
//! spine's `compile_sweep` over every pair of its three layouts, at two
//! extents and two processor counts, with the offset `c` taken from a
//! fixed set, each program run through a `DistSession` and compared bit
//! for bit with the sequential machine (`Env::exec_clause`).
//!
//! The set covers the shapes the two-level entries are built from:
//! residue classes of interleaving reads (scatter and stride-3 layouts),
//! entries whose reps or runs walk the lhs part backwards (t-major
//! block-scatter visits), and packets that a class reads across many
//! runs — among them `V[i] := U[i+3]` with `V` block and `U`
//! block-scatter(4) at `n = 64`.

use vcal_suite::core::{Array, Env};
use vcal_suite::decomp::Decomp1;
use vcal_suite::lang;
use vcal_suite::machine::DistSession;
use vcal_suite::spmd::{
    packetise, AccessPattern, CommRun, CompiledNode, CompiledSchedule, ExecRun, Nest, PairComm,
    SpmdPlan, PACKET_ELEMS,
};

const LAYOUTS: [&str; 3] = ["block", "scatter", "blockscatter(4)"];
const OFFSETS: [i64; 9] = [1, -1, 3, 4, -4, 17, -17, 63, -63];

/// The program text of every class over `[0, n)`, as the spine's
/// `compile_sweep` writes it; only `Const` and `Shift` depend on `c`.
fn programs(n: i64) -> Vec<String> {
    let mut out = Vec::new();
    for c in OFFSETS {
        out.push(format!(
            "for i := 0 to {} do V[i] := U[{}] + 1.5; od;",
            n - 1,
            c.rem_euclid(n)
        ));
        out.push(format!(
            "for i := {} to {} do V[i] := U[i{c:+}]; od;",
            (-c).max(0),
            n - 1 - c.max(0)
        ));
    }
    out.push(format!(
        "for i := 0 to {} do V[2*i+1] := U[i]; od;",
        n / 2 - 1
    ));
    out.push(format!(
        "for i := 0 to {} do V[3*i+1] := U[i]; od;",
        (n - 2) / 3
    ));
    out.push(format!(
        "for i := 1 to {} do V[i] := 0.5*(U[i-1]+U[i+1]); od;",
        n - 2
    ));
    out
}

fn bits(a: &Array) -> Vec<u64> {
    a.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn compile_sweep_matrix_matches_sequential_bitwise() {
    let mut runs = 0;
    let mut folded = 0;
    for pmax in [2, 3] {
        for n in [64i64, 8192] {
            for v in LAYOUTS {
                for u in LAYOUTS {
                    let spec = format!(
                        "processors {pmax};\narray V[0 to {0}] {v};\narray U[0 to {0}] {u};\n",
                        n - 1
                    );
                    let spec = lang::parse_spec(&spec).unwrap();
                    let mut env = Env::new();
                    for (name, dec) in &spec.decomps {
                        let salt = name.len() as f64;
                        env.insert(
                            name.clone(),
                            Array::from_fn(dec.extent(), |i| i.scalar() as f64 * 0.25 + salt),
                        );
                    }
                    let mut session = DistSession::new(&env, spec.decomps.clone()).unwrap();
                    for src in programs(n) {
                        let what = format!("pmax={pmax} n={n} V={v} U={u}: {src}");
                        let clause = &lang::compile(&src).unwrap()[0];
                        let plan = SpmdPlan::build(clause, &spec.decomps).unwrap();
                        let cs = CompiledSchedule::compile_exec(&plan, clause, &spec.decomps);
                        assert!(cs.has_exec(), "{what}");
                        folded += cs
                            .nodes
                            .iter()
                            .flat_map(|cn| &cn.exec)
                            .filter(|er| er.index.reps() > 1)
                            .count();
                        env.exec_clause(clause);
                        session
                            .run(clause)
                            .unwrap_or_else(|e| panic!("{what}: {e}"));
                        let got = session.gather("V").unwrap();
                        assert_eq!(bits(&got), bits(env.get("V").unwrap()), "{what}");
                        runs += 1;
                    }
                }
            }
        }
    }
    assert_eq!(runs, 2 * 2 * 9 * (2 * OFFSETS.len() + 3));
    assert!(
        folded > 1000,
        "only {folded} entries with more than one rep"
    );
}

/// Entries that walk the lhs part backwards still write the next image:
/// `V` block-scatter(4) read from a block `U` folds its t-major runs
/// into reps that step back through the part, and `V` scatter read from
/// a block-scatter(4) `U` glues two t-major visits into a run of
/// negative stride.
#[test]
fn backward_entries_write_the_next_image() {
    let n = 64i64;
    let cases = [
        ("blockscatter(4)", "block", "V[i] := U[i+3]", 3),
        ("scatter", "blockscatter(4)", "V[i] := U[i+1]", 1),
    ];
    for (v, u, body, c) in cases {
        let spec = format!(
            "processors 2;\narray V[0 to {0}] {v};\narray U[0 to {0}] {u};\n",
            n - 1
        );
        let spec = lang::parse_spec(&spec).unwrap();
        let src = format!("for i := 0 to {} do {body}; od;", n - 1 - c);
        let clause = &lang::compile(&src).unwrap()[0];
        let plan = SpmdPlan::build(clause, &spec.decomps).unwrap();
        let cs = CompiledSchedule::compile_exec(&plan, clause, &spec.decomps);
        let backward = |er: &ExecRun| {
            let step = er.lhs.table.is_none() && er.lhs.nest.stride(0) < 0;
            (er.index.reps() > 1 && er.lhs.nest.stride(1) < 0) || (er.index.count(0) > 1 && step)
        };
        let entries = cs.nodes.iter().flat_map(|cn| &cn.exec);
        assert!(entries.clone().any(backward), "{src} V={v} U={u}");
        for cn in &cs.nodes {
            let spans = cn.write_spans.as_ref().expect("the writes fill spans");
            let written: usize = spans.iter().map(|(lo, hi)| hi - lo).sum();
            assert!(2 * written >= spec.decomps["V"].local_count(cn.p) as usize);
        }
        let mut env = Env::new();
        for (name, dec) in &spec.decomps {
            env.insert(
                name.clone(),
                Array::from_fn(dec.extent(), |i| i.scalar() as f64),
            );
        }
        let mut session = DistSession::new(&env, spec.decomps.clone()).unwrap();
        for _ in 0..2 {
            env.exec_clause(clause);
            session.run(clause).unwrap();
            let got = session.gather("V").unwrap();
            assert_eq!(bits(&got), bits(env.get("V").unwrap()), "{src} V={v} U={u}");
        }
    }
}

/// Every two-level `CommRun` of `plan` as one run per rep, re-cut: the
/// per-cycle plan the folded one stands for.
fn per_cycle(plan: &SpmdPlan) -> SpmdPlan {
    let mut flat = plan.clone();
    for node in &mut flat.nodes {
        for pc in node.comm.sends.iter_mut().chain(&mut node.comm.recvs) {
            let reps = (pc.runs.iter()).flat_map(|r| {
                (0..r.nest.reps()).map(|k| CommRun {
                    nest: r.nest.rep(k),
                    ..*r
                })
            });
            pc.runs = reps.collect::<Vec<CommRun>>();
            pc.cuts = packetise(&mut pc.runs, PACKET_ELEMS);
        }
    }
    flat
}

/// Per outgoing packet, the local offsets it packs, in wire order.
fn packed(cn: &CompiledNode) -> Vec<Vec<(usize, i64)>> {
    let segs = cn.sends.iter().flat_map(|pair| &pair.packets);
    segs.map(|segs| {
        let mut out = Vec::new();
        for seg in segs {
            seg.pattern.for_each(|off| out.push((seg.slot, off)));
        }
        out
    })
    .collect()
}

/// Folding a pair's cycles into two-level `CommRun`s changes no table: the
/// exec entries (in order), the write spans and the packed offsets equal
/// those built from the per-cycle plan, over the `compile_sweep` matrix
/// and `exchange`'s block-scatter(16) → block copy — while the receive
/// runs shrink by at least 50× over the matrix.
#[test]
fn exec_tables_match_per_cycle_plan() {
    let (mut folded, mut cycles) = (0usize, 0usize);
    let mut check = |src: &str, spec: &str, what: &str| {
        let spec = lang::parse_spec(spec).unwrap();
        let clause = &lang::compile(src).unwrap()[0];
        let plan = SpmdPlan::build(clause, &spec.decomps).unwrap();
        let flat = per_cycle(&plan);
        let recv_runs = |plan: &SpmdPlan| -> usize {
            let pairs = plan.nodes.iter().flat_map(|n| &n.comm.recvs);
            pairs.map(|pc| pc.runs.len()).sum()
        };
        folded += recv_runs(&plan);
        cycles += recv_runs(&flat);
        let cs = CompiledSchedule::compile_exec(&plan, clause, &spec.decomps);
        let want = CompiledSchedule::compile_exec(&flat, clause, &spec.decomps);
        for (got, want) in cs.nodes.iter().zip(&want.nodes) {
            assert_eq!(got.exec, want.exec, "{what} p={}: {src}", got.p);
            assert_eq!(got.write_spans, want.write_spans, "{what} p={}", got.p);
            assert_eq!(packed(got), packed(want), "{what} p={}", got.p);
            assert_eq!(
                got.staging_packets, want.staging_packets,
                "{what} p={}",
                got.p
            );
        }
    };
    for pmax in [2, 3] {
        for n in [64i64, 8192, 64 << 10] {
            for v in LAYOUTS {
                for u in LAYOUTS {
                    let spec = format!(
                        "processors {pmax};\narray V[0 to {0}] {v};\narray U[0 to {0}] {u};\n",
                        n - 1
                    );
                    for src in programs(n) {
                        check(&src, &spec, &format!("pmax={pmax} n={n} V={v} U={u}"));
                    }
                }
            }
        }
    }
    // block sizes off the matrix's, at more processors
    let odd = [
        ("blockscatter(3)", "blockscatter(16)"),
        ("blockscatter(16)", "scatter"),
        ("block", "blockscatter(5)"),
    ];
    for (pmax, (v, u)) in [3, 4].into_iter().flat_map(|p| odd.map(|vu| (p, vu))) {
        let n = 8192;
        let spec = format!(
            "processors {pmax};\narray V[0 to {0}] {v};\narray U[0 to {0}] {u};\n",
            n - 1
        );
        for src in programs(n) {
            check(&src, &spec, &format!("pmax={pmax} n={n} V={v} U={u}"));
        }
    }
    let n = 1 << 20;
    let spec = format!(
        "processors 2;\narray V[0 to {0}] block;\narray U[0 to {0}] blockscatter(16);\n",
        n - 1
    );
    check(
        &format!("for i := 0 to {} do V[i] := U[i]; od;", n - 1),
        &spec,
        "exchange",
    );
    assert!(
        folded * 50 <= cycles,
        "{folded} receive runs for {cycles} cycles"
    );
}

/// Greedy element-at-a-time coalescing of an ascending index list into
/// `(start, step, count)` runs: two elements always form a run, a third
/// joins only if it continues the stride.
fn coalesce(v: &[i64]) -> Vec<(i64, i64, i64)> {
    let mut out: Vec<(i64, i64, i64)> = Vec::new();
    for &i in v {
        match out.last_mut() {
            Some((start, step, count)) if *count == 1 => (*step, *count) = (i - *start, 2),
            Some((start, step, count)) if i == *start + *step * *count => *count += 1,
            _ => out.push((i, 1, 1)),
        }
    }
    out
}

/// The plan's send runs equal, rep for rep, those of the element walk:
/// each reside index tested for its write owner, each `(peer, slot)`
/// bucket sorted and coalesced greedily.
fn check_element_walk(plan: &SpmdPlan, dec_lhs: &Decomp1, what: &str) {
    for node in &plan.nodes {
        let mut want = Vec::new();
        for (slot, rp) in node.resides.iter().enumerate() {
            let mut buckets = vec![Vec::new(); plan.nodes.len()];
            rp.opt.schedule.for_each(|i| {
                let q = dec_lhs.proc_of(plan.f.eval(i));
                if q != node.p {
                    buckets[q as usize].push(i);
                }
            });
            for (q, mut v) in buckets.into_iter().enumerate() {
                v.sort_unstable();
                v.dedup();
                want.extend(coalesce(&v).into_iter().map(|r| (q as i64, slot, r)));
            }
        }
        want.sort_unstable();
        let mut got = Vec::new();
        for pc in &node.comm.sends {
            for r in &pc.runs {
                let rep = |k: u64| {
                    let rep = r.nest.rep(k);
                    (rep.base, rep.stride(0), rep.count(0))
                };
                got.extend((0..r.nest.reps()).map(|k| (pc.peer, r.slot, rep(k))));
            }
        }
        // a stable sort: inside a pair and slot the wire order stays, and
        // it is the ascending order of the element walk's runs
        got.sort_by_key(|&(q, slot, _)| (q, slot));
        assert_eq!(got, want, "{what} p={}", node.p);
    }
}

/// No slot of the `compile_sweep` matrix walks its reside set element by
/// element, and the period walk plans exactly what that walk did — over
/// the matrix and both ways between block and block-scatter(16) at 1 Mi.
#[test]
fn comm_sets_walk_periods_and_match_the_element_walk() {
    let check = |src: &str, spec: &str, what: &str| {
        let spec = lang::parse_spec(spec).unwrap();
        let clause = &lang::compile(src).unwrap()[0];
        let plan = SpmdPlan::build(clause, &spec.decomps).unwrap();
        for node in &plan.nodes {
            assert_eq!(node.comm.enumerated_slots, 0, "{what} p={}: {src}", node.p);
        }
        check_element_walk(&plan, &spec.decomps[&plan.lhs_array], what);
    };
    for pmax in [2, 3] {
        for n in [64i64, 8192] {
            for v in LAYOUTS {
                for u in LAYOUTS {
                    let spec = format!(
                        "processors {pmax};\narray V[0 to {0}] {v};\narray U[0 to {0}] {u};\n",
                        n - 1
                    );
                    for src in programs(n) {
                        check(&src, &spec, &format!("pmax={pmax} n={n} V={v} U={u}"));
                    }
                }
            }
        }
    }
    let n = 1 << 20;
    for (v, u) in [("block", "blockscatter(16)"), ("blockscatter(16)", "block")] {
        let spec = format!(
            "processors 2;\narray V[0 to {0}] {v};\narray U[0 to {0}] {u};\n",
            n - 1
        );
        let src = format!("for i := 0 to {} do V[i] := U[i]; od;", n - 1);
        check(&src, &spec, &format!("n={n} V={v} U={u}"));
    }
}

/// FNV-1a over the integers of a plan's tables.
struct Fnv(u64);

impl Fnv {
    fn put(&mut self, x: i64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn nest(&mut self, n: &Nest) {
        self.put(n.base);
        for (count, stride) in n.levels {
            self.put(count);
            self.put(stride);
        }
    }

    fn pattern(&mut self, p: &AccessPattern) {
        self.nest(&p.nest);
        let table = p.table.as_deref().unwrap_or(&[]);
        self.put(table.len() as i64);
        table.iter().for_each(|&o| self.put(o));
    }

    fn runs(&mut self, pc: &PairComm) {
        self.put(pc.peer);
        for r in &pc.runs {
            self.put(r.slot as i64);
            self.nest(&r.nest);
        }
        pc.cuts.iter().for_each(|&c| self.put(c as i64));
    }
}

/// One hash over every table of a compiled plan: per node the comm runs
/// and cuts of both directions, every exec entry (index nest, lhs
/// pattern, per slot its place and pattern, `boundary`, `remote_elems`),
/// every send segment, the staging shape and the write spans.
fn table_hash(plan: &SpmdPlan, cs: &CompiledSchedule) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (node, cn) in plan.nodes.iter().zip(&cs.nodes) {
        h.put(cn.p);
        (node.comm.sends.iter().chain(&node.comm.recvs)).for_each(|pc| h.runs(pc));
        h.put(cn.exec.len() as i64);
        for er in &cn.exec {
            h.nest(&er.index);
            h.pattern(&er.lhs);
            for sa in &er.slots {
                let (src_ord, pkt_ord) =
                    sa.packet().map_or((-1, -1), |(s, k)| (s as i64, k as i64));
                h.put(src_ord);
                h.put(pkt_ord);
                h.pattern(sa.pattern());
            }
            h.put(i64::from(er.boundary));
            h.put(er.remote_elems as i64);
        }
        for pair in &cn.sends {
            h.put(pair.peer);
            for segs in &pair.packets {
                h.put(segs.len() as i64);
                for seg in segs {
                    h.put(seg.slot as i64);
                    h.pattern(&seg.pattern);
                }
            }
        }
        (cn.staging_packets.iter()).for_each(|&k| h.put(k as i64));
        h.put(cn.write_spans.as_ref().map_or(-1, |s| s.len() as i64));
        for &(lo, hi) in cn.write_spans.iter().flatten() {
            h.put(lo as i64);
            h.put(hi as i64);
        }
    }
    h.0
}

/// How the exec tables are derived may change; what they are may not.
/// Every plan of the exec-fold matrix (pmax 2 and 3; n = 64, 8 Ki and
/// 64 Ki; the n = 64 plans also built naive), the off-matrix block sizes
/// at pmax 3 and 4 and `exchange`'s 1 Mi block-scatter(16) → block copy
/// hashes its tables structurally ([`table_hash`]) to the line recorded
/// in `tests/data/exec_tables.fnv`. The file is only read here; a change
/// that means to move the tables regenerates it and shows the move.
#[test]
fn exec_tables_are_unchanged() {
    let mut got = Vec::new();
    let mut hash = |src: &str, spec: &str, what: &str, naive: bool| {
        let spec = lang::parse_spec(spec).unwrap();
        let clause = &lang::compile(src).unwrap()[0];
        let plan = match naive {
            false => SpmdPlan::build(clause, &spec.decomps),
            true => SpmdPlan::build_naive(clause, &spec.decomps),
        };
        let plan = plan.unwrap();
        let cs = CompiledSchedule::compile_exec(&plan, clause, &spec.decomps);
        got.push(format!(
            "{what} naive={naive} {src}\t{:016x}",
            table_hash(&plan, &cs)
        ));
    };
    let layouts = |v: &str, u: &str, pmax: i64, n: i64| {
        format!(
            "processors {pmax};\narray V[0 to {0}] {v};\narray U[0 to {0}] {u};\n",
            n - 1
        )
    };
    for pmax in [2, 3] {
        for n in [64i64, 8192, 64 << 10] {
            for v in LAYOUTS {
                for u in LAYOUTS {
                    let spec = layouts(v, u, pmax, n);
                    for src in programs(n) {
                        let what = format!("pmax={pmax} n={n} V={v} U={u}");
                        for naive in [false, true].into_iter().take(1 + usize::from(n == 64)) {
                            hash(&src, &spec, &what, naive);
                        }
                    }
                }
            }
        }
    }
    let odd = [
        ("blockscatter(3)", "blockscatter(16)"),
        ("blockscatter(16)", "scatter"),
        ("block", "blockscatter(5)"),
    ];
    for (pmax, (v, u)) in [3, 4].into_iter().flat_map(|p| odd.map(|vu| (p, vu))) {
        let spec = layouts(v, u, pmax, 8192);
        for src in programs(8192) {
            hash(
                &src,
                &spec,
                &format!("pmax={pmax} n=8192 V={v} U={u}"),
                false,
            );
        }
    }
    let n = 1 << 20;
    let src = format!("for i := 0 to {} do V[i] := U[i]; od;", n - 1);
    hash(
        &src,
        &layouts("block", "blockscatter(16)", 2, n),
        "exchange",
        false,
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/exec_tables.fnv");
    let want = std::fs::read_to_string(path).unwrap_or_default();
    let want: Vec<&str> = want.lines().collect();
    assert_eq!(got.len(), 1639);
    assert_eq!(want.len(), got.len(), "{path}: one line per plan");
    for (got, want) in got.iter().zip(&want) {
        assert_eq!(got, want);
    }
}
