//! Pseudo-code emission: renders the generated SPMD node programs in the
//! imperative style the paper uses for its templates (Sections 2.6, 2.9,
//! 2.10 and the loop skeletons of Section 4), with the chosen Table I
//! optimization noted per loop.

use crate::comm::CommRun;
use crate::nest::Nest;
use crate::optimizer::Optimized;
use crate::program::SpmdPlan;
use crate::schedule::Schedule;
use vcal_core::map::display_fn1;

/// Render one schedule as a loop nest over variable `var`, with `body`
/// lines inside (pre-indented by the caller's `indent`).
pub fn emit_schedule(s: &Schedule, var: &str, body: &str, indent: usize) -> String {
    let pad = " ".repeat(indent);
    match s {
        Schedule::Empty => format!("{pad}(* no iterations on this node *)\n"),
        Schedule::Range { lo, hi } => {
            format!("{pad}for {var} := {lo} to {hi} do\n{body}{pad}od;\n")
        }
        Schedule::Strided { start, step, count } => format!(
            "{pad}for t := 0 to {} do\n{pad}  {var} := {start} + {step}*t;\n{body}{pad}od;\n",
            count - 1
        ),
        Schedule::RepeatedBlock {
            f,
            b,
            pmax,
            p,
            ext_lo,
            k_max,
            imin,
            imax,
        } => {
            let fi = display_fn1(f, var);
            format!(
                "{pad}(* repeated block: blocks p + k*pmax of size {b}, f({var}) = {fi} *)\n\
                 {pad}for k := 0 to {k_max} do\n\
                 {pad}  lo_v := {ext_lo} + {b}*({p} + k*{pmax});\n\
                 {pad}  jmin := max({imin}, ceil_finv(lo_v));\n\
                 {pad}  jmax := min({imax}, floor_finv(lo_v + {b} - 1));\n\
                 {pad}  for {var} := jmin to jmax do\n{body}{pad}  od;\n{pad}od;\n"
            )
        }
        Schedule::RepeatedScatter {
            f,
            b,
            pmax,
            p,
            ext_lo,
            k_max,
            ..
        } => {
            let fi = display_fn1(f, var);
            format!(
                "{pad}(* repeated scatter: probe f^-1 of each owned value, f({var}) = {fi} *)\n\
                 {pad}for t := {}*{p} to {}*{p} + {} do\n\
                 {pad}  for k := 0 to {k_max} do\n\
                 {pad}    v := {ext_lo} + t + {b}*k*{pmax};\n\
                 {pad}    if finv_integral(v, {var}) then\n{body}{pad}    fi;\n\
                 {pad}  od;\n{pad}od;\n",
                b,
                b,
                b - 1
            )
        }
        Schedule::Concat(parts) => {
            let mut out = format!("{pad}(* piecewise split: {} pieces *)\n", parts.len());
            for part in parts {
                out.push_str(&emit_schedule(part, var, body, indent));
            }
            out
        }
        Schedule::Guarded {
            imin,
            imax,
            proc_of_f,
            p,
        } => {
            let test = display_fn1(proc_of_f, var);
            format!(
                "{pad}for {var} := {imin} to {imax} do\n\
                 {pad}  if {test} = {p} then\n{body}{pad}  fi;\n{pad}od;\n"
            )
        }
    }
}

/// Render the shared-memory SPMD template of Section 2.9 for one node of
/// a plan.
pub fn emit_shared_node(plan: &SpmdPlan, p: i64) -> String {
    let node = &plan.nodes[p as usize];
    let mut out = String::new();
    out.push_str(&format!("p := my_node;  (* = {p} *)\n"));
    out.push_str(&format!("(* Modify_p via {} *)\n", node.modify.kind.name()));
    let f = display_fn1(&plan.f, "i");
    let body = format!("    {}[{}] := Expr(...);\n", plan.lhs_array, f);
    out.push_str(&emit_schedule(&node.modify.schedule, "i", &body, 0));
    out.push_str("barrier;\n");
    out
}

/// Render the distributed-memory SPMD template of Section 2.10 for one
/// node of a plan: sends from `Reside_p \ Modify_p`, receives into
/// `Modify_p \ Reside_p`, then local updates.
pub fn emit_distributed_node(plan: &SpmdPlan, p: i64) -> String {
    let node = &plan.nodes[p as usize];
    let f = display_fn1(&plan.f, "i");
    let mut out = String::new();
    out.push_str(&format!("p := my_node;  (* = {p} *)\n"));
    for rp in &node.resides {
        if rp.replicated {
            out.push_str(&format!("(* {} replicated: no sends *)\n", rp.array));
            continue;
        }
        let g = display_fn1(&rp.g, "i");
        out.push_str(&format!(
            "(* send phase over Reside_p of {} via {} *)\n",
            rp.array,
            rp.opt.kind.name()
        ));
        let body = format!(
            "    if procA({f}) \u{2260} p then\n      send(procA({f}), {}L[local({g})]);\n    fi;\n",
            rp.array
        );
        out.push_str(&emit_schedule(&rp.opt.schedule, "i", &body, 0));
    }
    out.push_str(&format!(
        "(* update phase over Modify_p via {} *)\n",
        node.modify.kind.name()
    ));
    let mut body = String::new();
    for rp in &node.resides {
        if rp.replicated {
            continue;
        }
        let g = display_fn1(&rp.g, "i");
        body.push_str(&format!(
            "    if procB({g}) \u{2260} p then tmp_{0} := receive(procB({g})); fi;\n",
            rp.array
        ));
    }
    body.push_str(&format!(
        "    {}L[local({f})] := Expr(...);\n",
        plan.lhs_array
    ));
    out.push_str(&emit_schedule(&node.modify.schedule, "i", &body, 0));
    out
}

/// Render one nest of loop indices `i` as loops, one `for` per level,
/// outermost first, with the one-line `body` innermost.
fn emit_nest(nest: &Nest, body: &str) -> String {
    let depth = nest.depth();
    let (mut out, mut tail, mut at) = (String::new(), String::new(), nest.base.to_string());
    for l in (0..depth).rev() {
        let pad = " ".repeat(2 * (depth - 1 - l));
        out.push_str(&format!("{pad}for j{l} := 0 to {} do\n", nest.count(l) - 1));
        tail.insert_str(0, &format!("{pad}od;\n"));
        at.push_str(&format!(" + {}*j{l}", nest.stride(l)));
    }
    let pad = " ".repeat(2 * depth);
    format!("{out}{pad}i := {at};\n{pad}{body}\n{tail}")
}

/// Render the distributed template with **closed-form communication
/// loops**: instead of guarding every Reside iteration with
/// `procA(f(i)) ≠ p`, print the node's planned send and receive runs
/// ([`crate::comm::NodeCommPlan`]), per peer and read slot, as bare loop
/// nests. These are the sets `Reside_p ∩ Modify_q` and `Modify_p ∩
/// Reside_q` the machine ships, for every layout.
pub fn emit_distributed_node_closed(plan: &SpmdPlan, p: i64) -> String {
    let node = &plan.nodes[p as usize];
    let f = display_fn1(&plan.f, "i");
    let mut out = format!("p := my_node;  (* = {p} *)\n");
    let sides = [
        ("send", "Reside_p \\ Modify_p", "to", &node.comm.sends),
        ("receive", "Modify_p \\ Reside_p", "from", &node.comm.recvs),
    ];
    for (side, set, dir, pairs) in sides {
        for pc in pairs {
            for (slot, rp) in node.resides.iter().enumerate() {
                let runs: Vec<&CommRun> = pc.runs.iter().filter(|r| r.slot == slot).collect();
                if runs.is_empty() {
                    continue;
                }
                let iters: u64 = runs.iter().map(|r| r.nest.len()).sum();
                out.push_str(&format!(
                    "(* closed-form {side} set {set} of {} {dir} node {} ({iters} iters) *)\n",
                    rp.array, pc.peer
                ));
                let (array, g) = (&rp.array, display_fn1(&rp.g, "i"));
                let body = match side {
                    "send" => format!("send({}, {array}L[local({g})]);", pc.peer),
                    _ => format!("tmp_{array} := receive({});", pc.peer),
                };
                for r in runs {
                    out.push_str(&emit_nest(&r.nest, &body));
                }
            }
        }
    }
    out.push_str("(* update phase over Modify_p *)\n");
    let body = format!("    {}L[local({f})] := Expr(...);\n", plan.lhs_array);
    out.push_str(&emit_schedule(&node.modify.schedule, "i", &body, 0));
    out
}

/// Summarize the optimization decisions of a plan (one line per node).
pub fn plan_report(plan: &SpmdPlan) -> String {
    let mut out = format!(
        "SPMD plan: {} nodes, loop {}..={}, lhs {}[{}]\n",
        plan.pmax,
        plan.loop_bounds.0,
        plan.loop_bounds.1,
        plan.lhs_array,
        display_fn1(&plan.f, "i"),
    );
    for node in &plan.nodes {
        out.push_str(&format!(
            "  p{}: modify {:>6} iters via {} (work {})",
            node.p,
            node.modify.schedule.count(),
            node.modify.kind.name(),
            node.modify.schedule.work_estimate(),
        ));
        for rp in &node.resides {
            out.push_str(&format!(
                ", reside[{}] {} via {}",
                rp.array,
                rp.opt.schedule.count(),
                rp.opt.kind.name()
            ));
        }
        out.push('\n');
    }
    out
}

/// Helper for an [`Optimized`] in isolation.
pub fn emit_optimized(opt: &Optimized, var: &str, body: &str) -> String {
    format!(
        "(* {} *)\n{}",
        opt.kind.name(),
        emit_schedule(&opt.schedule, var, body, 0)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::optimize;
    use crate::program::{DecompMap, SpmdPlan};
    use vcal_core::func::Fn1;
    use vcal_core::{ArrayRef, Bounds, Clause, Expr, Guard, IndexSet, Ordering};
    use vcal_decomp::Decomp1;

    fn plan() -> (SpmdPlan, DecompMap) {
        let clause = Clause {
            iter: IndexSet::range(0, 63),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("A", Fn1::identity()),
            rhs: Expr::Ref(ArrayRef::d1("B", Fn1::shift(-1))),
        };
        let mut dm = DecompMap::new();
        dm.insert("A".into(), Decomp1::block(4, Bounds::range(0, 63)));
        dm.insert("B".into(), Decomp1::block(4, Bounds::range(-1, 63)));
        // shift B's extent so B[i-1] stays in range for i=0
        let clause = Clause {
            iter: IndexSet::range(0, 63),
            ..clause
        };
        (SpmdPlan::build(&clause, &dm).unwrap(), dm)
    }

    #[test]
    fn emit_range_loop() {
        let s = Schedule::range(2, 9);
        let code = emit_schedule(&s, "i", "  work;\n", 0);
        assert!(code.contains("for i := 2 to 9 do"), "{code}");
    }

    #[test]
    fn emit_strided_loop_shows_gen_function() {
        let dec = Decomp1::scatter(4, Bounds::range(0, 99));
        let o = optimize(&Fn1::affine(3, 1), &dec, 0, 32, 2);
        let code = emit_optimized(&o, "i", "  work;\n");
        assert!(code.contains("theorem-3"), "{code}");
        assert!(code.contains("+ 4*t"), "{code}");
    }

    #[test]
    fn emit_guarded_shows_membership_test() {
        let dec = Decomp1::scatter(4, Bounds::range(0, 1000));
        let o = optimize(&Fn1::square(), &dec, 0, 30, 1);
        let code = emit_optimized(&o, "i", "  work;\n");
        assert!(code.contains("if"), "{code}");
        assert!(code.contains("= 1"), "{code}");
    }

    #[test]
    fn shared_template_mentions_barrier() {
        let (p, _) = plan();
        let code = emit_shared_node(&p, 0);
        assert!(code.contains("barrier;"), "{code}");
        assert!(code.contains("my_node"), "{code}");
    }

    #[test]
    fn distributed_template_has_send_and_receive() {
        let (p, _) = plan();
        let code = emit_distributed_node(&p, 1);
        assert!(code.contains("send("), "{code}");
        assert!(code.contains("receive("), "{code}");
    }

    #[test]
    fn closed_form_template_emits_unguarded_sends() {
        let (p, _) = plan();
        let code = emit_distributed_node_closed(&p, 1);
        assert!(code.contains("closed-form send set"), "{code}");
        assert!(code.contains("send("), "{code}");
        // the closed-form send loops carry no per-element ownership test
        let send_section = code.split("update phase").next().unwrap();
        assert!(!send_section.contains('\u{2260}'), "{code}");
    }

    /// `dist-closed` prints unguarded loops for every layout pair, and its
    /// per-slot headers count exactly the elements each node sends and
    /// receives.
    #[test]
    fn closed_form_template_prints_the_planned_runs_for_every_layout() {
        let n = 48;
        let e = Bounds::range(0, n - 1);
        let iters = |code: &str, side: &str| -> u64 {
            let head = format!("(* closed-form {side} set");
            (code.lines().filter(|l| l.starts_with(&head)))
                .map(|l| {
                    let (_, tail) = l.rsplit_once('(').unwrap();
                    tail.split(' ').next().unwrap().parse::<u64>().unwrap()
                })
                .sum()
        };
        let mut shipped = 0;
        for pmax in 2..=4 {
            let layouts = [
                Decomp1::block(pmax, e),
                Decomp1::scatter(pmax, e),
                Decomp1::block_scatter(3, pmax, e),
                Decomp1::block_scatter(4, pmax, e),
            ];
            for (da, db) in layouts
                .iter()
                .flat_map(|a| layouts.iter().map(move |b| (a, b)))
            {
                let mut dm = DecompMap::new();
                dm.insert("A".into(), da.clone());
                dm.insert("B".into(), db.clone());
                let read = |g: Fn1| Expr::Ref(ArrayRef::d1("B", g));
                let clause = Clause {
                    iter: IndexSet::range(0, (n - 2) / 2),
                    ordering: Ordering::Par,
                    guard: Guard::Always,
                    lhs: ArrayRef::d1("A", Fn1::identity()),
                    rhs: Expr::add(read(Fn1::shift(1)), read(Fn1::affine(2, 1))),
                };
                for naive in [false, true] {
                    let plan = match naive {
                        true => SpmdPlan::build_naive(&clause, &dm).unwrap(),
                        false => SpmdPlan::build(&clause, &dm).unwrap(),
                    };
                    for node in &plan.nodes {
                        let code = emit_distributed_node_closed(&plan, node.p);
                        let (comm, _) = code.split_once("update phase").unwrap();
                        let what = format!("A={da} B={db} naive={naive}\n{code}");
                        assert!(!comm.contains('\u{2260}'), "{what}");
                        assert_eq!(iters(comm, "send"), node.comm.send_elems(), "{what}");
                        assert_eq!(iters(comm, "receive"), node.comm.recv_elems(), "{what}");
                        shipped += node.comm.send_elems();
                    }
                }
            }
        }
        assert!(shipped > 1000, "only {shipped} elements shipped");
    }

    #[test]
    fn report_lists_every_node() {
        let (p, _) = plan();
        let r = plan_report(&p);
        for n in 0..4 {
            assert!(r.contains(&format!("p{n}:")), "{r}");
        }
    }
}
