//! The one cost model ([`vcal_spmd::CostModel`]) fit to this host, and
//! applied to what a machine ran.
//!
//! The machines *count* events exactly (iterations, ownership tests,
//! packets, bytes, received elements). [`fit`] turns the counts and the
//! tracer's phase wall-clock of a profiled warm step into the model's
//! constants, in nanoseconds; [`price_report`] prices an executed
//! report with the same fold [`vcal_spmd::CostModel::price_plan`] uses
//! on a plan's census.

use crate::obs::{Phase, TraceLog};
use crate::stats::ExecReport;
use vcal_spmd::{CostModel, NodeCensus, Price};

/// One calibration observation: the hardware-measurable counters of a
/// profiled (warm) step plus the wall-clock the tracer recorded for it.
/// Aggregated over all nodes — the fit estimates *per-event* averages,
/// which is exactly what plan-time pricing needs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CalibrationSample {
    /// Iterations executed (schedule visits across all nodes).
    pub iterations: u64,
    /// Wire messages put on the transport.
    pub packets: u64,
    /// Modeled wire bytes sent.
    pub bytes: u64,
    /// Payload elements received.
    pub recv_elems: u64,
    /// Measured update-phase wall-clock, summed over nodes (ns).
    pub update_ns: f64,
    /// Measured send-phase wall-clock, summed over nodes (ns).
    pub send_ns: f64,
    /// Measured drain/receive wall-clock, summed over nodes (ns).
    pub drain_ns: f64,
}

impl CalibrationSample {
    /// Extract a sample from one traced execution: counters from the
    /// reports, phase wall-clock from the trace's timing side-band.
    pub fn of<'a>(reports: impl IntoIterator<Item = &'a ExecReport>, log: &TraceLog) -> Self {
        let totals = log.phase_totals();
        let ns = |p: Phase| totals.get(&p).map_or(0.0, |d| d.as_nanos() as f64);
        let mut sample = CalibrationSample {
            update_ns: ns(Phase::Update),
            send_ns: ns(Phase::Send),
            drain_ns: ns(Phase::Drain),
            ..CalibrationSample::default()
        };
        for report in reports {
            let t = report.total();
            sample.iterations += t.iterations;
            sample.packets += t.packets_sent;
            sample.bytes += t.bytes_sent;
            sample.recv_elems += t.msgs_received;
        }
        sample
    }
}

/// Fit the cost model's constants, in nanoseconds, from profiled
/// samples. Per-iteration and per-received-element costs are direct
/// ratios, and an ownership test keeps the era's quarter of an
/// iteration; the send-phase pool is attributed to per-packet and
/// per-byte terms by a 2×2 least-squares fit when the samples are
/// independent enough to identify both, and split evenly between the two
/// terms otherwise (one warm step can never separate startup from
/// bandwidth). Constants that a degenerate profile leaves unobserved (no
/// packets, no receives) keep their [`CostModel::ERA`] ratio to an
/// iteration, so pricing still ranks communication-bearing candidates
/// sensibly. Returns `None` when no sample carries any measured update
/// time — there is nothing to calibrate from.
pub fn fit(samples: &[CalibrationSample]) -> Option<CostModel> {
    let tot_iters: u64 = samples.iter().map(|s| s.iterations).sum();
    let tot_update: f64 = samples.iter().map(|s| s.update_ns).sum();
    if tot_iters == 0 || tot_update <= 0.0 {
        return None;
    }
    // the era ratios scaled to the measured iteration
    let era = CostModel::ERA;
    let scale = tot_update / tot_iters as f64 / era.t_iter;
    let mut out = CostModel {
        t_iter: era.t_iter * scale,
        t_test: era.t_test * scale,
        t_packet: era.t_packet * scale,
        t_byte: era.t_byte * scale,
        t_recv: era.t_recv * scale,
    };

    let tot_packets: u64 = samples.iter().map(|s| s.packets).sum();
    let tot_bytes: u64 = samples.iter().map(|s| s.bytes).sum();
    let tot_send: f64 = samples.iter().map(|s| s.send_ns).sum();
    if tot_packets == 0 {
        return Some(out);
    }
    if tot_send > 0.0 {
        // least squares over send_ns ≈ packets·a + bytes·b
        let (mut spp, mut spb, mut sbb, mut spy, mut sby) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for s in samples {
            let (p, b, y) = (s.packets as f64, s.bytes as f64, s.send_ns);
            spp += p * p;
            spb += p * b;
            sbb += b * b;
            spy += p * y;
            sby += b * y;
        }
        let det = spp * sbb - spb * spb;
        let rel = det / (spp * sbb).max(f64::MIN_POSITIVE);
        let (a, b) = if rel > 1e-6 {
            ((sbb * spy - spb * sby) / det, (spp * sby - spb * spy) / det)
        } else {
            (f64::NAN, f64::NAN)
        };
        if a.is_finite() && b.is_finite() && a >= 0.0 && b >= 0.0 {
            out.t_packet = a;
            out.t_byte = b;
        } else {
            // unidentifiable: split the measured pool evenly
            out.t_packet = 0.5 * tot_send / tot_packets as f64;
            out.t_byte = if tot_bytes > 0 {
                0.5 * tot_send / tot_bytes as f64
            } else {
                0.0
            };
        }
    }
    let tot_recv: u64 = samples.iter().map(|s| s.recv_elems).sum();
    let tot_drain: f64 = samples.iter().map(|s| s.drain_ns).sum();
    if tot_recv > 0 && tot_drain > 0.0 {
        out.t_recv = tot_drain / tot_recv as f64;
    }
    Some(out)
}

/// Price an executed report: each node's counters in place of a plan's
/// census (tests are the guard tests that did not execute).
pub fn price_report(model: &CostModel, report: &ExecReport) -> Price {
    model.price(report.nodes.iter().map(|n| NodeCensus {
        iterations: n.iterations,
        tests: n.guard_tests.saturating_sub(n.iterations),
        packets: n.packets_sent,
        bytes: n.bytes_sent,
        recv_elems: n.msgs_received,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::darray::DistArray;
    use crate::distributed::{run_distributed, DistOptions};
    use std::collections::BTreeMap;
    use vcal_core::func::Fn1;
    use vcal_core::{Array, ArrayRef, Bounds, Clause, Env, Expr, Guard, IndexSet, Ordering};
    use vcal_decomp::Decomp1;
    use vcal_spmd::{DecompMap, SpmdPlan};

    /// Modeled speedup of `plan` against the one-processor time of the
    /// same loop (no tests, no messages).
    fn speedup(model: &CostModel, plan: &SpmdPlan) -> f64 {
        let n = (plan.loop_bounds.1 - plan.loop_bounds.0 + 1).max(0) as f64;
        n * model.t_iter / model.price_plan(plan).total
    }

    fn copy_clause(n: i64) -> Clause {
        Clause {
            iter: IndexSet::range(0, n - 1),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("A", Fn1::identity()),
            rhs: Expr::Ref(ArrayRef::d1("B", Fn1::identity())),
        }
    }

    #[test]
    fn closed_form_plan_speedup_approaches_pmax() {
        let n = 1 << 14;
        let clause = copy_clause(n);
        let model = CostModel::ERA;
        for pmax in [2i64, 8, 32] {
            let mut dm = DecompMap::new();
            dm.insert("A".into(), Decomp1::block(pmax, Bounds::range(0, n - 1)));
            dm.insert("B".into(), Decomp1::block(pmax, Bounds::range(0, n - 1)));
            let plan = SpmdPlan::build(&clause, &dm).unwrap();
            let s = speedup(&model, &plan);
            let rel = (s - pmax as f64).abs() / (pmax as f64);
            assert!(rel < 0.05, "pmax={pmax}: modeled speedup {s}");
            // naive plans pay the tests and scale worse
            let naive = SpmdPlan::build_naive(&clause, &dm).unwrap();
            let sn = speedup(&model, &naive);
            assert!(sn < s, "naive {sn} should trail closed-form {s}");
            // naive speedup saturates around t_iter/t_test regardless of pmax
            assert!(sn <= 1.0 / model.t_test * 1.1, "pmax={pmax}: naive {sn}");
        }
    }

    #[test]
    fn communication_dominates_scatter_stencil() {
        // block vs scatter for a stencil: the model must rank block far
        // ahead once message costs enter.
        let n = 1 << 10;
        let clause = Clause {
            iter: IndexSet::range(1, n - 2),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("V", Fn1::identity()),
            rhs: Expr::Ref(ArrayRef::d1("U", Fn1::shift(-1))),
        };
        let mut env = Env::new();
        env.insert(
            "U",
            Array::from_fn(Bounds::range(0, n - 1), |i| i.scalar() as f64),
        );
        env.insert("V", Array::zeros(Bounds::range(0, n - 1)));
        let model = CostModel::ERA;
        let mut times = Vec::new();
        for dec in [
            Decomp1::block(8, Bounds::range(0, n - 1)),
            Decomp1::scatter(8, Bounds::range(0, n - 1)),
        ] {
            let mut dm = DecompMap::new();
            dm.insert("U".into(), dec.clone());
            dm.insert("V".into(), dec.clone());
            let plan = SpmdPlan::build(&clause, &dm).unwrap();
            let mut arrays: BTreeMap<String, DistArray> = BTreeMap::new();
            for a in ["U", "V"] {
                arrays.insert(
                    a.into(),
                    DistArray::scatter_from(env.get(a).unwrap(), dm[a].clone()),
                );
            }
            let report =
                run_distributed(&plan, &clause, &mut arrays, DistOptions::default()).unwrap();
            times.push(price_report(&model, &report).total);
        }
        assert!(
            times[0] * 5.0 < times[1],
            "block {} should beat scatter {} by far",
            times[0],
            times[1]
        );
    }
}
