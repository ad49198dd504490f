//! The metric names. They are the contract later changes are accepted
//! or rejected on: add a name for a new measurement, never give an
//! existing name a new meaning (see `WORKLOADS.md`). `BENCHMARK.json`
//! at the repository root lists the same names; a test keeps the two
//! in step.

/// `(name, unit, better, bound)`: what a user of the system pays. The
/// bound is the share of the parent's median by which the metric may
/// worsen before a change is rejected.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("op_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.20),
];

/// The five workloads, in the order `selfcheck` runs them.
pub const WORKLOADS: &[&str] = &[
    "stream",
    "exchange",
    "grid_nd",
    "compile_sweep",
    "serve_round",
];

/// `(name, unit, better)`: single layers, from the traced run. The
/// first block is measured on the selected workload; every later block
/// comes from a fixed probe that each traced run repeats, so the number
/// has the same meaning whichever workload was selected.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // the selected workload's ops
    ("session.ops", "count", "higher"),
    ("session.op_tail_ms", "ms", "lower"),
    ("session.op_tail_pct", "%", "higher"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("machine.seq_ms", "ms", "lower"),
    ("machine.speedup_vs_seq", "ratio", "higher"),
    ("machine.phase.send_ms", "ms", "lower"),
    ("machine.phase.update_ms", "ms", "lower"),
    ("machine.phase.commit_ms", "ms", "lower"),
    ("machine.phase.drain_ms", "ms", "lower"),
    ("spmd.plan_work", "count", "lower"),
    ("spmd.send_packets", "count", "lower"),
    ("spmd.send_elems", "count", "lower"),
    ("spmd.interior_share", "share", "higher"),
    ("spmd.simd_share", "share", "higher"),
    ("machine.iterations", "count", "lower"),
    ("machine.msgs_sent", "count", "lower"),
    ("machine.packets_sent", "count", "lower"),
    ("machine.bytes_sent", "count", "lower"),
    ("machine.max_packet_elems", "count", "higher"),
    ("machine.local_reads", "count", "higher"),
    ("machine.simd_lane_elems", "count", "higher"),
    ("machine.simd_fallback_runs", "count", "lower"),
    ("machine.retransmits", "count", "lower"),
    ("machine.cache_hits", "count", "higher"),
    ("machine.cache_misses", "count", "lower"),
    // compile probe: the compile_sweep matrix, per program
    ("lang.parse_us", "us", "lower"),
    ("lang.translate_us", "us", "lower"),
    ("lang.dspec_us", "us", "lower"),
    ("spmd.plan_us", "us", "lower"),
    ("spmd.plan_us.const", "us", "lower"),
    ("spmd.plan_us.shift", "us", "lower"),
    ("spmd.plan_us.affine_div", "us", "lower"),
    ("spmd.plan_us.affine_gcd", "us", "lower"),
    ("spmd.plan_us.stencil", "us", "lower"),
    ("spmd.compile_exec_us", "us", "lower"),
    ("machine.prepare_us", "us", "lower"),
    ("machine.session_new_ms", "ms", "lower"),
    ("machine.first_run_ms", "ms", "lower"),
    ("machine.gather_ms", "ms", "lower"),
    ("bench.sweep_span_coverage", "share", "higher"),
    // stream probe: 4 Mi elements
    ("machine.prepare_ns_per_elem", "ns", "lower"),
    ("machine.stream_ns_per_elem", "ns", "lower"),
    ("machine.triad_share", "share", "higher"),
    // comm probes
    ("machine.one_packet_ns_per_elem", "ns", "lower"),
    ("machine.small_packet_us", "us", "lower"),
    ("machine.strided_ns_per_iter", "ns", "lower"),
    ("machine.step_fixed_us", "us", "lower"),
    // n-D probe
    ("machine.nd_ns_per_point", "ns", "lower"),
    ("machine.nd_vs_seq", "ratio", "lower"),
    // serve probe
    ("serve.small_ms", "ms", "lower"),
    ("serve.bulk_ms", "ms", "lower"),
    ("serve.direct_small_ms", "ms", "lower"),
    ("serve.overhead_small_ms", "ms", "lower"),
    ("serve.bulk_mb_per_s", "MB/s", "higher"),
    ("serve.tenant_cold_ms", "ms", "lower"),
    ("serve.start_ms", "ms", "lower"),
    ("serve.connect_ms", "ms", "lower"),
    ("serve.queue_wait_us", "us", "lower"),
    ("serve.plan_hits", "count", "higher"),
    ("serve.plan_misses", "count", "lower"),
    ("serve.dag_hits", "count", "higher"),
    ("serve.dag_misses", "count", "lower"),
    ("serve.evictions", "count", "lower"),
    ("spmd.dag_us", "us", "lower"),
    ("bench.serve_span_gap_pct", "%", "lower"),
    // host references, measured in the same run
    ("host.memcpy_gbs", "GB/s", "higher"),
    ("host.memcpy_gbs.t2", "GB/s", "higher"),
    ("host.triad_gbs", "GB/s", "higher"),
    ("host.triad_gbs.t1", "GB/s", "higher"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    /// A metric name: letters, digits, `_`, `.`, `-`; starts with a letter
    /// or digit; at most 64 characters.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_unique_and_within_the_limits() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(WORKLOADS.iter().copied());
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for bad in ["", "a b", ".x", "x/y", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for (_, _, _, bound) in END_TO_END {
            assert!(*bound > 0.0 && *bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| (m.0, m.1, m.2) == ("setup_s", "s", "lower")));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let j = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let Json::Obj(top) = &j else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::str).unwrap().to_string();
        let e2e: Vec<_> = j
            .get("end_to_end")
            .unwrap()
            .arr()
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").and_then(Json::num).unwrap(),
                )
            })
            .collect();
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string(), m.2.to_string(), m.3))
            .collect();
        assert_eq!(e2e, want);
        let layer: Vec<_> = j
            .get("per_layer")
            .unwrap()
            .arr()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let want: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string(), m.2.to_string()))
            .collect();
        assert_eq!(layer, want);
        let workloads: Vec<_> = j
            .get("workloads")
            .unwrap()
            .arr()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for w in j.get("workloads").unwrap().arr() {
            let why = field(w, "why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        let secs = j.get("run_seconds").and_then(Json::num).unwrap();
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
    }
}
