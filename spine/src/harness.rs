//! The two kinds of run. An untraced run measures the three end-to-end
//! metrics of one workload; a traced run of the same workload records
//! spans and yields the per-layer numbers, and then repeats a fixed set
//! of layer probes so every per-layer name is measured in every traced
//! run.

use crate::compile_sweep::CompileSweep;
use crate::grid_nd::GridNd;
use crate::host::{Bandwidth, FOOTPRINT_ELEMS};
use crate::loop1d::{dspec, Loop1d};
use crate::serve_round::{ServeRound, SMALL_PER_ROUND};
use crate::span::Spans;
use crate::stats::{median, tail};
use crate::workload::{Counters, Phases, Workload, CHECK_OPS};
use std::collections::BTreeMap;
use std::time::Instant;

/// Extent of the `stream` arrays: 32 MiB each, 8x the two cores' L2.
pub const STREAM_N: i64 = FOOTPRINT_ELEMS as i64;
/// Extent of the `exchange` arrays.
pub const EXCHANGE_N: i64 = 1 << 20;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// How a workload's op counts follow from `--seconds`. The counts are
/// fixed per workload (not a wall-clock deadline), so the counters and
/// the state hash of two runs with one seed and one `--seconds` repeat
/// exactly; the rates were sized on the 2-core sizing box so the timed
/// ops take about `--seconds` there.
pub struct Sizing {
    /// Timed ops per second of `--seconds`.
    pub ops_per_second: f64,
    /// Timed ops never go below this.
    pub min_ops: usize,
    /// Warm ops run inside set-up after the checked ones, sized so that
    /// `setup_s` is at least a second: a set-up of milliseconds cannot
    /// repeat within a bound.
    pub warmup_ops: usize,
}

/// The sizing of `name`, or `None` for an unknown workload.
pub fn sizing(name: &str) -> Option<Sizing> {
    let s = |ops_per_second, min_ops, warmup_ops| Sizing {
        ops_per_second,
        min_ops,
        warmup_ops,
    };
    Some(match name {
        "stream" => s(80.0, 100, 50),
        "exchange" => s(18.0, 100, 14),
        "grid_nd" => s(12.0, 100, 12),
        "compile_sweep" => s(1.25, 20, 0),
        "serve_round" => s(10.0, 100, 8),
        _ => return None,
    })
}

impl Sizing {
    /// Timed ops of an untraced run.
    pub fn timed_ops(&self, seconds: u64) -> usize {
        ((self.ops_per_second * seconds as f64) as usize).max(self.min_ops)
    }
}

fn stream(
    seed: u64,
    prepare_span: Option<&'static str>,
    spans: &mut Spans,
) -> Result<Loop1d, String> {
    let hi = STREAM_N - 2;
    Loop1d::new(
        &format!(
            "for i := 1 to {hi} do V[i] := 0.5*(U[i-1]+U[i+1]); od;\n\
             for i := 1 to {hi} do U[i] := V[i]; od;\n"
        ),
        &dspec(STREAM_N, &[("U", "block"), ("V", "block")]),
        seed,
        "op.stream",
        prepare_span,
        spans,
    )
}

fn exchange(seed: u64, spans: &mut Spans) -> Result<Loop1d, String> {
    Loop1d::new(
        &format!("for i := 0 to {} do V[i] := U[i]; od;\n", EXCHANGE_N - 1),
        &dspec(EXCHANGE_N, &[("U", "blockscatter(16)"), ("V", "block")]),
        seed,
        "op.exchange",
        None,
        spans,
    )
}

/// Generate and scatter the inputs of workload `name`; nothing has run.
pub fn make(name: &str, seed: u64, spans: &mut Spans) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "stream" => Box::new(stream(seed, None, spans)?),
        "exchange" => Box::new(exchange(seed, spans)?),
        "grid_nd" => Box::new(GridNd::new(seed)),
        "compile_sweep" => Box::new(CompileSweep::new(seed)?),
        "serve_round" => Box::new(ServeRound::new(seed, spans)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// Ops attempted and failed so far, over the whole process.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Why ops failed (first few).
    pub notes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(why);
        }
    }
}

/// Drives one workload instance and keeps the books: every op is
/// attempted, an `Err` fails it, and so does an exact counter that
/// differs from the first warm op of the same kind.
struct Driver<'a> {
    w: &'a mut dyn Workload,
    done: usize,
    reference: [Option<Counters>; 2],
    /// Packets re-sent over all ops so far. Not an exact counter: a
    /// receiver that waits longer than the transport's NACK timeout for
    /// a slow peer asks for a re-send, which depends on scheduling.
    retransmits: u64,
}

impl<'a> Driver<'a> {
    fn new(w: &'a mut dyn Workload) -> Driver<'a> {
        Driver {
            w,
            done: 0,
            reference: [None; 2],
            retransmits: 0,
        }
    }

    /// One op; untraced ops return their wall time in seconds (a traced
    /// op's time is its `op` span).
    fn op(
        &mut self,
        trace: Option<(&mut Spans, &mut Phases)>,
        tally: &mut Tally,
    ) -> Result<f64, String> {
        tally.attempted += 1;
        let traced = usize::from(trace.is_some());
        let t = Instant::now();
        let result = match trace {
            Some((spans, phases)) => self.w.op_traced(spans, phases),
            None => self.w.op(),
        };
        let secs = t.elapsed().as_secs_f64();
        let mut c = result.inspect_err(|e| tally.fail(format!("op {}: {e}", self.done)))?;
        self.retransmits += std::mem::take(&mut c.retransmits);
        // the very first op is cold: it plans, so its cache counters differ
        if self.done > 0 {
            match self.reference[traced] {
                None => self.reference[traced] = Some(c),
                Some(r) if r != c => tally.fail(format!(
                    "op {}: counters differ from the first warm op's: {}",
                    self.done,
                    c.diff(&r)
                )),
                Some(_) => {}
            }
        }
        self.done += 1;
        Ok(secs)
    }

    /// The checked ops of a fresh instance, then the state hash the
    /// oracle must reproduce, then `warmup` more ops.
    fn start(&mut self, warmup: usize, tally: &mut Tally) -> Result<u64, String> {
        for _ in 0..CHECK_OPS {
            self.op(None, tally)?;
        }
        let checked = self.w.state_fnv()?;
        for _ in 0..warmup {
            self.op(None, tally)?;
        }
        Ok(checked)
    }

    /// Run the sequential oracle and compare; returns the seconds one
    /// sequential op took.
    fn verify(&mut self, checked: u64, tally: &mut Tally) -> f64 {
        let (want, seq_secs) = self.w.oracle(CHECK_OPS);
        if want != checked {
            tally.fail(format!(
                "state after {CHECK_OPS} ops hashes to {checked:016x}, the sequential oracle to {want:016x}"
            ));
        }
        seq_secs
    }
}

/// What one run reports.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Hash of the workload's final state.
    pub state_fnv: u64,
    /// Lines for the human-readable report.
    pub lines: Vec<String>,
}

impl Outcome {
    /// A run that could not go on still reports: the error that stopped
    /// it is a failed op unless the op that raised it already counted.
    fn note_abort(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.lines.push(format!("run aborted: {e}"));
            if self.tally.failed == 0 {
                self.tally.fail(e);
            }
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The untraced run: `SETUP_REPEATS` set-ups (the last one is kept),
/// `ops` timed ops, then the oracle.
pub fn run_untraced(name: &str, seed: u64, ops: usize, warmup: usize) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = Spans::off();
    let mut setups = Vec::new();
    let mut times = Vec::with_capacity(ops);
    let mut instance: Option<Box<dyn Workload>> = None;
    let mut run = || -> Result<(), String> {
        let mut checked = 0;
        for _ in 0..SETUP_REPEATS {
            // tear the previous instance down outside the timer
            drop(instance.take());
            let t = Instant::now();
            let w = instance.insert(make(name, seed, &mut spans)?);
            checked = Driver::new(w.as_mut()).start(warmup, &mut out.tally)?;
            setups.push(t.elapsed().as_secs_f64());
        }
        let w = instance.as_mut().expect("set up above");
        // a fresh driver skips its first op's counters as if it were
        // cold; the second timed op becomes the reference
        let mut driver = Driver::new(w.as_mut());
        for _ in 0..ops {
            times.push(driver.op(None, &mut out.tally)?);
        }
        out.state_fnv = driver.w.state_fnv()?;
        driver.verify(checked, &mut out.tally);
        Ok(())
    };
    let result = run();
    out.note_abort(result);
    drop(instance);
    let (pct, tail_s) = tail(&times);
    out.lines.push(format!(
        "op_ms: {} samples, p{pct:.0} {:.4} ms",
        times.len(),
        tail_s * 1e3
    ));
    out.lines
        .push(format!("setup_s: {:?} (median of {SETUP_REPEATS})", setups));
    out.metrics.insert("op_ms", median(&times) * 1e3);
    out.metrics.insert("setup_s", median(&setups));
    out.metrics.insert("peak_rss_mb", peak_rss_mb());
    out
}

/// Median seconds of `ops` warm ops after `warm` unmeasured ones, and
/// the counters of a warm op.
fn warm_median(
    w: &mut dyn Workload,
    warm: usize,
    ops: usize,
    tally: &mut Tally,
) -> Result<(f64, Counters), String> {
    let mut driver = Driver::new(w);
    for _ in 0..warm {
        driver.op(None, tally)?;
    }
    let mut times = Vec::with_capacity(ops);
    for _ in 0..ops {
        times.push(driver.op(None, tally)?);
    }
    Ok((median(&times), driver.reference[0].unwrap_or_default()))
}

fn micros(spans: &Spans, name: &str) -> f64 {
    median(&spans.seconds(name)) * 1e6
}

fn millis(spans: &Spans, name: &str) -> f64 {
    median(&spans.seconds(name)) * 1e3
}

/// The traced run of workload `name` over `ops` untraced and `ops`
/// traced ops, followed by the layer probes.
pub fn run_traced(name: &str, seed: u64, ops: usize) -> (Outcome, Spans) {
    let mut out = Outcome::default();
    let mut spans = Spans::on();
    let mut run = |out: &mut Outcome| -> Result<(), String> {
        let bw = Bandwidth::measure();
        let m = &mut out.metrics;
        m.insert("host.memcpy_gbs", bw.memcpy_t1);
        m.insert("host.memcpy_gbs.t2", bw.memcpy_t2);
        m.insert("host.triad_gbs", bw.triad_t2);
        m.insert("host.triad_gbs.t1", bw.triad_t1);
        selected(name, seed, ops, &mut spans, out)?;
        probes(seed, &bw, &mut spans, out)
    };
    let result = run(&mut out);
    out.note_abort(result);
    (out, spans)
}

/// The selected workload: set-up, `ops` untraced ops (the base of the
/// tracing overhead) and `ops` traced ops, oracle, census.
fn selected(
    name: &str,
    seed: u64,
    ops: usize,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<(), String> {
    let setup = spans.open("setup");
    let mut w = make(name, seed, spans)?;
    let mut driver = Driver::new(w.as_mut());
    let checked = driver.start(0, &mut out.tally)?;
    spans.close(setup);
    // untraced and traced ops alternate, so slow drift of the box
    // lands on both sides of the overhead ratio alike
    let mut times = Vec::with_capacity(ops);
    let mut phases = Phases::default();
    let op_span = driver.w.op_span();
    let before = spans.seconds(op_span).len();
    for _ in 0..ops {
        times.push(driver.op(None, &mut out.tally)?);
        driver.op(Some((spans, &mut phases)), &mut out.tally)?;
    }
    let traced_times = spans.seconds(op_span).split_off(before);
    out.state_fnv = driver.w.state_fnv()?;
    let seq_secs = driver.verify(checked, &mut out.tally);
    let counters = driver.reference[1].unwrap_or_default();
    let census = driver.w.census();

    let untraced = median(&times);
    let (pct, tail_s) = tail(&times);
    let per_op_ms = |total: f64| total / ops.max(1) as f64 * 1e3;
    let m = &mut out.metrics;
    m.insert("session.ops", ops as f64);
    m.insert("session.op_tail_ms", tail_s * 1e3);
    m.insert("session.op_tail_pct", pct);
    m.insert(
        "bench.trace_overhead_pct",
        (median(&traced_times) / untraced - 1.0) * 100.0,
    );
    m.insert("machine.seq_ms", seq_secs * 1e3);
    m.insert("machine.speedup_vs_seq", seq_secs / untraced);
    m.insert("machine.phase.send_ms", per_op_ms(phases.send));
    m.insert("machine.phase.update_ms", per_op_ms(phases.update));
    m.insert("machine.phase.commit_ms", per_op_ms(phases.commit));
    m.insert("machine.phase.drain_ms", per_op_ms(phases.drain));
    m.insert("spmd.plan_work", census.plan_work as f64);
    m.insert("spmd.send_packets", census.send_packets as f64);
    m.insert("spmd.send_elems", census.send_elems as f64);
    m.insert("spmd.interior_share", census.interior_share());
    m.insert("spmd.simd_share", census.simd_share());
    m.insert("machine.iterations", counters.iterations as f64);
    m.insert("machine.msgs_sent", counters.msgs_sent as f64);
    m.insert("machine.packets_sent", counters.packets_sent as f64);
    m.insert("machine.bytes_sent", counters.bytes_sent as f64);
    m.insert("machine.max_packet_elems", counters.max_packet_elems as f64);
    m.insert("machine.local_reads", counters.local_reads as f64);
    m.insert("machine.simd_lane_elems", counters.simd_lane_elems as f64);
    m.insert(
        "machine.simd_fallback_runs",
        counters.simd_fallback_runs as f64,
    );
    m.insert("machine.retransmits", driver.retransmits as f64);
    m.insert("machine.cache_hits", counters.cache_hits as f64);
    m.insert("machine.cache_misses", counters.cache_misses as f64);
    out.lines.push(format!(
        "{name}: untraced op {:.4} ms, traced op {:.4} ms over {ops} ops each",
        untraced * 1e3,
        median(&traced_times) * 1e3
    ));
    Ok(())
}

/// The layer probes. Each is a short fixed measurement, the same in
/// every traced run, of the layers one workload leans on.
fn probes(seed: u64, bw: &Bandwidth, spans: &mut Spans, out: &mut Outcome) -> Result<(), String> {
    let tally = &mut out.tally;
    let m = &mut out.metrics;
    let mut unused = Phases::default();

    // compile probe: traced passes over the compile_sweep matrix
    {
        let mut w = CompileSweep::new(seed)?;
        Driver::new(&mut w).op(Some((spans, &mut unused)), tally)?;
    }
    m.insert("lang.parse_us", micros(spans, "lang.parse"));
    m.insert("lang.translate_us", micros(spans, "lang.translate"));
    m.insert("lang.dspec_us", micros(spans, "lang.dspec"));
    let mut all_plans = Vec::new();
    for (metric, span) in [
        ("spmd.plan_us.const", "spmd.plan.const"),
        ("spmd.plan_us.shift", "spmd.plan.shift"),
        ("spmd.plan_us.affine_div", "spmd.plan.affine_div"),
        ("spmd.plan_us.affine_gcd", "spmd.plan.affine_gcd"),
        ("spmd.plan_us.stencil", "spmd.plan.stencil"),
    ] {
        m.insert(metric, micros(spans, span));
        all_plans.extend(spans.seconds(span));
    }
    m.insert("spmd.plan_us", median(&all_plans) * 1e6);
    m.insert("spmd.compile_exec_us", micros(spans, "spmd.compile_exec"));
    m.insert("machine.prepare_us", micros(spans, "machine.prepare"));
    m.insert(
        "machine.session_new_ms",
        millis(spans, "machine.session_new"),
    );
    m.insert("machine.first_run_ms", millis(spans, "machine.first_run"));
    m.insert("machine.gather_ms", millis(spans, "machine.gather"));
    m.insert(
        "bench.sweep_span_coverage",
        spans.child_coverage("op.compile_sweep"),
    );

    // stream probe: what one element costs against what the host can stream
    {
        let mut w = stream(seed, Some("machine.prepare.stream"), spans)?;
        let elems = w.elems_per_op() as f64;
        let (secs, _) = warm_median(&mut w, 2, 20, tally)?;
        m.insert("machine.stream_ns_per_elem", secs * 1e9 / elems);
        // computed bytes, not measured traffic: each of the two clauses
        // must read 8 and write 8 bytes per element at the least
        m.insert(
            "machine.triad_share",
            16.0 * elems / secs / (bw.triad_t2 * 1e9),
        );
        m.insert(
            "machine.prepare_ns_per_elem",
            median(&spans.seconds("machine.prepare.stream")) * 1e9 / (STREAM_N - 2) as f64,
        );
    }

    // comm probes: one large packet, many small packets, strided
    // boundary runs; then the fixed cost of one small warm step
    {
        let n = EXCHANGE_N;
        let mut one_packet = Loop1d::new(
            &format!(
                "for i := 0 to {} do V[i] := U[i+{}]; od;\n",
                n / 2 - 1,
                n / 2
            ),
            &dspec(n, &[("U", "block"), ("V", "block")]),
            seed,
            "op.probe",
            None,
            spans,
        )?;
        let (secs, _) = warm_median(&mut one_packet, 2, 8, tally)?;
        m.insert(
            "machine.one_packet_ns_per_elem",
            secs * 1e9 / (n / 2) as f64,
        );

        let mut small_packet = Loop1d::new(
            &format!("for i := 0 to {} do V[i] := U[i]; od;\n", n - 1),
            &dspec(n, &[("U", "blockscatter(4)"), ("V", "block")]),
            seed,
            "op.probe",
            None,
            spans,
        )?;
        let (secs, c) = warm_median(&mut small_packet, 2, 5, tally)?;
        m.insert(
            "machine.small_packet_us",
            secs * 1e6 / c.packets_sent.max(1) as f64,
        );

        let iters = n / 4;
        let mut strided = Loop1d::new(
            &format!("for i := 0 to {} do V[i] := U[3*i+1]+0.5; od;\n", iters - 1),
            &format!(
                "processors 2;\narray V[0 to {}] block;\narray U[0 to {}] scatter;\n",
                iters - 1,
                3 * iters
            ),
            seed,
            "op.probe",
            None,
            spans,
        )?;
        let (secs, _) = warm_median(&mut strided, 2, 8, tally)?;
        m.insert("machine.strided_ns_per_iter", secs * 1e9 / iters as f64);

        let mut step = Loop1d::new(
            "for i := 1 to 4094 do V[i] := 0.5*(U[i-1]+U[i+1]); od;\n",
            &dspec(4096, &[("U", "block"), ("V", "block")]),
            seed,
            "op.probe",
            None,
            spans,
        )?;
        let (secs, _) = warm_median(&mut step, 20, 400, tally)?;
        m.insert("machine.step_fixed_us", secs * 1e6);
    }

    // n-D probe
    {
        let mut w = GridNd::new(seed);
        let points = w.points_per_op() as f64;
        let (secs, _) = warm_median(&mut w, 2, 8, tally)?;
        let (_, seq_secs) = w.oracle(1);
        m.insert("machine.nd_ns_per_point", secs * 1e9 / points);
        m.insert("machine.nd_vs_seq", secs / seq_secs);
    }

    // serve probe
    {
        let mut w = ServeRound::new(seed, spans)?;
        let mut driver = Driver::new(&mut w);
        driver.op(None, tally)?;
        for _ in 0..4 {
            driver.op(Some((spans, &mut unused)), tally)?;
        }
        let round = driver.reference[1].unwrap_or_default();
        let small = millis(spans, "serve.small");
        let bulk = millis(spans, "serve.bulk");
        let direct = millis(spans, "serve.direct_small");
        let op = millis(spans, "op.serve_round");
        m.insert("serve.small_ms", small);
        m.insert("serve.bulk_ms", bulk);
        m.insert("serve.direct_small_ms", direct);
        m.insert("serve.overhead_small_ms", small - direct);
        m.insert(
            "serve.bulk_mb_per_s",
            w.bulk_wire_bytes() as f64 / (bulk * 1e-3) * 1e-6,
        );
        m.insert("serve.tenant_cold_ms", millis(spans, "serve.tenant_cold"));
        m.insert("serve.start_ms", millis(spans, "serve.start"));
        m.insert("serve.connect_ms", millis(spans, "serve.connect"));
        m.insert("serve.queue_wait_us", median(&w.queue_waits) * 1e6);
        m.insert("serve.plan_hits", round.plan_hits as f64);
        m.insert("serve.plan_misses", round.plan_misses as f64);
        m.insert("serve.dag_hits", round.dag_hits as f64);
        m.insert("serve.dag_misses", round.dag_misses as f64);
        m.insert("serve.evictions", round.evictions as f64);
        m.insert("spmd.dag_us", micros(spans, "spmd.dag"));
        m.insert(
            "bench.serve_span_gap_pct",
            ((SMALL_PER_ROUND as f64 * small + bulk) / op - 1.0).abs() * 100.0,
        );
    }
    Ok(())
}
