//! `spine` — the measurement spine of this repository.
//!
//! ```text
//! spine --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! spine selfcheck [--runs <n>] [--seconds <s>]
//! ```
//!
//! The first form runs one workload in this process and prints, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The second form
//! runs every workload in fresh child processes, twice over, and checks
//! that the two sets agree within the bounds the benchmark declares.
//! `WORKLOADS.md` next to this package says why each workload exists
//! and which end-to-end number each layer number should move.

mod compile_sweep;
mod grid_nd;
mod harness;
mod host;
mod json;
mod loop1d;
mod metrics;
mod selfcheck;
mod serve_round;
mod span;
mod stats;
mod workload;

use harness::Outcome;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// `spine/out`, inside the checkout: the only place this benchmark
/// writes. Relative to the working directory when it lies below it, so
/// the service's socket path stays short however deep the checkout is.
fn out_dir() -> PathBuf {
    let abs = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    match std::env::current_dir() {
        Ok(cwd) => abs
            .strip_prefix(&cwd)
            .map_or(abs.clone(), Path::to_path_buf),
        Err(_) => abs,
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: spine --workload <{}> --seed <n> --seconds <1..60> --trace <0|1>\n       \
         spine selfcheck [--runs <n>] [--seconds <s>]",
        metrics::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// The value after `flag`, parsed.
fn arg<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let at = args.iter().position(|a| a == flag)?;
    args.get(at + 1)?.parse().ok()
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// with every metric of `defs` and each value with all its digits.
pub fn result_line(out: &Outcome, defs: &[(&'static str, &'static str)]) -> Result<String, String> {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.tally.failed == 0,
        out.tally.attempted.max(1),
        out.tally.failed
    );
    for (k, (name, unit)) in defs.iter().enumerate() {
        // an aborted run has no value for what it never reached
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    Ok(s)
}

fn run_workload(args: &[String]) -> ExitCode {
    let (Some(name), Some(seed), Some(seconds), Some(trace)) = (
        arg::<String>(args, "--workload"),
        arg::<u64>(args, "--seed"),
        arg::<u64>(args, "--seconds"),
        arg::<u8>(args, "--trace"),
    ) else {
        return usage();
    };
    let Some(sizing) = harness::sizing(&name) else {
        return usage();
    };
    if !(1..=60).contains(&seconds) || trace > 1 {
        return usage();
    }
    let ops = sizing.timed_ops(seconds);
    let (out, defs): (Outcome, Vec<_>) = if trace == 0 {
        let out = harness::run_untraced(&name, seed, ops, sizing.warmup_ops);
        (
            out,
            metrics::END_TO_END.iter().map(|m| (m.0, m.1)).collect(),
        )
    } else {
        println!("{}", host::HostInfo::read().lines().join("\n"));
        // shorter than the untraced run: a third of the ops untraced,
        // a third traced, and the probes take the rest of the time
        let (out, spans) = harness::run_traced(&name, seed, (ops / 3).max(sizing.min_ops / 4));
        let path = out_dir().join(format!("trace-{name}.jsonl"));
        if let Err(e) = std::fs::write(&path, spans.to_jsonl()) {
            eprintln!("spine: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!("trace={}", path.display());
        (out, metrics::PER_LAYER.iter().map(|m| (m.0, m.1)).collect())
    };
    for line in out.lines.iter().chain(&out.tally.notes) {
        println!("{line}");
    }
    for (name, unit) in &defs {
        if let Some(v) = out.metrics.get(name) {
            println!("{name} = {v} {unit}");
        }
    }
    println!(
        "workload={name} seed={seed} ops={ops} state_fnv={:016x}",
        out.state_fnv
    );
    match result_line(&out, &defs) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("spine: {e}");
            ExitCode::from(1)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = out_dir();
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("spine: cannot create {}: {e}", out.display());
        return ExitCode::from(1);
    }
    // the service binds its Unix socket under the temporary directory;
    // keep that, like every other write, inside the checkout. No other
    // thread exists yet.
    std::env::set_var("TMPDIR", &out);
    if args.first().map(String::as_str) == Some("selfcheck") {
        selfcheck::run(&args[1..])
    } else {
        run_workload(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn check_shape(line: &str, defs: &[(&'static str, &'static str)]) {
        let j = Json::parse(line).unwrap();
        let Json::Obj(top) = &j else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert!(j.get("attempted").and_then(Json::num).unwrap() >= 1.0);
        let Some(Json::Obj(got)) = j.get("metrics") else {
            panic!("no metrics")
        };
        assert_eq!(got.len(), defs.len());
        for (name, unit) in defs {
            let m = &got[*name];
            assert!(m.get("value").and_then(Json::num).is_some(), "{name}");
            assert_eq!(m.get("unit").and_then(Json::str), Some(*unit));
        }
    }

    /// All five workloads at about 1/50 of the op counts: 0 failed ops,
    /// the oracle agrees, both result lines have the contract's shape,
    /// and one seed reproduces one state hash.
    #[test]
    fn smoke_all_workloads_small() {
        std::fs::create_dir_all(out_dir()).unwrap();
        std::env::set_var("TMPDIR", out_dir());
        let e2e: Vec<_> = metrics::END_TO_END.iter().map(|m| (m.0, m.1)).collect();
        let layer: Vec<_> = metrics::PER_LAYER.iter().map(|m| (m.0, m.1)).collect();
        for name in metrics::WORKLOADS {
            let ops = (harness::sizing(name).unwrap().timed_ops(20) / 50).max(2);
            let a = harness::run_untraced(name, 11, ops, 1);
            assert_eq!(a.tally.failed, 0, "{name}: {:?}", a.tally.notes);
            assert!(a.tally.attempted as usize >= ops);
            check_shape(&result_line(&a, &e2e).unwrap(), &e2e);
            for (metric, ..) in metrics::END_TO_END {
                assert!(a.metrics[metric] > 0.0, "{name}/{metric} must never be 0");
            }
            let b = harness::run_untraced(name, 11, ops, 1);
            assert_eq!(a.state_fnv, b.state_fnv, "{name}: one seed, one state");
        }
        let (a, b) = (
            harness::run_untraced("grid_nd", 11, 2, 0),
            harness::run_untraced("grid_nd", 12, 2, 0),
        );
        assert_ne!(a.state_fnv, b.state_fnv, "the seed drives the inputs");
        // one traced run covers every per-layer name, whatever the workload
        let (t, spans) = harness::run_traced("exchange", 11, 2);
        assert_eq!(t.tally.failed, 0, "{:?}", t.tally.notes);
        check_shape(&result_line(&t, &layer).unwrap(), &layer);
        for (metric, ..) in metrics::PER_LAYER {
            assert!(t.metrics.contains_key(metric), "{metric} was not measured");
        }
        assert!(t.metrics["bench.sweep_span_coverage"] >= 0.9);
        assert!(spans.to_jsonl().lines().count() > 100);
    }

    #[test]
    fn a_failed_run_still_prints_a_well_formed_line() {
        let out = harness::run_untraced("no_such_workload", 1, 1, 0);
        assert_eq!(out.tally.failed, 1);
        let e2e: Vec<_> = metrics::END_TO_END.iter().map(|m| (m.0, m.1)).collect();
        let line = result_line(&out, &e2e).unwrap();
        check_shape(&line, &e2e);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1,"));
    }
}
