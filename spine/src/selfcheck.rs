//! `spine selfcheck`: the tool that sets, and later defends, the bounds.
//! It does what the acceptance driver does — two sets of runs of the
//! same build, each workload in fresh child processes, another seed per
//! run — and fails if the two sets disagree by more than a metric's
//! declared bound, if a spread within a set exceeds it, if an exact
//! counter or a state hash differs between the sets, or if any op
//! failed.

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{iqr_share, median, quartiles};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// One child run: its metrics, state hash and failed-op count.
struct Child {
    metrics: BTreeMap<String, f64>,
    state_fnv: String,
    failed: f64,
}

fn child(workload: &str, seed: u64, seconds: u64, trace: u8) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            &trace.to_string(),
        ])
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{workload}: child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let j = Json::parse(last)?;
    let Some(Json::Obj(ms)) = j.get("metrics") else {
        return Err("result line has no metrics".into());
    };
    let state_fnv = stdout
        .lines()
        .filter_map(|l| l.split("state_fnv=").nth(1))
        .next_back()
        .unwrap_or("")
        .to_string();
    Ok(Child {
        metrics: ms
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.num()?)))
            .collect(),
        state_fnv,
        failed: j.get("failed").and_then(Json::num).unwrap_or(1.0),
    })
}

/// `run_seconds` of `BENCHMARK.json`.
fn declared_seconds() -> u64 {
    Json::parse(include_str!("../../BENCHMARK.json"))
        .ok()
        .and_then(|j| j.get("run_seconds")?.num())
        .map_or(10, |s| s as u64)
}

/// Run the check; exit code 0 only if everything agrees.
pub fn run(args: &[String]) -> ExitCode {
    let runs: u64 = crate::arg(args, "--runs").unwrap_or(3);
    let seconds: u64 = crate::arg(args, "--seconds").unwrap_or_else(declared_seconds);
    let mut problems: Vec<String> = Vec::new();
    // untraced[set][workload] = the runs of that set
    let mut untraced: [BTreeMap<&str, Vec<Child>>; 2] = [BTreeMap::new(), BTreeMap::new()];
    let mut traced: [BTreeMap<&str, Child>; 2] = [BTreeMap::new(), BTreeMap::new()];
    for set in 0..2 {
        for workload in WORKLOADS {
            for k in 0..runs {
                match child(workload, 1 + k, seconds, 0) {
                    Ok(c) => untraced[set].entry(workload).or_default().push(c),
                    Err(e) => problems.push(e),
                }
            }
            match child(workload, 1, seconds, 1) {
                Ok(c) => drop(traced[set].insert(workload, c)),
                Err(e) => problems.push(e),
            }
            eprintln!("selfcheck: set {} {workload} done", set + 1);
        }
    }

    println!(
        "{:<14} {:<12} {:>11} {:>11} {:>11} {:>8}   {:>11} {:>8}   {:>8} {:>6}",
        "workload",
        "metric",
        "median 1",
        "q1",
        "q3",
        "spread",
        "median 2",
        "spread",
        "gap",
        "bound"
    );
    let empty = Vec::new();
    for workload in WORKLOADS {
        let sets = [0, 1].map(|s| untraced[s].get(workload).unwrap_or(&empty));
        for (metric, _, _, bound) in END_TO_END {
            let values = sets.map(|set| {
                set.iter()
                    .filter_map(|c| c.metrics.get(*metric).copied())
                    .collect::<Vec<f64>>()
            });
            let (m1, m2) = (median(&values[0]), median(&values[1]));
            let (q1, q3) = quartiles(&values[0]);
            let spreads = [iqr_share(&values[0]), iqr_share(&values[1])];
            // every end-to-end metric is better when lower
            let gap = if m1 > 0.0 {
                m2 / m1 - 1.0
            } else {
                f64::INFINITY
            };
            println!(
                "{workload:<14} {metric:<12} {m1:>11.4} {q1:>11.4} {q3:>11.4} {:>7.2}%   \
                 {m2:>11.4} {:>7.2}%   {:>+7.2}% {:>5.0}%",
                spreads[0] * 100.0,
                spreads[1] * 100.0,
                gap * 100.0,
                bound * 100.0
            );
            if gap > *bound {
                problems.push(format!(
                    "{workload}/{metric}: second median worse by {:.2}%",
                    gap * 100.0
                ));
            }
            for s in spreads {
                if *metric != "setup_s" && s > *bound {
                    problems.push(format!(
                        "{workload}/{metric}: spread {:.2}% over the bound",
                        s * 100.0
                    ));
                }
            }
        }
        for (a, b) in sets[0].iter().zip(sets[1]) {
            if a.state_fnv != b.state_fnv || a.state_fnv.is_empty() {
                problems.push(format!(
                    "{workload}: state_fnv {} then {} for one seed",
                    a.state_fnv, b.state_fnv
                ));
            }
        }
        let failed: f64 = sets.iter().flat_map(|s| s.iter()).map(|c| c.failed).sum();
        if failed > 0.0 {
            problems.push(format!("{workload}: {failed} failed ops"));
        }
        if let (Some(a), Some(b)) = (traced[0].get(workload), traced[1].get(workload)) {
            // counts repeat exactly, and so do the planner's shares of
            // counts; re-sends depend on scheduling and are only reported
            let exact = |m: &&(&str, &str, &str)| {
                (m.1 == "count" && m.0 != "machine.retransmits")
                    || (m.1 == "share" && m.0.starts_with("spmd."))
            };
            for (metric, unit, _) in PER_LAYER.iter().filter(exact) {
                let (x, y) = (a.metrics.get(*metric), b.metrics.get(*metric));
                if x != y {
                    problems.push(format!("{workload}/{metric}: {x:?} then {y:?} {unit}"));
                }
            }
            if a.failed + b.failed > 0.0 {
                problems.push(format!("{workload}: failed ops in a traced run"));
            }
        }
    }
    if problems.is_empty() {
        println!("selfcheck: {runs} runs per set at {seconds} s agree within every bound");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            println!("selfcheck: {p}");
        }
        ExitCode::from(1)
    }
}
