//! Worker-process shim for socket-backed benches.
//!
//! The socket backends spawn `<bin> worker <addr> <node> <pmax>
//! [hb_ms]` for every node; in the test suites `<bin>` is the `vcalc`
//! driver, but `CARGO_BIN_EXE_vcalc` belongs to the root package and is
//! invisible to `vcal-bench` benches. This shim gives the bench package
//! its own spawnable worker so E19 can run the service's pool as real
//! OS processes (`VCAL_WORKER_BIN=$CARGO_BIN_EXE_vcal-bench-worker`).

use std::time::Duration;

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = || "usage: vcal-bench-worker worker <addr> <node> <pmax> [hb_ms]".to_string();
    if args.first().map(String::as_str) != Some("worker") || !(4..=5).contains(&args.len()) {
        return Err(usage());
    }
    let addr = &args[1];
    let node: i64 = args[2].parse().map_err(|_| usage())?;
    let pmax: usize = args[3].parse().map_err(|_| usage())?;
    let hb = match args.get(4) {
        Some(ms) => Duration::from_millis(ms.parse().map_err(|_| usage())?),
        None => Duration::ZERO,
    };
    vcal_machine::worker_entry(addr, node, pmax, hb)
}

fn main() {
    if let Err(e) = run() {
        eprintln!("{e}");
        std::process::exit(1);
    }
}
