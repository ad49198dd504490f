//! `vcalc` — the V-cal compiler driver.
//!
//! Reads a program in the miniature imperative language and a *separate*
//! decomposition specification, then prints the V-cal form, the SPMD
//! plan, and generated node programs — and can execute the program on
//! the simulated distributed machine, verifying against the sequential
//! reference.
//!
//! ```text
//! vcalc <program> <spec> [--emit vcal|plan|shared|dist|dist-closed|derivation]
//!                        [--run] [--steps <N>] [--naive] [--node <p>]
//!                        [--schedule seq|dag]
//!                        [--trace] [--trace-out <path>]
//! ```
//!
//! A fused clause body runs as one lane map, AVX2 where the CPU has it
//! (DESIGN.md §14); `--trace` prints the SIMD census next to the
//! interior/boundary census.
//!
//! `--trace` executes each clause under a collecting tracer: the
//! enumeration-dispatch counts, per-phase wall-clock timings (next to
//! the cost model's prediction), and the replay-checker verdict are
//! printed, and `--trace-out` writes the deterministic JSONL event log.
//!
//! `--steps <N>` executes the whole program as an `N`-iteration timestep
//! loop through a steady-state [`DistSession`]: plans are cached, node
//! threads persist across steps, and the printed cache statistics show
//! that only the first step paid for planning (DESIGN.md §12). A copy
//! between arrays of one layout runs as a rename (DESIGN.md §19); the
//! summary counts them and the owed copies settled later, and under
//! `--trace` a renamed step says so instead of replaying a node log it
//! does not have, and a step that settled first replays its own run.
//!
//! `--schedule` runs the whole program through the program-level
//! scheduler (DESIGN.md §16): `seq` executes the clauses in strict
//! program order (the oracle), `dag` analyses the clause dependence DAG
//! and dispatches independent clauses concurrently as waves on the
//! persistent pool. Results are bit-identical either way; the DAG shape
//! (waves, edges, width) is printed after the run.
//!
//! Example files are under `examples/vcalc/`.

use std::collections::BTreeMap;
use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;
use vcal_suite::core::{Array, Env};
use vcal_suite::lang;
use vcal_suite::machine::perfmodel::price_report;
use vcal_suite::machine::{
    build_dag, replay_check, replay_check_dag, run_distributed, run_distributed_traced,
    worker_entry, CollectingTracer, DistArray, DistOptions, DistSession, ProgramStep, ScheduleMode,
    ServeClient, ServeConfig, ServeHandle, ServeRequest, TransportKind, TuneOptions, NULL_TRACER,
};
use vcal_suite::spmd::{emit, CostModel, NodeCommPlan, PlanSummary, SpmdPlan};

struct Options {
    program_path: String,
    spec_path: String,
    emits: Vec<String>,
    run: bool,
    steps: u64,
    naive: bool,
    advise: bool,
    autotune: bool,
    tune_budget: usize,
    retune_every: Option<u64>,
    node: i64,
    transport: TransportKind,
    schedule: Option<ScheduleMode>,
    trace: bool,
    trace_out: Option<String>,
}

impl Options {
    /// The machine options every execution path of the driver uses.
    fn dist_options(&self) -> DistOptions {
        DistOptions {
            transport: self.transport,
            ..DistOptions::default()
        }
    }
}

fn usage() -> &'static str {
    "usage: vcalc <program> <spec> [--emit vcal|plan|shared|dist|dist-closed|derivation]... \
     [--run] [--steps <N>] [--naive] [--advise] [--autotune] [--tune-budget <K>] \
     [--node <p>] \
     [--transport inproc|uds|tcp] [--schedule seq|dag] \
     [--trace] [--trace-out <path>]\n\
     \n\
     --autotune runs the --steps loop with the cost-driven decomposition\n\
     auto-tuner in the loop: the first steps are profiled, the measured\n\
     timings calibrate the Section 4 cost model, every candidate layout is\n\
     priced from its plans alone, and a mid-loop redistribution is inserted\n\
     when switching is predicted to pay for itself over the remaining steps.\n\
     --tune-budget caps the candidates priced (default 16). Results stay\n\
     bit-identical to the untuned loop.\n\
     --transport selects the execution backend: `inproc` (default) runs the\n\
     nodes as threads over channels; `uds` and `tcp` run each node as a real\n\
     worker OS process speaking the framed wire protocol over Unix-domain or\n\
     loopback TCP sockets. Results are bit-identical on every backend.\n\
     --schedule runs the whole program through the program-level scheduler:\n\
     `seq` keeps strict program order, `dag` dispatches independent clauses\n\
     concurrently as dependence-DAG waves. Results are bit-identical.\n\
     --retune-every <N> re-profiles and re-tunes the --autotune loop every N\n\
     steps instead of tuning once up front.\n\
     \n\
     vcalc serve [--transport uds|tcp] [--pool inproc|uds|tcp]\n\
                 [--concurrency <N>] [--queue <N>] [--deadline-ms <N>]\n\
                 [--cache-entries <N>] [--cache-bytes <N>] [--cold]\n\
     starts the resident multi-session service (DESIGN.md §18): prints the\n\
     dial address, then serves concurrent client sessions off one shared\n\
     plan/DAG cache hierarchy and one persistent worker pool.\n\
     \n\
     vcalc request <program> <spec> --connect <addr> [--tenant <name>]\n\
                 [--steps <N>] [--schedule seq|dag] [--autotune]\n\
                 [--tune-budget <K>] [--retune-every <N>] [--deadline-ms <N>]\n\
     compiles the program locally, submits it to a running service, and\n\
     verifies the response bit-exactly against the sequential reference.\n\
     (vcalc worker <addr> <node> <pmax> [hb_ms] is the internal worker entry.)"
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut positional = Vec::new();
    let mut emits = Vec::new();
    let mut run = false;
    let mut steps = 1u64;
    let mut naive = false;
    let mut advise = false;
    let mut autotune = false;
    let mut tune_budget = 16usize;
    let mut retune_every = None;
    let mut node = 0i64;
    let mut transport = TransportKind::default();
    let mut schedule = None;
    let mut trace = false;
    let mut trace_out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--emit" => {
                let v = it.next().ok_or("--emit needs a value")?;
                emits.push(v.clone());
            }
            "--run" => run = true,
            "--steps" => {
                steps = it
                    .next()
                    .ok_or("--steps needs a value")?
                    .parse()
                    .map_err(|_| "--steps needs a positive integer")?;
                if steps == 0 {
                    return Err("--steps needs a positive integer".into());
                }
                run = true; // a timestep loop is a kind of execution
            }
            "--naive" => naive = true,
            "--advise" => advise = true,
            "--autotune" => {
                autotune = true;
                run = true; // tuning is a property of an execution
            }
            "--tune-budget" => {
                tune_budget = it
                    .next()
                    .ok_or("--tune-budget needs a value")?
                    .parse()
                    .map_err(|_| "--tune-budget needs a positive integer")?;
                if tune_budget == 0 {
                    return Err("--tune-budget needs a positive integer".into());
                }
                autotune = true;
                run = true;
            }
            "--retune-every" => {
                let n: u64 = it
                    .next()
                    .ok_or("--retune-every needs a value")?
                    .parse()
                    .map_err(|_| "--retune-every needs a positive integer")?;
                if n == 0 {
                    return Err("--retune-every needs a positive integer".into());
                }
                retune_every = Some(n);
                autotune = true;
                run = true;
            }
            "--node" => {
                node = it
                    .next()
                    .ok_or("--node needs a value")?
                    .parse()
                    .map_err(|_| "--node needs an integer")?;
            }
            "--transport" => {
                transport = it
                    .next()
                    .and_then(|v| TransportKind::parse(v))
                    .ok_or("--transport needs `inproc`, `uds` or `tcp`")?;
            }
            "--schedule" => {
                schedule = match it.next().map(String::as_str) {
                    Some("seq") => Some(ScheduleMode::Seq),
                    Some("dag") => Some(ScheduleMode::Dag),
                    _ => return Err("--schedule needs `seq` or `dag`".into()),
                };
                run = true; // a scheduled program is a kind of execution
            }
            "--trace" => trace = true,
            "--trace-out" => {
                trace = true;
                trace_out = Some(it.next().ok_or("--trace-out needs a path")?.clone());
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other if !other.starts_with('-') => positional.push(other.to_string()),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    if positional.len() != 2 {
        return Err(usage().to_string());
    }
    if trace {
        run = true; // tracing is a property of an execution
    }
    if emits.is_empty() && !run && !advise {
        emits.push("vcal".into());
        emits.push("plan".into());
    }
    if steps > 1 && naive {
        return Err("--naive is a cold-path flag; the --steps loop always runs optimized".into());
    }
    if schedule.is_some() && naive {
        return Err("--naive is a cold-path flag; --schedule always runs optimized".into());
    }
    if autotune && naive {
        return Err("--naive is a cold-path flag; --autotune always runs optimized".into());
    }
    if transport != TransportKind::InProc && naive {
        return Err(
            "--naive is an in-process flag; socket workers re-plan with the optimizer \
             (drop --transport or --naive)"
                .into(),
        );
    }
    Ok(Options {
        program_path: positional[0].clone(),
        spec_path: positional[1].clone(),
        emits,
        run,
        steps,
        naive,
        advise,
        autotune,
        tune_budget,
        retune_every,
        node,
        transport,
        schedule,
        trace,
        trace_out,
    })
}

/// Why a command ended before its last report line: a failure, told on
/// stderr, or a closed stdout — its reader stopped reading (`vcalc ... |
/// head -1`), which ends the command quietly.
enum Stop {
    Fail(String),
    Closed,
}

impl From<String> for Stop {
    fn from(msg: String) -> Stop {
        Stop::Fail(msg)
    }
}

impl From<&str> for Stop {
    fn from(msg: &str) -> Stop {
        Stop::Fail(msg.to_string())
    }
}

impl From<std::io::Error> for Stop {
    fn from(e: std::io::Error) -> Stop {
        match e.kind() {
            std::io::ErrorKind::BrokenPipe => Stop::Closed,
            _ => Stop::Fail(format!("cannot write the report: {e}")),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // internal: `vcalc worker <addr> <node> <pmax> [hb_ms]` is the entry
    // point the socket backends spawn for each node process
    if args.first().map(String::as_str) == Some("worker") {
        return match worker_args(&args[1..])
            .and_then(|(addr, node, pmax, hb)| worker_entry(&addr, node, pmax, hb))
        {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("vcalc worker: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    // every report goes through this one lock
    let out = &mut std::io::stdout().lock();
    let (prefix, ran) = match args.first().map(String::as_str) {
        Some("serve") => (
            "vcalc serve: ",
            serve_args(&args[1..])
                .map_err(Stop::from)
                .and_then(|cfg| run_serve(cfg, out)),
        ),
        Some("request") => (
            "vcalc request: ",
            (request_args(&args[1..]).map_err(Stop::from)).and_then(|o| run_request_cmd(&o, out)),
        ),
        _ => match parse_args(&args) {
            Ok(opts) => ("vcalc: ", drive(&opts, out)),
            Err(msg) => ("", Err(Stop::Fail(msg))),
        },
    };
    match ran {
        Ok(()) | Err(Stop::Closed) => ExitCode::SUCCESS,
        Err(Stop::Fail(msg)) => {
            eprintln!("{prefix}{msg}");
            ExitCode::FAILURE
        }
    }
}

fn worker_args(rest: &[String]) -> Result<(String, i64, usize, Duration), String> {
    if rest.len() != 3 && rest.len() != 4 {
        return Err("usage: vcalc worker <addr> <node> <pmax> [hb_ms]".into());
    }
    let node = rest[1]
        .parse::<i64>()
        .map_err(|_| "worker <node> must be an integer".to_string())?;
    let pmax = rest[2]
        .parse::<usize>()
        .map_err(|_| "worker <pmax> must be a non-negative integer".to_string())?;
    let hb = match rest.get(3) {
        None => Duration::ZERO, // keep the built-in default interval
        Some(ms) => Duration::from_millis(
            ms.parse::<u64>()
                .map_err(|_| "worker [hb_ms] must be a non-negative integer".to_string())?,
        ),
    };
    Ok((rest[0].clone(), node, pmax, hb))
}

/// Parse `vcalc serve` flags into a [`ServeConfig`].
fn serve_args(rest: &[String]) -> Result<ServeConfig, String> {
    let mut cfg = ServeConfig::default();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--transport" => {
                cfg.listen = it
                    .next()
                    .and_then(|v| TransportKind::parse(v))
                    .filter(|k| *k != TransportKind::InProc)
                    .ok_or("--transport needs `uds` or `tcp`")?;
            }
            "--pool" => {
                cfg.opts.transport = it
                    .next()
                    .and_then(|v| TransportKind::parse(v))
                    .ok_or("--pool needs `inproc`, `uds` or `tcp`")?;
            }
            "--concurrency" => {
                cfg.concurrency = parse_pos(it.next(), "--concurrency")?;
            }
            "--queue" => {
                cfg.queue_depth = it
                    .next()
                    .ok_or("--queue needs a value")?
                    .parse()
                    .map_err(|_| "--queue needs a non-negative integer")?;
            }
            "--deadline-ms" => {
                cfg.default_deadline =
                    Duration::from_millis(parse_pos(it.next(), "--deadline-ms")? as u64);
            }
            "--cache-entries" => {
                cfg.cache_budget.max_entries = parse_pos(it.next(), "--cache-entries")?;
            }
            "--cache-bytes" => {
                cfg.cache_budget.max_bytes = parse_pos(it.next(), "--cache-bytes")?;
            }
            "--cold" => cfg.cold = true,
            other => return Err(format!("unknown serve flag `{other}`\n{}", usage())),
        }
    }
    Ok(cfg)
}

fn parse_pos(v: Option<&String>, flag: &str) -> Result<usize, String> {
    let n: usize = v
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|_| format!("{flag} needs a positive integer"))?;
    if n == 0 {
        return Err(format!("{flag} needs a positive integer"));
    }
    Ok(n)
}

/// Start the resident service and block until killed. The address line
/// is printed (and flushed) first so supervisors can scrape it.
fn run_serve(cfg: ServeConfig, out: &mut dyn Write) -> Result<(), Stop> {
    let handle = ServeHandle::start(cfg).map_err(|e| e.to_string())?;
    writeln!(out, "serve: listening on {}", handle.addr())?;
    writeln!(
        out,
        "serve: concurrency {}, queue {}, deadline {:?}, cache budget {} entries / {} bytes{}",
        cfg.concurrency,
        cfg.queue_depth,
        cfg.default_deadline,
        cfg.cache_budget.max_entries,
        cfg.cache_budget.max_bytes,
        if cfg.cold {
            " [cold baseline mode]"
        } else {
            ""
        }
    )?;
    out.flush()?;
    // resident: the accept loop runs on background threads; park until
    // the process is killed
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

struct RequestOptions {
    program_path: String,
    spec_path: String,
    connect: String,
    tenant: String,
    steps: u64,
    schedule: ScheduleMode,
    autotune: bool,
    tune_budget: usize,
    retune_every: Option<u64>,
    deadline: Option<Duration>,
}

fn request_args(rest: &[String]) -> Result<RequestOptions, String> {
    let mut positional = Vec::new();
    let mut connect = None;
    let mut tenant = "default".to_string();
    let mut steps = 1u64;
    let mut schedule = ScheduleMode::Seq;
    let mut autotune = false;
    let mut tune_budget = 16usize;
    let mut retune_every = None;
    let mut deadline = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--connect" => connect = Some(it.next().ok_or("--connect needs an address")?.clone()),
            "--tenant" => tenant = it.next().ok_or("--tenant needs a name")?.clone(),
            "--steps" => steps = parse_pos(it.next(), "--steps")? as u64,
            "--schedule" => {
                schedule = match it.next().map(String::as_str) {
                    Some("seq") => ScheduleMode::Seq,
                    Some("dag") => ScheduleMode::Dag,
                    _ => return Err("--schedule needs `seq` or `dag`".into()),
                };
            }
            "--autotune" => autotune = true,
            "--tune-budget" => {
                tune_budget = parse_pos(it.next(), "--tune-budget")?;
                autotune = true;
            }
            "--retune-every" => {
                retune_every = Some(parse_pos(it.next(), "--retune-every")? as u64);
                autotune = true;
            }
            "--deadline-ms" => {
                deadline = Some(Duration::from_millis(
                    parse_pos(it.next(), "--deadline-ms")? as u64,
                ));
            }
            other if !other.starts_with('-') => positional.push(other.to_string()),
            other => return Err(format!("unknown request flag `{other}`\n{}", usage())),
        }
    }
    if positional.len() != 2 {
        return Err("usage: vcalc request <program> <spec> --connect <addr> [...]".into());
    }
    Ok(RequestOptions {
        program_path: positional[0].clone(),
        spec_path: positional[1].clone(),
        connect: connect.ok_or("vcalc request needs --connect <addr>")?,
        tenant,
        steps,
        schedule,
        autotune,
        tune_budget,
        retune_every,
        deadline,
    })
}

/// Compile a program locally, submit it to a running service, verify
/// the response bit-exactly against the local sequential reference, and
/// print the service-side counters.
fn run_request_cmd(opts: &RequestOptions, out: &mut dyn Write) -> Result<(), Stop> {
    let program_src = std::fs::read_to_string(&opts.program_path)
        .map_err(|e| format!("cannot read {}: {e}", opts.program_path))?;
    let spec_src = std::fs::read_to_string(&opts.spec_path)
        .map_err(|e| format!("cannot read {}: {e}", opts.spec_path))?;
    let clauses = lang::compile(&program_src).map_err(|e| e.to_string())?;
    let spec = lang::parse_spec(&spec_src).map_err(|e| e.to_string())?;

    // deterministic mixed-sign initial data so guards fire both ways —
    // the same init every other vcalc execution path uses
    let mut globals = BTreeMap::new();
    let mut env = Env::new();
    for (name, dec) in spec.decomps.iter() {
        let b = dec.extent();
        let arr = Array::from_fn(b, |i| {
            let v = i.scalar();
            if v % 3 == 0 {
                -(v as f64)
            } else {
                v as f64 * 0.5
            }
        });
        let lo = b.lo().scalar();
        let hi = b.hi().scalar();
        globals.insert(
            name.clone(),
            (lo..=hi)
                .map(|i| arr.get(&vcal_suite::core::Ix::d1(i)))
                .collect::<Vec<f64>>(),
        );
        env.insert(name.clone(), arr);
    }

    let mut reference = env;
    for _ in 0..opts.steps {
        for clause in &clauses {
            reference.exec_clause(clause);
        }
    }

    let steps: Vec<ProgramStep> = clauses.iter().cloned().map(ProgramStep::Clause).collect();
    let req = ServeRequest {
        steps,
        decomps: spec.decomps.clone(),
        globals,
        n_steps: opts.steps,
        schedule: opts.schedule,
        autotune: opts.autotune,
        tune: TuneOptions {
            budget: opts.tune_budget,
            retune_every: opts.retune_every,
            ..TuneOptions::default()
        },
        deadline: opts.deadline,
    };
    let mut client =
        ServeClient::connect(&opts.connect, &opts.tenant).map_err(|e| e.to_string())?;
    let resp = client.request(&req).map_err(|e| e.to_string())?;

    for (name, got) in &resp.globals {
        let want = reference
            .get(name)
            .ok_or_else(|| format!("reference lost array `{name}`"))?;
        let b = spec.decomps[name].extent();
        let lo = b.lo().scalar();
        for (k, v) in got.iter().enumerate() {
            let w = want.get(&vcal_suite::core::Ix::d1(lo + k as i64));
            if v.to_bits() != w.to_bits() {
                return Err(format!(
                    "VERIFICATION FAILED on `{name}`[{}]: service {v} != reference {w}",
                    lo + k as i64
                )
                .into());
            }
        }
    }
    let s = resp.service;
    writeln!(
        out,
        "request: OK — {} step(s) x {} clause(s) as tenant `{}`; result identical \
         to the sequential reference",
        opts.steps,
        clauses.len(),
        opts.tenant
    )?;
    writeln!(
        out,
        "request: service counters: queue wait {} ns, session #{}, plan cache {}/{} \
         hit/miss, dag cache {}/{}, {} eviction(s)",
        s.queue_wait_ns,
        s.sessions_served,
        s.plan_hits,
        s.plan_misses,
        s.dag_hits,
        s.dag_misses,
        s.evictions
    )?;
    Ok(())
}

fn drive(opts: &Options, out: &mut dyn Write) -> Result<(), Stop> {
    let program_src = std::fs::read_to_string(&opts.program_path)
        .map_err(|e| format!("cannot read {}: {e}", opts.program_path))?;
    let spec_src = std::fs::read_to_string(&opts.spec_path)
        .map_err(|e| format!("cannot read {}: {e}", opts.spec_path))?;

    let clauses = lang::compile(&program_src).map_err(|e| e.to_string())?;
    let spec = lang::parse_spec(&spec_src).map_err(|e| e.to_string())?;

    writeln!(
        out,
        "compiled {} clause(s) for {} processors\n",
        clauses.len(),
        spec.pmax
    )?;

    if opts.advise {
        let mut extents = BTreeMap::new();
        for (name, dec) in &spec.decomps {
            extents.insert(name.clone(), dec.extent());
        }
        let ranked = vcal_suite::spmd::advise(&clauses, &extents, spec.pmax)?;
        writeln!(out, "decomposition advisor (best first):")?;
        for c in ranked.iter().take(5) {
            writeln!(out, "  {}", vcal_suite::spmd::advisor::describe(c))?;
        }
        writeln!(out)?;
    }

    for (n, clause) in clauses.iter().enumerate() {
        writeln!(out, "--- clause {n} ---")?;
        let plan = if opts.naive {
            SpmdPlan::build_naive(clause, &spec.decomps)
        } else {
            SpmdPlan::build(clause, &spec.decomps)
        }
        .map_err(|e| format!("clause {n}: {e}"))?;

        for e in &opts.emits {
            match e.as_str() {
                "vcal" => writeln!(out, "{}\n", lang::to_vcal(clause))?,
                "plan" => writeln!(out, "{}", emit::plan_report(&plan))?,
                "shared" => writeln!(out, "{}", emit::emit_shared_node(&plan, opts.node))?,
                "dist" => writeln!(out, "{}", emit::emit_distributed_node(&plan, opts.node))?,
                "dist-closed" => writeln!(
                    out,
                    "{}",
                    emit::emit_distributed_node_closed(&plan, opts.node)
                )?,
                "derivation" => writeln!(
                    out,
                    "{}",
                    vcal_suite::spmd::derive(clause, &spec.decomps)
                        .map_err(|e| format!("clause {n}: {e}"))?
                )?,
                other => return Err(format!("unknown emit target `{other}`\n{}", usage()).into()),
            }
        }

        if opts.run && opts.steps == 1 && opts.schedule.is_none() && !opts.autotune {
            run_and_verify(clause, &plan, &spec.decomps, opts, out)?;
        }
    }
    if opts.autotune {
        run_autotune(&clauses, &spec.decomps, opts, out)?;
    } else if let Some(mode) = opts.schedule {
        run_program_schedule(&clauses, &spec.decomps, mode, opts, out)?;
    } else if opts.steps > 1 {
        run_timestep_loop(&clauses, &spec.decomps, opts, out)?;
    }
    Ok(())
}

/// Execute the whole program as a `--steps` timestep loop with the
/// decomposition auto-tuner in the loop
/// ([`DistSession::run_program_tuned`]), print what the tuner saw and
/// decided, and verify the final state against the iterated sequential
/// reference — tuning must never change a single bit of the result.
fn run_autotune(
    clauses: &[vcal_suite::core::Clause],
    decomps: &vcal_suite::spmd::DecompMap,
    opts: &Options,
    out: &mut dyn Write,
) -> Result<(), Stop> {
    let mode = opts.schedule.unwrap_or_default();
    let mode_name = match mode {
        ScheduleMode::Seq => "seq",
        ScheduleMode::Dag => "dag",
    };
    writeln!(
        out,
        "--- autotune: {} step(s), schedule {mode_name}, budget {} ---",
        opts.steps, opts.tune_budget
    )?;
    let steps: Vec<ProgramStep> = clauses.iter().cloned().map(ProgramStep::Clause).collect();
    let mut env = Env::new();
    for (name, dec) in decomps.iter() {
        // deterministic mixed-sign initial data so guards fire both ways
        env.insert(
            name.clone(),
            Array::from_fn(dec.extent(), |i| {
                let v = i.scalar();
                if v % 3 == 0 {
                    -(v as f64)
                } else {
                    v as f64 * 0.5
                }
            }),
        );
    }

    let mut reference = env.clone();
    for _ in 0..opts.steps {
        for clause in clauses {
            reference.exec_clause(clause);
        }
    }

    let mut session = DistSession::new(&env, decomps.clone())
        .map_err(|e| e.to_string())?
        .with_options(opts.dist_options());
    let topts = TuneOptions {
        budget: opts.tune_budget,
        retune_every: opts.retune_every,
        ..TuneOptions::default()
    };
    let (report, tune) = session
        .run_program_tuned(&steps, opts.steps, mode, topts, &NULL_TRACER)
        .map_err(|e| e.to_string())?;

    writeln!(
        out,
        "autotune: priced {} candidate(s) over {} round(s), model {}",
        tune.candidates_priced,
        tune.rounds,
        if tune.calibrated {
            "calibrated from measured timings"
        } else {
            "uncalibrated (era-default ratios)"
        }
    )?;
    writeln!(out, "autotune: chosen layout: {}", tune.chosen)?;
    if tune.switched {
        writeln!(
            out,
            "autotune: switched layout mid-loop — {} redistribution(s), \
             predicted switch cost {:.0} ns amortized over the remaining steps",
            tune.redistributions_inserted, tune.switch_cost_ns
        )?;
    } else {
        writeln!(
            out,
            "autotune: kept the incumbent layout (no profitable switch)"
        )?;
    }
    writeln!(
        out,
        "autotune: predicted step {:.0} ns (baseline {:.0} ns, worst candidate {:.0} ns); \
         measured profile step {:.0} ns, model error {:.0}%",
        tune.predicted_step_ns,
        tune.baseline_step_ns,
        tune.worst_step_ns,
        tune.measured_step_ns,
        tune.model_error * 100.0
    )?;

    let got = session.gather_all();
    for name in decomps.keys() {
        let diff = got
            .get(name)
            .ok_or_else(|| format!("array `{name}` lost"))?
            .max_abs_diff(reference.get(name).ok_or("reference missing array")?);
        if diff != 0.0 {
            return Err(format!(
                "VERIFICATION FAILED on `{name}` after {} steps: max |diff| = {diff}",
                opts.steps
            )
            .into());
        }
    }
    writeln!(
        out,
        "run: OK — autotuned {} step(s) x {} clause(s); result identical to the \
         iterated sequential reference\n",
        opts.steps,
        report.steps.len()
    )?;
    Ok(())
}

/// Execute the whole program `--steps` times through the program-level
/// scheduler ([`DistSession::run_program`]) and verify against the
/// iterated sequential reference. Prints the DAG shape and, when
/// tracing, the `replay_check_dag` verdict for the last step.
fn run_program_schedule(
    clauses: &[vcal_suite::core::Clause],
    decomps: &vcal_suite::spmd::DecompMap,
    mode: ScheduleMode,
    opts: &Options,
    out: &mut dyn Write,
) -> Result<(), Stop> {
    let mode_name = match mode {
        ScheduleMode::Seq => "seq",
        ScheduleMode::Dag => "dag",
    };
    writeln!(
        out,
        "--- program schedule: {mode_name}, {} step(s) ---",
        opts.steps
    )?;
    let steps: Vec<ProgramStep> = clauses.iter().cloned().map(ProgramStep::Clause).collect();
    let mut env = Env::new();
    for (name, dec) in decomps.iter() {
        // deterministic mixed-sign initial data so guards fire both ways
        env.insert(
            name.clone(),
            Array::from_fn(dec.extent(), |i| {
                let v = i.scalar();
                if v % 3 == 0 {
                    -(v as f64)
                } else {
                    v as f64 * 0.5
                }
            }),
        );
    }

    let mut reference = env.clone();
    for _ in 0..opts.steps {
        for clause in clauses {
            reference.exec_clause(clause);
        }
    }

    let mut session = DistSession::new(&env, decomps.clone())
        .map_err(|e| e.to_string())?
        .with_options(opts.dist_options());
    let mut last_report = None;
    for step in 0..opts.steps {
        let last = step + 1 == opts.steps;
        let tracer = (opts.trace && last).then(CollectingTracer::new);
        let report = match &tracer {
            Some(t) => session.run_program(&steps, mode, t),
            None => session.run_program(&steps, mode, &NULL_TRACER),
        }
        .map_err(|e| format!("step {step}: {e}"))?;
        if let Some(tracer) = tracer {
            let dag = build_dag(&steps, decomps);
            let log = tracer.finish();
            let summary = replay_check_dag(&log, &dag)
                .map_err(|e| format!("step {step}: DAG replay check FAILED: {e}"))?;
            writeln!(
                out,
                "trace: step {step} DAG replay OK — {} host scheduling events",
                summary.det_events
            )?;
            if let Some(path) = &opts.trace_out {
                std::fs::write(path, log.to_jsonl())
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                writeln!(out, "trace: deterministic event log written to {path}")?;
            }
        }
        last_report = Some(report);
    }

    let got = session.gather_all();
    for name in decomps.keys() {
        let diff = got
            .get(name)
            .ok_or_else(|| format!("array `{name}` lost"))?
            .max_abs_diff(reference.get(name).ok_or("reference missing array")?);
        if diff != 0.0 {
            return Err(format!(
                "VERIFICATION FAILED on `{name}` after {} steps: max |diff| = {diff}",
                opts.steps
            )
            .into());
        }
    }
    let report = last_report.ok_or("no steps executed")?;
    writeln!(
        out,
        "run: OK — schedule {mode_name}: {} clause(s) in {} wave(s), {} dependence edge(s), \
         width {}; result identical to the iterated sequential reference\n",
        report.steps.len(),
        report.waves,
        report.dag_edges,
        report.dag_width
    )?;
    Ok(())
}

/// Execute the whole program `--steps` times through a steady-state
/// [`DistSession`] and verify against the iterated sequential reference.
/// Prints the plan-cache statistics: only the first step should miss.
fn run_timestep_loop(
    clauses: &[vcal_suite::core::Clause],
    decomps: &vcal_suite::spmd::DecompMap,
    opts: &Options,
    out: &mut dyn Write,
) -> Result<(), Stop> {
    writeln!(out, "--- timestep loop: {} steps ---", opts.steps)?;
    let mut env = Env::new();
    for (name, dec) in decomps.iter() {
        // deterministic mixed-sign initial data so guards fire both ways
        env.insert(
            name.clone(),
            Array::from_fn(dec.extent(), |i| {
                let v = i.scalar();
                if v % 3 == 0 {
                    -(v as f64)
                } else {
                    v as f64 * 0.5
                }
            }),
        );
    }

    let mut reference = env.clone();
    for _ in 0..opts.steps {
        for clause in clauses {
            reference.exec_clause(clause);
        }
    }

    let mut session = DistSession::new(&env, decomps.clone())
        .map_err(|e| e.to_string())?
        .with_options(opts.dist_options());
    let (mut hits, mut misses, mut renamed, mut settled) = (0u64, 0u64, 0u64, 0u64);
    for step in 0..opts.steps {
        let last = step + 1 == opts.steps;
        for (n, clause) in clauses.iter().enumerate() {
            let tracer = (opts.trace && last).then(CollectingTracer::new);
            let report = match &tracer {
                Some(t) => session.run_traced(clause, t),
                None => session.run(clause),
            }
            .map_err(|e| format!("step {step}, clause {n}: {e}"))?;
            hits += report.cache_hits;
            misses += report.cache_misses;
            renamed += u64::from(report.renamed);
            settled += report.settled;
            if tracer.is_some() && report.settled > 0 {
                // the settle's run is counted in the report, not logged
                writeln!(
                    out,
                    "trace: step {step} clause {n} first settled {} renamed copy(s); \
                     the log holds the clause's run only",
                    report.settled
                )?;
            }
            if tracer.is_some() && report.renamed {
                // no node ran: there is no node log to replay
                writeln!(
                    out,
                    "trace: step {step} clause {n} renamed — a copy on one layout, \
                     no node ran, nothing to replay"
                )?;
            } else if let Some(tracer) = tracer {
                let plan = session.plan(clause).map_err(|e| e.to_string())?;
                let log = tracer.finish();
                let summary = replay_check(&log, &plan, opts.dist_options().retry)
                    .map_err(|e| format!("clause {n}: warm replay check FAILED: {e}"))?;
                writeln!(
                    out,
                    "trace: step {step} clause {n} replay OK — {} deterministic events, \
                     {} elems sent / {} received",
                    summary.det_events, summary.send_elems, summary.recv_elems
                )?;
                if let Some(path) = &opts.trace_out {
                    std::fs::write(path, log.to_jsonl())
                        .map_err(|e| format!("cannot write {path}: {e}"))?;
                    writeln!(out, "trace: deterministic event log written to {path}")?;
                }
            }
        }
    }

    let got = session.gather_all();
    for name in decomps.keys() {
        let diff = got
            .get(name)
            .ok_or_else(|| format!("array `{name}` lost"))?
            .max_abs_diff(reference.get(name).ok_or("reference missing array")?);
        if diff != 0.0 {
            return Err(format!(
                "VERIFICATION FAILED on `{name}` after {} steps: max |diff| = {diff}",
                opts.steps
            )
            .into());
        }
    }
    writeln!(
        out,
        "run: OK — {} steps x {} clause(s); plan cache: {} hits / {} misses \
         (steady state after the first step); renamed copies: {}; settled: {}; \
         result identical to the iterated sequential reference\n",
        opts.steps,
        clauses.len(),
        hits,
        misses,
        renamed,
        settled
    )?;
    Ok(())
}

/// Execute on the distributed machine with deterministic ramp-initialized
/// arrays and verify against the sequential reference.
fn run_and_verify(
    clause: &vcal_suite::core::Clause,
    plan: &SpmdPlan,
    decomps: &vcal_suite::spmd::DecompMap,
    opts: &Options,
    out: &mut dyn Write,
) -> Result<(), Stop> {
    let mut env = Env::new();
    let mut names: Vec<&str> = vec![clause.lhs.array.as_str()];
    for r in clause.read_refs() {
        if !names.contains(&r.array.as_str()) {
            names.push(&r.array);
        }
    }
    for name in &names {
        let dec = decomps
            .get(*name)
            .ok_or_else(|| format!("array `{name}` missing from the spec"))?;
        // deterministic mixed-sign initial data so guards fire both ways
        env.insert(
            name.to_string(),
            Array::from_fn(dec.extent(), |i| {
                let v = i.scalar();
                if v % 3 == 0 {
                    -(v as f64)
                } else {
                    v as f64 * 0.5
                }
            }),
        );
    }

    let mut reference = env.clone();
    reference.exec_clause(clause);

    let mut arrays: BTreeMap<String, DistArray> = BTreeMap::new();
    for name in &names {
        arrays.insert(
            name.to_string(),
            DistArray::scatter_from(env.get(name).unwrap(), decomps[*name].clone()),
        );
    }
    let dist_opts = opts.dist_options();
    let tracer = opts.trace.then(CollectingTracer::new);
    let report = match &tracer {
        Some(t) => run_distributed_traced(plan, clause, &mut arrays, dist_opts, t),
        None => run_distributed(plan, clause, &mut arrays, dist_opts),
    }
    .map_err(|e| e.to_string())?;
    let diff = arrays[&clause.lhs.array]
        .gather()
        .max_abs_diff(reference.get(&clause.lhs.array).unwrap());
    if diff != 0.0 {
        return Err(format!("VERIFICATION FAILED: max |diff| = {diff}").into());
    }
    let t = report.total();
    writeln!(
        out,
        "run: OK — {} iterations over {} nodes, {} messages, {} local reads; \
         result identical to the sequential reference\n",
        t.iterations,
        report.nodes.len(),
        t.msgs_sent,
        t.local_reads
    )?;
    if let Some(tracer) = tracer {
        report_trace(&tracer, plan, clause, decomps, &report, opts, out)?;
    }
    Ok(())
}

/// Print the trace digest: dispatch counts, the interior/boundary run
/// census of the compiled kernel path, replay verdict, measured
/// per-phase timings next to the cost model's prediction.
fn report_trace(
    tracer: &CollectingTracer,
    plan: &SpmdPlan,
    clause: &vcal_suite::core::Clause,
    decomps: &vcal_suite::spmd::DecompMap,
    report: &vcal_suite::machine::ExecReport,
    opts: &Options,
    out: &mut dyn Write,
) -> Result<(), Stop> {
    let dist_opts = opts.dist_options();
    let log = tracer.finish();
    let summary = replay_check(&log, plan, dist_opts.retry)
        .map_err(|e| format!("replay check FAILED: {e}"))?;
    writeln!(
        out,
        "trace: replay OK — {} deterministic events, {} elems sent / {} received, \
         {} retransmits",
        summary.det_events, summary.send_elems, summary.recv_elems, summary.retransmits
    )?;
    let dispatch = PlanSummary::of(plan);
    write!(out, "trace: enumeration dispatch:")?;
    for (kind, n) in dispatch.dispatch_counts() {
        write!(out, " {kind}×{n}")?;
    }
    writeln!(
        out,
        "{}",
        if dispatch.is_fully_closed_form() {
            " (all closed-form)"
        } else {
            " (CONTAINS NAIVE FALLBACK)"
        }
    )?;
    let compiled = vcal_suite::spmd::CompiledSchedule::compile_exec(plan, clause, decomps);
    let census = compiled.overlap_census();
    writeln!(
        out,
        "trace: kernel runs: {} interior ({} elems) / {} boundary \
         ({} elems, {} remote reads)",
        census.interior_runs,
        census.interior_elems,
        census.boundary_runs,
        census.boundary_elems,
        census.remote_elems
    )?;
    let recvs = plan.nodes.iter().flat_map(|n| &n.comm.recvs);
    writeln!(
        out,
        "trace: comm runs: {} planned runs in {} packets ({} elems)",
        recvs.map(|pc| pc.runs.len()).sum::<usize>(),
        dispatch.send_packets,
        dispatch.send_elems
    )?;
    let slots = |count: fn(&NodeCommPlan) -> u64| -> u64 {
        plan.nodes.iter().map(|n| count(&n.comm)).sum()
    };
    writeln!(
        out,
        "trace: comm sets: {} period-walked, {} element-walked slots",
        slots(|c| c.period_walked_slots),
        slots(|c| c.enumerated_slots)
    )?;
    let planned = compiled.fused_census();
    let ran = report.simd_census();
    writeln!(
        out,
        "trace: simd census: {} lanes, {} vector runs ({} lane elems, \
         {} tail elems) / {} fallback runs [plan]; {} vector / {} fallback [ran]",
        planned.lanes,
        planned.vector_runs,
        planned.lane_elems,
        planned.tail_elems,
        planned.fallback_runs,
        ran.vector_runs,
        ran.fallback_runs
    )?;
    let predicted = price_report(&CostModel::ERA, report);
    writeln!(
        out,
        "trace: perfmodel predicts {:.1} time units (bottleneck node {})",
        predicted.total, predicted.bottleneck
    )?;
    for (phase, total) in log.phase_totals() {
        let max = log.phase_bottlenecks()[&phase];
        writeln!(
            out,
            "trace:   phase {:<12} total {:>10.3?}  bottleneck {:>10.3?}",
            phase.name(),
            total,
            max
        )?;
    }
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, log.to_jsonl()).map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(out, "trace: deterministic event log written to {path}")?;
    }
    writeln!(out)?;
    Ok(())
}
