//! A copy is a rename (DESIGN.md §19): on a [`DistSession`], a copy
//! `U[i] := V[i]` between arrays of one layout trades the two arrays'
//! parts instead of running, and `V` owes `U`'s values on the copy's
//! write spans until a clause overwrites them (the debt is paid) or
//! something observes them (the debt settles: the owed copy runs).
//!
//! Every case is bitwise equal to the sequential reference
//! (`Env::exec_clause`, step by step): reads of the source, writes of
//! the target, partial and guarded overwrites, an exact-cover payment, a
//! crashed wave that would have paid, every gather in the middle of a
//! debt, redistribution of either array, the direct `run_plan` path, the
//! tuner, `Seq` and `Dag` programs, and a seeded sweep of copy-heavy
//! programs. Whether a debt settled is read from the report of the clause
//! that caused it (`ExecReport::settled`), whose trace log still replays
//! as its own run alone.
//!
//! Every session takes its backend from `VCAL_TRANSPORT`
//! (`inproc|uds|tcp`, unset means in-process): the rename is host-side,
//! so it must hold on every link.

use std::time::Duration;
use vcal_suite::core::{Array, Bounds, Clause, Env};
use vcal_suite::decomp::Decomp1;
use vcal_suite::lang;
use vcal_suite::machine::{
    replay_check, CollectingTracer, DistOptions, DistSession, ExecReport, FaultPlan, MachineError,
    ProgramStep, RetryPolicy, ScheduleMode, TransportKind, TuneOptions, HOST, NULL_TRACER,
};
use vcal_suite::spmd::{DecompMap, SpmdPlan};

const N: i64 = 96;
const PMAX: i64 = 4;
const NAMES: [&str; 4] = ["U", "V", "W", "X"];

fn transport() -> TransportKind {
    static WORKER_BIN: std::sync::Once = std::sync::Once::new();
    let kind = match std::env::var("VCAL_TRANSPORT").as_deref() {
        Ok("uds") => TransportKind::Uds,
        Ok("tcp") => TransportKind::Tcp,
        _ => return TransportKind::InProc,
    };
    WORKER_BIN.call_once(|| std::env::set_var("VCAL_WORKER_BIN", env!("CARGO_BIN_EXE_vcalc")));
    kind
}

fn opts(faults: Option<FaultPlan>) -> DistOptions {
    DistOptions {
        recv_timeout: Duration::from_secs(10),
        faults,
        retry: if faults.is_some() {
            RetryPolicy::fast()
        } else {
            RetryPolicy::default()
        },
        transport: transport(),
        ..DistOptions::default()
    }
}

fn ext() -> Bounds {
    Bounds::range(0, N - 1)
}

/// Every array Block, unless `layouts` says otherwise.
fn decomps(layouts: &[(&str, Decomp1)]) -> DecompMap {
    let mut dm: DecompMap = (NAMES.iter())
        .map(|n| (n.to_string(), Decomp1::block(PMAX, ext())))
        .collect();
    for (name, dec) in layouts {
        dm.insert(name.to_string(), dec.clone());
    }
    dm
}

/// Distinct mixed-sign values per array, so a value in the wrong array
/// or at the wrong index shows.
fn env0() -> Env {
    let mut env = Env::new();
    for (k, name) in NAMES.iter().enumerate() {
        let salt = k as i64 * 1000 + 7;
        env.insert(
            *name,
            Array::from_fn(ext(), |i| {
                let v = i.scalar() * 3 + salt;
                if v % 5 == 0 {
                    -(v as f64) * 0.25
                } else {
                    v as f64 * 0.5
                }
            }),
        );
    }
    env
}

fn clause(src: &str) -> Clause {
    lang::compile(src).unwrap().remove(0)
}

/// `U[i] := V[i]` over `[1, N-2]`: every node writes at least half its
/// part, so it renames on any non-replicated layout of `N` over `PMAX`.
fn copy(to: &str, from: &str) -> Clause {
    clause(&format!(
        "for i := 1 to {} do {to}[i] := {from}[i]; od;",
        N - 2
    ))
}

fn jacobi(to: &str, from: &str) -> Clause {
    clause(&format!(
        "for i := 1 to {} do {to}[i] := 0.5*({from}[i-1]+{from}[i+1]); od;",
        N - 2
    ))
}

fn session(dm: &DecompMap) -> DistSession {
    DistSession::new(&env0(), dm.clone())
        .unwrap()
        .with_options(opts(None))
}

fn bits(a: &Array) -> Vec<u64> {
    a.data().iter().map(|v| v.to_bits()).collect()
}

/// Every array of the session bitwise equal to the reference.
fn assert_state(s: &DistSession, reference: &Env, what: &str) {
    let got = s.gather_all();
    for name in NAMES {
        let want = bits(reference.get(name).unwrap());
        assert_eq!(
            bits(got.get(name).unwrap()),
            want,
            "{what}: `{name}` (gather_all)"
        );
        assert_eq!(
            bits(&s.gather(name).unwrap()),
            want,
            "{what}: `{name}` (gather)"
        );
    }
}

/// Run `c` on both sides, traced on the session; whether the run settled
/// a debt first. The log holds the clause's own run alone: a run replays
/// against its plan, a rename has no node events.
fn step(s: &mut DistSession, reference: &mut Env, c: &Clause) -> (ExecReport, bool) {
    let t = CollectingTracer::new();
    let report = s.run_traced(c, &t).unwrap();
    reference.exec_clause(c);
    let log = t.finish();
    if report.renamed {
        assert!(
            log.events.iter().all(|e| e.node == HOST),
            "a rename logged node events"
        );
    } else {
        let plan = s.plan(c).unwrap();
        replay_check(&log, &plan, opts(None).retry).expect("the log replays its one run");
    }
    let settled = report.settled > 0;
    (report, settled)
}

fn renamed_copy(s: &mut DistSession, reference: &mut Env, to: &str, from: &str) {
    let (report, settled) = step(s, reference, &copy(to, from));
    assert!(report.renamed, "{to} := {from} did not rename");
    assert!(!settled, "{to} := {from} settled a debt");
    assert_eq!(report.total().iterations, 0);
    assert_eq!(report.nodes.len(), PMAX as usize);
    assert!(report.traffic.iter().flatten().all(|&e| e == 0));
}

#[test]
fn a_read_of_the_source_settles_the_copy() {
    let dm = decomps(&[]);
    let (mut s, mut reference) = (session(&dm), env0());
    renamed_copy(&mut s, &mut reference, "U", "V");
    let read = clause(&format!(
        "for i := 0 to {} do W[i] := V[i] * 2.0; od;",
        N - 1
    ));
    let (report, settled) = step(&mut s, &mut reference, &read);
    assert!(settled && !report.renamed);
    // the settle's nodes ran the owed copy too: its counters are the read's
    assert_eq!(report.settled, 1);
    assert_eq!(report.total().iterations, (N + N - 2) as u64);
    assert_state(&s, &reference, "copy, then read the source");
}

#[test]
fn a_write_of_the_target_settles_the_copy() {
    let dm = decomps(&[]);
    let (mut s, mut reference) = (session(&dm), env0());
    renamed_copy(&mut s, &mut reference, "U", "V");
    let bump = clause(&format!(
        "for i := 0 to {} do U[i] := U[i] + 1.0; od;",
        N - 1
    ));
    let (_, settled) = step(&mut s, &mut reference, &bump);
    assert!(settled, "a write of the creditor must settle");
    assert_state(&s, &reference, "copy, then write the target");
}

#[test]
fn reading_the_target_leaves_the_debt() {
    let dm = decomps(&[]);
    let (mut s, mut reference) = (session(&dm), env0());
    renamed_copy(&mut s, &mut reference, "U", "V");
    let (_, settled) = step(&mut s, &mut reference, &jacobi("W", "U"));
    assert!(!settled, "a read of the creditor must not settle");
    assert_state(&s, &reference, "copy, then read the target");
}

#[test]
fn partial_and_guarded_overwrites_settle() {
    let dm = decomps(&[]);
    let overwrites = [
        // misses one owed element at either end
        clause(&format!(
            "for i := 2 to {} do V[i] := W[i] - 1.0; od;",
            N - 2
        )),
        clause(&format!(
            "for i := 1 to {} do V[i] := W[i] + 1.0; od;",
            N - 3
        )),
        clause("for i := 10 to 40 do V[i] := 3.0; od;"),
        // covers every owed element, but only where the guard holds
        clause(&format!(
            "for i := 0 to {} do if W[i] > 0 then V[i] := W[i]; fi; od;",
            N - 1
        )),
        // covers them, but reads the debtor
        clause(&format!(
            "for i := 0 to {} do V[i] := V[i] + W[i]; od;",
            N - 1
        )),
    ];
    for (k, over) in overwrites.iter().enumerate() {
        let (mut s, mut reference) = (session(&dm), env0());
        renamed_copy(&mut s, &mut reference, "U", "V");
        let (_, settled) = step(&mut s, &mut reference, over);
        assert_state(&s, &reference, &format!("overwrite {k}"));
        assert!(settled, "overwrite {k} must settle, not pay");
    }
}

#[test]
fn an_exact_cover_pays_the_debt() {
    let dm = decomps(&[]);
    let payers = [
        jacobi("V", "U"),
        clause(&format!(
            "for i := 0 to {} do V[i] := W[i] - U[i]; od;",
            N - 1
        )),
    ];
    for (k, payer) in payers.iter().enumerate() {
        let (mut s, mut reference) = (session(&dm), env0());
        renamed_copy(&mut s, &mut reference, "U", "V");
        let (_, settled) = step(&mut s, &mut reference, payer);
        assert!(!settled, "payer {k} settled instead of paying");
        assert_state(&s, &reference, &format!("payer {k}"));
        // paid: a read of the former debtor has nothing to settle
        let read = clause(&format!("for i := 0 to {} do X[i] := V[i]; od;", N - 1));
        let (_, settled) = step(&mut s, &mut reference, &read);
        assert!(!settled, "payer {k} left the debt owed");
        assert_state(&s, &reference, &format!("payer {k}, then a read"));
    }
}

#[test]
fn a_crashed_wave_keeps_the_debt() {
    let dm = decomps(&[]);
    let (mut s, mut reference) = (session(&dm), env0());
    renamed_copy(&mut s, &mut reference, "U", "V");
    let payer = jacobi("V", "U");
    s.set_options(opts(Some(FaultPlan::seeded(7).with_crash(1, 1))));
    match s.run(&payer) {
        Err(MachineError::NodePanicked { node: 1 }) => {}
        other => panic!("expected node 1 to panic, got {other:?}"),
    }
    s.set_options(opts(None));
    assert_state(&s, &reference, "after the crashed payer");
    let (_, settled) = step(&mut s, &mut reference, &payer);
    assert!(!settled);
    assert_state(&s, &reference, "after the payer ran");
}

#[test]
fn every_gather_patches_the_debt() {
    for dec in [
        Decomp1::block(PMAX, ext()),
        Decomp1::scatter(PMAX, ext()),
        Decomp1::block_scatter(3, PMAX, ext()),
    ] {
        let dm = decomps(&[("U", dec.clone()), ("V", dec.clone())]);
        let (mut s, mut reference) = (session(&dm), env0());
        renamed_copy(&mut s, &mut reference, "U", "V");
        assert_state(&s, &reference, &format!("mid-debt on {dec:?}"));
        renamed_copy(&mut s, &mut reference, "X", "W");
        assert_state(&s, &reference, &format!("two debts on {dec:?}"));
    }
}

#[test]
fn redistributing_either_array_settles() {
    for moved in ["V", "U"] {
        let dm = decomps(&[]);
        let (mut s, mut reference) = (session(&dm), env0());
        renamed_copy(&mut s, &mut reference, "U", "V");
        let report = (s.redistribute(moved, Decomp1::scatter(PMAX, ext()))).unwrap();
        assert_eq!(report.settled, 1, "redistributing `{moved}` settled first");
        assert_state(&s, &reference, &format!("redistributed `{moved}`"));
        // the layouts differ now: the copy runs
        let (report, _) = step(&mut s, &mut reference, &copy("U", "V"));
        assert!(!report.renamed);
        s.redistribute(moved, Decomp1::block(PMAX, ext())).unwrap();
        renamed_copy(&mut s, &mut reference, "U", "V");
        step(&mut s, &mut reference, &jacobi("V", "U"));
        assert_state(&s, &reference, &format!("`{moved}` back on Block"));
    }
}

#[test]
fn run_plan_settles() {
    let dm = decomps(&[]);
    let (mut s, mut reference) = (session(&dm), env0());
    renamed_copy(&mut s, &mut reference, "U", "V");
    let payer = jacobi("V", "U");
    let plan = SpmdPlan::build(&payer, &dm).unwrap();
    let report = s.run_plan(&plan, &payer).unwrap();
    assert_eq!(report.settled, 1, "run_plan settles, never pays");
    reference.exec_clause(&payer);
    assert_state(&s, &reference, "run_plan of a would-be payer");
}

/// `Seq` and `Dag` programs of the Jacobi pair rename every copy and
/// pay every debt; a tuned loop of it ends equal too.
#[test]
fn programs_rename_the_copy_back() {
    let dm = decomps(&[]);
    let steps: Vec<ProgramStep> = [jacobi("V", "U"), copy("U", "V")]
        .into_iter()
        .map(ProgramStep::Clause)
        .collect();
    for mode in [ScheduleMode::Seq, ScheduleMode::Dag] {
        let (mut s, mut reference) = (session(&dm), env0());
        for k in 0..5 {
            let report = s.run_program(&steps, mode, &NULL_TRACER).unwrap();
            let renamed: Vec<bool> = report.steps.iter().map(|r| r.renamed).collect();
            assert_eq!(renamed, [false, true], "{mode:?} step {k}");
            for st in &steps {
                if let ProgramStep::Clause(c) = st {
                    reference.exec_clause(c);
                }
            }
            assert_state(&s, &reference, &format!("{mode:?} step {k}"));
        }
    }
    let (mut s, mut reference) = (session(&dm), env0());
    let topts = TuneOptions {
        budget: 4,
        ..TuneOptions::default()
    };
    s.run_program_tuned(&steps, 6, ScheduleMode::Seq, topts, &NULL_TRACER)
        .unwrap();
    for _ in 0..6 {
        reference.exec_clause(&jacobi("V", "U"));
        reference.exec_clause(&copy("U", "V"));
    }
    assert_state(&s, &reference, "tuned loop");
}

/// A copy renames in a DAG wave only if no other member of the wave
/// touches its arrays; renames take effect after the wave commits.
#[test]
fn dag_waves_rename_only_apart() {
    let dm = decomps(&[]);
    let read_v = clause(&format!(
        "for i := 0 to {} do W[i] := V[i] + 1.0; od;",
        N - 1
    ));
    let programs: [(Vec<Clause>, Vec<bool>); 3] = [
        // another member reads the copy's source
        (vec![copy("U", "V"), read_v], vec![false, false]),
        // two copies of one source
        (vec![copy("U", "V"), copy("X", "V")], vec![false, false]),
        // two copies apart
        (vec![copy("U", "V"), copy("X", "W")], vec![true, true]),
    ];
    for (k, (clauses, want)) in programs.into_iter().enumerate() {
        let steps: Vec<ProgramStep> = clauses.iter().cloned().map(ProgramStep::Clause).collect();
        let (mut s, mut reference) = (session(&dm), env0());
        for round in 0..2 {
            let report = s
                .run_program(&steps, ScheduleMode::Dag, &NULL_TRACER)
                .unwrap();
            assert_eq!(report.waves, 1, "program {k}: one wave");
            for c in &clauses {
                reference.exec_clause(c);
            }
            assert_state(&s, &reference, &format!("program {k} round {round}"));
            let renamed: Vec<bool> = report.steps.iter().map(|r| r.renamed).collect();
            assert_eq!(renamed, want, "program {k} round {round}");
        }
    }
}

/// A small deterministic generator (SplitMix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One random step of a copy-heavy program: mostly copies, the rest
/// stencils, scalings, partial and guarded writes, and now and then a
/// redistribution.
fn random_step(rng: &mut Rng) -> ProgramStep {
    let k = rng.below(NAMES.len());
    let (to, from) = (
        NAMES[k],
        NAMES[(k + 1 + rng.below(NAMES.len() - 1)) % NAMES.len()],
    );
    let hi = N - 1;
    let text = match rng.below(10) {
        0..=3 => return ProgramStep::Clause(copy(to, from)),
        4 => format!("for i := 0 to {hi} do {to}[i] := {from}[i]; od;"),
        5 => format!(
            "for i := 1 to {} do {to}[i] := 0.5*({from}[i-1]+{from}[i+1]); od;",
            N - 2
        ),
        6 => format!("for i := 0 to {hi} do {to}[i] := {to}[i] * 0.5 + {from}[i]; od;"),
        7 => format!("for i := 20 to 60 do {to}[i] := {from}[i] + 2.0; od;"),
        8 => format!("for i := 0 to {hi} do if {from}[i] > 0 then {to}[i] := {from}[i]; fi; od;"),
        _ => {
            let to_dec = match rng.below(3) {
                0 => Decomp1::block(PMAX, ext()),
                1 => Decomp1::scatter(PMAX, ext()),
                _ => Decomp1::block_scatter(3, PMAX, ext()),
            };
            return ProgramStep::Redistribute {
                array: to.to_string(),
                to: to_dec,
            };
        }
    };
    ProgramStep::Clause(clause(&text))
}

/// Drive `steps` one at a time: clauses through `run` (every third
/// clause through `run_plan` when `planned`), redistributions through
/// `redistribute`, every array compared after every step. Returns each
/// step's report.
fn walk(
    s: &mut DistSession,
    reference: &mut Env,
    steps: &[ProgramStep],
    planned: bool,
    what: &str,
) -> Vec<ExecReport> {
    let mut clauses = 0;
    (steps.iter().enumerate())
        .map(|(k, st)| {
            let report = match st {
                ProgramStep::Clause(c) => {
                    clauses += 1;
                    let report = if planned && clauses % 3 == 0 {
                        let plan = s.plan(c).unwrap();
                        s.run_plan(&plan, c).unwrap()
                    } else {
                        s.run(c).unwrap()
                    };
                    reference.exec_clause(c);
                    report
                }
                ProgramStep::Redistribute { array, to } => {
                    s.redistribute(array, to.clone()).unwrap()
                }
            };
            assert_state(s, reference, &format!("{what} step {k}"));
            report
        })
        .collect()
}

/// Seeded copy-heavy programs under `Seq` and `Dag`, every array
/// compared (gathered mid-debt) after every run of the program; the same
/// steps driven one at a time, compared after every step, rename and
/// settle exactly where the `Seq` program does.
#[test]
fn random_copy_heavy_programs_match_the_reference() {
    let mut rng = Rng(0x48_c0de);
    let mut renamed = 0;
    for case in 0..12 {
        let layouts: Vec<(&str, Decomp1)> = (NAMES.iter())
            .filter(|_| rng.below(4) == 0)
            .map(|n| (*n, Decomp1::block_scatter(3, PMAX, ext())))
            .collect();
        let dm = decomps(&layouts);
        let steps: Vec<ProgramStep> = (0..8).map(|_| random_step(&mut rng)).collect();
        let mut seq_reports = Vec::new();
        for mode in [ScheduleMode::Seq, ScheduleMode::Dag] {
            let (mut s, mut reference) = (session(&dm), env0());
            for round in 0..2 {
                let report = s.run_program(&steps, mode, &NULL_TRACER).unwrap();
                renamed += report.steps.iter().filter(|r| r.renamed).count();
                if mode == ScheduleMode::Seq {
                    seq_reports.push(report.steps);
                }
                for st in &steps {
                    if let ProgramStep::Clause(c) = st {
                        reference.exec_clause(c);
                    }
                }
                assert_state(
                    &s,
                    &reference,
                    &format!("case {case} {mode:?} round {round}"),
                );
            }
        }
        let fate = |r: &ExecReport| (r.renamed, r.settled);
        for planned in [false, true] {
            let (mut s, mut reference) = (session(&dm), env0());
            for (round, seq) in seq_reports.iter().enumerate() {
                let what = format!("case {case} walk (planned {planned}) round {round}");
                let reports = walk(&mut s, &mut reference, &steps, planned, &what);
                if !planned {
                    let got: Vec<_> = reports.iter().map(fate).collect();
                    let want: Vec<_> = seq.iter().map(fate).collect();
                    assert_eq!(got, want, "{what}: renamed, settled per step");
                }
            }
        }
    }
    assert!(renamed > 0, "the sweep renamed no copy");
}
