//! End-to-end tests of the `vcalc` compiler driver binary.

use std::process::Command;

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("vcalc-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path
}

fn vcalc(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_vcalc"))
        .args(args)
        .output()
        .expect("vcalc binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

const PROGRAM: &str = "for i := 1 to 62 do if A[i] > 0 then A[i] := B[i+1] * 0.5; fi; od;";
const SPEC: &str = "processors 4;\narray A[0 to 63] block;\narray B[0 to 63] scatter;\n";

#[test]
fn compile_and_report() {
    let p = write_temp("prog1.vc", PROGRAM);
    let s = write_temp("spec1.dspec", SPEC);
    let (ok, stdout, stderr) = vcalc(&[p.to_str().unwrap(), s.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    assert!(
        stdout.contains("\u{2206}(i \u{2208} (1:62 | [i]A>0))"),
        "{stdout}"
    );
    assert!(stdout.contains("SPMD plan: 4 nodes"), "{stdout}");
    assert!(stdout.contains("block-affine-range"), "{stdout}");
}

#[test]
fn run_verifies_against_reference() {
    let p = write_temp("prog2.vc", PROGRAM);
    let s = write_temp("spec2.dspec", SPEC);
    let (ok, stdout, stderr) = vcalc(&[p.to_str().unwrap(), s.to_str().unwrap(), "--run"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("run: OK"), "{stdout}");
    assert!(
        stdout.contains("identical to the sequential reference"),
        "{stdout}"
    );
}

#[test]
fn naive_and_closed_plans_report_different_schedules() {
    let p = write_temp("prog3.vc", PROGRAM);
    let s = write_temp("spec3.dspec", SPEC);
    let (_, optimized, _) = vcalc(&[p.to_str().unwrap(), s.to_str().unwrap(), "--emit", "plan"]);
    let (_, naive, _) = vcalc(&[
        p.to_str().unwrap(),
        s.to_str().unwrap(),
        "--emit",
        "plan",
        "--naive",
    ]);
    assert!(optimized.contains("block-affine-range"), "{optimized}");
    assert!(naive.contains("naive-guard"), "{naive}");
    // a naive plan runs through the same run tables as a closed-form one
    let (ok, traced, stderr) = vcalc(&[
        p.to_str().unwrap(),
        s.to_str().unwrap(),
        "--naive",
        "--run",
        "--trace",
    ]);
    assert!(ok, "--naive --run --trace: {stderr}");
    assert!(traced.contains("CONTAINS NAIVE FALLBACK"), "{traced}");
    assert!(traced.contains("trace: kernel runs: "), "{traced}");
    assert!(!traced.contains("kernel runs: 0 interior"), "{traced}");
    assert!(traced.contains("run: OK"), "{traced}");
}

#[test]
fn emit_distributed_templates() {
    let p = write_temp("prog4.vc", PROGRAM);
    let s = write_temp("spec4.dspec", SPEC);
    let (ok, stdout, _) = vcalc(&[
        p.to_str().unwrap(),
        s.to_str().unwrap(),
        "--emit",
        "dist-closed",
        "--node",
        "1",
    ]);
    assert!(ok);
    assert!(stdout.contains("closed-form send set"), "{stdout}");
    assert!(stdout.contains("send("), "{stdout}");
}

#[test]
fn derivation_emits_equation_chain() {
    let p = write_temp("prog7.vc", PROGRAM);
    let s = write_temp("spec8.dspec", SPEC);
    let (ok, stdout, stderr) = vcalc(&[
        p.to_str().unwrap(),
        s.to_str().unwrap(),
        "--emit",
        "derivation",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("Eq.(1)"), "{stdout}");
    assert!(stdout.contains("Eq.(2)"), "{stdout}");
    assert!(stdout.contains("Eq.(3)"), "{stdout}");
    assert!(stdout.contains("contraction, Def. 5"), "{stdout}");
    assert!(stdout.contains("renaming + interchange"), "{stdout}");
}

#[test]
fn advisor_ranks_layouts() {
    let p = write_temp(
        "prog8.vc",
        "for i := 1 to 62 do V[i] := U[i-1] + U[i+1]; od;",
    );
    let s = write_temp(
        "spec9.dspec",
        "processors 4;\narray U[0 to 63] scatter;\narray V[0 to 63] scatter;\n",
    );
    let (ok, stdout, stderr) = vcalc(&[p.to_str().unwrap(), s.to_str().unwrap(), "--advise"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("decomposition advisor"), "{stdout}");
    // for a stencil the top-ranked assignment must be Block/Block,
    // regardless of the (scatter) spec supplied
    let first = stdout
        .lines()
        .skip_while(|l| !l.contains("advisor"))
        .nth(1)
        .unwrap_or("");
    assert!(
        first.contains("U: Block"),
        "top candidate: {first}\n{stdout}"
    );
    assert!(
        first.contains("V: Block"),
        "top candidate: {first}\n{stdout}"
    );
}

#[test]
fn simd_flag_runs_and_rejects_bad_values() {
    let p = write_temp("prog9.vc", PROGRAM);
    let s = write_temp("spec10.dspec", SPEC);
    for simd in ["auto", "on", "off"] {
        let (ok, stdout, stderr) = vcalc(&[
            p.to_str().unwrap(),
            s.to_str().unwrap(),
            "--run",
            "--simd",
            simd,
        ]);
        assert!(ok, "--simd {simd}: {stderr}");
        assert!(stdout.contains("run: OK"), "--simd {simd}: {stdout}");
    }
    let (ok, _, stderr) = vcalc(&[p.to_str().unwrap(), s.to_str().unwrap(), "--simd", "fast"]);
    assert!(!ok);
    assert!(stderr.contains("`auto`, `on` or `off`"), "{stderr}");
}

#[test]
fn transport_flag_runs_workers_and_rejects_bad_values() {
    let p = write_temp("prog10.vc", PROGRAM);
    let s = write_temp("spec11.dspec", SPEC);
    // uds spawns real worker processes from this very binary
    let (ok, stdout, stderr) = vcalc(&[
        p.to_str().unwrap(),
        s.to_str().unwrap(),
        "--steps",
        "2",
        "--transport",
        "uds",
    ]);
    assert!(ok, "--transport uds: {stderr}");
    assert!(stdout.contains("run: OK"), "{stdout}");
    let (ok, _, stderr) = vcalc(&[
        p.to_str().unwrap(),
        s.to_str().unwrap(),
        "--transport",
        "carrier-pigeon",
    ]);
    assert!(!ok);
    assert!(stderr.contains("`inproc`, `uds` or `tcp`"), "{stderr}");
    // socket workers re-plan with the optimizer: a naive plan would be
    // printed and then not run, so the combination is refused up front
    for kind in ["uds", "tcp"] {
        let (ok, _, stderr) = vcalc(&[
            p.to_str().unwrap(),
            s.to_str().unwrap(),
            "--naive",
            "--run",
            "--transport",
            kind,
        ]);
        assert!(!ok, "--naive --transport {kind} must be refused");
        assert!(stderr.contains("--naive is an in-process flag"), "{stderr}");
    }
}

/// Three clauses, the first two independent: the DAG schedule must
/// compress them into two waves and still verify against the
/// sequential reference; `seq` keeps one wave per clause.
const MULTI_PROGRAM: &str = "for i := 1 to 62 do A[i] := A[i] + 1.0; od;\n\
                             for i := 1 to 62 do B[i] := B[i] * 0.5; od;\n\
                             for i := 1 to 62 do C[i] := A[i] + B[i]; od;";
const MULTI_SPEC: &str = "processors 4;\narray A[0 to 63] block;\narray B[0 to 63] block;\n\
                          array C[0 to 63] block;\n";

#[test]
fn schedule_flag_runs_both_modes_and_rejects_bad_values() {
    let p = write_temp("prog11.vc", MULTI_PROGRAM);
    let s = write_temp("spec12.dspec", MULTI_SPEC);
    let (ok, stdout, stderr) = vcalc(&[
        p.to_str().unwrap(),
        s.to_str().unwrap(),
        "--schedule",
        "dag",
        "--steps",
        "2",
        "--trace",
    ]);
    assert!(ok, "--schedule dag: {stderr}");
    assert!(stdout.contains("3 clause(s) in 2 wave(s)"), "{stdout}");
    assert!(stdout.contains("width 2"), "{stdout}");
    assert!(stdout.contains("DAG replay OK"), "{stdout}");
    assert!(
        stdout.contains("identical to the iterated sequential reference"),
        "{stdout}"
    );

    let (ok, stdout, stderr) = vcalc(&[
        p.to_str().unwrap(),
        s.to_str().unwrap(),
        "--schedule",
        "seq",
    ]);
    assert!(ok, "--schedule seq: {stderr}");
    assert!(stdout.contains("3 clause(s) in 3 wave(s)"), "{stdout}");

    let (ok, _, stderr) = vcalc(&[
        p.to_str().unwrap(),
        s.to_str().unwrap(),
        "--schedule",
        "topological-ish",
    ]);
    assert!(!ok);
    assert!(stderr.contains("`seq` or `dag`"), "{stderr}");
}

#[test]
fn autotune_runs_and_verifies() {
    let p = write_temp("prog12.vc", PROGRAM);
    let s = write_temp("spec13.dspec", SPEC);
    let (ok, stdout, stderr) = vcalc(&[
        p.to_str().unwrap(),
        s.to_str().unwrap(),
        "--autotune",
        "--steps",
        "6",
    ]);
    assert!(ok, "--autotune: {stderr}");
    assert!(stdout.contains("--- autotune: 6 step(s)"), "{stdout}");
    assert!(stdout.contains("autotune: priced"), "{stdout}");
    assert!(stdout.contains("autotune: chosen layout:"), "{stdout}");
    assert!(stdout.contains("run: OK"), "{stdout}");
    assert!(
        stdout.contains("identical to the iterated sequential reference"),
        "{stdout}"
    );
    // the per-clause single-shot run must NOT also fire
    assert!(
        !stdout.contains("identical to the sequential reference\n\n--- autotune"),
        "{stdout}"
    );
}

/// A heavily misaligned layout over many steps makes the tuner switch
/// mid-loop — the CLI must report the inserted redistribution and still
/// verify bit-exactly.
#[test]
fn autotune_switches_misaligned_layout() {
    let p = write_temp(
        "prog13.vc",
        "for i := 1 to 62 do V[i] := U[i-1] + U[i+1]; od;",
    );
    let s = write_temp(
        "spec14.dspec",
        "processors 4;\narray U[0 to 63] scatter;\narray V[0 to 63] scatter;\n",
    );
    let (ok, stdout, stderr) = vcalc(&[
        p.to_str().unwrap(),
        s.to_str().unwrap(),
        "--autotune",
        "--steps",
        "500",
    ]);
    assert!(ok, "--autotune: {stderr}");
    assert!(
        stdout.contains("switched layout mid-loop"),
        "500 steps of a scattered stencil must amortize a switch\n{stdout}"
    );
    assert!(stdout.contains("redistribution(s)"), "{stdout}");
    assert!(stdout.contains("run: OK"), "{stdout}");
}

/// `--autotune` composes with `--schedule dag` and `--tune-budget`;
/// bad budgets and the `--naive` conflict are rejected up front.
#[test]
fn autotune_flag_interactions() {
    let p = write_temp("prog14.vc", MULTI_PROGRAM);
    let s = write_temp("spec15.dspec", MULTI_SPEC);
    let (ok, stdout, stderr) = vcalc(&[
        p.to_str().unwrap(),
        s.to_str().unwrap(),
        "--autotune",
        "--schedule",
        "dag",
        "--steps",
        "4",
        "--tune-budget",
        "3",
    ]);
    assert!(ok, "--autotune --schedule dag: {stderr}");
    assert!(stdout.contains("schedule dag, budget 3"), "{stdout}");
    assert!(stdout.contains("run: OK"), "{stdout}");

    // --tune-budget alone implies --autotune (and execution)
    let (ok, stdout, stderr) = vcalc(&[
        p.to_str().unwrap(),
        s.to_str().unwrap(),
        "--tune-budget",
        "2",
    ]);
    assert!(ok, "--tune-budget alone: {stderr}");
    assert!(stdout.contains("--- autotune:"), "{stdout}");

    for bad in ["0", "-3", "many"] {
        let (ok, _, stderr) = vcalc(&[
            p.to_str().unwrap(),
            s.to_str().unwrap(),
            "--tune-budget",
            bad,
        ]);
        assert!(!ok, "--tune-budget {bad} must be rejected");
        assert!(stderr.contains("positive integer"), "{stderr}");
    }

    let (ok, _, stderr) = vcalc(&[
        p.to_str().unwrap(),
        s.to_str().unwrap(),
        "--autotune",
        "--naive",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--naive is a cold-path flag"), "{stderr}");
}

#[test]
fn bad_inputs_fail_cleanly() {
    let p = write_temp("prog5.vc", "for i := 1 to");
    let s = write_temp("spec5.dspec", SPEC);
    let (ok, _, stderr) = vcalc(&[p.to_str().unwrap(), s.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("vcalc:"), "{stderr}");

    let p = write_temp("prog6.vc", PROGRAM);
    let s = write_temp("spec6.dspec", "processors 4;\narray A[0 to 63] wavy;\n");
    let (ok, _, stderr) = vcalc(&[p.to_str().unwrap(), s.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("wavy"), "{stderr}");

    // missing array in spec surfaces at plan time
    let s = write_temp("spec7.dspec", "processors 4;\narray A[0 to 63] block;\n");
    let (ok, _, stderr) = vcalc(&[p.to_str().unwrap(), s.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("B"), "{stderr}");

    let (ok, _, stderr) = vcalc(&["only-one-arg"]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");

    // the retired engine knob is an unknown flag, and usage no longer lists it
    let mut args = vec![p.to_str().unwrap(), s.to_str().unwrap()];
    args.extend("--overlap off".split(' '));
    let (ok, _, stderr) = vcalc(&args);
    assert!(!ok);
    assert!(stderr.contains("unknown flag `--overlap`"), "{stderr}");
    assert_eq!(stderr.matches("overlap").count(), 1, "{stderr}");
}

/// An access outside its array's extent is refused at plan time, before
/// the sequential reference runs (it used to panic inside `Env`), on the
/// single-run and the timestep-loop paths alike.
#[test]
fn out_of_extent_access_fails_cleanly() {
    let p = write_temp("oob.vc", "for i := 0 to 99 do V[i] := U[i+7]; od;");
    let s = write_temp(
        "oob.dspec",
        "processors 2;\narray V[0 to 99] blockscatter(4);\narray U[0 to 99] scatter;\n",
    );
    for extra in [&["--run"][..], &["--run", "--steps", "3"]] {
        let mut args = vec![p.to_str().unwrap(), s.to_str().unwrap()];
        args.extend(extra);
        let (ok, _, stderr) = vcalc(&args);
        assert!(!ok, "{extra:?}");
        assert!(
            stderr.contains("array `U` is accessed at 106, outside its extent [0, 99]"),
            "{extra:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

/// A decomposition whose layout cycle `b·pmax` overflows is a spec
/// error, not a panic (it used to abort with "capacity overflow" under
/// `--run`, or hang without it).
#[test]
fn unrepresentable_decomposition_fails_cleanly() {
    let p = write_temp("wide.vc", "for i := 0 to 9 do V[i] := U[i]; od;");
    let specs = [
        (2i64, "blockscatter(4611686018427387904)", "block"),
        (4611686018427387904, "blockscatter(4)", "scatter"),
        (3, "blockscatter(3074457345618258603)", "block"),
        (2, "block", "blockscatter(9223372036854775807)"),
    ];
    for (k, (pmax, v, u)) in specs.into_iter().enumerate() {
        let spec = format!("processors {pmax};\narray V[0 to 9] {v};\narray U[0 to 9] {u};\n");
        let s = write_temp(&format!("wide{k}.dspec"), &spec);
        for extra in [&[][..], &["--run"]] {
            let mut args = vec![p.to_str().unwrap(), s.to_str().unwrap()];
            args.extend(extra);
            let (ok, _, stderr) = vcalc(&args);
            assert!(!ok, "{spec}");
            assert!(stderr.contains("overflows"), "{spec}: {stderr}");
            assert!(!stderr.contains("panicked"), "{spec}: {stderr}");
        }
    }
}

/// Run `vcalc` on a generated program and expect a clean refusal: exit
/// code 1 (a stack overflow aborts with a signal instead) and a message
/// naming the depth cap.
fn refuses_deep_source(name: &str, program: &str) {
    let p = write_temp(name, program);
    let s = write_temp(
        "deep.dspec",
        "processors 2;\narray V[0 to 9] block;\narray U[0 to 9] block;\n",
    );
    let out = Command::new(env!("CARGO_BIN_EXE_vcalc"))
        .args([p.to_str().unwrap(), s.to_str().unwrap(), "--emit", "vcal"])
        .output()
        .expect("vcalc binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
    assert!(
        stderr.contains("nesting deeper than 256 levels"),
        "{name}: {stderr}"
    );
}

/// 200 000 parentheses around one reference (~400 KB of source) used to
/// overflow the parser's stack and abort.
#[test]
fn deep_source_parentheses_fail_cleanly() {
    let n = 200_000;
    let src = format!(
        "for i := 0 to 9 do V[i] := {}U[i]{}; od;",
        "(".repeat(n),
        ")".repeat(n)
    );
    refuses_deep_source("deep_parens.vc", &src);
}

/// A 200 000-term sum (~1.2 MB of source) built a tree whose walk
/// aborted the same way.
#[test]
fn deep_source_operator_chain_fails_cleanly() {
    let src = format!(
        "for i := 0 to 9 do V[i] := U[i]{}; od;",
        "+U[i]".repeat(199_999)
    );
    refuses_deep_source("deep_chain.vc", &src);
}
