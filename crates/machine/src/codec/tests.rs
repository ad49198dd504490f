//! Codec tests: round trips, the golden bytes of every message kind
//! (captured before the codec became a table), a boundary sweep over
//! those bytes, and the hostile-input regressions.

use super::*;
use crate::distributed::Wire;
use crate::executor::{JobReply, WaveReply};
use std::sync::Arc;
use vcal_spmd::SpmdPlan;

/// A representative clause exercising most codec paths — shared by the
/// codec and net test suites.
pub(crate) fn sample_clause() -> Clause {
    // ∆(i ∈ 0:99 | i mod 2 = 0) // (A[i] > 0 → [2i+1](A) := [i](B) * -[i+(i div 4)](C) + 3.5)
    Clause {
        iter: IndexSet {
            bounds: Bounds::range(0, 99),
            pred: Pred::Cmp {
                dim: 0,
                f: Fn1::Mod {
                    inner: Box::new(Fn1::Affine { a: 1, c: 0 }),
                    z: 2,
                    d: 0,
                },
                op: CmpOp::Eq,
                rhs: 0,
            },
        },
        ordering: Ordering::Par,
        guard: Guard::Cmp {
            lhs: ArrayRef::d1("A", Fn1::Affine { a: 1, c: 0 }),
            op: CmpOp::Gt,
            rhs: 0.0,
        },
        lhs: ArrayRef::d1("A", Fn1::Affine { a: 2, c: 1 }),
        rhs: Expr::add(
            Expr::mul(
                Expr::Ref(ArrayRef::d1("B", Fn1::Affine { a: 1, c: 0 })),
                Expr::Neg(Box::new(Expr::Ref(ArrayRef::d1(
                    "C",
                    Fn1::Sum(
                        Box::new(Fn1::Affine { a: 1, c: 0 }),
                        Box::new(Fn1::Div {
                            inner: Box::new(Fn1::Affine { a: 1, c: 0 }),
                            q: 4,
                        }),
                    ),
                )))),
            ),
            Expr::Lit(3.5),
        ),
    }
}

fn roundtrip<T: Codec>(v: &T) -> T {
    decode(&encode(v).expect("encodes")).expect("decodes")
}

// ---------------------------------------------------------------------
// golden values
// ---------------------------------------------------------------------

fn g_decomps() -> BTreeMap<String, Decomp1> {
    let mut decomps = BTreeMap::new();
    decomps.insert(
        "A".to_string(),
        Decomp1::new(Distribution::Scatter, 4, Bounds::range(0, 199)),
    );
    decomps.insert(
        "B".to_string(),
        Decomp1::new(Distribution::Block { b: 50 }, 4, Bounds::range(0, 199)),
    );
    decomps.insert(
        "C".to_string(),
        Decomp1::new(
            Distribution::BlockScatter { b: 3 },
            4,
            Bounds::range(-5, 194),
        ),
    );
    decomps.insert(
        "D".to_string(),
        Decomp1::new(Distribution::Replicated, 4, Bounds::range(0, 9)),
    );
    decomps
}

fn g_images() -> BTreeMap<String, Vec<f64>> {
    let mut locals = BTreeMap::new();
    locals.insert("A".to_string(), vec![1.0, -2.5, f64::NAN, -0.0]);
    locals.insert("B".to_string(), vec![]);
    locals
}

/// `B[i] := A[i]` over `0:9`: the second member of the golden wave.
fn g_copy() -> Clause {
    Clause {
        iter: IndexSet::range(0, 9),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1("B", Fn1::Affine { a: 1, c: 0 }),
        rhs: Expr::Ref(ArrayRef::d1("A", Fn1::Affine { a: 1, c: 0 })),
    }
}

fn g_job() -> JobMsg {
    JobMsg {
        run_id: 7,
        clauses: vec![sample_clause(), g_copy()],
        decomps: g_decomps(),
        recv_timeout: Duration::from_millis(250),
        faults: Some(FaultPlan {
            from_only: Some(1),
            drop_exact: Some((2, 9)),
            ..FaultPlan::seeded(7)
                .with_drop(0.1)
                .with_corrupt(0.05)
                .with_crash(2, 3)
        }),
        retry: RetryPolicy::fast().with_deadline(Duration::from_secs(2)),
        simd: SimdPolicy {
            mode: SimdMode::On,
            lanes: 8,
        },
        trace_on: true,
        handshake: false,
        lossy: true,
        locals: g_images(),
    }
}

fn g_events() -> Vec<(i64, EventKind)> {
    let phases = [
        Phase::Plan,
        Phase::Send,
        Phase::Update,
        Phase::Drain,
        Phase::Commit,
        Phase::Redistribute,
        Phase::Halo,
    ];
    let mut events: Vec<(i64, EventKind)> = phases
        .iter()
        .flat_map(|p| [EventKind::PhaseStart(*p), EventKind::PhaseEnd(*p)])
        .map(|k| (2, k))
        .collect();
    events.extend(
        [
            EventKind::ModifyDispatch {
                kind: "theorem-3-corollary-1",
                closed_form: true,
            },
            EventKind::ResideDispatch {
                slot: 3,
                array: "B".into(),
                kind: "naive-guard",
                closed_form: false,
            },
            EventKind::PackSend {
                dst: 0,
                run: 1,
                elems: 16,
                bytes: 144,
            },
            EventKind::RecvValue {
                src: 1,
                slot: 0,
                i: -4,
            },
            EventKind::InteriorRun { run: 2, elems: 40 },
            EventKind::BoundaryRun {
                run: 3,
                elems: 5,
                recvs: 2,
            },
            EventKind::SimdCensus {
                vector_runs: 4,
                fallback_runs: 1,
                lane_elems: 32,
                tail_elems: 3,
            },
            EventKind::Retransmit { dst: 1 },
            EventKind::Ack { dst: 0 },
            EventKind::Nack { peer: 3 },
            EventKind::DupDropped { src: 2 },
            EventKind::CorruptDetected { src: 1 },
            EventKind::Backoff { peer: 0 },
            EventKind::DagReady { step: 1 },
            EventKind::ClauseBegin { step: 1 },
            EventKind::ClauseEnd { step: 1 },
        ]
        .into_iter()
        .map(|k| (-1, k)),
    );
    events
}

fn g_errors() -> Vec<(&'static str, MachineError)> {
    vec![
        ("sequential_clause", MachineError::SequentialClause),
        ("unknown_array", MachineError::UnknownArray("Z".into())),
        (
            "missing_message",
            MachineError::MissingMessage {
                node: 1,
                array: "B".into(),
                index: 9,
            },
        ),
        (
            "missing_packet",
            MachineError::MissingPacket {
                node: 1,
                peer: 2,
                slot: 0,
                run: 3,
            },
        ),
        (
            "unrecoverable",
            MachineError::Unrecoverable {
                node: 0,
                peer: 3,
                retries: 8,
            },
        ),
        ("node_panicked", MachineError::NodePanicked { node: 2 }),
        (
            "peer_disconnected",
            MachineError::PeerDisconnected { node: 1, peer: 0 },
        ),
        ("plan_mismatch", MachineError::PlanMismatch("x".into())),
        (
            "transport",
            MachineError::Transport {
                node: -1,
                detail: "wire version 1 != 2".into(),
            },
        ),
    ]
}

/// A two-job wave reply: the first job carries `res`, `events` and
/// every field, the second `res` alone; then the drain trace.
fn g_result(res: Result<(), MachineError>, events: Vec<(i64, EventKind)>) -> ResultMsg {
    let first = JobReply {
        image: None,
        writes: vec![
            WriteOp::El(4, 2.25),
            WriteOp::Dense {
                base: 8,
                values: vec![1.0, 2.0],
            },
        ],
        stats: NodeStats {
            iterations: 100,
            msgs_sent: 3,
            bytes_sent: 4096,
            simd_lanes: 8,
            ..NodeStats::default()
        },
        sent_to: vec![0, 7, 0, 1],
        res: res.clone(),
        events,
        timings: vec![
            (2, Phase::Update, Duration::from_micros(1234)),
            (-1, Phase::Commit, Duration::from_nanos(7)),
        ],
    };
    let second = JobReply {
        image: None,
        writes: Vec::new(),
        stats: NodeStats::default(),
        sent_to: vec![0; 4],
        res,
        events: Vec::new(),
        timings: Vec::new(),
    };
    ResultMsg {
        run_id: 3,
        p: 2,
        reply: WaveReply {
            jobs: vec![first, second],
            drain_events: vec![(2, EventKind::PhaseStart(Phase::Drain))],
            drain_timings: vec![(2, Phase::Drain, Duration::from_micros(5))],
        },
    }
}

fn g_frames() -> Vec<(&'static str, Frame<Wire>)> {
    vec![
        (
            "frame_data",
            Frame::Data(Packet {
                src: 1,
                seq: 42,
                corrupt: true,
                payload: Wire {
                    run_ord: 2,
                    values: vec![0.5, -0.5, f64::INFINITY].into(),
                },
            }),
        ),
        (
            "frame_ack",
            Frame::Ack {
                from: 2,
                next_needed: 5,
            },
        ),
        (
            "frame_nack",
            Frame::Nack {
                from: 3,
                next_needed: 1,
            },
        ),
        ("frame_done", Frame::Done { from: 1 }),
    ]
}

fn g_request() -> crate::serve::ServeRequest {
    crate::serve::ServeRequest {
        n_steps: 6,
        schedule: crate::session::ScheduleMode::Dag,
        autotune: true,
        tune: crate::session::TuneOptions {
            budget: 16,
            profile_steps: 2,
            retune_every: Some(3),
        },
        deadline: Some(Duration::from_millis(500)),
        steps: vec![
            vcal_spmd::ProgramStep::Clause(sample_clause()),
            vcal_spmd::ProgramStep::Redistribute {
                array: "A".into(),
                to: Decomp1::new(Distribution::Scatter, 4, Bounds::range(0, 199)),
            },
        ],
        decomps: g_decomps(),
        globals: g_images(),
    }
}

fn g_request_plain() -> crate::serve::ServeRequest {
    crate::serve::ServeRequest::new(
        vec![vcal_spmd::ProgramStep::Clause(sample_clause())],
        g_decomps(),
        g_images(),
        1,
    )
}

fn g_resp_ok() -> RespMsg {
    RespMsg {
        req_id: 11,
        res: Ok(RespOk {
            globals: g_images(),
            service: crate::stats::ServiceStats {
                queue_wait_ns: 77,
                sessions_served: 3,
                plan_hits: 2,
                plan_misses: 1,
                dag_hits: 1,
                dag_misses: 0,
                tune_hits: 4,
                tune_misses: 12,
                evictions: 1,
            },
        }),
    }
}

fn g_resp_err() -> RespMsg {
    RespMsg {
        req_id: 12,
        res: Err(MachineError::Transport {
            node: -1,
            detail: "admission: queue full".into(),
        }),
    }
}

/// Every message kind, named as its fixture, encoded by today's codec.
fn golden_encodings() -> Vec<(String, Vec<u8>)> {
    let ctrl = |c: Ctrl| encode(&c).expect("encodes");
    let mut out = vec![
        ("ctrl_job".to_string(), ctrl(Ctrl::Job(Box::new(g_job())))),
        ("ctrl_ready".into(), ctrl(Ctrl::Ready(9))),
        ("ctrl_go".into(), ctrl(Ctrl::Go)),
        ("ctrl_shutdown".into(), ctrl(Ctrl::Shutdown)),
        (
            "ctrl_result_ok".into(),
            ctrl(Ctrl::Result(Box::new(g_result(Ok(()), g_events())))),
        ),
    ];
    for (name, err) in g_errors() {
        let ev = vec![(0, EventKind::Nack { peer: 1 })];
        let r = g_result(Err(err), ev);
        out.push((
            format!("ctrl_result_err_{name}"),
            ctrl(Ctrl::Result(Box::new(r))),
        ));
    }
    for (name, f) in g_frames() {
        out.push((name.into(), encode(&f).expect("encodes")));
    }
    let done = Frame::<Wire>::Done { from: 3 };
    out.push(("done_frame".into(), encode(&done).expect("encodes")));
    let worker_hello = (WIRE_VERSION, 2i64, 4usize);
    out.push((
        "worker_hello".into(),
        encode(&worker_hello).expect("encodes"),
    ));
    let serve_hello = (WIRE_VERSION, "acme".to_string());
    out.push(("serve_hello".into(), encode(&serve_hello).expect("encodes")));
    out.push((
        "request".into(),
        encode_request(11, &g_request()).expect("encodes"),
    ));
    let plain = encode_request(1, &g_request_plain()).expect("encodes");
    out.push(("request_plain".into(), plain));
    out.push(("resp_ok".into(), encode(&g_resp_ok()).expect("encodes")));
    out.push(("resp_err".into(), encode(&g_resp_err()).expect("encodes")));
    out
}

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/data/codec_golden");

fn fixture(name: &str) -> Vec<u8> {
    let path = format!("{GOLDEN_DIR}/{name}.hex");
    let hex = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let hex = hex.trim();
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex fixture"))
        .collect()
}

/// Decode a fixture's kind and encode the value again.
type Reencode = fn(&[u8]) -> R<Vec<u8>>;

fn reencode<T: Codec>(bytes: &[u8]) -> R<Vec<u8>> {
    encode(&decode::<T>(bytes)?)
}

fn reencoder(name: &str) -> Reencode {
    match name {
        n if n.starts_with("ctrl_") => reencode::<Ctrl>,
        n if n.starts_with("frame_") || n == "done_frame" => reencode::<Frame<Wire>>,
        "worker_hello" => reencode::<(u32, i64, usize)>,
        "serve_hello" => reencode::<(u32, String)>,
        n if n.starts_with("request") => reencode::<(u64, ServeRequest)>,
        n if n.starts_with("resp_") => reencode::<RespMsg>,
        other => panic!("no decoder for fixture {other}"),
    }
}

/// The wire did not move: every message kind encodes byte for byte as
/// it did before the table, and decodes back to the same bytes.
#[test]
fn golden_bytes_of_every_message_kind() {
    let encodings = golden_encodings();
    let on_disk = std::fs::read_dir(GOLDEN_DIR).expect("fixture dir").count();
    assert_eq!(on_disk, encodings.len(), "one fixture per message kind");
    for (name, bytes) in encodings {
        assert_eq!(bytes, fixture(&name), "{name}: the wire moved");
        assert_eq!(reencoder(&name)(&bytes).as_ref(), Ok(&bytes), "{name}");
    }
}

/// Run `f` on a thread with a 256 KiB stack: a decoder that recursed
/// per byte would overflow it.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(256 << 10)
        .spawn(f)
        .expect("spawns")
        .join()
        .expect("no overflow, no panic")
}

/// Every truncation of every fixture, and at every offset each boundary
/// byte and each retired tag substituted: each input decodes to a typed
/// error or to a value that re-encodes to exactly the input (a decoder
/// that accepts two spellings of one value is not canonical). A panic
/// is a failure, named by fixture, offset and byte.
#[test]
fn boundary_sweep_over_every_fixture() {
    let (tried, decoded, failures) = on_small_stack(|| {
        let mut subs = vec![0u8, 1, 0x7f, 0x80, 0xff];
        let retired = RETIRED_TAGS.iter().filter(|t| !subs.contains(t)).copied();
        subs.extend(retired.collect::<Vec<_>>());
        let (mut tried, mut decoded, mut failures) = (0usize, 0usize, Vec::new());
        for (name, _) in golden_encodings() {
            let (bytes, f) = (fixture(&name), reencoder(&name));
            let mut check = |input: &[u8], case: String| {
                tried += 1;
                match std::panic::catch_unwind(|| f(input)) {
                    Ok(Err(_)) => {}
                    Ok(Ok(again)) if again == input => decoded += 1,
                    Ok(Ok(_)) => failures.push(format!("{case}: not canonical")),
                    Err(p) => {
                        let msg = (p.downcast_ref::<String>().map(String::as_str))
                            .or_else(|| p.downcast_ref::<&str>().copied())
                            .unwrap_or("?");
                        failures.push(format!("{case}: panicked: {msg}"))
                    }
                }
            };
            for cut in 0..bytes.len() {
                check(&bytes[..cut], format!("{name} cut at {cut}"));
            }
            for at in 0..bytes.len() {
                for &b in subs.iter().filter(|&&b| b != bytes[at]) {
                    let mut input = bytes.clone();
                    input[at] = b;
                    check(&input, format!("{name} byte {at} := {b:#04x}"));
                }
            }
        }
        (tried, decoded, failures)
    });
    eprintln!(
        "boundary sweep: {tried} inputs, {decoded} decoded, {} findings",
        failures.len()
    );
    assert!(
        failures.is_empty(),
        "{} findings: {failures:#?}",
        failures.len()
    );
}

/// `Not` nested 2^20 deep (a 1 MiB record) is a typed error on a small
/// stack, not an abort; exactly `MAX_DEPTH` levels travel both ways and
/// one more is refused by the encoder as well as the decoder.
#[test]
fn nesting_past_max_depth_is_a_typed_error() {
    let got = on_small_stack(|| {
        let mut hostile = vec![6u8; 1 << 20];
        hostile.push(0);
        decode::<Pred>(&hostile).map(|_| ())
    });
    assert_eq!(got, Err(too_deep()));

    let nots = |n: usize| (0..n).fold(Pred::True, |p, _| Pred::Not(Box::new(p)));
    let at_cap = encode(&nots(MAX_DEPTH)).expect("MAX_DEPTH levels encode");
    on_small_stack(move || decode::<Pred>(&at_cap).map(|_| ()).expect("and decode"));
    assert_eq!(encode(&nots(MAX_DEPTH + 1)).map(|_| ()), Err(too_deep()));

    // the worker protocol boxes the job itself: a clause at the cap is
    // one level too deep there, and refused before anything is sent
    let mut job = g_job();
    job.clauses[0].iter.pred = nots(MAX_DEPTH);
    let err = encode(&Ctrl::Job(Box::new(job))).expect_err("too deep inside the job box");
    assert_eq!(err, too_deep());
    let deep_rhs = (0..MAX_DEPTH).fold(Expr::Lit(1.0), |x, _| Expr::Neg(Box::new(x)));
    let mut c = sample_clause();
    c.rhs = Expr::Neg(Box::new(deep_rhs));
    assert_eq!(encode(&c).map(|_| ()), Err(too_deep()));
}

/// The process's peak virtual size in KiB (`VmPeak`): a reservation
/// shows there even when none of its pages is ever touched.
fn vm_peak_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmPeak:"))
        .expect("VmPeak");
    line.split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("a number")
}

/// A 16 MiB request announcing 2^24 program steps (328 bytes each in
/// memory) used to reserve ≈ 5.1 GiB before reading the first — a
/// 64 MiB frame, ≈ 21 GiB, more than most hosts can map. The sequence
/// primitive now reserves no more than the record could hold.
#[test]
fn step_count_reservation_is_bounded_by_the_record() {
    let mut bytes = encode_request(1, &g_request_plain()).expect("encodes");
    let at = 8 + 8 + 1 + 1 + 8 + 8 + 8 + 8; // id, n_steps, schedule, autotune, tune, deadline
    assert_eq!(bytes[at..at + 8], 1u64.to_le_bytes(), "the step count");
    bytes[at..at + 8].copy_from_slice(&(1u64 << 24).to_le_bytes());
    bytes.truncate(at + 8);
    bytes.resize(at + 8 + (1 << 24), 0xff);
    let before = vm_peak_kib();
    let got = decode::<(u64, ServeRequest)>(&bytes).map(|_| ());
    let grown_mib = (vm_peak_kib() - before) >> 10;
    assert_eq!(got, Err(bad("ProgramStep tag")), "0xff is no step tag");
    // the bound leaves room for what concurrent tests map meanwhile
    assert!(
        grown_mib < 2048,
        "decoding grew the address space by {grown_mib} MiB"
    );
}

/// A name twice, or names out of order, is a typed error: a map has
/// one spelling on the wire.
#[test]
fn maps_decode_canonically() {
    let entry = |e: &mut Enc, k: &str, v: f64| {
        k.to_string()
            .put(e)
            .and_then(|()| vec![v].put(e))
            .expect("encodes")
    };
    for keys in [["A", "A"], ["B", "A"]] {
        let mut e = Enc::new();
        2usize.put(&mut e).expect("encodes");
        entry(&mut e, keys[0], 1.0);
        entry(&mut e, keys[1], 2.0);
        let got = decode::<BTreeMap<String, Vec<f64>>>(&e.buf);
        assert_eq!(
            got,
            Err(bad("map: keys not strictly ascending")),
            "{keys:?}"
        );
    }
}

// ---------------------------------------------------------------------
// round trips and typed errors
// ---------------------------------------------------------------------

#[test]
fn clause_roundtrips() {
    let c = sample_clause();
    let c2 = roundtrip(&c);
    assert_eq!(format!("{c}"), format!("{c2}"));
    assert_eq!(c.lhs, c2.lhs);
    assert_eq!(c.rhs, c2.rhs);
    assert_eq!(c.guard, c2.guard);
}

#[test]
fn opaque_pred_is_rejected_with_label() {
    let p = Pred::Opaque {
        label: "mystery".into(),
        f: Arc::new(|_| true),
    };
    let err = encode(&p).expect_err("opaque must not encode");
    assert!(err.0.contains("mystery"), "names the predicate: {err}");
}

#[test]
fn unknown_dispatch_kind_is_a_typed_error() {
    let roundtrip = |kind: &'static str| {
        let closed_form = false;
        decode::<EventKind>(&encode(&EventKind::ModifyDispatch { kind, closed_form }).unwrap())
    };
    assert!(matches!(
        roundtrip("naive-guard"),
        Ok(EventKind::ModifyDispatch {
            kind: "naive-guard",
            ..
        })
    ));
    let err = roundtrip("from-a-hostile-peer").expect_err("not in the table");
    assert!(err.0.contains("dispatch kind"), "{err}");
}

#[test]
fn every_dispatch_kind_roundtrips() {
    // the whole Table I name list, as both dispatch events ...
    for kind in OptKind::NAMES {
        let closed_form = kind != "naive-guard";
        for ev in [
            EventKind::ModifyDispatch { kind, closed_form },
            EventKind::ResideDispatch {
                slot: 3,
                array: "B".into(),
                kind,
                closed_form,
            },
        ] {
            assert_eq!(roundtrip(&ev), ev);
        }
    }
    // ... and what real plans trace, naive rows included
    let at = |array: &str, c: i64| Expr::Ref(ArrayRef::d1(array, Fn1::Affine { a: 1, c }));
    let clause = Clause {
        iter: IndexSet::range(0, 30),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1("A", Fn1::Affine { a: 1, c: 0 }),
        rhs: Expr::add(at("B", 1), at("C", 0)),
    };
    let extent = Bounds::range(0, 31);
    let mut decomps = BTreeMap::new();
    decomps.insert("A".to_string(), Decomp1::block_scatter(2, 4, extent));
    decomps.insert("B".to_string(), Decomp1::scatter(4, extent));
    decomps.insert("C".to_string(), Decomp1::block(4, extent));
    let tracer = crate::obs::CollectingTracer::new();
    for plan in [
        SpmdPlan::build(&clause, &decomps),
        SpmdPlan::build_naive(&clause, &decomps),
    ] {
        crate::obs::trace_plan(&tracer, &plan.expect("plans"));
    }
    let events = tracer.finish().events;
    assert!(events.len() > 2 * 4 * 3, "both plans traced every node");
    for ev in events {
        assert_eq!(roundtrip(&ev.kind), ev.kind);
    }
}

/// A decomposition `Decomp1::new` would refuse is a typed error on
/// the wire: a zero block, a block layout too short for its extent,
/// and a block-scatter cycle beyond `i64`.
#[test]
fn unrepresentable_decomp_is_a_typed_error() {
    for (tag, b, pmax) in [(0u8, 0i64, 4i64), (2, 0, 4), (0, 2, 4), (2, 1 << 62, 2)] {
        let mut e = Enc::new();
        (tag, b, pmax).put(&mut e).expect("encodes");
        Bounds::range(0, 9).put(&mut e).expect("encodes");
        let err = decode::<Decomp1>(&e.buf).expect_err("refused");
        assert!(
            err.0.contains("malformed Decomp1"),
            "tag={tag} b={b}: {err}"
        );
    }
}

#[test]
fn ctrl_job_roundtrips() {
    let job = g_job();
    let Ctrl::Job(j2) = roundtrip(&Ctrl::Job(Box::new(job.clone()))) else {
        panic!("wrong Ctrl arm");
    };
    assert_eq!(j2.decomps, job.decomps);
    assert_eq!(j2.recv_timeout, job.recv_timeout);
    assert_eq!(j2.faults, job.faults);
    assert_eq!(j2.retry, job.retry);
    assert_eq!(j2.simd, job.simd);
    assert_eq!(j2.locals["A"][1], -2.5);
    assert!(j2.locals["A"][2].is_nan(), "NaN survives bit-exactly");
    let shown = |cs: &[Clause]| cs.iter().map(|c| format!("{c}")).collect::<Vec<_>>();
    assert_eq!(shown(&j2.clauses), shown(&job.clauses));
}

#[test]
fn ctrl_result_roundtrips_with_errors_and_events() {
    for (_, err) in g_errors() {
        let r = g_result(Err(err.clone()), g_events());
        let Ctrl::Result(r2) = roundtrip(&Ctrl::Result(Box::new(r.clone()))) else {
            panic!("wrong Ctrl arm");
        };
        assert_eq!((r2.run_id, r2.p), (r.run_id, r.p));
        let (got, want) = (&r2.reply, &r.reply);
        assert_eq!(got.jobs.len(), want.jobs.len());
        for (j2, j) in got.jobs.iter().zip(&want.jobs) {
            assert_eq!(j2.sent_to, j.sent_to);
            assert_eq!(j2.stats, j.stats);
            assert_eq!(j2.res, Err(err.clone()));
            assert_eq!(j2.events, j.events);
            assert_eq!(j2.timings, j.timings);
        }
        assert_eq!(got.drain_events, want.drain_events);
        assert_eq!(got.drain_timings, want.drain_timings);
    }
}

/// A next image stays in the process that made it: a reply holding one
/// is refused by the encoder, not shipped without it.
#[test]
fn next_image_never_crosses_the_wire() {
    let mut r = g_result(Ok(()), Vec::new());
    r.reply.jobs[1].image = Some(vec![1.0]);
    let err = encode(&Ctrl::Result(Box::new(r))).expect_err("an image is refused");
    assert!(err.0.contains("next image"), "{err}");
}

#[test]
fn frames_roundtrip() {
    for (name, f) in g_frames() {
        let f2 = roundtrip(&f);
        assert_eq!(format!("{f:?}"), format!("{f2:?}"), "{name}");
    }
}

/// A vector of floats crosses the wire bit for bit — NaN payloads
/// and the sign of zero included — and a length prefix the record
/// cannot back is a typed error before anything is allocated.
#[test]
fn f64_vectors_roundtrip_bitwise_and_bad_lengths_are_typed_errors() {
    let vs = [
        0.0,
        -0.0,
        1.5,
        f64::INFINITY,
        f64::from_bits(0x7ff0_0000_dead_beef), // signalling NaN, payload
        f64::from_bits(0xfff8_0000_0000_0001), // negative quiet NaN
        f64::MIN_POSITIVE / 2.0,               // subnormal
    ];
    let mut e = Enc::new();
    7u8.put(&mut e).expect("encodes"); // the vector does not start the buffer
    e.f64s(&vs);
    e.f64s(&[]);
    assert_eq!(e.buf.len(), 1 + 8 + 8 * vs.len() + 8);
    let mut d = Dec::new(&e.buf);
    assert_eq!(u8::get(&mut d), Ok(7));
    let got = d.f64s().unwrap();
    assert_eq!(
        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
    assert_eq!(d.f64s(), Ok(Vec::new()));
    assert_eq!(d.finish(), Ok(()));

    // one byte short of the last element
    let short = &e.buf[1..1 + 8 + 8 * vs.len() - 1];
    assert_eq!(Dec::new(short).f64s(), Err(bad("f64 vector length")));
    // a prefix whose byte count overflows, and one that merely lies
    for n in [u64::MAX, (usize::MAX / 8) as u64 + 1, 1 << 40] {
        let bytes = encode(&(n, 1.0f64)).expect("encodes");
        assert_eq!(Dec::new(&bytes).f64s(), Err(bad("f64 vector length")));
    }
}

/// Payload tag 0 was wire version 1's per-element message: a data
/// frame still carrying it is a typed decode error, not a panic.
#[test]
fn retired_element_payload_tag_is_a_codec_error() {
    let mut e = Enc::new();
    (0u8, 0i64, 0u64).put(&mut e).expect("encodes"); // Frame::Data, src, seq
    (false, 0u8).put(&mut e).expect("encodes"); // corrupt, the retired payload tag
    (1usize, -3i64, 7.0f64).put(&mut e).expect("encodes"); // slot, i, value
    assert_eq!(
        decode::<Frame<Wire>>(&e.buf).map(|_| ()),
        Err(bad("Wire tag")),
        "the element payload left the wire with version 1"
    );
    // event tags 5 (the element send), 10 (the halo machine's ghost
    // message), 11 and 12 (the redistribution machine's runs) are
    // retired the same way
    assert_eq!(RETIRED_TAGS, [5, 10, 11, 12]);
    for tag in [5u8, 10, 11, 12] {
        let bytes = encode(&(tag, 1i64, 4u64)).expect("encodes");
        let got = EventKind::get(&mut Dec::new(&bytes));
        assert_eq!(got, Err(bad("EventKind tag")), "tag {tag}");
    }
}

#[test]
fn serve_records_roundtrip() {
    let req = g_request();
    let (id, r2) = decode::<(u64, ServeRequest)>(&encode_request(11, &req).unwrap()).unwrap();
    assert_eq!(id, 11);
    assert_eq!(r2.schedule, crate::session::ScheduleMode::Dag);
    assert_eq!((r2.tune.budget, r2.tune.profile_steps), (16, 2));
    assert_eq!(r2.tune.retune_every, Some(3));
    assert_eq!(r2.deadline, req.deadline);
    assert_eq!(r2.decomps, req.decomps);
    assert_eq!(r2.steps.len(), 2);
    assert!(r2.globals["A"][2].is_nan(), "NaN survives bit-exactly");
    // zero is `None` for the deadline and the retune period
    let (_, plain) =
        decode::<(u64, ServeRequest)>(&encode_request(1, &g_request_plain()).unwrap()).unwrap();
    assert_eq!((plain.deadline, plain.tune.retune_every), (None, None));

    let (v, tenant) = roundtrip(&(WIRE_VERSION, "acme".to_string()));
    assert_eq!((v, tenant.as_str()), (WIRE_VERSION, "acme"));

    let r3 = roundtrip(&g_resp_ok());
    assert_eq!(r3.req_id, 11);
    let (got, want) = (r3.res.expect("ok arm"), g_resp_ok().res.expect("ok arm"));
    assert_eq!(got.service, want.service);
    assert!(got.globals["A"][2].is_nan());

    let err = roundtrip(&g_resp_err()).res.expect_err("error arm");
    assert!(format!("{err}").contains("admission: queue full"));
}

#[test]
fn truncated_and_garbage_input_fail_typed() {
    let bytes = encode(&Ctrl::Ready(9)).expect("encodes");
    assert!(decode::<Ctrl>(&bytes[..0]).is_err(), "empty input");
    let mut long = bytes.clone();
    long.push(0);
    assert!(decode::<Ctrl>(&long).is_err(), "trailing bytes");
    assert!(decode::<Ctrl>(&[250]).is_err(), "unknown tag");
    // a length prefix far beyond the record must not allocate
    // Ctrl::Result, run_id, p, a job count
    let absurd = encode(&(3u8, 0u64, (0i64, u64::MAX))).expect("encodes");
    assert!(decode::<Ctrl>(&absurd).is_err(), "absurd length prefix");
}

/// The sweep's findings at the parent, each a panic inside a decoder:
/// an index map with no output dimension, one reading input dimension
/// 0 of a 0-dimensional source, an index of 5 to 8 coordinates (`Ix`
/// holds 4), and bounds whose point count overflows `i64`
/// (`Decomp1::try_new` counted them). All are typed errors now.
#[test]
fn sweep_findings_are_typed_errors() {
    for n in [0usize, 5, 8] {
        let bytes = encode(&vec![0i64; n]).expect("encodes");
        assert_eq!(
            decode::<Ix>(&bytes),
            Err(bad("Ix dimension count")),
            "{n} coordinates"
        );
    }
    let dim_fn = DimFn {
        src: 0,
        f: Fn1::Const(1),
    };
    for (d_in, dims) in [(1usize, vec![]), (0, vec![dim_fn])] {
        let bytes = encode(&(d_in, dims)).expect("encodes");
        assert_eq!(
            decode::<IndexMap>(&bytes),
            Err(bad("IndexMap source dimension")),
            "d_in {d_in}"
        );
    }
    for (lo, hi) in [(i64::MIN, 0), (-1, i64::MAX), (i64::MIN, i64::MAX)] {
        let bytes = encode(&(vec![lo], vec![hi])).expect("encodes");
        assert_eq!(
            decode::<Bounds>(&bytes),
            Err(bad("Bounds extent beyond i64"))
        );
    }
    // an empty axis states no count, and the widest countable one decodes
    for (lo, hi) in [(i64::MAX, i64::MIN), (i64::MIN + 2, 0)] {
        let bytes = encode(&(vec![lo], vec![hi])).expect("encodes");
        assert!(decode::<Bounds>(&bytes).is_ok(), "{lo}..{hi}");
    }
}
