//! Wire codec for the multi-process transport backends and the serve
//! protocol.
//!
//! Everything a worker process needs to run one node of a wave — the
//! clauses, the decompositions, the execution options, its local
//! memories — plus everything it ships back (per job: writes,
//! statistics, buffered trace events, its typed error state) is
//! serialized here as flat little-endian records. The encoding is
//! deliberately *generative*: workers receive the clauses and
//! decompositions and rebuild each `SpmdPlan` locally via the same
//! deterministic planner the host runs, so plans are never on the wire
//! and the two sides agree by construction (sender packing order equals
//! receiver expectation).
//!
//! Every wire type is declared once (DESIGN.md §15): the [`Codec`] trait
//! has generic impls for integers, strings, options, results, tuples,
//! sequences and maps, and one [`codec_table!`] lists each struct's
//! fields and each enum's tags in wire order, retired tags beside the
//! live ones. Encoder and decoder both come from that one line per type;
//! only types whose decoding validates something are written by hand.
//! Two invariants hold by construction, not by review:
//!
//! * every recursive term nests through a `Box`, whose impl counts the
//!   depth both ways, so no record nests deeper than [`MAX_DEPTH`] and a
//!   hostile one is a typed error instead of a stack overflow;
//! * every sequence goes through [`Dec::seq`] (or the bulk [`Dec::f64s`]),
//!   which never reserves more elements than the remaining bytes could
//!   hold.
//!
//! The codec is versioned through the handshake ([`WIRE_VERSION`],
//! checked in `net::hello`); within a version the byte layout is stable
//! (the fixtures under `tests/data/codec_golden/` pin it). Integrity is
//! the frame layer's job (a checksum per frame, `net::write_frame`) —
//! decoders here only need to be *safe* on malformed input, not to
//! detect corruption.
//!
//! [`Pred::Opaque`] — a closure — is the one non-serializable corner of
//! the clause language; encoding it fails with a typed error that the
//! dispatcher surfaces as [`MachineError::PlanMismatch`] before any
//! process is spawned.

use crate::distributed::{Wire, WriteOp};
use crate::error::MachineError;
use crate::executor::{JobReply, WaveReply};
use crate::obs::{EventKind, Phase};
use crate::serve::ServeRequest;
use crate::session::{ScheduleMode, TuneOptions};
use crate::stats::{NodeStats, ServiceStats};
use crate::transport::{CrashFault, FaultPlan, Frame, Packet, RetryPolicy};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;
use vcal_core::func::Fn1;
use vcal_core::ix::MAX_DIMS;
use vcal_core::map::{DimFn, IndexMap};
use vcal_core::pred::Pred;
use vcal_core::set::IndexSet;
use vcal_core::{ArrayRef, BinOp, Bounds, Clause, CmpOp, Expr, Guard, Ix, Ordering, MAX_DEPTH};
use vcal_decomp::{Decomp1, Distribution};
use vcal_spmd::{OptKind, ProgramStep};

/// Version stamped into the handshake; bumped on any layout change.
pub(crate) const WIRE_VERSION: u32 = 6;

/// A typed decode (or non-serializable-encode) failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn bad(what: &str) -> CodecError {
    CodecError(format!("malformed {what}"))
}

fn too_deep() -> CodecError {
    CodecError(format!("record nests deeper than {MAX_DEPTH} levels"))
}

type R<T> = Result<T, CodecError>;

// ---------------------------------------------------------------------
// encoder and decoder
// ---------------------------------------------------------------------

/// Append-only little-endian encoder.
#[derive(Default)]
pub(crate) struct Enc {
    pub buf: Vec<u8>,
    depth: usize,
}

impl Enc {
    pub fn new() -> Self {
        Enc::default()
    }

    /// A length-prefixed float vector in one pass: the iterator is
    /// exact-size, so one reservation, each byte written once.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.buf.extend_from_slice(&(vs.len() as u64).to_le_bytes());
        (self.buf).extend(vs.iter().flat_map(|v| v.to_bits().to_le_bytes()));
    }
}

/// Bounds-checked little-endian cursor.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Dec {
            buf,
            pos: 0,
            depth: 0,
        }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> R<&'a [u8]> {
        if n > self.remaining() {
            return Err(CodecError(format!(
                "truncated record: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> R<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("took N bytes"))
    }

    fn tag(&mut self) -> R<u8> {
        Ok(self.take(1)?[0])
    }

    /// A count about to drive a loop: every item takes at least one
    /// byte, so a count the remaining record cannot back is refused.
    fn len(&mut self) -> R<usize> {
        let n = usize::get(self)?;
        if n > self.remaining() {
            return Err(bad("length prefix exceeds record"));
        }
        Ok(n)
    }

    /// The one sequence primitive: a count, then that many items. It
    /// reserves no more items than the remaining bytes could hold at
    /// `size_of::<T>()` each, so no allocation is sized by an
    /// unvalidated length.
    fn seq<T>(&mut self, mut item: impl FnMut(&mut Self) -> R<T>) -> R<Vec<T>> {
        let n = self.len()?;
        let cap = n.min(self.remaining() / std::mem::size_of::<T>().max(1));
        let mut out = Vec::with_capacity(cap);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// The bulk counterpart of [`Enc::f64s`]: the byte count is checked
    /// before anything is allocated.
    pub fn f64s(&mut self) -> R<Vec<f64>> {
        let n = usize::get(self)?;
        if n.checked_mul(8)
            .is_none_or(|bytes| bytes > self.remaining())
        {
            return Err(bad("f64 vector length"));
        }
        let le = |c: &[u8]| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes")));
        Ok(self.take(8 * n)?.chunks_exact(8).map(le).collect())
    }

    pub fn finish(self) -> R<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError(format!("{n} trailing bytes after record"))),
        }
    }
}

/// A type with one wire form: `put` writes it, `get` reads it back.
pub(crate) trait Codec {
    fn put(&self, e: &mut Enc) -> R<()>;
    fn get(d: &mut Dec) -> R<Self>
    where
        Self: Sized;

    /// A length-prefixed run of items; `f64` overrides it with the bulk
    /// path.
    fn put_seq(items: &[Self], e: &mut Enc) -> R<()>
    where
        Self: Sized,
    {
        items.len().put(e)?;
        items.iter().try_for_each(|x| x.put(e))
    }

    fn get_seq(d: &mut Dec) -> R<Vec<Self>>
    where
        Self: Sized,
    {
        d.seq(Self::get)
    }
}

/// One record as bytes.
pub(crate) fn encode<T: Codec>(v: &T) -> R<Vec<u8>> {
    let mut e = Enc::new();
    v.put(&mut e)?;
    Ok(e.buf)
}

/// One record from bytes, all of them.
pub(crate) fn decode<T: Codec>(buf: &[u8]) -> R<T> {
    let mut d = Dec::new(buf);
    let v = T::get(&mut d)?;
    d.finish()?;
    Ok(v)
}

// ---------------------------------------------------------------------
// generic impls
// ---------------------------------------------------------------------

macro_rules! le_int {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn put(&self, e: &mut Enc) -> R<()> {
                e.buf.extend_from_slice(&self.to_le_bytes());
                Ok(())
            }
            fn get(d: &mut Dec) -> R<Self> {
                Ok(<$t>::from_le_bytes(d.array()?))
            }
        }
    )*};
}
le_int!(u8, u32, u64, i64);

impl Codec for usize {
    fn put(&self, e: &mut Enc) -> R<()> {
        (*self as u64).put(e)
    }
    fn get(d: &mut Dec) -> R<Self> {
        usize::try_from(u64::get(d)?).map_err(|_| bad("usize"))
    }
}

impl Codec for bool {
    fn put(&self, e: &mut Enc) -> R<()> {
        u8::from(*self).put(e)
    }
    fn get(d: &mut Dec) -> R<Self> {
        match d.tag()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(bad("bool")),
        }
    }
}

impl Codec for f64 {
    fn put(&self, e: &mut Enc) -> R<()> {
        self.to_bits().put(e)
    }
    fn get(d: &mut Dec) -> R<Self> {
        u64::get(d).map(f64::from_bits)
    }
    fn put_seq(items: &[Self], e: &mut Enc) -> R<()> {
        e.f64s(items);
        Ok(())
    }
    fn get_seq(d: &mut Dec) -> R<Vec<Self>> {
        d.f64s()
    }
}

impl Codec for Duration {
    fn put(&self, e: &mut Enc) -> R<()> {
        (self.as_nanos().min(u64::MAX as u128) as u64).put(e)
    }
    fn get(d: &mut Dec) -> R<Self> {
        u64::get(d).map(Duration::from_nanos)
    }
}

impl Codec for () {
    fn put(&self, _: &mut Enc) -> R<()> {
        Ok(())
    }
    fn get(_: &mut Dec) -> R<Self> {
        Ok(())
    }
}

fn put_str(s: &str, e: &mut Enc) -> R<()> {
    s.len().put(e)?;
    e.buf.extend_from_slice(s.as_bytes());
    Ok(())
}

impl Codec for String {
    fn put(&self, e: &mut Enc) -> R<()> {
        put_str(self, e)
    }
    fn get(d: &mut Dec) -> R<Self> {
        let n = d.len()?;
        String::from_utf8(d.take(n)?.to_vec()).map_err(|_| bad("utf-8 string"))
    }
}

/// A dispatch kind travels as its name and comes back as the static
/// [`OptKind::NAMES`] string. A name outside that table is a typed
/// error: a newer peer is already refused by the `WIRE_VERSION`
/// handshake, so only a buggy or hostile one can send it.
impl Codec for &'static str {
    fn put(&self, e: &mut Enc) -> R<()> {
        put_str(self, e)
    }
    fn get(d: &mut Dec) -> R<Self> {
        let s = String::get(d)?;
        (OptKind::NAMES.into_iter())
            .find(|k| *k == s)
            .ok_or_else(|| bad("dispatch kind"))
    }
}

/// The one place nesting is counted: every recursive term (`Fn1`,
/// `Pred`, `Expr`) recurses through a `Box`. The encoder refuses the
/// depth the decoder refuses, so the host rejects an over-deep clause
/// before it spawns anything, and a hostile record is a typed error
/// instead of a stack overflow.
impl<T: Codec> Codec for Box<T> {
    fn put(&self, e: &mut Enc) -> R<()> {
        if e.depth >= MAX_DEPTH {
            return Err(too_deep());
        }
        e.depth += 1;
        let r = (**self).put(e);
        e.depth -= 1;
        r
    }
    fn get(d: &mut Dec) -> R<Self> {
        if d.depth >= MAX_DEPTH {
            return Err(too_deep());
        }
        d.depth += 1;
        let r = T::get(d).map(Box::new);
        d.depth -= 1;
        r
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn put(&self, e: &mut Enc) -> R<()> {
        T::put_seq(self, e)
    }
    fn get(d: &mut Dec) -> R<Self> {
        T::get_seq(d)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn put(&self, e: &mut Enc) -> R<()> {
        match self {
            None => 0u8.put(e),
            Some(v) => {
                1u8.put(e)?;
                v.put(e)
            }
        }
    }
    fn get(d: &mut Dec) -> R<Self> {
        match d.tag()? {
            0 => Ok(None),
            1 => T::get(d).map(Some),
            _ => Err(bad("Option tag")),
        }
    }
}

impl<T: Codec, E: Codec> Codec for Result<T, E> {
    fn put(&self, e: &mut Enc) -> R<()> {
        match self {
            Ok(v) => {
                0u8.put(e)?;
                v.put(e)
            }
            Err(err) => {
                1u8.put(e)?;
                err.put(e)
            }
        }
    }
    fn get(d: &mut Dec) -> R<Self> {
        match d.tag()? {
            0 => T::get(d).map(Ok),
            1 => E::get(d).map(Err),
            _ => Err(bad("Result tag")),
        }
    }
}

macro_rules! tuple {
    ($($t:ident),*) => {
        impl<$($t: Codec),*> Codec for ($($t,)*) {
            #[allow(non_snake_case)]
            fn put(&self, e: &mut Enc) -> R<()> {
                let ($($t,)*) = self;
                $($t.put(e)?;)*
                Ok(())
            }
            fn get(d: &mut Dec) -> R<Self> {
                Ok(($($t::get(d)?,)*))
            }
        }
    };
}
tuple!(A);
tuple!(A, B);
tuple!(A, B, C);
tuple!(A, B, C, D);

/// Maps travel in key order, and decoding is canonical: keys that are
/// not strictly ascending (a duplicate name included) are refused
/// rather than silently overwriting an earlier entry.
impl<T: Codec> Codec for BTreeMap<String, T> {
    fn put(&self, e: &mut Enc) -> R<()> {
        self.len().put(e)?;
        self.iter().try_for_each(|(k, v)| {
            k.put(e)?;
            v.put(e)
        })
    }
    fn get(d: &mut Dec) -> R<Self> {
        let pairs = d.seq(<(String, T)>::get)?;
        if pairs.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(bad("map: keys not strictly ascending"));
        }
        Ok(pairs.into_iter().collect())
    }
}

/// A field whose wire form is not its type's own ([`codec_table!`]'s
/// `field as Adapter`).
trait Adapter<T> {
    fn put(v: &T, e: &mut Enc) -> R<()>;
    fn get(d: &mut Dec) -> R<T>;
}

/// The field's own [`Codec`].
struct Plain;

impl<T: Codec> Adapter<T> for Plain {
    fn put(v: &T, e: &mut Enc) -> R<()> {
        v.put(e)
    }
    fn get(d: &mut Dec) -> R<T> {
        T::get(d)
    }
}

/// `Option<u64>` as a bare `u64`, 0 meaning `None`.
struct ZeroIsNone;

impl Adapter<Option<u64>> for ZeroIsNone {
    fn put(v: &Option<u64>, e: &mut Enc) -> R<()> {
        v.unwrap_or(0).put(e)
    }
    fn get(d: &mut Dec) -> R<Option<u64>> {
        u64::get(d).map(|v| (v > 0).then_some(v))
    }
}

/// `Option<Duration>` as whole milliseconds, 0 meaning `None`.
struct MillisZeroIsNone;

impl Adapter<Option<Duration>> for MillisZeroIsNone {
    fn put(v: &Option<Duration>, e: &mut Enc) -> R<()> {
        let ms = v.map(|d| d.as_millis().min(u128::from(u64::MAX)) as u64);
        ZeroIsNone::put(&ms, e)
    }
    fn get(d: &mut Dec) -> R<Option<Duration>> {
        ZeroIsNone::get(d).map(|ms| ms.map(Duration::from_millis))
    }
}

/// Named float images, the bulk of any record that has them: room for
/// all of them is made once instead of regrowing (and recopying) per
/// array.
struct Images;

impl Adapter<BTreeMap<String, Vec<f64>>> for Images {
    fn put(m: &BTreeMap<String, Vec<f64>>, e: &mut Enc) -> R<()> {
        let bytes = |(name, vs): (&String, &Vec<f64>)| 16 + name.len() + 8 * vs.len();
        e.buf.reserve(8 + m.iter().map(bytes).sum::<usize>());
        m.put(e)
    }
    fn get(d: &mut Dec) -> R<BTreeMap<String, Vec<f64>>> {
        Codec::get(d)
    }
}

/// A node's next image stays in the process that made it: nothing on
/// the wire, `None` off it (a socket worker stages writes instead, and
/// refuses to encode an image rather than drop it).
struct HostOnly;

impl Adapter<Option<Vec<f64>>> for HostOnly {
    fn put(v: &Option<Vec<f64>>, _: &mut Enc) -> R<()> {
        match v {
            None => Ok(()),
            Some(_) => Err(CodecError("a next image never crosses the wire".into())),
        }
    }
    fn get(_: &mut Dec) -> R<Option<Vec<f64>>> {
        Ok(None)
    }
}

// ---------------------------------------------------------------------
// the table
// ---------------------------------------------------------------------

/// Live tags are distinct and never reuse a retired one.
const fn tags_ok(live: &[u8], retired: &[u8]) -> bool {
    let mut i = 0;
    while i < live.len() {
        let mut j = 0;
        while j < live.len() {
            if i != j && live[i] == live[j] {
                return false;
            }
            j += 1;
        }
        j = 0;
        while j < retired.len() {
            if live[i] == retired[j] {
                return false;
            }
            j += 1;
        }
        i += 1;
    }
    true
}

macro_rules! via {
    () => {
        Plain
    };
    ($a:ident) => {
        $a
    };
}

/// Every wire struct (fields in wire order, each optionally `as` an
/// [`Adapter`]) and every wire enum (a `u8` tag per variant, then its
/// fields in wire order; `retired` tags are never reused — checked at
/// compile time — and `refuse` names what cannot travel). Decoding an
/// unknown or retired tag is a typed error.
macro_rules! codec_table {
    (
        structs { $(
            $S:ident $(<$SG:ident>)? { $($f:ident $(as $via:ident)?),* $(,)? }
        )* }
        enums { $(
            $E:ident $(<$EG:ident>)? {
                $($tag:literal $V:ident $(($($p:ident),*))? $({$($vf:ident),*})?),* $(,)?
                $(; retired $($r:literal),*)?
                $(; refuse $rp:pat => $re:expr)?
            }
        )* }
    ) => {
        $(
            impl $(<$SG: Codec>)? Codec for $S $(<$SG>)? {
                fn put(&self, e: &mut Enc) -> R<()> {
                    $(<via!($($via)?) as Adapter<_>>::put(&self.$f, e)?;)*
                    Ok(())
                }
                fn get(d: &mut Dec) -> R<Self> {
                    $(let $f = <via!($($via)?) as Adapter<_>>::get(d)?;)*
                    Ok(Self { $($f),* })
                }
            }
        )*
        $(
            const _: () = assert!(tags_ok(&[$($tag),*], &[$($($r),*)?]));

            // Both directions keep one small frame per level, whichever
            // arm: `put` lists the fields and writes them in one loop,
            // `get` picks the arm's decoder and reads the fields as one
            // tuple. A term nested `MAX_DEPTH` deep then fits a small
            // thread stack even unoptimised.
            impl $(<$EG: Codec>)? Codec for $E $(<$EG>)? {
                fn put(&self, e: &mut Enc) -> R<()> {
                    let (tag, fields): (u8, &[&dyn Codec]) = match self {
                        $(Self::$V $(($($p),*))? $({$($vf),*})? => {
                            ($tag, &[$($($p),*)? $($($vf),*)?])
                        })*
                        $($rp => return Err($re),)?
                    };
                    e.buf.push(tag);
                    for f in fields {
                        f.put(e)?;
                    }
                    Ok(())
                }
                fn get(d: &mut Dec) -> R<Self> {
                    let arm: fn(&mut Dec) -> R<Self> = match d.tag()? {
                        $($tag => |d| {
                            Codec::get(d).map(|($($($p,)*)? $($($vf,)*)?)| {
                                Self::$V $(($($p),*))? $({$($vf),*})?
                            })
                        },)*
                        _ => return Err(bad(concat!(stringify!($E), " tag"))),
                    };
                    arm(d)
                }
            }
        )*

        /// Every retired tag of the table (what the boundary sweep
        /// substitutes beside its boundary bytes).
        #[cfg(test)]
        pub(crate) const RETIRED_TAGS: &[u8] = &[$($($($r,)*)?)*];
    };
}

fn opaque(label: &str) -> CodecError {
    CodecError(format!(
        "predicate `{label}` is an opaque closure — not serializable for \
         process backends (use a structural Pred, or the in-process transport)"
    ))
}

codec_table! {
    structs {
        DimFn { src, f }
        ArrayRef { array, map }
        IndexSet { bounds, pred }
        Clause { iter, ordering, guard, lhs, rhs }
        CrashFault { node, after_packets }
        FaultPlan {
            seed, drop, duplicate, reorder, corrupt, delay, from_only, drop_exact, crash,
        }
        RetryPolicy { max_retries, nack_timeout, backoff_cap, deadline, jitter_pct }
        Packet<T> { src, seq, corrupt, payload }
        NodeStats {
            iterations, guard_tests, data_guards, msgs_sent, msgs_received, local_reads,
            packets_sent, bytes_sent, max_packet_elems, retransmits, dups_dropped,
            corrupt_detected, acks_sent, nacks_sent, drain_cap_expired, simd_runs,
            simd_fallback_runs, simd_lane_elems, simd_tail_elems, simd_lanes,
        }
        JobMsg {
            run_id, clauses, decomps, recv_timeout, faults, retry, trace_on, handshake, lossy,
            locals as Images,
        }
        JobReply { image as HostOnly, writes, stats, sent_to, res, events, timings }
        WaveReply { jobs, drain_events, drain_timings }
        ResultMsg { run_id, p, reply }
        TuneOptions { budget, profile_steps, retune_every as ZeroIsNone }
        ServeRequest {
            n_steps, schedule, autotune, tune, deadline as MillisZeroIsNone, steps, decomps,
            globals as Images,
        }
        ServiceStats {
            queue_wait_ns, sessions_served, plan_hits, plan_misses, dag_hits, dag_misses,
            evictions,
        }
        RespOk { globals as Images, service }
        RespMsg { req_id, res }
    }
    enums {
        Fn1 {
            0 Const(c), 1 Affine { a, c }, 2 Mod { inner, z, d }, 3 Div { inner, q },
            4 Sum(a, b), 5 Square(inner), 6 Scaled { a, c, inner },
        }
        CmpOp { 0 Eq, 1 Ne, 2 Lt, 3 Le, 4 Gt, 5 Ge }
        BinOp { 0 Add, 1 Sub, 2 Mul, 3 Div, 4 Min, 5 Max }
        Pred {
            0 True, 1 False, 2 Cmp { dim, f, op, rhs }, 3 DimCmp { dim_a, op, dim_b },
            4 And(a, b), 5 Or(a, b), 6 Not(a);
            refuse Pred::Opaque { label, .. } => opaque(label)
        }
        Expr { 0 Ref(r), 1 Lit(v), 2 LoopVar { dim }, 3 Neg(a), 4 Bin(op, a, b) }
        Guard { 0 Always, 1 Cmp { lhs, op, rhs } }
        Ordering { 0 Seq, 1 Par }
        Distribution { 0 Block { b }, 1 Scatter, 2 BlockScatter { b }, 3 Replicated }
        Frame<T> {
            0 Data(p), 1 Ack { from, next_needed }, 2 Nack { from, next_needed },
            3 Done { from },
        }
        WriteOp { 0 El(off, v), 1 Dense { base, values } }
        Phase { 0 Plan, 1 Send, 2 Update, 3 Drain, 4 Commit, 5 Redistribute, 6 Halo }
        EventKind {
            0 PhaseStart(p), 1 PhaseEnd(p), 2 ModifyDispatch { kind, closed_form },
            3 ResideDispatch { slot, array, kind, closed_form },
            4 PackSend { dst, run, elems, bytes }, 6 RecvValue { src, slot, i },
            7 InteriorRun { run, elems }, 8 BoundaryRun { run, elems, recvs },
            9 SimdCensus { vector_runs, fallback_runs, lane_elems, tail_elems },
            13 Retransmit { dst }, 14 Ack { dst }, 15 Nack { peer }, 16 DupDropped { src },
            17 CorruptDetected { src }, 18 Backoff { peer }, 19 DagReady { step },
            20 ClauseBegin { step }, 21 ClauseEnd { step };
            retired 5, 10, 11, 12
        }
        MachineError {
            0 SequentialClause, 1 UnknownArray(a), 2 MissingMessage { node, array, index },
            3 MissingPacket { node, peer, slot, run }, 4 Unrecoverable { node, peer, retries },
            5 NodePanicked { node }, 6 PeerDisconnected { node, peer }, 7 PlanMismatch(m),
            8 Transport { node, detail },
        }
        Ctrl { 0 Job(j), 1 Ready(run_id), 2 Go, 3 Result(r), 4 Shutdown }
        ProgramStep { 0 Clause(c), 1 Redistribute { array, to } }
        ScheduleMode { 0 Seq, 1 Dag }
    }
}

// ---------------------------------------------------------------------
// types whose decoding validates
// ---------------------------------------------------------------------

/// 1..=[`MAX_DIMS`] coordinates.
impl Codec for Ix {
    fn put(&self, e: &mut Enc) -> R<()> {
        i64::put_seq(self.coords(), e)
    }
    fn get(d: &mut Dec) -> R<Self> {
        let coords = Vec::<i64>::get(d)?;
        if !(1..=MAX_DIMS).contains(&coords.len()) {
            return Err(bad("Ix dimension count"));
        }
        Ok(Ix::new(&coords))
    }
}

/// Corners of one dimensionality, and a point count every axis can
/// state in `i64` (`hi - lo + 1` used to overflow in `Bounds::count`).
impl Codec for Bounds {
    fn put(&self, e: &mut Enc) -> R<()> {
        self.lo().put(e)?;
        self.hi().put(e)
    }
    fn get(d: &mut Dec) -> R<Self> {
        let (lo, hi) = <(Ix, Ix)>::get(d)?;
        if lo.dims() != hi.dims() {
            return Err(bad("Bounds dimension mismatch"));
        }
        let width = |k: usize| hi[k].checked_sub(lo[k]).and_then(|w| w.checked_add(1));
        if (0..lo.dims()).any(|k| lo[k] <= hi[k] && width(k).is_none()) {
            return Err(bad("Bounds extent beyond i64"));
        }
        Ok(Bounds::new(lo, hi))
    }
}

/// At least one output dimension, each reading an input dimension that
/// exists (`IndexMap::new` panics otherwise).
impl Codec for IndexMap {
    fn put(&self, e: &mut Enc) -> R<()> {
        self.d_in().put(e)?;
        DimFn::put_seq(self.dims(), e)
    }
    fn get(d: &mut Dec) -> R<Self> {
        let d_in = usize::get(d)?;
        let dims = Vec::<DimFn>::get(d)?;
        if dims.is_empty() || dims.iter().any(|df| df.src >= d_in) {
            return Err(bad("IndexMap source dimension"));
        }
        Ok(IndexMap::new(d_in, dims))
    }
}

/// What [`Decomp1::try_new`] accepts, on at most 4096 processors.
impl Codec for Decomp1 {
    fn put(&self, e: &mut Enc) -> R<()> {
        self.dist().put(e)?;
        self.pmax().put(e)?;
        self.extent().put(e)
    }
    fn get(d: &mut Dec) -> R<Self> {
        let dist = Distribution::get(d)?;
        let pmax = i64::get(d)?;
        if !(1..=4096).contains(&pmax) {
            return Err(bad("Decomp1 processor count"));
        }
        let extent = Bounds::get(d)?;
        Decomp1::try_new(dist, pmax, extent)
            .map_err(|e| CodecError(format!("malformed Decomp1: {e}")))
    }
}

/// Payload tag 1 is the packet; tag 0 was the per-element message of
/// wire version 1 and stays retired.
impl Codec for Wire {
    fn put(&self, e: &mut Enc) -> R<()> {
        e.buf.push(1);
        self.run_ord.put(e)?;
        e.f64s(&self.values);
        Ok(())
    }
    fn get(d: &mut Dec) -> R<Self> {
        match d.tag()? {
            1 => Ok(Wire {
                run_ord: usize::get(d)?,
                values: d.f64s()?.into(),
            }),
            _ => Err(bad("Wire tag")),
        }
    }
}

// ---------------------------------------------------------------------
// messages
// ---------------------------------------------------------------------

/// Everything a worker needs to run one node of one wave. The worker
/// rebuilds each clause's `SpmdPlan` (and its compiled schedule) from
/// the clause and decompositions via the deterministic planner, so the
/// host and every worker agree on packing order by construction.
#[derive(Debug, Clone)]
pub(crate) struct JobMsg {
    /// Monotonic per-pool run ordinal. Job dispatch is *idempotent*: the
    /// host may re-send the same job while the run is open (chaos can
    /// eat a control frame in a severed connection's buffers), and the
    /// worker answers a duplicate of a finished run by re-shipping the
    /// cached result instead of re-executing.
    pub run_id: u64,
    /// The wave's clauses, in program-ordinal order.
    pub clauses: Vec<Clause>,
    /// The decomposition of every array the wave references.
    pub decomps: BTreeMap<String, Decomp1>,
    pub recv_timeout: Duration,
    pub faults: Option<FaultPlan>,
    pub retry: RetryPolicy,
    pub trace_on: bool,
    /// Purge + Ready/Go barrier before the run (mirrors the in-process
    /// pool's dirty handshake).
    pub handshake: bool,
    /// The wave may lose frames ([`crate::executor::WaveCtx::lossy`]):
    /// the worker cannot see the host's chaos plan, so the job says so.
    pub lossy: bool,
    /// The node's part of every array the wave references, in
    /// decomposition layout.
    pub locals: BTreeMap<String, Vec<f64>>,
}

/// What a worker ships back after a wave: the [`WaveReply`] a pooled
/// thread hands the host, as the node built it.
#[derive(Debug, Clone)]
pub(crate) struct ResultMsg {
    /// Echo of [`JobMsg::run_id`] — the host drops results from stale
    /// runs (a re-shipped duplicate answering a retransmitted job).
    pub run_id: u64,
    pub p: i64,
    pub reply: WaveReply,
}

/// A control-plane message (reliable by the stream transport itself;
/// never touched by `FaultPlan` or the chaos proxy).
#[derive(Debug, Clone)]
pub(crate) enum Ctrl {
    Job(Box<JobMsg>),
    /// Barrier acknowledgment: the worker purged and holds the job with
    /// this run ordinal. Doubles as job-delivery confirmation, so the
    /// host knows a retransmit is unnecessary.
    Ready(u64),
    Go,
    Result(Box<ResultMsg>),
    /// Host-initiated graceful worker shutdown (pool teardown).
    Shutdown,
}

/// A successful serve response: final global images plus what the
/// service's shared caches and admission queue did for this request.
#[derive(Debug, Clone)]
pub(crate) struct RespOk {
    /// Final global image per array, flattened over the 1-D extent.
    pub globals: BTreeMap<String, Vec<f64>>,
    /// Service-level counters for this request.
    pub service: ServiceStats,
}

/// One serve response, success or typed failure.
#[derive(Debug, Clone)]
pub(crate) struct RespMsg {
    /// Echo of the request's id.
    pub req_id: u64,
    /// The outcome.
    pub res: Result<RespOk, MachineError>,
}

/// A serve request on the wire: the client-chosen id, then the
/// [`ServeRequest`] itself — encoded from the client's borrow, decoded
/// by the service as `(u64, ServeRequest)`.
pub(crate) fn encode_request(req_id: u64, req: &ServeRequest) -> R<Vec<u8>> {
    let mut e = Enc::new();
    req_id.put(&mut e)?;
    req.put(&mut e)?;
    Ok(e.buf)
}

#[cfg(test)]
pub(crate) mod tests;
