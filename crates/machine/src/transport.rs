//! Reliable transport layer under the distributed machines.
//!
//! The Section 2.10 template assumes a lossless network: every
//! `Reside_p ∩ Modify_q` element arrives exactly once, so the executors
//! historically treated any lost message as fatal. This module replaces
//! the bare channels with a small reliability protocol so that runs
//! survive realistic transient faults and degrade into *typed errors*
//! (never hangs, never host aborts) when a fault is permanent:
//!
//! * every data payload travels as a [`Packet`]: per-flow **sequence
//!   number** (one flow per ordered `(src, dst)` node pair) plus an
//!   FNV-1a **checksum** over the header and payload;
//! * the receiver keeps per-source cumulative state: duplicates are
//!   suppressed (`dups_dropped`), out-of-order arrivals are tolerated
//!   (accepted into a `seen-ahead` window), and checksum mismatches are
//!   counted (`corrupt_detected`) and treated as losses;
//! * every accepted packet is acknowledged (cumulative [`Frame::Ack`],
//!   `acks_sent`) so the sender can prune its retransmit buffer;
//! * a receiver that is owed a value and does not get it within
//!   [`RetryPolicy::nack_timeout`] sends a [`Frame::Nack`] carrying its
//!   cumulative `next_needed` sequence number; the sender answers by
//!   retransmitting every retained packet from that number on
//!   (go-back-N flavoured, `retransmits`). NACKs back off
//!   exponentially up to [`RetryPolicy::backoff_cap`] and give up after
//!   [`RetryPolicy::max_retries`] attempts;
//! * when a node finishes (or fails) it broadcasts [`Frame::Done`] and
//!   *drains*: it keeps servicing NACKs until every peer has announced
//!   completion (or a timeout cap expires), so late retransmit requests
//!   are still answered. A panicked node announces `Done` — the analog
//!   of a TCP reset — but services nothing further.
//!
//! Control frames (ack/nack/done) are modeled as reliable; the fault
//! plan applies to the data plane only. Retransmissions pass through
//! the drop/corrupt faults again, so a *persistent* fault exhausts the
//! retry budget and surfaces as `MachineError::Unrecoverable`.
//!
//! Faults are injected deterministically by a seed-driven [`FaultPlan`]:
//! each node derives an independent SplitMix64 stream from
//! `seed ⊕ node`, and classifies every outgoing data packet as one of
//! drop / duplicate / reorder / corrupt / delay (or none). Reordered
//! packets are held back one send slot; delayed packets are held until
//! the end of the node's send phase. A [`CrashFault`] panics the node
//! thread mid-send-phase — the supervisor in the machines catches it
//! and reports `MachineError::NodePanicked`.

use crate::obs::{EventKind, Tracer};
use crate::stats::NodeStats;
use std::collections::{BTreeSet, VecDeque};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::time::{Duration, Instant};

/// A payload type that can travel as a checksummed packet.
pub(crate) trait WirePayload: Clone {
    /// Fold the payload into a 64-bit digest (checksum input).
    fn digest(&self) -> u64;
    /// Flip payload bits (fault injection); must change [`digest`]
    /// whenever the payload carries at least one value.
    ///
    /// [`digest`]: WirePayload::digest
    fn corrupt(&mut self, bits: u64);
}

/// Which carrier moves frames between node endpoints.
///
/// The reliability protocol (sequence numbers, checksums, NACK/go-back-N,
/// fault injection, trace events) is written entirely against
/// [`Endpoint`]; the carrier underneath is pluggable. `InProc` is the
/// historical in-process `mpsc` mesh; `Uds`/`Tcp` run every node as a
/// real OS process exchanging length-prefixed frames over Unix-domain or
/// TCP sockets through a host-side router (see `DESIGN.md` §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process `mpsc` channels between node threads (default).
    #[default]
    InProc,
    /// Unix-domain sockets between worker OS processes.
    Uds,
    /// Loopback TCP sockets between worker OS processes.
    Tcp,
}

impl TransportKind {
    /// Stable lower-case name (CLI flag value / CI matrix key).
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::InProc => "inproc",
            TransportKind::Uds => "uds",
            TransportKind::Tcp => "tcp",
        }
    }

    /// Parse a CLI flag value.
    pub fn parse(s: &str) -> Option<TransportKind> {
        match s {
            "inproc" => Some(TransportKind::InProc),
            "uds" => Some(TransportKind::Uds),
            "tcp" => Some(TransportKind::Tcp),
            _ => None,
        }
    }
}

/// The carrier abstraction under one node's [`Endpoint`]: physically
/// moves [`Frame`]s between nodes without knowing anything about the
/// reliability protocol above it. A carrier is allowed to be lossy,
/// reordering, or duplicating — the protocol recovers (or degrades into
/// typed errors); a carrier must never *invent* frames.
pub(crate) trait Transport<T> {
    /// Number of nodes on the interconnect (including this one).
    fn peer_count(&self) -> usize;
    /// Best-effort delivery of one frame to `dst`. A carrier failure
    /// (peer gone, socket error) is indistinguishable from a lost
    /// packet; the protocol's NACK path retries or reports.
    fn send(&mut self, dst: usize, frame: Frame<T>);
    /// Wait up to `slice` for one inbound frame; `None` on timeout.
    fn recv(&mut self, slice: Duration) -> Option<Frame<T>>;
    /// Discard every frame already queued toward this endpoint (used
    /// under the steady-state executor's purge barrier after a dirty
    /// run).
    fn purge(&mut self);
}

/// The in-process carrier: an `mpsc` sender per peer plus this node's
/// receiver — exactly the mesh the machines always used, now behind the
/// [`Transport`] seam.
pub(crate) struct ChannelTransport<T> {
    txs: Vec<Sender<Frame<T>>>,
    rx: Receiver<Frame<T>>,
}

impl<T> ChannelTransport<T> {
    pub(crate) fn new(txs: Vec<Sender<Frame<T>>>, rx: Receiver<Frame<T>>) -> ChannelTransport<T> {
        ChannelTransport { txs, rx }
    }
}

impl<T> Transport<T> for ChannelTransport<T> {
    fn peer_count(&self) -> usize {
        self.txs.len()
    }

    fn send(&mut self, dst: usize, frame: Frame<T>) {
        if let Some(tx) = self.txs.get(dst) {
            let _ = tx.send(frame); // a hung-up peer is a lossy wire
        }
    }

    fn recv(&mut self, slice: Duration) -> Option<Frame<T>> {
        wait(&self.rx, slice).or_else(|| match self.rx.try_recv() {
            Err(TryRecvError::Disconnected) => {
                // all senders gone — sleep out the slice instead of
                // spinning, then let the caller's deadline logic decide
                std::thread::sleep(slice);
                None
            }
            late => late.ok(),
        })
    }

    fn purge(&mut self) {
        while self.rx.try_recv().is_ok() {}
    }
}

/// How long [`wait`] spins before it parks: about what one futex wake
/// costs on a small host (15–20 µs on 2 vCPUs, DESIGN §12). A wait that
/// ends inside it costs no thread hand-off; a longer spin only burns a
/// core that another node could use.
pub(crate) const SPIN: Duration = Duration::from_micros(20);

/// The one wait on an in-process channel — a node's job channel, a
/// node's data channel ([`ChannelTransport`]), the host's event channel:
/// poll for up to [`SPIN`], then park for what is left of `slice`. `None`
/// on timeout, and at once when every sender is gone. A queued value
/// costs no clock read.
pub(crate) fn wait<T>(rx: &Receiver<T>, slice: Duration) -> Option<T> {
    let mut t0 = None;
    loop {
        match rx.try_recv() {
            Ok(value) => return Some(value),
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) => {}
        }
        let spun = t0.get_or_insert_with(Instant::now).elapsed();
        if spun >= SPIN.min(slice) {
            return rx.recv_timeout(slice.saturating_sub(spun)).ok();
        }
        std::hint::spin_loop();
    }
}

/// SplitMix64 step — the deterministic stream behind fault draws.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Map a raw draw to a uniform f64 in `[0, 1)`.
pub(crate) fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// FNV-1a over a word sequence — the packet checksum.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Clamp a fault probability into `[0, 1]`; `NaN` maps to `0` (a NaN
/// never compares below the accumulated threshold, so accepting it
/// would silently disable the draw — make that explicit instead).
pub(crate) fn clamp_prob(p: f64) -> f64 {
    if p.is_nan() {
        0.0
    } else {
        p.clamp(0.0, 1.0)
    }
}

/// Checksum of one packet: header (source, sequence) plus payload digest.
fn packet_digest<T: WirePayload>(src: i64, seq: u64, payload: &T) -> u64 {
    fnv1a([src as u64, seq, payload.digest()])
}

/// A sequence-numbered, checksummed wire packet.
#[derive(Debug, Clone)]
pub(crate) struct Packet<T> {
    /// Sending node.
    pub src: i64,
    /// Position in the `(src, dst)` flow, starting at 0.
    pub seq: u64,
    /// [`packet_digest`] over header + payload, computed at send time.
    pub check: u64,
    /// The machine-level message.
    pub payload: T,
}

/// Everything that travels on a node channel.
#[derive(Debug, Clone)]
pub(crate) enum Frame<T> {
    /// A data packet.
    Data(Packet<T>),
    /// Cumulative acknowledgement: `from` has every packet with
    /// `seq < next_needed` on this flow.
    Ack { from: i64, next_needed: u64 },
    /// Retransmit request: `from` is missing packets from
    /// `next_needed` on; resend everything retained from there.
    Nack { from: i64, next_needed: u64 },
    /// `from` has finished its run (successfully or not) and will
    /// never send another NACK.
    Done { from: i64 },
}

/// A node crash injected at a deterministic point of the send phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashFault {
    /// The node that crashes.
    pub node: i64,
    /// Crash fires at the first wire send once the node has already put
    /// this many data packets on the wire — or at the end of its send
    /// phase if it never sends that many.
    pub after_packets: u64,
}

/// Deterministic, seed-driven fault plan for the data plane.
///
/// Every outgoing data packet of node `p` is classified by `p`'s own
/// SplitMix64 stream (derived from `seed` and `p`, so plans are
/// reproducible and independent of thread scheduling) as dropped,
/// duplicated, reordered, corrupted, delayed, or delivered normally.
/// Rates are per-packet probabilities; their sum should stay ≤ 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the per-node fault streams.
    pub seed: u64,
    /// Probability a packet is silently dropped.
    pub drop: f64,
    /// Probability a packet is delivered twice.
    pub duplicate: f64,
    /// Probability a packet is swapped with the node's next send.
    pub reorder: f64,
    /// Probability a payload bit is flipped in flight (the checksum
    /// still reflects the original payload, so the receiver detects it).
    pub corrupt: f64,
    /// Probability a packet is held back until the end of the node's
    /// send phase.
    pub delay: f64,
    /// Restrict the random faults to packets sent *by* this node.
    pub from_only: Option<i64>,
    /// Deterministically drop the `n`-th (0-based, first transmissions
    /// only) data packet of one node: `(node, n)`.
    pub drop_exact: Option<(i64, u64)>,
    /// Crash one node mid-run.
    pub crash: Option<CrashFault>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults — combine with the
    /// `with_*` builders.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            corrupt: 0.0,
            delay: 0.0,
            from_only: None,
            drop_exact: None,
            crash: None,
        }
    }

    /// Set the per-packet drop probability. Values outside `[0, 1]` are
    /// clamped into the interval; `NaN` is treated as `0` (no faults).
    pub fn with_drop(mut self, p: f64) -> FaultPlan {
        self.drop = clamp_prob(p);
        self
    }

    /// Set the per-packet duplication probability. Values outside
    /// `[0, 1]` are clamped into the interval; `NaN` is treated as `0`.
    pub fn with_duplicate(mut self, p: f64) -> FaultPlan {
        self.duplicate = clamp_prob(p);
        self
    }

    /// Set the per-packet reorder probability. Values outside `[0, 1]`
    /// are clamped into the interval; `NaN` is treated as `0`.
    pub fn with_reorder(mut self, p: f64) -> FaultPlan {
        self.reorder = clamp_prob(p);
        self
    }

    /// Set the per-packet corruption probability. Values outside
    /// `[0, 1]` are clamped into the interval; `NaN` is treated as `0`.
    pub fn with_corrupt(mut self, p: f64) -> FaultPlan {
        self.corrupt = clamp_prob(p);
        self
    }

    /// Set the per-packet delay probability. Values outside `[0, 1]`
    /// are clamped into the interval; `NaN` is treated as `0`.
    pub fn with_delay(mut self, p: f64) -> FaultPlan {
        self.delay = clamp_prob(p);
        self
    }

    /// Restrict the random faults to one sending node.
    pub fn with_from_only(mut self, node: i64) -> FaultPlan {
        self.from_only = Some(node);
        self
    }

    /// Crash `node` once it has put `after_packets` packets on the wire
    /// (or at the end of its send phase, whichever comes first).
    pub fn with_crash(mut self, node: i64, after_packets: u64) -> FaultPlan {
        self.crash = Some(CrashFault {
            node,
            after_packets,
        });
        self
    }

    /// Drop exactly the `nth` (0-based send order) data packet of
    /// `from`, once. With retries enabled this is a transient
    /// fault the transport recovers from; with [`RetryPolicy::none`] it
    /// reproduces the legacy `MissingMessage` / `MissingPacket` error.
    pub fn drop_nth(from: i64, nth: u64) -> FaultPlan {
        let mut p = FaultPlan::seeded(0);
        p.drop_exact = Some((from, nth));
        p
    }
}

/// How hard a receiver tries to recover a missing packet before giving
/// up with `MachineError::Unrecoverable`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum NACKs sent per awaited value. `0` disables recovery and
    /// restores the legacy wait-full-timeout-then-fail behavior.
    pub max_retries: u32,
    /// How long a receiver waits for an owed value before its first
    /// NACK; subsequent NACKs back off exponentially.
    pub nack_timeout: Duration,
    /// Upper bound of the exponential backoff between NACKs.
    pub backoff_cap: Duration,
    /// Total wall-clock budget for one awaited value, *including* every
    /// NACK/backoff cycle. `None` bounds the wait only by the machine's
    /// receive timeout; `Some(d)` caps it at `min(d, recv_timeout)`, so
    /// a stalled flow cannot hang for `max_retries × backoff_cap` when
    /// the caller intended a tighter deadline.
    pub deadline: Option<Duration>,
    /// Deterministic backoff jitter in percent of the interval
    /// (`0..=100`): each backoff wait is scaled by a factor drawn from
    /// `[1 − jitter_pct/100, 1]` using a hash of `(peer, attempt)`, so
    /// same-configuration runs jitter identically on every transport
    /// and peers never synchronize their NACK storms. `0` disables
    /// jitter (the historical behavior).
    pub jitter_pct: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 5,
            nack_timeout: Duration::from_millis(40),
            backoff_cap: Duration::from_millis(320),
            deadline: None,
            jitter_pct: 0,
        }
    }
}

impl RetryPolicy {
    /// Disable recovery entirely: no NACKs are ever sent, so a missing
    /// value is only discovered when the *full* machine receive timeout
    /// ([`recv_timeout`] on the run options) expires, and it then
    /// surfaces as the legacy `MissingMessage`/`MissingPacket` error
    /// instead of `Unrecoverable`. [`RetryPolicy::deadline`] still
    /// applies if set (it can only shorten the wait, never extend it);
    /// [`RetryPolicy::jitter_pct`] is irrelevant because no backoff
    /// cycle ever runs. This reproduces the pre-transport detect-only
    /// semantics — use it when a lost message should fail fast and
    /// loudly rather than be repaired.
    ///
    /// [`recv_timeout`]: crate::DistOptions::recv_timeout
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// A fast policy for tests: short NACK timeout, small cap.
    pub fn fast() -> RetryPolicy {
        RetryPolicy {
            max_retries: 6,
            nack_timeout: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(80),
            ..RetryPolicy::default()
        }
    }

    /// Set the total wall-clock deadline (builder form).
    pub fn with_deadline(mut self, d: Duration) -> RetryPolicy {
        self.deadline = Some(d);
        self
    }

    /// Set the backoff jitter percentage (builder form; clamped to 100).
    pub fn with_jitter(mut self, pct: u32) -> RetryPolicy {
        self.jitter_pct = pct.min(100);
        self
    }
}

/// Service-level protocol timeouts for the socket backends.
///
/// These used to be compile-time constants (`HEARTBEAT_IVL`,
/// `SPAWN_DEADLINE`, `RUN_GRACE`, `RESEND_IVL`), which meant a resident
/// service could not tighten its failure detection without recompiling.
/// They now travel on [`crate::DistOptions`]: the per-run machinery
/// reads them from the options, the worker processes receive the
/// heartbeat interval on their command line, and `vcalc serve` installs
/// [`ProtoTimeouts::service`] to fail fast on wedged workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtoTimeouts {
    /// How often an idle worker emits a heartbeat frame (keeps
    /// chaos-stalled links honest and the router's reader warm).
    pub heartbeat_ivl: Duration,
    /// How long the host waits for every spawned worker's HELLO.
    pub spawn_deadline: Duration,
    /// Slack added on top of the retry budget before the host declares
    /// a run collection dead.
    pub run_grace: Duration,
    /// How long a dispatched job may go unacknowledged before the host
    /// re-sends it (idempotent — workers dedupe by `run_id`).
    pub resend_ivl: Duration,
}

impl Default for ProtoTimeouts {
    fn default() -> Self {
        ProtoTimeouts {
            heartbeat_ivl: Duration::from_millis(200),
            spawn_deadline: Duration::from_secs(10),
            run_grace: Duration::from_secs(30),
            resend_ivl: Duration::from_secs(1),
        }
    }
}

impl ProtoTimeouts {
    /// The tightened profile a resident service uses: a wedged worker
    /// or a lost job is detected in hundreds of milliseconds instead of
    /// tens of seconds, so one bad request cannot head-of-line-block
    /// the admission queue for long.
    pub fn service() -> ProtoTimeouts {
        ProtoTimeouts {
            heartbeat_ivl: Duration::from_millis(100),
            spawn_deadline: Duration::from_secs(5),
            run_grace: Duration::from_secs(5),
            resend_ivl: Duration::from_millis(250),
        }
    }
}

/// Deterministically jitter one backoff interval: scale by a factor in
/// `[1 − pct/100, 1]` derived from a hash of `(peer, attempt)`. Pure —
/// the same `(policy, peer, attempt)` always waits the same time, so
/// seeded runs stay reproducible across transports and schedulers.
pub(crate) fn jittered_backoff(backoff: Duration, pct: u32, peer: i64, attempt: u32) -> Duration {
    if pct == 0 {
        return backoff;
    }
    let u = unit_f64(fnv1a([peer as u64, attempt as u64]));
    let frac = f64::from(pct.min(100)) / 100.0;
    backoff.mul_f64(1.0 - frac * u)
}

/// What a packet classification decided.
enum FaultKind {
    Clean,
    Drop,
    Duplicate,
    Reorder,
    Corrupt,
    Delay,
}

/// Per-node fault stream state.
struct FaultState {
    plan: FaultPlan,
    rng: u64,
    /// First transmissions attempted so far by this node.
    sent: u64,
}

impl FaultState {
    fn new(plan: FaultPlan, p: i64) -> FaultState {
        // decorrelate node streams without losing determinism
        let mut s = plan.seed ^ (p as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let _ = splitmix64(&mut s);
        FaultState {
            plan,
            rng: s,
            sent: 0,
        }
    }

    fn draw(&mut self) -> u64 {
        splitmix64(&mut self.rng)
    }

    /// Classify the next first-transmission packet of node `p`;
    /// panics when the crash fault fires here.
    fn classify(&mut self, p: i64) -> FaultKind {
        if let Some(c) = self.plan.crash {
            if c.node == p && self.sent >= c.after_packets {
                panic!("injected node crash (node {p})");
            }
        }
        let n = self.sent;
        self.sent += 1;
        if self.plan.drop_exact == Some((p, n)) {
            return FaultKind::Drop;
        }
        if self.plan.from_only.is_some_and(|f| f != p) {
            return FaultKind::Clean;
        }
        let u = unit_f64(self.draw());
        let mut acc = self.plan.drop;
        if u < acc {
            return FaultKind::Drop;
        }
        acc += self.plan.duplicate;
        if u < acc {
            return FaultKind::Duplicate;
        }
        acc += self.plan.reorder;
        if u < acc {
            return FaultKind::Reorder;
        }
        acc += self.plan.corrupt;
        if u < acc {
            return FaultKind::Corrupt;
        }
        acc += self.plan.delay;
        if u < acc {
            return FaultKind::Delay;
        }
        FaultKind::Clean
    }

    /// Classify a retransmission: only drop/corrupt apply (so a
    /// persistent fault keeps biting, but retransmits are never
    /// reordered or held back).
    fn classify_retransmit(&mut self, p: i64) -> FaultKind {
        if self.plan.from_only.is_some_and(|f| f != p) {
            return FaultKind::Clean;
        }
        let u = unit_f64(self.draw());
        if u < self.plan.drop {
            FaultKind::Drop
        } else if u < self.plan.drop + self.plan.corrupt {
            FaultKind::Corrupt
        } else {
            FaultKind::Clean
        }
    }

    /// Crash point at the end of the send phase: guarantees a
    /// configured crash fires even if the node sent too few packets to
    /// reach its `after_packets` threshold.
    fn crash_at_phase_end(&self, p: i64) {
        if let Some(c) = self.plan.crash {
            if c.node == p {
                panic!("injected node crash (node {p}, end of send phase)");
            }
        }
    }
}

/// A packet held back by a reorder/delay fault.
struct Stashed<T> {
    dst: usize,
    pkt: Packet<T>,
    /// How many more sends to wait before flushing; `None` = hold
    /// until the end of the send phase.
    countdown: Option<u32>,
}

/// What one serviced frame produced.
pub(crate) enum Step<T> {
    /// A fresh (never-seen, checksum-valid) data payload from `src` —
    /// the machine must stage it. `seq` is the sender-assigned per-flow
    /// sequence number: frames may surface out of order under reorder
    /// faults, so consumers that demultiplex one flow into sub-streams
    /// (e.g. wave jobs) must route by `seq`, never by arrival count.
    Fresh { src: i64, seq: u64, payload: T },
    /// A control frame, duplicate, or corrupt packet — handled
    /// internally.
    Handled,
    /// Nothing arrived within the poll slice.
    TimedOut,
}

/// Why an awaited value could not be produced.
pub(crate) enum AwaitFail {
    /// Recovery disabled (`max_retries == 0`) and the receive timeout
    /// expired — the legacy failure mode.
    Timeout,
    /// The NACK/retransmit budget was exhausted.
    Exhausted {
        /// NACKs sent before giving up.
        retries: u32,
    },
    /// The wire carried something the mode/plan does not account for.
    BadWire(&'static str),
}

/// One node's endpoint of the reliable transport: sender-side flows
/// (sequence numbers + retransmit buffers, one per destination),
/// receiver-side flows (cumulative dedup + reorder windows, one per
/// source), fault injection, and the completion map.
pub(crate) struct Endpoint<'t, T: WirePayload> {
    p: i64,
    link: Box<dyn Transport<T> + Send + 't>,
    next_seq: Vec<u64>,
    retained: Vec<VecDeque<Packet<T>>>,
    recv_next: Vec<u64>,
    recv_ahead: Vec<BTreeSet<u64>>,
    done: Vec<bool>,
    stash: Vec<Stashed<T>>,
    faults: Option<FaultState>,
    tracer: Box<dyn Tracer + Send + 't>,
    /// Cached [`Tracer::enabled`] so the per-frame hot path pays one
    /// branch when tracing is off.
    trace_on: bool,
}

impl<'t, T: WirePayload> Endpoint<'t, T> {
    /// Build the endpoint of node `p` over any frame carrier. The
    /// tracer is borrowed, or shared by `Arc` where the endpoint lives as
    /// long as its owner's buffer (node 0 of the thread link).
    pub(crate) fn new(
        p: i64,
        link: Box<dyn Transport<T> + Send + 't>,
        faults: Option<FaultPlan>,
        tracer: impl Tracer + Send + 't,
    ) -> Endpoint<'t, T> {
        let n = link.peer_count();
        let mut done = vec![false; n];
        if let Some(d) = done.get_mut(p as usize) {
            *d = true; // a node never waits on itself
        }
        Endpoint {
            p,
            link,
            next_seq: vec![0; n],
            retained: (0..n).map(|_| VecDeque::new()).collect(),
            recv_next: vec![0; n],
            recv_ahead: (0..n).map(|_| BTreeSet::new()).collect(),
            done,
            stash: Vec::new(),
            faults: faults.map(|f| FaultState::new(f, p)),
            trace_on: tracer.enabled(),
            tracer: Box::new(tracer),
        }
    }

    /// Build the endpoint of node `p` over the in-process channel mesh
    /// (the historical constructor shape).
    pub(crate) fn in_proc(
        p: i64,
        txs: Vec<Sender<Frame<T>>>,
        rx: Receiver<Frame<T>>,
        faults: Option<FaultPlan>,
        tracer: impl Tracer + Send + 't,
    ) -> Endpoint<'t, T>
    where
        T: Send + 'static,
    {
        Endpoint::new(p, Box::new(ChannelTransport::new(txs, rx)), faults, tracer)
    }

    /// Number of nodes on the interconnect (including this one).
    pub(crate) fn peer_count(&self) -> usize {
        self.link.peer_count()
    }

    /// Discard every frame already queued toward this node (steady-state
    /// purge barrier after a dirty run).
    pub(crate) fn purge_link(&mut self) {
        self.link.purge();
    }

    /// Return the endpoint to its just-constructed state for reuse by a
    /// persistent worker: sequence numbers and cumulative-ack windows
    /// restart at zero, retained/stashed packets and completion flags
    /// are discarded, and the fault stream is rebuilt from `faults` so a
    /// warm run reproduces exactly the fault sequence a cold run with
    /// the same plan would see. Nothing is reallocated beyond clearing.
    pub(crate) fn reset(&mut self, faults: Option<FaultPlan>, trace_on: bool) {
        for s in &mut self.next_seq {
            *s = 0;
        }
        for r in &mut self.retained {
            r.clear();
        }
        for r in &mut self.recv_next {
            *r = 0;
        }
        for a in &mut self.recv_ahead {
            a.clear();
        }
        for d in &mut self.done {
            *d = false;
        }
        if let Some(d) = self.done.get_mut(self.p as usize) {
            *d = true;
        }
        self.stash.clear();
        self.faults = faults.map(|f| FaultState::new(f, self.p));
        self.trace_on = trace_on;
    }

    fn transmit(&mut self, dst: usize, pkt: Packet<T>) {
        if dst < self.link.peer_count() {
            self.link.send(dst, Frame::Data(pkt));
        }
    }

    /// Send one payload to `dst` through the fault plan: assign the
    /// flow sequence number, checksum, retain a clean copy for
    /// retransmission, and deliver (or drop / duplicate / corrupt /
    /// hold back) according to the node's fault stream.
    pub(crate) fn send(&mut self, dst: usize, payload: T) {
        let seq = self.next_seq[dst];
        self.next_seq[dst] += 1;
        let check = packet_digest(self.p, seq, &payload);
        let pkt = Packet {
            src: self.p,
            seq,
            check,
            payload,
        };
        self.retained[dst].push_back(pkt.clone());
        let kind = match &mut self.faults {
            None => FaultKind::Clean,
            Some(fs) => fs.classify(self.p),
        };
        let mut stash_current = None;
        match kind {
            FaultKind::Clean => self.transmit(dst, pkt),
            FaultKind::Drop => {}
            FaultKind::Duplicate => {
                self.transmit(dst, pkt.clone());
                self.transmit(dst, pkt);
            }
            FaultKind::Corrupt => {
                let bits = match &mut self.faults {
                    Some(fs) => fs.draw(),
                    None => 0,
                };
                let mut c = pkt;
                c.payload.corrupt(bits); // checksum keeps the clean digest
                self.transmit(dst, c);
            }
            FaultKind::Reorder => {
                stash_current = Some(Stashed {
                    dst,
                    pkt,
                    countdown: Some(1),
                });
            }
            FaultKind::Delay => {
                stash_current = Some(Stashed {
                    dst,
                    pkt,
                    countdown: None,
                });
            }
        }
        // age packets stashed by earlier sends; flush the expired ones
        // *after* this send so a reordered packet really swaps places
        let mut flushed = Vec::new();
        self.stash.retain_mut(|s| match &mut s.countdown {
            Some(c) => {
                *c = c.saturating_sub(1);
                if *c == 0 {
                    flushed.push((s.dst, s.pkt.clone()));
                    false
                } else {
                    true
                }
            }
            None => true,
        });
        for (d, pk) in flushed {
            self.transmit(d, pk);
        }
        if let Some(s) = stash_current {
            self.stash.push(s);
        }
    }

    /// End of the send phase: fire a pending crash fault, then flush
    /// every held-back (delayed/reordered) packet.
    pub(crate) fn end_send_phase(&mut self) {
        if let Some(fs) = &self.faults {
            fs.crash_at_phase_end(self.p);
        }
        let stash = std::mem::take(&mut self.stash);
        for s in stash {
            self.transmit(s.dst, s.pkt);
        }
    }

    fn ack(&mut self, src: usize, stats: &mut NodeStats) {
        if src < self.link.peer_count() {
            let frame = Frame::Ack {
                from: self.p,
                next_needed: self.recv_next[src],
            };
            self.link.send(src, frame);
            stats.acks_sent += 1;
            if self.trace_on {
                self.tracer
                    .record(self.p, EventKind::Ack { dst: src as i64 });
            }
        }
    }

    /// Ask `peer` to retransmit everything this node has not yet seen.
    pub(crate) fn nack(&mut self, peer: i64, stats: &mut NodeStats) {
        let q = peer as usize;
        if q < self.link.peer_count() {
            if let Some(&next) = self.recv_next.get(q) {
                self.link.send(
                    q,
                    Frame::Nack {
                        from: self.p,
                        next_needed: next,
                    },
                );
                stats.nacks_sent += 1;
                if self.trace_on {
                    self.tracer.record(self.p, EventKind::Nack { peer });
                }
            }
        }
    }

    /// Service one frame: stage-worthy data is returned, control
    /// frames (ack pruning, NACK-driven retransmission, completion) are
    /// handled internally.
    fn service(&mut self, frame: Frame<T>, stats: &mut NodeStats) -> Step<T> {
        match frame {
            Frame::Data(pkt) => {
                let src = pkt.src as usize;
                if src >= self.recv_next.len() {
                    return Step::Handled; // stray source id
                }
                if packet_digest(pkt.src, pkt.seq, &pkt.payload) != pkt.check {
                    stats.corrupt_detected += 1;
                    if self.trace_on {
                        self.tracer
                            .record(self.p, EventKind::CorruptDetected { src: pkt.src });
                    }
                    return Step::Handled; // treated as a loss; NACK recovers
                }
                if pkt.seq < self.recv_next[src] || self.recv_ahead[src].contains(&pkt.seq) {
                    stats.dups_dropped += 1;
                    if self.trace_on {
                        self.tracer
                            .record(self.p, EventKind::DupDropped { src: pkt.src });
                    }
                    self.ack(src, stats); // re-ack so the sender prunes
                    return Step::Handled;
                }
                if pkt.seq == self.recv_next[src] {
                    // in order — the common case never touches the window
                    self.recv_next[src] += 1;
                } else {
                    self.recv_ahead[src].insert(pkt.seq);
                }
                while self.recv_ahead[src].remove(&self.recv_next[src]) {
                    self.recv_next[src] += 1;
                }
                self.ack(src, stats);
                Step::Fresh {
                    src: pkt.src,
                    seq: pkt.seq,
                    payload: pkt.payload,
                }
            }
            Frame::Ack { from, next_needed } => {
                if let Some(buf) = self.retained.get_mut(from as usize) {
                    while buf.front().is_some_and(|pk| pk.seq < next_needed) {
                        buf.pop_front();
                    }
                }
                Step::Handled
            }
            Frame::Nack { from, next_needed } => {
                let q = from as usize;
                if q >= self.retained.len() {
                    return Step::Handled;
                }
                let resend: Vec<Packet<T>> = self.retained[q]
                    .iter()
                    .filter(|pk| pk.seq >= next_needed)
                    .cloned()
                    .collect();
                for mut pk in resend {
                    let kind = match &mut self.faults {
                        None => FaultKind::Clean,
                        Some(fs) => fs.classify_retransmit(self.p),
                    };
                    stats.retransmits += 1;
                    if self.trace_on {
                        self.tracer
                            .record(self.p, EventKind::Retransmit { dst: from });
                    }
                    match kind {
                        FaultKind::Drop => {}
                        FaultKind::Corrupt => {
                            let bits = match &mut self.faults {
                                Some(fs) => fs.draw(),
                                None => 0,
                            };
                            pk.payload.corrupt(bits);
                            self.transmit(q, pk);
                        }
                        _ => self.transmit(q, pk),
                    }
                }
                Step::Handled
            }
            Frame::Done { from } => {
                if let Some(d) = self.done.get_mut(from as usize) {
                    *d = true;
                }
                Step::Handled
            }
        }
    }

    /// Wait up to `slice` for one frame and service it.
    pub(crate) fn poll(&mut self, slice: Duration, stats: &mut NodeStats) -> Step<T> {
        match self.link.recv(slice) {
            Some(frame) => self.service(frame, stats),
            None => Step::TimedOut,
        }
    }

    /// Broadcast that this node will never NACK again.
    pub(crate) fn announce_done(&mut self) {
        for q in 0..self.link.peer_count() {
            if q != self.p as usize {
                self.link.send(q, Frame::Done { from: self.p });
            }
        }
    }

    /// Keep servicing retransmit requests until every peer has
    /// announced completion or `cap` expires. Fresh data arriving here
    /// is acknowledged and discarded (stale retransmissions after this
    /// node already finished its update phase).
    pub(crate) fn drain(&mut self, cap: Duration, stats: &mut NodeStats) {
        let deadline = Instant::now() + cap;
        while !self.done.iter().all(|d| *d) {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let slice = deadline
                .saturating_duration_since(now)
                .min(Duration::from_millis(25));
            let _ = self.poll(slice, stats);
        }
    }
}

/// Receive until `ready` produces a value, staging every fresh payload
/// via `stage`, NACKing `peer` per the retry policy while waiting.
///
/// A NACK means "I think a packet was lost". A fresh *in-order* frame
/// from `peer` says the opposite — the flow is advancing and the awaited
/// value is simply further back in a sender that is still mid-send — so
/// it pushes the next NACK out by the current backoff. Frames behind a
/// gap do not (the gap is the loss), and the hard deadline never moves.
///
/// `ready` and `stage` both operate on the caller's staging state
/// `ctx` (passed explicitly so the two closures can share it without
/// conflicting borrows). `ready` returning `Some(Err(why))` reports a
/// plan inconsistency discovered on the staged data.
#[allow(clippy::too_many_arguments)]
pub(crate) fn await_until<T: WirePayload, C, R>(
    ep: &mut Endpoint<'_, T>,
    peer: i64,
    recv_timeout: Duration,
    retry: RetryPolicy,
    stats: &mut NodeStats,
    ctx: &mut C,
    mut ready: impl FnMut(&mut C) -> Option<Result<R, &'static str>>,
    mut stage: impl FnMut(&mut C, i64, u64, T) -> Result<(), &'static str>,
) -> Result<R, AwaitFail> {
    if let Some(r) = ready(ctx) {
        return r.map_err(AwaitFail::BadWire);
    }
    let start = Instant::now();
    // the per-flow deadline can only tighten the machine receive
    // timeout, never extend it
    let total = retry.deadline.map_or(recv_timeout, |d| d.min(recv_timeout));
    let deadline = start + total;
    let mut retries = 0u32;
    let mut backoff = retry.nack_timeout;
    let mut next_nack = if retry.max_retries > 0 {
        start + jittered_backoff(backoff, retry.jitter_pct, peer, 0)
    } else {
        deadline
    };
    let flow_next = |ep: &Endpoint<'_, T>| ep.recv_next.get(peer as usize).copied();
    loop {
        let now = Instant::now();
        if now >= deadline {
            return Err(if retries > 0 {
                AwaitFail::Exhausted { retries }
            } else {
                AwaitFail::Timeout
            });
        }
        if retry.max_retries > 0 && now >= next_nack {
            if retries >= retry.max_retries {
                return Err(AwaitFail::Exhausted { retries });
            }
            ep.nack(peer, stats);
            retries += 1;
            backoff = (backoff * 2).min(retry.backoff_cap);
            next_nack = now + jittered_backoff(backoff, retry.jitter_pct, peer, retries);
            if ep.trace_on {
                ep.tracer.record(ep.p, EventKind::Backoff { peer });
            }
        }
        let slice = next_nack
            .min(deadline)
            .saturating_duration_since(now)
            .max(Duration::from_millis(1));
        let before = flow_next(ep);
        match ep.poll(slice, stats) {
            Step::Fresh { src, seq, payload } => {
                stage(ctx, src, seq, payload).map_err(AwaitFail::BadWire)?;
                if let Some(r) = ready(ctx) {
                    return r.map_err(AwaitFail::BadWire);
                }
                if retry.max_retries > 0 && src == peer && flow_next(ep) > before {
                    next_nack =
                        Instant::now() + jittered_backoff(backoff, retry.jitter_pct, peer, retries);
                }
            }
            Step::Handled | Step::TimedOut => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    impl WirePayload for f64 {
        fn digest(&self) -> u64 {
            self.to_bits()
        }
        fn corrupt(&mut self, bits: u64) {
            *self = f64::from_bits(self.to_bits() ^ (1 << (bits % 52)));
        }
    }

    use crate::obs::NULL_TRACER;

    type Pair = (
        Endpoint<'static, f64>,
        Endpoint<'static, f64>,
        Receiver<Frame<f64>>,
        Receiver<Frame<f64>>,
    );

    /// Two endpoints whose *outbound* frames land on the returned
    /// receivers, so tests can inspect raw wire traffic and feed frames
    /// to `service` by hand. (The endpoints' own inbound links are
    /// sterile channels — these tests drive `service` directly.)
    fn pair() -> Pair {
        let (tx0, rx0) = channel();
        let (tx1, rx1) = channel();
        let txs = vec![tx0, tx1];
        let (_, dead_rx0) = channel();
        let (_, dead_rx1) = channel();
        (
            Endpoint::in_proc(0, txs.clone(), dead_rx0, None, NULL_TRACER),
            Endpoint::in_proc(1, txs, dead_rx1, None, NULL_TRACER),
            rx0,
            rx1,
        )
    }

    /// The one channel wait: a value sent while it spins and one sent
    /// after it parked both arrive, a timeout is `None` after its slice,
    /// and a channel whose senders are gone is `None` at once. No
    /// success path sleeps: the late sender spins past the window.
    #[test]
    fn wait_spins_then_parks() {
        use std::sync::atomic::{AtomicU8, Ordering::SeqCst};
        let (tx, rx) = channel();
        // the sender is running before the wait starts: 1 = ready, 2 = go
        let state = std::sync::Arc::new(AtomicU8::new(0));
        let prompt = std::thread::spawn({
            let (tx, state) = (tx.clone(), state.clone());
            move || {
                state.store(1, SeqCst);
                while state.load(SeqCst) != 2 {
                    std::hint::spin_loop();
                }
                tx.send(1).unwrap()
            }
        });
        while state.load(SeqCst) != 1 {
            std::hint::spin_loop();
        }
        state.store(2, SeqCst);
        assert_eq!(wait(&rx, Duration::from_secs(10)), Some(1));
        prompt.join().unwrap();

        let t0 = Instant::now();
        let late = std::thread::spawn({
            let tx = tx.clone();
            move || {
                while t0.elapsed() < SPIN * 10 {
                    std::hint::spin_loop();
                }
                tx.send(2).unwrap()
            }
        });
        assert_eq!(wait(&rx, Duration::from_secs(10)), Some(2));
        assert!(t0.elapsed() >= SPIN * 10);
        late.join().unwrap();

        let t0 = Instant::now();
        assert_eq!(wait(&rx, Duration::from_millis(5)), None);
        assert!(t0.elapsed() >= Duration::from_millis(5));

        drop(tx);
        let t0 = Instant::now();
        assert_eq!(wait(&rx, Duration::from_secs(10)), None);
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
    }

    #[test]
    fn fresh_then_duplicate_suppressed() {
        let (mut a, mut b, _rx0, rx1) = pair();
        let mut sb = NodeStats::default();
        a.send(1, 2.5);
        // deliver the packet twice by servicing the same wire frame
        let f1 = rx1.recv().unwrap();
        let f2 = match &f1 {
            Frame::Data(p) => Frame::Data(p.clone()),
            _ => unreachable!(),
        };
        assert!(matches!(b.service(f1, &mut sb), Step::Fresh { src: 0, .. }));
        assert!(matches!(b.service(f2, &mut sb), Step::Handled));
        assert_eq!(sb.dups_dropped, 1);
        assert_eq!(sb.acks_sent, 2);
    }

    #[test]
    fn corrupt_detected_and_counted() {
        let (mut a, mut b, _rx0, rx1) = pair();
        let mut sb = NodeStats::default();
        a.send(1, 1.0);
        let frame = match rx1.recv().unwrap() {
            Frame::Data(mut p) => {
                p.payload.corrupt(7);
                Frame::Data(p)
            }
            _ => unreachable!(),
        };
        assert!(matches!(b.service(frame, &mut sb), Step::Handled));
        assert_eq!(sb.corrupt_detected, 1);
    }

    #[test]
    fn nack_triggers_retransmission() {
        let (mut a, mut b, rx0, rx1) = pair();
        let mut sa = NodeStats::default();
        let mut sb = NodeStats::default();
        a.send(1, 4.0);
        // pretend the wire lost it: drain the channel without staging
        let _ = rx1.recv().unwrap();
        b.nack(0, &mut sb);
        assert_eq!(sb.nacks_sent, 1);
        // sender services the NACK and retransmits
        let nack = rx0.recv().unwrap();
        assert!(matches!(a.service(nack, &mut sa), Step::Handled));
        assert_eq!(sa.retransmits, 1);
        match rx1.recv().unwrap() {
            Frame::Data(p) => {
                assert_eq!(p.seq, 0);
                assert!(matches!(
                    b.service(Frame::Data(p), &mut sb),
                    Step::Fresh { .. }
                ));
            }
            _ => panic!("expected retransmitted data"),
        }
    }

    #[test]
    fn ack_prunes_retained_buffer() {
        let (mut a, mut b, rx0, rx1) = pair();
        let mut sa = NodeStats::default();
        let mut sb = NodeStats::default();
        a.send(1, 1.0);
        a.send(1, 2.0);
        assert_eq!(a.retained[1].len(), 2);
        for _ in 0..2 {
            let f = rx1.recv().unwrap();
            let _ = b.service(f, &mut sb);
        }
        // service both cumulative acks
        while let Ok(f) = rx0.try_recv() {
            let _ = a.service(f, &mut sa);
        }
        assert!(a.retained[1].is_empty());
    }

    #[test]
    fn seeded_plan_is_deterministic() {
        let plan = FaultPlan::seeded(42).with_drop(0.3).with_duplicate(0.2);
        let mut a = FaultState::new(plan, 3);
        let mut b = FaultState::new(plan, 3);
        for _ in 0..64 {
            let ka = a.classify(3);
            let kb = b.classify(3);
            assert_eq!(std::mem::discriminant(&ka), std::mem::discriminant(&kb));
        }
    }

    #[test]
    fn drop_exact_hits_only_nth() {
        let plan = FaultPlan::drop_nth(0, 1);
        let (tx1, rx1) = channel();
        let (tx0, _rx0) = channel();
        let (_, dead_rx) = channel();
        let mut a: Endpoint<'_, f64> =
            Endpoint::in_proc(0, vec![tx0, tx1], dead_rx, Some(plan), NULL_TRACER);
        a.send(1, 1.0);
        a.send(1, 2.0); // dropped
        a.send(1, 3.0);
        let mut seqs = Vec::new();
        while let Ok(Frame::Data(p)) = rx1.try_recv() {
            seqs.push(p.seq);
        }
        assert_eq!(seqs, vec![0, 2]);
    }

    #[test]
    fn fault_probabilities_are_clamped() {
        let p = FaultPlan::seeded(1)
            .with_drop(1.7)
            .with_duplicate(-0.3)
            .with_reorder(f64::NAN)
            .with_corrupt(2e9)
            .with_delay(-f64::INFINITY);
        assert_eq!(p.drop, 1.0);
        assert_eq!(p.duplicate, 0.0);
        assert_eq!(p.reorder, 0.0);
        assert_eq!(p.corrupt, 1.0);
        assert_eq!(p.delay, 0.0);
        // an in-range probability is untouched
        assert_eq!(FaultPlan::seeded(1).with_drop(0.25).drop, 0.25);
    }

    #[test]
    fn retry_deadline_caps_total_wait() {
        // nothing ever arrives: with a 40 ms flow deadline the await
        // must give up long before the 10 s machine receive timeout
        let (_, dead_rx) = channel();
        let (tx0, _rx0) = channel();
        let (tx1, _rx1) = channel();
        let mut ep: Endpoint<'_, f64> =
            Endpoint::in_proc(1, vec![tx0, tx1], dead_rx, None, NULL_TRACER);
        let retry = RetryPolicy {
            max_retries: 100,
            nack_timeout: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(5),
            deadline: Some(Duration::from_millis(40)),
            jitter_pct: 0,
        };
        let mut stats = NodeStats::default();
        let t0 = Instant::now();
        let res: Result<(), AwaitFail> = await_until(
            &mut ep,
            0,
            Duration::from_secs(10),
            retry,
            &mut stats,
            &mut (),
            |_| None,
            |_, _, _, _| Ok(()),
        );
        let waited = t0.elapsed();
        assert!(matches!(res, Err(AwaitFail::Exhausted { .. })));
        assert!(
            waited < Duration::from_secs(2),
            "deadline ignored: waited {waited:?}"
        );
    }

    /// A receiver endpoint (node 1) with a live inbound link, the raw
    /// sender handle feeding it, and the channel its NACKs land on.
    fn live_receiver() -> (
        Endpoint<'static, f64>,
        Sender<Frame<f64>>,
        Receiver<Frame<f64>>,
    ) {
        let (tx0, rx0) = channel();
        let (tx1, rx1) = channel();
        let ep = Endpoint::in_proc(1, vec![tx0, tx1.clone()], rx1, None, NULL_TRACER);
        (ep, tx1, rx0)
    }

    fn data(seq: u64, v: f64) -> Frame<f64> {
        Frame::Data(Packet {
            src: 0,
            seq,
            check: packet_digest(0, seq, &v),
            payload: v,
        })
    }

    #[test]
    fn progressing_sender_is_not_nacked() {
        // the awaited value is the 15th frame of a sender that takes
        // 300 ms to get there — longer than the 200 ms NACK timeout, but
        // every in-order arrival shows the flow is alive
        let (mut ep, tx, nacks) = live_receiver();
        let retry = RetryPolicy {
            nack_timeout: Duration::from_millis(200),
            ..RetryPolicy::default()
        };
        let sender = std::thread::spawn(move || {
            for seq in 0..15 {
                std::thread::sleep(Duration::from_millis(20));
                let _ = tx.send(data(seq, seq as f64));
            }
        });
        let mut stats = NodeStats::default();
        let mut staged = 0u64;
        let got = await_until(
            &mut ep,
            0,
            Duration::from_secs(10),
            retry,
            &mut stats,
            &mut staged,
            |staged| (*staged == 15).then_some(Ok(())),
            |staged, _, _, _| {
                *staged += 1;
                Ok(())
            },
        );
        sender.join().expect("sender thread");
        assert!(got.is_ok());
        assert_eq!(stats.nacks_sent, 0, "a mid-send peer was NACKed");
        assert!(!nacks.try_iter().any(|f| matches!(f, Frame::Nack { .. })));
    }

    #[test]
    fn silent_sender_is_nacked_on_schedule() {
        // nothing arrives: the first NACK goes out one `nack_timeout`
        // after the wait began, as it always did — and frames *behind a
        // gap* are not progress, so they do not delay it either
        for behind_gap in [false, true] {
            let (mut ep, tx, nacks) = live_receiver();
            let retry = RetryPolicy {
                max_retries: 1,
                nack_timeout: Duration::from_millis(100),
                ..RetryPolicy::default()
            };
            let feeder = std::thread::spawn(move || {
                if behind_gap {
                    // seq 0 is lost; later frames keep arriving
                    for seq in 1..8 {
                        std::thread::sleep(Duration::from_millis(20));
                        let _ = tx.send(data(seq, 0.0));
                    }
                }
            });
            let mut stats = NodeStats::default();
            let t0 = Instant::now();
            let got: Result<(), AwaitFail> = await_until(
                &mut ep,
                0,
                Duration::from_secs(10),
                retry,
                &mut stats,
                &mut (),
                |_| None,
                |_, _, _, _| Ok(()),
            );
            let gave_up = t0.elapsed();
            feeder.join().expect("feeder thread");
            assert!(matches!(got, Err(AwaitFail::Exhausted { retries: 1 })));
            assert_eq!(stats.nacks_sent, 1);
            assert!(nacks.try_iter().any(|f| matches!(f, Frame::Nack { .. })));
            // NACK at 100 ms, give-up one doubled backoff (200 ms) later
            assert!(
                gave_up >= Duration::from_millis(300) && gave_up < Duration::from_millis(600),
                "behind_gap={behind_gap}: gave up after {gave_up:?}"
            );
        }
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_bounded() {
        let base = Duration::from_millis(100);
        for attempt in 0..8 {
            let a = jittered_backoff(base, 50, 3, attempt);
            let b = jittered_backoff(base, 50, 3, attempt);
            assert_eq!(a, b, "jitter must be a pure function of (peer, attempt)");
            assert!(a <= base && a >= base / 2, "jitter out of range: {a:?}");
        }
        // pct == 0 is exactly the unjittered interval
        assert_eq!(jittered_backoff(base, 0, 3, 1), base);
    }
}
