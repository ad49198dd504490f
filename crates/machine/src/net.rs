//! Real-wire transport backends: Unix-domain sockets and TCP.
//!
//! The topology is a **star**: the host binds one listener (the
//! [`Router`]) and every worker process dials in. Worker-to-worker data
//! frames ride through the router, which routes them by a destination
//! prefix without decoding the payload — so the router works for any
//! machine whose data plane is `Frame<T>` records.
//!
//! The wire format is length-prefixed with integrity and version
//! checks (DESIGN.md §15):
//!
//! ```text
//! magic u32 | kind u8 | len u32 | crc u64 | payload[len]
//! ```
//!
//! `crc` is the word-parallel [`checksum`] of the payload; `magic` names
//! the format, checksum included.
//!
//! * Partial reads are handled by accumulation ([`FrameBuf`]): a read
//!   timeout mid-frame keeps the bytes and resumes, so slow links never
//!   desynchronize the stream. Reads land in the accumulator and the
//!   payload is lent out of it; [`write_frame`] sends header and payload
//!   in one vectored write — a frame's bytes are touched once per side
//!   by the checksum and not copied by the layer at all.
//! * A bad CRC drops exactly one frame (the length prefix keeps the
//!   stream in sync), whatever it carried — the corruption contract the
//!   chaos proxy tests. A lost data frame is NACK-recovered; a lost ack
//!   or `Done` costs a lossy wave's drain one slice, since the drain
//!   ends on evidence and re-announces `Done` (`transport.rs`). The CRC
//!   is the socket link's one integrity check: packets carry no payload
//!   digest, and the in-process channels, which cannot damage a value,
//!   have none.
//! * A bad magic means the stream itself lost sync (e.g. a truncated
//!   write followed by more bytes); the connection is poisoned and the
//!   worker reconnects with jittered backoff and a fresh handshake.
//! * Connections open with a version-checked `HELLO{version, node,
//!   pmax}` / `HELLO_OK` exchange; a mismatch is rejected with a
//!   reason string and surfaces as a typed [`MachineError::Transport`].
//!
//! Faults only a real wire can produce — truncated writes, flipped
//! bits, stalls, severed connections — are injected by the byte-level
//! [`ChaosProxy`], seeded and deterministic per worker node like
//! `FaultPlan`'s packet faults.

use crate::codec::{decode, encode, Ctrl, WIRE_VERSION};
use crate::distributed::Wire;
use crate::error::MachineError;
use crate::transport::{
    clamp_prob, jittered_backoff, splitmix64, unit_f64, Frame, Transport, TransportKind,
};
use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrd};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// frame layer
// ---------------------------------------------------------------------

/// Stream magic ("vCA2"): resynchronization sentinel of every frame. It
/// names the frame format, checksum included — a peer speaking the
/// byte-wise FNV-1a format ("vCAL") is refused as [`NetFail::BadMagic`]
/// instead of having every one of its frames dropped as corrupt.
const MAGIC: u32 = 0x7643_4132;
/// Frame header bytes: magic + kind + len + crc.
const HEADER: usize = 4 + 1 + 4 + 8;
/// Upper bound on one frame's payload — a sanity rail against parsing
/// garbage as a length, not a protocol limit.
const MAX_FRAME: u32 = 64 * 1024 * 1024;

pub(crate) const K_HELLO: u8 = 1;
pub(crate) const K_HELLO_OK: u8 = 2;
pub(crate) const K_HELLO_REJECT: u8 = 3;
pub(crate) const K_DATA: u8 = 4;
pub(crate) const K_CTRL: u8 = 5;
pub(crate) const K_HEARTBEAT: u8 = 6;
// the serve protocol (client ↔ resident service, DESIGN.md §18) shares
// the frame layer but speaks its own kinds, so a worker dialing a serve
// listener (or vice versa) fails loudly at the handshake
pub(crate) const K_SHELLO: u8 = 7;
pub(crate) const K_SHELLO_OK: u8 = 8;
pub(crate) const K_SHELLO_REJECT: u8 = 9;
pub(crate) const K_SREQ: u8 = 10;
pub(crate) const K_SRESP: u8 = 11;

/// How often an idle worker proves liveness between runs — the default;
/// the service-level override travels on
/// [`crate::transport::ProtoTimeouts`].
pub(crate) const HEARTBEAT_IVL: Duration = Duration::from_millis(200);
/// Reconnect budget of a worker link (attempts, with jittered
/// exponential backoff between them).
const RECONNECT_ATTEMPTS: u32 = 8;
const RECONNECT_BASE: Duration = Duration::from_millis(20);

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One checksum step. For a fixed `h` it is a bijection in `w` and for a
/// fixed `w` a bijection in `h` (xor, multiplication by an odd constant
/// and rotation all are); the rotation carries the high bits, which a
/// multiply alone never moves down, back into the next multiply.
#[inline]
fn mix(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME).rotate_left(31)
}

/// The per-frame checksum (DESIGN.md §15): the payload's little-endian
/// 8-byte words dealt round-robin to four independent [`mix`] lanes — so
/// four multiplies are in flight instead of one per byte — then the
/// lanes, the zero-padded byte tail and the length folded through the
/// same step. Every stage is a bijection in each input word with the
/// others fixed, so any corruption confined to one word (every single-bit
/// flip in particular) changes the result with certainty; so does a
/// length change that leaves the words alone.
fn checksum(bytes: &[u8]) -> u64 {
    let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
    let mut lanes = [FNV_BASIS, !FNV_BASIS, FNV_PRIME, !FNV_PRIME];
    let mut blocks = bytes.chunks_exact(32);
    for b in &mut blocks {
        lanes[0] = mix(lanes[0], word(&b[0..8]));
        lanes[1] = mix(lanes[1], word(&b[8..16]));
        lanes[2] = mix(lanes[2], word(&b[16..24]));
        lanes[3] = mix(lanes[3], word(&b[24..32]));
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for (lane, w) in lanes.iter_mut().zip(&mut words) {
        *lane = mix(*lane, word(w));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    let h = lanes.iter().fold(FNV_BASIS, |h, lane| mix(h, *lane));
    mix(mix(h, u64::from_le_bytes(tail)), bytes.len() as u64)
}

/// The header of the frame that carries `payload`.
fn header(kind: u8, payload: &[u8]) -> [u8; HEADER] {
    let mut h = [0u8; HEADER];
    h[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    h[4] = kind;
    h[5..9].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    h[9..17].copy_from_slice(&checksum(payload).to_le_bytes());
    h
}

/// One wire frame as contiguous bytes — what the chaos proxy corrupts;
/// [`write_frame`] never assembles it.
fn frame_bytes(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER + payload.len());
    out.extend_from_slice(&header(kind, payload));
    out.extend_from_slice(payload);
    out
}

/// Why a stream stopped yielding frames.
#[derive(Debug)]
pub(crate) enum NetFail {
    /// Peer closed the connection.
    Eof,
    /// The byte stream lost frame sync (bad magic) — poisoned.
    BadMagic,
    /// An I/O error other than a read timeout.
    Io(std::io::Error),
}

impl std::fmt::Display for NetFail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetFail::Eof => write!(f, "peer closed the connection"),
            NetFail::BadMagic => write!(f, "stream lost frame sync (bad magic)"),
            NetFail::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

/// Either kind of stream socket, with the small API surface the frame
/// layer needs.
pub(crate) enum Sock {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Sock {
    fn try_clone(&self) -> std::io::Result<Sock> {
        Ok(match self {
            Sock::Unix(s) => Sock::Unix(s.try_clone()?),
            Sock::Tcp(s) => Sock::Tcp(s.try_clone()?),
        })
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Sock::Unix(s) => s.set_read_timeout(t),
            Sock::Tcp(s) => s.set_read_timeout(t),
        }
    }

    fn shutdown(&self) {
        let _ = match self {
            Sock::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            Sock::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for Sock {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Sock::Unix(s) => s.read(buf),
            Sock::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Sock {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Sock::Unix(s) => s.write(buf),
            Sock::Tcp(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        match self {
            Sock::Unix(s) => s.write_vectored(bufs),
            Sock::Tcp(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Sock::Unix(s) => s.flush(),
            Sock::Tcp(s) => s.flush(),
        }
    }
}

/// Dial an `"uds:<path>"` or `"tcp:<host:port>"` address.
pub(crate) fn dial(addr: &str) -> std::io::Result<Sock> {
    if let Some(path) = addr.strip_prefix("uds:") {
        Ok(Sock::Unix(UnixStream::connect(path)?))
    } else if let Some(hp) = addr.strip_prefix("tcp:") {
        let s = TcpStream::connect(hp)?;
        s.set_nodelay(true)?;
        Ok(Sock::Tcp(s))
    } else {
        Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("address `{addr}` is neither uds: nor tcp:"),
        ))
    }
}

/// A bound listener plus its resolved dial address (ephemeral TCP
/// ports and generated UDS paths become concrete here). Removes the
/// UDS socket file on drop.
pub(crate) struct NetListener {
    inner: Listener,
    pub addr: String,
    uds_path: Option<String>,
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

/// Counter making generated UDS paths unique within one process.
static UDS_ORD: AtomicU64 = AtomicU64::new(0);

impl NetListener {
    /// Bind a fresh listener for the backend kind: an abstract-free
    /// temp-dir UDS path, or an ephemeral loopback TCP port.
    pub fn bind(kind: TransportKind) -> std::io::Result<NetListener> {
        match kind {
            TransportKind::Uds => {
                let ord = UDS_ORD.fetch_add(1, AtomicOrd::Relaxed);
                let path = std::env::temp_dir()
                    .join(format!("vcal-{}-{ord}.sock", std::process::id()))
                    .to_string_lossy()
                    .into_owned();
                let _ = std::fs::remove_file(&path);
                let l = UnixListener::bind(&path)?;
                l.set_nonblocking(true)?;
                Ok(NetListener {
                    inner: Listener::Unix(l),
                    addr: format!("uds:{path}"),
                    uds_path: Some(path),
                })
            }
            TransportKind::Tcp | TransportKind::InProc => {
                let l = TcpListener::bind("127.0.0.1:0")?;
                let addr = format!("tcp:{}", l.local_addr()?);
                l.set_nonblocking(true)?;
                Ok(NetListener {
                    inner: Listener::Tcp(l),
                    addr,
                    uds_path: None,
                })
            }
        }
    }

    /// Non-blocking accept (the listener is bound non-blocking so
    /// accept loops can poll a shutdown flag).
    pub fn accept(&self) -> std::io::Result<Option<Sock>> {
        match &self.inner {
            Listener::Unix(l) => match l.accept() {
                Ok((s, _)) => Ok(Some(Sock::Unix(s))),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nodelay(true)?;
                    Ok(Some(Sock::Tcp(s)))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

impl Drop for NetListener {
    fn drop(&mut self) {
        if let Some(p) = &self.uds_path {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// Read space an idle connection holds, and the size a connection falls
/// back to once a larger frame has been let go. Above one 64 KiB data
/// packet with its envelope, so the steady state of every backend never
/// reallocates.
const IDLE_CAP: usize = 128 * 1024;

/// Accumulating frame reader: partial reads keep their bytes across
/// calls, so timeouts mid-frame are harmless. Socket reads land in the
/// accumulator itself and a frame's payload is *lent* out of it, after
/// its checksum held — received bytes are not copied again.
#[derive(Default)]
pub(crate) struct FrameBuf {
    /// `rbuf[..filled]` holds the bytes received; the rest is the space
    /// the next read lands in.
    rbuf: Vec<u8>,
    filled: usize,
    /// Leading bytes of `rbuf` that are done with — the frame the last
    /// call lent out, or one it dropped — let go when the next begins.
    spent: usize,
}

impl FrameBuf {
    /// The header at the front of the accumulator — kind, payload length
    /// and checksum — once all of it has arrived. A wrong magic or a
    /// length above [`MAX_FRAME`] poisons the stream, so no length that
    /// gets past here is unvalidated.
    fn head(&self) -> Result<Option<(u8, usize, u64)>, NetFail> {
        let Some(h) = self.rbuf[..self.filled].first_chunk::<HEADER>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes([h[5], h[6], h[7], h[8]]);
        if h[0..4] != MAGIC.to_le_bytes() || len > MAX_FRAME {
            return Err(NetFail::BadMagic);
        }
        let sum = u64::from_le_bytes(h[9..17].try_into().expect("8 bytes"));
        Ok(Some((h[4], len as usize, sum)))
    }

    /// Find one complete frame at the front of the accumulator, if
    /// present: its kind and where its payload lies in `rbuf`.
    /// Checksum-mismatched frames are silently skipped (stream stays in
    /// sync); a wrong magic poisons the stream.
    fn pop(&mut self) -> Result<Option<(u8, Range<usize>)>, NetFail> {
        loop {
            if self.spent > 0 {
                self.rbuf.copy_within(self.spent..self.filled, 0);
                self.filled -= self.spent;
                self.spent = 0;
                // a bulk frame grew the accumulator; do not pin that for
                // the life of the connection
                let keep = (2 * self.filled).max(IDLE_CAP);
                if self.rbuf.len() > keep {
                    self.rbuf.truncate(keep);
                    self.rbuf.shrink_to(keep);
                }
            }
            let Some((kind, len, sum)) = self.head()? else {
                return Ok(None);
            };
            let body = HEADER..HEADER + len;
            if self.filled < body.end {
                return Ok(None);
            }
            self.spent = body.end;
            if checksum(&self.rbuf[body.clone()]) == sum {
                return Ok(Some((kind, body)));
            } // else: drop exactly this frame; protocol recovers
        }
    }

    /// Produce the next frame — its kind and its payload, on loan until
    /// the next call — reading from the socket under a total timeout.
    /// `Ok(None)` means the timeout passed with no complete frame
    /// (accumulated partial bytes are kept). The socket's read timeout is
    /// armed once per call, so a call whose last read starts just inside
    /// the deadline can outlast it by at most `timeout`.
    pub fn next_frame(
        &mut self,
        sock: &mut Sock,
        timeout: Duration,
    ) -> Result<Option<(u8, &[u8])>, NetFail> {
        let deadline = Instant::now() + timeout;
        let mut armed = false;
        let (kind, body) = loop {
            if let Some(f) = self.pop()? {
                break f;
            }
            if Instant::now() >= deadline {
                return Ok(None);
            }
            if !armed {
                // a zero read timeout means block-forever on these sockets
                sock.set_read_timeout(Some(timeout.max(Duration::from_millis(1))))
                    .map_err(NetFail::Io)?;
                armed = true;
            }
            // room for the whole frame in progress, sized once from its
            // validated header; zeroed by the allocator, not by a pass
            // over it
            let frame = self.head()?.map_or(0, |(_, len, _)| HEADER + len);
            let room = frame.max(IDLE_CAP);
            if self.rbuf.len() < room {
                let mut grown = vec![0u8; room];
                grown[..self.filled].copy_from_slice(&self.rbuf[..self.filled]);
                self.rbuf = grown;
            }
            match sock.read(&mut self.rbuf[self.filled..]) {
                Ok(0) => return Err(NetFail::Eof),
                Ok(n) => self.filled += n,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(NetFail::Io(e)),
            }
        };
        Ok(Some((kind, &self.rbuf[body])))
    }
}

/// Write one frame: header and payload leave in one vectored write, the
/// payload straight from the caller's buffer, whatever its size. Partial
/// writes resume where they stopped and `Interrupted` is retried. A
/// payload longer than [`MAX_FRAME`] is refused with `InvalidInput` and
/// nothing is written: the peer's [`FrameBuf::pop`] would read its length
/// as lost frame sync and poison a healthy stream.
pub(crate) fn write_frame(sock: &mut Sock, kind: u8, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME as usize {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "frame payload of {} bytes exceeds the {MAX_FRAME}-byte frame limit",
                payload.len()
            ),
        ));
    }
    let head = header(kind, payload);
    let mut sent = 0;
    while sent < HEADER {
        let bufs = [IoSlice::new(&head[sent..]), IoSlice::new(payload)];
        match sock.write_vectored(&bufs) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    sock.write_all(&payload[sent - HEADER..])
}

// ---------------------------------------------------------------------
// host side: the router
// ---------------------------------------------------------------------

/// What the router surfaces to the host's supervision loop.
pub(crate) enum RouterEvent {
    /// A worker completed the version handshake (first connect or a
    /// chaos-severed link reconnecting).
    Hello { node: i64 },
    /// A control-plane message from a worker.
    Ctrl { node: i64, ctrl: Ctrl },
    /// A worker's connection closed or failed. Not death by itself —
    /// the supervisor pairs this with `Child::try_wait` (a severed
    /// link reconnects; a dead process never does).
    Eof { node: i64 },
}

/// The host's star hub: accepts worker connections, runs the
/// handshake, routes data frames between workers by destination
/// prefix, and forwards control frames to the supervision loop.
pub(crate) struct Router {
    /// The dial address workers are given.
    pub addr: String,
    events: Receiver<RouterEvent>,
    writers: Arc<Vec<Mutex<Option<Sock>>>>,
    stop: Arc<AtomicBool>,
}

impl Router {
    /// Bind and start accepting for a `pmax`-worker session.
    pub fn bind(kind: TransportKind, pmax: usize) -> Result<Router, MachineError> {
        let listener = NetListener::bind(kind).map_err(|e| MachineError::Transport {
            node: -1,
            detail: format!("bind failed: {e}"),
        })?;
        let addr = listener.addr.clone();
        let (ev_tx, events) = channel();
        let writers: Arc<Vec<Mutex<Option<Sock>>>> =
            Arc::new((0..pmax).map(|_| Mutex::new(None)).collect());
        let stop = Arc::new(AtomicBool::new(false));
        {
            let writers = Arc::clone(&writers);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(listener, pmax, ev_tx, writers, stop));
        }
        Ok(Router {
            addr,
            events,
            writers,
            stop,
        })
    }

    /// Next supervision event, or `None` on timeout.
    pub fn recv_event(&self, timeout: Duration) -> Option<RouterEvent> {
        match self.events.recv_timeout(timeout) {
            Ok(e) => Some(e),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Reliable control send to one worker.
    pub fn send_ctrl(&self, node: i64, ctrl: &Ctrl) -> Result<(), MachineError> {
        let bytes = encode(ctrl).map_err(|e| MachineError::Transport {
            node,
            detail: e.to_string(),
        })?;
        let mut slot = lock(&self.writers[node as usize]);
        let sock = slot.as_mut().ok_or_else(|| MachineError::Transport {
            node,
            detail: "worker not connected".to_string(),
        })?;
        write_frame(sock, K_CTRL, &bytes).map_err(|e| {
            *slot = None;
            MachineError::Transport {
                node,
                detail: format!("control send failed: {e}"),
            }
        })
    }

    /// Synthesize `Done { from: dead }` to every *other* worker so
    /// peers stop waiting on a node whose process died (the in-process
    /// supervisor gets this for free from the panicking node's own
    /// `announce_done`).
    pub fn broadcast_done(&self, dead: i64) {
        let Ok(body) = encode(&Frame::<Wire>::Done { from: dead }) else {
            return;
        };
        for (w, slot) in self.writers.iter().enumerate() {
            if w as i64 == dead {
                continue;
            }
            if let Some(sock) = lock(slot).as_mut() {
                let _ = write_frame(sock, K_DATA, &body);
            }
        }
    }

    /// Sever a worker's link from the host side (teardown).
    pub fn disconnect(&self, node: i64) {
        if let Some(s) = lock(&self.writers[node as usize]).take() {
            s.shutdown();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.stop.store(true, AtomicOrd::Relaxed);
        for slot in self.writers.iter() {
            if let Some(s) = lock(slot).take() {
                s.shutdown();
            }
        }
    }
}

/// Mutex lock that survives a poisoned peer thread (the router must
/// keep routing even if one reader panicked mid-lock).
pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn accept_loop(
    listener: NetListener,
    pmax: usize,
    ev_tx: Sender<RouterEvent>,
    writers: Arc<Vec<Mutex<Option<Sock>>>>,
    stop: Arc<AtomicBool>,
) {
    while !stop.load(AtomicOrd::Relaxed) {
        match listener.accept() {
            Ok(Some(sock)) => {
                let ev_tx = ev_tx.clone();
                let writers = Arc::clone(&writers);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || conn_loop(sock, pmax, ev_tx, writers, stop));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(_) => break,
        }
    }
}

/// One accepted connection: handshake, register the write half, then
/// route frames until the link dies.
fn conn_loop(
    mut sock: Sock,
    pmax: usize,
    ev_tx: Sender<RouterEvent>,
    writers: Arc<Vec<Mutex<Option<Sock>>>>,
    stop: Arc<AtomicBool>,
) {
    let mut fbuf = FrameBuf::default();
    // --- handshake: first frame must be a well-formed, version-matched HELLO
    let node = match fbuf.next_frame(&mut sock, Duration::from_secs(5)) {
        Ok(Some((K_HELLO, p))) => match decode::<(u32, i64, usize)>(p) {
            Ok((v, _, _)) if v != WIRE_VERSION => {
                let reason = format!("wire version {v} != host version {WIRE_VERSION}");
                let _ = write_frame(&mut sock, K_HELLO_REJECT, reason.as_bytes());
                return;
            }
            Ok((_, node, wp)) if (0..pmax as i64).contains(&node) && wp == pmax => node,
            Ok((_, node, wp)) => {
                let reason = format!("node {node}/pmax {wp} outside session pmax {pmax}");
                let _ = write_frame(&mut sock, K_HELLO_REJECT, reason.as_bytes());
                return;
            }
            Err(_) => {
                let _ = write_frame(&mut sock, K_HELLO_REJECT, b"malformed hello");
                return;
            }
        },
        _ => return, // no hello in time, or the link died first
    };
    if write_frame(&mut sock, K_HELLO_OK, &[]).is_err() {
        return;
    }
    match sock.try_clone() {
        Ok(wr) => *lock(&writers[node as usize]) = Some(wr),
        Err(_) => return,
    }
    let _ = ev_tx.send(RouterEvent::Hello { node });

    // --- routing
    loop {
        if stop.load(AtomicOrd::Relaxed) {
            return;
        }
        match fbuf.next_frame(&mut sock, Duration::from_millis(200)) {
            Ok(Some((kind, payload))) => {
                match kind {
                    K_DATA => {
                        // [dst i64][frame bytes] — payload-agnostic routing
                        if payload.len() < 8 {
                            continue;
                        }
                        let mut d = [0u8; 8];
                        d.copy_from_slice(&payload[..8]);
                        let dst = i64::from_le_bytes(d);
                        if !(0..pmax as i64).contains(&dst) {
                            continue;
                        }
                        let mut slot = lock(&writers[dst as usize]);
                        if let Some(w) = slot.as_mut() {
                            // a failed relay is a dropped data frame: the
                            // NACK protocol recovers it once the
                            // destination's link is back
                            if write_frame(w, K_DATA, &payload[8..]).is_err() {
                                *slot = None;
                            }
                        }
                    }
                    K_CTRL => match decode::<Ctrl>(payload) {
                        Ok(ctrl) => {
                            let _ = ev_tx.send(RouterEvent::Ctrl { node, ctrl });
                        }
                        Err(_) => continue,
                    },
                    K_HEARTBEAT => {}
                    _ => {}
                }
            }
            Ok(None) => continue, // idle: just poll the stop flag
            Err(_) => {
                let _ = ev_tx.send(RouterEvent::Eof { node });
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------
// worker side: the socket link
// ---------------------------------------------------------------------

/// A worker's single multiplexed connection to the router: the data
/// plane (`Frame<Wire>` to/from peers, via `Transport`) and the
/// control plane (`Ctrl` to/from the host) share it, keyed by frame
/// kind. Transient socket errors trigger bounded reconnect with
/// jittered backoff and a fresh handshake.
pub(crate) struct SockLink {
    addr: String,
    node: i64,
    pmax: usize,
    sock: Option<Sock>,
    fbuf: FrameBuf,
    pending_data: VecDeque<Frame<Wire>>,
    pending_ctrl: VecDeque<Ctrl>,
    reconnects: u32,
    /// Idle-heartbeat interval (the [`HEARTBEAT_IVL`] default until the
    /// spawning pool installs its service-level value).
    hb_ivl: Duration,
}

impl SockLink {
    /// Dial and handshake. A `HELLO_REJECT` (e.g. version mismatch)
    /// comes back as the reject reason.
    pub fn connect(addr: &str, node: i64, pmax: usize) -> Result<SockLink, String> {
        let mut link = SockLink {
            addr: addr.to_string(),
            node,
            pmax,
            sock: None,
            fbuf: FrameBuf::default(),
            pending_data: VecDeque::new(),
            pending_ctrl: VecDeque::new(),
            reconnects: 0,
            hb_ivl: HEARTBEAT_IVL,
        };
        link.dial_hello()?;
        Ok(link)
    }

    /// Override the idle-heartbeat interval (the worker subcommand's
    /// optional fourth argument, from the host's `ProtoTimeouts`).
    pub fn set_heartbeat_ivl(&mut self, ivl: Duration) {
        if !ivl.is_zero() {
            self.hb_ivl = ivl;
        }
    }

    fn dial_hello(&mut self) -> Result<(), String> {
        let mut sock = dial(&self.addr).map_err(|e| format!("dial {}: {e}", self.addr))?;
        let hello = encode(&(WIRE_VERSION, self.node, self.pmax)).map_err(|e| e.to_string())?;
        write_frame(&mut sock, K_HELLO, &hello).map_err(|e| format!("hello send: {e}"))?;
        let mut fbuf = FrameBuf::default();
        match fbuf.next_frame(&mut sock, Duration::from_secs(5)) {
            Ok(Some((K_HELLO_OK, _))) => {
                self.fbuf = fbuf;
                self.sock = Some(sock);
                Ok(())
            }
            Ok(Some((K_HELLO_REJECT, reason))) => Err(String::from_utf8_lossy(reason).into_owned()),
            Ok(_) => Err("handshake: unexpected first frame".to_string()),
            Err(e) => Err(format!("handshake: {e}")),
        }
    }

    /// Bounded reconnect with jittered exponential backoff; returns
    /// whether a fresh handshake succeeded.
    fn reconnect(&mut self) -> bool {
        if let Some(s) = self.sock.take() {
            s.shutdown();
        }
        for attempt in 0..RECONNECT_ATTEMPTS {
            self.reconnects = self.reconnects.wrapping_add(1);
            let backoff = RECONNECT_BASE * 2u32.saturating_pow(attempt).min(64);
            std::thread::sleep(jittered_backoff(
                backoff.min(Duration::from_millis(640)),
                50,
                self.node,
                self.reconnects,
            ));
            if self.dial_hello().is_ok() {
                return true;
            }
        }
        false
    }

    /// Send one frame, reconnecting once on a dead link. Data frames
    /// that still fail are dropped (the NACK protocol recovers them);
    /// the caller decides whether a control frame failure is fatal. A
    /// frame the layer refuses to write is reported on stderr and
    /// dropped without touching the healthy link.
    fn send_kind(&mut self, kind: u8, payload: &[u8]) -> bool {
        for _ in 0..2 {
            match self.sock.as_mut() {
                Some(sock) => {
                    match write_frame(sock, kind, payload) {
                        Ok(()) => return true,
                        Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => {
                            eprintln!("vcal worker {}: frame dropped: {e}", self.node);
                            return false;
                        }
                        Err(_) => {}
                    }
                    if !self.reconnect() {
                        return false;
                    }
                }
                None => {
                    if !self.reconnect() {
                        return false;
                    }
                }
            }
        }
        false
    }

    /// Pump one incoming frame within `slice` into the right queue.
    /// Returns `false` if the link is down and could not be restored.
    fn pump(&mut self, slice: Duration) -> bool {
        let Some(sock) = self.sock.as_mut() else {
            return self.reconnect();
        };
        match self.fbuf.next_frame(sock, slice) {
            Ok(Some((K_DATA, payload))) => {
                if let Ok(f) = decode(payload) {
                    self.pending_data.push_back(f);
                }
                true
            }
            Ok(Some((K_CTRL, payload))) => {
                if let Ok(c) = decode(payload) {
                    self.pending_ctrl.push_back(c);
                }
                true
            }
            Ok(Some(_)) | Ok(None) => true,
            Err(_) => self.reconnect(),
        }
    }

    /// Reliable control send (host-bound). Failure after the reconnect
    /// budget means the host is gone — the worker should exit.
    pub fn send_ctrl(&mut self, ctrl: &Ctrl) -> Result<(), String> {
        let bytes = encode(ctrl).map_err(|e| e.to_string())?;
        if self.send_kind(K_CTRL, &bytes) {
            Ok(())
        } else {
            Err("control link lost beyond reconnect budget".to_string())
        }
    }

    /// Wait for the next control message, heartbeating while idle so
    /// the host can tell a parked worker from a hung one. `None` means
    /// the link died beyond recovery.
    pub fn recv_ctrl(&mut self, idle_heartbeat: bool) -> Option<Ctrl> {
        loop {
            if let Some(c) = self.pending_ctrl.pop_front() {
                return Some(c);
            }
            if !self.pump(self.hb_ivl) {
                return None;
            }
            if self.pending_ctrl.is_empty() && idle_heartbeat && !self.send_kind(K_HEARTBEAT, &[]) {
                return None;
            }
        }
    }

    /// Heartbeat now (used at run boundaries).
    pub fn heartbeat(&mut self) {
        let _ = self.send_kind(K_HEARTBEAT, &[]);
    }
}

impl Transport<Wire> for &mut SockLink {
    fn peer_count(&self) -> usize {
        self.pmax
    }

    fn send(&mut self, dst: usize, frame: Frame<Wire>) {
        // [dst i64][frame]: the router reads the prefix, never the frame.
        // A drop here is indistinguishable from wire loss; recovery is
        // the protocol's job.
        if let Ok(payload) = encode(&(dst as i64, frame)) {
            let _ = self.send_kind(K_DATA, &payload);
        }
    }

    fn recv(&mut self, slice: Duration) -> Option<Frame<Wire>> {
        let deadline = Instant::now() + slice;
        loop {
            if let Some(f) = self.pending_data.pop_front() {
                return Some(f);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            if !self.pump(left) {
                // link gone: behave like a silent wire until the
                // protocol's own deadline surfaces a typed error
                std::thread::sleep(left);
                return None;
            }
        }
    }

    fn purge(&mut self) {
        // drain stale data frames out of both the local queue and the
        // socket buffer, keeping control frames; a quiet window ends
        // the purge (the caller's barrier keeps new frames off the
        // wire until every peer has purged)
        self.pending_data.clear();
        loop {
            if !self.pump(Duration::from_millis(25)) {
                return;
            }
            if self.pending_data.is_empty() {
                return; // the window elapsed without a stale data frame
            }
            self.pending_data.clear();
        }
    }
}

// ---------------------------------------------------------------------
// chaos proxy
// ---------------------------------------------------------------------

/// Seeded byte-level fault plan for the [`ChaosProxy`] — the faults
/// only a real wire can produce, as per-data-frame probabilities.
/// Drawn from a per-worker SplitMix64 stream (seed ⊕ node) exactly like
/// [`crate::FaultPlan`]'s packet classifier, so chaos runs are
/// reproducible. Probabilities are clamped into `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPlan {
    /// Seed of the per-connection fault streams.
    pub seed: u64,
    /// Probability a data frame is truncated mid-write and the
    /// connection severed (the receiver resynchronizes by reconnect).
    pub truncate: f64,
    /// Probability one payload bit is flipped (caught by the frame
    /// CRC; the frame is dropped and NACK-recovered).
    pub bitflip: f64,
    /// Probability the frame is stalled by [`ChaosPlan::stall_ms`]
    /// before delivery.
    pub stall: f64,
    /// Probability the connection is severed without delivering the
    /// frame (reconnect + NACK recovery).
    pub sever: f64,
    /// Stall duration in milliseconds.
    pub stall_ms: u64,
    /// Hard cap on injected faults per worker connection stream, so a
    /// chaos soak terminates.
    pub max_faults: u32,
}

impl ChaosPlan {
    /// A plan with the given seed and no faults enabled.
    pub fn seeded(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            truncate: 0.0,
            bitflip: 0.0,
            stall: 0.0,
            sever: 0.0,
            stall_ms: 20,
            max_faults: 32,
        }
    }

    /// Set the truncate-and-sever probability (clamped into `[0, 1]`).
    pub fn with_truncate(mut self, p: f64) -> ChaosPlan {
        self.truncate = clamp_prob(p);
        self
    }

    /// Set the bit-flip probability (clamped into `[0, 1]`).
    pub fn with_bitflip(mut self, p: f64) -> ChaosPlan {
        self.bitflip = clamp_prob(p);
        self
    }

    /// Set the stall probability (clamped into `[0, 1]`).
    pub fn with_stall(mut self, p: f64, ms: u64) -> ChaosPlan {
        self.stall = clamp_prob(p);
        self.stall_ms = ms;
        self
    }

    /// Set the sever probability (clamped into `[0, 1]`).
    pub fn with_sever(mut self, p: f64) -> ChaosPlan {
        self.sever = clamp_prob(p);
        self
    }

    /// Cap the number of injected faults.
    pub fn with_max_faults(mut self, n: u32) -> ChaosPlan {
        self.max_faults = n;
        self
    }

    fn any(&self) -> bool {
        self.truncate > 0.0 || self.bitflip > 0.0 || self.stall > 0.0 || self.sever > 0.0
    }
}

/// What the chaos stream decided for one data frame.
enum ChaosCall {
    Forward,
    Truncate,
    Bitflip,
    Stall,
    Sever,
}

struct ChaosStream {
    plan: ChaosPlan,
    rng: u64,
    faults: u32,
}

impl ChaosStream {
    /// Per-node stream: same derivation discipline as `FaultState`.
    fn new(plan: ChaosPlan, node: i64) -> ChaosStream {
        let mut s = plan.seed ^ (node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let _ = splitmix64(&mut s);
        ChaosStream {
            plan,
            rng: s,
            faults: 0,
        }
    }

    fn classify(&mut self) -> ChaosCall {
        if self.faults >= self.plan.max_faults {
            return ChaosCall::Forward;
        }
        let r = unit_f64(splitmix64(&mut self.rng));
        let mut acc = self.plan.truncate;
        if r < acc {
            self.faults += 1;
            return ChaosCall::Truncate;
        }
        acc += self.plan.bitflip;
        if r < acc {
            self.faults += 1;
            return ChaosCall::Bitflip;
        }
        acc += self.plan.stall;
        if r < acc {
            self.faults += 1;
            return ChaosCall::Stall;
        }
        acc += self.plan.sever;
        if r < acc {
            self.faults += 1;
            return ChaosCall::Sever;
        }
        ChaosCall::Forward
    }
}

/// A byte-level man-in-the-middle between workers and the router.
/// Workers dial the proxy's address; each accepted connection is
/// paired with a fresh upstream connection to the real router. The
/// worker→router direction is frame-aware: data frames are faulted
/// per [`ChaosPlan`] (control and handshake frames pass untouched —
/// the reliable protocol only covers the data plane, so corrupting a
/// `Job` would test nothing but the test harness). The router→worker
/// direction is a transparent byte pump.
pub(crate) struct ChaosProxy {
    /// Address workers should dial instead of the router's.
    pub addr: String,
    stop: Arc<AtomicBool>,
}

impl ChaosProxy {
    pub fn spawn(
        kind: TransportKind,
        upstream: &str,
        plan: ChaosPlan,
    ) -> std::io::Result<ChaosProxy> {
        let listener = NetListener::bind(kind)?;
        let addr = listener.addr.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let upstream = upstream.to_string();
        {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(AtomicOrd::Relaxed) {
                    match listener.accept() {
                        Ok(Some(down)) => {
                            let Ok(up) = dial(&upstream) else { continue };
                            spawn_pair(down, up, plan, Arc::clone(&stop));
                        }
                        Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                        Err(_) => break,
                    }
                }
            });
        }
        Ok(ChaosProxy { addr, stop })
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, AtomicOrd::Relaxed);
    }
}

fn spawn_pair(down: Sock, up: Sock, plan: ChaosPlan, stop: Arc<AtomicBool>) {
    let (Ok(mut down_r), Ok(mut up_r)) = (down.try_clone(), up.try_clone()) else {
        return;
    };
    let mut down_w = down;
    let mut up_w = up;

    // router → worker: transparent pump
    {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let _ = up_r.set_read_timeout(Some(Duration::from_millis(200)));
            let mut buf = [0u8; 16 * 1024];
            loop {
                if stop.load(AtomicOrd::Relaxed) {
                    return;
                }
                match up_r.read(&mut buf) {
                    Ok(0) => {
                        down_w.shutdown();
                        return;
                    }
                    Ok(n) => {
                        if down_w.write_all(&buf[..n]).is_err() {
                            return;
                        }
                    }
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut
                            || e.kind() == std::io::ErrorKind::Interrupted =>
                    {
                        continue;
                    }
                    Err(_) => return,
                }
            }
        });
    }

    // worker → router: frame-aware fault injection
    std::thread::spawn(move || {
        let mut fbuf = FrameBuf::default();
        let mut stream: Option<ChaosStream> = None;
        loop {
            if stop.load(AtomicOrd::Relaxed) {
                return;
            }
            match fbuf.next_frame(&mut down_r, Duration::from_millis(200)) {
                Ok(Some((kind, payload))) => {
                    if kind == K_HELLO {
                        if let Ok((_, node, _)) = decode::<(u32, i64, usize)>(payload) {
                            stream = Some(ChaosStream::new(plan, node));
                        }
                    }
                    let mut bytes = frame_bytes(kind, payload);
                    let call = match (&mut stream, kind) {
                        (Some(s), K_DATA) if plan.any() => s.classify(),
                        _ => ChaosCall::Forward,
                    };
                    match call {
                        ChaosCall::Forward => {
                            if up_w.write_all(&bytes).is_err() {
                                return;
                            }
                        }
                        ChaosCall::Truncate => {
                            // half a frame, then a dead link: the
                            // router's reader sees sync loss / EOF and
                            // the worker reconnects
                            let half = bytes.len() / 2;
                            let _ = up_w.write_all(&bytes[..half.max(1)]);
                            up_w.shutdown();
                            down_r.shutdown();
                            return;
                        }
                        ChaosCall::Bitflip => {
                            // flip a payload bit after the CRC was
                            // computed: the router drops the frame
                            let off = HEADER + (bytes.len() - HEADER) / 2;
                            bytes[off] ^= 0x10;
                            if up_w.write_all(&bytes).is_err() {
                                return;
                            }
                        }
                        ChaosCall::Stall => {
                            std::thread::sleep(Duration::from_millis(plan.stall_ms));
                            if up_w.write_all(&bytes).is_err() {
                                return;
                            }
                        }
                        ChaosCall::Sever => {
                            up_w.shutdown();
                            down_r.shutdown();
                            return;
                        }
                    }
                }
                Ok(None) => continue,
                Err(_) => {
                    up_w.shutdown();
                    return;
                }
            }
        }
    });
}

// ---------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::JobMsg;
    use crate::transport::Packet;

    fn roundtrip_over(kind: TransportKind) {
        let router = Router::bind(kind, 2).expect("bind");
        let addr = router.addr.clone();
        let t = std::thread::spawn(move || {
            let mut l0 = SockLink::connect(&addr, 0, 2).expect("worker 0 connects");
            // wait for peer 1's hello before sending (the router drops
            // data for unconnected peers, by design)
            std::thread::sleep(Duration::from_millis(150));
            let f = Frame::Data(Packet {
                src: 0,
                seq: 0,
                corrupt: true,
                payload: Wire {
                    run_ord: 1,
                    values: vec![2.5, -1.0].into(),
                },
            });
            (&mut &mut l0).send(1, f);
            l0.send_ctrl(&Ctrl::Ready(1)).expect("ctrl send");
        });
        let addr2 = router.addr.clone();
        let t2 = std::thread::spawn(move || {
            let mut l1 = SockLink::connect(&addr2, 1, 2).expect("worker 1 connects");
            let got = (&mut &mut l1)
                .recv(Duration::from_secs(5))
                .expect("data frame routed");
            match got {
                Frame::Data(p) => {
                    assert_eq!(p.src, 0);
                    assert!(p.corrupt, "a fault plan's mark travels in the frame");
                    assert_eq!(p.payload.run_ord, 1);
                    assert_eq!(*p.payload.values, [2.5, -1.0]);
                }
                other => panic!("wrong frame: {other:?}"),
            }
        });
        // the host sees both hellos and worker 0's Ready
        let mut hellos = 0;
        let mut ready = false;
        let deadline = Instant::now() + Duration::from_secs(5);
        while (hellos < 2 || !ready) && Instant::now() < deadline {
            match router.recv_event(Duration::from_millis(100)) {
                Some(RouterEvent::Hello { .. }) => hellos += 1,
                Some(RouterEvent::Ctrl {
                    node: 0,
                    ctrl: Ctrl::Ready(_),
                }) => ready = true,
                _ => {}
            }
        }
        t.join().expect("worker 0");
        t2.join().expect("worker 1");
        assert_eq!(hellos, 2, "both workers handshook");
        assert!(ready, "control plane delivered Ready");
    }

    #[test]
    fn uds_routes_data_and_ctrl() {
        roundtrip_over(TransportKind::Uds);
    }

    #[test]
    fn tcp_routes_data_and_ctrl() {
        roundtrip_over(TransportKind::Tcp);
    }

    #[test]
    fn version_mismatch_is_rejected_with_reason() {
        let router = Router::bind(TransportKind::Tcp, 1).expect("bind");
        // speak a wrong version by hand
        let mut sock = dial(&router.addr).expect("dial");
        let mut hello = Vec::new();
        hello.extend_from_slice(&(WIRE_VERSION + 1).to_le_bytes());
        hello.extend_from_slice(&0i64.to_le_bytes());
        hello.extend_from_slice(&1u64.to_le_bytes());
        write_frame(&mut sock, K_HELLO, &hello).expect("send");
        let mut fbuf = FrameBuf::default();
        match fbuf.next_frame(&mut sock, Duration::from_secs(5)) {
            Ok(Some((K_HELLO_REJECT, reason))) => {
                let r = String::from_utf8_lossy(reason).into_owned();
                assert!(r.contains("version"), "reason names the cause: {r}");
            }
            other => panic!("expected reject, got {other:?}"),
        }
    }

    impl FrameBuf {
        /// Bytes arriving, as a socket read would land them.
        fn feed(&mut self, bytes: &[u8]) {
            self.rbuf.truncate(self.filled);
            self.rbuf.extend_from_slice(bytes);
            self.filled = self.rbuf.len();
        }

        /// [`FrameBuf::pop`] with the payload copied out.
        fn pop_owned(&mut self) -> Result<Option<(u8, Vec<u8>)>, NetFail> {
            let found = self.pop()?;
            Ok(found.map(|(kind, body)| (kind, self.rbuf[body].to_vec())))
        }
    }

    /// Deterministic payload bytes with no zero among them, so dropping
    /// one always changes a word.
    fn noise(n: usize) -> Vec<u8> {
        let mut s = 0x5eed_u64;
        (0..n).map(|_| splitmix64(&mut s) as u8 | 1).collect()
    }

    #[test]
    fn checksum_sees_every_bit_and_the_length() {
        // 0..=100 covers the empty payload, each lane boundary, whole
        // 32-byte blocks and every byte-tail length
        for n in 0..=100usize {
            let clean = noise(n);
            let sum = checksum(&clean);
            for bit in 0..8 * n {
                let mut flipped = clean.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum(&flipped), sum, "len {n}: bit {bit} flips unseen");
            }
            let mut longer = clean.clone();
            longer.push(0);
            assert_ne!(checksum(&longer), sum, "len {n}: zero-extension unseen");
            if n > 0 {
                assert_ne!(checksum(&clean[..n - 1]), sum, "len {n}: truncation unseen");
            }
        }
        // an all-zero payload differs from every other all-zero length
        let zeros = [0u8; 100];
        let sums: std::collections::BTreeSet<u64> =
            (0..=100).map(|n| checksum(&zeros[..n])).collect();
        assert_eq!(sums.len(), 101);
    }

    /// The checksum is part of the frame format: a change to it must
    /// come with a new [`MAGIC`], not slip in silently. (The vectors were
    /// cross-checked against an independent implementation of §15.)
    #[test]
    fn checksum_is_pinned() {
        let payload: Vec<u8> = (0u8..77).collect();
        assert_eq!(checksum(&payload), 0x43f6_77af_3476_e6e2);
        assert_eq!(checksum(&[]), 0x6156_df0b_f604_367e);
        assert_eq!(MAGIC.to_be_bytes(), *b"vCA2");
    }

    #[test]
    fn crc_corruption_drops_one_frame_and_keeps_sync() {
        let mut fbuf = FrameBuf::default();
        let mut bytes = frame_bytes(K_DATA, &[1, 2, 3, 4]);
        bytes[HEADER + 1] ^= 0xff; // corrupt payload after CRC
        let good = frame_bytes(K_CTRL, &[9]);
        fbuf.feed(&bytes);
        fbuf.feed(&good);
        let got = fbuf.pop_owned().expect("stream stays in sync");
        assert_eq!(got.expect("second frame survives"), (K_CTRL, vec![9]));
        assert!(fbuf.pop().expect("clean tail").is_none());
        // the same across a bulk frame: corrupt in its last word, dropped
        // whole, and the frame behind it pops
        let mut bulk = frame_bytes(K_DATA, &noise(1 << 20));
        *bulk.last_mut().expect("payload") ^= 0x80;
        fbuf.feed(&bulk);
        fbuf.feed(&good);
        let got = fbuf.pop_owned().expect("in sync");
        assert_eq!(got.expect("frame after the dropped one"), (K_CTRL, vec![9]));
    }

    #[test]
    fn partial_frames_accumulate_across_reads() {
        let mut fbuf = FrameBuf::default();
        let bytes = frame_bytes(K_DATA, &[7; 100]);
        fbuf.feed(&bytes[..HEADER + 10]);
        assert!(fbuf.pop().expect("no error").is_none(), "incomplete frame");
        fbuf.feed(&bytes[HEADER + 10..]);
        let (kind, payload) = fbuf.pop_owned().expect("no error").expect("complete now");
        assert_eq!((kind, payload), (K_DATA, vec![7; 100]));
    }

    /// A 4 MiB frame trickling in over a real socket in pieces of 1 B,
    /// 17 B, 16 KiB + 1 and the rest reassembles; two frames written
    /// back to back behind it both pop; and the connection does not keep
    /// the bulk frame's buffer afterwards.
    #[test]
    fn bulk_frame_reassembles_from_pieces_and_its_buffer_is_released() {
        let (a, b) = UnixStream::pair().expect("socket pair");
        let (mut tx, mut rx) = (Sock::Unix(a), Sock::Unix(b));
        let payload = noise(4 << 20);
        let bytes = frame_bytes(K_SREQ, &payload);
        let writer = std::thread::spawn(move || {
            let cuts = [0, 1, 18, 18 + (16 << 10) + 1, bytes.len()];
            for w in cuts.windows(2) {
                tx.write_all(&bytes[w[0]..w[1]]).expect("piece");
                std::thread::sleep(Duration::from_millis(5));
            }
            let mut two = frame_bytes(K_CTRL, &[1]);
            two.extend_from_slice(&frame_bytes(K_HEARTBEAT, &[]));
            tx.write_all(&two).expect("two frames, one write");
            tx
        });
        let mut fbuf = FrameBuf::default();
        let mut next = || loop {
            // a short timeout, so the pieces are met mid-frame
            match fbuf.next_frame(&mut rx, Duration::from_millis(2)) {
                Ok(Some((kind, body))) => break (kind, body.to_vec(), fbuf.rbuf.capacity()),
                Ok(None) => {}
                Err(e) => panic!("stream failed: {e}"),
            }
        };
        let (kind, got, cap) = next();
        assert_eq!(kind, K_SREQ);
        assert!(got == payload, "bulk payload intact");
        assert!(cap > 4 << 20, "the frame on loan lies in the accumulator");
        // the loan ends with the next call, and the space with it
        let (kind, got, cap) = next();
        assert_eq!((kind, got), (K_CTRL, vec![1]));
        assert!(cap <= 2 * IDLE_CAP, "{cap} bytes still held once let go");
        let (kind, got, _) = next();
        assert_eq!((kind, got), (K_HEARTBEAT, vec![]));
        drop(writer.join().expect("writer"));
    }

    /// A peer on the previous frame format is told apart at its first
    /// frame, before a byte of payload is read or reserved for.
    #[test]
    fn older_magic_and_oversize_length_poison_before_any_reservation() {
        let mut old = frame_bytes(K_HELLO, &[0; 20]);
        old[0..4].copy_from_slice(&0x7643_414Cu32.to_le_bytes());
        let mut huge = frame_bytes(K_DATA, &[]);
        huge[5..9].copy_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        for bytes in [old, huge] {
            let mut fbuf = FrameBuf::default();
            fbuf.feed(&bytes[..HEADER]);
            let cap = fbuf.rbuf.capacity();
            assert!(matches!(fbuf.pop(), Err(NetFail::BadMagic)));
            assert_eq!(fbuf.rbuf.capacity(), cap);
        }
    }

    #[test]
    fn oversize_payload_is_refused_before_it_reaches_the_wire() {
        let (a, b) = UnixStream::pair().expect("socket pair");
        let (mut tx, mut rx) = (Sock::Unix(a), Sock::Unix(b));
        let too_long = vec![0u8; MAX_FRAME as usize + 1];
        let err = write_frame(&mut tx, K_DATA, &too_long).expect_err("refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        // nothing was written: the next frame is the first the peer sees
        write_frame(&mut tx, K_CTRL, &[9]).expect("link still usable");
        let mut fbuf = FrameBuf::default();
        let got = fbuf.next_frame(&mut rx, Duration::from_secs(5));
        assert!(
            matches!(&got, Ok(Some((K_CTRL, p))) if p == &[9]),
            "{got:?}"
        );
    }

    #[test]
    fn bad_magic_poisons_the_stream() {
        let mut fbuf = FrameBuf::default();
        fbuf.feed(&[0u8; HEADER + 4]);
        assert!(matches!(fbuf.pop(), Err(NetFail::BadMagic)));
    }

    #[test]
    fn chaos_stream_is_deterministic_and_bounded() {
        let plan = ChaosPlan::seeded(42)
            .with_bitflip(0.5)
            .with_stall(0.2, 1)
            .with_max_faults(5);
        let draws = |node: i64| {
            let mut s = ChaosStream::new(plan, node);
            (0..100)
                .map(|_| match s.classify() {
                    ChaosCall::Forward => 0u8,
                    ChaosCall::Truncate => 1,
                    ChaosCall::Bitflip => 2,
                    ChaosCall::Stall => 3,
                    ChaosCall::Sever => 4,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(3), draws(3), "same seed+node ⇒ same stream");
        assert_ne!(draws(3), draws(4), "different nodes ⇒ different streams");
        let faulted = draws(3).iter().filter(|&&c| c != 0).count();
        assert!(faulted <= 5, "max_faults bounds injection: {faulted}");
        assert!(faulted > 0, "a 0.7 total rate fires within 100 draws");
    }

    #[test]
    fn chaos_probabilities_are_clamped() {
        let p = ChaosPlan::seeded(1)
            .with_bitflip(7.0)
            .with_truncate(-2.0)
            .with_stall(f64::NAN, 5)
            .with_sever(1.5);
        assert_eq!(p.bitflip, 1.0);
        assert_eq!(p.truncate, 0.0);
        assert_eq!(p.stall, 0.0);
        assert_eq!(p.sever, 1.0);
    }

    #[test]
    fn job_survives_ctrl_roundtrip_over_wire() {
        // one worker, host sends a Job through the real socket path
        let router = Router::bind(TransportKind::Uds, 1).expect("bind");
        let addr = router.addr.clone();
        let t = std::thread::spawn(move || {
            let mut link = SockLink::connect(&addr, 0, 1).expect("connect");
            match link.recv_ctrl(true) {
                Some(Ctrl::Job(j)) => j.locals["A"].clone(),
                other => panic!("expected Job, got {:?}", other.map(|_| "ctrl")),
            }
        });
        // wait for hello
        let hello = router.recv_event(Duration::from_secs(5));
        assert!(matches!(hello, Some(RouterEvent::Hello { node: 0 })));
        let mut locals = std::collections::BTreeMap::new();
        locals.insert("A".to_string(), vec![1.0, 2.0, 3.0]);
        let job = JobMsg {
            run_id: 1,
            clauses: vec![crate::codec::tests::sample_clause()],
            decomps: std::collections::BTreeMap::new(),
            recv_timeout: Duration::from_millis(100),
            faults: None,
            retry: crate::transport::RetryPolicy::default(),
            trace_on: false,
            handshake: false,
            lossy: false,
            locals,
        };
        router
            .send_ctrl(0, &Ctrl::Job(Box::new(job)))
            .expect("job send");
        assert_eq!(t.join().expect("worker"), vec![1.0, 2.0, 3.0]);
    }
}
