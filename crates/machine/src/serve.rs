//! `vcalc serve` — a resident multi-session service (DESIGN.md §18).
//!
//! One long-running process owns a single persistent execution pool and
//! one shared, bounded cache hierarchy (plan / DAG / tune tiers, see
//! [`crate::session`]); any number of concurrent client sessions
//! multiplex onto them over the PR 7 framed stream protocol
//! ([`TransportKind::Uds`] or [`TransportKind::Tcp`]). Requests carry a
//! whole program generatively — clause ASTs, decompositions, initial
//! global images — and the server rebuilds plans locally, exactly as the
//! worker protocol does, so the shared caches can amortize planning
//! across every session that sends the same shapes.
//!
//! **Admission control.** Requests pass through a counting admission
//! queue: at most `concurrency` requests execute at once, at most
//! `queue_depth` wait, and each waiter carries a deadline (per-request,
//! defaulting to the service's). Requests beyond the queue depth, or
//! whose deadline lapses while queued, are rejected with a typed
//! `admission:` transport error instead of being silently stalled. The
//! wait is measured and returned as
//! [`ServiceStats::queue_wait_ns`](crate::ServiceStats).
//!
//! **Tenant isolation.** Each connection declares a tenant at hello
//! time; the FNV-1a fingerprint of the tenant name becomes the
//! namespace component of every cache key the connection's sessions
//! touch. Two tenants submitting byte-identical programs occupy
//! disjoint key spaces — a tenant can hit only entries its own
//! namespace inserted (asserted by `tests/serve.rs`).
//!
//! **Correctness.** Serving changes where work runs, never what it
//! computes: every response's final global images are bit-identical to
//! executing the same program sequentially ([`vcal_core::Env::exec_clause`]),
//! which the stress test and the E19 bench verify with
//! `max_abs_diff == 0.0`.

use crate::codec::{decode, encode, encode_request, RespMsg, RespOk, WIRE_VERSION};
use crate::distributed::DistOptions;
use crate::error::MachineError;
use crate::net::{
    dial, lock, write_frame, FrameBuf, NetFail, NetListener, Sock, K_HEARTBEAT, K_SHELLO,
    K_SHELLO_OK, K_SHELLO_REJECT, K_SREQ, K_SRESP,
};
use crate::session::{DistSession, PoolState, ProgramReport, ScheduleMode, SessionCaches};
use crate::session::{TuneOptions, TuneReport};
use crate::stats::ServiceStats;
use crate::transport::{ProtoTimeouts, TransportKind};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrd};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use vcal_spmd::{CacheBudget, DecompMap, ProgramStep};

/// FNV-1a of a tenant name — the namespace component of shared cache
/// keys. The empty tenant hashes like any other; only owned
/// (non-shared) sessions use the reserved namespace 0.
fn tenant_ns(tenant: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in tenant.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // never collide with the owned-session namespace
    if h == 0 {
        1
    } else {
        h
    }
}

/// Configuration of one resident service.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Transport the service listens on (`Uds` or `Tcp`; `InProc`
    /// listens on loopback TCP — there is no in-process listener).
    pub listen: TransportKind,
    /// Concurrent requests executing at once (admission cap).
    pub concurrency: usize,
    /// Requests allowed to wait for a slot before outright rejection.
    pub queue_depth: usize,
    /// Deadline for requests that do not carry their own: time allowed
    /// in the admission queue before rejection.
    pub default_deadline: Duration,
    /// Budget of each shared cache tier.
    pub cache_budget: CacheBudget,
    /// Execution options for every request (transport selects the
    /// worker-pool backend; `timeouts` defaults to the tightened
    /// [`ProtoTimeouts::service`] profile).
    pub opts: DistOptions,
    /// Benchmark baseline mode: every request gets a private cold
    /// session (own empty caches, own pool) instead of the shared
    /// hierarchy. Exists so E19 can measure exactly what sharing buys.
    pub cold: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: TransportKind::Uds,
            concurrency: 4,
            queue_depth: 64,
            default_deadline: Duration::from_secs(30),
            cache_budget: CacheBudget::default(),
            opts: DistOptions {
                timeouts: ProtoTimeouts::service(),
                ..DistOptions::default()
            },
            cold: false,
        }
    }
}

/// Counting admission gate: `concurrency` permits, a bounded waiter
/// queue, deadline-aware acquisition.
#[derive(Debug)]
struct Admission {
    cap: usize,
    queue_depth: usize,
    state: Mutex<AdmissionState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct AdmissionState {
    in_flight: usize,
    waiting: usize,
}

impl Admission {
    fn new(cap: usize, queue_depth: usize) -> Admission {
        Admission {
            cap: cap.max(1),
            queue_depth,
            state: Mutex::new(AdmissionState::default()),
            cv: Condvar::new(),
        }
    }

    /// Wait for an execution slot, at most `deadline`. Returns the time
    /// spent queued. Rejections are typed `Transport` errors with an
    /// `admission:` detail so clients can distinguish overload from
    /// execution failures.
    fn acquire(&self, deadline: Duration) -> Result<Duration, MachineError> {
        let t0 = Instant::now();
        let mut st = lock(&self.state);
        if st.in_flight < self.cap {
            st.in_flight += 1;
            return Ok(t0.elapsed());
        }
        if st.waiting >= self.queue_depth {
            return Err(MachineError::Transport {
                node: -1,
                detail: format!(
                    "admission: queue full ({} executing, {} waiting)",
                    st.in_flight, st.waiting
                ),
            });
        }
        st.waiting += 1;
        loop {
            let left = deadline.saturating_sub(t0.elapsed());
            if left.is_zero() {
                st.waiting -= 1;
                return Err(MachineError::Transport {
                    node: -1,
                    detail: format!("admission: deadline of {deadline:?} elapsed in queue"),
                });
            }
            let (guard, _timeout) = match self.cv.wait_timeout(st, left) {
                Ok(v) => v,
                Err(poisoned) => {
                    let (g, t) = poisoned.into_inner();
                    (g, t)
                }
            };
            st = guard;
            if st.in_flight < self.cap {
                st.waiting -= 1;
                st.in_flight += 1;
                return Ok(t0.elapsed());
            }
        }
    }

    fn release(&self) {
        lock(&self.state).in_flight -= 1;
        self.cv.notify_one();
    }
}

/// An acquired execution slot, returned when dropped: no panic below
/// `serve_one` can take the slot with it and starve every later request.
struct Slot<'a>(&'a Admission);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// Everything the accept loop and every connection thread share.
struct Shared {
    cfg: ServeConfig,
    caches: Arc<Mutex<SessionCaches>>,
    pools: Arc<Mutex<PoolState>>,
    admission: Admission,
    served: AtomicU64,
    stop: AtomicBool,
}

/// A running service: bind with [`ServeHandle::start`], read the dial
/// address from [`ServeHandle::addr`], and drop (or [`ServeHandle::stop`])
/// to shut down. Connection handling runs on background threads.
pub struct ServeHandle {
    addr: String,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ServeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeHandle")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl ServeHandle {
    /// Bind the listener and start accepting sessions.
    pub fn start(cfg: ServeConfig) -> Result<ServeHandle, MachineError> {
        let listener = NetListener::bind(cfg.listen).map_err(|e| MachineError::Transport {
            node: -1,
            detail: format!("serve bind failed: {e}"),
        })?;
        let addr = listener.addr.clone();
        let shared = Arc::new(Shared {
            admission: Admission::new(cfg.concurrency, cfg.queue_depth),
            caches: Arc::new(Mutex::new(SessionCaches::new(cfg.cache_budget))),
            pools: Arc::new(Mutex::new(PoolState::default())),
            served: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            cfg,
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(&listener, &accept_shared));
        Ok(ServeHandle {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The dial address clients connect to (`uds:<path>` / `tcp:<hp>`).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Requests completed since start.
    pub fn sessions_served(&self) -> u64 {
        self.shared.served.load(AtomicOrd::Relaxed)
    }

    /// Budget-pressure evictions across all shared cache tiers since
    /// start.
    pub fn evictions(&self) -> u64 {
        lock(&self.shared.caches).evictions()
    }

    /// Stop accepting and wind down (also runs on drop).
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.shared.stop.store(true, AtomicOrd::Relaxed);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &NetListener, shared: &Arc<Shared>) {
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shared.stop.load(AtomicOrd::Relaxed) {
        match listener.accept() {
            Ok(Some(sock)) => {
                let conn_shared = Arc::clone(shared);
                conns.push(std::thread::spawn(move || {
                    handle_conn(sock, &conn_shared);
                }));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(2)),
            Err(_) => break,
        }
        conns.retain(|h| !h.is_finished());
    }
    for h in conns {
        let _ = h.join();
    }
    // drop the tiers and pool on a service thread: the stopper's malloc caches get none of it
    *lock(&shared.caches) = SessionCaches::default();
    *lock(&shared.pools) = PoolState::default();
}

/// One client connection: hello handshake, then a request/response loop
/// until the peer hangs up or the service stops.
fn handle_conn(mut sock: Sock, shared: &Arc<Shared>) {
    let mut fbuf = FrameBuf::default();
    // hello: version + tenant, answered before any request is admitted
    let ns = match hello(&mut sock, &mut fbuf, shared) {
        Some(ns) => ns,
        None => return,
    };
    loop {
        if shared.stop.load(AtomicOrd::Relaxed) {
            return;
        }
        match fbuf.next_frame(&mut sock, Duration::from_millis(200)) {
            Ok(Some((K_SREQ, payload))) => {
                let resp = match decode(payload) {
                    Ok((req_id, req)) => serve_one(shared, ns, req_id, &req),
                    // the id leads the record: echo it even when the rest
                    // does not decode, or the client waits out its guard
                    // for a response it takes to be someone else's
                    Err(e) => RespMsg {
                        req_id: (payload.first_chunk()).map_or(0, |id| u64::from_le_bytes(*id)),
                        res: Err(MachineError::Transport {
                            node: -1,
                            detail: e.to_string(),
                        }),
                    },
                };
                // a response holds no boxed terms, so it always encodes
                let Ok(bytes) = encode(&resp) else { return };
                if write_frame(&mut sock, K_SRESP, &bytes).is_err() {
                    return;
                }
            }
            Ok(Some((K_HEARTBEAT, _))) | Ok(None) => {}
            Ok(Some(_)) | Err(NetFail::Eof) | Err(NetFail::BadMagic) | Err(NetFail::Io(_)) => {
                return;
            }
        }
    }
}

/// Run the hello handshake; `None` means the connection was rejected or
/// lost (already answered on the wire where possible).
fn hello(sock: &mut Sock, fbuf: &mut FrameBuf, shared: &Arc<Shared>) -> Option<u64> {
    match fbuf.next_frame(sock, Duration::from_secs(10)) {
        Ok(Some((K_SHELLO, payload))) => match decode::<(u32, String)>(payload) {
            Ok((version, tenant)) if version == WIRE_VERSION => {
                write_frame(sock, K_SHELLO_OK, &[]).ok()?;
                Some(tenant_ns(&tenant))
            }
            Ok((version, _)) => {
                let msg = format!("wire version {version} != {WIRE_VERSION}");
                let _ = write_frame(sock, K_SHELLO_REJECT, msg.as_bytes());
                None
            }
            Err(e) => {
                let _ = write_frame(sock, K_SHELLO_REJECT, e.to_string().as_bytes());
                None
            }
        },
        _ => {
            let _ = shared; // connection lost before hello; nothing to clean
            None
        }
    }
}

/// Admit, execute, and account one request.
fn serve_one(shared: &Arc<Shared>, ns: u64, req_id: u64, req: &ServeRequest) -> RespMsg {
    let deadline = req.deadline.unwrap_or(shared.cfg.default_deadline);
    let queue_wait = match shared.admission.acquire(deadline) {
        Ok(w) => w,
        Err(e) => {
            return RespMsg {
                req_id,
                res: Err(e),
            }
        }
    };
    let res = {
        let _slot = Slot(&shared.admission);
        run_request(shared, ns, req)
    };
    let res = res.map(|(globals, reports, tune)| {
        let mut service = service_stats(&reports, tune.as_ref());
        service.queue_wait_ns = queue_wait.as_nanos().min(u128::from(u64::MAX)) as u64;
        service.sessions_served = shared.served.fetch_add(1, AtomicOrd::Relaxed) + 1;
        RespOk { globals, service }
    });
    RespMsg { req_id, res }
}

type RunOutcome = (
    BTreeMap<String, Vec<f64>>,
    Vec<ProgramReport>,
    Option<TuneReport>,
);

/// Execute a request's program on a session over the shared (or, in
/// cold mode, a private) cache/pool pair.
fn run_request(
    shared: &Arc<Shared>,
    ns: u64,
    req: &ServeRequest,
) -> Result<RunOutcome, MachineError> {
    if req.n_steps == 0 || req.steps.is_empty() {
        return Err(MachineError::PlanMismatch(
            "request carries an empty program".into(),
        ));
    }
    // the decoded images go straight into node parts
    let session = DistSession::from_images(&req.globals, req.decomps.clone())?;
    let mut session = if shared.cfg.cold {
        session.with_options(shared.cfg.opts)
    } else {
        session.shared(
            shared.cfg.opts,
            Arc::clone(&shared.caches),
            ns,
            Arc::clone(&shared.pools),
        )
    };
    let mut reports = Vec::new();
    let mut tune = None;
    if req.autotune {
        let topts = TuneOptions {
            budget: req.tune.budget.max(1),
            profile_steps: req.tune.profile_steps.max(1),
            ..req.tune
        };
        let (report, tr) = session.run_program_tuned(
            &req.steps,
            req.n_steps,
            req.schedule,
            topts,
            &crate::obs::NULL_TRACER,
        )?;
        reports.push(report);
        tune = Some(tr);
    } else {
        for _ in 0..req.n_steps {
            reports.push(session.run_program(
                &req.steps,
                req.schedule,
                &crate::obs::NULL_TRACER,
            )?);
        }
    }
    Ok((session.gather_images(), reports, tune))
}

/// Derive per-request service counters from the program reports — no
/// shared mutable counters, so concurrent requests can never bleed
/// statistics into each other.
fn service_stats(reports: &[ProgramReport], tune: Option<&TuneReport>) -> ServiceStats {
    let mut s = ServiceStats::default();
    for r in reports {
        for er in &r.steps {
            s.plan_hits += er.cache_hits;
            s.plan_misses += er.cache_misses;
        }
        s.dag_hits += r.dag_cache_hits;
        s.dag_misses += r.dag_cache_misses;
        s.evictions += r.evictions;
    }
    if let Some(t) = tune {
        s.tune_hits = t.tune_cache_hits;
        // every priced candidate is one tune-tier lookup per clause;
        // the tune report already aggregates over retune rounds
        s.tune_misses = t.candidates_priced.saturating_sub(t.tune_cache_hits);
    }
    s
}

// ---------------------------------------------------------------------
// client
// ---------------------------------------------------------------------

/// One program request, client-side — and, after the request id, the
/// wire record the service decodes.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// The program to run.
    pub steps: Vec<ProgramStep>,
    /// Decomposition per array.
    pub decomps: DecompMap,
    /// Initial global image per array, flattened over the 1-D extent.
    pub globals: BTreeMap<String, Vec<f64>>,
    /// Timestep-loop iterations of the whole program.
    pub n_steps: u64,
    /// Schedule mode.
    pub schedule: ScheduleMode,
    /// Route through the decomposition auto-tuner.
    pub autotune: bool,
    /// Tuner options (used when `autotune` is set).
    pub tune: TuneOptions,
    /// Per-request deadline; `None` uses the service default.
    pub deadline: Option<Duration>,
}

impl ServeRequest {
    /// A plain sequential-schedule request for `steps` × `n_steps`.
    pub fn new(
        steps: Vec<ProgramStep>,
        decomps: DecompMap,
        globals: BTreeMap<String, Vec<f64>>,
        n_steps: u64,
    ) -> ServeRequest {
        ServeRequest {
            steps,
            decomps,
            globals,
            n_steps,
            schedule: ScheduleMode::Seq,
            autotune: false,
            tune: TuneOptions::default(),
            deadline: None,
        }
    }
}

/// A successful response: final global images plus the service-side
/// account of the request.
#[derive(Debug, Clone)]
pub struct ServeResponse {
    /// Final global image per array, flattened over the 1-D extent.
    pub globals: BTreeMap<String, Vec<f64>>,
    /// What the shared caches and admission queue did for this request.
    pub service: ServiceStats,
}

/// A client session on a resident service. One connection = one tenant;
/// requests are issued synchronously.
pub struct ServeClient {
    sock: Sock,
    fbuf: FrameBuf,
    next_id: u64,
}

impl std::fmt::Debug for ServeClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeClient").finish_non_exhaustive()
    }
}

impl ServeClient {
    /// Dial the service and run the tenant hello handshake.
    pub fn connect(addr: &str, tenant: &str) -> Result<ServeClient, MachineError> {
        let fail = |detail: String| MachineError::Transport { node: -1, detail };
        let mut sock = dial(addr).map_err(|e| fail(format!("dial {addr}: {e}")))?;
        let hello = encode(&(WIRE_VERSION, tenant.to_string())).map_err(|e| fail(e.to_string()))?;
        write_frame(&mut sock, K_SHELLO, &hello).map_err(|e| fail(format!("hello send: {e}")))?;
        let mut fbuf = FrameBuf::default();
        match fbuf.next_frame(&mut sock, Duration::from_secs(10)) {
            Ok(Some((K_SHELLO_OK, _))) => Ok(ServeClient {
                sock,
                fbuf,
                next_id: 0,
            }),
            Ok(Some((K_SHELLO_REJECT, msg))) => Err(fail(format!(
                "service rejected session: {}",
                String::from_utf8_lossy(msg)
            ))),
            Ok(Some((k, _))) => Err(fail(format!("unexpected frame kind {k} in hello"))),
            Ok(None) => Err(fail("service did not answer hello".into())),
            Err(e) => Err(fail(format!("hello: {e}"))),
        }
    }

    /// Issue one request and wait for its response.
    pub fn request(&mut self, req: &ServeRequest) -> Result<ServeResponse, MachineError> {
        let fail = |detail: String| MachineError::Transport { node: -1, detail };
        self.next_id += 1;
        let payload = encode_request(self.next_id, req).map_err(|e| fail(e.to_string()))?;
        write_frame(&mut self.sock, K_SREQ, &payload)
            .map_err(|e| fail(format!("request send: {e}")))?;
        // generous client-side wait: the server enforces the real
        // deadline; this guard only catches a dead service
        let wait = req
            .deadline
            .unwrap_or(Duration::from_secs(30))
            .saturating_mul(2)
            + Duration::from_secs(30);
        let deadline = Instant::now() + wait;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(fail("service did not respond before client guard".into()));
            }
            match self.fbuf.next_frame(&mut self.sock, left) {
                Ok(Some((K_SRESP, payload))) => {
                    let resp: RespMsg = decode(payload).map_err(|e| fail(e.to_string()))?;
                    if resp.req_id != self.next_id {
                        continue; // stale response from an aborted request
                    }
                    return resp.res.map(|ok| ServeResponse {
                        globals: ok.globals,
                        service: ok.service,
                    });
                }
                Ok(Some(_)) | Ok(None) => {}
                Err(e) => return Err(fail(format!("response: {e}"))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcal_core::func::Fn1;
    use vcal_core::{Array, ArrayRef, Bounds, Clause, Env, Expr, Guard, IndexSet, Ix, Ordering};
    use vcal_decomp::Decomp1;

    fn sweep(n: i64) -> Clause {
        Clause {
            iter: IndexSet::range(1, n - 2),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("U", Fn1::identity()),
            rhs: Expr::mul(
                Expr::add(
                    Expr::Ref(ArrayRef::d1("U", Fn1::shift(-1))),
                    Expr::Ref(ArrayRef::d1("U", Fn1::shift(1))),
                ),
                Expr::Lit(0.5),
            ),
        }
    }

    fn request(n: i64, n_steps: u64) -> ServeRequest {
        let mut decomps = DecompMap::new();
        decomps.insert("U".into(), Decomp1::block(4, Bounds::range(0, n - 1)));
        let mut globals = BTreeMap::new();
        globals.insert(
            "U".to_string(),
            (0..n)
                .map(|v| {
                    if v % 3 == 0 {
                        -(v as f64)
                    } else {
                        v as f64 * 0.5
                    }
                })
                .collect(),
        );
        ServeRequest::new(
            vec![ProgramStep::Clause(sweep(n))],
            decomps,
            globals,
            n_steps,
        )
    }

    fn oracle(n: i64, n_steps: u64) -> Vec<f64> {
        let mut env = Env::new();
        env.insert(
            "U",
            Array::from_fn(Bounds::range(0, n - 1), |i| {
                let v = i.scalar();
                if v % 3 == 0 {
                    -(v as f64)
                } else {
                    v as f64 * 0.5
                }
            }),
        );
        let c = sweep(n);
        for _ in 0..n_steps {
            env.exec_clause(&c);
        }
        let a = env.get("U").expect("oracle array");
        (0..n).map(|i| a.get(&Ix::d1(i))).collect()
    }

    #[test]
    fn serve_roundtrip_matches_oracle_and_warms_cache() {
        let handle = ServeHandle::start(ServeConfig::default()).expect("service starts");
        let mut client = ServeClient::connect(handle.addr(), "t0").expect("connects");
        let req = request(64, 3);
        let r1 = client.request(&req).expect("first request");
        assert_eq!(r1.globals["U"], oracle(64, 3), "bit-exact vs oracle");
        assert_eq!(r1.service.plan_misses, 1, "cold: one plan built");
        assert_eq!(r1.service.plan_hits, 2, "steps 2..3 reuse it");
        // a second session of the same tenant hits the shared cache from
        // its very first step
        let mut client2 = ServeClient::connect(handle.addr(), "t0").expect("connects");
        let r2 = client2.request(&req).expect("second request");
        assert_eq!(r2.globals["U"], oracle(64, 3));
        assert_eq!(r2.service.plan_misses, 0, "fully warm across sessions");
        assert_eq!(r2.service.plan_hits, 3);
        assert_eq!(r2.service.sessions_served, 2);
        handle.stop();
    }

    #[test]
    fn tenants_never_share_cache_entries() {
        let handle = ServeHandle::start(ServeConfig::default()).expect("service starts");
        let req = request(48, 2);
        let mut a = ServeClient::connect(handle.addr(), "alice").expect("connects");
        let ra = a.request(&req).expect("alice");
        assert_eq!(ra.service.plan_misses, 1);
        // same program, different tenant: must be a cold miss
        let mut b = ServeClient::connect(handle.addr(), "bob").expect("connects");
        let rb = b.request(&req).expect("bob");
        assert_eq!(rb.service.plan_misses, 1, "bob cannot hit alice's entry");
        assert_eq!(rb.globals["U"], ra.globals["U"], "same math either way");
    }

    #[test]
    fn admission_rejects_on_zero_queue_depth() {
        // concurrency 1, queue 0: a request arriving while another is in
        // flight must be rejected, not stalled
        let adm = Admission::new(1, 0);
        let w = adm.acquire(Duration::from_millis(100)).expect("first slot");
        assert!(w < Duration::from_millis(100));
        let err = adm
            .acquire(Duration::from_millis(50))
            .expect_err("queue full");
        assert!(format!("{err}").contains("admission: queue full"));
        adm.release();
        adm.acquire(Duration::from_millis(100))
            .expect("slot free again");
    }

    #[test]
    fn admission_deadline_lapses_in_queue() {
        let adm = Admission::new(1, 4);
        adm.acquire(Duration::from_millis(100)).expect("first slot");
        let t0 = Instant::now();
        let err = adm
            .acquire(Duration::from_millis(60))
            .expect_err("deadline must lapse");
        assert!(t0.elapsed() >= Duration::from_millis(60));
        assert!(format!("{err}").contains("admission: deadline"));
    }

    /// A well-framed `K_SREQ` cut short is answered at once under the id
    /// its first eight bytes carry (0 when even those are missing), and
    /// the connection then serves a whole request.
    #[test]
    fn truncated_request_is_answered_under_its_own_id() {
        let handle = ServeHandle::start(ServeConfig::default()).expect("service starts");
        let mut client = ServeClient::connect(handle.addr(), "t0").expect("connects");
        let req = request(64, 1);
        let whole = encode_request(7, &req).expect("encodes");
        for (cut, id) in [(whole.len() / 2, 7), (11, 7), (3, 0)] {
            write_frame(&mut client.sock, K_SREQ, &whole[..cut]).expect("sends");
            let t0 = Instant::now();
            match client
                .fbuf
                .next_frame(&mut client.sock, Duration::from_secs(5))
            {
                Ok(Some((K_SRESP, payload))) => {
                    let resp: RespMsg = decode(payload).expect("response decodes");
                    assert_eq!(resp.req_id, id, "cut at {cut}");
                    assert!(matches!(resp.res, Err(MachineError::Transport { .. })));
                }
                other => panic!("cut at {cut}: expected a response, got {other:?}"),
            }
            assert!(t0.elapsed() < Duration::from_secs(1));
        }
        let resp = client.request(&req).expect("the connection is still good");
        assert_eq!(resp.globals["U"], oracle(64, 1));
    }

    /// A request whose decomposition cannot be represented (a
    /// block-scatter cycle `b·pmax` beyond `i64`) is answered with a typed
    /// error under its own id and takes no admission slot: with one slot
    /// and no queue, the next request runs.
    #[test]
    fn unrepresentable_decomp_is_typed_and_leaks_no_slot() {
        let cfg = ServeConfig {
            concurrency: 1,
            queue_depth: 0,
            ..ServeConfig::default()
        };
        let handle = ServeHandle::start(cfg).expect("service starts");
        let mut client = ServeClient::connect(handle.addr(), "wide").expect("connects");
        let (n, b) = (64, 0x0123_4567_89ab_cdef_i64);
        let mut req = request(n, 1);
        let dealt = Decomp1::block_scatter(b, 4, Bounds::range(0, n - 1));
        req.decomps.insert("U".into(), dealt);
        let mut bytes = encode_request(9, &req).expect("encodes");
        let at = (bytes.windows(8))
            .position(|w| w == b.to_le_bytes())
            .expect("the block size is on the wire");
        bytes[at..at + 8].copy_from_slice(&(1i64 << 62).to_le_bytes());
        write_frame(&mut client.sock, K_SREQ, &bytes).expect("sends");
        match client
            .fbuf
            .next_frame(&mut client.sock, Duration::from_secs(5))
        {
            Ok(Some((K_SRESP, payload))) => {
                let resp: RespMsg = decode(payload).expect("response decodes");
                assert_eq!(resp.req_id, 9);
                match resp.res {
                    Err(MachineError::Transport { detail, .. }) => {
                        assert!(detail.contains("Decomp1"), "{detail}")
                    }
                    other => panic!("expected a typed Transport error, got {other:?}"),
                }
            }
            other => panic!("expected a response, got {other:?}"),
        }
        let resp = client.request(&request(n, 1)).expect("the slot is free");
        assert_eq!(resp.globals["U"], oracle(n, 1));
    }

    /// A well-framed request whose clause predicate is `Not` nested
    /// 2^20 deep — a 1 MiB record that used to overflow the connection
    /// thread's stack and abort the whole service — is answered with a
    /// typed error naming the depth cap, and the connection then serves
    /// a whole request.
    #[test]
    fn nested_request_is_typed_and_the_connection_lives() {
        use crate::codec::{Codec, Enc};
        let handle = ServeHandle::start(ServeConfig::default()).expect("service starts");
        let mut client = ServeClient::connect(handle.addr(), "t0").expect("connects");
        let mut e = Enc::new();
        // id, n_steps, schedule, autotune, budget, profile, retune, deadline
        (5u64, 1u64, 0u8).put(&mut e).expect("encodes");
        (false, 1usize, (1u64, 0u64, 0u64))
            .put(&mut e)
            .expect("encodes");
        // one step: a clause over 0..9 whose predicate never ends
        (1usize, 0u8, Bounds::range(0, 9))
            .put(&mut e)
            .expect("encodes");
        e.buf.extend(std::iter::repeat_n(6u8, 1 << 20));
        e.buf.push(0);
        write_frame(&mut client.sock, K_SREQ, &e.buf).expect("sends");
        match client
            .fbuf
            .next_frame(&mut client.sock, Duration::from_secs(5))
        {
            Ok(Some((K_SRESP, payload))) => {
                let resp: RespMsg = decode(payload).expect("response decodes");
                assert_eq!(resp.req_id, 5);
                match resp.res {
                    Err(MachineError::Transport { detail, .. }) => {
                        assert!(detail.contains("deeper than 256"), "{detail}")
                    }
                    other => panic!("expected a typed Transport error, got {other:?}"),
                }
            }
            other => panic!("expected a response, got {other:?}"),
        }
        let resp = client
            .request(&request(64, 1))
            .expect("the connection lives");
        assert_eq!(resp.globals["U"], oracle(64, 1));
    }

    #[test]
    fn bad_wire_version_is_rejected_at_hello() {
        let handle = ServeHandle::start(ServeConfig::default()).expect("service starts");
        let mut sock = dial(handle.addr()).expect("dials");
        let hello = encode(&(WIRE_VERSION + 1, "x".to_string())).expect("encodes");
        write_frame(&mut sock, K_SHELLO, &hello).expect("sends");
        let mut fbuf = FrameBuf::default();
        match fbuf.next_frame(&mut sock, Duration::from_secs(5)) {
            Ok(Some((K_SHELLO_REJECT, msg))) => {
                assert!(String::from_utf8_lossy(msg).contains("wire version"));
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }
}
