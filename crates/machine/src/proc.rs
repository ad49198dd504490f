//! Real-process workers: the host side ([`ProcPool`]) and the worker
//! side ([`worker_entry`]) of the Uds/Tcp transport backends.
//!
//! Every node of the distributed machine becomes an OS process running
//! `<worker-bin> worker <addr> <node> <pmax>` — the binary named by the
//! `VCAL_WORKER_BIN` environment variable, or the host's own executable
//! when unset (the `vcalc` driver implements the subcommand). Workers
//! dial the host's [`Router`] (or a [`ChaosProxy`] in front of it),
//! complete the version handshake, and park waiting for jobs.
//!
//! Serialization is *generative*: a [`JobMsg`] carries the wave's
//! clauses, the decompositions, the options, and the node's local
//! memories — never a plan. The worker rebuilds each `SpmdPlan` with the
//! same deterministic planner the host runs (and caches it by clause
//! signature + decomposition fingerprint in a bounded LRU, so a timestep
//! loop replans exactly once per worker). Sender packing order therefore
//! equals receiver expectation by construction, on every backend.
//!
//! A job is a **wave**, as on the in-process pool: the worker runs the
//! same node-side [`wave_body`] a pooled thread runs and ships its
//! [`WaveReply`] as is, and the host side is the same lend-and-commit as
//! [`crate::DistExecutor`]'s — the host keeps every node's memories
//! (inside the `JobMsg`s it retains for re-sends; the worker gets a copy
//! only because it is another process), collects staged writes, and
//! commits them through the shared [`finalize_wave`]. Nothing a worker
//! ships back is ever used as array state.
//!
//! Supervision (graceful degradation on peer death):
//!
//! * the host pairs every router event with `Child::try_wait` — a
//!   severed connection from a live process is reconnectable chaos; an
//!   exited process is a dead node;
//! * a dead node is reported as a typed [`MachineError::Transport`],
//!   its peers are released by synthesizing its `Done` frame
//!   ([`Router::broadcast_done`]), and since the host never gave its
//!   copy of any node's memories away the all-or-nothing commit simply
//!   reassembles them — arrays are untouched by a failed run;
//! * the pool itself survives: dead workers are respawned lazily at the
//!   next run, so the same session completes once the fault is gone.

use crate::codec::{Ctrl, JobMsg, ResultMsg};
use crate::darray::DistArray;
use crate::distributed::{disassemble, Disassembled, DistOptions, Wire};
use crate::error::MachineError;
use crate::executor::{
    check_span, finalize_wave, prepare_run, wave_body, wave_clean, BufTracer, JobReply, NodeReply,
    PreparedPlan, Scratch, WaveReply,
};
use crate::net::{ChaosProxy, Router, RouterEvent, SockLink};
use crate::obs::Tracer;
use crate::stats::{ExecReport, NodeStats};
use crate::transport::{Endpoint, ProtoTimeouts, TransportKind};
use std::collections::BTreeMap;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vcal_core::Clause;
use vcal_decomp::Decomp1;
use vcal_spmd::{
    clause_arrays, clause_signature, decomp_fingerprint, BoundedLru, CacheBudget, SpmdPlan,
};

/// Resolve the worker executable: `VCAL_WORKER_BIN`, else this very
/// binary (which must implement the `worker` subcommand — `vcalc`
/// does).
fn worker_bin() -> Result<std::path::PathBuf, MachineError> {
    if let Some(b) = std::env::var_os("VCAL_WORKER_BIN") {
        return Ok(std::path::PathBuf::from(b));
    }
    std::env::current_exe().map_err(|e| MachineError::Transport {
        node: -1,
        detail: format!("cannot resolve worker binary: {e}"),
    })
}

/// A persistent pool of worker OS processes behind a [`Router`]
/// (optionally fronted by a [`ChaosProxy`]). The process analog of
/// [`crate::DistExecutor`]: spawn once, park between runs, purge under
/// a Ready/Go barrier when the previous run may have left frames on
/// the wire.
pub(crate) struct ProcPool {
    kind: TransportKind,
    chaos: Option<crate::net::ChaosPlan>,
    /// Protocol timeouts (spawn deadline, run grace, resend interval,
    /// worker heartbeat) — service-level configuration, part of the
    /// pool's cache identity so tightening them rebuilds the pool.
    timeouts: ProtoTimeouts,
    pmax: usize,
    router: Router,
    /// Keeps the proxy's accept loop alive for reconnects.
    _proxy: Option<ChaosProxy>,
    /// The address workers dial (the proxy's when chaos is on).
    dial_addr: String,
    children: Vec<Option<Child>>,
    /// The previous run may have left frames on the wire (it failed,
    /// injected faults, or ran under chaos): the next run must purge
    /// under the barrier.
    dirty: bool,
    /// Monotonic run counter; each run's [`JobMsg::run_id`]. Lets the
    /// host re-send a Job whose delivery is unconfirmed (the control
    /// plane is only reliable within one connection — a chaos sever can
    /// eat a queued Job or Go) while workers dedupe by id.
    run_seq: u64,
}

impl std::fmt::Debug for ProcPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcPool")
            .field("kind", &self.kind.name())
            .field("pmax", &self.pmax)
            .field("chaos", &self.chaos.is_some())
            .finish_non_exhaustive()
    }
}

impl ProcPool {
    /// Bind the router, optionally interpose the chaos proxy, spawn
    /// `pmax` worker processes, and wait for every handshake.
    pub fn new(
        kind: TransportKind,
        pmax: usize,
        chaos: Option<crate::net::ChaosPlan>,
        timeouts: ProtoTimeouts,
    ) -> Result<ProcPool, MachineError> {
        let router = Router::bind(kind, pmax)?;
        let (proxy, dial_addr) = match chaos {
            Some(plan) => {
                let proxy = ChaosProxy::spawn(kind, &router.addr, plan).map_err(|e| {
                    MachineError::Transport {
                        node: -1,
                        detail: format!("chaos proxy bind failed: {e}"),
                    }
                })?;
                let addr = proxy.addr.clone();
                (Some(proxy), addr)
            }
            None => (None, router.addr.clone()),
        };
        let mut pool = ProcPool {
            kind,
            chaos,
            timeouts,
            pmax,
            router,
            _proxy: proxy,
            dial_addr,
            children: (0..pmax).map(|_| None).collect(),
            dirty: false,
            run_seq: 0,
        };
        let all: Vec<usize> = (0..pmax).collect();
        for &p in &all {
            pool.spawn_worker(p)?;
        }
        pool.await_hellos(&all)?;
        Ok(pool)
    }

    /// Backend this pool runs on.
    pub fn kind(&self) -> TransportKind {
        self.kind
    }

    /// Chaos plan the pool was built with (part of its cache identity).
    pub fn chaos(&self) -> Option<crate::net::ChaosPlan> {
        self.chaos
    }

    /// Protocol timeouts the pool was built with (part of its cache
    /// identity — the worker heartbeat rides the spawn command line).
    pub fn timeouts(&self) -> ProtoTimeouts {
        self.timeouts
    }

    /// Number of worker processes.
    pub fn pmax(&self) -> usize {
        self.pmax
    }

    /// OS process ids of the live workers, in node order (test hook for
    /// killing a specific worker mid-run).
    pub fn pids(&self) -> Vec<u32> {
        self.children
            .iter()
            .filter_map(|c| c.as_ref().map(Child::id))
            .collect()
    }

    fn spawn_worker(&mut self, p: usize) -> Result<(), MachineError> {
        let child = Command::new(worker_bin()?)
            .arg("worker")
            .arg(&self.dial_addr)
            .arg(p.to_string())
            .arg(self.pmax.to_string())
            .arg(self.timeouts.heartbeat_ivl.as_millis().to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| MachineError::Transport {
                node: p as i64,
                detail: format!("cannot spawn worker process: {e}"),
            })?;
        self.children[p] = Some(child);
        Ok(())
    }

    /// Wait until every listed node has completed the handshake,
    /// surfacing early worker deaths as typed errors.
    fn await_hellos(&mut self, nodes: &[usize]) -> Result<(), MachineError> {
        let mut waiting: Vec<usize> = nodes.to_vec();
        let deadline = Instant::now() + self.timeouts.spawn_deadline;
        while !waiting.is_empty() {
            if let Some(RouterEvent::Hello { node }) =
                self.router.recv_event(Duration::from_millis(100))
            {
                waiting.retain(|&w| w as i64 != node);
                continue;
            }
            for &p in &waiting {
                if let Some(status) = self.reap_if_dead(p) {
                    return Err(MachineError::Transport {
                        node: p as i64,
                        detail: format!("worker process exited during startup ({status})"),
                    });
                }
            }
            if Instant::now() > deadline {
                return Err(MachineError::Transport {
                    node: waiting[0] as i64,
                    detail: "worker process never completed the handshake".to_string(),
                });
            }
        }
        Ok(())
    }

    /// `Some(status)` if node `p`'s process has exited (reaping it).
    fn reap_if_dead(&mut self, p: usize) -> Option<String> {
        let child = self.children[p].as_mut()?;
        match child.try_wait() {
            Ok(Some(status)) => {
                self.children[p] = None;
                Some(status.to_string())
            }
            Ok(None) => None,
            Err(e) => {
                self.children[p] = None;
                Some(format!("unwaitable: {e}"))
            }
        }
    }

    /// Kill and reap node `p`'s process (hung-worker supervision).
    fn kill_worker(&mut self, p: usize) {
        if let Some(mut child) = self.children[p].take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.router.disconnect(p as i64);
    }

    /// Execute one wave on the worker processes — the process analog of
    /// [`DistExecutor::run_wave`](crate::DistExecutor): one [`JobMsg`]
    /// per node carrying the wave's clauses and the node's parts of every
    /// array they reference, one transport run, and the shared
    /// [`finalize_wave`] commit into the parts the host kept (inside the
    /// `JobMsg`s it retains for re-sends). The caller vouches that every
    /// plan matches the live images. Bit-identical results and statistics
    /// to the in-process pool, typed errors, and arrays untouched on
    /// failure — including when a worker process dies mid-run.
    pub fn run_wave(
        &mut self,
        jobs: &[Arc<PreparedPlan>],
        arrays: &mut BTreeMap<String, DistArray>,
        opts: DistOptions,
        tracer: &dyn Tracer,
    ) -> Result<Vec<ExecReport>, MachineError> {
        let pmax = self.pmax;
        check_span(jobs, pmax)?;
        let clauses = (jobs.iter())
            .map(|job| Ok(job.d1()?.clause.clone()))
            .collect::<Result<Vec<Clause>, MachineError>>()?;

        // lazy respawn: replace workers that died since the last run
        let mut respawned = Vec::new();
        for p in 0..pmax {
            if self.reap_if_dead(p).is_some() || self.children[p].is_none() {
                self.router.disconnect(p as i64);
                self.spawn_worker(p)?;
                respawned.push(p);
                self.dirty = true; // peers may hold frames for the old incarnation
            }
        }
        if !respawned.is_empty() {
            self.await_hellos(&respawned)?;
        }

        let Disassembled { per_node, decomps } = disassemble(arrays, jobs)?;
        let trace_on = tracer.enabled();
        let handshake = self.dirty;

        // `replies[p]`: `None` while the worker still owes us a protocol
        // step, then its reply or the typed reason there is none
        let mut replies: Vec<Option<NodeReply>> = (0..pmax).map(|_| None).collect();
        let fail = |pool: &mut ProcPool,
                    replies: &mut Vec<Option<NodeReply>>,
                    p: usize,
                    detail: String| {
            pool.kill_worker(p);
            pool.router.broadcast_done(p as i64); // release waiting peers
            let node = p as i64;
            replies[p] = Some(Err(MachineError::Transport { node, detail }));
        };

        // --- dispatch --------------------------------------------------
        // Delivery stays unconfirmed until the node answers (Ready under
        // a barrier, its Result otherwise), so keep every Job around for
        // re-sends; workers dedupe by `run_id` and a completed run is
        // re-answered from the worker's cache, never re-executed. A
        // failed send here is deferred, not fatal: the worker reconnects
        // and the re-send timer retries. The retained Jobs are also where
        // the host's copy of every node's memories lives: the commit
        // below writes into them, whatever became of the worker.
        self.run_seq += 1;
        let run_id = self.run_seq;
        let wave_decomps: BTreeMap<String, Decomp1> = decomps.iter().cloned().collect();
        let msgs: Vec<Ctrl> = per_node
            .into_iter()
            .map(|locals| {
                Ctrl::Job(Box::new(JobMsg {
                    run_id,
                    clauses: clauses.clone(),
                    decomps: wave_decomps.clone(),
                    recv_timeout: opts.recv_timeout,
                    faults: opts.faults,
                    retry: opts.retry,
                    simd: opts.simd,
                    trace_on,
                    handshake,
                    locals,
                }))
            })
            .collect();
        let mut job_sent = vec![Instant::now(); pmax];
        for (p, msg) in msgs.iter().enumerate() {
            let _ = self.router.send_ctrl(p as i64, msg);
        }

        // --- barrier (only after a dirty run): all purge before any send
        if handshake {
            let deadline = Instant::now() + self.timeouts.spawn_deadline;
            let mut ready = vec![false; pmax];
            while (0..pmax).any(|p| replies[p].is_none() && !ready[p]) {
                match self.router.recv_event(Duration::from_millis(100)) {
                    Some(RouterEvent::Ctrl {
                        node,
                        ctrl: Ctrl::Ready(id),
                    }) if id == run_id => ready[node as usize] = true,
                    Some(RouterEvent::Eof { .. }) | Some(_) | None => {}
                }
                for p in 0..pmax {
                    if replies[p].is_some() || ready[p] {
                        continue;
                    }
                    if let Some(status) = self.reap_if_dead(p) {
                        let why = format!("worker process exited at the purge barrier ({status})");
                        fail(self, &mut replies, p, why);
                    } else if job_sent[p].elapsed() > self.timeouts.resend_ivl {
                        job_sent[p] = Instant::now();
                        let _ = self.router.send_ctrl(p as i64, &msgs[p]);
                    }
                }
                if Instant::now() > deadline {
                    for p in 0..pmax {
                        if replies[p].is_none() && !ready[p] {
                            let why = "worker never reached the purge barrier".to_string();
                            fail(self, &mut replies, p, why);
                        }
                    }
                }
            }
            for (p, reply) in replies.iter().enumerate() {
                if reply.is_none() {
                    // Go delivery is unconfirmed too: a worker that loses
                    // it answers a re-sent Job with a fresh Ready, and
                    // the collect loop below re-issues Go.
                    let _ = self.router.send_ctrl(p as i64, &Ctrl::Go);
                }
            }
        }

        // --- collect ----------------------------------------------------
        // Workers bound their own waits (recv_timeout, retry deadline),
        // so the host deadline is a backstop against dead/hung processes
        // the event loop below didn't already catch.
        let retry_budget = opts.retry.deadline.unwrap_or(Duration::ZERO);
        let deadline =
            Instant::now() + opts.recv_timeout * 4 + retry_budget + self.timeouts.run_grace;
        while replies.iter().any(Option::is_none) {
            match self.router.recv_event(Duration::from_millis(50)) {
                Some(RouterEvent::Ctrl {
                    node,
                    ctrl: Ctrl::Result(r),
                }) if r.run_id == run_id => {
                    let slot = &mut replies[node as usize];
                    if slot.is_none() {
                        *slot = Some(Ok(Box::new(r.reply)));
                    }
                }
                Some(RouterEvent::Ctrl {
                    node,
                    ctrl: Ctrl::Ready(id),
                }) if id == run_id => {
                    // the worker answered a re-sent Job after the barrier
                    // closed: its Go was lost to a sever — repeat it
                    let _ = self.router.send_ctrl(node, &Ctrl::Go);
                }
                Some(RouterEvent::Eof { node }) => {
                    // EOF alone is not death: a chaos-severed worker
                    // reconnects. Only an exited process is dead.
                    let p = node as usize;
                    if replies[p].is_none() {
                        if let Some(status) = self.reap_if_dead(p) {
                            let why = format!("worker process died mid-run ({status})");
                            fail(self, &mut replies, p, why);
                        }
                    }
                }
                Some(_) | None => {}
            }
            for p in 0..pmax {
                if replies[p].is_some() {
                    continue;
                }
                if let Some(status) = self.reap_if_dead(p) {
                    let why = format!("worker process died mid-run ({status})");
                    fail(self, &mut replies, p, why);
                } else if Instant::now() > deadline {
                    // unconditional backstop: heartbeats prove the
                    // process is alive, not that the run can finish
                    let why = "worker made no progress before the run deadline".to_string();
                    fail(self, &mut replies, p, why);
                } else if job_sent[p].elapsed() > self.timeouts.resend_ivl {
                    job_sent[p] = Instant::now();
                    let _ = self.router.send_ctrl(p as i64, &msgs[p]);
                }
            }
        }

        let replies: Vec<_> = replies.into_iter().flatten().collect();
        self.dirty = opts.faults.is_some() || self.chaos.is_some() || !wave_clean(&replies);
        let parts = msgs
            .into_iter()
            .map(|msg| match msg {
                Ctrl::Job(job) => job.locals,
                _ => unreachable!("constructed as Job above"),
            })
            .collect();
        finalize_wave(jobs, decomps, parts, replies, &mut [], arrays, tracer)
    }
}

impl Drop for ProcPool {
    fn drop(&mut self) {
        for p in 0..self.pmax {
            let _ = self.router.send_ctrl(p as i64, &Ctrl::Shutdown);
        }
        let deadline = Instant::now() + Duration::from_millis(500);
        for p in 0..self.pmax {
            loop {
                if self.reap_if_dead(p).is_some() || self.children[p].is_none() {
                    break;
                }
                if Instant::now() > deadline {
                    self.kill_worker(p);
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

// ---------------------------------------------------------------------
// worker side
// ---------------------------------------------------------------------

/// The body of a worker process (the `vcalc worker <addr> <node>
/// <pmax>` subcommand): connect, handshake, then serve jobs until the
/// host shuts the link down. Returns an error string suitable for
/// stderr + nonzero exit. Uses the default heartbeat interval; pools
/// spawn workers through [`worker_entry_with`] to install the
/// service-level one.
pub fn worker_entry(addr: &str, node: i64, pmax: usize) -> Result<(), String> {
    worker_entry_with(addr, node, pmax, ProtoTimeouts::default().heartbeat_ivl)
}

/// [`worker_entry`] with an explicit idle-heartbeat interval (the
/// optional fourth `worker` subcommand argument, in milliseconds) — how
/// the host's [`ProtoTimeouts::heartbeat_ivl`] reaches the worker
/// process without a wire-format change.
pub fn worker_entry_with(
    addr: &str,
    node: i64,
    pmax: usize,
    heartbeat_ivl: Duration,
) -> Result<(), String> {
    let mut link = SockLink::connect(addr, node, pmax)
        .map_err(|e| format!("worker {node}: cannot join session: {e}"))?;
    link.set_heartbeat_ivl(heartbeat_ivl);
    let mut cache = PlanCache::new(CacheBudget::default());
    // last completed run, kept for idempotent re-dispatch: a duplicate
    // Job (the host never saw our result, or re-sent before it landed)
    // is answered from this cache, never re-executed
    let mut last_done: Option<ResultMsg> = None;
    let mut scratch = Scratch::default();
    loop {
        match link.recv_ctrl(true) {
            None => return Ok(()), // host gone past the reconnect budget
            Some(Ctrl::Shutdown) => return Ok(()),
            Some(Ctrl::Job(job)) => {
                if let Some(done) = last_done.as_ref().filter(|r| r.run_id == job.run_id) {
                    let done = done.clone();
                    if ship(&mut link, done).is_none() {
                        return Ok(());
                    }
                } else {
                    match serve_job(&mut link, node, pmax, *job, &mut cache, &mut scratch)? {
                        Some(done) => last_done = Some(done),
                        None => return Ok(()),
                    }
                }
            }
            Some(_) => {} // stray Ready/Go/Result: not ours to answer
        }
    }
}

/// The worker's prepared plans by (clause signature, fingerprint over
/// that clause's arrays), bounded like a session's plan tier: a
/// long-lived worker sees every distinct clause its service runs.
type PlanCache = BoundedLru<(u64, u64), Arc<PreparedPlan>>;

/// One wave member from the plan cache, or planned generatively,
/// prepared and cached.
fn prepare_cached(
    cache: &mut PlanCache,
    clause: &Clause,
    decomps: &BTreeMap<String, Decomp1>,
) -> Result<Arc<PreparedPlan>, MachineError> {
    let names = clause_arrays(clause);
    let fp = decomp_fingerprint(decomps, names.iter().map(String::as_str));
    let key = (clause_signature(clause), fp);
    if let Some(prep) = cache.get(&key) {
        return Ok(Arc::clone(prep));
    }
    let plan =
        SpmdPlan::build(clause, decomps).map_err(|e| MachineError::PlanMismatch(e.to_string()))?;
    let prep = Arc::new(prepare_run(plan, clause, decomps)?);
    cache.insert(key, Arc::clone(&prep), prep.approx_bytes());
    Ok(prep)
}

/// Serve one wave; the shipped result is handed back so the caller can
/// cache it for duplicate dispatches. `Ok(None)` means the host went
/// away mid-protocol and the worker should exit cleanly.
fn serve_job(
    link: &mut SockLink,
    p: i64,
    pmax: usize,
    job: JobMsg,
    cache: &mut PlanCache,
    scratch: &mut Scratch,
) -> Result<Option<ResultMsg>, String> {
    use crate::transport::Transport;

    // --- barrier first (the host waits for Ready before Go, whatever
    // the job's fate): purge frames a previous dirty run left behind
    if job.handshake {
        {
            let mut l: &mut SockLink = link;
            Transport::<Wire>::purge(&mut l);
        }
        if link.send_ctrl(&Ctrl::Ready(job.run_id)).is_err() {
            return Ok(None);
        }
        loop {
            match link.recv_ctrl(false) {
                Some(Ctrl::Go) => break,
                Some(Ctrl::Job(j)) if j.run_id == job.run_id => {
                    // the host re-sent the Job: our Ready was lost to a
                    // sever — answer again and keep waiting for Go
                    if link.send_ctrl(&Ctrl::Ready(job.run_id)).is_err() {
                        return Ok(None);
                    }
                }
                Some(Ctrl::Shutdown) | None => return Ok(None),
                Some(_) => {}
            }
        }
    }

    // --- plans: every member from the cache. One that cannot be
    // prepared fails the whole wave, as in process — a typed result, not
    // a dead worker (the host restores state from the memories it kept)
    let wave = (job.clauses.iter())
        .map(|clause| {
            let prep = prepare_cached(cache, clause, &job.decomps)?;
            if prep.pmax.max(0) as usize != pmax || prep.compiled.nodes.len() != pmax {
                return Err(MachineError::PlanMismatch(format!(
                    "job plan spans {} processors, session has {pmax}",
                    prep.pmax
                )));
            }
            Ok(prep)
        })
        .collect::<Result<Vec<_>, MachineError>>();
    let reply = match wave {
        Err(e) => {
            let failed = |_| JobReply {
                image: None,
                writes: Vec::new(),
                stats: NodeStats::default(),
                sent_to: vec![0u64; pmax],
                res: Err(e.clone()),
                events: Vec::new(),
                timings: Vec::new(),
            };
            WaveReply {
                jobs: job.clauses.iter().map(failed).collect(),
                drain_events: Vec::new(),
                drain_timings: Vec::new(),
            }
        }
        // --- run: the wave body of a pooled thread, over the socket
        Ok(wave) => {
            let buf = BufTracer::new();
            buf.set_enabled(job.trace_on);
            let opts = DistOptions {
                recv_timeout: job.recv_timeout,
                faults: job.faults,
                retry: job.retry,
                simd: job.simd,
                transport: TransportKind::InProc, // the link IS the transport here
                chaos: None,
                timeouts: ProtoTimeouts::default(),
            };
            let mut ep: Endpoint<Wire> = Endpoint::new(p, Box::new(&mut *link), job.faults, &buf);
            // no free parts: the reply crosses the wire as staged writes
            wave_body(p, &mut ep, scratch, &buf, &wave, &opts, &job.locals, None)
        } // endpoint drops; the link is ours again for the control plane
    };
    link.heartbeat(); // prove liveness before the (possibly large) result
    let run_id = job.run_id;
    Ok(ship(link, ResultMsg { run_id, p, reply }))
}

/// Ship a result on the control plane, handing it back for the caller's
/// duplicate-dispatch cache. `None` means the send failed past the
/// reconnect budget — the host is gone and the worker should exit.
fn ship(link: &mut SockLink, result: ResultMsg) -> Option<ResultMsg> {
    let ctrl = Ctrl::Result(Box::new(result));
    let ok = link.send_ctrl(&ctrl).is_ok();
    let Ctrl::Result(result) = ctrl else {
        unreachable!("constructed as Result above")
    };
    ok.then_some(*result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcal_core::func::Fn1;
    use vcal_core::{ArrayRef, Bounds, Expr, Guard, IndexSet, Ordering};

    /// A long-lived worker sees every distinct clause its service runs,
    /// and its plan cache still holds no more than the default budget;
    /// a repeated clause is served from it.
    #[test]
    fn worker_plan_cache_stays_within_its_budget() {
        let extent = Bounds::range(0, 255);
        let decomps: BTreeMap<String, Decomp1> = ["A", "B"]
            .into_iter()
            .map(|name| (name.to_string(), Decomp1::block(4, extent)))
            .collect();
        let shifted = |d: i64| Clause {
            iter: IndexSet::range(100, 150),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("A", Fn1::identity()),
            rhs: Expr::Ref(ArrayRef::d1("B", Fn1::shift(d))),
        };
        let budget = CacheBudget::default();
        let mut cache = PlanCache::new(budget);
        let distinct = budget.max_entries as i64 + 16;
        for d in 0..distinct {
            prepare_cached(&mut cache, &shifted(d), &decomps).expect("prepares");
            assert!(cache.len() <= budget.max_entries, "{} plans", cache.len());
        }
        assert_eq!(cache.misses(), distinct as u64, "every clause is distinct");
        assert_eq!(cache.evictions(), 16);
        let again = prepare_cached(&mut cache, &shifted(distinct - 1), &decomps).expect("hits");
        let once = prepare_cached(&mut cache, &shifted(distinct - 1), &decomps).expect("hits");
        assert!(Arc::ptr_eq(&again, &once));
        assert_eq!(cache.hits(), 2);
    }
}
