//! Real-process workers: the socket link of the Uds/Tcp transport
//! backends — its host end ([`ProcLink`]) and its node end, the worker
//! process ([`worker_entry`]).
//!
//! Every node becomes an OS process running `<worker-bin> worker <addr>
//! <node> <pmax> <heartbeat-ms>` — the binary named by `VCAL_WORKER_BIN`,
//! or the host's own executable when unset (the `vcalc` driver implements
//! the subcommand). Workers dial the host's [`Router`] (or a
//! [`ChaosProxy`] in front of it), complete the version handshake, and
//! park waiting for jobs.
//!
//! Serialization is *generative*: a [`JobMsg`] carries the wave's
//! clauses, the decompositions, the options, and the node's local
//! memories — never a plan. The worker rebuilds each `SpmdPlan` with the
//! same deterministic planner the host runs (and caches it by
//! `plan_words`, the clause and the decompositions word by word, in a
//! bounded LRU, so a timestep loop replans exactly once per worker). Sender packing order therefore
//! equals receiver expectation by construction, on every backend.
//!
//! The host loop and the node loop are the thread pool's
//! (`Pool::run_wave`, `node_loop`); only the link differs. The host keeps
//! every node's memories inside the `JobMsg`s it retains for re-sends
//! and commits into them, so nothing a worker ships back is ever used as
//! array state. What a socket adds is that a delivery can be lost to a
//! severed connection: the host re-sends an unanswered job, and the
//! worker keeps its last result to answer a re-sent job of a finished
//! run. A node is alive while its process is (`Child::try_wait`; a
//! severed connection from a live process is reconnectable chaos). A
//! dead or hung node is a typed [`MachineError::Transport`], its peers
//! are released by its synthesized `Done` ([`Router::broadcast_done`]),
//! and the pool respawns it at the next run.

use crate::codec::{Ctrl, JobMsg, ResultMsg};
use crate::distributed::{DistOptions, Wire};
use crate::error::MachineError;
use crate::executor::{
    node_loop, prepare_run, wave_body, BufTracer, Event, FreeParts, JobReply, Link, NodeEnd,
    PlanCache, PreparedPlan, Scratch, Step, WaveCtx, WaveReply, POLL,
};
use crate::net::{ChaosPlan, ChaosProxy, Router, RouterEvent, SockLink};
use crate::stats::NodeStats;
use crate::transport::{Endpoint, ProtoTimeouts, Transport, TransportKind};
use std::collections::BTreeMap;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vcal_core::Clause;
use vcal_decomp::Decomp1;
use vcal_spmd::{plan_words, CacheBudget, SpmdPlan};

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

/// The socket link's host end: `pmax` worker processes behind a
/// [`Router`] (optionally fronted by a [`ChaosProxy`]).
pub(crate) struct ProcLink {
    kind: TransportKind,
    chaos: Option<ChaosPlan>,
    /// Protocol timeouts (spawn deadline, run grace, resend interval,
    /// worker heartbeat) — service-level configuration, part of the
    /// pool's identity so tightening them rebuilds the pool.
    timeouts: ProtoTimeouts,
    router: Router,
    /// Keeps the proxy's accept loop alive for reconnects.
    _proxy: Option<ChaosProxy>,
    /// The address workers dial (the proxy's when chaos is on).
    dial_addr: String,
    children: Vec<Option<Child>>,
    /// The wave's jobs, one per node, kept for re-sends — and with them
    /// the host's copy of every node's memories, which the commit writes
    /// into whatever became of the worker.
    jobs: Vec<Ctrl>,
}

impl ProcLink {
    /// Bind the router, optionally interpose the chaos proxy, spawn
    /// `pmax` worker processes, and wait for every handshake.
    pub(crate) fn new(
        kind: TransportKind,
        pmax: usize,
        chaos: Option<ChaosPlan>,
        timeouts: ProtoTimeouts,
    ) -> Result<ProcLink, MachineError> {
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
        let mut link = ProcLink {
            kind,
            chaos,
            timeouts,
            router,
            _proxy: proxy,
            dial_addr,
            children: (0..pmax).map(|_| None).collect(),
            jobs: Vec::new(),
        };
        link.revive()?;
        Ok(link)
    }

    /// Whether this is the pool `opts` asks for over `pmax` nodes: its
    /// identity is (backend, pmax, chaos plan, timeouts).
    pub(crate) fn serves(&self, opts: &DistOptions, pmax: usize) -> bool {
        (self.kind, self.children.len(), self.chaos, self.timeouts)
            == (opts.transport, pmax, opts.chaos, opts.timeouts)
    }

    /// OS process ids of the live workers, in node order (test hook for
    /// killing a specific worker mid-run).
    pub(crate) fn pids(&self) -> Vec<u32> {
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
            .arg(self.children.len().to_string())
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
}

impl Link for ProcLink {
    fn revive(&mut self) -> Result<bool, MachineError> {
        let mut waiting = Vec::new();
        for p in 0..self.children.len() {
            if self.reap_if_dead(p).is_some() || self.children[p].is_none() {
                self.router.disconnect(p as i64);
                self.spawn_worker(p)?;
                waiting.push(p);
            }
        }
        // every respawned node must complete the handshake; an early
        // death is a typed error
        let respawned = !waiting.is_empty();
        let deadline = Instant::now() + self.timeouts.spawn_deadline;
        while !waiting.is_empty() {
            if let Some(RouterEvent::Hello { node }) = self.router.recv_event(POLL) {
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
        Ok(respawned)
    }

    fn lend(&mut self, wave: WaveCtx) {
        // every plan passed `check_live`, so every job has its 1-D plan:
        // the wave's clauses and the decompositions of its arrays
        let plans = wave.jobs.iter().filter_map(|job| job.d1.as_ref());
        let clauses: Vec<Clause> = plans.clone().map(|d1| d1.clause.clone()).collect();
        let decomps: BTreeMap<String, Decomp1> = plans.flat_map(|d1| d1.decomps.clone()).collect();
        let opts = wave.opts;
        self.jobs = (wave.parts.into_iter())
            .map(|locals| {
                Ctrl::Job(Box::new(JobMsg {
                    run_id: wave.run_id,
                    clauses: clauses.clone(),
                    decomps: decomps.clone(),
                    recv_timeout: opts.recv_timeout,
                    faults: opts.faults,
                    retry: opts.retry,
                    trace_on: wave.trace_on,
                    handshake: wave.handshake,
                    lossy: wave.lossy,
                    locals,
                }))
            })
            .collect();
    }

    fn send(&mut self, p: usize, step: Step<FreeParts>) {
        let ctrl = match step {
            Step::Job(_) => &self.jobs[p],
            Step::Go => &Ctrl::Go,
            Step::Shutdown => &Ctrl::Shutdown,
        };
        // a failed send is deferred, not fatal: the worker reconnects
        // and the host's re-send timer retries
        let _ = self.router.send_ctrl(p as i64, ctrl);
    }

    fn next_event(&mut self, slice: Duration) -> Option<(usize, Event)> {
        let (node, event) = match self.router.recv_event(slice)? {
            RouterEvent::Ctrl {
                node,
                ctrl: Ctrl::Ready(run_id),
            } => (node, Event::Ready(run_id)),
            RouterEvent::Ctrl {
                node,
                ctrl: Ctrl::Result(r),
            } => (node, Event::Result(r.run_id, Box::new(r.reply), Vec::new())),
            RouterEvent::Eof { node } => (node, Event::Eof),
            RouterEvent::Hello { .. } | RouterEvent::Ctrl { .. } => return None,
        };
        Some((node as usize, event))
    }

    fn alive(&mut self, p: usize) -> Result<(), MachineError> {
        match self.reap_if_dead(p) {
            None => Ok(()),
            Some(status) => Err(MachineError::Transport {
                node: p as i64,
                detail: format!("worker process died mid-run ({status})"),
            }),
        }
    }

    fn retire(&mut self, p: usize) {
        self.kill_worker(p);
        self.router.broadcast_done(p as i64);
    }

    fn reclaim(&mut self) -> Vec<BTreeMap<String, Vec<f64>>> {
        (self.jobs.drain(..))
            .map(|msg| match msg {
                Ctrl::Job(job) => job.locals,
                _ => unreachable!("only jobs are kept"),
            })
            .collect()
    }
}

impl Drop for ProcLink {
    fn drop(&mut self) {
        let pmax = self.children.len();
        (0..pmax).for_each(|p| self.send(p, Step::Shutdown));
        let deadline = Instant::now() + Duration::from_millis(500);
        for p in 0..pmax {
            while self.children[p].is_some() && self.reap_if_dead(p).is_none() {
                if Instant::now() > deadline {
                    self.kill_worker(p);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

// ---------------------------------------------------------------------
// worker side
// ---------------------------------------------------------------------

/// The body of a worker process (the `vcalc worker <addr> <node> <pmax>
/// [heartbeat-ms]` subcommand): connect, handshake, then run the node
/// loop until the host shuts the link down. `heartbeat_ivl` is how the
/// host's [`ProtoTimeouts::heartbeat_ivl`] reaches the worker without a
/// wire change; zero keeps the default. Returns an error string suitable
/// for stderr + nonzero exit.
pub fn worker_entry(
    addr: &str,
    node: i64,
    pmax: usize,
    heartbeat_ivl: Duration,
) -> Result<(), String> {
    let mut link = SockLink::connect(addr, node, pmax)
        .map_err(|e| format!("worker {node}: cannot join session: {e}"))?;
    link.set_heartbeat_ivl(heartbeat_ivl);
    let cache = PlanCache::new(CacheBudget::default());
    let mut end = SockEnd {
        link,
        p: node,
        pmax,
        cache,
        last: None,
    };
    node_loop(&mut end, &BufTracer::new());
    Ok(())
}

/// One wave member from the plan cache, or planned generatively,
/// prepared and cached.
fn prepare_cached(
    cache: &mut PlanCache,
    clause: &Clause,
    decomps: &BTreeMap<String, Decomp1>,
) -> Result<Arc<PreparedPlan>, MachineError> {
    let key = plan_words(clause, decomps);
    if let Some(prep) = cache.get(&key) {
        return Ok(Arc::clone(prep));
    }
    let plan =
        SpmdPlan::build(clause, decomps).map_err(|e| MachineError::PlanMismatch(e.to_string()))?;
    let prep = Arc::new(prepare_run(plan, clause, decomps)?);
    let bytes = prep.approx_bytes() + 8 * key.len();
    cache.insert(key, Arc::clone(&prep), bytes);
    Ok(prep)
}

/// A worker process's end of the socket link.
struct SockEnd {
    link: SockLink,
    p: i64,
    pmax: usize,
    cache: PlanCache,
    /// The last result shipped, kept because a severed connection can
    /// lose it: a re-sent job of its run is answered with it.
    last: Option<ResultMsg>,
}

impl NodeEnd for SockEnd {
    type Job = JobMsg;

    fn head(job: &JobMsg) -> (u64, bool) {
        (job.run_id, job.handshake)
    }

    fn recv(&mut self) -> Option<Step<JobMsg>> {
        loop {
            match self.link.recv_ctrl(true)? {
                Ctrl::Job(job) => return Some(Step::Job(*job)),
                Ctrl::Go => return Some(Step::Go),
                Ctrl::Shutdown => return Some(Step::Shutdown),
                Ctrl::Ready(_) | Ctrl::Result(_) => {} // not ours to answer
            }
        }
    }

    fn send(&mut self, event: Event) -> bool {
        match event {
            Event::Ready(run_id) => self.link.send_ctrl(&Ctrl::Ready(run_id)).is_ok(),
            Event::Result(run_id, reply, _) => {
                self.link.heartbeat(); // prove liveness before the (possibly large) result
                self.last = Some(ResultMsg {
                    run_id,
                    p: self.p,
                    reply: *reply,
                });
                self.reship()
            }
            Event::Eof => true,
        }
    }

    fn reship(&mut self) -> bool {
        let Some(done) = self.last.take() else {
            return true;
        };
        let ctrl = Ctrl::Result(Box::new(done));
        let shipped = self.link.send_ctrl(&ctrl).is_ok();
        if let Ctrl::Result(done) = ctrl {
            self.last = Some(*done);
        }
        shipped
    }

    fn purge(&mut self) {
        Transport::<Wire>::purge(&mut &mut self.link);
    }

    fn run(
        &mut self,
        job: JobMsg,
        scratch: &mut Scratch,
        buf: &BufTracer,
    ) -> (WaveReply, FreeParts) {
        // every member from the plan cache. One that cannot be prepared
        // fails the whole wave, as in process — a typed result, not a
        // dead worker (the host restores state from the memories it kept)
        let pmax = self.pmax;
        let wave = (job.clauses.iter())
            .map(|clause| {
                let prep = prepare_cached(&mut self.cache, clause, &job.decomps)?;
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
            // the wave body of a node thread, over the socket
            Ok(wave) => {
                buf.set_enabled(job.trace_on);
                // the link is the transport here: no backend or chaos to pick
                let opts = DistOptions {
                    recv_timeout: job.recv_timeout,
                    faults: job.faults,
                    retry: job.retry,
                    ..DistOptions::default()
                };
                let p = self.p;
                let mut ep: Endpoint<Wire> =
                    Endpoint::new(p, Box::new(&mut self.link), job.faults, buf);
                // no free parts: the reply crosses the wire as staged writes
                wave_body(
                    p,
                    &mut ep,
                    scratch,
                    buf,
                    &wave,
                    &opts,
                    job.lossy,
                    &job.locals,
                    None,
                )
            } // endpoint drops; the link is ours again for the control plane
        };
        (reply, Vec::new())
    }
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
