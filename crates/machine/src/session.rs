//! A distributed-memory *session*: persistent distributed arrays plus the
//! plan/execute/redistribute cycle, so multi-clause programs (sweeps,
//! phase changes) read like the original algorithm.
//!
//! Everything a session runs is a step — a clause, a clause with a given
//! plan ([`DistSession::run_plan`]) or a redistribution — and every step
//! goes through one body on the session's own node pool (threads, or
//! worker processes on a socket backend), which [`DistSession::run`],
//! [`DistSession::run_plan`], [`DistSession::redistribute`] and the one
//! wave loop of [`DistSession::run_program`] all call. A clause's plan is
//! cached by `(clause signature, decomposition fingerprint)`, so a clause
//! repeated in a timestep loop pays plan derivation, schedule compilation,
//! and node spawning exactly once (see DESIGN.md §12); a redistribution
//! invalidates the cache, and a given plan never enters it.
//! [`ExecReport::cache_hits`]/[`ExecReport::cache_misses`] report which
//! path a run took.
//!
//! A copy `U[i] := V[i]` between arrays of one layout is a rename: the
//! session trades the arrays' parts, and `V` owes the copy until a clause
//! overwrites it or something observes it (DESIGN.md §19); one function
//! over a step, `Debt::fate`, decides which.
//!
//! Both reuse tiers — plan cache and DAG cache — are bounded
//! LRUs ([`vcal_spmd::BoundedLru`]) with an entry/byte budget, and each
//! tier can be **owned** (the classic per-session caches) or **shared**:
//! `vcalc serve` (DESIGN.md §18) hangs many concurrent sessions off one
//! `Arc<Mutex<SessionCaches>>` and one worker pool, with a per-tenant
//! namespace mixed into every key so tenants can never observe each
//! other's cache fate. Budget-pressure evictions surface on
//! [`ExecReport::evictions`] and [`ProgramReport::evictions`].

use crate::darray::DistArray;
use crate::distributed::DistOptions;
use crate::error::MachineError;
use crate::executor::{prepare_run, Lease, Pool, PreparedPlan};
use crate::net::lock;
use crate::obs::{
    timed, trace_plan, CollectingTracer, EventKind, Phase, Tracer, HOST, NULL_TRACER,
};
use crate::perfmodel::{fit, CalibrationSample};
use crate::proc::ProcLink;
use crate::stats::{ExecReport, NodeStats};
use crate::transport::TransportKind;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use vcal_core::func::Fn1;
use vcal_core::{Array, ArrayRef, Clause, Env, Expr, Guard, IndexSet, Ordering};
use vcal_decomp::Decomp1;
use vcal_spmd::{
    advise, build_dag, candidate, decomp_fingerprint, describe_assignment, plan_key,
    program_arrays, program_signature, BoundedLru, CacheBudget, Candidate, CostModel, DecompMap,
    ProgramDag, ProgramStep, SpmdPlan,
};

/// Cache key of every tier: `(tenant namespace, signature, decomposition
/// fingerprint)`. Owned sessions use namespace 0; shared (serve-mode)
/// sessions mix in the tenant fingerprint, so two tenants submitting the
/// byte-identical program still occupy disjoint key spaces — the
/// cross-tenant isolation guarantee is structural, not advisory.
type CacheKey = (u64, u64, u64);

/// Approximate resident bytes charged per DAG edge/wave entry.
const DAG_ENTRY_BYTES: usize = 64;

/// The two bounded reuse tiers a session consults, owned directly or
/// shared behind a mutex by every session of a resident service.
#[derive(Debug)]
pub(crate) struct SessionCaches {
    /// Prepared plans by clause signature × clause-restricted fingerprint.
    plans: BoundedLru<CacheKey, Arc<PreparedPlan>>,
    /// Program dependence DAGs by program signature × fingerprint.
    dags: BoundedLru<CacheKey, Arc<ProgramDag>>,
}

impl SessionCaches {
    /// Empty tiers, each under `budget`.
    pub(crate) fn new(budget: CacheBudget) -> SessionCaches {
        SessionCaches {
            plans: BoundedLru::new(budget),
            dags: BoundedLru::new(budget),
        }
    }

    /// Budget-pressure evictions across both tiers, lifetime.
    pub(crate) fn evictions(&self) -> u64 {
        self.plans.evictions() + self.dags.evictions()
    }
}

impl Default for SessionCaches {
    fn default() -> Self {
        SessionCaches::new(CacheBudget::default())
    }
}

/// Where a session's caches or pools live: owned, or shared by every
/// session of a resident service (`vcalc serve`, DESIGN.md §18), whose
/// requests then serialize on the one pool — one pool, many tenants.
#[derive(Debug)]
enum Handle<T> {
    /// Boxed so the handle stays pointer-sized next to the shared arm.
    Owned(Box<T>),
    Shared(Arc<Mutex<T>>),
}

impl<T> Handle<T> {
    /// Run `f` on the value. The shared arm holds the mutex only for the
    /// closure: callers build plans *outside* it, so tenants never
    /// serialize behind each other's planning.
    fn with<R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R {
        match self {
            Handle::Owned(t) => f(t),
            Handle::Shared(m) => f(&mut lock(m)),
        }
    }
}

/// The execution backends a session dispatches onto: the in-process
/// thread pool, borrowed from the process-wide registry, and/or the
/// socket-backend worker-process pool, spawned for the session; both on
/// first use. Both run the one host loop; only their link differs.
#[derive(Debug, Default)]
pub(crate) struct PoolState {
    pool: Option<Lease>,
    procs: Option<Pool<ProcLink>>,
}

impl PoolState {
    /// Execute one wave — a single clause is a wave of one — on the pool
    /// of the backend `opts` selects, (re)creating it when its identity
    /// no longer matches. Every plan must still match the live images.
    pub(crate) fn run_wave(
        &mut self,
        jobs: &[Arc<PreparedPlan>],
        arrays: &mut BTreeMap<String, DistArray>,
        opts: DistOptions,
        tracer: &dyn Tracer,
    ) -> Result<Vec<ExecReport>, MachineError> {
        let Some(first) = jobs.first() else {
            return Ok(Vec::new());
        };
        for prepared in jobs {
            trace_plan(tracer, &prepared.check_live(arrays)?.plan);
        }
        let pmax = first.pmax.max(0) as usize;
        if opts.transport == TransportKind::InProc {
            if self.pool.as_ref().is_some_and(|pool| pool.pmax != pmax) {
                self.pool = None;
            }
            let pool = self.pool.get_or_insert_with(|| Pool::borrow(pmax));
            return pool.run_wave(jobs, arrays, opts, tracer);
        }
        if self
            .procs
            .as_ref()
            .is_some_and(|pp| !pp.link.serves(&opts, pmax))
        {
            self.procs = None;
        }
        let procs = match self.procs.as_mut() {
            Some(pp) => pp,
            None => {
                let link = ProcLink::new(opts.transport, pmax, opts.chaos, opts.timeouts)?;
                self.procs.insert(Pool::new(link, pmax))
            }
        };
        procs.run_wave(jobs, arrays, opts, tracer)
    }

    /// Retired parts the in-process pool holds for reuse.
    fn free_parts(&self) -> usize {
        self.pool.as_deref().map_or(0, Pool::free_parts)
    }

    /// OS pids of the live worker processes (empty off the socket
    /// backends).
    fn pids(&self) -> Vec<u32> {
        (self.procs.as_ref()).map_or_else(Vec::new, |pp| pp.link.pids())
    }
}

/// How [`DistSession::run_program`] orders a multi-clause program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScheduleMode {
    /// Strict program order, one step at a time — the differential
    /// oracle every other schedule must match bitwise.
    #[default]
    Seq,
    /// Dependence-DAG wave schedule: pairwise-independent steps share a
    /// wave and execute concurrently on the persistent worker pool,
    /// with ordinal-keyed commits for bit-identical results.
    Dag,
}

/// What one [`DistSession::run_program`] call did: per-step execution
/// reports (program order) plus the schedule's shape and cache fate.
#[derive(Debug, Default)]
pub struct ProgramReport {
    /// One [`ExecReport`] per program step, in program order.
    pub steps: Vec<ExecReport>,
    /// Waves executed (equals `steps.len()` under [`ScheduleMode::Seq`]).
    pub waves: usize,
    /// Dependence edges in the program DAG (0 under `Seq`).
    pub dag_edges: usize,
    /// Widest wave — peak concurrently-dispatched steps (1 under `Seq`).
    pub dag_width: usize,
    /// Whether the program DAG came from the session's DAG cache.
    pub dag_cache_hits: u64,
    /// Whether the program DAG had to be built this call.
    pub dag_cache_misses: u64,
    /// Candidate decompositions the auto-tuner priced with the fitted
    /// cost model (0 outside [`DistSession::run_program_tuned`]).
    pub candidates_priced: u64,
    /// Redistribution steps the auto-tuner inserted because a layout
    /// switch was predicted to amortize (0 outside the tuned path).
    pub redistributions_inserted: u64,
    /// Cache entries (any tier) evicted by budget pressure during this
    /// call — LRU retirement, not fingerprint invalidation.
    pub evictions: u64,
}

/// Auto-tuner configuration for [`DistSession::run_program_tuned`].
#[derive(Debug, Clone, Copy)]
pub struct TuneOptions {
    /// Maximum candidates priced with the fitted model (the
    /// `--tune-budget`; the incumbent assignment is always priced).
    pub budget: usize,
    /// Warm steps profiled (traced) before tuning; clamped to the step
    /// count. The first profiled step is cold (plans build); only warm
    /// profiles feed calibration when more than one step runs.
    pub profile_steps: u64,
    /// Re-profile and re-tune every `N` steps (the `--retune-every`
    /// flag): the timestep loop is cut into rounds of at most `N`
    /// steps, each starting with a fresh profile→calibrate→price pass,
    /// so a very long loop adapts to drift (cache effects, host load,
    /// layout changes a previous round made). `None` tunes once for
    /// the whole loop — the classic behavior.
    pub retune_every: Option<u64>,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            budget: 16,
            profile_steps: 2,
            retune_every: None,
        }
    }
}

/// What one auto-tuned program run decided and why.
#[derive(Debug, Clone, Default)]
pub struct TuneReport {
    /// Candidate assignments priced with the fitted model (summed
    /// over every retune round).
    pub candidates_priced: u64,
    /// Redistribution steps inserted (arrays whose layout switched).
    pub redistributions_inserted: u64,
    /// Tuning rounds executed (1 unless [`TuneOptions::retune_every`]
    /// cut the loop).
    pub rounds: u64,
    /// Human description of the chosen assignment (last round's).
    pub chosen: String,
    /// Whether any round switched away from its incumbent layout.
    pub switched: bool,
    /// Whether the model constants were fit from measured trace
    /// timings (`false`: degenerate profile, era-default ratios used).
    pub calibrated: bool,
    /// Predicted per-step critical path of the chosen assignment (ns).
    pub predicted_step_ns: f64,
    /// Predicted per-step critical path of the incumbent (ns).
    pub baseline_step_ns: f64,
    /// Predicted per-step critical path of the worst priced candidate (ns).
    pub worst_step_ns: f64,
    /// Predicted cost of the inserted redistributions (ns; 0 if none).
    pub switch_cost_ns: f64,
    /// Measured wall-clock of the last profiled step (ns).
    pub measured_step_ns: f64,
    /// |predicted − measured| / measured for the incumbent on the last
    /// profiled step — how honest the calibrated model is about the
    /// layout it actually observed.
    pub model_error: f64,
}

/// Per node, sorted disjoint half-open spans of local offsets.
type Spans = Vec<Vec<(usize, usize)>>;

/// A renamed copy `U[i] := V[i]` that has not run: the debtor `V` owes
/// the creditor `U`'s values on `spans[p]` of each node's part.
#[derive(Debug)]
struct Debt {
    /// `[debtor, creditor]`.
    names: [String; 2],
    /// The renamed copy's iteration set and ordering.
    iter: IndexSet,
    ordering: Ordering,
    spans: Spans,
}

impl Debt {
    /// `[debtor, creditor]`.
    fn names(&self) -> [&str; 2] {
        [&self.names[0], &self.names[1]]
    }

    /// The owed copy `V[i] := U[i]`; running it settles the debt.
    fn settle(&self) -> Clause {
        let copy = |name: &str| ArrayRef::d1(name, Fn1::identity());
        Clause {
            iter: self.iter.clone(),
            ordering: self.ordering,
            guard: Guard::Always,
            lhs: copy(&self.names[0]),
            rhs: Expr::Ref(copy(&self.names[1])),
        }
    }

    /// Whether `c` pays the debt: unguarded, it writes the debtor over
    /// every owed span on every node and does not read it.
    fn paid_by(&self, c: &Clause, prepared: &PreparedPlan) -> bool {
        let nodes = &prepared.compiled.nodes;
        let covered = |(p, owed): (usize, &Vec<(usize, usize)>)| {
            let within = |spans: &Vec<(usize, usize)>, &(lo, hi): &(usize, usize)| {
                let k = spans.partition_point(|s| s.1 < hi);
                spans.get(k).is_some_and(|s| s.0 <= lo)
            };
            let spans = nodes.get(p).and_then(|cn| cn.write_spans.as_ref());
            spans.is_some_and(|spans| owed.iter().all(|o| within(spans, o)))
        };
        let [debtor, _] = self.names();
        matches!(c.guard, Guard::Always)
            && c.lhs.array == debtor
            && !c.reads(debtor)
            && self.spans.iter().enumerate().all(covered)
    }

    /// The one debt rule: what `step`, about to run as `ready`, does to
    /// this debt. A renamed copy, a planned clause or a redistribution
    /// observes a debt on either of its arrays (no chains; a caller's plan
    /// is never checked for cover). Any other clause pays the debt when it
    /// overwrites every owed span, and otherwise observes it when it
    /// writes the creditor or touches the debtor.
    fn fate(&self, step: Step, ready: &Ready) -> Fate {
        let [debtor, creditor] = self.names();
        let observes = match step {
            Step::Clause(c) if ready.rename.is_none() => {
                if self.paid_by(c, &ready.plan) {
                    return Fate::Pays;
                }
                c.lhs.array == creditor || c.touches(debtor)
            }
            step => step.touches(debtor) || step.touches(creditor),
        };
        if observes {
            Fate::Observes
        } else {
            Fate::Untouched
        }
    }
}

/// One step a session runs (DESIGN.md §19): a program step, or a clause
/// with the caller's plan.
#[derive(Debug, Clone, Copy)]
enum Step<'a> {
    /// A clause planned through the plan cache; a copy may rename.
    Clause(&'a Clause),
    /// A clause run with the caller's plan: it never reads or fills the
    /// plan cache and never renames.
    Planned(&'a SpmdPlan, &'a Clause),
    /// The array moves to a new layout.
    Redistribute(&'a str, &'a Decomp1),
}

impl Step<'_> {
    /// Whether the step reads or writes array `name`.
    fn touches(self, name: &str) -> bool {
        match self {
            Step::Clause(c) | Step::Planned(_, c) => c.touches(name),
            Step::Redistribute(array, _) => array == name,
        }
    }
}

/// A step ready to run: its prepared plan, whether the plan cache held it
/// (`None`: the step does not use the cache), the entries its insertion
/// evicted, and the spans of a copy that renames.
struct Ready {
    plan: Arc<PreparedPlan>,
    hit: Option<bool>,
    evicted: u64,
    rename: Option<Spans>,
}

/// What a step does to a debt.
#[derive(Debug, Clone, Copy)]
enum Fate {
    Untouched,
    Pays,
    Observes,
}

/// The source `V` of a copy `U[i] := V[i]`: unguarded, identity maps of
/// rank 1, `U ≠ V`.
fn copy_source(c: &Clause) -> Option<&str> {
    let Expr::Ref(src) = &c.rhs else {
        return None;
    };
    let ident = |r: &ArrayRef| r.map.as_fn1().is_some() && r.map.is_identity();
    (matches!(c.guard, Guard::Always) && ident(&c.lhs) && ident(src) && src.array != c.lhs.array)
        .then_some(src.array.as_str())
}

/// The one non-replicated layout of a copy's two arrays under `decomps`,
/// the first condition for the copy to run as a rename.
fn rename_layout<'a>(c: &Clause, decomps: &'a DecompMap) -> Option<&'a Decomp1> {
    let dec = decomps.get(&c.lhs.array)?;
    (Some(dec) == decomps.get(copy_source(c)?) && !dec.is_replicated()).then_some(dec)
}

/// A candidate's price per step: its clauses' critical paths under
/// `model`, where a copy that would run as a rename under the
/// candidate's layouts costs nothing.
fn price_candidate(clauses: &[Clause], cand: &Candidate, model: &CostModel) -> f64 {
    (clauses.iter().zip(&cand.plans))
        .filter(|(c, _)| rename_layout(c, &cand.decomps).is_none())
        .map(|(_, plan)| model.price_plan(plan).total)
        .sum()
}

/// A settle's view of its caller's tracer: timings count, events do not.
struct TimingsOnly<'a>(&'a dyn Tracer);

impl Tracer for TimingsOnly<'_> {
    fn enabled(&self) -> bool {
        self.0.enabled()
    }

    fn timing(&self, node: i64, phase: Phase, elapsed: std::time::Duration) {
        self.0.timing(node, phase, elapsed);
    }
}

/// Persistent distributed state for a whole program.
#[derive(Debug)]
pub struct DistSession {
    arrays: BTreeMap<String, DistArray>,
    decomps: DecompMap,
    opts: DistOptions,
    caches: Handle<SessionCaches>,
    /// The tenant namespace in every cache key: 0 unless shared.
    ns: u64,
    pools: Handle<PoolState>,
    /// Copies renamed and not yet run, over pairwise disjoint arrays.
    debts: Vec<Debt>,
}

impl DistSession {
    /// Scatter every array of `env` according to `decomps`.
    /// Arrays without a decomposition entry are ignored.
    pub fn new(env: &Env, decomps: DecompMap) -> Result<DistSession, MachineError> {
        let mut arrays = BTreeMap::new();
        for (name, dec) in &decomps {
            let global = env
                .get(name)
                .ok_or_else(|| MachineError::UnknownArray(name.clone()))?;
            if global.bounds() != dec.extent() {
                return Err(MachineError::PlanMismatch(format!(
                    "array `{name}` has bounds {} but decomposition extent {}",
                    global.bounds(),
                    dec.extent()
                )));
            }
            arrays.insert(name.clone(), DistArray::scatter_from(global, dec.clone()));
        }
        Ok(DistSession::over(arrays, decomps))
    }

    /// Like [`DistSession::new`] from flat global images (`images[name][k]`
    /// is global index `extent.lo + k` — the serve wire form), scattered
    /// straight into node parts. Every image is checked against its
    /// extent before anything is allocated.
    pub(crate) fn from_images(
        images: &BTreeMap<String, Vec<f64>>,
        decomps: DecompMap,
    ) -> Result<DistSession, MachineError> {
        for (name, dec) in &decomps {
            let vals = images
                .get(name)
                .ok_or_else(|| MachineError::UnknownArray(name.clone()))?;
            if vals.len() as i64 != dec.len() {
                return Err(MachineError::PlanMismatch(format!(
                    "array `{name}` carries {} values but its extent holds {}",
                    vals.len(),
                    dec.len()
                )));
            }
        }
        let arrays = (decomps.iter())
            .map(|(name, dec)| {
                let image = DistArray::scatter_slice(&images[name], dec.clone());
                (name.clone(), image)
            })
            .collect();
        Ok(DistSession::over(arrays, decomps))
    }

    /// Run `clause` with `plan` once over `arrays` under `opts`, as a
    /// session made over them for the call and dropped after it: the
    /// one-shot [`crate::run_distributed_traced`]. A planned step never
    /// renames, so the session owes nothing when it goes.
    pub(crate) fn run_once(
        plan: &SpmdPlan,
        clause: &Clause,
        arrays: &mut BTreeMap<String, DistArray>,
        opts: DistOptions,
        tracer: &dyn Tracer,
    ) -> Result<ExecReport, MachineError> {
        let decomps = (arrays.iter()).map(|(name, da)| (name.clone(), da.decomp().clone()));
        let decomps = decomps.collect();
        let mut session = DistSession::over(std::mem::take(arrays), decomps);
        session.opts = opts;
        let report = session.run_one(Step::Planned(plan, clause), tracer);
        debug_assert!(session.debts.is_empty(), "a planned step renamed");
        *arrays = session.arrays;
        report
    }

    fn over(arrays: BTreeMap<String, DistArray>, decomps: DecompMap) -> DistSession {
        DistSession {
            arrays,
            decomps,
            opts: DistOptions::default(),
            caches: Handle::Owned(Box::default()),
            ns: 0,
            pools: Handle::Owned(Box::default()),
            debts: Vec::new(),
        }
    }

    /// Turn into a serve-mode session: every cache tier and the worker
    /// pool are shared with other sessions, and all cache keys carry the
    /// tenant namespace `ns` (see DESIGN.md §18).
    pub(crate) fn shared(
        mut self,
        opts: DistOptions,
        caches: Arc<Mutex<SessionCaches>>,
        ns: u64,
        pools: Arc<Mutex<PoolState>>,
    ) -> DistSession {
        self.opts = opts;
        (self.caches, self.ns) = (Handle::Shared(caches), ns);
        self.pools = Handle::Shared(pools);
        self
    }

    /// Replace the (owned) cache tiers with empty ones under `budget` —
    /// builder form, for sessions expected to sweep many more distinct
    /// clauses or layouts than the default budget holds. No-op on a
    /// shared-cache session (the service owns that budget).
    pub fn with_cache_budget(mut self, budget: CacheBudget) -> DistSession {
        if let Handle::Owned(c) = &mut self.caches {
            **c = SessionCaches::new(budget);
        }
        self
    }

    /// Override the execution options (timeouts, fault injection).
    pub fn with_options(mut self, opts: DistOptions) -> DistSession {
        self.opts = opts;
        self
    }

    /// Replace the execution options in place (e.g. clear a fault plan
    /// after a crashed run). Cached plans stay valid — they depend only
    /// on clauses and decompositions, never on options.
    pub fn set_options(&mut self, opts: DistOptions) {
        self.opts = opts;
    }

    /// The current decomposition of `name`.
    pub fn decomp_of(&self, name: &str) -> Option<&Decomp1> {
        self.decomps.get(name)
    }

    /// Plan and execute one `//` clause against the session state.
    ///
    /// Steady-state: the prepared plan is cached and the execution runs
    /// on the session's persistent worker pool, so calling this in a
    /// timestep loop hits the warm path automatically after the first
    /// iteration. Results are bit-identical to the cold
    /// [`crate::run_distributed`] path.
    pub fn run(&mut self, clause: &Clause) -> Result<ExecReport, MachineError> {
        self.run_traced(clause, &NULL_TRACER)
    }

    /// Like [`DistSession::run`] but with an observability tracer — plan
    /// derivation, every machine phase, and all transport traffic are
    /// recorded through it.
    pub fn run_traced(
        &mut self,
        clause: &Clause,
        tracer: &dyn Tracer,
    ) -> Result<ExecReport, MachineError> {
        self.run_one(Step::Clause(clause), tracer)
    }

    /// Look up (or build and cache) the prepared plan for one clause.
    /// Returns the plan, whether it was a cache hit, and how many
    /// entries the insertion evicted under budget pressure.
    fn prepare_cached(
        &mut self,
        clause: &Clause,
    ) -> Result<(Arc<PreparedPlan>, bool, u64), MachineError> {
        let (sig, fp) = plan_key(clause, &self.decomps);
        if let Some(p) = self
            .caches
            .with(|c| c.plans.get(&(self.ns, sig, fp)).cloned())
        {
            return Ok((p, true, 0));
        }
        // build OUTSIDE the shared lock: planning is exactly the
        // expensive part the cache exists to amortize, and one tenant's
        // cold miss must not serialize every other tenant's lookups
        let plan = SpmdPlan::build(clause, &self.decomps)
            .map_err(|e| MachineError::PlanMismatch(e.to_string()))?;
        let prepared = Arc::new(prepare_run(plan, clause, &self.decomps)?);
        let bytes = prepared.approx_bytes();
        // distinct fingerprints of one clause coexist (shared tiers see
        // several layouts per tenant at once); a session's own stale
        // entries are retired by redistribute, the only fingerprint
        // churn an owned session can have. LRU pressure bounds the rest.
        let evicted = self.caches.with(|c| {
            let before = c.plans.evictions();
            c.plans
                .insert((self.ns, sig, fp), Arc::clone(&prepared), bytes);
            c.plans.evictions() - before
        });
        Ok((prepared, false, evicted))
    }

    /// Run one step alone, outside a program; its report.
    fn run_one(&mut self, step: Step, tracer: &dyn Tracer) -> Result<ExecReport, MachineError> {
        Ok(self
            .run_steps(&[step], &[], tracer)?
            .pop()
            .unwrap_or_default())
    }

    /// The one step body: run `wave`, pairwise-independent steps (a
    /// redistribution always alone), one report per step, between the
    /// `clause_begin` and `clause_end` events of their program indices
    /// `at` (none outside a program). Every step is prepared first, so a
    /// step refused leaves every debt in place; then a debt that a step
    /// observes settles, counted by the first observer; then the wave runs
    /// on the session's pool. The debts it pays go, and its copies rename,
    /// only once it has committed.
    fn run_steps(
        &mut self,
        wave: &[Step],
        at: &[usize],
        tracer: &dyn Tracer,
    ) -> Result<Vec<ExecReport>, MachineError> {
        let trace_on = tracer.enabled();
        if trace_on {
            for &s in at {
                tracer.record(HOST, EventKind::ClauseBegin { step: s });
            }
        }
        let ready: Vec<Ready> = (0..wave.len())
            .map(|k| self.ready(wave, k))
            .collect::<Result<_, _>>()?;
        let (mut paid, mut settles, mut d) = (Vec::new(), Vec::new(), 0);
        while let Some(debt) = self.debts.get(d) {
            let (mut pays, mut observer) = (false, None);
            for (k, (&step, r)) in wave.iter().zip(&ready).enumerate() {
                match debt.fate(step, r) {
                    Fate::Pays => pays = true,
                    Fate::Observes => observer = observer.or(Some(k)),
                    Fate::Untouched => {}
                }
            }
            if let Some(k) = observer {
                settles.push((k, self.settle(d, tracer)?));
            } else {
                paid.extend(pays.then_some(d));
                d += 1;
            }
        }
        let jobs: Vec<Arc<PreparedPlan>> = (ready.iter())
            .filter(|r| r.rename.is_none())
            .map(|r| Arc::clone(&r.plan))
            .collect();
        let ran = match (wave, jobs.as_slice()) {
            ([Step::Redistribute(name, to)], [job]) => self.move_array(name, to, job, tracer)?,
            _ => self.dispatch(&jobs, None, tracer)?,
        };
        for d in paid.into_iter().rev() {
            self.debts.remove(d);
        }
        let mut ran = ran.into_iter();
        let mut reports = Vec::with_capacity(wave.len());
        for (&step, r) in wave.iter().zip(ready) {
            let mut report = match (step, r.rename) {
                (Step::Clause(c), Some(spans)) => {
                    timed(tracer, HOST, Phase::Commit, || self.rename(c, spans))
                }
                _ => ran.next().unwrap_or_default(),
            };
            report.cache_hits = u64::from(r.hit == Some(true));
            report.cache_misses = u64::from(r.hit == Some(false));
            report.evictions = r.evicted;
            reports.push(report);
        }
        for (k, settle) in settles {
            reports[k].add_settle(settle);
        }
        if trace_on {
            for &s in at {
                tracer.record(HOST, EventKind::ClauseEnd { step: s });
            }
        }
        Ok(reports)
    }

    /// Prepare step `k` of `wave`. A clause comes from the plan cache and
    /// renames when it is a copy that may and no other member touches its
    /// arrays; a planned clause is prepared from its caller's plan; a
    /// redistribution is checked, then planned as its copy clause.
    fn ready(&mut self, wave: &[Step], k: usize) -> Result<Ready, MachineError> {
        let (plan, hit, evicted) = match wave[k] {
            Step::Clause(c) => {
                let (plan, hit, evicted) = self.prepare_cached(c)?;
                (plan, Some(hit), evicted)
            }
            Step::Planned(plan, c) => {
                let prepared = prepare_run(plan.clone(), c, &self.decomps)?;
                (Arc::new(prepared), None, 0)
            }
            Step::Redistribute(name, to) => {
                let (clause, dm, plan) = copy_clause(name, self.movable(name, to)?, to)?;
                (Arc::new(prepare_run(plan, &clause, &dm)?), None, 0)
            }
        };
        let rename = self.rename_spans(wave, k, &plan);
        Ok(Ready {
            plan,
            hit,
            evicted,
            rename,
        })
    }

    /// The per-node write spans of step `k` of `wave`, prepared as
    /// `prepared`, when it renames: it is a copy clause, no other member
    /// touches its arrays, both arrays have one non-replicated layout and
    /// every node would commit the copy as a next image, so a rename swaps
    /// back at most half a part.
    fn rename_spans(&self, wave: &[Step], k: usize, prepared: &PreparedPlan) -> Option<Spans> {
        let Step::Clause(c) = wave[k] else {
            return None;
        };
        let (u, v) = (c.lhs.array.as_str(), copy_source(c)?);
        let apart = |(j, o): (usize, &Step)| j == k || !(o.touches(u) || o.touches(v));
        if !wave.iter().enumerate().all(apart) {
            return None;
        }
        let dec = rename_layout(c, &self.decomps)?;
        (0..dec.pmax())
            .map(|p| {
                let (p, len) = (p as usize, dec.local_count(p) as usize);
                let spans = prepared.compiled.nodes.get(p)?.write_spans.clone();
                spans.filter(|_| prepared.writes_image(p, len))
            })
            .collect()
    }

    /// Run copy `c` as a rename: trade its arrays' parts on `spans`, and
    /// its source owes the copy there.
    fn rename(&mut self, c: &Clause, spans: Spans) -> ExecReport {
        let (u, v) = (&c.lhs.array, copy_source(c).unwrap_or_default());
        let mut pair =
            (self.arrays.iter_mut()).filter_map(|(n, a)| (n == u || n == v).then_some(a));
        if let (Some(a), Some(b)) = (pair.next(), pair.next()) {
            a.trade_parts(b, &spans);
        }
        let pmax = spans.len();
        self.debts.push(Debt {
            names: [v.to_string(), u.clone()],
            iter: c.iter.clone(),
            ordering: c.ordering,
            spans,
        });
        ExecReport {
            nodes: vec![NodeStats::default(); pmax],
            traffic: vec![vec![0; pmax]; pmax],
            renamed: true,
            ..ExecReport::default()
        }
    }

    /// Pay debt `d` by running its owed copy, never renamed; a failed run
    /// leaves it owed. Its events stay out of `tracer`'s log, which holds
    /// the one run its caller asked for, and its report is returned.
    fn settle(&mut self, d: usize, tracer: &dyn Tracer) -> Result<ExecReport, MachineError> {
        let (prepared, _, evictions) = self.prepare_cached(&self.debts[d].settle())?;
        let mut ran = self.dispatch(&[prepared], None, &TimingsOnly(tracer))?;
        self.debts.remove(d);
        let mut report = ran.pop().unwrap_or_default();
        report.evictions = evictions;
        Ok(report)
    }

    /// Run `jobs` as one wave on the session's pool and backend, over
    /// `images` or else the session's arrays. No jobs (a wave of renames,
    /// a program wave with no clause) take no pool, shared or not.
    fn dispatch(
        &mut self,
        jobs: &[Arc<PreparedPlan>],
        images: Option<&mut BTreeMap<String, DistArray>>,
        tracer: &dyn Tracer,
    ) -> Result<Vec<ExecReport>, MachineError> {
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        let (arrays, opts) = (images.unwrap_or(&mut self.arrays), self.opts);
        self.pools.with(|p| p.run_wave(jobs, arrays, opts, tracer))
    }

    /// Look up (or build and cache) the dependence DAG for a program.
    /// Returns the DAG, whether it was a cache hit, and eviction count.
    fn dag_cached(&mut self, steps: &[ProgramStep]) -> (Arc<ProgramDag>, bool, u64) {
        let sig = program_signature(steps);
        let fp = decomp_fingerprint(&self.decomps, steps.iter().flat_map(ProgramStep::arrays));
        if let Some(d) = self
            .caches
            .with(|c| c.dags.get(&(self.ns, sig, fp)).cloned())
        {
            return (d, true, 0);
        }
        let dag = Arc::new(build_dag(steps, &self.decomps));
        let bytes = (dag.edges.len() + steps.len()) * DAG_ENTRY_BYTES;
        // as with plans: distinct fingerprints of one program coexist,
        // so shared tiers serve several layouts per tenant concurrently
        let evicted = self.caches.with(|c| {
            let before = c.dags.evictions();
            c.dags.insert((self.ns, sig, fp), Arc::clone(&dag), bytes);
            c.dags.evictions() - before
        });
        (dag, false, evicted)
    }

    /// Execute a whole multi-step program under a [`ScheduleMode`].
    ///
    /// One wave loop runs both schedules through the one step body.
    /// [`ScheduleMode::Seq`] makes every step a wave of its own, in strict
    /// program order, and is the differential oracle.
    /// [`ScheduleMode::Dag`] builds (or recalls from the DAG cache) the
    /// program's dependence DAG and runs it wave by wave:
    /// pairwise-independent clauses of one wave are dispatched together to
    /// the session's persistent pool, on any backend, which pipelines
    /// clause *k+1*'s sends behind clause *k*'s boundary runs and commits
    /// per-clause writes in ordinal order, so the results are
    /// bit-identical to `Seq`. A wave's redistributions run on the pool,
    /// one at a time, before its clauses.
    ///
    /// With an enabled tracer the host records a deterministic
    /// `dag_ready` event per wave member at wave entry, `clause_begin`
    /// when a step is dispatched, and `clause_end` when its writes have
    /// committed — [`crate::obs::replay_check_dag`] re-validates that
    /// ordering against the DAG.
    pub fn run_program(
        &mut self,
        steps: &[ProgramStep],
        schedule: ScheduleMode,
        tracer: &dyn Tracer,
    ) -> Result<ProgramReport, MachineError> {
        let dag = (schedule == ScheduleMode::Dag).then(|| self.dag_cached(steps));
        let mut program = ProgramReport {
            waves: steps.len(),
            dag_width: 1,
            ..ProgramReport::default()
        };
        if let Some((dag, hit, evicted)) = &dag {
            program.waves = dag.waves.len();
            program.dag_edges = dag.edges.len();
            program.dag_width = dag.width();
            program.dag_cache_hits = u64::from(*hit);
            program.dag_cache_misses = u64::from(!hit);
            program.evictions = *evicted;
        }
        let mut reports: Vec<ExecReport> = steps.iter().map(|_| ExecReport::default()).collect();
        // a wave's clauses, by program index and as steps; reused
        let (mut at, mut clauses) = (Vec::new(), Vec::new());
        for w in 0..program.waves {
            let wave = match &dag {
                Some((dag, ..)) => dag.waves[w].as_slice(),
                None => std::slice::from_ref(&w),
            };
            if tracer.enabled() {
                for &s in wave {
                    tracer.record(HOST, EventKind::DagReady { step: s });
                }
            }
            // a wave is pairwise independent, so no clause of it touches
            // a redistributed array: order within the wave is free
            at.clear();
            clauses.clear();
            for &s in wave {
                match &steps[s] {
                    ProgramStep::Clause(c) => {
                        at.push(s);
                        clauses.push(Step::Clause(c));
                    }
                    ProgramStep::Redistribute { array, to } => {
                        let step = [Step::Redistribute(array, to)];
                        let mut ran = self.run_steps(&step, &[s], tracer)?;
                        reports[s] = ran.pop().unwrap_or_default();
                    }
                }
            }
            for (&s, report) in at.iter().zip(self.run_steps(&clauses, &at, tracer)?) {
                reports[s] = report;
            }
        }
        program.evictions += reports.iter().map(|r| r.evictions).sum::<u64>();
        program.steps = reports;
        Ok(program)
    }

    /// Execute an `n_steps` timestep loop of `steps` with the
    /// cost-driven decomposition auto-tuner in the loop (DESIGN.md §17):
    ///
    /// 1. **Profile** — the first `profile_steps` iterations run under
    ///    the incumbent decompositions with an internal tracer; their
    ///    counters and measured per-phase wall-clock fit the §4 cost
    ///    model's constants ([`crate::perfmodel::fit`]).
    /// 2. **Search** — the advisor's era ranking of the candidate space
    ///    (Block / Scatter / BlockScatter(b) per array), cut to
    ///    `budget`, is re-priced from the plans' census under the fitted
    ///    constants, a copy that would run as a rename at no cost; the
    ///    incumbent is always priced for the stay/switch comparison.
    /// 3. **Switch** — if the predicted per-step gain of the argmin
    ///    candidate, amortized over the remaining steps, exceeds the
    ///    predicted cost of redistributing every array whose layout
    ///    changes, the redistributions are inserted (executed
    ///    immediately, mid-program) and the loop continues under the
    ///    new layout.
    ///
    /// With [`TuneOptions::retune_every`] set to `N`, the loop is cut
    /// into rounds of at most `N` steps and the whole
    /// profile→calibrate→price→switch pass reruns at each round
    /// boundary, so very long loops re-adapt mid-flight; gains are
    /// always amortized over *all* steps remaining in the loop, not
    /// just the current round.
    ///
    /// Results are bitwise identical to running the same `n_steps`
    /// loop untuned — redistribution moves values without transforming
    /// them, and every candidate executes bit-identically to the
    /// sequential reference — so the tuner can never trade correctness
    /// for speed. The returned [`ProgramReport`] is the last step's,
    /// with the tuner counters filled in; the [`TuneReport`] records
    /// what the search saw and decided.
    ///
    /// Programs that already contain explicit [`ProgramStep::Redistribute`]
    /// steps are rejected ([`MachineError::PlanMismatch`]): a
    /// mid-program layout change contradicts the tuner's
    /// one-assignment-per-loop candidate model.
    pub fn run_program_tuned(
        &mut self,
        steps: &[ProgramStep],
        n_steps: u64,
        schedule: ScheduleMode,
        topts: TuneOptions,
        tracer: &dyn Tracer,
    ) -> Result<(ProgramReport, TuneReport), MachineError> {
        if n_steps == 0 {
            return Err(MachineError::PlanMismatch(
                "tuned timestep loop needs at least one step".into(),
            ));
        }
        let clauses = (steps.iter())
            .map(|s| match s {
                ProgramStep::Clause(c) => Ok(c.clone()),
                ProgramStep::Redistribute { array, .. } => {
                    Err(MachineError::PlanMismatch(format!(
                        "cannot tune a program with an explicit redistribution (array `{array}`)"
                    )))
                }
            })
            .collect::<Result<Vec<Clause>, _>>()?;
        let (mut tune, mut last) = (TuneReport::default(), ProgramReport::default());
        let mut remaining = n_steps;
        while remaining > 0 {
            // one profile→calibrate→price→switch→run round of `round`
            // steps; a switch is amortized over `remaining`, the steps left
            // in the whole loop — it pays off across round boundaries
            let round = (topts.retune_every).map_or(remaining, |r| r.max(1).min(remaining));

            // 1. profile: run the leading steps traced, collect one
            // calibration sample per step. The first step is cold (plans
            // build, pools spawn) — when more than one profile step runs,
            // only the warm ones feed the fit.
            let profile = topts.profile_steps.clamp(1, round);
            let mut samples = Vec::new();
            let mut measured_ns = 0.0;
            for _ in 0..profile {
                let t = CollectingTracer::new();
                let t0 = std::time::Instant::now();
                let report = self.run_program(steps, schedule, &t)?;
                measured_ns = t0.elapsed().as_nanos() as f64;
                samples.push(CalibrationSample::of(&report.steps, &t.finish()));
                last = report;
            }
            let warm_samples = &samples[usize::from(samples.len() > 1)..];
            let fitted = fit(warm_samples);
            tune.calibrated |= fitted.is_some();
            let model = fitted.unwrap_or(CostModel::ERA);
            tune.measured_step_ns = measured_ns;

            // 2. search: re-price the era ranking's top `budget` under the
            // fitted constants
            let incumbent_dm = (program_arrays(&clauses).into_iter())
                .map(|name| match self.decomps.get(&name) {
                    Some(dec) => Ok((name, dec.clone())),
                    None => Err(MachineError::UnknownArray(name)),
                })
                .collect::<Result<DecompMap, _>>()?;
            let extents = (incumbent_dm.iter()).map(|(name, dec)| (name.clone(), dec.extent()));
            let pmax = incumbent_dm.values().next().map_or(1, Decomp1::pmax);
            let mut candidates =
                advise(&clauses, &extents.collect(), pmax).map_err(MachineError::PlanMismatch)?;
            candidates.truncate(topts.budget.max(1));

            // the incumbent must participate even if the budget (or an
            // out-of-family layout) excluded it
            if !candidates.iter().any(|c| c.decomps == incumbent_dm) {
                let inc = candidate(&clauses, incumbent_dm.clone()).ok_or_else(|| {
                    MachineError::PlanMismatch(
                        "incumbent decomposition has no plan — cannot tune".into(),
                    )
                })?;
                candidates.push(inc);
            }

            // the argmin keeps the first of equal prices: byte-stable
            let prices: Vec<f64> = (candidates.iter())
                .map(|c| price_candidate(&clauses, c, &model))
                .collect();
            tune.candidates_priced += candidates.len() as u64;
            let incumbent = (candidates.iter())
                .position(|c| c.decomps == incumbent_dm)
                .unwrap_or_default();
            let baseline = prices[incumbent];
            let best_k = (0..prices.len())
                .min_by(|&a, &b| prices[a].total_cmp(&prices[b]))
                .unwrap_or(incumbent);
            let best_price = prices[best_k];
            tune.predicted_step_ns = best_price;
            tune.baseline_step_ns = baseline;
            tune.worst_step_ns = prices.iter().copied().fold(0.0, f64::max);
            if measured_ns > 0.0 {
                tune.model_error = (baseline - measured_ns).abs() / measured_ns;
            }

            // 3. switch if the gain, amortized over every step left in the
            // whole loop, beats the redistribution bill
            let horizon = remaining - profile;
            let chosen = &candidates[best_k];
            let mut redists: Vec<(String, Decomp1)> = Vec::new();
            let mut switch_cost = 0.0;
            if best_k != incumbent {
                for (name, to) in &chosen.decomps {
                    if &self.decomps[name] == to {
                        continue;
                    }
                    // a layout the array cannot move to (out of or into a
                    // replicated image) makes the switch infeasible
                    let Ok(from) = self.movable(name, to) else {
                        redists.clear();
                        break;
                    };
                    let (_, _, plan) = copy_clause(name, from, to)?;
                    switch_cost += model.price_plan(&plan).aggregate;
                    redists.push((name.clone(), to.clone()));
                }
            }
            let gain = (baseline - best_price) * horizon as f64;
            let switch = !redists.is_empty() && gain > switch_cost;
            tune.chosen = describe_assignment(if switch {
                &chosen.decomps
            } else {
                &incumbent_dm
            });
            tune.switched |= switch;
            if switch {
                tune.switch_cost_ns += switch_cost;
                for (name, to) in redists {
                    self.run_one(Step::Redistribute(&name, &to), tracer)?;
                    tune.redistributions_inserted += 1;
                }
            } else {
                tune.predicted_step_ns = baseline;
            }

            // run the round's remaining steps under the (possibly new) layout
            for _ in 0..(round - profile) {
                last = self.run_program(steps, schedule, tracer)?;
            }
            tune.rounds += 1;
            remaining -= round;
        }
        last.candidates_priced = tune.candidates_priced;
        last.redistributions_inserted = tune.redistributions_inserted;
        Ok((last, tune))
    }

    /// OS process ids of the live worker processes, in node order —
    /// empty until a socket-backend run has spawned the pool. Exists so
    /// supervision tests can kill a specific worker mid-run.
    pub fn worker_pids(&mut self) -> Vec<u32> {
        self.pools.with(|p| p.pids())
    }

    /// Retired parts the in-process pool keeps for reuse as next images.
    /// Exists so fault tests can hold the pool to its bound
    /// ([`FREE_PARTS_PER_NODE`](crate::FREE_PARTS_PER_NODE) per node).
    pub fn free_parts(&mut self) -> usize {
        self.pools.with(|p| p.free_parts())
    }

    /// Execute a clause with a prebuilt plan, for instance a naive one
    /// ([`SpmdPlan::build_naive`]), on the session's pool and backend. The
    /// plan never enters the plan cache, so the report counts no cache
    /// hits or misses, and a copy run so never renames.
    pub fn run_plan(
        &mut self,
        plan: &SpmdPlan,
        clause: &Clause,
    ) -> Result<ExecReport, MachineError> {
        self.run_one(Step::Planned(plan, clause), &NULL_TRACER)
    }

    /// Build a plan once for repeated execution.
    pub fn plan(&self, clause: &Clause) -> Result<SpmdPlan, MachineError> {
        SpmdPlan::build(clause, &self.decomps)
            .map_err(|e| MachineError::PlanMismatch(e.to_string()))
    }

    /// Dynamically redistribute `name` to a new layout (Section 5
    /// extension), updating the session's decomposition map. The move is
    /// the copy clause `name'[i] := name[i]` with `name'` laid out as `to`
    /// ([`copy_clause`]), planned and run like any clause on the
    /// session's pool and transport; its report counts elements. A target
    /// the array cannot be moved to — another extent, another processor
    /// count, a replicated image on either side — is a typed
    /// [`MachineError::PlanMismatch`] and leaves the session as it was
    /// (`to` may come from an untrusted `vcalc request`), as does a failed
    /// run. The copy's plan is private: it never enters the plan cache, so
    /// its step reports no cache hits or misses. As a program step it
    /// runs with a tracer ([`DistSession::run_program`]).
    pub fn redistribute(&mut self, name: &str, to: Decomp1) -> Result<ExecReport, MachineError> {
        self.run_one(Step::Redistribute(name, &to), &NULL_TRACER)
    }

    /// The layout `name` can move from to `to`, or why it cannot.
    fn movable(&self, name: &str, to: &Decomp1) -> Result<&Decomp1, MachineError> {
        let from = (self.arrays.get(name))
            .map(DistArray::decomp)
            .ok_or_else(|| MachineError::UnknownArray(name.to_string()))?;
        let why = if to.extent() != from.extent() {
            let (to, from) = (to.extent(), from.extent());
            format!("target extent {to} differs from the array's {from}")
        } else if to.pmax() != from.pmax() {
            let (to, from) = (to.pmax(), from.pmax());
            format!("target spans {to} processors, the array {from}")
        } else if from.is_replicated() || to.is_replicated() {
            "a replicated image has no redistribution plan".into()
        } else {
            return Ok(from);
        };
        Err(MachineError::PlanMismatch(format!(
            "cannot redistribute `{name}`: {why}"
        )))
    }

    /// Run a redistribution's copy `job` over `name` and a zero image of
    /// its copy laid out as `to`, on the session's pool and backend, under
    /// its options; the copy becomes `name`, laid out as `to`. The wave is
    /// all-or-nothing, so on error the source image goes back as it was.
    fn move_array(
        &mut self,
        name: &str,
        to: &Decomp1,
        job: &Arc<PreparedPlan>,
        tracer: &dyn Tracer,
    ) -> Result<Vec<ExecReport>, MachineError> {
        let copy = job.lhs_array.clone();
        let mut pair = BTreeMap::from([(copy.clone(), DistArray::zeros(to.clone()))]);
        pair.extend(self.arrays.remove_entry(name));
        let run = self.dispatch(std::slice::from_ref(job), Some(&mut pair), tracer);
        let keep: &str = if run.is_ok() { &copy } else { name };
        if let Some(image) = pair.remove(keep) {
            self.arrays.insert(name.to_string(), image);
        }
        let ran = run?;
        self.decomps.insert(name.to_string(), to.clone());
        self.retire_plans();
        Ok(ran)
    }

    /// The decomposition map changed: every cached plan of *this
    /// session's namespace* whose fingerprint covers the moved array is
    /// stale. Retire the whole namespace (cheap, safe); other tenants'
    /// entries in a shared tier are untouched.
    fn retire_plans(&mut self) {
        self.caches.with(|c| c.plans.retain(|k| k.0 != self.ns));
    }

    /// Gather one array back to a global image.
    pub fn gather(&self, name: &str) -> Result<Array, MachineError> {
        let da = (self.arrays.get(name)).ok_or_else(|| MachineError::UnknownArray(name.into()))?;
        let mut out = Array::zeros(da.decomp().extent());
        self.gather_into(name, da, out.data_mut());
        Ok(out)
    }

    /// Gather `da`, the image of `name`, taking what it owes from its
    /// creditor's parts.
    fn gather_into(&self, name: &str, da: &DistArray, image: &mut [f64]) {
        da.gather_into(image);
        for debt in self.debts.iter().filter(|debt| debt.names()[0] == name) {
            self.arrays[debt.names()[1]].gather_spans_into(image, &debt.spans);
        }
    }

    /// Gather the whole state back into an [`Env`].
    pub fn gather_all(&self) -> Env {
        let mut env = Env::new();
        for (name, image) in self
            .arrays
            .keys()
            .filter_map(|n| Some((n, self.gather(n).ok()?)))
        {
            env.insert(name.clone(), image);
        }
        env
    }

    /// Gather the whole state as flat global images (the inverse of
    /// [`DistSession::from_images`]).
    pub(crate) fn gather_images(&self) -> BTreeMap<String, Vec<f64>> {
        (self.arrays.iter())
            .map(|(name, da)| {
                let mut image = vec![0.0; da.decomp().len() as usize];
                self.gather_into(name, da, &mut image);
                (name.clone(), image)
            })
            .collect()
    }
}

/// The copy clause `name'[i] := name[i]` over `from`'s extent, the
/// private two-entry map it is planned against (`name` laid out as
/// `from`, `name'` as `to`) and its plan. Run on the engine it is the
/// redistribution `from` → `to` (the paper's dynamic decomposition, §5);
/// priced, it is what that redistribution costs.
pub fn copy_clause(
    name: &str,
    from: &Decomp1,
    to: &Decomp1,
) -> Result<(Clause, DecompMap, SpmdPlan), MachineError> {
    let copy = format!("{name}'");
    let clause = Clause {
        iter: IndexSet::full(from.extent()),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1(copy.clone(), Fn1::identity()),
        rhs: Expr::Ref(ArrayRef::d1(name, Fn1::identity())),
    };
    let dm = DecompMap::from([(name.to_string(), from.clone()), (copy, to.clone())]);
    let plan =
        SpmdPlan::build(&clause, &dm).map_err(|e| MachineError::PlanMismatch(e.to_string()))?;
    Ok((clause, dm, plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcal_core::Bounds;

    #[test]
    fn session_sweeps_match_reference() {
        use vcal_core::func::Fn1;
        use vcal_core::{ArrayRef, Expr, Guard, IndexSet, Ordering};
        let n = 64i64;
        let sweep = Clause {
            iter: IndexSet::range(1, n - 2),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("V", Fn1::identity()),
            rhs: Expr::mul(
                Expr::add(
                    Expr::Ref(ArrayRef::d1("U", Fn1::shift(-1))),
                    Expr::Ref(ArrayRef::d1("U", Fn1::shift(1))),
                ),
                Expr::Lit(0.5),
            ),
        };
        let back = Clause {
            iter: IndexSet::range(1, n - 2),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("U", Fn1::identity()),
            rhs: Expr::Ref(ArrayRef::d1("V", Fn1::identity())),
        };
        let mut env = Env::new();
        env.insert(
            "U",
            Array::from_fn(Bounds::range(0, n - 1), |i| {
                if i.scalar() == 10 {
                    5.0
                } else {
                    0.0
                }
            }),
        );
        env.insert("V", Array::zeros(Bounds::range(0, n - 1)));

        let mut reference = env.clone();
        for _ in 0..4 {
            reference.exec_clause(&sweep);
            reference.exec_clause(&back);
        }

        let mut dm = DecompMap::new();
        dm.insert("U".into(), Decomp1::block(4, Bounds::range(0, n - 1)));
        dm.insert("V".into(), Decomp1::block(4, Bounds::range(0, n - 1)));
        let mut session = DistSession::new(&env, dm).unwrap();
        let sweep_plan = session.plan(&sweep).unwrap();
        let back_plan = session.plan(&back).unwrap();
        for _ in 0..4 {
            session.run_plan(&sweep_plan, &sweep).unwrap();
            session.run_plan(&back_plan, &back).unwrap();
        }
        assert_eq!(
            session
                .gather("U")
                .unwrap()
                .max_abs_diff(reference.get("U").unwrap()),
            0.0
        );
    }

    /// `gather_images`, the serve path's gather, takes what a renamed
    /// copy's source owes from the copy's parts.
    #[test]
    fn gather_images_patch_a_renamed_copy() {
        let e = Bounds::range(0, 63);
        let images = BTreeMap::from([
            ("U".to_string(), (0..64).map(f64::from).collect::<Vec<_>>()),
            ("V".to_string(), (0..64).map(|i| -f64::from(i)).collect()),
        ]);
        let dm = DecompMap::from([
            ("U".to_string(), Decomp1::block(4, e)),
            ("V".to_string(), Decomp1::block(4, e)),
        ]);
        let mut session = DistSession::from_images(&images, dm).unwrap();
        let copy = Clause {
            iter: IndexSet::range(1, 62),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("U", Fn1::identity()),
            rhs: Expr::Ref(ArrayRef::d1("V", Fn1::identity())),
        };
        assert!(session.run(&copy).unwrap().renamed);
        let mut want = images.clone();
        want.get_mut("U").unwrap()[1..63].copy_from_slice(&images["V"][1..63]);
        assert_eq!(session.gather_images(), want);
    }

    #[test]
    fn session_redistribution_mid_program() {
        use vcal_core::func::Fn1;
        use vcal_core::{ArrayRef, Expr, Guard, IndexSet, Ordering};
        let n = 48i64;
        let double = Clause {
            iter: IndexSet::range(0, n - 1),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("A", Fn1::identity()),
            rhs: Expr::mul(
                Expr::Ref(ArrayRef::d1("A", Fn1::identity())),
                Expr::Lit(2.0),
            ),
        };
        let mut env = Env::new();
        env.insert(
            "A",
            Array::from_fn(Bounds::range(0, n - 1), |i| i.scalar() as f64),
        );

        let mut dm = DecompMap::new();
        dm.insert("A".into(), Decomp1::block(4, Bounds::range(0, n - 1)));
        let mut session = DistSession::new(&env, dm).unwrap();
        session.run(&double).unwrap();
        // switch layout mid-program
        let report = session
            .redistribute("A", Decomp1::scatter(4, Bounds::range(0, n - 1)))
            .unwrap();
        assert!(report.total().msgs_sent > 0);
        assert_eq!(
            session.decomp_of("A").unwrap(),
            &Decomp1::scatter(4, Bounds::range(0, n - 1))
        );
        session.run(&double).unwrap();
        let got = session.gather("A").unwrap();
        for i in 0..n {
            assert_eq!(got.get(&vcal_core::Ix::d1(i)), (i * 4) as f64);
        }
    }

    /// A one-array session holding `A[i] = 3i + 1` laid out as `dec`.
    fn ramp_session(dec: Decomp1) -> (DistSession, Array) {
        let ramp = Array::from_fn(dec.extent(), |i| (i.scalar() * 3 + 1) as f64);
        let mut env = Env::new();
        env.insert("A", ramp.clone());
        let dm = DecompMap::from([("A".to_string(), dec)]);
        (DistSession::new(&env, dm).unwrap(), ramp)
    }

    fn bits(a: &Array) -> Vec<u64> {
        a.data().iter().map(|v| v.to_bits()).collect()
    }

    /// A redistribution report counts elements, like every engine
    /// report: `msgs_sent` is the plan's moved elements and
    /// `traffic[p][q]` its element moves from `p` to `q`, over every
    /// ordered pair of four layouts.
    #[test]
    fn redistribution_reports_count_elements() {
        use vcal_decomp::RedistPlan;
        let (pmax, n) = (4, 96);
        let e = Bounds::range(0, n - 1);
        let layouts = [
            Decomp1::block(pmax, e),
            Decomp1::scatter(pmax, e),
            Decomp1::block_scatter(3, pmax, e),
            Decomp1::block_scatter(16, pmax, e),
        ];
        for from in &layouts {
            for to in &layouts {
                let plan = RedistPlan::build(from, to);
                let (mut session, ramp) = ramp_session(from.clone());
                let report = session.redistribute("A", to.clone()).unwrap();
                let what = format!("{from:?} -> {to:?}");
                assert_eq!(bits(&session.gather("A").unwrap()), bits(&ramp), "{what}");
                assert_eq!(session.decomp_of("A"), Some(to), "{what}");
                let total = report.total();
                assert_eq!(total.msgs_sent as i64, plan.moved_elements(), "{what}");
                assert_eq!(total.msgs_received, total.msgs_sent, "{what}");
                let mut want = vec![vec![0u64; pmax as usize]; pmax as usize];
                for (_, p, q) in plan.element_moves() {
                    want[p as usize][q as usize] += 1;
                }
                assert_eq!(report.traffic, want, "{what}");
            }
        }
    }

    #[test]
    fn roundtrip_back_to_original_layout() {
        let e = Bounds::range(0, 99);
        let a = Decomp1::block_scatter(3, 5, e);
        let b = Decomp1::scatter(5, e);
        let (mut session, ramp) = ramp_session(a.clone());
        session.redistribute("A", b).unwrap();
        session.redistribute("A", a.clone()).unwrap();
        assert_eq!(session.decomp_of("A"), Some(&a));
        assert_eq!(bits(&session.gather("A").unwrap()), bits(&ramp));
    }

    #[test]
    fn identity_plan_is_pure_local_copy() {
        let n = 32;
        let d = Decomp1::block(4, Bounds::range(0, n - 1));
        let (mut session, ramp) = ramp_session(d.clone());
        let report = session.redistribute("A", d).unwrap();
        assert_eq!(bits(&session.gather("A").unwrap()), bits(&ramp));
        assert_eq!(report.total().msgs_sent, 0);
        assert_eq!(report.total().local_reads, n as u64);
    }

    #[test]
    fn faulty_redistribution_recovers() {
        use crate::transport::{FaultPlan, RetryPolicy};
        use std::time::Duration;
        let e = Bounds::range(0, 63);
        let (session, ramp) = ramp_session(Decomp1::block(4, e));
        let mut session = session.with_options(DistOptions {
            recv_timeout: Duration::from_secs(5),
            faults: Some(
                FaultPlan::seeded(9)
                    .with_drop(0.15)
                    .with_reorder(0.15)
                    .with_duplicate(0.1),
            ),
            retry: RetryPolicy::fast(),
            ..DistOptions::default()
        });
        let report = session.redistribute("A", Decomp1::scatter(4, e)).unwrap();
        assert_eq!(session.gather("A").unwrap().max_abs_diff(&ramp), 0.0);
        assert!(report.total().acks_sent > 0);
    }

    /// A crashed node is a typed error that leaves the array bitwise as
    /// it was, in its old layout, and the next redistribution succeeds.
    #[test]
    fn crashed_redistribution_node_is_typed_error() {
        use crate::transport::{FaultPlan, RetryPolicy};
        use std::time::Duration;
        let e = Bounds::range(0, 63);
        let (from, to) = (Decomp1::block(4, e), Decomp1::scatter(4, e));
        let (session, ramp) = ramp_session(from.clone());
        let mut session = session.with_options(DistOptions {
            recv_timeout: Duration::from_millis(500),
            faults: Some(FaultPlan::seeded(1).with_crash(0, 0)),
            retry: RetryPolicy::fast(),
            ..DistOptions::default()
        });
        let err = session.redistribute("A", to.clone()).unwrap_err();
        assert_eq!(err, MachineError::NodePanicked { node: 0 });
        assert_eq!(session.decomp_of("A"), Some(&from));
        assert_eq!(bits(&session.gather("A").unwrap()), bits(&ramp));
        session.set_options(DistOptions::default());
        session.redistribute("A", to.clone()).unwrap();
        assert_eq!(session.decomp_of("A"), Some(&to));
        assert_eq!(bits(&session.gather("A").unwrap()), bits(&ramp));
    }

    #[test]
    fn dag_schedule_matches_seq_oracle() {
        use vcal_core::func::Fn1;
        use vcal_core::{ArrayRef, Expr, Guard, IndexSet, Ordering};
        let n = 40i64;
        // A and B are independent (wave 0 together); C reads both (wave 1)
        let write = |lhs: &str, rhs: Expr| Clause {
            iter: IndexSet::range(1, n - 2),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1(lhs, Fn1::identity()),
            rhs,
        };
        let steps = vec![
            ProgramStep::Clause(write(
                "A",
                Expr::add(Expr::Ref(ArrayRef::d1("A", Fn1::shift(-1))), Expr::Lit(1.0)),
            )),
            ProgramStep::Clause(write(
                "B",
                Expr::mul(
                    Expr::Ref(ArrayRef::d1("B", Fn1::identity())),
                    Expr::Lit(2.0),
                ),
            )),
            ProgramStep::Clause(write(
                "C",
                Expr::add(
                    Expr::Ref(ArrayRef::d1("A", Fn1::identity())),
                    Expr::Ref(ArrayRef::d1("B", Fn1::identity())),
                ),
            )),
        ];
        let mut env = Env::new();
        for name in ["A", "B", "C"] {
            env.insert(
                name,
                Array::from_fn(Bounds::range(0, n - 1), |i| i.scalar() as f64),
            );
        }
        let mut dm = DecompMap::new();
        for name in ["A", "B", "C"] {
            dm.insert(name.into(), Decomp1::block(4, Bounds::range(0, n - 1)));
        }
        let mut seq = DistSession::new(&env, dm.clone()).unwrap();
        let rs = seq
            .run_program(&steps, ScheduleMode::Seq, &NULL_TRACER)
            .unwrap();
        assert_eq!(rs.waves, 3);

        let mut dag = DistSession::new(&env, dm).unwrap();
        let rd = dag
            .run_program(&steps, ScheduleMode::Dag, &NULL_TRACER)
            .unwrap();
        assert_eq!(rd.waves, 2, "A and B share a wave");
        assert_eq!(rd.dag_width, 2);
        assert_eq!(rd.dag_cache_misses, 1);
        for name in ["A", "B", "C"] {
            assert_eq!(
                dag.gather(name)
                    .unwrap()
                    .max_abs_diff(&seq.gather(name).unwrap()),
                0.0,
                "array {name} diverged"
            );
        }
        // warm rerun hits the DAG cache
        let rw = dag
            .run_program(&steps, ScheduleMode::Dag, &NULL_TRACER)
            .unwrap();
        assert_eq!(rw.dag_cache_hits, 1);
        assert_eq!(rw.steps[0].cache_hits, 1, "clause plans warm too");
    }

    #[test]
    fn bounds_mismatch_rejected() {
        let mut env = Env::new();
        env.insert("A", Array::zeros(Bounds::range(0, 9)));
        let mut dm = DecompMap::new();
        dm.insert("A".into(), Decomp1::block(2, Bounds::range(0, 15)));
        assert!(matches!(
            DistSession::new(&env, dm),
            Err(MachineError::PlanMismatch(_))
        ));
    }

    /// A 1-entry plan-cache budget forces an eviction when a second
    /// distinct clause arrives, and the eviction surfaces on the report
    /// — while results stay bit-identical to the unbounded session.
    #[test]
    fn bounded_plan_cache_evicts_and_reports() {
        use vcal_core::func::Fn1;
        use vcal_core::{ArrayRef, Expr, Guard, IndexSet, Ordering};
        let n = 32i64;
        let write = |lhs: &str, delta: f64| Clause {
            iter: IndexSet::range(0, n - 1),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1(lhs, Fn1::identity()),
            rhs: Expr::add(
                Expr::Ref(ArrayRef::d1(lhs, Fn1::identity())),
                Expr::Lit(delta),
            ),
        };
        let (a, b) = (write("A", 1.0), write("B", 2.0));
        let mut env = Env::new();
        for name in ["A", "B"] {
            env.insert(
                name,
                Array::from_fn(Bounds::range(0, n - 1), |i| i.scalar() as f64),
            );
        }
        let mut reference = env.clone();
        for _ in 0..2 {
            reference.exec_clause(&a);
            reference.exec_clause(&b);
        }
        let mut dm = DecompMap::new();
        for name in ["A", "B"] {
            dm.insert(name.into(), Decomp1::block(2, Bounds::range(0, n - 1)));
        }
        let mut session = DistSession::new(&env, dm)
            .unwrap()
            .with_cache_budget(CacheBudget {
                max_entries: 1,
                max_bytes: usize::MAX,
            });
        session.run(&a).unwrap();
        let rb = session.run(&b).unwrap();
        assert_eq!(rb.evictions, 1, "B's insert must evict A's plan");
        // A misses again (it was evicted), and evicts B in turn
        let ra = session.run(&a).unwrap();
        assert_eq!(ra.cache_hits, 0);
        assert_eq!(ra.evictions, 1);
        session.run(&b).unwrap();
        for name in ["A", "B"] {
            assert_eq!(
                session
                    .gather(name)
                    .unwrap()
                    .max_abs_diff(reference.get(name).unwrap()),
                0.0,
                "bounded cache changed results on `{name}`"
            );
        }

        // the byte budget charges tables: a 1 Mi-element block-scatter(16)
        // -> block copy (65 536 cycles, half its elements remote) folds
        // into one two-level comm run per packet and one exec entry per
        // node plus one per incoming packet — where a per-element receive
        // map cost 64 bytes per remote element (32 MiB) and per-run exec
        // tables a few hundred bytes per run — and two such plans now
        // share a 12 MiB budget
        let n = 1i64 << 20;
        let e = Bounds::range(0, n - 1);
        let copy = |lhs: &str| Clause {
            iter: IndexSet::range(0, n - 1),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1(lhs, Fn1::identity()),
            rhs: Expr::Ref(ArrayRef::d1("U", Fn1::identity())),
        };
        let mut env = Env::new();
        let mut dm = DecompMap::new();
        for name in ["U", "V", "W"] {
            env.insert(name, Array::from_fn(e, |i| i.scalar() as f64));
            dm.insert(name.into(), Decomp1::block(2, e));
        }
        dm.insert("U".into(), Decomp1::block_scatter(16, 2, e));
        let plan = SpmdPlan::build(&copy("V"), &dm).unwrap();
        let comm_runs: usize = (plan.nodes.iter())
            .flat_map(|np| np.comm.sends.iter().chain(&np.comm.recvs))
            .map(|pc| pc.runs.len())
            .sum();
        let prepared = prepare_run(plan, &copy("V"), &dm).unwrap();
        let nodes = &prepared.compiled().nodes;
        let entries: usize = nodes.iter().map(|cn| cn.exec.len()).sum();
        let packets: usize = nodes.iter().flat_map(|cn| &cn.staging_packets).sum();
        assert_eq!((entries, packets), (2 + 64, 64));
        // one run per packet, held by its sender and its receiver
        assert_eq!(comm_runs, 2 * packets);
        let tables: usize = nodes.iter().map(|cn| cn.approx_bytes()).sum();
        assert!(tables < 512 * packets, "{tables} B of run tables");
        let bytes = prepared.approx_bytes();
        let charged = comm_runs * std::mem::size_of::<vcal_spmd::CommRun>();
        assert!(
            (charged..charged + (64 << 10)).contains(&bytes),
            "{bytes} B for {comm_runs} comm runs is not a per-comm-run charge"
        );
        let mut session = DistSession::new(&env, dm)
            .unwrap()
            .with_cache_budget(CacheBudget {
                max_entries: 8,
                max_bytes: 12 << 20,
            });
        session.run(&copy("V")).unwrap();
        let rw = session.run(&copy("W")).unwrap();
        assert_eq!(rw.evictions, 0, "both plans fit the byte budget");
        assert_eq!(session.run(&copy("V")).unwrap().cache_hits, 1);
        assert_eq!(
            session
                .gather("W")
                .unwrap()
                .max_abs_diff(env.get("U").unwrap()),
            0.0
        );
    }

    /// `retune_every` cuts the loop into rounds, every round re-profiles,
    /// and the result stays bit-identical to the sequential reference.
    #[test]
    fn retune_rounds_match_reference() {
        use vcal_core::func::Fn1;
        use vcal_core::{ArrayRef, Expr, Guard, IndexSet, Ordering};
        let n = 64i64;
        let sweep = ProgramStep::Clause(Clause {
            iter: IndexSet::range(1, n - 2),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("V", Fn1::identity()),
            rhs: Expr::mul(
                Expr::add(
                    Expr::Ref(ArrayRef::d1("U", Fn1::shift(-1))),
                    Expr::Ref(ArrayRef::d1("U", Fn1::shift(1))),
                ),
                Expr::Lit(0.5),
            ),
        });
        let back = ProgramStep::Clause(Clause {
            iter: IndexSet::range(1, n - 2),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("U", Fn1::identity()),
            rhs: Expr::Ref(ArrayRef::d1("V", Fn1::identity())),
        });
        let steps = vec![sweep, back];
        let n_steps = 10u64;
        let mut env = Env::new();
        for name in ["U", "V"] {
            env.insert(
                name,
                Array::from_fn(Bounds::range(0, n - 1), |i| i.scalar() as f64 * 0.5 - 3.0),
            );
        }
        let mut reference = env.clone();
        for _ in 0..n_steps {
            for s in &steps {
                if let ProgramStep::Clause(c) = s {
                    reference.exec_clause(c);
                }
            }
        }
        let mut dm = DecompMap::new();
        for name in ["U", "V"] {
            dm.insert(name.into(), Decomp1::scatter(4, Bounds::range(0, n - 1)));
        }
        let mut session = DistSession::new(&env, dm).unwrap();
        let (report, tune) = session
            .run_program_tuned(
                &steps,
                n_steps,
                ScheduleMode::Seq,
                TuneOptions {
                    retune_every: Some(3),
                    ..TuneOptions::default()
                },
                &NULL_TRACER,
            )
            .unwrap();
        assert_eq!(tune.rounds, 4, "10 steps at retune-every 3 = 4 rounds");
        assert!(
            report.candidates_priced > 0,
            "every round prices candidates"
        );
        for name in ["U", "V"] {
            assert_eq!(
                session
                    .gather(name)
                    .unwrap()
                    .max_abs_diff(reference.get(name).unwrap()),
                0.0,
                "retuned loop diverged on `{name}`"
            );
        }
    }

    /// A Jacobi sweep `V[i] := U[i-1] + U[i+1]` and its copy-back
    /// `U[i] := V[i]` over `0..n`.
    fn sweep_and_copy_back(n: i64) -> [Clause; 2] {
        use vcal_core::func::Fn1;
        use vcal_core::{ArrayRef, Expr, Guard, IndexSet, Ordering};
        let clause = |lhs: &str, rhs: Expr| Clause {
            iter: IndexSet::range(1, n - 2),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1(lhs, Fn1::identity()),
            rhs,
        };
        let read = |a: &str, s: i64| Expr::Ref(ArrayRef::d1(a, Fn1::shift(s)));
        [
            clause("V", Expr::add(read("U", -1), read("U", 1))),
            clause("U", read("V", 0)),
        ]
    }

    /// A planned step stays out of the plan cache: between a miss and a
    /// hit of one clause, a naive plan of it counts neither and runs as
    /// the one-shot machine runs it.
    #[test]
    fn planned_steps_stay_out_of_the_plan_cache() {
        let n = 64;
        let [sweep, _] = sweep_and_copy_back(n);
        let e = Bounds::range(0, n - 1);
        let dm = DecompMap::from([
            ("U".to_string(), Decomp1::scatter(4, e)),
            ("V".to_string(), Decomp1::block(4, e)),
        ]);
        let mut env = Env::new();
        env.insert("U", Array::from_fn(e, |i| i.scalar() as f64 - 7.5));
        env.insert("V", Array::zeros(e));
        let mut session = DistSession::new(&env, dm.clone()).unwrap();
        let cache = |r: &ExecReport| (r.cache_hits, r.cache_misses);
        let first = session.run(&sweep).unwrap();
        assert_eq!(cache(&first), (0, 1));

        let naive = SpmdPlan::build_naive(&sweep, &dm).unwrap();
        let planned = session.run_plan(&naive, &sweep).unwrap();
        assert_eq!(cache(&planned), (0, 0));
        let mut arrays: BTreeMap<String, DistArray> = (dm.iter())
            .map(|(name, dec)| {
                let image = DistArray::scatter_from(env.get(name).unwrap(), dec.clone());
                (name.clone(), image)
            })
            .collect();
        let once = crate::run_distributed(&naive, &sweep, &mut arrays, DistOptions::default());
        let work = |r: &ExecReport| -> Vec<(u64, u64)> {
            (r.nodes.iter())
                .map(|n| (n.guard_tests, n.iterations))
                .collect()
        };
        assert_eq!(work(&planned), work(&once.unwrap()));
        assert!(planned.total().guard_tests > 0, "the naive plan ran");

        let third = session.run(&sweep).unwrap();
        assert_eq!(cache(&third), (1, 0));
        assert_eq!(third.nodes, first.nodes);
    }

    /// Two fitted models price one candidate in the ratio of their
    /// constants: a price is never served from an earlier fit.
    #[test]
    fn prices_follow_the_fitted_model() {
        let n = 256;
        let [sweep, _] = sweep_and_copy_back(n);
        let e = Bounds::range(0, n - 1);
        let dm = DecompMap::from([
            ("U".to_string(), Decomp1::block(4, e)),
            ("V".to_string(), Decomp1::block(4, e)),
        ]);
        let clauses = [sweep];
        let cand = candidate(&clauses, dm).unwrap();
        let fitted = |update_ns: f64| {
            let sample = CalibrationSample {
                iterations: 1000,
                update_ns,
                ..CalibrationSample::default()
            };
            fit(&[sample]).unwrap()
        };
        let (slow, fast) = (fitted(500_000.0), fitted(250_000.0));
        assert_eq!(slow.t_iter / fast.t_iter, 2.0);
        let (p_fast, p_slow) = (
            price_candidate(&clauses, &cand, &fast),
            price_candidate(&clauses, &cand, &slow),
        );
        assert!(p_fast > 0.0);
        assert!((p_slow / p_fast - 2.0).abs() < 1e-12, "{p_slow} / {p_fast}");
    }

    /// A copy that would run as a rename under the candidate's layouts
    /// costs nothing; under a misaligned candidate it pays.
    #[test]
    fn renamed_copies_cost_nothing() {
        let n = 256;
        let [sweep, back] = sweep_and_copy_back(n);
        let e = Bounds::range(0, n - 1);
        let price = |clauses: &[Clause], v: Decomp1| {
            let dm = DecompMap::from([
                ("U".to_string(), Decomp1::block(4, e)),
                ("V".to_string(), v),
            ]);
            let cand = candidate(clauses, dm).unwrap();
            price_candidate(clauses, &cand, &CostModel::ERA)
        };
        let pair = [sweep.clone(), back];
        let alone = std::slice::from_ref(&sweep);
        assert_eq!(
            price(&pair, Decomp1::block(4, e)),
            price(alone, Decomp1::block(4, e))
        );
        assert!(price(&pair, Decomp1::scatter(4, e)) > price(alone, Decomp1::scatter(4, e)));
    }
}
