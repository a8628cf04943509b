//! A reasoning *session*: input manager, rule modules, distributors —
//! everything per-tenant. The execution layer (worker pool, job queue,
//! flusher) lives in [`crate::runtime`]; a session holds a
//! [`SessionHandle`] into the runtime it registered with and submits its
//! rule instances to the shared pool.

use crate::buffer::Buffer;
use crate::config::SliderConfig;
use crate::inflight::Inflight;
use crate::maintenance::{self, RemovalOutcome};
use crate::runtime::{
    Job, JobQueue, Runtime, RuntimeConfig, RuntimeCore, RuntimeShared, SessionHandle,
};
use crate::scheduler::MaintenanceScheduler;
use crate::stats::{bump, GlobalCounters, RuleCounters, RuleStats, StatsSnapshot};
use crate::trace::{Event, EventKind, EventLog};
use parking_lot::{Mutex, RwLock};
use slider_model::{Dictionary, FxHashSet, NodeId, SweepOutcome, TermTriple, Triple};
use slider_rules::{DependencyGraph, Fragment, InputFilter, Rule, Ruleset};
use slider_store::{ShardedStore, VerticalStore};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// One rule module: the rule, its buffer, its distributor's routing table
/// and its counters (paper Figure 1, one column).
pub(crate) struct Module {
    pub(crate) rule: Arc<dyn Rule>,
    filter: InputFilter,
    buffer: Buffer,
    /// Rules whose buffers receive this module's fresh conclusions —
    /// `successors` in the dependency graph.
    successors: Vec<usize>,
    counters: RuleCounters,
}

/// Everything derived from the loaded ruleset — the **swappable half** of
/// the engine. `swap_ruleset` builds a fresh `RulesetState` and installs
/// it at its linearisation point; everything else resolves the current
/// state once per unit of work ([`Engine::rstate`]) and keeps using that
/// resolution while it holds an inflight token, which is what makes the
/// resolution stable: a swap only completes at verified quiescence
/// (inflight == 0, buffers empty), so a state resolved under a token can
/// never be retired mid-use.
pub(crate) struct RulesetState {
    /// Ruleset name ("rho-df", "RDFS", custom).
    name: String,
    pub(crate) modules: Vec<Module>,
    /// Shared with [`Slider::dependency_graph`] callers, whose handles
    /// outlive a swap.
    graph: Arc<DependencyGraph>,
}

impl RulesetState {
    /// The loaded rules, in module order — the rule list DRed runs over.
    fn rules(&self) -> Vec<Arc<dyn Rule>> {
        self.modules.iter().map(|m| Arc::clone(&m.rule)).collect()
    }
}

/// Builds the ruleset-derived state: dependency graph and modules. For
/// rules also present in `carried` (matched by name + definition), the
/// counters carry over — a hot-swap keeps a kept rule's history.
fn build_state(ruleset: &Ruleset, capacity: usize, carried: Option<&RulesetState>) -> RulesetState {
    let graph = DependencyGraph::build(ruleset);
    let modules: Vec<Module> = ruleset
        .rules()
        .iter()
        .enumerate()
        .map(|(i, rule)| {
            let kept = carried.and_then(|old| {
                old.modules.iter().find(|m| {
                    m.rule.name() == rule.name() && m.rule.definition() == rule.definition()
                })
            });
            Module {
                rule: Arc::clone(rule),
                filter: rule.input_filter(),
                buffer: Buffer::new(capacity),
                successors: graph.successors(i).to_vec(),
                counters: kept.map(|m| m.counters.carry()).unwrap_or_default(),
            }
        })
        .collect();
    RulesetState {
        name: ruleset.name().to_owned(),
        modules,
        graph: Arc::new(graph),
    }
}

/// Per-session state shared between the public handle, the runtime's
/// workers and its flusher.
pub(crate) struct Engine {
    dict: Arc<Dictionary>,
    store: ShardedStore,
    /// The current [`RulesetState`], replaced wholesale by `swap_ruleset`.
    /// The lock is held only for the pointer clone/swap, never across
    /// work; see [`Engine::rstate`] for the resolution discipline.
    rstate: RwLock<Arc<RulesetState>>,
    /// The shared runtime's job queue; submissions are tagged with
    /// `session` so the pool round-robins fairly across tenants.
    queue: Arc<JobQueue>,
    /// This session's runtime-unique id (its lane in the job queue).
    session: u64,
    /// Back-reference to self, so submitted jobs can carry an owning
    /// handle — worker panics and inflight tokens stay session-contained.
    self_ref: Weak<Engine>,
    /// This session's buffer-staleness deadline (`SliderConfig::timeout`);
    /// the runtime's flusher services it via
    /// [`Engine::drain_stale_buffers`].
    timeout: Option<Duration>,
    pub(crate) inflight: Inflight,
    pub(crate) globals: GlobalCounters,
    log: Option<EventLog>,
    /// Serialises DRed maintenance runs (see [`Slider::remove_triples`])
    /// and ruleset swaps — a swap is a maintenance operation.
    maintenance: Mutex<()>,
    /// Deferred retractions awaiting a coalesced DRed run (see
    /// [`Slider::remove_deferred`]).
    pub(crate) scheduler: MaintenanceScheduler,
    /// Idle-lane parking flag: set by the runtime's flusher when this
    /// session has nothing for it to service (every buffer empty, no
    /// pending maintenance), cleared by the first producer that makes new
    /// work visible. A parked session is skipped by the flusher's
    /// rotation and contributes no tick deadline. See [`Engine::try_park`]
    /// / [`Engine::unpark`] for the handshake.
    pub(crate) parked: AtomicBool,
    /// The runtime state shared with the flusher thread, so `unpark` can
    /// nudge it awake (with every session parked it sleeps indefinitely).
    flusher: Arc<RuntimeShared>,
    /// Configured buffer capacity, for the modules a ruleset swap builds.
    buffer_capacity: usize,
    /// Dictionary sweep trigger ratio (see
    /// `SliderConfig::dict_sweep_ratio`); `f64::INFINITY` disables the
    /// automatic post-retraction sweep.
    dict_sweep_ratio: f64,
    /// Triples retired (retracted + overdeleted) by maintenance runs
    /// since the last dictionary sweep — the sweep trigger's numerator.
    retired_since_sweep: AtomicUsize,
    /// Runs once, inside the next flush slice, between draining the
    /// pending queue and applying it — holds a drained-but-unapplied
    /// slice open for the flush-barrier test.
    #[cfg(test)]
    slice_drained_hook: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

/// Absolute floor for the automatic dictionary sweep: below this many
/// retirements since the last sweep, a sweep cannot reclaim enough to pay
/// for its liveness scan, whatever the ratio says.
const DICT_SWEEP_MIN_RETIRED: usize = 1024;

impl Engine {
    /// Resolves the current ruleset state. The returned `Arc` stays valid
    /// forever (a swap retires the *engine's* pointer, not the state), but
    /// it is only guaranteed to be the *current* program while the caller
    /// holds an inflight token acquired **before** the resolution: a swap
    /// linearises at inflight == 0, so a token pins the resolution. Code
    /// that resolves without a token (stats, Debug) may read a state that
    /// a concurrent swap is retiring — fine for observability, never for
    /// dispatch.
    pub(crate) fn rstate(&self) -> Arc<RulesetState> {
        Arc::clone(&self.rstate.read())
    }

    /// Queues a rule instance on the shared pool; the caller must already
    /// hold an inflight token for it (token ownership transfers to the
    /// job, which carries an owning engine handle).
    fn submit_with_token(&self, rule: usize, delta: Vec<Triple>) {
        let engine = self
            .self_ref
            .upgrade()
            .expect("a live session submitted this job");
        // Push only fails after the queue closed, i.e. during runtime
        // teardown; the token is released by the Drop path then.
        if self
            .queue
            .push(
                self.session,
                Job {
                    engine,
                    rule,
                    delta,
                },
            )
            .is_err()
        {
            self.inflight.dec();
        }
    }

    /// Acquires a token and queues a rule instance.
    fn submit(&self, rule: usize, delta: Vec<Triple>) {
        self.inflight.inc();
        self.submit_with_token(rule, delta);
    }

    /// Routes `triples` to the buffers of `targets` (each module filters by
    /// predicate), firing full buffers as new rule instances. The caller
    /// resolved `state` under an inflight token it still holds.
    fn dispatch(&self, state: &RulesetState, targets: &[usize], triples: &[Triple]) {
        let mut accepted: Vec<Triple> = Vec::new();
        let mut buffered_any = false;
        for &i in targets {
            let module = &state.modules[i];
            accepted.clear();
            accepted.extend(
                triples
                    .iter()
                    .copied()
                    .filter(|&t| module.filter.accepts(t)),
            );
            if accepted.is_empty() {
                continue;
            }
            buffered_any = true;
            bump(&module.counters.buffered, accepted.len() as u64);
            for chunk in module.buffer.push_batch(&accepted) {
                bump(&module.counters.full_flushes, 1);
                if let Some(log) = &self.log {
                    log.record(EventKind::BufferFull { rule: i });
                }
                self.submit(i, chunk);
            }
        }
        if buffered_any {
            // New buffered work may need timeout service: leave the
            // flusher's parked lane (no-op while unparked).
            self.unpark();
        }
    }

    /// Executes one rule instance: join, distribute, route (Figure 1's
    /// rule-module → distributor path).
    pub(crate) fn run_job(&self, rule: usize, delta: Vec<Triple>) {
        // The job carries an inflight token acquired at submission, so the
        // state resolved here is the submission-time state: a swap cannot
        // have linearised in between.
        let state = self.rstate();
        let module = &state.modules[rule];
        let mut out = Vec::new();
        // The join reads the live store under a shared lock, beside other
        // joins. The store holds this delta — `insert_batch` wrote it
        // before the dispatch that buffered it returned — and possibly
        // newer writes, which is sound (monotone): extra visible triples
        // only produce conclusions earlier; deletion cannot interleave, it
        // requires the store held exclusively, which implies quiescence —
        // no instance like this one in flight. Conclusions already present
        // are dropped under the same read, so the write lock covers only
        // candidate-fresh triples.
        let store = self.store.read();
        module.rule.apply(&store, &delta, &mut out);
        let derived = out.len();
        out.retain(|&t| !store.contains(t));
        drop(store);
        bump(&module.counters.fired, 1);
        bump(&module.counters.derived, derived as u64);

        let mut fresh = Vec::new();
        if !out.is_empty() {
            // Distributor step 1+2: add to store, keep only the new ones.
            self.store.insert_batch(&out, &mut fresh);
            bump(&module.counters.fresh, fresh.len() as u64);
        }
        if let Some(log) = &self.log {
            log.record(EventKind::RuleFired {
                rule,
                delta: delta.len(),
                derived,
                fresh: fresh.len(),
                store_size: self.store.len(),
            });
        }
        if !fresh.is_empty() {
            // Distributor step 3: dispatch to dependent buffers only.
            self.dispatch(&state, &module.successors, &fresh);
        }
    }

    fn buffers_empty(&self, state: &RulesetState) -> bool {
        state.modules.iter().all(|m| m.buffer.is_empty())
    }

    /// Force-flushes every buffer into rule instances.
    fn flush_all(&self) {
        // Guard token, then resolve: the token pins the resolved state, so
        // a racing swap cannot retire these modules (orphaning drained
        // batches or submitting stale rule indexes) mid-scan. Per-job
        // tokens acquired below while the guard is held chain the cover.
        self.inflight.inc();
        let state = self.rstate();
        for (i, module) in state.modules.iter().enumerate() {
            // Token first: the drained batch must never be invisible to
            // the quiescence check.
            self.inflight.inc();
            let drained = module.buffer.drain();
            if drained.is_empty() {
                self.inflight.dec();
            } else {
                bump(&module.counters.timeout_flushes, 1);
                if let Some(log) = &self.log {
                    log.record(EventKind::TimeoutFlush { rule: i });
                }
                self.submit_with_token(i, drained);
            }
        }
        self.inflight.dec();
    }

    /// Blocks until quiescent (see [`Slider::wait_idle`]).
    fn wait_idle(&self) {
        loop {
            self.flush_all();
            self.inflight.wait_zero();
            let state = self.rstate();
            if self.buffers_empty(&state) && self.inflight.current() == 0 {
                break;
            }
        }
        if let Some(log) = &self.log {
            log.record(EventKind::Idle {
                store_size: self.store.len(),
            });
        }
    }

    /// Runs `f` on the quiescent store: drains all in-flight derivations,
    /// then re-checks quiescence *while holding the store lock*
    /// ([`ShardedStore::exclusive`]) — an `add_triples` that slipped in
    /// after `wait_idle` still holds its inflight token until its routing
    /// (and pending-retraction cancellation) is done, so a clean check
    /// here means no rule instance can be holding stale premises and no
    /// assertion is midway through cancelling a pending retraction.
    /// Blocked writers proceed after `f` and join against the
    /// post-maintenance store — sound either way; readers keep answering
    /// from the pre-section epoch until the guard releases.
    /// So `f` sees a store no concurrent operation can touch. Returns
    /// `f`'s result and the store size captured under the lock (racing
    /// adders blocked on it must not leak into "store size after
    /// maintenance" reported by the trace events).
    fn with_quiescent_store<R>(&self, f: impl FnOnce(&mut VerticalStore) -> R) -> (R, usize) {
        let mut f = Some(f);
        loop {
            self.wait_idle();
            let mut store = self.store.exclusive();
            let state = self.rstate();
            if self.inflight.current() == 0 && self.buffers_empty(&state) {
                let result = (f.take().expect("quiescence loop runs f once"))(&mut store);
                break (result, store.len());
            }
        }
    }

    /// Records a completed maintenance run in the global counters.
    fn bump_removal_counters(&self, outcome: &RemovalOutcome) {
        if outcome.retracted > 0 {
            bump(&self.globals.removal_runs, 1);
            bump(&self.globals.retracted, outcome.retracted as u64);
            bump(&self.globals.overdeleted, outcome.overdeleted as u64);
            bump(&self.globals.rederived, outcome.rederived as u64);
        }
    }

    /// Post-retraction dictionary compaction hook. Called inside a
    /// quiescent-store section (maintenance mutex held, store held
    /// exclusively) after a DRed run that retired `retired_now` triples
    /// (retracted + overdeleted). Accumulates the retirement count and
    /// sweeps once it clears both the absolute floor
    /// ([`DICT_SWEEP_MIN_RETIRED`]) and the configured fraction of the
    /// dictionary's live-term count — large retraction bursts trigger a
    /// sweep, steady trickles never do.
    fn maybe_sweep_dict(&self, store: &VerticalStore, retired_now: usize) {
        if retired_now == 0 {
            return;
        }
        let retired = self
            .retired_since_sweep
            .fetch_add(retired_now, Ordering::Relaxed)
            + retired_now;
        if retired < DICT_SWEEP_MIN_RETIRED {
            return;
        }
        // An infinite ratio (auto-sweep disabled) makes this comparison
        // false for any finite retirement count.
        if (retired as f64) < self.dict_sweep_ratio * self.dict.len() as f64 {
            return;
        }
        self.retired_since_sweep.store(0, Ordering::Relaxed);
        self.sweep_dict_now(store);
    }

    /// Sweeps the dictionary against this session's quiescent store: every
    /// s/p/o node id the store or the pending-retraction queue references
    /// is the live root set, everything
    /// else (vocabulary excluded) is tombstoned and its id recycled. The
    /// caller holds the store exclusively, so no intern→insert window can
    /// race the liveness scan — `add_terms` keeps an inflight token across
    /// encoding, which the quiescence check waits out.
    fn sweep_dict_now(&self, store: &VerticalStore) -> SweepOutcome {
        let mut live: FxHashSet<NodeId> = FxHashSet::default();
        for t in store.iter() {
            live.insert(t.s);
            live.insert(t.p);
            live.insert(t.o);
        }
        // Pending deferred retractions are roots too: their triples may
        // already be gone from the store, but recycling their ids would
        // let a later intern alias the queued retraction at flush time.
        self.scheduler.for_each_pending(|t| {
            live.insert(t.s);
            live.insert(t.p);
            live.insert(t.o);
        });
        let outcome = self.dict.sweep(|id| live.contains(&id));
        if let Some(log) = &self.log {
            log.record(EventKind::DictSweep {
                scanned: outcome.scanned,
                swept: outcome.swept,
                live: outcome.live,
                bytes_before: outcome.bytes_before,
                bytes_after: outcome.bytes_after,
            });
        }
        outcome
    }

    /// One eager DRed run over `triples` (see [`Slider::remove_triples`]
    /// for the linearisation contract).
    fn remove_eager(&self, triples: &[Triple]) -> RemovalOutcome {
        // Fast path: an empty request retracts nothing by definition —
        // return without touching the maintenance mutex or the store lock
        // (pinned by the `gate_write_acquisitions` stat).
        if triples.is_empty() {
            return RemovalOutcome::default();
        }
        // One maintenance run at a time; concurrent removers queue here.
        // The maintenance mutex also excludes ruleset swaps, so the state
        // resolved below stays current for the whole run.
        let _serial = self.maintenance.lock();
        let state = self.rstate();
        let rules = state.rules();
        let (outcome, store_size) = self.with_quiescent_store(|store| {
            let outcome = maintenance::dred(store, &rules, &state.graph, triples);
            self.maybe_sweep_dict(store, outcome.retracted + outcome.overdeleted);
            outcome
        });
        self.bump_removal_counters(&outcome);
        if let Some(log) = &self.log {
            log.record(EventKind::Removal {
                requested: outcome.requested,
                retracted: outcome.retracted,
                overdeleted: outcome.overdeleted,
                rederived: outcome.rederived,
                store_size,
            });
        }
        outcome
    }

    /// Drains the deferred-retraction queue and applies it in one DRed
    /// pass over the union (see [`Slider::flush_maintenance`]).
    fn flush_maintenance(&self) -> RemovalOutcome {
        self.flush_maintenance_slice(usize::MAX).0
    }

    /// One budget slice of the coalesced flush: drains and applies **up
    /// to `limit`** pending retractions (oldest first), returning the
    /// outcome and how many retractions remain pending afterwards.
    ///
    /// With `limit == usize::MAX` this *is* the classic coalesced flush —
    /// one pass over the whole pending set. Smaller limits are sound
    /// because DRed composes over sub-batches: retracting S₁ then S₂
    /// leaves the same closure as retracting S₁ ∪ S₂ at once (each pass
    /// ends at the closure of its surviving explicit set), so a sliced
    /// flush converges to exactly the unsliced store — it just releases
    /// the store between slices, bounding how
    /// long one tenant's maintenance can hold a shared runtime tick.
    fn flush_maintenance_slice(&self, limit: usize) -> (RemovalOutcome, usize) {
        // One maintenance run at a time, so two racing flushes (threshold
        // vs deadline vs explicit) cannot split one pending generation
        // across two runs. The empty check must sit under the mutex: a
        // racing slice drains the queue before it applies it, so an
        // unlocked `pending() == 0` could return while that slice's
        // retractions are still in the store. The mutex is not the
        // store lock, so an empty flush still never takes the store
        // exclusively (pinned by the `gate_write_acquisitions` stat).
        let _serial = self.maintenance.lock();
        if self.scheduler.pending() == 0 {
            return (RemovalOutcome::default(), 0);
        }
        let state = self.rstate();
        let rules = state.rules();
        let ((outcome, pending_len, remaining), store_size) = self.with_quiescent_store(|store| {
            // Drain *under the store lock, after the quiescence
            // re-check*: this is the flush's linearisation point. Any
            // assertion either completed earlier (its re-assertion
            // already cancelled the matching pending retraction) or is
            // blocked on the lock and lands after the flush —
            // a pending retraction can never be applied over a
            // concurrent re-assertion it should have cancelled.
            let pending = self.scheduler.drain_up_to(limit);
            let remaining = self.scheduler.pending();
            #[cfg(test)]
            {
                let hook = self.slice_drained_hook.lock().take();
                if let Some(hook) = hook {
                    hook();
                }
            }
            if pending.is_empty() {
                return (RemovalOutcome::default(), 0, remaining);
            }
            let outcome = maintenance::dred(store, &rules, &state.graph, &pending);
            self.maybe_sweep_dict(store, outcome.retracted + outcome.overdeleted);
            (outcome, pending.len(), remaining)
        });
        if pending_len == 0 {
            return (outcome, remaining);
        }
        self.bump_removal_counters(&outcome);
        bump(&self.globals.coalesced_runs, 1);
        if let Some(log) = &self.log {
            log.record(EventKind::CoalescedRemoval {
                pending: pending_len,
                retracted: outcome.retracted,
                overdeleted: outcome.overdeleted,
                rederived: outcome.rederived,
                store_size,
            });
        }
        (outcome, remaining)
    }

    /// The runtime flusher's entry point for deadline-due maintenance:
    /// applies this session's pending retractions in
    /// [`crate::runtime::MAINTENANCE_SLICE`]-sized slices until done or
    /// `deadline` passes. The **first slice always runs** — even with the
    /// tick's budget already spent — so a session with pending work is
    /// never starved outright (the reserve slot); when the deadline then
    /// cuts the flush short, the remainder stays queued for later ticks
    /// and the deferral is counted
    /// ([`StatsSnapshot::budget_deferrals`](crate::StatsSnapshot::budget_deferrals))
    /// and traced ([`EventKind::BudgetSlice`]).
    ///
    /// `deadline: None` (no budget configured) is the classic unsliced
    /// flush, bit-identical to the single-tenant behaviour.
    pub(crate) fn flush_maintenance_budgeted(&self, deadline: Option<Instant>) -> RemovalOutcome {
        let Some(deadline) = deadline else {
            return self.flush_maintenance();
        };
        let mut total = RemovalOutcome::default();
        let mut applied = 0usize;
        loop {
            let (outcome, remaining) =
                self.flush_maintenance_slice(crate::runtime::MAINTENANCE_SLICE);
            applied += outcome.requested;
            total.merge(outcome);
            if remaining == 0 {
                break;
            }
            if Instant::now() >= deadline {
                bump(&self.globals.budget_deferrals, 1);
                if let Some(log) = &self.log {
                    log.record(EventKind::BudgetSlice { applied, remaining });
                }
                break;
            }
        }
        total
    }

    /// The runtime flusher's entry point for buffer-timeout service:
    /// drains every buffer stale past this session's configured timeout
    /// into rule instances. A no-op for sessions without a timeout.
    pub(crate) fn drain_stale_buffers(&self) {
        let Some(timeout) = self.timeout else {
            return;
        };
        // Guard token before resolving the state (see
        // `Engine::flush_all`): without it, a swap could linearise
        // between the resolve and the drains below, and this scan would
        // drain retired buffers into jobs whose rule indexes the new
        // state interprets differently.
        self.inflight.inc();
        let state = self.rstate();
        for (i, module) in state.modules.iter().enumerate() {
            self.inflight.inc();
            match module.buffer.drain_if_stale(timeout) {
                Some(delta) => {
                    bump(&module.counters.timeout_flushes, 1);
                    if let Some(log) = &self.log {
                        log.record(EventKind::TimeoutFlush { rule: i });
                    }
                    self.submit_with_token(i, delta);
                }
                None => self.inflight.dec(),
            }
        }
        self.inflight.dec();
    }

    /// True when the runtime's flusher currently has something to service
    /// here: a non-empty buffer (timeout drains) or a pending deferred
    /// retraction (deadline flushes). Queued pool jobs don't count — the
    /// workers consume those without flusher help, and any conclusions
    /// they buffer re-arm the flag through [`Engine::unpark`].
    fn needs_deadline_service(&self) -> bool {
        self.scheduler.pending() > 0 || !self.buffers_empty(&self.rstate())
    }

    /// Flusher-side half of the idle-lane parking handshake (Dekker
    /// style): publish the parked flag first, then re-check for work. A
    /// producer that made work visible before the re-check is observed
    /// here (the session stays in rotation); one that raced later
    /// observes the flag and nudges ([`Engine::unpark`]) — under the
    /// `SeqCst` pairing at least one side always sees the other, so
    /// parked-with-work cannot happen. Returns `true` when the session
    /// is (or stays) parked and the flusher should skip it this tick.
    pub(crate) fn try_park(&self) -> bool {
        if self.parked.load(Ordering::SeqCst) {
            return true;
        }
        self.parked.store(true, Ordering::SeqCst);
        if self.needs_deadline_service() {
            self.parked.store(false, Ordering::SeqCst);
            return false;
        }
        true
    }

    /// Producer-side half of the parking handshake: call **after** making
    /// new flusher-serviced work visible (triples buffered, a retraction
    /// enqueued). Re-enters the flusher's rotation and wakes it — a cheap
    /// no-op (one relaxed-failure swap) while the session is unparked.
    fn unpark(&self) {
        if self.parked.swap(false, Ordering::SeqCst) {
            self.flusher.nudge();
        }
    }

    /// The smallest deadline the runtime's flusher services for this
    /// session — buffer timeout or deferred-retraction max age — or
    /// `None` for a pure batch-mode session (no flusher attention needed).
    pub(crate) fn deadline_base(&self) -> Option<Duration> {
        match (self.timeout, self.scheduler.max_age()) {
            (Some(t), Some(a)) => Some(t.min(a)),
            (Some(t), None) => Some(t),
            (None, age) => age,
        }
    }

    /// Replaces the ruleset on the live engine (see
    /// [`Slider::swap_ruleset`] for the public contract).
    fn swap_ruleset(&self, ruleset: Ruleset) -> SwapOutcome {
        // A swap is a maintenance operation: serialise it against DRed
        // runs (and other swaps) on the same mutex, so the state resolved
        // below cannot be replaced under us.
        let _serial = self.maintenance.lock();
        let old_state = self.rstate();
        let old_rules = old_state.rules();
        let new_rules: Vec<Arc<dyn Rule>> = ruleset.rules().to_vec();
        // Rule identity is (name, definition): same-named rules with a
        // different definition count as drop + add.
        let key = |r: &Arc<dyn Rule>| (r.name(), r.definition());
        let dropped: Vec<Arc<dyn Rule>> = old_rules
            .iter()
            .filter(|r| !new_rules.iter().any(|s| key(s) == key(r)))
            .cloned()
            .collect();
        let added: Vec<Arc<dyn Rule>> = new_rules
            .iter()
            .filter(|r| !old_rules.iter().any(|s| key(s) == key(r)))
            .cloned()
            .collect();
        let surviving: Vec<Arc<dyn Rule>> = old_rules
            .iter()
            .filter(|r| new_rules.iter().any(|s| key(s) == key(r)))
            .cloned()
            .collect();
        let kept = surviving.len();
        // Even an identical-ruleset swap goes through the quiescent
        // section: the fresh state (rebuilt modules and graph)
        // must install at a point where no in-flight instance holds the
        // old one — only the store-delta work is skipped.
        let ((overdeleted, rederived, inferred), store_size) = self.with_quiescent_store(|store| {
            let (overdeleted, rederived) = if dropped.is_empty() {
                (0, 0)
            } else {
                maintenance::retract_rules(store, &old_rules, &dropped, &surviving)
            };
            let inferred = if added.is_empty() {
                0
            } else {
                maintenance::evaluate_added(store, &new_rules, &added)
            };
            // Linearisation point: with the store held exclusively and
            // already at the new program's closure, the new state —
            // program, dependency graph, rule modules — becomes what
            // every subsequent resolution sees. Operations blocked on the store lock resume against the new
            // program; operations that completed earlier ran entirely
            // under the old one. Nothing observes a mix.
            *self.rstate.write() = Arc::new(build_state(
                &ruleset,
                self.buffer_capacity,
                Some(&old_state),
            ));
            (overdeleted, rederived, inferred)
        });
        bump(&self.globals.ruleset_swaps, 1);
        if let Some(log) = &self.log {
            log.record(EventKind::RulesetSwap {
                dropped: dropped.len(),
                added: added.len(),
                kept,
                overdeleted,
                rederived,
                inferred,
                store_size,
            });
        }
        SwapOutcome {
            dropped: dropped.len(),
            added: added.len(),
            kept,
            overdeleted,
            rederived,
            inferred,
        }
    }
}

/// What a [`Slider::swap_ruleset`] did, phase by phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SwapOutcome {
    /// Rules removed by the swap.
    pub dropped: usize,
    /// Rules introduced by the swap.
    pub added: usize,
    /// Rules present in both programs (matched by name + definition;
    /// their counters carried over).
    pub kept: usize,
    /// Derived triples deleted while retracting dropped-rule support
    /// (including the seeds — every deletion the swap performed).
    pub overdeleted: usize,
    /// Overdeleted triples restored because they still have a derivation
    /// under the surviving rules.
    pub rederived: usize,
    /// Triples newly inferred by the added rules (fixpoint included).
    pub inferred: usize,
}

/// The Slider incremental reasoner (see the crate docs for the
/// architecture walkthrough).
///
/// All methods take `&self`: the reasoner is internally synchronised and
/// can be fed from several threads at once (the paper's multi-source input
/// manager). Typical batch use:
///
/// ```
/// use slider_core::{Slider, SliderConfig};
/// use slider_rules::{Fragment, Ruleset};
/// use slider_model::{Dictionary, Term};
/// use std::sync::Arc;
///
/// let slider = Slider::fragment(Fragment::RhoDf, SliderConfig::default());
/// let triples: Vec<_> = vec![
///     (Term::iri("http://e/Cat"),
///      Term::iri("http://www.w3.org/2000/01/rdf-schema#subClassOf"),
///      Term::iri("http://e/Animal")),
///     (Term::iri("http://e/felix"),
///      Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
///      Term::iri("http://e/Cat")),
/// ];
/// slider.add_terms(&triples);
/// slider.wait_idle();
/// assert_eq!(slider.store().len(), 3); // felix is an Animal now
/// ```
///
/// A `Slider` built with [`Slider::new`] owns a private single-session
/// [`Runtime`]; to multiplex several reasoners over one
/// worker pool, build the runtime explicitly and attach sessions with
/// [`Runtime::session`] — each gets its own
/// store, ruleset, scheduler and stats, with the execution threads shared.
pub struct Slider {
    // Field order is drop order: the engine's strong reference goes
    // before the session handle detaches from (and possibly tears down)
    // the runtime core.
    engine: Arc<Engine>,
    session: SessionHandle,
}

impl Slider {
    /// Creates a reasoner over an existing dictionary and ruleset, with a
    /// private single-session runtime sized by
    /// [`SliderConfig::workers`](crate::SliderConfig::workers).
    pub fn new(dict: Arc<Dictionary>, ruleset: Ruleset, config: SliderConfig) -> Self {
        let runtime = Runtime::new(RuntimeConfig {
            workers: config.workers.max(1),
            maintenance_budget: None,
        });
        runtime.session(dict, ruleset, config)
    }

    /// Builds a session on `core` — the engine, its registration with the
    /// runtime's flusher, and the public handle (the implementation behind
    /// [`Runtime::session`](crate::Runtime::session)).
    pub(crate) fn attach(
        core: Arc<RuntimeCore>,
        dict: Arc<Dictionary>,
        ruleset: Ruleset,
        config: SliderConfig,
    ) -> Self {
        let buffer_capacity = config.buffer_capacity.max(1);
        let state = build_state(&ruleset, buffer_capacity, None);
        let id = core.allocate_id();
        let engine = Arc::new_cyclic(|self_ref| Engine {
            dict,
            store: ShardedStore::new(),
            rstate: RwLock::new(Arc::new(state)),
            queue: Arc::clone(&core.queue),
            session: id,
            self_ref: self_ref.clone(),
            timeout: config.timeout,
            inflight: Inflight::new(),
            globals: GlobalCounters::default(),
            log: config.trace.then(EventLog::new),
            maintenance: Mutex::new(()),
            scheduler: MaintenanceScheduler::new(
                config.maintenance_batch,
                config.maintenance_max_age,
            ),
            parked: AtomicBool::new(false),
            flusher: Arc::clone(core.shared()),
            buffer_capacity,
            dict_sweep_ratio: config.dict_sweep_ratio,
            retired_since_sweep: AtomicUsize::new(0),
            #[cfg(test)]
            slice_drained_hook: Mutex::new(None),
        });
        core.register(id, &engine);
        Slider {
            engine,
            session: SessionHandle::new(core, id),
        }
    }

    /// This session's handle into its runtime (id, co-tenant count).
    pub fn session_handle(&self) -> &SessionHandle {
        &self.session
    }

    /// White-box access to the engine for sibling modules' tests.
    #[cfg(test)]
    pub(crate) fn engine_for_tests(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Creates a reasoner for a native fragment with a fresh dictionary.
    pub fn fragment(fragment: Fragment, config: SliderConfig) -> Self {
        let dict = Arc::new(Dictionary::new());
        let ruleset = Ruleset::fragment(fragment, &dict);
        Slider::new(dict, ruleset, config)
    }

    /// Feeds encoded triples to the input manager. Duplicates are dropped;
    /// the new triples enter the store immediately (marked **explicit** —
    /// asserted, as opposed to rule-derived) and are routed to the rule
    /// buffers. Returns how many were new.
    ///
    /// Asserting a triple whose **deferred retraction is still pending**
    /// ([`Slider::remove_deferred`]) cancels that retraction: the
    /// assertion is the newer fact, so the next coalesced flush leaves it
    /// (and its consequences) in place. Without the cancellation the flush
    /// would silently retract a fact the caller just asserted — the store
    /// would diverge from the closure of the surviving explicit set.
    pub fn add_triples(&self, triples: &[Triple]) -> usize {
        let engine = &self.engine;
        // Token covers the push-cancel-route window so `wait_idle` on
        // another thread cannot observe a false quiescence mid-call — and
        // so a coalesced flush (which drains the pending set only at
        // verified quiescence, with the store held exclusively) can never
        // interleave between this call's insert and its cancellation.
        engine.inflight.inc();
        let mut fresh = Vec::with_capacity(triples.len());
        engine.store.insert_batch_explicit(triples, &mut fresh);
        bump(&engine.globals.input_received, triples.len() as u64);
        bump(&engine.globals.input_fresh, fresh.len() as u64);
        // Re-assertion cancels a pending retraction (lock-free no-op when
        // nothing is pending — the hot additive path stays hot).
        let cancelled = engine.scheduler.cancel(triples);
        if cancelled > 0 {
            bump(&engine.globals.cancelled, cancelled as u64);
        }
        if let Some(log) = &engine.log {
            log.record(EventKind::Input {
                received: triples.len(),
                fresh: fresh.len(),
            });
        }
        if !fresh.is_empty() {
            // Resolved inside the token window above, so the state is
            // current: a swap cannot linearise while we hold the token.
            let state = engine.rstate();
            let all: Vec<usize> = (0..state.modules.len()).collect();
            engine.dispatch(&state, &all, &fresh);
        }
        engine.inflight.dec();
        fresh.len()
    }

    /// Feeds one encoded triple.
    pub fn add_triple(&self, triple: Triple) -> bool {
        self.add_triples(std::slice::from_ref(&triple)) == 1
    }

    /// Encodes and feeds decoded triples (the full input-manager path).
    ///
    /// The inflight token taken here covers the **intern → insert**
    /// window: a post-retraction dictionary sweep scans liveness only at
    /// verified quiescence, so a term interned by this call can never be
    /// tombstoned before its triple lands in the store.
    pub fn add_terms(&self, triples: &[TermTriple]) -> usize {
        let engine = &self.engine;
        engine.inflight.inc();
        let encoded: Vec<Triple> = triples
            .iter()
            .map(|t| engine.dict.encode_triple(t))
            .collect();
        let fresh = self.add_triples(&encoded);
        engine.inflight.dec();
        fresh
    }

    /// [`Slider::add_terms`] over owned triples: encoding moves each
    /// first-seen term into the dictionary instead of cloning it — the
    /// zero-copy loading path (see
    /// [`Dictionary::encode_triple_owned`]). Same sweep-safety token as
    /// [`Slider::add_terms`].
    pub fn add_terms_owned(&self, triples: Vec<TermTriple>) -> usize {
        let engine = &self.engine;
        engine.inflight.inc();
        let encoded: Vec<Triple> = triples
            .into_iter()
            .map(|t| engine.dict.encode_triple_owned(t))
            .collect();
        let fresh = self.add_triples(&encoded);
        engine.inflight.dec();
        fresh
    }

    /// Retracts encoded triples and runs DRed truth maintenance (see the
    /// [`maintenance`] module): the retracted facts and
    /// every conclusion that depended on them are deleted, then conclusions
    /// with an alternative derivation from surviving facts are restored.
    /// Afterwards the store equals the closure of the surviving explicit
    /// triples.
    ///
    /// Only **explicit** (asserted) triples can be retracted; offering a
    /// derived-only or absent triple is a no-op — a derived fact is not an
    /// assertion, and deleting it would be futile (it is rederivable by
    /// definition). Returns how many explicit triples were retracted;
    /// [`Slider::remove_triples_outcome`] additionally reports the
    /// derived-only and not-found no-ops separately.
    ///
    /// Removal is linearised against additions: the call waits for
    /// quiescence (in-flight work from earlier `add_*` calls completes
    /// first), and additions racing this call land either entirely before
    /// or entirely after the maintenance run.
    ///
    /// For high-churn streams (a window retracting a batch per arrival),
    /// prefer [`Slider::remove_deferred`]: it coalesces several retraction
    /// batches into one DRed run.
    pub fn remove_triples(&self, triples: &[Triple]) -> usize {
        self.remove_triples_outcome(triples).retracted
    }

    /// [`Slider::remove_triples`], returning the full per-phase counters —
    /// including how many offered triples were ignored because they were
    /// **derived-only** ([`RemovalOutcome::ignored_derived`] — present but
    /// not asserted, so there was nothing to retract) as opposed to absent
    /// from the store altogether ([`RemovalOutcome::not_found`]).
    pub fn remove_triples_outcome(&self, triples: &[Triple]) -> RemovalOutcome {
        self.engine.remove_eager(triples)
    }

    /// Defers retraction of `triples`: they are enqueued on the
    /// maintenance scheduler instead of being retracted now, and a single
    /// **coalesced** DRed run over the whole pending set fires when the
    /// distinct-pending count reaches
    /// [`SliderConfig::maintenance_batch`](crate::SliderConfig::maintenance_batch),
    /// when the oldest pending retraction outlives
    /// [`SliderConfig::maintenance_max_age`](crate::SliderConfig::maintenance_max_age)
    /// (serviced by the flusher thread), or when
    /// [`Slider::flush_maintenance`] is called. Returns how many triples
    /// were newly enqueued (already-pending duplicates are dropped).
    ///
    /// The coalescing invariant: a flush leaves the store exactly at the
    /// closure of the explicit set that survived the interleaving — as if
    /// the surviving retractions had been applied eagerly — while paying
    /// the overdelete/rederive machinery once instead of N times. A triple
    /// **re-asserted while its retraction is pending** is *not* retracted:
    /// the assertion cancels the pending retraction (see
    /// [`Slider::add_triples`]; [`StatsSnapshot::cancelled_removals`]
    /// counts these).
    ///
    /// The trade-off is staleness: until a trigger fires, queries still
    /// see the pre-retraction closure. [`Slider::pending_staleness`]
    /// bounds how stale — the age of the oldest pending retraction. Use
    /// the eager [`Slider::remove_triples`] when retractions must be
    /// visible immediately. On drop, pending retractions are flushed (one
    /// final coalesced run), mirroring how buffered triples drain.
    ///
    /// [`StatsSnapshot::cancelled_removals`]: crate::StatsSnapshot::cancelled_removals
    pub fn remove_deferred(&self, triples: &[Triple]) -> usize {
        let engine = &self.engine;
        let (fresh, threshold_hit) = engine.scheduler.enqueue(triples);
        bump(&engine.globals.deferred, fresh as u64);
        if fresh > 0 {
            // A pending retraction needs the flusher's deadline service:
            // leave the parked lane (no-op while unparked).
            engine.unpark();
        }
        if threshold_hit {
            engine.flush_maintenance();
        }
        fresh
    }

    /// [`Slider::remove_deferred`] over decoded triples; terms are looked
    /// up (never interned), and triples over unknown terms are skipped, as
    /// in [`Slider::remove_terms`].
    pub fn remove_terms_deferred(&self, triples: &[TermTriple]) -> usize {
        self.remove_deferred(&self.encode_known(triples))
    }

    /// Flushes the deferred-retraction queue now: drains every pending
    /// retraction and runs one coalesced DRed pass over the union (see
    /// [`Slider::remove_deferred`]). A no-op returning an empty
    /// outcome when nothing is pending. The outcome's
    /// [`requested`](RemovalOutcome::requested) equals the number of
    /// distinct pending retractions drained.
    pub fn flush_maintenance(&self) -> RemovalOutcome {
        self.engine.flush_maintenance()
    }

    /// The staleness bound of deferred maintenance: the age of the oldest
    /// pending retraction ([`Slider::remove_deferred`]), or `None` when
    /// nothing is pending. Every query answered now reflects a closure at
    /// most this much behind the retraction stream; with
    /// [`SliderConfig::maintenance_max_age`](crate::SliderConfig::maintenance_max_age)
    /// configured, the bound itself is bounded by roughly 1.5 × that
    /// deadline (the flusher's scan granularity).
    pub fn pending_staleness(&self) -> Option<Duration> {
        self.engine.scheduler.oldest_age()
    }

    /// Retracts one encoded triple; returns `true` if it was an explicit
    /// assertion (and was retracted).
    pub fn remove_triple(&self, triple: Triple) -> bool {
        self.remove_triples(std::slice::from_ref(&triple)) == 1
    }

    /// Retracts decoded triples. Terms are looked up (never interned): a
    /// triple mentioning a term the dictionary has never seen cannot be in
    /// the store and is skipped. Returns how many explicit triples were
    /// retracted.
    pub fn remove_terms(&self, triples: &[TermTriple]) -> usize {
        self.remove_triples(&self.encode_known(triples))
    }

    /// Encodes decoded triples by dictionary lookup only, skipping triples
    /// over unknown terms (the `remove_*` path: never interns).
    fn encode_known(&self, triples: &[TermTriple]) -> Vec<Triple> {
        let dict = &self.engine.dict;
        triples
            .iter()
            .filter_map(|(s, p, o)| {
                Some(Triple::new(dict.id_of(s)?, dict.id_of(p)?, dict.id_of(o)?))
            })
            .collect()
    }

    /// Force-flushes all buffers without waiting.
    pub fn flush(&self) {
        self.engine.flush_all();
    }

    /// Blocks until the reasoner is quiescent: every buffer empty and no
    /// rule instance queued or running. Buffers are force-flushed as needed
    /// (so this works with `timeout: None` too).
    ///
    /// Quiescence is relative to inputs already fed; a concurrent
    /// `add_triples` extends the work and the method keeps waiting for it.
    /// Deferred retractions ([`Slider::remove_deferred`]) are *not* work in
    /// this sense — they stay pending until their own trigger fires.
    pub fn wait_idle(&self) {
        self.engine.wait_idle();
    }

    /// Convenience: feed a batch and wait for its closure. Returns the
    /// store growth (input + inferred).
    pub fn materialize(&self, triples: &[Triple]) -> usize {
        let before = self.engine.store.len();
        self.add_triples(triples);
        self.wait_idle();
        self.engine.store.len() - before
    }

    /// The shared term dictionary.
    pub fn dict(&self) -> &Arc<Dictionary> {
        &self.engine.dict
    }

    /// The triple store (explicit + inferred triples).
    pub fn store(&self) -> &ShardedStore {
        &self.engine.store
    }

    /// The rules dependency graph the distributors route with. Returned
    /// by shared handle because the graph is swappable state: after a
    /// [`Slider::swap_ruleset`] the engine routes with a rebuilt graph,
    /// while handles returned earlier stay valid (describing the program
    /// they were taken under).
    pub fn dependency_graph(&self) -> Arc<DependencyGraph> {
        Arc::clone(&self.engine.rstate().graph)
    }

    /// Name of the loaded ruleset ("rho-df", "RDFS", custom). Owned
    /// because the ruleset is swappable ([`Slider::swap_ruleset`]) — a
    /// borrow could outlive the program it names.
    pub fn ruleset_name(&self) -> String {
        self.engine.rstate().name.clone()
    }

    /// Replaces the loaded ruleset on the live reasoner — **zero
    /// downtime**, no rebuild: the store's materialisation is repaired
    /// incrementally instead of recomputed.
    ///
    /// The swap diffs the programs by rule identity (name + definition):
    ///
    /// * **Dropped** rules: derivations supported only by them are
    ///   retracted with the DRed machinery (overdelete the one-step
    ///   support seeds through the old program, rederive with the
    ///   survivors).
    /// * **Added** rules: evaluated semi-naively with the whole store as
    ///   their first delta, then the usual fixpoint.
    /// * **Kept** rules: untouched — their counters carry over.
    ///
    /// Afterwards the store equals the closure of its explicit triples
    /// under the new program, exactly as if the reasoner had been built
    /// with it from the start. The dependency graph and rule modules are
    /// rebuilt and installed
    /// **atomically at the swap's linearisation point**: a quiescent
    /// instant (no rule instance in flight, all buffers empty) with the
    /// store held exclusively. Concurrent `add_triples`/queries are safe
    /// throughout — they either complete entirely under the old program
    /// or run entirely under the new one; epoch readers keep
    /// answering from the pre-swap epoch during the swap and observe
    /// the new closure as one atomic generation bump. Pending
    /// deferred retractions survive the swap and apply under the new
    /// program at their next flush.
    ///
    /// Swapping to an identical ruleset is a store-level no-op (nothing
    /// retracted, nothing inferred) but still reinstalls fresh state.
    ///
    /// ```
    /// use slider_core::{Slider, SliderConfig};
    /// use slider_model::{Dictionary, NodeId, Triple};
    /// use slider_rules::{Ruleset, Transitive};
    /// use std::sync::Arc;
    ///
    /// let dict = Arc::new(Dictionary::new());
    /// let p = NodeId(7);
    /// let slider = Slider::new(
    ///     Arc::clone(&dict),
    ///     Ruleset::custom("trans").with(Transitive::new("T", p)),
    ///     SliderConfig::default(),
    /// );
    /// slider.materialize(&[
    ///     Triple::new(NodeId(1), p, NodeId(2)),
    ///     Triple::new(NodeId(2), p, NodeId(3)),
    /// ]);
    /// assert!(slider.store().contains(Triple::new(NodeId(1), p, NodeId(3))));
    ///
    /// // Drop the transitivity rule: its derivations retract incrementally.
    /// let outcome = slider.swap_ruleset(Ruleset::custom("empty"));
    /// assert_eq!((outcome.dropped, outcome.added), (1, 0));
    /// assert!(!slider.store().contains(Triple::new(NodeId(1), p, NodeId(3))));
    ///
    /// // Add it back: the closure reappears without re-feeding the input.
    /// slider.swap_ruleset(Ruleset::custom("trans").with(Transitive::new("T", p)));
    /// assert!(slider.store().contains(Triple::new(NodeId(1), p, NodeId(3))));
    /// ```
    pub fn swap_ruleset(&self, ruleset: Ruleset) -> SwapOutcome {
        self.engine.swap_ruleset(ruleset)
    }

    /// Compacts the term dictionary now: tombstones every non-vocabulary
    /// term **this session's store** no longer references and recycles
    /// the freed ids through the interner's free-list. Ids of live terms
    /// never move — an id held by a caller stays valid as long as its
    /// triple is in the store. Runs under the maintenance mutex with the
    /// store held exclusively, like a DRed pass; the automatic equivalent
    /// fires after large retraction flushes (see
    /// [`SliderConfig::dict_sweep_ratio`](crate::SliderConfig::dict_sweep_ratio)).
    ///
    /// **Shared-dictionary caveat**: the live root set is this session's
    /// store (plus the built-in vocabulary, which is never swept). A
    /// dictionary shared with other sessions, or holding ids referenced
    /// only outside the store (custom rules with non-vocabulary constant
    /// ids, ids cached by the application), must disable automatic
    /// sweeping (`with_dict_sweep_ratio(f64::INFINITY)`) and only call
    /// this when every such external id is also present in the store.
    pub fn sweep_dictionary(&self) -> SweepOutcome {
        let engine = &self.engine;
        let _serial = engine.maintenance.lock();
        engine.retired_since_sweep.store(0, Ordering::Relaxed);
        let (outcome, _) = engine.with_quiescent_store(|store| engine.sweep_dict_now(store));
        outcome
    }

    /// Total triples inferred so far (fresh rule conclusions).
    pub fn inferred_count(&self) -> u64 {
        self.stats().total_inferred()
    }

    /// Snapshot of all module counters.
    pub fn stats(&self) -> StatsSnapshot {
        let engine = &self.engine;
        let state = engine.rstate();
        let rules = state
            .modules
            .iter()
            .map(|m| RuleStats {
                name: m.rule.name(),
                fired: m.counters.fired.load(Ordering::Relaxed),
                full_flushes: m.counters.full_flushes.load(Ordering::Relaxed),
                timeout_flushes: m.counters.timeout_flushes.load(Ordering::Relaxed),
                buffered: m.counters.buffered.load(Ordering::Relaxed),
                derived: m.counters.derived.load(Ordering::Relaxed),
                fresh: m.counters.fresh.load(Ordering::Relaxed),
                buffer_capacity: m.buffer.capacity(),
            })
            .collect();
        let store = engine.store.stats();
        let dict_stats = engine.dict.stats();
        StatsSnapshot {
            rules,
            input_received: engine.globals.input_received.load(Ordering::Relaxed),
            input_fresh: engine.globals.input_fresh.load(Ordering::Relaxed),
            store_size: store.triples,
            store,
            removal_runs: engine.globals.removal_runs.load(Ordering::Relaxed),
            retracted: engine.globals.retracted.load(Ordering::Relaxed),
            overdeleted: engine.globals.overdeleted.load(Ordering::Relaxed),
            rederived: engine.globals.rederived.load(Ordering::Relaxed),
            deferred: engine.globals.deferred.load(Ordering::Relaxed),
            cancelled_removals: engine.globals.cancelled.load(Ordering::Relaxed),
            pending_removals: engine.scheduler.pending(),
            coalesced_runs: engine.globals.coalesced_runs.load(Ordering::Relaxed),
            oldest_pending_age: engine.scheduler.oldest_age(),
            gate_write_acquisitions: engine.store.gate_write_acquisitions(),
            shard_write_conflicts: engine.store.shard_write_conflicts(),
            snapshot_generation: engine.store.snapshot_generation(),
            ruleset_swaps: engine.globals.ruleset_swaps.load(Ordering::Relaxed),
            budget_deferrals: engine.globals.budget_deferrals.load(Ordering::Relaxed),
            runtime_sessions: self.session.session_count(),
            dict_terms: dict_stats.terms,
            dict_tombstones: dict_stats.tombstones,
            dict_bytes_estimate: dict_stats.bytes_estimate,
            dict_shard_conflicts: dict_stats.shard_conflicts,
            dict_sweeps: dict_stats.sweeps,
        }
    }

    /// The recorded event log, if tracing was enabled.
    pub fn events(&self) -> Option<Vec<Event>> {
        self.engine.log.as_ref().map(EventLog::events)
    }
}

impl Drop for Slider {
    fn drop(&mut self) {
        // Pending deferred retractions must not be silently discarded:
        // apply them in one final coalesced flush, mirroring how buffered
        // triples drain at quiescence. This must happen while the shared
        // pool is still running — the flush waits for quiescence, and
        // queued rule instances drain through the pool — which is
        // guaranteed: this session's handle still holds the runtime core
        // alive.
        if self.engine.scheduler.pending() > 0 {
            self.engine.flush_maintenance();
        }
        // The fields then drop in order: the engine's strong reference
        // first (queued jobs may briefly keep it alive), the session
        // handle last — detaching from the runtime's flusher service.
        // Co-tenants are untouched; only when this was the runtime's last
        // reference does the core's own Drop join the pool and flusher.
    }
}

impl std::fmt::Debug for Slider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.engine.rstate();
        f.debug_struct("Slider")
            .field("ruleset", &state.name)
            .field("rules", &state.modules.len())
            .field("store_size", &self.engine.store.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slider_baseline::closure;
    use slider_model::vocab::{RDFS_DOMAIN, RDFS_SUB_CLASS_OF, RDFS_SUB_PROPERTY_OF, RDF_TYPE};
    use slider_model::NodeId;

    fn n(v: u64) -> NodeId {
        NodeId(1000 + v)
    }
    fn sco(a: u64, b: u64) -> Triple {
        Triple::new(n(a), RDFS_SUB_CLASS_OF, n(b))
    }
    fn ty(a: u64, b: u64) -> Triple {
        Triple::new(n(a), RDF_TYPE, n(b))
    }

    fn chain(k: u64) -> Vec<Triple> {
        (1..k).map(|i| sco(i, i + 1)).collect()
    }

    fn rho_slider(config: SliderConfig) -> Slider {
        let dict = Arc::new(Dictionary::new());
        Slider::new(dict, Ruleset::rho_df(), config)
    }

    #[test]
    fn closure_matches_oracle_on_chain() {
        let input = chain(30);
        let slider = rho_slider(SliderConfig::default());
        slider.materialize(&input);
        let oracle = closure(Ruleset::rho_df(), &input);
        assert_eq!(slider.store().to_sorted_vec(), oracle.to_sorted_vec());
    }

    #[test]
    fn closure_matches_oracle_mixed_schema() {
        let input = vec![
            sco(1, 2),
            sco(2, 3),
            ty(9, 1),
            Triple::new(n(5), RDFS_SUB_PROPERTY_OF, n(6)),
            Triple::new(n(6), RDFS_DOMAIN, n(2)),
            Triple::new(n(7), n(5), n(8)),
        ];
        let slider = rho_slider(SliderConfig::default());
        slider.materialize(&input);
        let oracle = closure(Ruleset::rho_df(), &input);
        assert_eq!(slider.store().to_sorted_vec(), oracle.to_sorted_vec());
        assert!(slider.store().contains(ty(7, 3)));
    }

    #[test]
    fn rdfs_fragment_closure_matches_oracle() {
        let dict = Arc::new(Dictionary::new());
        let input = vec![sco(1, 2), ty(9, 1), Triple::new(n(1), RDF_TYPE, NodeId(7))];
        let slider = Slider::new(
            Arc::clone(&dict),
            Ruleset::rdfs(&dict),
            SliderConfig::default(),
        );
        slider.materialize(&input);
        let oracle = closure(Ruleset::rdfs(&dict), &input);
        assert_eq!(slider.store().to_sorted_vec(), oracle.to_sorted_vec());
    }

    #[test]
    fn incremental_equals_batch() {
        let input = chain(40);
        let batch = rho_slider(SliderConfig::default());
        batch.materialize(&input);

        let inc = rho_slider(SliderConfig::default());
        for chunk in input.chunks(3) {
            inc.add_triples(chunk);
        }
        inc.wait_idle();
        assert_eq!(batch.store().to_sorted_vec(), inc.store().to_sorted_vec());
    }

    #[test]
    fn tiny_buffers_and_single_worker() {
        let input = chain(25);
        let config = SliderConfig::default()
            .with_buffer_capacity(1)
            .with_workers(1);
        let slider = rho_slider(config);
        slider.materialize(&input);
        let oracle = closure(Ruleset::rho_df(), &input);
        assert_eq!(slider.store().to_sorted_vec(), oracle.to_sorted_vec());
    }

    #[test]
    fn huge_buffers_rely_on_wait_idle_flush() {
        let input = chain(25);
        let config = SliderConfig::batch().with_buffer_capacity(1_000_000); // never fills
        let slider = rho_slider(config);
        slider.materialize(&input);
        let oracle = closure(Ruleset::rho_df(), &input);
        assert_eq!(slider.store().to_sorted_vec(), oracle.to_sorted_vec());
    }

    #[test]
    fn timeout_drives_progress_without_explicit_flush() {
        let config = SliderConfig::default()
            .with_buffer_capacity(1_000_000) // full-flush can never trigger
            .with_timeout(Some(Duration::from_millis(2)));
        let slider = rho_slider(config);
        slider.add_triples(&[sco(1, 2), sco(2, 3)]);
        // Poll: the timeout flusher must eventually produce (1 sco 3).
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !slider.store().contains(sco(1, 3)) {
            assert!(
                std::time::Instant::now() < deadline,
                "timeout flush never fired"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = slider.stats();
        assert!(stats.rules.iter().any(|r| r.timeout_flushes > 0));
    }

    #[test]
    fn duplicate_input_is_dropped() {
        let slider = rho_slider(SliderConfig::default());
        assert_eq!(slider.add_triples(&[sco(1, 2), sco(1, 2)]), 1);
        assert_eq!(slider.add_triples(&[sco(1, 2)]), 0);
        slider.wait_idle();
        let stats = slider.stats();
        assert_eq!(stats.input_received, 3);
        assert_eq!(stats.input_fresh, 1);
    }

    #[test]
    fn stats_are_consistent_with_store() {
        let input = chain(20);
        let slider = rho_slider(SliderConfig::default());
        slider.materialize(&input);
        let stats = slider.stats();
        assert_eq!(
            stats.store_size as u64,
            stats.input_fresh + stats.total_inferred(),
            "store = input + inferred\n{stats}"
        );
        // Chain closure: 19 explicit + 171 inferred = C(20,2).
        assert_eq!(stats.total_inferred(), 171);
        assert!(stats.total_fired() > 0);
    }

    #[test]
    fn trace_records_lifecycle() {
        let input = chain(10);
        let slider = rho_slider(SliderConfig::default().with_trace(true));
        slider.materialize(&input);
        let events = slider.events().expect("tracing enabled");
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Input { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::RuleFired { .. })));
        assert!(matches!(
            events.last().unwrap().kind,
            EventKind::Idle { .. }
        ));
        // Times are monotone.
        for pair in events.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
    }

    #[test]
    fn no_trace_by_default() {
        let slider = rho_slider(SliderConfig::default());
        assert!(slider.events().is_none());
    }

    #[test]
    fn concurrent_ingestion() {
        let input = chain(60);
        let slider = Arc::new(rho_slider(SliderConfig::default()));
        let mut handles = Vec::new();
        for chunk in input.chunks(10) {
            let slider = Arc::clone(&slider);
            let chunk = chunk.to_vec();
            handles.push(std::thread::spawn(move || {
                slider.add_triples(&chunk);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        slider.wait_idle();
        let oracle = closure(Ruleset::rho_df(), &input);
        assert_eq!(slider.store().to_sorted_vec(), oracle.to_sorted_vec());
    }

    #[test]
    fn add_terms_encodes_through_dictionary() {
        use slider_model::Term;
        let slider = Slider::fragment(Fragment::RhoDf, SliderConfig::default());
        let sub = Term::iri("http://e/Cat");
        let sup = Term::iri("http://e/Animal");
        let sco_term = Term::iri("http://www.w3.org/2000/01/rdf-schema#subClassOf");
        let type_term = Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
        let inst = Term::iri("http://e/felix");
        slider.add_terms(&[
            (sub.clone(), sco_term, sup.clone()),
            (inst.clone(), type_term.clone(), sub),
        ]);
        slider.wait_idle();
        let felix = slider.dict().id_of(&inst).unwrap();
        let animal = slider.dict().id_of(&sup).unwrap();
        assert!(slider
            .store()
            .contains(Triple::new(felix, RDF_TYPE, animal)));
    }

    #[test]
    fn repeated_wait_idle_is_stable() {
        let slider = rho_slider(SliderConfig::default());
        slider.materialize(&chain(10));
        let len = slider.store().len();
        slider.wait_idle();
        slider.wait_idle();
        assert_eq!(slider.store().len(), len);
    }

    #[test]
    fn drop_mid_work_does_not_hang() {
        let slider = rho_slider(SliderConfig::default().with_buffer_capacity(2));
        slider.add_triples(&chain(200));
        drop(slider); // must join cleanly with jobs still queued
    }

    #[test]
    fn empty_ruleset_is_a_plain_store() {
        let dict = Arc::new(Dictionary::new());
        let slider = Slider::new(dict, Ruleset::custom("none"), SliderConfig::default());
        slider.materialize(&chain(5));
        assert_eq!(slider.store().len(), 4);
        assert_eq!(slider.inferred_count(), 0);
    }

    #[test]
    fn dependency_graph_accessible() {
        let slider = rho_slider(SliderConfig::default());
        assert_eq!(slider.dependency_graph().len(), 8);
        assert_eq!(slider.ruleset_name(), "rho-df");
    }

    #[test]
    fn remove_triples_runs_dred_end_to_end() {
        let slider = rho_slider(SliderConfig::default());
        slider.materialize(&chain(10));
        assert_eq!(slider.remove_triples(&[sco(5, 6)]), 1);
        let survivors: Vec<Triple> = chain(10).into_iter().filter(|&t| t != sco(5, 6)).collect();
        let oracle = closure(Ruleset::rho_df(), &survivors);
        assert_eq!(slider.store().to_sorted_vec(), oracle.to_sorted_vec());
        let stats = slider.stats();
        assert_eq!(stats.store.explicit, survivors.len());
        assert_eq!(stats.removal_runs, 1);
        assert_eq!(stats.retracted, 1);
        assert!(stats.overdeleted > 0);
        // Removing it again (or a derived fact) is a no-op.
        assert_eq!(slider.remove_triples(&[sco(5, 6), sco(1, 3)]), 0);
        assert_eq!(slider.stats().removal_runs, 1);
    }

    #[test]
    fn removal_then_re_add_round_trips() {
        let input = chain(12);
        let slider = rho_slider(SliderConfig::default());
        slider.materialize(&input);
        let full = slider.store().to_sorted_vec();
        assert!(slider.remove_triple(sco(4, 5)));
        assert_ne!(slider.store().to_sorted_vec(), full);
        slider.materialize(&[sco(4, 5)]);
        assert_eq!(slider.store().to_sorted_vec(), full);
    }

    #[test]
    fn remove_terms_skips_unknown_terms() {
        use slider_model::Term;
        let slider = Slider::fragment(Fragment::RhoDf, SliderConfig::default());
        let sco_term = Term::iri("http://www.w3.org/2000/01/rdf-schema#subClassOf");
        let cat = Term::iri("http://e/Cat");
        let animal = Term::iri("http://e/Animal");
        slider.add_terms(&[(cat.clone(), sco_term.clone(), animal.clone())]);
        slider.wait_idle();
        let interned = slider.dict().len();
        // Unknown term: skipped without interning anything.
        assert_eq!(
            slider.remove_terms(&[(Term::iri("http://e/Nope"), sco_term.clone(), animal.clone())]),
            0
        );
        assert_eq!(slider.dict().len(), interned);
        assert_eq!(slider.remove_terms(&[(cat, sco_term, animal)]), 1);
        assert!(slider.store().is_empty());
    }

    #[test]
    fn static_plans_keep_configured_capacity() {
        let slider = rho_slider(SliderConfig::default().with_buffer_capacity(77));
        slider.materialize(&chain(40));
        for r in &slider.stats().rules {
            assert_eq!(r.buffer_capacity, 77, "{}", r.name);
        }
    }

    /// Regression (silently discarded retractions): dropping a `Slider`
    /// with a non-empty pending set must flush it — pending retractions
    /// apply on teardown, mirroring the buffer drain — not discard it.
    #[test]
    fn drop_flushes_pending_retractions() {
        // Batch mode: no flusher thread, threshold unreachable — nothing
        // but the drop path can apply the deferral.
        let slider = rho_slider(SliderConfig::batch().with_maintenance_batch(usize::MAX));
        slider.materialize(&chain(10));
        slider.remove_deferred(&[sco(5, 6)]);
        assert_eq!(slider.stats().pending_removals, 1);
        let engine = Arc::clone(&slider.engine);
        drop(slider);
        let survivors: Vec<Triple> = chain(10).into_iter().filter(|&t| t != sco(5, 6)).collect();
        assert_eq!(
            engine.store.to_sorted_vec(),
            closure(Ruleset::rho_df(), &survivors).to_sorted_vec(),
            "pending retraction was discarded on drop"
        );
        assert_eq!(engine.globals.coalesced_runs.load(Ordering::Relaxed), 1);
    }

    /// Regression (lost re-assertion): a triple re-asserted while its
    /// deferred retraction is pending must survive the next flush — the
    /// assertion cancels the retraction.
    #[test]
    fn re_assertion_cancels_pending_retraction() {
        let slider = rho_slider(
            SliderConfig::batch()
                .with_maintenance_batch(usize::MAX)
                .with_trace(true),
        );
        let input = chain(10);
        slider.materialize(&input);
        let full = slider.store().to_sorted_vec();
        slider.remove_deferred(&[sco(4, 5), sco(7, 8)]);
        // Re-assert one of the two while both are pending.
        slider.add_triples(&[sco(4, 5)]);
        assert_eq!(slider.stats().pending_removals, 1, "one cancelled");
        assert_eq!(slider.stats().cancelled_removals, 1);
        let outcome = slider.flush_maintenance();
        slider.wait_idle();
        // Only the surviving retraction applied.
        assert_eq!(outcome.requested, 1);
        assert!(slider.store().contains(sco(4, 5)), "re-assertion lost");
        assert!(!slider.store().contains(sco(7, 8)));
        let survivors: Vec<Triple> = input.into_iter().filter(|&t| t != sco(7, 8)).collect();
        assert_eq!(
            slider.store().to_sorted_vec(),
            closure(Ruleset::rho_df(), &survivors).to_sorted_vec()
        );
        assert_ne!(slider.store().to_sorted_vec(), full);
    }

    /// DRed composes over sub-batches: one flush over two retractions
    /// lands on the store that one flush per retraction gives.
    #[test]
    fn one_flush_lands_where_per_retraction_flushes_do() {
        use slider_rules::Transitive;
        let p = |v: u64| NodeId(5_000 + v);
        let retractions = [
            Triple::new(n(3), p(0), n(4)),
            Triple::new(n(5), p(10), n(6)),
        ];
        let build = |together: bool| {
            let ruleset = Ruleset::custom("two-chains")
                .with(Transitive::new("T-A", p(0)))
                .with(Transitive::new("T-B", p(10)));
            let config = SliderConfig::batch().with_maintenance_batch(usize::MAX);
            let slider = Slider::new(Arc::new(Dictionary::new()), ruleset, config);
            for base in [0, 10] {
                let links: Vec<Triple> = (1..8)
                    .map(|i| Triple::new(n(i), p(base), n(i + 1)))
                    .collect();
                slider.materialize(&links);
            }
            if together {
                slider.remove_deferred(&retractions);
                slider.flush_maintenance();
            } else {
                for t in retractions {
                    slider.remove_deferred(&[t]);
                    slider.flush_maintenance();
                }
            }
            slider
        };
        let together = build(true);
        let apart = build(false);
        assert_eq!(
            together.store().to_sorted_vec(),
            apart.store().to_sorted_vec()
        );
        assert_eq!(together.stats().coalesced_runs, 1);
        assert_eq!(apart.stats().coalesced_runs, 2);
    }

    /// A flush reports the [`RemovalOutcome`] a direct DRed pass over the
    /// same pending set gives, counter for counter — the no-op
    /// classifications included — and lands on the same store.
    #[test]
    fn flush_outcome_counters_match_a_direct_dred_pass() {
        use slider_rules::Transitive;
        let p = |v: u64| NodeId(5_000 + v);
        let ruleset = Ruleset::custom("two-chains")
            .with(Transitive::new("T-A", p(0)))
            .with(Transitive::new("T-B", p(10)));
        let config = SliderConfig::batch().with_maintenance_batch(usize::MAX);
        let slider = Slider::new(Arc::new(Dictionary::new()), ruleset.clone(), config);
        for base in [0, 10] {
            let links: Vec<Triple> = (1..8)
                .map(|i| Triple::new(n(i), p(base), n(i + 1)))
                .collect();
            slider.materialize(&links);
        }
        // Genuine retractions in both chains plus the two no-op flavours
        // (a derived-only triple and an absent one), so every counter is
        // exercised.
        let pending = [
            Triple::new(n(3), p(0), n(4)),
            Triple::new(n(5), p(10), n(6)),
            Triple::new(n(1), p(0), n(3)), // derived-only (chain hop)
            Triple::new(n(90), p(10), n(91)), // absent
        ];
        // The reference: one DRed run on a copy of the pre-flush store.
        let mut direct = VerticalStore::clone(&slider.store().snapshot());
        let graph = DependencyGraph::build(&ruleset);
        let direct_pass = maintenance::dred(&mut direct, ruleset.rules(), &graph, &pending);

        slider.remove_deferred(&pending);
        let flushed = slider.flush_maintenance();
        assert_eq!(slider.store().to_sorted_vec(), direct.to_sorted_vec());
        assert_eq!(flushed, direct_pass, "flush outcome drifted");
        assert_eq!(flushed.retracted, 2);
        assert_eq!(flushed.ignored_derived, 1);
        assert_eq!(flushed.not_found, 1);
    }

    /// `flush_maintenance` is a barrier: while another thread's slice is
    /// drained from the pending queue but not yet applied, a second
    /// explicit flush must not return until the store reflects that slice.
    #[test]
    fn explicit_flush_waits_for_a_drained_but_unapplied_slice() {
        let slider = Arc::new(rho_slider(
            SliderConfig::batch().with_maintenance_batch(usize::MAX),
        ));
        slider.materialize(&chain(5));
        slider.remove_deferred(&[sco(2, 3)]);

        let (drained_tx, drained_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        *slider.engine.slice_drained_hook.lock() = Some(Box::new(move || {
            let _ = drained_tx.send(());
            // A dropped sender (the test failed) releases the slice too.
            let _ = release_rx.recv();
        }));
        let first = {
            let slider = Arc::clone(&slider);
            std::thread::spawn(move || slider.flush_maintenance())
        };
        drained_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the first flush drained its slice");

        let (seen_tx, seen_rx) = std::sync::mpsc::channel();
        let second = {
            let slider = Arc::clone(&slider);
            std::thread::spawn(move || {
                slider.flush_maintenance();
                let _ = seen_tx.send(slider.store().contains(sco(2, 3)));
            })
        };
        if let Ok(still_present) = seen_rx.recv_timeout(Duration::from_millis(200)) {
            panic!(
                "second flush returned mid-slice (retraction applied: {})",
                !still_present
            );
        }
        release_tx
            .send(())
            .expect("the first flush is parked in the hook");
        let still_present = seen_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the second flush returns once the slice is applied");
        assert!(
            !still_present,
            "flush returned before the store reflected the slice"
        );
        assert_eq!(first.join().unwrap().retracted, 1);
        second.join().unwrap();
    }

    #[test]
    fn pending_staleness_reports_oldest_age() {
        let slider = rho_slider(SliderConfig::batch().with_maintenance_batch(usize::MAX));
        slider.materialize(&chain(5));
        assert_eq!(slider.pending_staleness(), None);
        slider.remove_deferred(&[sco(2, 3)]);
        std::thread::sleep(Duration::from_millis(2));
        let age = slider.pending_staleness().expect("one pending");
        assert!(age >= Duration::from_millis(2));
        assert!(slider.stats().oldest_pending_age.is_some());
        slider.flush_maintenance();
        assert_eq!(slider.pending_staleness(), None);
    }

    #[test]
    fn large_retraction_burst_triggers_an_automatic_dict_sweep() {
        use slider_model::Term;
        let dict = Arc::new(Dictionary::new());
        let slider = Slider::new(
            Arc::clone(&dict),
            Ruleset::custom("empty"),
            SliderConfig::batch().with_trace(true),
        );
        let keep = (
            Term::iri("http://e/keep"),
            Term::iri("http://e/p"),
            Term::iri("http://e/kept-object"),
        );
        slider.add_terms(std::slice::from_ref(&keep));
        // One shared object keeps the term count close to the burst size,
        // so the default ratio (retired ≥ 0.5 × live terms) is what this
        // test actually exercises — not a rigged knob.
        let burst: Vec<TermTriple> = (0..1500)
            .map(|i| {
                (
                    Term::iri(format!("http://e/s{i}")),
                    Term::iri("http://e/p"),
                    Term::iri("http://e/shared-object"),
                )
            })
            .collect();
        slider.add_terms_owned(burst.clone());
        slider.wait_idle();
        let keep_id = dict.id_of(&keep.0).expect("kept term interned");
        let bytes_before = dict.stats().bytes_estimate;
        assert_eq!(slider.remove_terms(&burst), 1500);
        let stats = slider.stats();
        assert!(stats.dict_sweeps >= 1, "burst should have auto-swept");
        assert!(stats.dict_tombstones > 0);
        assert!(stats.dict_bytes_estimate < bytes_before);
        // Ids of live terms never move across a sweep.
        assert_eq!(dict.id_of(&keep.0), Some(keep_id));
        assert_eq!(dict.lookup(keep_id).as_ref(), Some(&keep.0));
        assert!(
            slider
                .events()
                .expect("tracing enabled")
                .iter()
                .any(|e| matches!(e.kind, EventKind::DictSweep { .. })),
            "the sweep must leave a trace event"
        );
    }

    #[test]
    fn explicit_dictionary_sweep_reclaims_and_reports() {
        use slider_model::Term;
        let dict = Arc::new(Dictionary::new());
        let slider = Slider::new(
            Arc::clone(&dict),
            Ruleset::custom("empty"),
            // Auto-sweep disabled: only the explicit call below may sweep.
            SliderConfig::batch().with_dict_sweep_ratio(f64::INFINITY),
        );
        let triples: Vec<TermTriple> = (0..2000)
            .map(|i| {
                (
                    Term::iri(format!("http://e/s{i}")),
                    Term::iri("http://e/p"),
                    Term::iri("http://e/o"),
                )
            })
            .collect();
        slider.add_terms(&triples);
        slider.wait_idle();
        assert_eq!(slider.remove_terms(&triples), 2000);
        assert_eq!(slider.stats().dict_sweeps, 0, "auto-sweep was disabled");
        let outcome = slider.sweep_dictionary();
        assert_eq!(outcome.swept, 2002); // 2000 subjects + p + o
        assert!(outcome.bytes_after < outcome.bytes_before);
        assert_eq!(slider.stats().dict_sweeps, 1);
    }
}
