//! The reasoner: input manager, rule modules and distributors over one
//! store, plus the threads that run them — `workers` pool threads fed by
//! one job channel, and a flusher thread when a buffer timeout or a
//! maintenance deadline is configured. Several streams are several
//! [`Slider`]s, optionally on one shared [`Dictionary`].

use crate::buffer::Buffer;
use crate::config::SliderConfig;
use crate::inflight::Inflight;
use crate::maintenance::{self, RemovalOutcome};
use crate::op::{Op, Outcome};
use crate::scheduler::MaintenanceScheduler;
use crate::stats::{bump, GlobalCounters, RuleCounters, RuleStats, StatsSnapshot};
use crate::trace::{Event, EventKind, EventLog};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex, RwLock};
use slider_model::{Dictionary, FxHashSet, NodeId, SweepOutcome, TermTriple, Triple};
use slider_rules::{DependencyGraph, Fragment, InputFilter, Rule, Ruleset};
use slider_store::{ShardedStore, VerticalStore};
use std::cell::OnceCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One rule module: the rule, its buffer, its distributor's routing table
/// and its counters (paper Figure 1, one column).
pub(crate) struct Module {
    pub(crate) rule: Arc<dyn Rule>,
    filter: InputFilter,
    buffer: Buffer,
    /// Rules whose buffers receive this module's fresh conclusions —
    /// `successors` in the dependency graph, minus the module itself when
    /// it runs as a closure.
    successors: Vec<usize>,
    /// `Some((p, serial))` for a rule transitive over `p`
    /// ([`Rule::transitive_predicate`]): its instances run
    /// [`Engine::close_edges`] one at a time under `serial`.
    closure: Option<(NodeId, Mutex<()>)>,
    counters: RuleCounters,
}

/// Everything derived from the loaded ruleset — the **swappable half** of
/// the engine. [`Op::Swap`] builds a fresh `RulesetState` and installs
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
    /// The dictionary's high-water mark when this state was installed:
    /// every id below it is a dictionary-sweep root. That covers the
    /// rules' constants and the vocabulary without enumerating either.
    roots_below: usize,
}

impl RulesetState {
    /// The loaded rules, in module order — the rule list DRed runs over.
    fn rules(&self) -> Vec<Arc<dyn Rule>> {
        self.modules.iter().map(|m| Arc::clone(&m.rule)).collect()
    }
}

/// Builds the ruleset-derived state: dependency graph and modules. For
/// rules also present in `carried` (matched by `Rule::same_rule`), the
/// counters carry over — a hot-swap keeps a kept rule's history.
fn build_state(
    ruleset: &Ruleset,
    dict: &Dictionary,
    capacity: usize,
    carried: Option<&RulesetState>,
) -> RulesetState {
    let graph = DependencyGraph::build(ruleset);
    let modules: Vec<Module> = ruleset
        .rules()
        .iter()
        .enumerate()
        .map(|(i, rule)| {
            let kept =
                carried.and_then(|old| old.modules.iter().find(|m| m.rule.same_rule(&**rule)));
            let closure = rule.transitive_predicate().map(|p| (p, Mutex::new(())));
            let mut successors = graph.successors(i).to_vec();
            if closure.is_some() {
                // A closure instance emits everything its edges imply, so
                // its own conclusions need no second pass through it.
                successors.retain(|&j| j != i);
            }
            Module {
                rule: Arc::clone(rule),
                filter: rule.input_filter(),
                buffer: Buffer::new(capacity),
                successors,
                closure,
                counters: kept.map(|m| m.counters.carry()).unwrap_or_default(),
            }
        })
        .collect();
    RulesetState {
        name: ruleset.name().to_owned(),
        modules,
        graph: Arc::new(graph),
        roots_below: dict.high_water(),
    }
}

/// A message on the job channel: one rule instance over one buffered
/// batch, or the signal for one worker to exit.
enum Job {
    Run { rule: usize, delta: Vec<Triple> },
    Stop,
}

/// The reasoner's state, shared between the public handle, the workers
/// and the flusher.
pub(crate) struct Engine {
    dict: Arc<Dictionary>,
    store: ShardedStore,
    /// The current [`RulesetState`], replaced wholesale by [`Op::Swap`].
    /// The lock is held only for the pointer clone/swap, never across
    /// work; see [`Engine::rstate`] for the resolution discipline.
    rstate: RwLock<Arc<RulesetState>>,
    /// The workers' job channel, FIFO.
    jobs: Sender<Job>,
    /// The buffer-staleness deadline (`SliderConfig::timeout`); the
    /// flusher services it via [`Engine::drain_stale_buffers`].
    timeout: Option<Duration>,
    pub(crate) inflight: Inflight,
    pub(crate) globals: GlobalCounters,
    log: Option<EventLog>,
    /// Serialises DRed maintenance runs, dictionary sweeps and ruleset
    /// swaps — a swap is a maintenance operation.
    maintenance: Mutex<()>,
    /// Deferred retractions awaiting a coalesced DRed run (see
    /// [`Op::Defer`]).
    pub(crate) scheduler: MaintenanceScheduler,
    /// Configured buffer capacity, for the modules a ruleset swap builds.
    buffer_capacity: usize,
    /// Triples retired (retracted + overdeleted) by maintenance runs
    /// since the last dictionary sweep — the sweep trigger's numerator.
    retired_since_sweep: AtomicUsize,
    /// Runs once, inside the next flush, between draining the pending
    /// queue and applying it — holds a drained-but-unapplied set open for
    /// the flush-barrier tests.
    #[cfg(test)]
    flush_drained_hook: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

/// Absolute floor for the automatic dictionary sweep: below this many
/// retirements since the last sweep, a sweep cannot reclaim enough to pay
/// for its liveness scan, whatever the ratio says.
const DICT_SWEEP_MIN_RETIRED: usize = 1024;
/// The automatic dictionary sweep also waits until the retirements since
/// the last sweep reach this fraction of the dictionary's live terms.
const DICT_SWEEP_RATIO: f64 = 0.5;

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

    /// Queues a rule instance for the workers; the caller must already
    /// hold an inflight token for it (token ownership transfers to the
    /// job).
    fn submit_with_token(&self, rule: usize, delta: Vec<Triple>) {
        // Send only fails once every worker has exited, i.e. after
        // teardown; the token is released here then.
        if self.jobs.send(Job::Run { rule, delta }).is_err() {
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
            bump(&module.counters.buffered, accepted.len() as u64);
            for chunk in module.buffer.push_batch(&accepted) {
                bump(&module.counters.full_flushes, 1);
                if let Some(log) = &self.log {
                    log.record(EventKind::BufferFull { rule: i });
                }
                self.submit(i, chunk);
            }
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
        let mut fresh = Vec::new();
        let derived = match &module.closure {
            Some((p, serial)) => self.close_edges(*p, serial, &delta, &mut fresh),
            None => self.join(module.rule.as_ref(), &delta, &mut fresh),
        };
        bump(&module.counters.fired, 1);
        bump(&module.counters.derived, derived as u64);
        bump(&module.counters.fresh, fresh.len() as u64);
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

    /// One semi-naive step: `rule.apply` on `delta`, then the distributor's
    /// steps 1 and 2 — add the conclusions to the store and append the new
    /// ones to `fresh`. Returns how many conclusions the join derived.
    fn join(&self, rule: &dyn Rule, delta: &[Triple], fresh: &mut Vec<Triple>) -> usize {
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
        rule.apply(&store, delta, &mut out);
        let derived = out.len();
        out.retain(|&t| !store.contains(t));
        drop(store);
        self.store.insert_batch(&out, fresh);
        derived
    }

    /// Incremental transitive closure over `p` (Swift's tabled closure):
    /// each non-reflexive edge `(a, b)` of `delta` emits
    /// `({a} ∪ anc(a)) × ({b} ∪ desc(b))`, minus `(a, b)` and what the
    /// store holds, and inserts it before the next edge is read. Returns
    /// how many candidates the edges produced; appends the new ones to
    /// `fresh`.
    ///
    /// Sound because `serial` runs one instance at a time: when an edge is
    /// read, the store holds the closure of every edge processed before it
    /// (and of the store as the last quiescent point left it), so joining
    /// the edge to its ancestors and descendants closes it in one step. A
    /// `p` triple this module did not emit was dispatched to it and gets
    /// its own turn. A reflexive edge `(x, x)` adds no path. The lock is
    /// released before the caller dispatches `fresh`.
    fn close_edges(
        &self,
        p: NodeId,
        serial: &Mutex<()>,
        delta: &[Triple],
        fresh: &mut Vec<Triple>,
    ) -> usize {
        let _serial = serial.lock();
        let (mut above, mut below, mut out) = (Vec::new(), Vec::new(), Vec::new());
        let mut derived = 0;
        for &edge in delta.iter().filter(|t| t.p == p && t.s != t.o) {
            let store = self.store.read();
            above.clear();
            above.push(edge.s);
            above.extend(store.subjects_with(p, edge.s).filter(|&x| x != edge.s));
            below.clear();
            below.push(edge.o);
            below.extend(store.objects_with(p, edge.o).filter(|&y| y != edge.o));
            derived += above.len() * below.len() - 1;
            out.clear();
            for &x in &above {
                out.extend(
                    below
                        .iter()
                        .map(|&y| Triple::new(x, p, y))
                        .filter(|&t| t != edge && !store.contains(t)),
                );
            }
            drop(store);
            self.store.insert_batch(&out, fresh);
        }
        derived
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

    /// Post-retraction dictionary compaction hook, called under the
    /// maintenance mutex after a DRed run retired `retired_now` triples
    /// (retracted + overdeleted). Sweeps once the retirements since the
    /// last sweep clear both [`DICT_SWEEP_MIN_RETIRED`] and
    /// [`DICT_SWEEP_RATIO`] of the live terms: bursts sweep, trickles
    /// never do. The run's section has published by now, so its
    /// pre-section epoch is a root only if a query still holds it.
    fn maybe_sweep_dict(&self, retired_now: usize) {
        let retired = self
            .retired_since_sweep
            .fetch_add(retired_now, Ordering::Relaxed)
            + retired_now;
        if retired >= DICT_SWEEP_MIN_RETIRED
            && retired as f64 >= DICT_SWEEP_RATIO * self.dict.len() as f64
        {
            self.sweep_dict_now();
        }
    }

    /// [`Op::Sweep`]: one sweep under the maintenance mutex.
    fn sweep_dictionary(&self) -> SweepOutcome {
        let _serial = self.maintenance.lock();
        self.sweep_dict_now()
    }

    /// Sweeps the dictionary in a quiescent section of its own (the caller
    /// holds the maintenance mutex), so no intern→insert window can race
    /// the scan. The one root rule: an id survives if it is below
    /// [`RulesetState::roots_below`], or if a triple in the live store, in
    /// a live [`EpochSnapshot`](slider_store::EpochSnapshot) or in the
    /// pending-retraction queue mentions it. The roots are collected on
    /// the dictionary's first question, so a skipped sweep scans nothing.
    fn sweep_dict_now(&self) -> SweepOutcome {
        self.retired_since_sweep.store(0, Ordering::Relaxed);
        let (outcome, _) = self.with_quiescent_store(|store| {
            let roots_below = self.rstate().roots_below;
            let roots = OnceCell::new();
            self.dict.sweep(|id| {
                id.index() < roots_below
                    || roots.get_or_init(|| self.sweep_roots(store)).contains(&id)
            })
        });
        if let Some(log) = self.log.as_ref().filter(|_| !outcome.skipped) {
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

    /// The ids of the triples [`Engine::sweep_dict_now`] keeps decodable.
    fn sweep_roots(&self, store: &VerticalStore) -> FxHashSet<NodeId> {
        let mut roots = FxHashSet::default();
        let mut add = |t: Triple| roots.extend([t.s, t.p, t.o]);
        store.iter().for_each(&mut add);
        // A pinned epoch may still decode triples the store has dropped.
        // It shares every table no later write touched, so only the tables
        // DRed copied away from the live store cost a scan.
        for epoch in self.store.live_epochs() {
            for (p, table) in epoch.tables() {
                if !store.table(p).is_some_and(|live| std::ptr::eq(live, table)) {
                    table.pairs().for_each(|(s, o)| add(Triple::new(s, p, o)));
                }
            }
        }
        // Pending deferred retractions: their triples may already be gone
        // from the store, yet the flush and re-assertion cancellation
        // match them by id.
        self.scheduler.for_each_pending(add);
        roots
    }

    /// The input manager ([`Op::Add`]): inserts `triples` as explicit,
    /// cancels their pending retractions and routes the new ones to the
    /// rule buffers. Returns how many were new.
    fn add(&self, triples: &[Triple]) -> usize {
        // Token covers the insert-cancel-route window so `wait_idle` on
        // another thread cannot observe a false quiescence mid-call — and
        // so a coalesced flush (which drains the pending set only at
        // verified quiescence, with the store held exclusively) can never
        // interleave between this call's insert and its cancellation.
        self.inflight.inc();
        let mut fresh = Vec::with_capacity(triples.len());
        self.store.insert_batch_explicit(triples, &mut fresh);
        bump(&self.globals.input_received, triples.len() as u64);
        bump(&self.globals.input_fresh, fresh.len() as u64);
        // Re-assertion cancels a pending retraction (lock-free no-op when
        // nothing is pending — the hot additive path stays hot).
        let cancelled = self.scheduler.cancel(triples);
        if cancelled > 0 {
            bump(&self.globals.cancelled, cancelled as u64);
        }
        if let Some(log) = &self.log {
            log.record(EventKind::Input {
                received: triples.len(),
                fresh: fresh.len(),
            });
        }
        if !fresh.is_empty() {
            // Resolved inside the token window above, so the state is
            // current: a swap cannot linearise while we hold the token.
            let state = self.rstate();
            let all: Vec<usize> = (0..state.modules.len()).collect();
            self.dispatch(&state, &all, &fresh);
        }
        self.inflight.dec();
        fresh.len()
    }

    /// Enqueues retractions ([`Op::Defer`]), flushing at the threshold.
    /// Returns how many were newly enqueued.
    fn defer(&self, triples: &[Triple]) -> usize {
        let (fresh, threshold_hit) = self.scheduler.enqueue(triples);
        bump(&self.globals.deferred, fresh as u64);
        if threshold_hit {
            self.flush_maintenance();
        }
        fresh
    }

    /// One eager DRed run over `triples` ([`Op::Remove`]).
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
        let (outcome, store_size) = self
            .with_quiescent_store(|store| maintenance::dred(store, &rules, &state.graph, triples));
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
        self.maybe_sweep_dict(outcome.retracted + outcome.overdeleted);
        outcome
    }

    /// Drains the deferred-retraction queue and applies it in one DRed
    /// pass over the union ([`Op::Flush`]).
    fn flush_maintenance(&self) -> RemovalOutcome {
        // One maintenance run at a time, so two racing flushes (threshold
        // vs deadline vs explicit) cannot split one pending generation
        // across two runs. The empty check must sit under the mutex: a
        // racing flush drains the queue before it applies it, so an
        // unlocked `pending() == 0` could return while that flush's
        // retractions are still in the store. The mutex is not the
        // store lock, so an empty flush still never takes the store
        // exclusively (pinned by the `gate_write_acquisitions` stat).
        let _serial = self.maintenance.lock();
        if self.scheduler.pending() == 0 {
            return RemovalOutcome::default();
        }
        let state = self.rstate();
        let rules = state.rules();
        let ((outcome, pending_len), store_size) = self.with_quiescent_store(|store| {
            // Drain *under the store lock, after the quiescence
            // re-check*: this is the flush's linearisation point. Any
            // assertion either completed earlier (its re-assertion
            // already cancelled the matching pending retraction) or is
            // blocked on the lock and lands after the flush —
            // a pending retraction can never be applied over a
            // concurrent re-assertion it should have cancelled.
            let pending = self.scheduler.drain();
            #[cfg(test)]
            {
                let hook = self.flush_drained_hook.lock().take();
                if let Some(hook) = hook {
                    hook();
                }
            }
            // A racing re-assertion may have cancelled the whole set.
            if pending.is_empty() {
                return (RemovalOutcome::default(), 0);
            }
            let outcome = maintenance::dred(store, &rules, &state.graph, &pending);
            (outcome, pending.len())
        });
        if pending_len == 0 {
            return outcome;
        }
        self.bump_removal_counters(&outcome);
        bump(&self.globals.coalesced_runs, 1);
        // Only now may `stats()` stop counting the drained set as pending.
        self.scheduler.settle(pending_len);
        if let Some(log) = &self.log {
            log.record(EventKind::CoalescedRemoval {
                pending: pending_len,
                retracted: outcome.retracted,
                overdeleted: outcome.overdeleted,
                rederived: outcome.rederived,
                store_size,
            });
        }
        self.maybe_sweep_dict(outcome.retracted + outcome.overdeleted);
        outcome
    }

    /// The flusher's buffer-timeout service: drains every buffer stale
    /// past the configured timeout into rule instances. A no-op without a
    /// timeout.
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

    /// Replaces the ruleset on the live engine ([`Op::Swap`]).
    fn swap_ruleset(&self, ruleset: Ruleset) -> SwapOutcome {
        // A swap is a maintenance operation: serialise it against DRed
        // runs (and other swaps) on the same mutex, so the state resolved
        // below cannot be replaced under us.
        let _serial = self.maintenance.lock();
        let old_state = self.rstate();
        let old_rules = old_state.rules();
        let new_rules: Vec<Arc<dyn Rule>> = ruleset.rules().to_vec();
        // Rule identity is `Rule::same_rule`: specs compare structurally,
        // so a same-named rule over other constants counts as drop + add.
        let in_rules =
            |rules: &[Arc<dyn Rule>], r: &Arc<dyn Rule>| rules.iter().any(|s| s.same_rule(&**r));
        let dropped: Vec<Arc<dyn Rule>> = old_rules
            .iter()
            .filter(|r| !in_rules(&new_rules, r))
            .cloned()
            .collect();
        let added: Vec<Arc<dyn Rule>> = new_rules
            .iter()
            .filter(|r| !in_rules(&old_rules, r))
            .cloned()
            .collect();
        let surviving: Vec<Arc<dyn Rule>> = old_rules
            .iter()
            .filter(|r| in_rules(&new_rules, r))
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
                &self.dict,
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

/// What an [`Op::Swap`] did, phase by phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SwapOutcome {
    /// Rules removed by the swap.
    pub dropped: usize,
    /// Rules introduced by the swap.
    pub added: usize,
    /// Rules present in both programs (matched by `Rule::same_rule`;
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
/// manager). Every write is an [`Op`] for [`Slider::apply`]; `add_triples`,
/// `add_terms`, `remove_terms` and `sweep_dictionary` are typed shortcuts
/// for the common ones. Typical batch use:
///
/// ```
/// use slider_core::{Op, Slider, SliderConfig};
/// use slider_rules::Fragment;
/// use slider_model::Term;
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
///
/// // Retract Cat ⊑ Animal: felix stays a Cat, no longer an Animal.
/// let cat_animal = slider.dict().encode_triple(&triples[0]);
/// let removed = slider.apply(Op::Remove(vec![cat_animal])).removal().unwrap();
/// assert_eq!((removed.retracted, slider.store().len()), (1, 1));
/// ```
///
/// Each `Slider` owns its threads: [`SliderConfig::workers`] pool
/// threads, plus one flusher thread when a buffer timeout or a maintenance
/// deadline is configured. Several independent streams are several
/// `Slider`s; they may share one `Arc<Dictionary>`, which is never swept
/// while more than one of them is live.
pub struct Slider {
    engine: Arc<Engine>,
    workers: Vec<JoinHandle<()>>,
    flusher: Option<(JoinHandle<()>, Arc<FlusherStop>)>,
}

/// The flusher's tick sleep, which `Drop for Slider` cuts short, so
/// teardown never waits out a tick.
#[derive(Default)]
struct FlusherStop {
    stopped: Mutex<bool>,
    wake: Condvar,
}

impl FlusherStop {
    /// Sleeps up to `tick`; returns `true` once the stop was signalled.
    fn sleep(&self, tick: Duration) -> bool {
        let mut stopped = self.stopped.lock();
        if !*stopped {
            self.wake.wait_for(&mut stopped, tick);
        }
        *stopped
    }

    fn stop(&self) {
        *self.stopped.lock() = true;
        self.wake.notify_all();
    }
}

fn worker_loop(engine: &Engine, jobs: &Receiver<Job>) {
    while let Ok(Job::Run { rule, delta }) = jobs.recv() {
        // A panicking rule instance (e.g. a buggy custom rule) must not
        // wedge the reasoner: the inflight token is released either way —
        // leaking it would hang every wait_idle/flush/Drop forever — and
        // the worker survives to run the remaining jobs. The panic itself
        // already printed via the default hook; add which rule died.
        let instance = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.run_job(rule, delta);
        }));
        if instance.is_err() {
            // Resolve the name *before* releasing the token: the token
            // still pins the submission-time state, so the index is in
            // bounds; after dec() a swap could install a smaller ruleset.
            let state = engine.rstate();
            eprintln!(
                "slider: rule instance for {:?} panicked; its conclusions are lost",
                state.modules[rule].rule.name()
            );
        }
        engine.inflight.dec();
    }
}

/// Each tick drains stale buffers and runs a deadline-due coalesced
/// flush, until `stop` is signalled.
fn flusher_loop(engine: &Engine, stop: &FlusherStop, tick: Duration) {
    while !stop.sleep(tick) {
        engine.drain_stale_buffers();
        if engine.scheduler.is_stale() {
            engine.flush_maintenance();
        }
    }
}

impl Slider {
    /// Creates a reasoner over an existing dictionary and ruleset, and
    /// spawns its worker threads and, if needed, its flusher thread.
    pub fn new(dict: Arc<Dictionary>, ruleset: Ruleset, config: SliderConfig) -> Self {
        let buffer_capacity = config.buffer_capacity.max(1);
        dict.attach_engine();
        let state = build_state(&ruleset, &dict, buffer_capacity, None);
        let (jobs, job_rx) = unbounded();
        let engine = Arc::new(Engine {
            dict,
            store: ShardedStore::new(),
            rstate: RwLock::new(Arc::new(state)),
            jobs,
            timeout: config.timeout,
            inflight: Inflight::new(),
            globals: GlobalCounters::default(),
            log: config.trace.then(EventLog::new),
            maintenance: Mutex::new(()),
            scheduler: MaintenanceScheduler::new(
                config.maintenance_batch,
                config.maintenance_max_age,
            ),
            buffer_capacity,
            retired_since_sweep: AtomicUsize::new(0),
            #[cfg(test)]
            flush_drained_hook: Mutex::new(None),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let (engine, jobs) = (Arc::clone(&engine), job_rx.clone());
                std::thread::Builder::new()
                    .name(format!("slider-worker-{i}"))
                    .spawn(move || worker_loop(&engine, &jobs))
                    .expect("spawn worker thread")
            })
            .collect();
        // The flusher services buffer timeouts and the deferred-retraction
        // deadline, so it runs only if either is configured. It scans at
        // half the smaller one, clamped to [1, 10] ms, so a stale buffer
        // or pending retraction waits at most ~1.5 × its deadline.
        let deadline = config
            .timeout
            .into_iter()
            .chain(config.maintenance_max_age)
            .min();
        let flusher = deadline.map(|base| {
            let tick = (base / 2).clamp(Duration::from_millis(1), Duration::from_millis(10));
            let stop = Arc::new(FlusherStop::default());
            let (engine, thread_stop) = (Arc::clone(&engine), Arc::clone(&stop));
            let handle = std::thread::Builder::new()
                .name("slider-flusher".to_owned())
                .spawn(move || flusher_loop(&engine, &thread_stop, tick))
                .expect("spawn flusher thread");
            (handle, stop)
        });
        Slider {
            engine,
            workers,
            flusher,
        }
    }

    /// Creates a reasoner for a native fragment with a fresh dictionary.
    pub fn fragment(fragment: Fragment, config: SliderConfig) -> Self {
        let dict = Arc::new(Dictionary::new());
        let ruleset = Ruleset::fragment(fragment, &dict);
        Slider::new(dict, ruleset, config)
    }

    /// Applies one write operation and reports what it did. The contract
    /// — where each op linearises and what it waits for — is on [`Op`].
    ///
    /// ```
    /// use slider_core::{Op, Slider, SliderConfig};
    /// use slider_model::{Dictionary, NodeId, Triple};
    /// use slider_rules::{RuleSpec, Ruleset};
    /// use std::sync::Arc;
    ///
    /// let p = NodeId(7);
    /// let trans = || Ruleset::custom("trans").with(RuleSpec::transitive("T", p));
    /// let slider = Slider::new(Arc::new(Dictionary::new()), trans(), SliderConfig::default());
    /// let (a, b, c) = (NodeId(1), NodeId(2), NodeId(3));
    /// slider.apply(Op::Add(vec![Triple::new(a, p, b), Triple::new(b, p, c)]));
    /// slider.wait_idle();
    /// assert!(slider.store().contains(Triple::new(a, p, c)));
    ///
    /// // Drop the transitivity rule: its derivations retract incrementally.
    /// let outcome = slider.apply(Op::Swap(Ruleset::custom("empty"))).swap().unwrap();
    /// assert_eq!((outcome.dropped, outcome.added), (1, 0));
    /// assert!(!slider.store().contains(Triple::new(a, p, c)));
    ///
    /// // Add it back: the closure reappears without re-feeding the input.
    /// slider.apply(Op::Swap(trans()));
    /// assert!(slider.store().contains(Triple::new(a, p, c)));
    /// ```
    pub fn apply(&self, op: Op) -> Outcome {
        let engine = &self.engine;
        match op {
            Op::Add(triples) => Outcome::Add(engine.add(&triples)),
            Op::Remove(triples) => Outcome::Remove(engine.remove_eager(&triples)),
            Op::Defer(triples) => Outcome::Defer(engine.defer(&triples)),
            Op::Flush => Outcome::Flush(engine.flush_maintenance()),
            Op::Swap(ruleset) => Outcome::Swap(engine.swap_ruleset(ruleset)),
            Op::Sweep => Outcome::Sweep(engine.sweep_dictionary()),
        }
    }

    /// [`Op::Add`] over a borrowed batch; returns how many triples were
    /// new.
    pub fn add_triples(&self, triples: &[Triple]) -> usize {
        self.engine.add(triples)
    }

    /// Encodes decoded triples through the dictionary, then [`Op::Add`]s
    /// them. The inflight token covers the **intern → insert** window: a
    /// dictionary sweep scans liveness only at verified quiescence, so a
    /// term interned here is never swept before its triple is stored.
    pub fn add_terms(&self, triples: &[TermTriple]) -> usize {
        let engine = &self.engine;
        engine.inflight.inc();
        let encoded: Vec<Triple> = triples
            .iter()
            .map(|t| engine.dict.encode_triple(t))
            .collect();
        let fresh = engine.add(&encoded);
        engine.inflight.dec();
        fresh
    }

    /// [`Op::Remove`] over decoded triples; returns how many explicit
    /// triples were retracted. Terms are looked up, never interned: a
    /// triple over a term the dictionary has never seen cannot be in the
    /// store and is skipped.
    pub fn remove_terms(&self, triples: &[TermTriple]) -> usize {
        let dict = &self.engine.dict;
        let encoded: Vec<Triple> = triples
            .iter()
            .filter_map(|t| dict.encode_known(t))
            .collect();
        self.engine.remove_eager(&encoded).retracted
    }

    /// [`Op::Sweep`]: compacts the term dictionary now.
    pub fn sweep_dictionary(&self) -> SweepOutcome {
        self.engine.sweep_dictionary()
    }

    /// The staleness bound of deferred maintenance: the age of the oldest
    /// pending retraction ([`Op::Defer`]), or `None` when nothing is
    /// pending. Every query answered now reflects a closure at most this
    /// much behind the retraction stream; with
    /// [`SliderConfig::maintenance_max_age`](crate::SliderConfig::maintenance_max_age)
    /// configured, the bound itself is bounded by roughly 1.5 × that
    /// deadline (the flusher's scan granularity).
    pub fn pending_staleness(&self) -> Option<Duration> {
        self.engine.scheduler.oldest_age()
    }

    /// Blocks until the reasoner is quiescent: every buffer empty and no
    /// rule instance queued or running. Buffers are force-flushed as needed
    /// (so this works with `timeout: None` too).
    ///
    /// Quiescence is relative to inputs already fed; a concurrent
    /// `add_triples` extends the work and the method keeps waiting for it.
    /// Deferred retractions ([`Op::Defer`]) are *not* work in this sense —
    /// they stay pending until their own trigger fires.
    pub fn wait_idle(&self) {
        self.engine.wait_idle();
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
    /// by shared handle because the graph is swappable state: after an
    /// [`Op::Swap`] the engine routes with a rebuilt graph, while handles
    /// returned earlier stay valid (describing the program they were
    /// taken under).
    pub fn dependency_graph(&self) -> Arc<DependencyGraph> {
        Arc::clone(&self.engine.rstate().graph)
    }

    /// Name of the loaded ruleset ("rho-df", "RDFS", custom). Owned
    /// because the ruleset is swappable ([`Op::Swap`]) — a borrow could
    /// outlive the program it names.
    pub fn ruleset_name(&self) -> String {
        self.engine.rstate().name.clone()
    }

    /// Total triples inferred so far (fresh rule conclusions).
    pub fn inferred_count(&self) -> u64 {
        self.stats().total_inferred()
    }

    /// Snapshot of all module counters.
    pub fn stats(&self) -> StatsSnapshot {
        let engine = &self.engine;
        // Read before the removal counters: once it is 0, they include
        // every drained retraction (see `MaintenanceScheduler::outstanding`).
        let pending_removals = engine.scheduler.outstanding();
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
            pending_removals,
            coalesced_runs: engine.globals.coalesced_runs.load(Ordering::Relaxed),
            oldest_pending_age: engine.scheduler.oldest_age(),
            gate_write_acquisitions: engine.store.gate_write_acquisitions(),
            shard_write_conflicts: engine.store.shard_write_conflicts(),
            snapshot_generation: engine.store.snapshot_generation(),
            ruleset_swaps: engine.globals.ruleset_swaps.load(Ordering::Relaxed),
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

impl Drop for Engine {
    fn drop(&mut self) {
        self.dict.detach_engine();
    }
}

impl Drop for Slider {
    fn drop(&mut self) {
        // Pending deferred retractions must not be silently discarded:
        // apply them in one final coalesced flush, mirroring how buffered
        // triples drain at quiescence. This must happen while the workers
        // are still running — the flush waits for quiescence, and queued
        // rule instances drain through them.
        if self.engine.scheduler.pending() > 0 {
            self.engine.flush_maintenance();
        }
        // Stop and join the flusher *before* stopping the workers: a
        // deadline-triggered flush may be waiting for quiescence, which
        // only the still-running workers can provide — stopping them
        // first could strand the flusher (and this join) forever.
        if let Some((handle, stop)) = self.flusher.take() {
            stop.stop();
            let _ = handle.join();
        }
        // Queued jobs drain first; then each worker takes one stop
        // message and exits.
        for _ in &self.workers {
            let _ = self.engine.jobs.send(Job::Stop);
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
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

    /// Feeds a batch and waits for its closure.
    fn materialize(slider: &Slider, triples: &[Triple]) {
        slider.add_triples(triples);
        slider.wait_idle();
    }

    #[test]
    fn closure_matches_oracle_on_chain() {
        let input = chain(30);
        let slider = rho_slider(SliderConfig::default());
        materialize(&slider, &input);
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
        materialize(&slider, &input);
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
        materialize(&slider, &input);
        let oracle = closure(Ruleset::rdfs(&dict), &input);
        assert_eq!(slider.store().to_sorted_vec(), oracle.to_sorted_vec());
    }

    #[test]
    fn incremental_equals_batch() {
        let input = chain(40);
        let batch = rho_slider(SliderConfig::default());
        materialize(&batch, &input);

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
        materialize(&slider, &input);
        let oracle = closure(Ruleset::rho_df(), &input);
        assert_eq!(slider.store().to_sorted_vec(), oracle.to_sorted_vec());
    }

    #[test]
    fn huge_buffers_rely_on_wait_idle_flush() {
        let input = chain(25);
        let config = SliderConfig::batch().with_buffer_capacity(1_000_000); // never fills
        let slider = rho_slider(config);
        materialize(&slider, &input);
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
        materialize(&slider, &input);
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
        materialize(&slider, &input);
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
        materialize(&slider, &chain(10));
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
        materialize(&slider, &chain(5));
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
        materialize(&slider, &chain(10));
        assert_eq!(
            slider
                .apply(Op::Remove(vec![sco(5, 6)]))
                .removal()
                .unwrap()
                .retracted,
            1
        );
        let survivors: Vec<Triple> = chain(10).into_iter().filter(|&t| t != sco(5, 6)).collect();
        let oracle = closure(Ruleset::rho_df(), &survivors);
        assert_eq!(slider.store().to_sorted_vec(), oracle.to_sorted_vec());
        let stats = slider.stats();
        assert_eq!(stats.store.explicit, survivors.len());
        assert_eq!(stats.removal_runs, 1);
        assert_eq!(stats.retracted, 1);
        assert!(stats.overdeleted > 0);
        // Removing it again (or a derived fact) is a no-op.
        assert_eq!(
            slider
                .apply(Op::Remove(vec![sco(5, 6), sco(1, 3)]))
                .removal()
                .unwrap()
                .retracted,
            0
        );
        assert_eq!(slider.stats().removal_runs, 1);
    }

    #[test]
    fn removal_then_re_add_round_trips() {
        let input = chain(12);
        let slider = rho_slider(SliderConfig::default());
        materialize(&slider, &input);
        let full = slider.store().to_sorted_vec();
        assert_eq!(
            slider
                .apply(Op::Remove(vec![sco(4, 5)]))
                .removal()
                .unwrap()
                .retracted,
            1
        );
        assert_ne!(slider.store().to_sorted_vec(), full);
        materialize(&slider, &[sco(4, 5)]);
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
        materialize(&slider, &chain(40));
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
        materialize(&slider, &chain(10));
        slider.apply(Op::Defer(vec![sco(5, 6)]));
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
        materialize(&slider, &input);
        let full = slider.store().to_sorted_vec();
        slider.apply(Op::Defer(vec![sco(4, 5), sco(7, 8)]));
        // Re-assert one of the two while both are pending.
        slider.add_triples(&[sco(4, 5)]);
        assert_eq!(slider.stats().pending_removals, 1, "one cancelled");
        assert_eq!(slider.stats().cancelled_removals, 1);
        let outcome = slider.apply(Op::Flush).removal().unwrap();
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
        use slider_rules::RuleSpec;
        let p = |v: u64| NodeId(5_000 + v);
        let retractions = [
            Triple::new(n(3), p(0), n(4)),
            Triple::new(n(5), p(10), n(6)),
        ];
        let build = |together: bool| {
            let ruleset = Ruleset::custom("two-chains")
                .with(RuleSpec::transitive("T-A", p(0)))
                .with(RuleSpec::transitive("T-B", p(10)));
            let config = SliderConfig::batch().with_maintenance_batch(usize::MAX);
            let slider = Slider::new(Arc::new(Dictionary::new()), ruleset, config);
            for base in [0, 10] {
                let links: Vec<Triple> = (1..8)
                    .map(|i| Triple::new(n(i), p(base), n(i + 1)))
                    .collect();
                materialize(&slider, &links);
            }
            if together {
                slider.apply(Op::Defer(retractions.to_vec()));
                slider.apply(Op::Flush);
            } else {
                for t in retractions {
                    slider.apply(Op::Defer(vec![t]));
                    slider.apply(Op::Flush);
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
        use slider_rules::RuleSpec;
        let p = |v: u64| NodeId(5_000 + v);
        let ruleset = Ruleset::custom("two-chains")
            .with(RuleSpec::transitive("T-A", p(0)))
            .with(RuleSpec::transitive("T-B", p(10)));
        let config = SliderConfig::batch().with_maintenance_batch(usize::MAX);
        let slider = Slider::new(Arc::new(Dictionary::new()), ruleset.clone(), config);
        for base in [0, 10] {
            let links: Vec<Triple> = (1..8)
                .map(|i| Triple::new(n(i), p(base), n(i + 1)))
                .collect();
            materialize(&slider, &links);
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

        slider.apply(Op::Defer(pending.to_vec()));
        let flushed = slider.apply(Op::Flush).removal().unwrap();
        assert_eq!(slider.store().to_sorted_vec(), direct.to_sorted_vec());
        assert_eq!(flushed, direct_pass, "flush outcome drifted");
        assert_eq!(flushed.retracted, 2);
        assert_eq!(flushed.ignored_derived, 1);
        assert_eq!(flushed.not_found, 1);
    }

    /// `Op::Flush` is a barrier: while another thread's slice is
    /// drained from the pending queue but not yet applied, a second
    /// explicit flush must not return until the store reflects that slice.
    #[test]
    fn explicit_flush_waits_for_a_drained_but_unapplied_slice() {
        let slider = Arc::new(rho_slider(
            SliderConfig::batch().with_maintenance_batch(usize::MAX),
        ));
        materialize(&slider, &chain(5));
        slider.apply(Op::Defer(vec![sco(2, 3)]));

        let (drained_tx, drained_rx) = unbounded();
        let (release_tx, release_rx) = unbounded::<()>();
        *slider.engine.flush_drained_hook.lock() = Some(Box::new(move || {
            let _ = drained_tx.send(());
            // A dropped sender (the test failed) releases the slice too.
            let _ = release_rx.recv();
        }));
        let first = {
            let slider = Arc::clone(&slider);
            std::thread::spawn(move || slider.apply(Op::Flush))
        };
        drained_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the first flush drained its slice");

        let (seen_tx, seen_rx) = unbounded();
        let second = {
            let slider = Arc::clone(&slider);
            std::thread::spawn(move || {
                slider.apply(Op::Flush);
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
        assert_eq!(first.join().unwrap().removal().unwrap().retracted, 1);
        second.join().unwrap();
    }

    /// A drained slice is never missing from both `pending_removals` and
    /// `retracted`: it counts as pending until its outcome is counted, so a
    /// reader that waits for `pending_removals == 0` then sees it retracted.
    #[test]
    fn stats_count_a_drained_slice_as_pending_until_it_is_retracted() {
        let slider = Arc::new(rho_slider(
            SliderConfig::batch().with_maintenance_batch(usize::MAX),
        ));
        materialize(&slider, &chain(5));
        slider.apply(Op::Defer(vec![sco(2, 3)]));

        let (drained_tx, drained_rx) = unbounded();
        let (release_tx, release_rx) = unbounded::<()>();
        *slider.engine.flush_drained_hook.lock() = Some(Box::new(move || {
            let _ = drained_tx.send(());
            // A dropped sender (the test failed) releases the slice too.
            let _ = release_rx.recv();
        }));
        let flush = {
            let slider = Arc::clone(&slider);
            std::thread::spawn(move || slider.apply(Op::Flush))
        };
        drained_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the flush drained its slice");

        let mid = slider.stats();
        assert_eq!(
            (mid.pending_removals, mid.retracted),
            (1, 0),
            "a drained, uncounted slice must still read as pending"
        );
        release_tx
            .send(())
            .expect("the flush is parked in the hook");
        assert_eq!(flush.join().unwrap().removal().unwrap().retracted, 1);
        let after = slider.stats();
        assert_eq!((after.pending_removals, after.retracted), (0, 1));
    }

    #[test]
    fn pending_staleness_reports_oldest_age() {
        let slider = rho_slider(SliderConfig::batch().with_maintenance_batch(usize::MAX));
        materialize(&slider, &chain(5));
        assert_eq!(slider.pending_staleness(), None);
        slider.apply(Op::Defer(vec![sco(2, 3)]));
        std::thread::sleep(Duration::from_millis(2));
        let age = slider.pending_staleness().expect("one pending");
        assert!(age >= Duration::from_millis(2));
        assert!(slider.stats().oldest_pending_age.is_some());
        slider.apply(Op::Flush);
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
        slider.add_terms(&burst);
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
        use slider_model::{vocab, Term};
        let dict = Arc::new(Dictionary::new());
        let slider = Slider::new(
            Arc::clone(&dict),
            Ruleset::custom("empty"),
            SliderConfig::batch(),
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
        let bytes_loaded = dict.bytes_estimate();
        // The burst clears the automatic trigger; the explicit call sweeps
        // whatever the automatic pass left.
        assert_eq!(slider.remove_terms(&triples), 2000);
        assert_eq!(slider.stats().dict_sweeps, 1, "the burst auto-swept");
        let auto_swept = slider.stats().dict_tombstones;
        let outcome = slider.sweep_dictionary();
        assert!(!outcome.skipped);
        assert_eq!(auto_swept + outcome.swept, 2002); // 2000 subjects + p + o
        assert_eq!(outcome.live, vocab::VOCAB_LEN);
        assert!(outcome.bytes_after < bytes_loaded);
        assert_eq!(slider.stats().dict_sweeps, 2);
    }
}
