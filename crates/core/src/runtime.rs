//! The shared execution runtime: one worker pool + one deadline/flusher
//! thread serving **many sessions**.
//!
//! Historically every [`Slider`] spawned its own
//! `slider-worker-{i}` threads and a private `slider-flusher` — N tenant
//! streams meant N thread pools. This module extracts the execution layer
//! into a [`Runtime`] that sessions register with:
//!
//! ```text
//!                         ┌───────────────── Runtime ─────────────────┐
//!  session A (store,      │  [fair job queue]──► worker-0             │
//!  ruleset, scheduler) ──►│       ▲      └─────► worker-1 … worker-W  │
//!  session B ────────────►│       │                                   │
//!  session C ────────────►│  [flusher: buffer timeouts + maintenance  │
//!                         │   deadlines for every session, sliced     │
//!                         │   under `maintenance_budget`]             │
//!                         └───────────────────────────────────────────┘
//! ```
//!
//! * The **job queue** is round-robin fair across sessions: each session
//!   owns a FIFO lane, and workers take one job per lane per turn, so a
//!   bursty tenant cannot starve its neighbours' rule instances.
//! * The **flusher** services every session's buffer timeout and
//!   deferred-retraction deadline from one thread, waking at half the
//!   shortest registered deadline. Registering a session with a *shorter*
//!   deadline nudges it awake immediately (no waiting out a stale tick).
//! * [`RuntimeConfig::maintenance_budget`] bounds how long one flusher
//!   tick may spend applying deferred retractions: a tenant with a huge
//!   pending DRed gets its flush **sliced**, and the slices it could not
//!   run are deferred to later ticks
//!   ([`StatsSnapshot::budget_deferrals`](crate::StatsSnapshot::budget_deferrals)).
//!   A starvation governor guarantees every stale session at least one
//!   slice per tick regardless of what the budget has left.
//!
//! [`Slider::new`](crate::Slider::new) remains a facade: it builds a
//! private single-session runtime, so existing code is unchanged. The
//! multi-tenant API is [`Runtime::new`] + [`Runtime::session`].

use crate::session::{Engine, Slider};
use crate::SliderConfig;
use slider_model::{FxHashMap, Triple};
use slider_rules::{Fragment, Ruleset};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How many pending retractions one budget slice drains: small enough that
/// the between-slice deadline check keeps a budgeted flush near its bound,
/// large enough that the per-slice overhead (quiescence wait, gate
/// acquisition) amortises.
pub(crate) const MAINTENANCE_SLICE: usize = 128;

/// Configuration of a shared [`Runtime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker threads in the shared pool, serving **all** sessions.
    /// Default: available parallelism.
    pub workers: usize,
    /// Per-tick latency budget for deadline-triggered maintenance: one
    /// flusher tick spends at most this long applying deferred retractions
    /// across all sessions, slicing an oversized flush and deferring the
    /// remainder to later ticks. Every stale session is still guaranteed
    /// one slice per tick (the starvation floor). `None` (the default)
    /// disables slicing: a deadline flush runs to completion, as a
    /// single-tenant `Slider` always has.
    pub maintenance_budget: Option<Duration>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: std::thread::available_parallelism().map_or(4, usize::from),
            maintenance_budget: None,
        }
    }
}

impl RuntimeConfig {
    /// Builder-style worker count (min 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Builder-style maintenance latency budget.
    pub fn with_maintenance_budget(mut self, budget: Option<Duration>) -> Self {
        self.maintenance_budget = budget;
        self
    }
}

/// A unit of pool work: one rule instance over one buffered batch. Each
/// job carries its session's engine, so worker panics and inflight tokens
/// stay session-contained: a poisoned rule in one tenant releases that
/// tenant's token and nothing else.
pub(crate) struct Job {
    pub(crate) engine: Arc<Engine>,
    pub(crate) rule: usize,
    pub(crate) delta: Vec<Triple>,
}

/// Per-session FIFO lanes with round-robin service order.
struct QueueState {
    /// One lane per session with queued work. Invariant: a session id is
    /// in `rotation` exactly once iff its lane here is non-empty.
    lanes: FxHashMap<u64, VecDeque<Job>>,
    /// Service order: workers take one job from the front lane, then move
    /// it to the back (if it still has work) — one job per session per
    /// turn.
    rotation: VecDeque<u64>,
    /// Set at teardown: pushes are refused, pops drain what is left.
    closed: bool,
}

/// The session-fair job queue the worker pool consumes.
///
/// Built on `std::sync` (not the vendored `parking_lot` shim) because the
/// workers need a real `Condvar` park/unpark.
pub(crate) struct JobQueue {
    state: Mutex<QueueState>,
    available: Condvar,
}

impl JobQueue {
    fn new() -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                lanes: FxHashMap::default(),
                rotation: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Enqueues `job` on `session`'s lane. Fails (returning the job) only
    /// after [`JobQueue::close`] — i.e. during runtime teardown.
    pub(crate) fn push(&self, session: u64, job: Job) -> Result<(), Job> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.closed {
            return Err(job);
        }
        let lane = state.lanes.entry(session).or_default();
        let was_empty = lane.is_empty();
        lane.push_back(job);
        if was_empty {
            state.rotation.push_back(session);
        }
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Takes the next job in round-robin order, blocking while the queue
    /// is empty. Returns `None` once the queue is closed **and** drained —
    /// queued jobs always run before the workers exit.
    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(&session) = state.rotation.front() {
                state.rotation.pop_front();
                let lane = state
                    .lanes
                    .get_mut(&session)
                    .expect("rotation entries have lanes");
                let job = lane.pop_front().expect("rotation lanes are non-empty");
                if lane.is_empty() {
                    state.lanes.remove(&session);
                } else {
                    state.rotation.push_back(session);
                }
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self
                .available
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Refuses further pushes and wakes every worker; queued jobs drain
    /// first, then `pop` returns `None`.
    fn close(&self) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.available.notify_all();
    }
}

/// Wakes the flusher out of its tick sleep: on session register/detach
/// (the deadline set changed — satellite of the shorter-deadline bug) and
/// on shutdown. A generation counter under the same mutex rules out lost
/// wakeups: a nudge during servicing is seen before the next wait.
struct FlusherSignal {
    state: Mutex<SignalState>,
    wake: Condvar,
}

struct SignalState {
    generation: u64,
    shutdown: bool,
}

impl FlusherSignal {
    fn new() -> Self {
        FlusherSignal {
            state: Mutex::new(SignalState {
                generation: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
        }
    }

    fn nudge(&self) {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .generation += 1;
        self.wake.notify_all();
    }

    fn shutdown(&self) {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .shutdown = true;
        self.wake.notify_all();
    }

    /// Sleeps until `tick` elapses (if `Some`), a nudge arrives, or
    /// shutdown; `seen` tracks the last observed nudge generation so a
    /// nudge sent while the flusher was servicing is never lost. Returns
    /// `true` on shutdown.
    fn wait(&self, tick: Option<Duration>, seen: &mut u64) -> bool {
        let deadline = tick.map(|t| Instant::now() + t);
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if state.shutdown {
                return true;
            }
            if state.generation != *seen {
                *seen = state.generation;
                return false;
            }
            match deadline {
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return false;
                    }
                    state = self
                        .wake
                        .wait_timeout(state, deadline - now)
                        .unwrap_or_else(|e| e.into_inner())
                        .0;
                }
                None => {
                    state = self.wake.wait(state).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }
}

/// The session registry plus the flusher's service cursor.
struct Registry {
    /// Registered sessions, in registration order. Weak: the registry must
    /// not keep a dropped session's engine (and its store) alive.
    sessions: Vec<(u64, Weak<Engine>)>,
    /// Starvation-governor cursor: each tick starts servicing at a
    /// different session, so leftover-budget position rotates and no
    /// session is systematically last.
    cursor: usize,
    next_id: u64,
}

/// State shared between the runtime handle and the flusher thread. The
/// flusher holds only this (never the core), so the core's `Drop` — which
/// joins the flusher — can never run on the flusher thread.
pub(crate) struct RuntimeShared {
    registry: Mutex<Registry>,
    signal: FlusherSignal,
    budget: Option<Duration>,
}

impl RuntimeShared {
    /// Wakes the flusher out of its tick sleep. Producers call this (via
    /// `Engine::unpark`) after making new work visible to a session the
    /// flusher had parked as idle — with every session parked the flusher
    /// sleeps indefinitely, and this is what ends that sleep.
    pub(crate) fn nudge(&self) {
        self.signal.nudge();
    }

    /// Live engines in service order for this tick: registration order
    /// rotated by the governor cursor (which advances once per call).
    /// Dead weak entries are pruned in passing.
    fn live_rotated(&self) -> Vec<Arc<Engine>> {
        let mut registry = self.registry.lock().unwrap_or_else(|e| e.into_inner());
        registry
            .sessions
            .retain(|(_, weak)| weak.strong_count() > 0);
        let live: Vec<Arc<Engine>> = registry
            .sessions
            .iter()
            .filter_map(|(_, weak)| weak.upgrade())
            .collect();
        if live.is_empty() {
            return live;
        }
        let start = registry.cursor % live.len();
        registry.cursor = registry.cursor.wrapping_add(1);
        let mut rotated = Vec::with_capacity(live.len());
        rotated.extend_from_slice(&live[start..]);
        rotated.extend_from_slice(&live[..start]);
        rotated
    }
}

/// The runtime's owning core: pool, queue, flusher. Dropped when the last
/// [`Runtime`] clone **and** the last attached session are gone — workers
/// hold only the queue and the flusher only [`RuntimeShared`], so the
/// joins below always run on a user thread.
pub(crate) struct RuntimeCore {
    pub(crate) queue: Arc<JobQueue>,
    shared: Arc<RuntimeShared>,
    worker_count: usize,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Spawned lazily, on the first registration of a session with a
    /// buffer timeout or a maintenance deadline — a runtime serving only
    /// batch-mode sessions runs no flusher at all.
    flusher: Mutex<Option<JoinHandle<()>>>,
}

impl RuntimeCore {
    fn new(config: &RuntimeConfig) -> Arc<RuntimeCore> {
        let queue = Arc::new(JobQueue::new());
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("slider-worker-{i}"))
                    .spawn(move || worker_loop(&queue))
                    .expect("spawn worker thread")
            })
            .collect();
        Arc::new(RuntimeCore {
            queue,
            shared: Arc::new(RuntimeShared {
                registry: Mutex::new(Registry {
                    sessions: Vec::new(),
                    cursor: 0,
                    next_id: 0,
                }),
                signal: FlusherSignal::new(),
                budget: config.maintenance_budget,
            }),
            worker_count: config.workers.max(1),
            workers: Mutex::new(workers),
            flusher: Mutex::new(None),
        })
    }

    pub(crate) fn allocate_id(&self) -> u64 {
        let mut registry = self
            .shared
            .registry
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        registry.next_id += 1;
        registry.next_id
    }

    /// Registers a session with the flusher's deadline service. The nudge
    /// makes a shorter deadline effective immediately: the flusher
    /// recomputes its tick on wake instead of sleeping out the old one.
    pub(crate) fn register(&self, id: u64, engine: &Arc<Engine>) {
        let needs_flusher = engine.deadline_base().is_some();
        {
            let mut registry = self
                .shared
                .registry
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            registry.sessions.push((id, Arc::downgrade(engine)));
        }
        if needs_flusher {
            self.ensure_flusher();
        }
        self.shared.signal.nudge();
    }

    /// Detaches a session from the deadline service; its queued jobs still
    /// drain on the pool. Only the drop of the **last** core reference
    /// (runtime handles + session handles) joins any threads.
    pub(crate) fn detach(&self, id: u64) {
        {
            let mut registry = self
                .shared
                .registry
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            registry.sessions.retain(|(sid, _)| *sid != id);
        }
        self.shared.signal.nudge();
    }

    pub(crate) fn session_count(&self) -> usize {
        let mut registry = self
            .shared
            .registry
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        registry
            .sessions
            .retain(|(_, weak)| weak.strong_count() > 0);
        registry.sessions.len()
    }

    pub(crate) fn thread_count(&self) -> usize {
        let flusher = self
            .flusher
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_some();
        self.worker_count + usize::from(flusher)
    }

    /// The state shared with the flusher thread — sessions hold a clone
    /// so their producers can nudge the flusher awake after unparking.
    pub(crate) fn shared(&self) -> &Arc<RuntimeShared> {
        &self.shared
    }

    fn ensure_flusher(&self) {
        let mut flusher = self.flusher.lock().unwrap_or_else(|e| e.into_inner());
        if flusher.is_none() {
            let shared = Arc::clone(&self.shared);
            *flusher = Some(
                std::thread::Builder::new()
                    .name("slider-flusher".to_owned())
                    .spawn(move || flusher_loop(&shared))
                    .expect("spawn flusher thread"),
            );
        }
    }
}

impl Drop for RuntimeCore {
    fn drop(&mut self) {
        // Stop the flusher first: a deadline-triggered flush may be
        // waiting for quiescence, which only the still-running workers can
        // provide — closing the queue first could strand it forever.
        self.shared.signal.shutdown();
        if let Some(handle) = self
            .flusher
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            let _ = handle.join();
        }
        // Queued jobs drain, then the workers exit.
        self.queue.close();
        for handle in self
            .workers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
        {
            let _ = handle.join();
        }
    }
}

fn worker_loop(queue: &JobQueue) {
    while let Some(Job {
        engine,
        rule,
        delta,
    }) = queue.pop()
    {
        // A panicking rule instance (e.g. a buggy custom rule) must not
        // wedge its session — the inflight token is released either way,
        // or every wait_idle/flush/Drop on that session would hang — and
        // must not touch any *other* session: the job carries its own
        // engine, so the token and the error stay session-contained, and
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

/// One flusher serves every session: each tick drains stale buffers and
/// runs deadline-due maintenance for all of them, then sleeps until half
/// the shortest registered deadline (clamped to [1, 10] ms) — or
/// indefinitely when no live session has one — or until nudged by a
/// register/detach.
fn flusher_loop(shared: &RuntimeShared) {
    let mut seen_generation = 0u64;
    loop {
        // Idle-lane parking: a session with every buffer empty and no
        // pending maintenance releases its lane in this rotation — it is
        // skipped and contributes no tick deadline until a producer makes
        // new work visible and nudges the flusher (`Engine::try_park`
        // documents the handshake that makes the skip race-free). With
        // every session parked the tick below is `None` and the flusher
        // sleeps until nudged, instead of spinning its shortest deadline.
        let engines: Vec<Arc<Engine>> = shared
            .live_rotated()
            .into_iter()
            .filter(|engine| !engine.try_park())
            .collect();
        for engine in &engines {
            engine.drain_stale_buffers();
        }
        // One budget deadline for the whole tick: sessions share it in
        // cursor-rotated order, and `flush_maintenance_budgeted` always
        // runs at least one slice even with the budget exhausted — the
        // starvation floor.
        let budget_deadline = shared.budget.map(|b| Instant::now() + b);
        for engine in &engines {
            if engine.scheduler.is_stale() {
                engine.flush_maintenance_budgeted(budget_deadline);
            }
        }
        let tick = engines
            .iter()
            .filter_map(|e| e.deadline_base())
            .min()
            .map(|base| (base / 2).clamp(Duration::from_millis(1), Duration::from_millis(10)));
        if shared.signal.wait(tick, &mut seen_generation) {
            return;
        }
    }
}

/// A shared execution runtime hosting many reasoner sessions on one worker
/// pool and one flusher thread.
///
/// Cloning is cheap (a handle); the underlying pool lives until the last
/// handle **and** the last attached session are gone. See the
/// [module docs](crate::runtime) for the architecture and
/// [`Runtime::session`] for attaching tenants.
///
/// ```
/// use slider_core::{Runtime, RuntimeConfig, SliderConfig};
/// use slider_rules::Ruleset;
/// use slider_model::Dictionary;
/// use std::sync::Arc;
///
/// let runtime = Runtime::new(RuntimeConfig::default().with_workers(2));
/// let a = runtime.session(Arc::new(Dictionary::new()), Ruleset::rho_df(),
///                         SliderConfig::default());
/// let b = runtime.session(Arc::new(Dictionary::new()), Ruleset::rho_df(),
///                         SliderConfig::default());
/// // Two sessions, one pool: workers + flusher, not 2 × (workers + 1).
/// assert_eq!(runtime.session_count(), 2);
/// assert_eq!(runtime.thread_count(), 3);
/// drop((a, b));
/// ```
#[derive(Clone)]
pub struct Runtime {
    core: Arc<RuntimeCore>,
}

impl Runtime {
    /// Builds a runtime: spawns `config.workers` pool threads now; the
    /// flusher starts with the first session that needs deadline service.
    pub fn new(config: RuntimeConfig) -> Self {
        Runtime {
            core: RuntimeCore::new(&config),
        }
    }

    /// Attaches a new session — an independent store, ruleset, scheduler
    /// and stats block — executing on this runtime's shared pool. The
    /// returned [`Slider`] has the exact same API as a standalone one.
    /// [`SliderConfig::workers`] is ignored: the pool is shared and its
    /// size fixed at [`RuntimeConfig::workers`].
    ///
    /// Dropping the returned session detaches it without disturbing its
    /// co-tenants; the pool joins only when the last session and the last
    /// `Runtime` handle are gone.
    pub fn session(
        &self,
        dict: Arc<slider_model::Dictionary>,
        ruleset: Ruleset,
        config: SliderConfig,
    ) -> Slider {
        Slider::attach(Arc::clone(&self.core), dict, ruleset, config)
    }

    /// [`Runtime::session`] for a native fragment with a fresh dictionary.
    pub fn session_fragment(&self, fragment: Fragment, config: SliderConfig) -> Slider {
        let dict = Arc::new(slider_model::Dictionary::new());
        let ruleset = Ruleset::fragment(fragment, &dict);
        self.session(dict, ruleset, config)
    }

    /// Sessions currently attached.
    pub fn session_count(&self) -> usize {
        self.core.session_count()
    }

    /// Threads this runtime owns: the worker pool plus the flusher if it
    /// has started. Independent of how many sessions are attached — that
    /// is the point.
    pub fn thread_count(&self) -> usize {
        self.core.thread_count()
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("workers", &self.core.worker_count)
            .field("sessions", &self.core.session_count())
            .field("budget", &self.core.shared.budget)
            .finish()
    }
}

impl Slider {
    /// The runtime this session executes on — handy for attaching a
    /// sibling session to the same pool.
    pub fn runtime(&self) -> Runtime {
        Runtime {
            core: Arc::clone(self.session_handle().core()),
        }
    }
}

/// A registered session's link to its runtime (held by [`Slider`]; see
/// [`Slider::session_handle`]). Dropping it detaches the session from the
/// flusher's deadline service; the shared pool and flusher keep running
/// for the remaining sessions, and only the last reference to the runtime
/// core joins any threads.
pub struct SessionHandle {
    core: Arc<RuntimeCore>,
    id: u64,
}

impl SessionHandle {
    pub(crate) fn new(core: Arc<RuntimeCore>, id: u64) -> Self {
        SessionHandle { core, id }
    }

    /// The session's runtime-unique id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Sessions currently attached to the same runtime (including this
    /// one).
    pub fn session_count(&self) -> usize {
        self.core.session_count()
    }

    pub(crate) fn core(&self) -> &Arc<RuntimeCore> {
        &self.core
    }
}

impl Drop for SessionHandle {
    fn drop(&mut self) {
        self.core.detach(self.id);
    }
}

impl std::fmt::Debug for SessionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionHandle")
            .field("id", &self.id)
            .field("sessions", &self.core.session_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An empty-delta instance of `rule` on `slider`'s engine. Test jobs
    /// go to a test-local queue, never to the session's own pool.
    fn job(slider: &Slider, rule: usize) -> Job {
        Job {
            engine: Arc::clone(slider.engine_for_tests()),
            rule,
            delta: Vec::new(),
        }
    }

    #[test]
    fn queue_round_robins_across_sessions() {
        let slider = Slider::fragment(Fragment::RhoDf, SliderConfig::batch());
        let queue = JobQueue::new();
        // Session 1 floods three jobs before session 2 submits one; the
        // rule index tags each job.
        queue.push(1, job(&slider, 0)).ok().unwrap();
        queue.push(1, job(&slider, 1)).ok().unwrap();
        queue.push(1, job(&slider, 2)).ok().unwrap();
        queue.push(2, job(&slider, 3)).ok().unwrap();
        queue.close(); // queued jobs drain in service order
        let order: Vec<usize> = std::iter::from_fn(|| queue.pop()).map(|j| j.rule).collect();
        // Fair service: session 2's job runs second, not last.
        assert_eq!(order, vec![0, 3, 1, 2]);
    }

    #[test]
    fn closed_queue_refuses_pushes_and_drains() {
        let slider = Slider::fragment(Fragment::RhoDf, SliderConfig::batch());
        let engine = slider.engine_for_tests();
        let queue = Arc::new(JobQueue::new());
        // Every queued job carries an inflight token, as a submitted one
        // does; the worker releases it after the run.
        for session in [1, 2] {
            engine.inflight.inc();
            queue.push(session, job(&slider, 0)).ok().unwrap();
        }
        queue.close();
        assert!(queue.push(1, job(&slider, 0)).is_err(), "closed queue");
        let worker = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || worker_loop(&queue))
        };
        worker.join().unwrap();
        assert_eq!(slider.stats().total_fired(), 2, "queued jobs drained");
        assert_eq!(engine.inflight.current(), 0, "tokens released");
    }

    #[test]
    fn signal_nudge_wakes_indefinite_wait() {
        let signal = Arc::new(FlusherSignal::new());
        let waiter = {
            let signal = Arc::clone(&signal);
            std::thread::spawn(move || {
                let mut seen = 0u64;
                signal.wait(None, &mut seen) // would sleep forever un-nudged
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        signal.nudge();
        assert!(!waiter.join().unwrap(), "nudge is not shutdown");

        // A nudge sent before the wait is observed immediately (no lost
        // wakeup), and shutdown wins over everything.
        let mut seen = 0u64;
        assert!(!signal.wait(None, &mut seen));
        signal.shutdown();
        assert!(signal.wait(None, &mut seen));
        assert!(signal.wait(Some(Duration::from_secs(60)), &mut seen));
    }

    #[test]
    fn signal_timeout_elapses_without_nudge() {
        let signal = FlusherSignal::new();
        let mut seen = 0u64;
        let start = Instant::now();
        assert!(!signal.wait(Some(Duration::from_millis(5)), &mut seen));
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn runtime_is_cloneable_and_debuggable() {
        let runtime = Runtime::new(RuntimeConfig::default().with_workers(1));
        let clone = runtime.clone();
        assert_eq!(clone.thread_count(), 1, "no flusher before any session");
        assert_eq!(clone.session_count(), 0);
        assert!(format!("{runtime:?}").contains("workers: 1"));
    }

    /// Idle-lane parking: a session with empty buffers and no pending
    /// maintenance leaves the flusher's rotation; new input re-enters it
    /// and timeout service still fires — nothing else can here, the
    /// buffer is far below capacity and the test never flushes
    /// explicitly, so a stuck-parked lane would fail the closure poll.
    #[test]
    fn idle_session_parks_and_new_work_unparks() {
        use slider_model::{vocab::RDFS_SUB_CLASS_OF, NodeId};
        use std::sync::atomic::Ordering;
        let runtime = Runtime::new(RuntimeConfig::default().with_workers(1));
        let slider = runtime.session_fragment(
            Fragment::RhoDf,
            SliderConfig::default()
                .with_buffer_capacity(1_000_000) // only timeout service fires
                .with_timeout(Some(Duration::from_millis(1))),
        );
        let engine = Arc::clone(slider.engine_for_tests());
        let deadline = Instant::now() + Duration::from_secs(10);
        while !engine.parked.load(Ordering::SeqCst) {
            assert!(Instant::now() < deadline, "idle session never parked");
            std::thread::sleep(Duration::from_millis(1));
        }
        let sco = |a: u64, b: u64| Triple::new(NodeId(a), RDFS_SUB_CLASS_OF, NodeId(b));
        slider.add_triples(&[sco(1, 2), sco(2, 3)]);
        while !slider.store().contains(sco(1, 3)) {
            assert!(Instant::now() < deadline, "parked lane missed new work");
            std::thread::sleep(Duration::from_millis(1));
        }
        slider.wait_idle();
        while !engine.parked.load(Ordering::SeqCst) {
            assert!(Instant::now() < deadline, "session never re-parked");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn config_builders_clamp() {
        let config = RuntimeConfig::default()
            .with_workers(0)
            .with_maintenance_budget(Some(Duration::from_millis(3)));
        assert_eq!(config.workers, 1);
        assert_eq!(config.maintenance_budget, Some(Duration::from_millis(3)));
    }
}
