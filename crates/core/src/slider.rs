//! The [`Slider`] facade: builds an engine, owns its `workers` pool
//! threads, and exposes every write as an [`Op`].

use crate::config::SliderConfig;
use crate::engine::Engine;
use crate::module::build_state;
use crate::op::{Op, Outcome};
use crate::scheduler::MaintenanceScheduler;
use crate::stats::{GlobalCounters, RuleStats, StatsSnapshot};
use crate::trace::{Event, EventLog};
use crate::work::{Drainer, Work};
use parking_lot::{Mutex, RwLock};
use slider_model::{Dictionary, SweepOutcome, TermTriple, Triple};
use slider_rules::{DependencyGraph, Fragment, Ruleset};
use slider_store::ShardedStore;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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
/// Each `Slider` owns exactly [`SliderConfig::workers`] threads (none
/// with `workers: 0`: then [`Slider::wait_idle`] runs every rule instance).
/// Several independent streams are several `Slider`s; they may share one
/// `Arc<Dictionary>`, which is never swept while more than one is live.
pub struct Slider {
    pub(crate) engine: Arc<Engine>,
    workers: Vec<JoinHandle<()>>,
}

impl Slider {
    /// Creates a reasoner over `dict` and `ruleset`; spawns its workers.
    pub fn new(dict: Arc<Dictionary>, ruleset: Ruleset, config: SliderConfig) -> Self {
        let buffer_capacity = config.buffer_capacity.max(1);
        dict.attach_engine();
        let state = build_state(&ruleset, &dict, buffer_capacity, None);
        // The workers serve both deadlines every tick: half the smaller
        // one, clamped to [1, 10] ms. Without a pool nothing ticks.
        let tick = [config.timeout, config.maintenance_max_age]
            .into_iter()
            .flatten()
            .min()
            .filter(|_| config.workers > 0)
            .map(|base| (base / 2).clamp(Duration::from_millis(1), Duration::from_millis(10)));
        let engine = Arc::new(Engine {
            dict,
            store: ShardedStore::new(),
            rstate: RwLock::new(Arc::new(state)),
            timeout: config.timeout,
            work: Work::new(tick),
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
        let workers = (0..config.workers)
            .map(|i| {
                let engine = Arc::clone(&engine);
                std::thread::Builder::new()
                    .name(format!("slider-worker-{i}"))
                    .spawn(move || engine.drain(Drainer::Worker))
                    .expect("spawn worker thread")
            })
            .collect();
        Slider { engine, workers }
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
    /// them. A token covers the **intern → insert** window: a
    /// dictionary sweep scans liveness only at verified quiescence, so a
    /// term interned here is never swept before its triple is stored.
    pub fn add_terms(&self, triples: &[TermTriple]) -> usize {
        let engine = &self.engine;
        engine.work.inc();
        let encoded: Vec<Triple> = triples
            .iter()
            .map(|t| engine.dict.encode_triple(t))
            .collect();
        let fresh = engine.add(&encoded);
        engine.work.dec();
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
    /// configured, a pool bounds it by about that deadline plus one tick
    /// (half the smaller deadline, clamped to [1, 10] ms), one rule
    /// instance and the flush's wait for quiescence; `workers: 0` never
    /// checks the deadline.
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

impl Drop for Slider {
    fn drop(&mut self) {
        // Pending deferred retractions must not be silently discarded:
        // apply them in one final coalesced flush on this thread,
        // mirroring how buffered triples drain at quiescence.
        if self.engine.scheduler.pending() > 0 {
            self.engine.flush_maintenance();
        }
        // The workers empty the queue, then exit.
        self.engine.work.stop();
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
