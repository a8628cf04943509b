//! The engine: the state a [`Slider`](crate::Slider) shares with its
//! workers, the input manager (paper §2) and the one drain loop.

use crate::module::RulesetState;
use crate::scheduler::MaintenanceScheduler;
use crate::stats::{bump, GlobalCounters};
use crate::trace::{EventKind, EventLog};
use crate::work::{Drainer, Next, Work};
use parking_lot::{Mutex, RwLock};
use slider_model::{Dictionary, Triple};
use slider_store::ShardedStore;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::Duration;

/// The reasoner's state, shared by the public handle and its workers.
pub(crate) struct Engine {
    pub(crate) dict: Arc<Dictionary>,
    pub(crate) store: ShardedStore,
    /// The current [`RulesetState`], replaced wholesale by [`Op::Swap`](crate::Op::Swap).
    /// The lock is held only for the pointer clone/swap, never across
    /// work; see [`Engine::rstate`] for the resolution discipline.
    pub(crate) rstate: RwLock<Arc<RulesetState>>,
    /// `SliderConfig::timeout`, served by the pool's tick.
    pub(crate) timeout: Option<Duration>,
    /// The rule instances to run and the quiescence tokens.
    pub(crate) work: Work,
    pub(crate) globals: GlobalCounters,
    pub(crate) log: Option<EventLog>,
    /// Serialises DRed maintenance runs, dictionary sweeps and ruleset
    /// swaps — a swap is a maintenance operation.
    pub(crate) maintenance: Mutex<()>,
    /// Deferred retractions awaiting a coalesced DRed run (see
    /// [`Op::Defer`](crate::Op::Defer)).
    pub(crate) scheduler: MaintenanceScheduler,
    /// Configured buffer capacity, for the modules a ruleset swap builds.
    pub(crate) buffer_capacity: usize,
    /// Triples retired by maintenance runs since the last dictionary
    /// sweep (net deletions: retracted + overdeleted − rederived) — the
    /// sweep trigger's numerator.
    pub(crate) retired_since_sweep: AtomicUsize,
    /// Runs once, inside the next flush, between draining the pending
    /// queue and applying it — holds a drained-but-unapplied set open for
    /// the flush-barrier tests.
    #[cfg(test)]
    pub(crate) flush_drained_hook: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl Engine {
    /// Resolves the current ruleset state. The returned `Arc` stays valid
    /// forever (a swap retires the *engine's* pointer, not the state), but
    /// it is only guaranteed to be the *current* program while the caller
    /// holds a token acquired **before** the resolution: a swap linearises
    /// at zero tokens, so a token pins the resolution. Code that resolves
    /// without a token (stats, Debug) may read a state that a concurrent
    /// swap is retiring — fine for observability, never for dispatch.
    pub(crate) fn rstate(&self) -> Arc<RulesetState> {
        Arc::clone(&self.rstate.read())
    }

    /// No token held and every buffer empty: the closure is complete.
    pub(crate) fn quiescent(&self) -> bool {
        self.work.current() == 0 && self.rstate().modules.iter().all(|m| m.buffer.is_empty())
    }

    /// Drains every non-empty buffer into a rule instance, or with
    /// `stale: Some(timeout)` only those idle for `timeout`. The jobs are
    /// submitted `by` the caller: a waiter's jobs wake no one (see [`Work`]).
    fn flush_buffers(&self, stale: Option<Duration>, by: Drainer) {
        // Guard token, then resolve: the token pins the resolved state, so
        // a racing swap cannot retire these modules (orphaning drained
        // batches or submitting stale rule indexes) mid-scan, and it covers
        // each drained batch until its job holds a token of its own.
        self.work.inc();
        let state = self.rstate();
        for (i, module) in state.modules.iter().enumerate() {
            if let Some(delta) = module.buffer.drain(stale) {
                bump(&module.counters.timeout_flushes, 1);
                if let Some(log) = &self.log {
                    log.record(EventKind::TimeoutFlush { rule: i });
                }
                self.work.submit(i, delta, by);
            }
        }
        self.work.dec();
    }

    /// The one drain loop: runs queued rule instances until [`Work::next`]
    /// says `who` is done — for a worker, when the pool stops (it also
    /// serves the ticks); for a `wait_idle` caller, at zero tokens.
    pub(crate) fn drain(&self, who: Drainer) {
        loop {
            let (rule, delta) = match self.work.next(who) {
                Next::Job(rule, delta) => (rule, delta),
                Next::Tick => {
                    self.serve_deadlines();
                    continue;
                }
                Next::Done => return,
            };
            // A panicking rule instance (a buggy custom rule) must not wedge
            // the reasoner: its token is released either way, and the
            // drainer survives. The default hook printed the panic; add
            // which rule died.
            if catch_unwind(AssertUnwindSafe(|| self.run_job(rule, delta))).is_err() {
                // Resolve the name *before* releasing the token: the token
                // still pins the submission-time state, so the index is in
                // bounds; after dec() a swap could install a smaller ruleset.
                eprintln!(
                    "slider: rule instance for {:?} panicked; its conclusions are lost",
                    self.rstate().modules[rule].rule.name()
                );
            }
            self.work.dec();
        }
    }

    /// The pool's deadline service, once per tick: drains the buffers
    /// stale past the timeout, then runs a max-age-due coalesced flush.
    /// Never called from a waiter's drain: `with_quiescent_store` waits
    /// while holding the maintenance mutex, which a flush takes.
    fn serve_deadlines(&self) {
        if let Some(timeout) = self.timeout {
            self.flush_buffers(Some(timeout), Drainer::Worker);
        }
        if self.scheduler.is_stale() {
            self.flush_maintenance();
        }
    }

    /// Blocks until quiescent (see [`Slider::wait_idle`](crate::Slider::wait_idle)),
    /// running queued rule instances on the calling thread meanwhile.
    pub(crate) fn wait_idle(&self) {
        loop {
            self.flush_buffers(None, Drainer::Waiter);
            self.drain(Drainer::Waiter);
            if self.quiescent() {
                break;
            }
        }
        if let Some(log) = &self.log {
            log.record(EventKind::Idle {
                store_size: self.store.len(),
            });
        }
    }

    /// The input manager ([`Op::Add`](crate::Op::Add)): inserts `triples` as explicit,
    /// cancels their pending retractions and routes the new ones to the
    /// rule buffers. Returns how many were new.
    pub(crate) fn add(&self, triples: &[Triple]) -> usize {
        // Token covers the insert-cancel-route window so `wait_idle` on
        // another thread cannot observe a false quiescence mid-call — and
        // so a coalesced flush (which drains the pending set only at
        // verified quiescence, with the store held exclusively) can never
        // interleave between this call's insert and its cancellation.
        self.work.inc();
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
        self.work.dec();
        fresh.len()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.dict.detach_engine();
    }
}
