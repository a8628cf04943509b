//! The operations that hold the quiescent store exclusively: eager DRed
//! removal, the coalesced flush, dictionary sweeps and ruleset swaps.

use crate::engine::Engine;
use crate::maintenance::{self, RemovalOutcome};
use crate::module::build_state;
use crate::stats::bump;
use crate::trace::EventKind;
use slider_model::{FxHashSet, NodeId, SweepOutcome, Triple};
use slider_rules::{Rule, Ruleset};
use slider_store::VerticalStore;
use std::cell::OnceCell;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Absolute floor for the automatic dictionary sweep: below this many
/// retirements since the last sweep, a sweep cannot reclaim enough to pay
/// for its liveness scan, whatever the ratio says.
const DICT_SWEEP_MIN_RETIRED: usize = 1024;
/// The automatic dictionary sweep also waits until the retirements since
/// the last sweep reach this fraction of the dictionary's live terms.
const DICT_SWEEP_RATIO: f64 = 0.5;

impl Engine {
    /// Runs `f` on the quiescent store: drains all in-flight derivations,
    /// then re-checks quiescence *while holding the store lock*
    /// ([`ShardedStore::exclusive`](slider_store::ShardedStore::exclusive)) — an `add_triples` that slipped in
    /// after `wait_idle` still holds its token until its routing
    /// (and pending-retraction cancellation) is done, so a clean check
    /// here means no rule instance can be holding stale premises and no
    /// assertion is midway through cancelling a pending retraction.
    /// Blocked writers proceed after `f` and join against the
    /// post-maintenance store — sound either way. Until queries overlap
    /// writes, the section publishes no epoch, so `f` changes the tables in
    /// place and a query that meets it waits for the post-section store;
    /// after, queries answer from the pre-section epoch until the guard
    /// releases. `f` must read `store`, never query `self.store`: on this
    /// thread such a query would wait for its own section.
    /// So `f` sees a store no concurrent operation can touch. Returns
    /// `f`'s result and the store size captured under the lock (racing
    /// adders blocked on it must not leak into "store size after
    /// maintenance" reported by the trace events).
    fn with_quiescent_store<R>(&self, f: impl FnOnce(&mut VerticalStore) -> R) -> (R, usize) {
        let mut f = Some(f);
        loop {
            self.wait_idle();
            let mut store = self.store.exclusive();
            if self.quiescent() {
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
    /// (its net deletions: a rederived triple came back and frees no
    /// term). Sweeps once the retirements since the last sweep clear both
    /// [`DICT_SWEEP_MIN_RETIRED`] and [`DICT_SWEEP_RATIO`] of the live
    /// terms: bursts sweep, trickles never do. The run's section has
    /// released by now, so an epoch from before it (published on its entry
    /// once queries overlap writes, or built earlier) is a root only if a
    /// query still holds it.
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

    /// [`Op::Sweep`](crate::Op::Sweep): one sweep under the maintenance mutex.
    pub(crate) fn sweep_dictionary(&self) -> SweepOutcome {
        let _serial = self.maintenance.lock();
        self.sweep_dict_now()
    }

    /// Sweeps the dictionary in a quiescent section of its own (the caller
    /// holds the maintenance mutex), so no intern→insert window can race
    /// the scan. The one root rule: an id survives if it is below
    /// [`RulesetState::roots_below`](crate::module::RulesetState::roots_below), or if a triple in the live store, in
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

    /// The ids of the triples [`Engine::sweep_dict_now`] keeps decodable:
    /// those in the live store, in the epochs queries hold (and, once
    /// queries overlap writes, the one this section published on entry),
    /// and in the pending-retraction queue.
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

    /// Enqueues retractions ([`Op::Defer`](crate::Op::Defer)), flushing at the threshold.
    /// Returns how many were newly enqueued.
    pub(crate) fn defer(&self, triples: &[Triple]) -> usize {
        let (fresh, threshold_hit) = self.scheduler.enqueue(triples);
        bump(&self.globals.deferred, fresh as u64);
        if threshold_hit {
            self.flush_maintenance();
        }
        fresh
    }

    /// One eager DRed run over `triples` ([`Op::Remove`](crate::Op::Remove)).
    pub(crate) fn remove_eager(&self, triples: &[Triple]) -> RemovalOutcome {
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
        self.maybe_sweep_dict(outcome.net_deleted());
        outcome
    }

    /// Drains the deferred-retraction queue and applies it in one DRed
    /// pass over the union ([`Op::Flush`](crate::Op::Flush)).
    pub(crate) fn flush_maintenance(&self) -> RemovalOutcome {
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
        self.maybe_sweep_dict(outcome.net_deleted());
        outcome
    }

    /// Replaces the ruleset on the live engine ([`Op::Swap`](crate::Op::Swap)).
    pub(crate) fn swap_ruleset(&self, ruleset: Ruleset) -> SwapOutcome {
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

/// What an [`Op::Swap`](crate::Op::Swap) did, phase by phase.
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
