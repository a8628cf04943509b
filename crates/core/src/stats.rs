//! Per-module counters — the numbers the paper's demo GUI displays (§4):
//! buffer-full fires, timeout fires, and triples inferred per rule.

use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free counters for one rule module.
#[derive(Debug, Default)]
pub(crate) struct RuleCounters {
    /// Rule instances executed.
    pub fired: AtomicU64,
    /// Instances triggered by a full buffer.
    pub full_flushes: AtomicU64,
    /// Instances triggered by a buffer timeout or a forced flush.
    pub timeout_flushes: AtomicU64,
    /// Triples routed into this rule's buffer.
    pub buffered: AtomicU64,
    /// Conclusions derived (including duplicates).
    pub derived: AtomicU64,
    /// Conclusions that were new to the store (dispatched onward).
    pub fresh: AtomicU64,
}

impl RuleCounters {
    /// A fresh set of counters initialised to this set's current values —
    /// used by ruleset hot-swap to carry a kept rule's history into the
    /// new [`RulesetState`](crate::module::RulesetState) generation.
    pub fn carry(&self) -> RuleCounters {
        RuleCounters {
            fired: AtomicU64::new(self.fired.load(Ordering::Relaxed)),
            full_flushes: AtomicU64::new(self.full_flushes.load(Ordering::Relaxed)),
            timeout_flushes: AtomicU64::new(self.timeout_flushes.load(Ordering::Relaxed)),
            buffered: AtomicU64::new(self.buffered.load(Ordering::Relaxed)),
            derived: AtomicU64::new(self.derived.load(Ordering::Relaxed)),
            fresh: AtomicU64::new(self.fresh.load(Ordering::Relaxed)),
        }
    }
}

/// Global counters.
#[derive(Debug, Default)]
pub(crate) struct GlobalCounters {
    /// Triples offered to the input manager.
    pub input_received: AtomicU64,
    /// Input triples that were new to the store.
    pub input_fresh: AtomicU64,
    /// Maintenance (DRed) runs that retracted at least one triple.
    pub removal_runs: AtomicU64,
    /// Explicit triples retracted by `Remove` and `Flush` ops.
    pub retracted: AtomicU64,
    /// Derived triples deleted during DRed overdeletion (beyond the
    /// retracted assertions themselves).
    pub overdeleted: AtomicU64,
    /// Overdeleted triples restored by the rederivation phase (they had an
    /// alternative derivation from surviving facts).
    pub rederived: AtomicU64,
    /// Distinct retractions enqueued by `Defer` ops (whether or not
    /// they have been flushed yet).
    pub deferred: AtomicU64,
    /// Pending retractions cancelled because the triple was re-asserted
    /// while its retraction was still pending.
    pub cancelled: AtomicU64,
    /// Coalesced maintenance runs: flushes of the deferred queue that
    /// drained at least one pending retraction.
    pub coalesced_runs: AtomicU64,
    /// Live ruleset replacements completed by `Swap` ops.
    pub ruleset_swaps: AtomicU64,
}

#[inline]
pub(crate) fn bump(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Ordering::Relaxed);
}

/// A point-in-time copy of one rule module's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleStats {
    /// Rule name (paper naming, e.g. `"CAX-SCO"`).
    pub name: &'static str,
    /// Rule instances executed.
    pub fired: u64,
    /// Instances triggered by a full buffer.
    pub full_flushes: u64,
    /// Instances triggered by draining a partly filled buffer: a buffer
    /// timeout, and also every forced flush
    /// ([`Slider::wait_idle`](crate::Slider::wait_idle)). In batch mode
    /// (`timeout: None`) every count here is a forced flush.
    pub timeout_flushes: u64,
    /// Triples routed into this rule's buffer.
    pub buffered: u64,
    /// Conclusions derived (including duplicates).
    pub derived: u64,
    /// Conclusions new to the store.
    pub fresh: u64,
    /// The module's fire threshold: the configured
    /// [`SliderConfig::buffer_capacity`](crate::SliderConfig::buffer_capacity).
    pub buffer_capacity: usize,
}

impl RuleStats {
    /// Duplicates dropped by this rule's distributor.
    pub fn duplicates(&self) -> u64 {
        self.derived - self.fresh
    }
}

/// A point-in-time copy of all reasoner counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Per-rule counters, in ruleset order.
    pub rules: Vec<RuleStats>,
    /// Triples offered to the input manager.
    pub input_received: u64,
    /// Input triples that were new to the store.
    pub input_fresh: u64,
    /// Store size as of the last write.
    pub store_size: usize,
    /// Store composition as of the last write, including the
    /// explicit/derived provenance split (`store.triples == store_size`).
    pub store: slider_store::StoreStats,
    /// Maintenance (DRed) runs that retracted at least one triple.
    pub removal_runs: u64,
    /// Explicit triples retracted by `Remove` and `Flush` ops.
    pub retracted: u64,
    /// Derived triples deleted during DRed overdeletion (beyond the
    /// retracted assertions themselves).
    pub overdeleted: u64,
    /// Overdeleted triples restored by rederivation.
    pub rederived: u64,
    /// Distinct retractions ever enqueued by `Defer` ops.
    pub deferred: u64,
    /// Pending retractions cancelled by re-assertion: the triple was
    /// `add_*`ed again while its deferred retraction was still pending, so
    /// the retraction was dropped instead of applied at the next flush.
    pub cancelled_removals: u64,
    /// Deferred retractions still pending: enqueued and not yet flushed,
    /// or drained by a flush whose outcome is not yet counted. Once this
    /// reads 0, `retracted` and the other removal counters of the same
    /// snapshot include every flushed retraction.
    pub pending_removals: usize,
    /// Coalesced maintenance runs (non-empty flushes,
    /// whether explicit, threshold- or deadline-triggered). Each coalesced
    /// run also counts towards [`StatsSnapshot::removal_runs`] when it
    /// retracted at least one explicit triple.
    pub coalesced_runs: u64,
    /// Age of the oldest pending retraction at snapshot time — the
    /// **staleness bound**: every query answered now reflects a closure at
    /// most this much older than the retraction stream. `None` when
    /// nothing is pending. Also available without a full snapshot as
    /// [`Slider::pending_staleness`](crate::Slider::pending_staleness).
    pub oldest_pending_age: Option<std::time::Duration>,
    /// Times the store was taken exclusively — every DRed run /
    /// quiescent-store section is one acquisition, and so is every direct
    /// store removal. Inserts and reads never count here (see
    /// [`ShardedStore`](slider_store::ShardedStore)).
    pub gate_write_acquisitions: u64,
    /// Times the store lock was contended: a write (distributor, input or
    /// exclusive section) found the lock held — by another writer or by a
    /// rule join's shared read — and had to wait. High values relative to
    /// write volume mean writers are queueing on the one store lock.
    pub shard_write_conflicts: u64,
    /// The store's generation at snapshot time: one per store write that
    /// changed something and one per exclusive section — changes, not
    /// epoch builds (an epoch is built when a query asks). A reader
    /// holding an [`EpochSnapshot`](slider_store::EpochSnapshot) with a
    /// lower generation sees an older — but internally consistent — cut
    /// of the store.
    pub snapshot_generation: u64,
    /// Live ruleset replacements completed by
    /// [`Op::Swap`](crate::Op::Swap).
    pub ruleset_swaps: u64,
    /// Live terms in the shared dictionary at snapshot time (vocabulary
    /// included, swept ids excluded).
    pub dict_terms: usize,
    /// Dictionary ids swept so far. A swept id is never reused: it looks
    /// up as `None` for good.
    pub dict_tombstones: usize,
    /// Estimated resident bytes of the dictionary: term string heap plus
    /// per-term index/slot overhead. Each term's payload is counted once —
    /// the id→term slot and the term→id index key share one allocation.
    pub dict_bytes_estimate: usize,
    /// Times an interning write found its dictionary shard's write lock
    /// contended (the term index has 16 shards). High values relative to
    /// intern volume mean concurrent loaders are colliding on shards.
    pub dict_shard_conflicts: u64,
    /// Dictionary compaction sweeps completed (automatic post-retraction
    /// sweeps and explicit
    /// [`Slider::sweep_dictionary`](crate::Slider::sweep_dictionary) calls).
    pub dict_sweeps: u64,
}

impl StatsSnapshot {
    /// Total triples inferred (fresh conclusions across all rules).
    pub fn total_inferred(&self) -> u64 {
        self.rules.iter().map(|r| r.fresh).sum()
    }

    /// Total conclusions derived, including duplicates.
    pub fn total_derived(&self) -> u64 {
        self.rules.iter().map(|r| r.derived).sum()
    }

    /// Total rule instances executed.
    pub fn total_fired(&self) -> u64 {
        self.rules.iter().map(|r| r.fired).sum()
    }

    /// Fraction of derivations that were duplicates.
    pub fn duplicate_ratio(&self) -> f64 {
        let derived = self.total_derived();
        if derived == 0 {
            0.0
        } else {
            1.0 - self.total_inferred() as f64 / derived as f64
        }
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "input: {} received, {} fresh; store: {} triples ({} explicit, {} derived)",
            self.input_received,
            self.input_fresh,
            self.store_size,
            self.store.explicit,
            self.store.derived
        )?;
        if self.removal_runs > 0 {
            writeln!(
                f,
                "removals: {} runs, {} retracted, {} overdeleted, {} rederived",
                self.removal_runs, self.retracted, self.overdeleted, self.rederived
            )?;
        }
        if self.deferred > 0 {
            write!(
                f,
                "deferred: {} enqueued, {} pending, {} coalesced runs, {} cancelled",
                self.deferred, self.pending_removals, self.coalesced_runs, self.cancelled_removals
            )?;
            if let Some(age) = self.oldest_pending_age {
                write!(f, ", oldest pending {:.1} ms", age.as_secs_f64() * 1e3)?;
            }
            writeln!(f)?;
        }
        writeln!(
            f,
            "store lock: {} exclusive acquisitions, {} contended writes",
            self.gate_write_acquisitions, self.shard_write_conflicts
        )?;
        writeln!(
            f,
            "epochs: generation {}, {} ruleset swaps",
            self.snapshot_generation, self.ruleset_swaps
        )?;
        writeln!(
            f,
            "dict: {} terms, {} tombstones, {} bytes, {} shard conflicts, {} sweeps",
            self.dict_terms,
            self.dict_tombstones,
            self.dict_bytes_estimate,
            self.dict_shard_conflicts,
            self.dict_sweeps
        )?;
        writeln!(
            f,
            "{:<10} {:>8} {:>8} {:>8} {:>10} {:>10} {:>10}",
            "rule", "fired", "full", "timeout", "buffered", "derived", "fresh"
        )?;
        for r in &self.rules {
            writeln!(
                f,
                "{:<10} {:>8} {:>8} {:>8} {:>10} {:>10} {:>10}",
                r.name, r.fired, r.full_flushes, r.timeout_flushes, r.buffered, r.derived, r.fresh
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs(name: &'static str, derived: u64, fresh: u64) -> RuleStats {
        RuleStats {
            name,
            fired: 1,
            full_flushes: 1,
            timeout_flushes: 0,
            buffered: 10,
            derived,
            fresh,
            buffer_capacity: 1024,
        }
    }

    fn snap(rules: Vec<RuleStats>, input_received: u64, input_fresh: u64) -> StatsSnapshot {
        StatsSnapshot {
            rules,
            input_received,
            input_fresh,
            store_size: 0,
            store: slider_store::StoreStats::default(),
            removal_runs: 0,
            retracted: 0,
            overdeleted: 0,
            rederived: 0,
            deferred: 0,
            cancelled_removals: 0,
            pending_removals: 0,
            coalesced_runs: 0,
            oldest_pending_age: None,
            gate_write_acquisitions: 0,
            shard_write_conflicts: 0,
            snapshot_generation: 0,
            ruleset_swaps: 0,
            dict_terms: 0,
            dict_tombstones: 0,
            dict_bytes_estimate: 0,
            dict_shard_conflicts: 0,
            dict_sweeps: 0,
        }
    }

    #[test]
    fn aggregation() {
        let snap = snap(vec![rs("A", 10, 4), rs("B", 6, 6)], 100, 90);
        assert_eq!(snap.total_inferred(), 10);
        assert_eq!(snap.total_derived(), 16);
        assert_eq!(snap.total_fired(), 2);
        assert!((snap.duplicate_ratio() - 0.375).abs() < 1e-9);
        assert_eq!(snap.rules[0].duplicates(), 6);
    }

    #[test]
    fn display_renders_table() {
        let snap = snap(vec![rs("CAX-SCO", 5, 5)], 1, 1);
        let text = snap.to_string();
        assert!(text.contains("CAX-SCO"));
        assert!(text.contains("fresh"));
        // Removal line only appears once a removal ran.
        assert!(!text.contains("removals:"));
        let mut with_removals = snap.clone();
        with_removals.removal_runs = 1;
        with_removals.retracted = 2;
        with_removals.overdeleted = 3;
        with_removals.rederived = 1;
        let text = with_removals.to_string();
        assert!(text.contains("removals: 1 runs, 2 retracted, 3 overdeleted, 1 rederived"));
        // Deferred line only appears once something was deferred.
        assert!(!text.contains("deferred:"));
        with_removals.deferred = 5;
        with_removals.pending_removals = 2;
        with_removals.coalesced_runs = 1;
        with_removals.cancelled_removals = 3;
        let text = with_removals.to_string();
        assert!(text.contains("deferred: 5 enqueued, 2 pending, 1 coalesced runs, 3 cancelled"));
        // The staleness bound only renders while something is pending.
        assert!(!text.contains("oldest pending"));
        with_removals.oldest_pending_age = Some(std::time::Duration::from_millis(4));
        assert!(with_removals.to_string().contains("oldest pending 4.0 ms"));
        // The lock-contention line always renders.
        with_removals.gate_write_acquisitions = 6;
        with_removals.shard_write_conflicts = 2;
        assert!(with_removals
            .to_string()
            .contains("store lock: 6 exclusive acquisitions, 2 contended writes"));
        // So does the epoch line.
        with_removals.snapshot_generation = 9;
        with_removals.ruleset_swaps = 1;
        assert!(with_removals
            .to_string()
            .contains("epochs: generation 9, 1 ruleset swaps"));
        // And the dictionary footprint line.
        with_removals.dict_terms = 120;
        with_removals.dict_tombstones = 8;
        with_removals.dict_bytes_estimate = 4096;
        with_removals.dict_shard_conflicts = 2;
        with_removals.dict_sweeps = 1;
        assert!(with_removals
            .to_string()
            .contains("dict: 120 terms, 8 tombstones, 4096 bytes, 2 shard conflicts, 1 sweeps"));
    }

    #[test]
    fn zero_derivations_ratio() {
        let snap = snap(vec![], 0, 0);
        assert_eq!(snap.duplicate_ratio(), 0.0);
    }
}
