//! The concurrent reasoner's store: the paper's one lock over one
//! vertically partitioned store (§2.2), read through published epochs.
//!
//! **Writers** — an insert or removal batch, or an
//! [`ShardedStore::exclusive`] section (DRed, ruleset swaps, dictionary
//! sweeps) — take the lock, apply their changes in order, publish **one**
//! new epoch if anything changed, and release. **Readers** never take it:
//! [`ShardedStore::snapshot`] clones the `Arc` of the published
//! [`EpochSnapshot`], a generation-stamped copy-on-write clone of the store
//! (tables are `Arc`-shared: a clone costs O(#predicates), and a table is
//! deep-copied on its first write after a publication). Reads never wait,
//! never see a half-applied write, and a pinned epoch never changes.

use crate::pattern::TriplePattern;
use crate::vertical::{StoreStats, VerticalStore};
use parking_lot::{Mutex, MutexGuard};
use slider_model::Triple;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// One [`VerticalStore`] behind one writer lock, read through epochs.
/// Writes report the triples actually new (or removed) — the paper's
/// duplicate limitation.
#[derive(Debug, Default)]
pub struct ShardedStore {
    /// The live store; only writers lock it.
    store: Mutex<VerticalStore>,
    /// The published epoch, locked only to clone or swap the `Arc`.
    published: Mutex<Arc<EpochSnapshot>>,
    /// Triples as of the last publication, so `len()` takes no lock.
    len: AtomicUsize,
    /// Exclusive acquisitions: `exclusive`, `remove` and `remove_batch`.
    gate_writes: AtomicU64,
    /// Writes that found the lock held (the fast path is a `try_lock`).
    conflicts: AtomicU64,
}

impl ShardedStore {
    /// An empty store.
    pub fn new() -> Self {
        ShardedStore::default()
    }

    /// Wraps an existing store as epoch 0.
    pub fn from_store(store: VerticalStore) -> Self {
        let epoch = EpochSnapshot {
            generation: 0,
            store: store.clone(),
        };
        ShardedStore {
            len: AtomicUsize::new(store.len()),
            published: Mutex::new(Arc::new(epoch)),
            store: Mutex::new(store),
            ..ShardedStore::default()
        }
    }

    /// Locks the store, counting a conflict if it was held.
    fn lock(&self) -> MutexGuard<'_, VerticalStore> {
        self.store.try_lock().unwrap_or_else(|| {
            self.conflicts.fetch_add(1, Ordering::Relaxed);
            self.store.lock()
        })
    }

    /// Publishes a clone of `store` as the next epoch. Callers hold the
    /// store lock, so generations follow mutation order.
    fn publish(&self, store: &VerticalStore) {
        self.len.store(store.len(), Ordering::Relaxed);
        let generation = self.snapshot_generation() + 1;
        let epoch = Arc::new(EpochSnapshot {
            generation,
            store: store.clone(),
        });
        // Drop the old epoch outside the mutex: it may free whole tables.
        let old = std::mem::replace(&mut *self.published.lock(), epoch);
        drop(old);
    }

    /// The published epoch — the read path; never waits on a writer.
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&self.published.lock())
    }

    /// Generation of the most recently published epoch (monotone).
    pub fn snapshot_generation(&self) -> u64 {
        self.published.lock().generation
    }

    /// Inserts a batch as derived triples; appends the *new* ones to
    /// `fresh` in input order and returns how many were new.
    pub fn insert_batch(&self, triples: &[Triple], fresh: &mut Vec<Triple>) -> usize {
        self.write_batch(triples, fresh, VerticalStore::insert)
    }

    /// [`ShardedStore::insert_batch`] for **explicit** (asserted) facts —
    /// the input manager's path.
    pub fn insert_batch_explicit(&self, triples: &[Triple], fresh: &mut Vec<Triple>) -> usize {
        self.write_batch(triples, fresh, VerticalStore::insert_explicit)
    }

    /// Removes a batch; appends the triples that were present to `removed`
    /// and returns how many were. Counts as an exclusive acquisition.
    pub fn remove_batch(&self, triples: &[Triple], removed: &mut Vec<Triple>) -> usize {
        if !triples.is_empty() {
            self.gate_writes.fetch_add(1, Ordering::Relaxed);
        }
        self.write_batch(triples, removed, VerticalStore::remove)
    }

    /// Locks once, applies `op` in input order collecting its hits, and
    /// publishes once if anything changed — a provenance-only flip (a
    /// derived triple re-asserted) included.
    fn write_batch(
        &self,
        triples: &[Triple],
        hits: &mut Vec<Triple>,
        mut op: impl FnMut(&mut VerticalStore, Triple) -> bool,
    ) -> usize {
        if triples.is_empty() {
            return 0;
        }
        let before = hits.len();
        let mut store = self.lock();
        let explicit = store.explicit_count();
        hits.extend(triples.iter().copied().filter(|&t| op(&mut store, t)));
        if hits.len() > before || store.explicit_count() != explicit {
            self.publish(&store);
        }
        hits.len() - before
    }

    /// Inserts one derived triple; returns `true` if new.
    pub fn insert(&self, t: Triple) -> bool {
        self.insert_batch(&[t], &mut Vec::new()) == 1
    }

    /// Removes one triple; returns `true` if it was present.
    pub fn remove(&self, t: Triple) -> bool {
        self.remove_batch(&[t], &mut Vec::new()) == 1
    }

    /// True if `t` is in the published epoch.
    pub fn contains(&self, t: Triple) -> bool {
        self.snapshot().contains(t)
    }

    /// Holds the store lock for a compound mutation such as a DRed run —
    /// the only `&mut VerticalStore` access. Readers see the pre-section
    /// epoch until the guard drops and publishes once.
    pub fn exclusive(&self) -> ExclusiveStore<'_> {
        self.gate_writes.fetch_add(1, Ordering::Relaxed);
        ExclusiveStore {
            owner: self,
            store: self.lock(),
        }
    }

    /// Total number of triples (lock-free).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exclusive acquisitions: `exclusive`, `remove` and `remove_batch`.
    pub fn gate_write_acquisitions(&self) -> u64 {
        self.gate_writes.load(Ordering::Relaxed)
    }

    /// Writes and exclusive sections that had to wait for the lock.
    pub fn shard_write_conflicts(&self) -> u64 {
        self.conflicts.load(Ordering::Relaxed)
    }

    /// Statistics of the published epoch.
    pub fn stats(&self) -> StoreStats {
        self.snapshot().stats()
    }

    /// Every triple of the published epoch, sorted (deterministic).
    pub fn to_sorted_vec(&self) -> Vec<Triple> {
        self.snapshot().to_sorted_vec()
    }

    /// The published epoch's triples matching `pattern`.
    pub fn matches(&self, pattern: TriplePattern) -> Vec<Triple> {
        self.snapshot().matches(pattern)
    }

    /// Consumes the wrapper, returning the live store.
    pub fn into_inner(self) -> VerticalStore {
        self.store.into_inner()
    }
}

/// The store lock held by [`ShardedStore::exclusive`]. Dereferences to the
/// live [`VerticalStore`]; dropping it publishes one epoch and releases.
pub struct ExclusiveStore<'a> {
    owner: &'a ShardedStore,
    store: MutexGuard<'a, VerticalStore>,
}

impl std::ops::Deref for ExclusiveStore<'_> {
    type Target = VerticalStore;
    fn deref(&self) -> &VerticalStore {
        &self.store
    }
}

impl std::ops::DerefMut for ExclusiveStore<'_> {
    fn deref_mut(&mut self) -> &mut VerticalStore {
        &mut self.store
    }
}

impl Drop for ExclusiveStore<'_> {
    fn drop(&mut self) {
        // Runs before the guard field releases the lock.
        self.owner.publish(&self.store);
    }
}

/// An immutable, generation-stamped epoch — the read path. Dereferences to
/// the [`VerticalStore`] as of its publication; queries take no lock, and
/// an epoch taken before a flush keeps answering from the pre-flush state.
#[derive(Debug, Default)]
pub struct EpochSnapshot {
    generation: u64,
    store: VerticalStore,
}

impl EpochSnapshot {
    /// The publication stamp, strictly increasing per owning store.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

impl std::ops::Deref for EpochSnapshot {
    type Target = VerticalStore;
    fn deref(&self) -> &VerticalStore {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slider_model::NodeId;

    fn t(s: u64, p: u64, o: u64) -> Triple {
        Triple::new(NodeId(s), NodeId(p), NodeId(o))
    }

    #[test]
    fn batch_insert_dedups() {
        let st = ShardedStore::new();
        let mut fresh = Vec::new();
        assert_eq!(st.insert_batch(&[t(1, 2, 3), t(1, 2, 3)], &mut fresh), 1);
        assert_eq!(fresh, vec![t(1, 2, 3)]);
        fresh.clear();
        assert_eq!(st.insert_batch(&[t(1, 2, 3)], &mut fresh), 0);
        assert!(fresh.is_empty());
        assert_eq!(st.len(), 1);
    }

    #[test]
    fn empty_batch_short_circuits() {
        let st = ShardedStore::new();
        assert_eq!(st.insert_batch(&[], &mut Vec::new()), 0);
        assert_eq!(st.snapshot_generation(), 0);
    }

    #[test]
    fn multi_predicate_batch_preserves_input_order() {
        let st = ShardedStore::new();
        let batch: Vec<Triple> = (1..=6).map(|p| t(p, p, p)).collect();
        let mut fresh = Vec::new();
        assert_eq!(st.insert_batch(&batch, &mut fresh), 6);
        assert_eq!(fresh, batch);
        assert_eq!(st.len(), 6);
    }

    /// One write is one publication, however many predicates it spans: a
    /// batch over five property tables bumps the generation by exactly one,
    /// an all-duplicate batch by zero, a removal batch by one.
    #[test]
    fn one_write_batch_publishes_one_epoch() {
        let st = ShardedStore::new();
        let batch: Vec<Triple> = (0..30).map(|i| t(i, i % 5, i + 1)).collect();
        assert_eq!(st.insert_batch(&batch, &mut Vec::new()), 30);
        assert_eq!(st.snapshot_generation(), 1, "one batch, five predicates");
        assert_eq!(st.insert_batch(&batch, &mut Vec::new()), 0);
        assert_eq!(st.snapshot_generation(), 1, "all-duplicate batch");
        assert_eq!(st.remove_batch(&batch[..12], &mut Vec::new()), 12);
        assert_eq!(st.snapshot_generation(), 2, "one removal batch");
        assert_eq!((st.len(), st.snapshot().len()), (18, 18));
    }

    #[test]
    fn explicit_insert_and_remove() {
        let st = ShardedStore::new();
        let mut fresh = Vec::new();
        assert_eq!(st.insert_batch_explicit(&[t(1, 2, 3)], &mut fresh), 1);
        st.insert(t(4, 2, 3)); // derived
        let snap = st.snapshot();
        assert!(snap.is_explicit(t(1, 2, 3)));
        assert!(!snap.is_explicit(t(4, 2, 3)));
        let mut removed = Vec::new();
        assert_eq!(st.remove_batch(&[t(1, 2, 3), t(9, 9, 9)], &mut removed), 1);
        assert_eq!(removed, vec![t(1, 2, 3)]);
        assert!(st.remove(t(4, 2, 3)));
        assert!(st.is_empty());
        assert_eq!(st.remove_batch(&[], &mut removed), 0);
        assert_eq!(st.gate_write_acquisitions(), 2);
    }

    #[test]
    fn exclusive_guard_compound_mutation() {
        let st = ShardedStore::new();
        st.insert(t(1, 2, 3));
        {
            let mut guard = st.exclusive();
            guard.remove(t(1, 2, 3));
            guard.insert_explicit(t(7, 8, 9));
        }
        assert_eq!(st.len(), 1);
        assert!(st.snapshot().is_explicit(t(7, 8, 9)));
        assert!(!st.contains(t(1, 2, 3)));
        assert_eq!(st.gate_write_acquisitions(), 1);
        assert_eq!((st.stats().triples, st.stats().explicit), (1, 1));
    }

    #[test]
    fn read_snapshot_queries() {
        let st = ShardedStore::new();
        st.insert_batch(&[t(1, 10, 2), t(1, 10, 3), t(5, 20, 6)], &mut Vec::new());
        let snap = st.snapshot();
        assert_eq!(snap.objects_with(NodeId(10), NodeId(1)).count(), 2);
        assert_eq!(snap.subjects_with(NodeId(20), NodeId(6)).count(), 1);
        assert_eq!(snap.pairs(NodeId(10)).count(), 2);
        assert_eq!(snap.count_with_p(NodeId(10)), 2);
        assert_eq!((snap.len(), snap.iter().count()), (3, 3));
        assert!(snap.contains(t(5, 20, 6)));
        assert_eq!(snap.matches(TriplePattern::with_p(NodeId(10))).len(), 2);
    }

    /// Every insert that reported "new" is exactly one stored triple,
    /// however eight writers interleave (half the keys collide).
    #[test]
    fn concurrent_writers_never_lose_or_duplicate() {
        let st = ShardedStore::new();
        let writer = |tid: u64| {
            let st = &st;
            move || -> usize {
                let key = |i: u64| if i % 2 == 0 { i } else { i * 1_000 + tid };
                let batch = |i: u64| [t(key(i), i % 7, 1)];
                (0..1_000)
                    .map(|i| st.insert_batch(&batch(i), &mut Vec::new()))
                    .sum()
            }
        };
        let total_new: usize = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..8).map(|tid| scope.spawn(writer(tid))).collect();
            writers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(total_new, st.len());
        assert_eq!(st.len(), st.to_sorted_vec().len());
    }

    /// The rule-instance pattern: grab a snapshot, run many lookups.
    #[test]
    fn readers_run_during_reasoning_shape() {
        let st = ShardedStore::new();
        let chain: Vec<Triple> = (0..100).map(|i| t(i, 7, i + 1)).collect();
        st.insert_batch(&chain, &mut Vec::new());
        let lookups = || {
            let snap = st.snapshot();
            (0..100)
                .map(|i| snap.objects_with(NodeId(7), NodeId(i)).count())
                .sum::<usize>()
        };
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..4).map(|_| scope.spawn(lookups)).collect();
            for reader in readers {
                assert_eq!(reader.join().unwrap(), 100);
            }
        });
    }

    #[test]
    fn into_inner_roundtrip() {
        let st = ShardedStore::new();
        st.insert_batch(&[t(1, 2, 3), t(4, 5, 6)], &mut Vec::new());
        let inner = st.into_inner();
        assert!(inner.contains(t(1, 2, 3)));
        assert_eq!(inner.len(), 2);
        let st2 = ShardedStore::from_store(inner);
        assert_eq!(st2.len(), 2);
        assert!(st2.contains(t(4, 5, 6)));
    }

    /// The acceptance pin for the epoch read path: with the store's one
    /// write lock — the lock every predicate's shard lives under — held
    /// **on this very thread** (a locking read path would self-deadlock
    /// here), every query API answers.
    #[test]
    fn reads_complete_while_a_shard_write_lock_is_held() {
        let st = ShardedStore::new();
        st.insert(t(1, 7, 2));
        let guard = st.exclusive();
        assert!(st.contains(t(1, 7, 2)));
        assert!(!st.snapshot().is_explicit(t(1, 7, 2)));
        assert_eq!(st.stats().triples, 1);
        assert_eq!(st.to_sorted_vec(), vec![t(1, 7, 2)]);
        assert_eq!(
            st.matches(TriplePattern::new(None, Some(NodeId(7)), None)),
            vec![t(1, 7, 2)]
        );
        let snap = st.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap.iter().count(), 1);
        drop(guard);
    }

    /// Reads answer while an exclusive section holds the store lock — even
    /// on the thread holding it, where a locking read would self-deadlock —
    /// and see the pre-exclusive epoch; the section's mutation appears
    /// atomically at release. A writer arriving meanwhile waits, and counts
    /// as a conflict.
    #[test]
    fn reads_see_the_pre_exclusive_epoch_until_release() {
        let st = ShardedStore::new();
        st.insert(t(1, 7, 2));
        let mut guard = st.exclusive();
        guard.remove(t(1, 7, 2));
        guard.insert(t(9, 7, 9));
        assert!(st.contains(t(1, 7, 2)), "pre-exclusive epoch answers");
        assert!(!st.contains(t(9, 7, 9)), "mid-section state invisible");
        assert_eq!(st.stats().triples, 1);
        assert_eq!(st.to_sorted_vec(), vec![t(1, 7, 2)]);
        assert_eq!(st.matches(TriplePattern::with_p(NodeId(7))).len(), 1);
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| st.insert(t(5, 7, 5)));
            while st.shard_write_conflicts() == 0 {
                std::thread::yield_now();
            }
            assert!(!st.contains(t(5, 7, 5)), "the writer waits for the section");
            drop(guard);
            assert!(writer.join().unwrap());
        });
        assert!(!st.contains(t(1, 7, 2)));
        assert!(st.contains(t(9, 7, 9)));
        assert_eq!(st.len(), 2);
    }

    /// A held snapshot keeps answering exactly as acquired across later
    /// inserts and removals, and generations strictly increase.
    #[test]
    fn epoch_snapshots_are_immutable_and_generations_monotone() {
        let st = ShardedStore::new();
        st.insert(t(1, 7, 2));
        let before = st.snapshot();
        st.insert(t(3, 7, 4));
        st.remove(t(1, 7, 2));
        let after = st.snapshot();
        assert!(after.generation() > before.generation());
        assert_eq!(st.snapshot_generation(), after.generation());
        assert_eq!(before.to_sorted_vec(), vec![t(1, 7, 2)], "epoch changed");
        assert_eq!(after.to_sorted_vec(), vec![t(3, 7, 4)]);
    }

    /// Re-asserting a *derived* triple changes only its provenance — no
    /// fresh triple — but the flip must still republish the epoch, or its
    /// `stats()`/`is_explicit` would serve the stale flag forever.
    #[test]
    fn explicit_reassertion_of_a_derived_triple_republishes_the_epoch() {
        let st = ShardedStore::new();
        let mut fresh = Vec::new();
        st.insert_batch(&[t(1, 7, 2)], &mut fresh); // derived provenance
        assert_eq!(st.stats().explicit, 0);
        let before = st.snapshot_generation();
        fresh.clear();
        assert_eq!(st.insert_batch_explicit(&[t(1, 7, 2)], &mut fresh), 0);
        assert!(fresh.is_empty(), "provenance flip is not a fresh triple");
        assert!(st.snapshot().is_explicit(t(1, 7, 2)), "flip invisible");
        assert_eq!((st.stats().explicit, st.stats().triples), (1, 1));
        assert_eq!(st.snapshot_generation(), before + 1, "flip unpublished");
        // Re-asserting an explicit triple mutates and publishes nothing.
        assert_eq!(st.insert_batch_explicit(&[t(1, 7, 2)], &mut fresh), 0);
        assert_eq!(st.snapshot_generation(), before + 1);
    }

    #[test]
    fn stats_count_every_predicate() {
        let st = ShardedStore::new();
        st.insert_batch_explicit(&[t(1, 10, 2), t(1, 20, 2)], &mut Vec::new());
        st.insert(t(3, 10, 4));
        let stats = st.stats();
        assert_eq!((stats.triples, stats.explicit, stats.derived), (3, 2, 1));
        assert_eq!((stats.predicates, stats.largest_partition), (2, 2));
    }
}
