//! The concurrent reasoner's store: the paper's one vertically
//! partitioned store (§2.2) behind one reader-writer lock, with epochs
//! built for readers outside the engine when they ask.
//!
//! **Rule joins** read the live store under a shared lock
//! ([`ShardedStore::read`]), so joins run side by side and drop the
//! conclusions already present before they write. **Writers** — an insert
//! or removal batch, or an [`ShardedStore::exclusive`] section (DRed,
//! ruleset swaps, dictionary sweeps) — take the lock exclusively, apply
//! their changes in order, bump the generation **once** if anything
//! changed, and release. **Queries** ([`ShardedStore::snapshot`] and the
//! wrappers over it) read an [`EpochSnapshot`]: a generation-stamped
//! copy-on-write clone of the store (tables are `Arc`-shared, so a clone
//! costs O(#predicates)) built by the first query after a write. No query
//! sees a half-applied write or section; a pinned epoch never changes.
//!
//! Batches and sections enter alike. Until a query has had to wait for a
//! writer, a writer retires an epoch no query holds, so the tables change
//! in place: a table is deep-copied only while a query pins an epoch that
//! shares it, and a query that finds the epoch stale meanwhile waits for
//! the post-write state. From then on queries overlap writes for good:
//! every writer publishes the pre-write epoch on entry and builds the next
//! before it releases, so no query waits again. A store queried only
//! between writes never switches.
//!
//! The store keeps a `Weak` to every epoch it builds, so
//! [`ShardedStore::live_epochs`] can name every epoch some reader still
//! holds — the roots a dictionary sweep must keep decodable.

use crate::pattern::TriplePattern;
use crate::vertical::{StoreStats, VerticalStore};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use slider_model::Triple;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// One [`VerticalStore`] behind one reader-writer lock, queried through
/// epochs. Writes report the triples actually new (or removed) — the
/// paper's duplicate limitation.
#[derive(Debug, Default)]
pub struct ShardedStore {
    /// The live store: shared by rule joins, exclusive for writers.
    store: RwLock<VerticalStore>,
    /// The current epoch, `None` while stale. Filled only under a lock on
    /// `store` with its state (on a writer's entry once queries overlap
    /// writes, never mid-write), emptied only under its write lock, so a
    /// filled slot holds the live store, or mid-write the pre-write one.
    published: Mutex<Option<Arc<EpochSnapshot>>>,
    /// Every epoch built and not yet known dead, the published one
    /// included; pruned on each build and each [`ShardedStore::live_epochs`].
    epochs: Mutex<Vec<Weak<EpochSnapshot>>>,
    /// Set for good once a query found the epoch stale while a writer held
    /// or awaited the lock: queries overlap writes, so from then on every
    /// writer keeps the epoch current.
    overlapped: AtomicBool,
    /// Write batches that changed the store, plus exclusive sections.
    /// Bumped under the write lock and read under a lock to stamp an epoch,
    /// so the lock orders it; `Relaxed` suffices.
    generation: AtomicU64,
    /// Statistics as of the last write, set whole under the write lock:
    /// `len()` and `stats()` never wait for a writer or read a torn set.
    counts: Mutex<StoreStats>,
    /// Exclusive acquisitions: `exclusive`, `remove` and `remove_batch`.
    gate_writes: AtomicU64,
    /// Writes that found the lock held, shared or exclusive (the fast path
    /// is a `try_write`).
    conflicts: AtomicU64,
}

impl ShardedStore {
    /// An empty store.
    pub fn new() -> Self {
        ShardedStore::default()
    }

    /// Wraps an existing store as generation 0.
    pub fn from_store(store: VerticalStore) -> Self {
        ShardedStore {
            counts: Mutex::new(store.stats()),
            store: RwLock::new(store),
            ..ShardedStore::default()
        }
    }

    /// Locks the store for a write batch or section, counting a conflict if
    /// it was held. Until queries overlap writes, retires an epoch no query
    /// holds (queries clone it only under the slot's mutex, so a count of one
    /// cannot rise); after, publishes the pre-write epoch. True if it retired.
    fn enter(&self) -> (RwLockWriteGuard<'_, VerticalStore>, bool) {
        let store = self.store.try_write().unwrap_or_else(|| {
            self.conflicts.fetch_add(1, Ordering::Relaxed);
            self.store.write()
        });
        let retired = if self.overlapped.load(Ordering::Relaxed) {
            self.refresh(&store);
            false
        } else {
            let mut slot = self.published.lock();
            slot.take_if(|e| Arc::strong_count(e) == 1).is_some()
        };
        (store, retired)
    }

    /// Records a change made under the write lock: the statistics, one
    /// generation, and a stale epoch (rebuilt now once queries overlap).
    fn changed(&self, store: &VerticalStore) {
        *self.counts.lock() = store.stats();
        self.generation.fetch_add(1, Ordering::Relaxed);
        let epoch = self.queries_overlap_writes().then(|| self.build(store));
        // Dropped outside the mutex, at return: it may own whole table copies.
        let _old = std::mem::replace(&mut *self.published.lock(), epoch);
    }

    /// A new epoch of `store`, stamped with the current generation and
    /// registered for [`ShardedStore::live_epochs`].
    fn build(&self, store: &VerticalStore) -> Arc<EpochSnapshot> {
        let epoch = Arc::new(EpochSnapshot {
            generation: self.snapshot_generation(),
            store: store.clone(),
        });
        let mut epochs = self.epochs.lock();
        epochs.retain(|e| e.strong_count() > 0);
        epochs.push(Arc::downgrade(&epoch));
        epoch
    }

    /// Every epoch this store built that is still held — by a query, or by
    /// the store as its published epoch — oldest first. Mid-section, only
    /// the pre-section epoch can be published, so a query that clones it
    /// then holds nothing this list missed.
    pub fn live_epochs(&self) -> Vec<Arc<EpochSnapshot>> {
        let mut epochs = self.epochs.lock();
        epochs.retain(|e| e.strong_count() > 0);
        epochs.iter().filter_map(Weak::upgrade).collect()
    }

    /// The epoch of `store`, built if stale. Callers hold the lock on
    /// `store`, shared or exclusive.
    fn refresh(&self, store: &VerticalStore) -> Arc<EpochSnapshot> {
        let mut slot = self.published.lock();
        Arc::clone(slot.get_or_insert_with(|| self.build(store)))
    }

    /// The current epoch — the query path. Repeated calls with no changing
    /// write in between return the same `Arc`; after one, the first call
    /// builds a new epoch under a shared read. If that has to wait for a
    /// writer (batch or section), it gets the post-write state and queries
    /// overlap writes, so no query waits again. A blocking `read()` would
    /// queue behind a waiting writer, so the stale path retries `try_read`
    /// and re-checks the slot instead. Until the switch it waits for the
    /// store lock: never call it while holding that lock.
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        loop {
            if let Some(epoch) = &*self.published.lock() {
                return Arc::clone(epoch);
            }
            if let Some(store) = self.store.try_read() {
                return self.refresh(&store);
            }
            self.overlapped.store(true, Ordering::Relaxed);
            std::thread::yield_now();
        }
    }

    /// True once a query has waited for a writer ([`ShardedStore::snapshot`]).
    pub fn queries_overlap_writes(&self) -> bool {
        self.overlapped.load(Ordering::Relaxed)
    }

    /// Write batches that changed the store, plus exclusive sections — a
    /// monotone count of changes, not of epoch builds. The next epoch
    /// built carries this generation.
    pub fn snapshot_generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// A shared read of the live store — the rule-join path. Writers wait
    /// while it is held, and it waits for a running or queued writer. Do
    /// not write or take a snapshot while holding it.
    pub fn read(&self) -> RwLockReadGuard<'_, VerticalStore> {
        self.store.read()
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

    /// Enters once ([`ShardedStore::enter`]), applies `op` in input order
    /// collecting its hits, and records a change if anything changed — a
    /// provenance-only flip (a derived triple re-asserted) included.
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
        let (mut store, retired) = self.enter();
        let explicit = store.explicit_count();
        hits.extend(triples.iter().copied().filter(|&t| op(&mut store, t)));
        if hits.len() > before || store.explicit_count() != explicit {
            self.changed(&store);
        } else if retired {
            // No table was touched (`op` copies only to change), so this
            // clone shares them all: O(#predicates).
            self.refresh(&store);
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

    /// True if `t` is in the current epoch.
    pub fn contains(&self, t: Triple) -> bool {
        self.snapshot().contains(t)
    }

    /// Holds the store lock exclusively for a compound mutation such as a
    /// DRed run — the only `&mut VerticalStore` access. Enters as a write
    /// batch does: until queries overlap writes it mutates in place and a
    /// query waits for the post-section state. Dropping the guard bumps the
    /// generation once. The holder reads the guard's `&VerticalStore`: a
    /// query through this store on its own thread would wait for itself.
    pub fn exclusive(&self) -> ExclusiveStore<'_> {
        self.gate_writes.fetch_add(1, Ordering::Relaxed);
        let (store, _) = self.enter();
        ExclusiveStore { owner: self, store }
    }

    /// Total number of triples as of the last write (never waits for one).
    pub fn len(&self) -> usize {
        self.counts.lock().triples
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exclusive acquisitions: `exclusive`, `remove` and `remove_batch`.
    pub fn gate_write_acquisitions(&self) -> u64 {
        self.gate_writes.load(Ordering::Relaxed)
    }

    /// Writes and exclusive sections that had to wait for the lock — behind
    /// another writer or behind a rule join's shared read.
    pub fn shard_write_conflicts(&self) -> u64 {
        self.conflicts.load(Ordering::Relaxed)
    }

    /// Statistics as of the last write: builds no epoch and never waits.
    pub fn stats(&self) -> StoreStats {
        *self.counts.lock()
    }

    /// Every triple of the current epoch, sorted (deterministic).
    pub fn to_sorted_vec(&self) -> Vec<Triple> {
        self.snapshot().to_sorted_vec()
    }

    /// The current epoch's triples matching `pattern`.
    pub fn matches(&self, pattern: TriplePattern) -> Vec<Triple> {
        self.snapshot().matches(pattern)
    }

    /// Consumes the wrapper, returning the live store.
    pub fn into_inner(self) -> VerticalStore {
        self.store.into_inner()
    }
}

/// The store lock held by [`ShardedStore::exclusive`]. Dereferences to the
/// live [`VerticalStore`]; dropping it records one change, as a changing
/// write batch does, and releases.
pub struct ExclusiveStore<'a> {
    owner: &'a ShardedStore,
    store: RwLockWriteGuard<'a, VerticalStore>,
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
        self.owner.changed(&self.store);
    }
}

/// An immutable, generation-stamped epoch — the query path. Dereferences to
/// the [`VerticalStore`] as of its build; queries take no lock, and an
/// epoch taken before a flush keeps answering from the pre-flush state.
#[derive(Debug, Default)]
pub struct EpochSnapshot {
    generation: u64,
    store: VerticalStore,
}

impl EpochSnapshot {
    /// The owning store's [`ShardedStore::snapshot_generation`] when this
    /// epoch was built: epochs with equal generations hold the same state.
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
    use crate::table::PropertyTable;
    use slider_model::NodeId;

    fn t(s: u64, p: u64, o: u64) -> Triple {
        Triple::new(NodeId(s), NodeId(p), NodeId(o))
    }

    /// The epoch slot as it stands, without building one.
    fn slot(st: &ShardedStore) -> Option<Arc<EpochSnapshot>> {
        st.published.lock().clone()
    }

    /// Switches `st` the one way a store switches: a query meets a held
    /// write lock, waits for it, and marks queries as overlapping writes.
    fn overlap(st: &ShardedStore) {
        let held = st.store.write();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        std::thread::scope(|scope| {
            let query = scope.spawn(|| st.snapshot());
            // A panic here drops `held`, so the query still finishes.
            while !st.queries_overlap_writes() {
                assert!(std::time::Instant::now() < deadline, "no overlap marked");
                std::thread::yield_now();
            }
            drop(held);
            query.join().unwrap();
        });
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

    /// The acceptance pin for the epoch read path: once queries overlap
    /// writes, with the store's one write lock — the lock every predicate's
    /// shard lives under — held **on this very thread** (a locking read
    /// path would self-deadlock here), every query API answers.
    #[test]
    fn reads_complete_while_a_shard_write_lock_is_held() {
        let st = ShardedStore::new();
        st.insert(t(1, 7, 2));
        overlap(&st);
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

    /// Once queries overlap writes, reads answer while an exclusive section
    /// holds the store lock — even on the thread holding it, where a locking
    /// read would self-deadlock — and see the pre-exclusive epoch; the
    /// section's mutation appears atomically at release. A writer arriving
    /// meanwhile waits, and counts as a conflict.
    #[test]
    fn reads_see_the_pre_exclusive_epoch_until_release() {
        let st = ShardedStore::new();
        st.insert(t(1, 7, 2));
        overlap(&st);
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
    /// inserts and removals — a write retires only an epoch no reader
    /// holds — and generations strictly increase. Epochs are built on
    /// demand: with no write in between, two snapshots are one `Arc`, a
    /// duplicate-only write keeps the epoch, and the generation counts
    /// write batches, not epoch builds.
    #[test]
    fn epoch_snapshots_are_immutable_and_generations_monotone() {
        let st = ShardedStore::new();
        st.insert(t(1, 7, 2));
        let before = st.snapshot();
        assert!(Arc::ptr_eq(&before, &st.snapshot()), "no write, new epoch");
        st.insert(t(3, 7, 4));
        st.insert(t(3, 7, 4)); // duplicate: no change
        st.remove(t(1, 7, 2));
        let after = st.snapshot();
        assert!(Arc::ptr_eq(&after, &st.snapshot()), "no write, new epoch");
        assert!(after.generation() > before.generation());
        assert_eq!(st.snapshot_generation(), after.generation());
        assert_eq!(st.snapshot_generation(), 3, "three changing writes");
        assert_eq!(before.to_sorted_vec(), vec![t(1, 7, 2)], "epoch changed");
        assert_eq!(after.to_sorted_vec(), vec![t(3, 7, 4)]);
        // A duplicate-only write keeps a pinned epoch, and puts back an
        // unpinned one it retired: either way no query has to rebuild.
        st.insert(t(3, 7, 4));
        assert!(Arc::ptr_eq(&after, &st.snapshot()), "duplicate, new epoch");
        drop((before, after));
        st.insert(t(3, 7, 4));
        let kept = slot(&st).expect("duplicate emptied the slot");
        assert_eq!((kept.generation(), st.snapshot_generation()), (3, 3));
        // A change leaves the epoch stale: no write builds one unasked.
        st.insert(t(5, 7, 6));
        assert!(slot(&st).is_none(), "a write built an epoch");
        assert_eq!(kept.to_sorted_vec(), vec![t(3, 7, 4)]);
    }

    /// A query that finds the epoch stale while a writer holds the lock
    /// waits for the writer, and marks queries as overlapping writes: from
    /// then on every write builds the epoch before it releases, so no query
    /// waits again. (A store whose queries never overlapped stays lazy; see
    /// the test above.)
    #[test]
    fn a_query_that_waits_for_a_writer_keeps_epochs_current() {
        let st = ShardedStore::new();
        st.insert(t(1, 7, 2));
        assert!(slot(&st).is_none(), "no query yet: stale");
        overlap(&st);
        assert!(st.contains(t(1, 7, 2)));
        st.insert(t(3, 7, 4));
        let epoch = slot(&st).expect("the write left it stale");
        assert_eq!(epoch.generation(), 2);
        assert!(epoch.contains(t(3, 7, 4)));
        st.insert(t(3, 7, 4)); // duplicate: the epoch stays
        assert!(Arc::ptr_eq(&epoch, &st.snapshot()));
    }

    /// A query that finds the epoch stale while an exclusive section is
    /// queued behind a rule join's shared read does not queue behind it: it
    /// marks queries as overlapping writes, so the section publishes its
    /// pre-section epoch on entry and the query gets the pre-section state,
    /// including the last write. A blocking `read()` on the stale path
    /// would queue behind the section, and the section here stays open
    /// until the query returns, so it would deadlock; the test thread is
    /// the watchdog.
    #[test]
    fn stale_snapshot_does_not_wait_for_a_queued_exclusive_section() {
        use std::sync::mpsc;
        use std::thread::{spawn, yield_now};
        use std::time::{Duration, Instant};

        let st = Arc::new(ShardedStore::new());
        st.insert(t(1, 7, 2)); // a completed write: the epoch is stale
        let queued = |st: &ShardedStore| {
            while st.shard_write_conflicts() == 0 {
                yield_now();
            }
        };
        let (tx, rx) = mpsc::channel();
        let main = {
            let st = Arc::clone(&st);
            spawn(move || {
                let (held_tx, held_rx) = mpsc::channel();
                let join = {
                    let st = Arc::clone(&st);
                    spawn(move || {
                        let _read = st.read();
                        held_tx.send(()).unwrap();
                        queued(&st);
                        // Hold until the query is on the stale path: its
                        // `try_read` failed behind the parked section. The
                        // deadline only keeps a broken stale path (one that
                        // never marks this) from hanging here.
                        let deadline = Instant::now() + Duration::from_secs(2);
                        while !st.overlapped.load(Ordering::Relaxed) && Instant::now() < deadline {
                            yield_now();
                        }
                    })
                };
                held_rx.recv().unwrap();
                let query_done = Arc::new(AtomicBool::new(false));
                let section = {
                    let (st, query_done) = (Arc::clone(&st), Arc::clone(&query_done));
                    spawn(move || {
                        let mut guard = st.exclusive();
                        guard.remove(t(1, 7, 2));
                        while !query_done.load(Ordering::Acquire) {
                            yield_now();
                        }
                    })
                };
                queued(&st);
                // Wait until the section is parked, so `try_read` fails.
                while st.store.try_read().is_some() {
                    yield_now();
                }
                let seen = st.contains(t(1, 7, 2));
                query_done.store(true, Ordering::Release);
                join.join().unwrap();
                section.join().unwrap();
                tx.send(seen).unwrap();
            })
        };
        let seen = rx
            .recv_timeout(Duration::from_secs(20))
            .expect("the query waited for the exclusive section: deadlock");
        assert!(seen, "the query must see the pre-section state");
        main.join().unwrap();
        assert!(!st.contains(t(1, 7, 2)), "the section applied at release");
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

    /// `matches` on an epoch snapshot agrees with a brute-force scan for
    /// every pattern shape, including the unbound-predicate full walk.
    #[test]
    fn snapshot_matches_agrees_with_reference() {
        let triples = [
            t(1, 10, 2),
            t(1, 10, 3),
            t(4, 10, 2),
            t(1, 20, 2),
            t(5, 30, 6),
        ];
        let shared = ShardedStore::from_store(triples.iter().copied().collect());
        let snap = shared.snapshot();
        let ids = [None, Some(1), Some(10), Some(2), Some(99)].map(|v| v.map(NodeId));
        for s in ids {
            for p in ids {
                for o in ids {
                    let pat = TriplePattern::new(s, p, o);
                    let mut got = snap.matches(pat);
                    got.sort_unstable();
                    let mut want: Vec<Triple> = triples
                        .iter()
                        .copied()
                        .filter(|&x| pat.matches(x))
                        .collect();
                    want.sort_unstable();
                    assert_eq!(got, want, "pattern {pat:?}");
                }
            }
        }
    }

    #[test]
    fn explicit_flags_visible_through_view() {
        let mut plain = VerticalStore::new();
        plain.insert_explicit(t(1, 10, 2));
        plain.insert(t(3, 10, 4));
        assert!(plain.is_explicit(t(1, 10, 2)));
        assert!(!plain.is_explicit(t(3, 10, 4)));
        let shared = ShardedStore::from_store(plain);
        let snap = shared.snapshot();
        assert!(snap.is_explicit(t(1, 10, 2)));
        assert!(!snap.is_explicit(t(3, 10, 4)));
    }

    /// `live_epochs` names exactly the epochs still held: a pinned epoch
    /// and the published one, never one every holder has dropped.
    #[test]
    fn live_epochs_are_the_held_ones() {
        let st = ShardedStore::new();
        assert!(st.live_epochs().is_empty());
        st.insert(t(1, 7, 2));
        let pinned = st.snapshot();
        st.insert(t(3, 7, 4));
        let published = st.snapshot();
        let live = st.live_epochs();
        assert_eq!(live.len(), 2);
        assert!(Arc::ptr_eq(&live[0], &pinned) && Arc::ptr_eq(&live[1], &published));
        drop((live, pinned, published));
        assert_eq!(st.live_epochs().len(), 1, "the store still publishes one");
        st.insert(t(5, 7, 6)); // the unheld epoch is retired
        assert!(st.live_epochs().is_empty());
    }

    #[test]
    fn stats_count_every_predicate() {
        let st = ShardedStore::new();
        st.insert_batch_explicit(&[t(1, 10, 2), t(1, 20, 2)], &mut Vec::new());
        st.insert(t(3, 10, 4));
        let stats = st.stats();
        assert_eq!((stats.triples, stats.explicit, stats.derived), (3, 2, 1));
        assert_eq!(stats.predicates, 2);
    }

    /// A section on a store whose epoch no query holds mutates its tables
    /// in place: entering retires the unheld epoch rather than publishing
    /// one, so `Arc::make_mut` finds each table unshared — whether the store
    /// was never queried or every query dropped its epoch.
    #[test]
    fn a_section_no_query_overlaps_changes_tables_in_place() {
        let st = ShardedStore::new();
        st.insert_batch(&[t(1, 7, 2), t(3, 7, 4), t(5, 7, 6)], &mut Vec::new());
        let table = |st: &ShardedStore| -> *const PropertyTable {
            st.read().table(NodeId(7)).expect("two triples left")
        };
        for (queried, gone) in [(false, t(1, 7, 2)), (true, t(3, 7, 4))] {
            if queried {
                drop(st.snapshot());
            }
            let before = table(&st);
            assert!(st.exclusive().remove(gone));
            assert!(
                std::ptr::eq(before, table(&st)),
                "queried {queried}: copied"
            );
        }
        assert_eq!(st.to_sorted_vec(), vec![t(5, 7, 6)]);
    }

    /// A write that changes nothing copies nothing, even where an epoch a
    /// query pins shares the table: re-asserting an explicit triple,
    /// re-inserting a present one, and removing or demoting an absent or
    /// derived one all leave the live table the pinned one.
    #[test]
    fn a_no_op_write_copies_no_epoch_shared_table() {
        let st = ShardedStore::new();
        st.insert_batch_explicit(&[t(1, 7, 2)], &mut Vec::new());
        st.insert(t(3, 7, 4));
        let pinned = st.snapshot();
        let shared = pinned.table(NodeId(7)).expect("two triples");
        let live = |st: &ShardedStore| -> *const PropertyTable {
            st.read().table(NodeId(7)).expect("two triples")
        };
        assert!(
            std::ptr::eq(shared, live(&st)),
            "the epoch shares the table"
        );
        assert_eq!(st.insert_batch_explicit(&[t(1, 7, 2)], &mut Vec::new()), 0);
        assert_eq!(
            st.insert_batch(&[t(3, 7, 4), t(1, 7, 2)], &mut Vec::new()),
            0
        );
        assert_eq!(st.remove_batch(&[t(9, 7, 9)], &mut Vec::new()), 0);
        {
            let mut guard = st.exclusive();
            assert!(!guard.unmark_explicit(t(3, 7, 4)), "derived");
            assert!(!guard.unmark_explicit(t(9, 7, 9)), "absent");
            assert!(!guard.remove(t(9, 7, 9)));
        }
        assert!(std::ptr::eq(shared, live(&st)), "a no-op write copied");
        // A real change copies the shared table once, and leaves the
        // pinned epoch as it was.
        assert_eq!(st.insert_batch_explicit(&[t(3, 7, 4)], &mut Vec::new()), 0);
        assert!(!std::ptr::eq(shared, live(&st)));
        assert!(st.snapshot().is_explicit(t(3, 7, 4)));
        assert!(!pinned.is_explicit(t(3, 7, 4)));
        assert_eq!((pinned.explicit_count(), st.stats().explicit), (1, 2));
    }
}
