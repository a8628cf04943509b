//! The shared, two-level-locked store used by the concurrent reasoner.
//!
//! The paper's concurrency story (§2.2) is a single
//! `ReentrantReadWriteLock` over the whole triple store. This module keeps
//! the paper's *semantics* but drops the single lock: the store is already
//! vertically partitioned into self-contained per-predicate
//! [`PropertyTable`](crate::PropertyTable)s, so [`ShardedStore`] guards
//! its writers with **two levels of locking**:
//!
//! 1. a global **maintenance gate** (`RwLock<()>`): every *monotone* write
//!    (insert, shard guard) holds it in *read* mode; the exclusive paths —
//!    [`ShardedStore::exclusive`] (DRed maintenance runs and
//!    quiescent-store sections) and the deleting
//!    [`ShardedStore::remove`]/[`ShardedStore::remove_batch`] — take it in
//!    *write* mode, getting the store to themselves exactly as the old
//!    global write lock did;
//! 2. a fixed power-of-two array of **shard locks**
//!    (`RwLock<VerticalStore>`), each shard owning the property tables of
//!    the predicates that hash to it. Writers touching disjoint predicate
//!    families lock disjoint shards and run concurrently instead of
//!    serialising on one writer.
//!
//! ## Lock-order discipline
//!
//! * The gate is always acquired **before** any shard lock, never while a
//!   shard lock is held.
//! * No thread ever holds more than one shard **write** lock at a time —
//!   the batched write paths release shard *i* before acquiring shard *j*
//!   (a batch is therefore atomic with respect to maintenance, which
//!   excludes it wholly via the gate, but not with respect to readers —
//!   exactly the per-shard granularity the fresh-subset contract needs,
//!   since that contract is per triple).
//!
//! Writers never wait while holding a shard lock, so no cycle — and
//! therefore no deadlock — is possible.
//!
//! ## Epoch snapshots — the read path
//!
//! Reads take neither lock level. The store keeps one **published
//! epoch**: an immutable, generation-stamped [`EpochSnapshot`] holding an
//! `Arc<VerticalStore>` per shard. Every writer publishes a fresh epoch
//! at the moment it releases a shard — while still holding that shard's
//! write lock, so publications of a shard serialise and each epoch is a
//! prefix-consistent cut of the store's history (a batch's triples appear
//! shard-release by shard-release, never torn inside one shard). The
//! clone taken at publication is copy-on-write
//! ([`VerticalStore`]'s tables are `Arc`-shared), so publishing costs
//! O(#predicates touched) `Arc` bumps plus one deep table copy per
//! *mutated* table per publish cycle — not a store copy.
//!
//! Readers ([`ShardedStore::snapshot`], and through it
//! [`ShardedStore::matches`] / [`ShardedStore::stats`] /
//! [`ShardedStore::to_sorted_vec`] / [`ShardedStore::contains`]) lock the
//! small publication mutex just long enough to clone the published `Arc`,
//! then answer from the immutable epoch with no lock at all. They never
//! wait on the gate or a shard lock, so reads do not block (and are not
//! blocked by) writers, shard guards, DRed flushes, or
//! [`ShardedStore::exclusive`] sections — and never observe their
//! intermediate states. Deletions happen only under the gate's write mode
//! and become visible atomically when the new epoch is published; an
//! epoch acquired before a maintenance run keeps answering from the
//! pre-maintenance state (generation monotonicity).

use crate::pattern::TriplePattern;
use crate::vertical::{StoreStats, VerticalStore};
use crate::view::StoreView;
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use slider_model::{NodeId, Triple};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Default number of shards — enough to make collisions between a handful
/// of hot predicate families unlikely, small enough that publishing an
/// epoch (one `Arc` per shard) stays cheap.
pub const DEFAULT_SHARDS: usize = 16;

/// A [`VerticalStore`] split into per-predicate shards behind two-level
/// locking — see the module docs for the design and the lock-order rules.
///
/// Writes return the subset of triples that were actually new, which is
/// what gets dispatched onward — the duplicate-limitation mechanism. The
/// contract is per triple (and therefore per shard): a triple is reported
/// fresh by exactly one writer, no matter how writes interleave.
pub struct ShardedStore {
    /// Level 1: the maintenance gate. Read = normal operation, write =
    /// exclusive (quiescent) access.
    gate: RwLock<()>,
    /// Level 2: the shards. `shards.len()` is a power of two.
    shards: Box<[RwLock<VerticalStore>]>,
    /// Indexing mode shards are (re)built with.
    object_index: bool,
    /// Total triples, maintained alongside the per-shard mutations so
    /// `len()` needs no locks.
    len: AtomicUsize,
    /// Times the gate was taken in write mode ([`ShardedStore::exclusive`]).
    gate_writes: AtomicU64,
    /// Times a shard write lock was contended (the uncontended fast path
    /// is a `try_write`).
    shard_conflicts: AtomicU64,
    /// The published epoch: the immutable snapshot readers answer from.
    /// The mutex is held only for the pointer clone/swap — never across
    /// any other lock (order: gate → shard → publish).
    published: Mutex<Arc<EpochSnapshot>>,
    /// Monotone epoch counter; bumped at every publication.
    generation: AtomicU64,
}

impl Default for ShardedStore {
    fn default() -> Self {
        ShardedStore::new()
    }
}

impl std::fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("shards", &self.shards.len())
            .field("len", &self.len.load(Ordering::Relaxed))
            .finish()
    }
}

impl ShardedStore {
    /// An empty store with [`DEFAULT_SHARDS`] shards and full indexing.
    pub fn new() -> Self {
        ShardedStore::with_shards(DEFAULT_SHARDS)
    }

    /// An empty store with `shards` shards (rounded up to a power of two,
    /// minimum 1 — `with_shards(1)` degenerates to the paper's single
    /// global readers-writer lock, kept as the baseline for the `ingest`
    /// benchmark).
    pub fn with_shards(shards: usize) -> Self {
        ShardedStore::from_store_sharded(VerticalStore::new(), shards)
    }

    /// Wraps an existing store with [`DEFAULT_SHARDS`] shards, preserving
    /// its indexing mode.
    pub fn from_store(store: VerticalStore) -> Self {
        ShardedStore::from_store_sharded(store, DEFAULT_SHARDS)
    }

    /// Wraps an existing store, distributing its property tables over
    /// `shards` shards (rounded up to a power of two, minimum 1). The
    /// store's indexing mode carries over to all shards.
    pub fn from_store_sharded(store: VerticalStore, shards: usize) -> Self {
        let count = shards.max(1).next_power_of_two();
        let object_index = store.has_object_index();
        let empty = || {
            if object_index {
                VerticalStore::new()
            } else {
                VerticalStore::without_object_index()
            }
        };
        let this = ShardedStore {
            gate: RwLock::new(()),
            shards: (0..count).map(|_| RwLock::new(empty())).collect(),
            object_index,
            len: AtomicUsize::new(0),
            gate_writes: AtomicU64::new(0),
            shard_conflicts: AtomicU64::new(0),
            published: Mutex::new(Arc::new(EpochSnapshot {
                generation: 0,
                shards: (0..count).map(|_| Arc::new(empty())).collect(),
                len: 0,
            })),
            generation: AtomicU64::new(0),
        };
        this.scatter(store);
        this
    }

    /// The shard index predicate `p` hashes to.
    #[inline]
    pub fn shard_of(&self, p: NodeId) -> usize {
        // Fibonacci multiply-shift; the high bits mix well for the dense
        // dictionary ids NodeId uses.
        ((p.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & (self.shards.len() - 1)
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// An empty store in this store's indexing mode.
    fn empty_shard(&self) -> VerticalStore {
        if self.object_index {
            VerticalStore::new()
        } else {
            VerticalStore::without_object_index()
        }
    }

    /// Locks shard `idx` for writing, counting contention: the fast path
    /// is an uncontended `try_write`.
    fn lock_shard(&self, idx: usize) -> RwLockWriteGuard<'_, VerticalStore> {
        match self.shards[idx].try_write() {
            Some(guard) => guard,
            None => {
                self.shard_conflicts.fetch_add(1, Ordering::Relaxed);
                self.shards[idx].write()
            }
        }
    }

    /// Distributes `store`'s tables over the shards (assumes the shards'
    /// current contents are to be replaced — callers hold the gate in
    /// write mode or own `self` exclusively) and refreshes the length
    /// counter.
    fn scatter(&self, mut store: VerticalStore) {
        let mut groups: Vec<Vec<NodeId>> = vec![Vec::new(); self.shards.len()];
        for p in store.predicates().collect::<Vec<_>>() {
            groups[self.shard_of(p)].push(p);
        }
        let mut total = 0;
        let mut snaps = Vec::with_capacity(self.shards.len());
        for (idx, preds) in groups.iter().enumerate() {
            let sub = store.split_off(preds);
            total += sub.len();
            // Copy-on-write clone: the epoch shares the tables the live
            // shard starts from; future mutations un-share lazily.
            snaps.push(Arc::new(sub.clone()));
            *self.shards[idx].write() = sub;
        }
        debug_assert!(store.is_empty(), "scatter covered every predicate");
        self.len.store(total, Ordering::Relaxed);
        self.publish_full(snaps);
    }

    /// Publishes a fresh epoch with shard `idx` replaced by a
    /// copy-on-write clone of `shard`. Callers invoke this **while still
    /// holding the shard's write lock** (or the gate in write mode), so
    /// publications of the same shard serialise in mutation order and
    /// every epoch is a prefix-consistent cut.
    fn publish_shard(&self, idx: usize, shard: &VerticalStore) {
        let mut published = self.published.lock();
        let mut shards = published.shards.to_vec();
        shards[idx] = Arc::new(shard.clone());
        let len: usize = shards.iter().map(|s| s.len()).sum();
        let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        *published = Arc::new(EpochSnapshot {
            generation,
            shards: shards.into_boxed_slice(),
            len,
        });
    }

    /// Publishes a fresh epoch covering every shard at once (the scatter
    /// paths: construction and the end of an exclusive section, both of
    /// which rebuild all shards under exclusion).
    fn publish_full(&self, shards: Vec<Arc<VerticalStore>>) {
        let len: usize = shards.iter().map(|s| s.len()).sum();
        let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        *self.published.lock() = Arc::new(EpochSnapshot {
            generation,
            shards: shards.into_boxed_slice(),
            len,
        });
    }

    /// The current published epoch — the read path. Locks the publication
    /// mutex just long enough to clone one `Arc` (the mutex is never held
    /// across the gate or a shard lock); the returned snapshot is
    /// immutable and shared, so querying it never waits on writers, shard
    /// guards, or maintenance.
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&self.published.lock())
    }

    /// Generation stamp of the most recently published epoch (monotone).
    pub fn snapshot_generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Drains every shard into one merged store (callers hold the gate in
    /// write mode, so the shard locks are uncontended).
    fn gather(&self) -> VerticalStore {
        let mut merged = self.empty_shard();
        for shard in self.shards.iter() {
            let mut guard = shard.write();
            let sub = std::mem::replace(&mut *guard, self.empty_shard());
            merged.absorb(sub);
        }
        merged
    }

    /// Inserts a batch; appends the *new* triples to `fresh` (in input
    /// order) and returns how many were new. Holds the gate in read mode
    /// for the whole batch and each shard's write lock only for that
    /// shard's run of triples — at most one shard lock at a time.
    pub fn insert_batch(&self, triples: &[Triple], fresh: &mut Vec<Triple>) -> usize {
        if triples.is_empty() {
            return 0;
        }
        let _gate = self.gate.read();
        self.write_batch(
            triples,
            fresh,
            |shard, t| {
                let new = shard.insert(t);
                (new, new)
            },
            1,
        )
    }

    /// Inserts a batch as **explicit** (asserted) facts; appends the *new*
    /// triples to `fresh` and returns how many were new. The input manager
    /// uses this path; rule distributors use the plain
    /// [`ShardedStore::insert_batch`], so the explicit flag separates
    /// assertions from conclusions for truth maintenance.
    pub fn insert_batch_explicit(&self, triples: &[Triple], fresh: &mut Vec<Triple>) -> usize {
        if triples.is_empty() {
            return 0;
        }
        let _gate = self.gate.read();
        self.write_batch(
            triples,
            fresh,
            |shard, t| {
                // Re-asserting a triple already present as *derived* is not
                // fresh, but it does flip the explicit flag — a mutation the
                // epoch must republish or `stats()`/`is_explicit` on the
                // epoch read path would keep serving stale provenance.
                let was_explicit = shard.is_explicit(t);
                let new = shard.insert_explicit(t);
                (new, new || !was_explicit)
            },
            1,
        )
    }

    /// Removes a batch; appends the triples that were actually present to
    /// `removed` and returns how many were present.
    ///
    /// Removal takes the **gate in write mode**, like every deletion:
    /// monotone writers hold the gate in read mode, so a removal never
    /// interleaves with a half-applied insert batch or a live shard guard.
    /// Blocks until every write and shard guard has released; never called
    /// from the engine's hot paths (DRed deletes on the merged store via
    /// [`ShardedStore::exclusive`]).
    pub fn remove_batch(&self, triples: &[Triple], removed: &mut Vec<Triple>) -> usize {
        if triples.is_empty() {
            return 0;
        }
        let _gate = self.gate.write();
        self.gate_writes.fetch_add(1, Ordering::Relaxed);
        self.write_batch(
            triples,
            removed,
            |shard, t| {
                let hit = shard.remove(t);
                (hit, hit)
            },
            -1,
        )
    }

    /// The shared shard-walking write loop: applies `op` per triple.
    /// `op` returns `(hit, mutated)` — `hit` collects the triple and
    /// adjusts the length counter by `delta`, `mutated` marks the shard
    /// for epoch republication (a provenance-only flip mutates without a
    /// hit). The caller holds the gate (read mode for monotone inserts,
    /// write mode for removal).
    fn write_batch(
        &self,
        triples: &[Triple],
        hits: &mut Vec<Triple>,
        op: impl Fn(&mut VerticalStore, Triple) -> (bool, bool),
        delta: isize,
    ) -> usize {
        let before = hits.len();
        let mut current: Option<(usize, RwLockWriteGuard<'_, VerticalStore>, bool)> = None;
        for &t in triples {
            let idx = self.shard_of(t.p);
            match &current {
                Some((held, _, _)) if *held == idx => {}
                _ => {
                    // Publish, then release the held shard *before*
                    // acquiring the next: never hold two shard write locks
                    // (see the lock-order discipline in the module docs).
                    if let Some((held, guard, dirty)) = current.take() {
                        if dirty {
                            self.publish_shard(held, &guard);
                        }
                        drop(guard);
                    }
                    current = Some((idx, self.lock_shard(idx), false));
                }
            }
            let (_, shard, dirty) = current.as_mut().expect("shard guard just ensured");
            let (hit, mutated) = op(shard, t);
            if hit {
                if delta > 0 {
                    self.len.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.len.fetch_sub(1, Ordering::Relaxed);
                }
                hits.push(t);
            }
            *dirty |= mutated;
        }
        if let Some((held, guard, dirty)) = current.take() {
            if dirty {
                self.publish_shard(held, &guard);
            }
            drop(guard);
        }
        hits.len() - before
    }

    /// Inserts one triple; returns `true` if new. One gate-read plus one
    /// shard write lock; publishes a fresh epoch before returning, so the
    /// caller (and anything it signals) observes its own write on the
    /// epoch read path.
    pub fn insert(&self, t: Triple) -> bool {
        let _gate = self.gate.read();
        let idx = self.shard_of(t.p);
        let mut guard = self.lock_shard(idx);
        let inserted = guard.insert(t);
        if inserted {
            self.len.fetch_add(1, Ordering::Relaxed);
            self.publish_shard(idx, &guard);
        }
        inserted
    }

    /// Removes one triple; returns `true` if it was present. Takes the
    /// gate in write mode, like [`ShardedStore::remove_batch`]; the
    /// deletion becomes visible to epoch readers atomically with the
    /// epoch published before the gate releases.
    pub fn remove(&self, t: Triple) -> bool {
        let _gate = self.gate.write();
        self.gate_writes.fetch_add(1, Ordering::Relaxed);
        let idx = self.shard_of(t.p);
        let mut guard = self.shards[idx].write();
        let removed = guard.remove(t);
        if removed {
            self.len.fetch_sub(1, Ordering::Relaxed);
            self.publish_shard(idx, &guard);
        }
        removed
    }

    /// True if `t` is present — answered from the published epoch, no
    /// gate or shard lock.
    pub fn contains(&self, t: Triple) -> bool {
        self.snapshot().contains(t)
    }

    /// True if `t` is present and explicitly asserted — answered from
    /// the published epoch, no gate or shard lock.
    pub fn is_explicit(&self, t: Triple) -> bool {
        self.snapshot().is_explicit(t)
    }

    /// Acquires the **maintenance gate in write mode** and returns the
    /// whole store, merged, for compound mutation. This is the only way to
    /// get `&mut VerticalStore` access: the DRed maintenance subsystem
    /// holds it across a whole run so overdeletion and rederivation are
    /// atomic with respect to every reader and writer (they all hold the
    /// gate in read mode). The merge and the re-scatter on drop move
    /// property tables wholesale — O(#predicates), no triple is copied.
    pub fn exclusive(&self) -> ExclusiveStore<'_> {
        let gate = self.gate.write();
        self.gate_writes.fetch_add(1, Ordering::Relaxed);
        let merged = self.gather();
        ExclusiveStore {
            owner: self,
            _gate: gate,
            merged,
        }
    }

    /// Locks the single shard owning predicate `p` for writing (gate held
    /// in read mode), for callers that want to pin or batch mutations on
    /// one predicate family. Writes to *other* shards proceed concurrently
    /// while this guard is held; [`ShardedStore::exclusive`] and removals
    /// block until it is released.
    pub fn write_shard(&self, p: NodeId) -> ShardWriteGuard<'_> {
        let gate = self.gate.read();
        let idx = self.shard_of(p);
        let guard = self.lock_shard(idx);
        let len_at_acquire = guard.len();
        ShardWriteGuard {
            owner: self,
            _gate: gate,
            idx,
            len_at_acquire,
            guard,
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

    /// Times the maintenance gate was acquired in write mode (DRed runs,
    /// quiescent-store sections, and direct `remove`/`remove_batch`
    /// calls).
    pub fn gate_write_acquisitions(&self) -> u64 {
        self.gate_writes.load(Ordering::Relaxed)
    }

    /// Times a shard write lock was contended (another writer or a shard
    /// guard held the shard when a write arrived).
    pub fn shard_write_conflicts(&self) -> u64 {
        self.shard_conflicts.load(Ordering::Relaxed)
    }

    /// Store statistics, merged across the published epoch's shards — no
    /// gate or shard lock.
    pub fn stats(&self) -> StoreStats {
        self.snapshot().stats()
    }

    /// Sorted snapshot of all triples (deterministic; for tests/reports).
    /// Answered from the published epoch — no gate or shard lock.
    pub fn to_sorted_vec(&self) -> Vec<Triple> {
        self.snapshot().to_sorted_vec()
    }

    /// All triples matching `pattern`, answered from the published epoch
    /// — one consistent cut, no gate or shard lock.
    pub fn matches(&self, pattern: TriplePattern) -> Vec<Triple> {
        self.snapshot().matches(pattern)
    }

    /// Consumes the wrapper, merging the shards back into one store.
    pub fn into_inner(self) -> VerticalStore {
        let mut merged = self.empty_shard();
        for shard in self.shards.into_vec() {
            merged.absorb(shard.into_inner());
        }
        merged
    }
}

/// Exclusive, merged access to a [`ShardedStore`] (the maintenance gate
/// held in write mode). Dereferences to the whole store as one
/// [`VerticalStore`]; dropping the guard re-scatters the tables to their
/// shards and refreshes the length counter.
pub struct ExclusiveStore<'a> {
    owner: &'a ShardedStore,
    _gate: RwLockWriteGuard<'a, ()>,
    merged: VerticalStore,
}

impl std::ops::Deref for ExclusiveStore<'_> {
    type Target = VerticalStore;
    fn deref(&self) -> &VerticalStore {
        &self.merged
    }
}

impl std::ops::DerefMut for ExclusiveStore<'_> {
    fn deref_mut(&mut self) -> &mut VerticalStore {
        &mut self.merged
    }
}

impl Drop for ExclusiveStore<'_> {
    fn drop(&mut self) {
        // The gate (a field, dropped after this body) is still held while
        // the tables scatter back, so no reader can observe a half-filled
        // shard array.
        let merged = std::mem::take(&mut self.merged);
        self.owner.scatter(merged);
    }
}

impl std::fmt::Debug for ExclusiveStore<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExclusiveStore")
            .field("len", &self.merged.len())
            .finish()
    }
}

/// Write access to the single shard owning one predicate family (gate held
/// in read mode) — see [`ShardedStore::write_shard`]. On drop, the
/// store-wide length counter is adjusted by however much the shard grew or
/// shrank through this guard, and a fresh epoch is published — mutations
/// made through the guard become visible to epoch readers atomically
/// at release, never mid-edit.
pub struct ShardWriteGuard<'a> {
    owner: &'a ShardedStore,
    _gate: RwLockReadGuard<'a, ()>,
    idx: usize,
    len_at_acquire: usize,
    guard: RwLockWriteGuard<'a, VerticalStore>,
}

impl std::ops::Deref for ShardWriteGuard<'_> {
    type Target = VerticalStore;
    fn deref(&self) -> &VerticalStore {
        &self.guard
    }
}

impl std::ops::DerefMut for ShardWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut VerticalStore {
        &mut self.guard
    }
}

impl Drop for ShardWriteGuard<'_> {
    fn drop(&mut self) {
        let now = self.guard.len();
        if now >= self.len_at_acquire {
            self.owner
                .len
                .fetch_add(now - self.len_at_acquire, Ordering::Relaxed);
        } else {
            self.owner
                .len
                .fetch_sub(self.len_at_acquire - now, Ordering::Relaxed);
        }
        // Published while the shard write lock (a field, dropped after
        // this body) is still held — release-time atomic visibility.
        self.owner.publish_shard(self.idx, &self.guard);
    }
}

impl std::fmt::Debug for ShardWriteGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardWriteGuard")
            .field("len", &self.guard.len())
            .finish()
    }
}

/// An immutable, generation-stamped epoch of the whole store — the
/// epoch read path ([`ShardedStore::snapshot`]).
///
/// A snapshot holds one `Arc<VerticalStore>` per shard, shared
/// copy-on-write with the live shards at publication time. It is never
/// mutated after publication: queries against it take **no locks at
/// all**, complete in bounded time regardless of concurrent writers,
/// shard guards, or maintenance runs, and always describe one
/// prefix-consistent cut of the store's history. A snapshot acquired
/// before a maintenance flush keeps answering from the pre-flush state
/// even after the flush retracts triples (generation monotonicity).
pub struct EpochSnapshot {
    /// Monotone publication stamp (see
    /// [`ShardedStore::snapshot_generation`]).
    generation: u64,
    /// One copy-on-write sub-store per shard; indexed by the same
    /// Fibonacci hash as the live store.
    shards: Box<[Arc<VerticalStore>]>,
    /// Total triples across the shards, fixed at publication.
    len: usize,
}

impl EpochSnapshot {
    /// The publication stamp: strictly increases with every published
    /// epoch of the owning store.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Total number of triples in this epoch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the epoch holds no triples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The shard index predicate `p` hashes to (same function as the
    /// owning [`ShardedStore`]; `shards.len()` is a power of two).
    #[inline]
    fn shard_of(&self, p: NodeId) -> usize {
        ((p.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & (self.shards.len() - 1)
    }

    /// The sub-store owning predicate `p`.
    #[inline]
    pub(crate) fn shard_store(&self, p: NodeId) -> &VerticalStore {
        &self.shards[self.shard_of(p)]
    }

    /// Every shard's sub-store, in shard-index order.
    pub(crate) fn shards(&self) -> &[Arc<VerticalStore>] {
        &self.shards
    }

    /// A [`StoreView`] over the epoch — what rule joins and external
    /// queries run against.
    pub fn view(&self) -> StoreView<'_> {
        StoreView::Epoch(self)
    }

    /// True if `t` is present in this epoch.
    pub fn contains(&self, t: Triple) -> bool {
        self.shard_store(t.p).contains(t)
    }

    /// True if `t` is present and explicitly asserted in this epoch.
    pub fn is_explicit(&self, t: Triple) -> bool {
        self.shard_store(t.p).is_explicit(t)
    }

    /// Objects `o` such that `(s, p, o)` holds in this epoch.
    pub fn objects_with(&self, p: NodeId, s: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.shard_store(p).objects_with(p, s)
    }

    /// Subjects `s` such that `(s, p, o)` holds in this epoch.
    pub fn subjects_with(&self, p: NodeId, o: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.shard_store(p).subjects_with(p, o)
    }

    /// All `(s, o)` pairs for predicate `p` in this epoch.
    pub fn pairs(&self, p: NodeId) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.shard_store(p).pairs(p)
    }

    /// Number of triples with predicate `p` in this epoch.
    pub fn count_with_p(&self, p: NodeId) -> usize {
        self.shard_store(p).count_with_p(p)
    }

    /// Iterates over every triple in the epoch (no ordering guarantee).
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.shards.iter().flat_map(|s| s.iter())
    }

    /// All triples matching `pattern` in this epoch.
    pub fn matches(&self, pattern: TriplePattern) -> Vec<Triple> {
        self.view().matches(pattern)
    }

    /// Sorted vector of every triple in the epoch (deterministic).
    pub fn to_sorted_vec(&self) -> Vec<Triple> {
        self.view().to_sorted_vec()
    }

    /// Store statistics merged across the epoch's shards.
    pub fn stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for shard in self.shards.iter() {
            let s = shard.stats();
            total.triples += s.triples;
            total.explicit += s.explicit;
            total.derived += s.derived;
            total.predicates += s.predicates;
            total.largest_partition = total.largest_partition.max(s.largest_partition);
        }
        total
    }
}

impl std::fmt::Debug for EpochSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochSnapshot")
            .field("generation", &self.generation)
            .field("shards", &self.shards.len())
            .field("len", &self.len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Duration;

    fn t(s: u64, p: u64, o: u64) -> Triple {
        Triple::new(NodeId(s), NodeId(p), NodeId(o))
    }

    #[test]
    fn shard_counts_round_up_to_powers_of_two() {
        assert_eq!(ShardedStore::with_shards(0).shard_count(), 1);
        assert_eq!(ShardedStore::with_shards(1).shard_count(), 1);
        assert_eq!(ShardedStore::with_shards(3).shard_count(), 4);
        assert_eq!(ShardedStore::with_shards(16).shard_count(), 16);
        assert_eq!(ShardedStore::new().shard_count(), DEFAULT_SHARDS);
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let st = ShardedStore::with_shards(8);
        for p in 0..1000 {
            let idx = st.shard_of(NodeId(p));
            assert!(idx < 8);
            assert_eq!(idx, st.shard_of(NodeId(p)));
        }
        // The hash actually spreads predicates over several shards.
        let distinct: std::collections::HashSet<usize> =
            (0..1000).map(|p| st.shard_of(NodeId(p))).collect();
        assert!(distinct.len() > 1, "all predicates in one shard");
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
        let mut fresh = Vec::new();
        assert_eq!(st.insert_batch(&[], &mut fresh), 0);
    }

    #[test]
    fn cross_shard_batch_preserves_input_order() {
        let st = ShardedStore::with_shards(8);
        // Predicates 1..=6 spread over several shards; fresh order must
        // still follow input order.
        let batch: Vec<Triple> = (1..=6).map(|p| t(p, p, p)).collect();
        let mut fresh = Vec::new();
        assert_eq!(st.insert_batch(&batch, &mut fresh), 6);
        assert_eq!(fresh, batch);
        assert_eq!(st.len(), 6);
    }

    #[test]
    fn explicit_insert_and_remove() {
        let st = ShardedStore::new();
        let mut fresh = Vec::new();
        assert_eq!(st.insert_batch_explicit(&[t(1, 2, 3)], &mut fresh), 1);
        assert!(st.is_explicit(t(1, 2, 3)));
        st.insert(t(4, 2, 3)); // derived
        assert!(!st.is_explicit(t(4, 2, 3)));
        let mut removed = Vec::new();
        assert_eq!(st.remove_batch(&[t(1, 2, 3), t(9, 9, 9)], &mut removed), 1);
        assert_eq!(removed, vec![t(1, 2, 3)]);
        assert!(st.remove(t(4, 2, 3)));
        assert!(st.is_empty());
        assert_eq!(st.remove_batch(&[], &mut removed), 0);
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
        assert!(st.is_explicit(t(7, 8, 9)));
        assert!(!st.contains(t(1, 2, 3)));
        assert_eq!(st.gate_write_acquisitions(), 1);
        // Stats reflect the re-scattered state.
        let stats = st.stats();
        assert_eq!(stats.triples, 1);
        assert_eq!(stats.explicit, 1);
    }

    #[test]
    fn read_snapshot_queries() {
        let st = ShardedStore::new();
        st.insert(t(1, 10, 2));
        st.insert(t(1, 10, 3));
        st.insert(t(5, 20, 6));
        let snap = st.snapshot();
        assert_eq!(snap.objects_with(NodeId(10), NodeId(1)).count(), 2);
        assert_eq!(snap.subjects_with(NodeId(20), NodeId(6)).count(), 1);
        assert_eq!(snap.pairs(NodeId(10)).count(), 2);
        assert_eq!(snap.count_with_p(NodeId(10)), 2);
        assert_eq!(snap.len(), 3);
        assert!(!snap.is_empty());
        assert!(snap.contains(t(5, 20, 6)));
        assert_eq!(snap.iter().count(), 3);
        assert_eq!(
            snap.matches(TriplePattern::new(None, Some(NodeId(10)), None))
                .len(),
            2
        );
    }

    /// The acceptance pin for the two-level design: while one shard's
    /// write lock is held, a write to a *different* shard completes, and a
    /// write to the *same* shard blocks until release.
    #[test]
    fn disjoint_shard_writes_proceed_while_one_shard_is_locked() {
        let st = Arc::new(ShardedStore::with_shards(8));
        let p1 = NodeId(1);
        let p2 = (2..200)
            .map(NodeId)
            .find(|&p| st.shard_of(p) != st.shard_of(p1))
            .expect("some predicate hashes to another shard");
        let p_same = (2..200)
            .map(NodeId)
            .find(|&p| st.shard_of(p) == st.shard_of(p1) && p != p1)
            .expect("some predicate shares p1's shard");

        let guard = st.write_shard(p1);

        // Disjoint shard: completes while the lock is held.
        let st2 = Arc::clone(&st);
        let disjoint =
            std::thread::spawn(move || st2.insert(Triple::new(NodeId(9), p2, NodeId(9))));
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let _ = tx.send(disjoint.join().unwrap());
        });
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(10)),
            Ok(true),
            "write to a disjoint shard serialised on the held shard lock"
        );
        waiter.join().unwrap();

        // Same shard: blocks until the guard drops.
        let st3 = Arc::clone(&st);
        let done = Arc::new(AtomicBool::new(false));
        let done2 = Arc::clone(&done);
        let same = std::thread::spawn(move || {
            st3.insert(Triple::new(NodeId(9), p_same, NodeId(9)));
            done2.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            !done.load(Ordering::SeqCst),
            "write to the locked shard did not block"
        );
        drop(guard);
        same.join().unwrap();
        assert!(done.load(Ordering::SeqCst));
        assert_eq!(st.len(), 2);
        assert!(st.shard_write_conflicts() >= 1, "the blocked write counted");
    }

    #[test]
    fn shard_write_guard_mutations_keep_len_in_sync() {
        let st = ShardedStore::with_shards(4);
        st.insert(t(1, 7, 1));
        {
            let mut guard = st.write_shard(NodeId(7));
            guard.insert(Triple::new(NodeId(2), NodeId(7), NodeId(2)));
            guard.insert(Triple::new(NodeId(3), NodeId(7), NodeId(3)));
            guard.remove(t(1, 7, 1));
        }
        assert_eq!(st.len(), 2);
        {
            let mut guard = st.write_shard(NodeId(7));
            guard.remove(Triple::new(NodeId(2), NodeId(7), NodeId(2)));
            guard.remove(Triple::new(NodeId(3), NodeId(7), NodeId(3)));
        }
        assert_eq!(st.len(), 0);
        assert!(st.is_empty());
    }

    #[test]
    fn concurrent_writers_never_lose_or_duplicate() {
        let st = Arc::new(ShardedStore::new());
        let threads = 8;
        let per_thread = 1_000;
        let mut handles = Vec::new();
        for tid in 0..threads {
            let st = Arc::clone(&st);
            handles.push(std::thread::spawn(move || {
                let mut fresh = Vec::new();
                let mut new_count = 0;
                for i in 0..per_thread {
                    // Half the keys collide across threads; predicates vary
                    // so the writes spread over shards.
                    let key = if i % 2 == 0 { i } else { i * 1_000 + tid };
                    new_count += st.insert_batch(&[t(key as u64, (i % 7) as u64, 1)], &mut fresh);
                }
                new_count
            }));
        }
        let total_new: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        // Every insert that reported "new" corresponds to exactly one stored
        // triple, regardless of interleaving.
        assert_eq!(total_new, st.len());
        assert_eq!(st.len(), st.to_sorted_vec().len());
    }

    #[test]
    fn readers_run_during_reasoning_shape() {
        // Simulates the rule-instance pattern: grab a snapshot, many
        // lookups.
        let st = Arc::new(ShardedStore::new());
        for i in 0..100 {
            st.insert(t(i, 7, i + 1));
        }
        let mut handles = Vec::new();
        for _ in 0..4 {
            let st = Arc::clone(&st);
            handles.push(std::thread::spawn(move || {
                let snap = st.snapshot();
                (0..100)
                    .map(|i| snap.objects_with(NodeId(7), NodeId(i)).count())
                    .sum::<usize>()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 100);
        }
    }

    #[test]
    fn into_inner_roundtrip() {
        let st = ShardedStore::new();
        st.insert(t(1, 2, 3));
        st.insert(t(4, 5, 6));
        let inner = st.into_inner();
        assert!(inner.contains(t(1, 2, 3)));
        assert_eq!(inner.len(), 2);
        let st2 = ShardedStore::from_store_sharded(inner, 4);
        assert_eq!(st2.len(), 2);
        assert!(st2.contains(t(4, 5, 6)));
    }

    #[test]
    fn from_store_preserves_indexing_mode() {
        let mut plain = VerticalStore::without_object_index();
        plain.insert(t(1, 10, 2));
        let st = ShardedStore::from_store(plain);
        // Subjects query still answers via the scan path.
        let snap = st.snapshot();
        assert_eq!(
            snap.subjects_with(NodeId(10), NodeId(2))
                .collect::<Vec<_>>(),
            vec![NodeId(1)]
        );
        drop(snap);
        // Exclusive round-trip keeps the mode too.
        {
            let guard = st.exclusive();
            assert!(!guard.has_object_index());
        }
        assert_eq!(st.len(), 1);
    }

    #[test]
    fn single_shard_degenerates_to_global_lock() {
        let st = ShardedStore::with_shards(1);
        assert_eq!(st.shard_count(), 1);
        for p in 0..50 {
            assert_eq!(st.shard_of(NodeId(p)), 0);
        }
        let mut fresh = Vec::new();
        st.insert_batch(&(0..50).map(|i| t(i, i, i)).collect::<Vec<_>>(), &mut fresh);
        assert_eq!(st.len(), 50);
        assert_eq!(st.stats().triples, 50);
    }

    /// The acceptance pin for the epoch read path: with a shard's
    /// write lock held **on this very thread** (the old read path would
    /// self-deadlock acquiring its read lock), every query API answers.
    #[test]
    fn reads_complete_while_a_shard_write_lock_is_held() {
        let st = ShardedStore::with_shards(8);
        st.insert(t(1, 7, 2));
        let guard = st.write_shard(NodeId(7));
        assert!(st.contains(t(1, 7, 2)));
        assert!(!st.is_explicit(t(1, 7, 2)));
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

    /// Reads also answer while an exclusive (gate-write) section is live
    /// on the same thread, and they see the pre-exclusive epoch; the
    /// compound mutation becomes visible atomically at release.
    #[test]
    fn reads_see_the_pre_exclusive_epoch_until_release() {
        let st = ShardedStore::with_shards(4);
        st.insert(t(1, 7, 2));
        {
            let mut guard = st.exclusive();
            guard.remove(t(1, 7, 2));
            guard.insert(t(9, 7, 9));
            assert!(st.contains(t(1, 7, 2)), "pre-exclusive epoch answers");
            assert!(!st.contains(t(9, 7, 9)), "mid-section state invisible");
        }
        assert!(!st.contains(t(1, 7, 2)));
        assert!(st.contains(t(9, 7, 9)));
    }

    /// Epochs are immutable and generations strictly increase: a held
    /// snapshot keeps answering exactly as acquired across later inserts
    /// and removals.
    #[test]
    fn epoch_snapshots_are_immutable_and_generations_monotone() {
        let st = ShardedStore::with_shards(4);
        st.insert(t(1, 7, 2));
        let before = st.snapshot();
        let g0 = before.generation();
        st.insert(t(3, 7, 4));
        st.remove(t(1, 7, 2));
        let after = st.snapshot();
        assert!(after.generation() > g0, "publication bumps the stamp");
        assert_eq!(st.snapshot_generation(), after.generation());
        assert!(before.contains(t(1, 7, 2)), "old epoch untouched");
        assert!(!before.contains(t(3, 7, 4)));
        assert_eq!(before.len(), 1);
        assert!(!after.contains(t(1, 7, 2)));
        assert!(after.contains(t(3, 7, 4)));
        assert_eq!(after.len(), 1);
    }

    /// Mutations made through a `ShardWriteGuard` are invisible to the
    /// epoch read path until the guard drops, then appear atomically.
    #[test]
    fn shard_guard_mutations_publish_on_release() {
        let st = ShardedStore::with_shards(4);
        {
            let mut guard = st.write_shard(NodeId(7));
            guard.insert(t(1, 7, 2));
            guard.insert(t(3, 7, 4));
            assert!(!st.contains(t(1, 7, 2)), "unpublished write invisible");
            assert_eq!(st.stats().triples, 0);
        }
        assert!(st.contains(t(1, 7, 2)));
        assert!(st.contains(t(3, 7, 4)));
        assert_eq!(st.stats().triples, 2);
    }

    /// Re-asserting a triple already present as *derived* changes only its
    /// provenance — no fresh triple — but the flip must still republish
    /// the epoch, or the epoch's `stats()`/`is_explicit` would keep
    /// serving the stale flag forever.
    #[test]
    fn explicit_reassertion_of_a_derived_triple_republishes_the_epoch() {
        let st = ShardedStore::with_shards(4);
        let mut fresh = Vec::new();
        st.insert_batch(&[t(1, 7, 2)], &mut fresh); // derived provenance
        assert!(!st.is_explicit(t(1, 7, 2)));
        assert_eq!(st.stats().explicit, 0);
        let before = st.snapshot_generation();

        fresh.clear();
        assert_eq!(st.insert_batch_explicit(&[t(1, 7, 2)], &mut fresh), 0);
        assert!(fresh.is_empty(), "provenance flip is not a fresh triple");
        assert!(
            st.is_explicit(t(1, 7, 2)),
            "flip visible on the epoch read path"
        );
        assert_eq!(st.stats().explicit, 1);
        assert_eq!(st.stats().triples, 1);
        assert!(st.snapshot_generation() > before, "flip published an epoch");

        // Re-asserting an already-explicit triple mutates nothing and
        // publishes nothing.
        let settled = st.snapshot_generation();
        fresh.clear();
        assert_eq!(st.insert_batch_explicit(&[t(1, 7, 2)], &mut fresh), 0);
        assert_eq!(st.snapshot_generation(), settled);
    }

    #[test]
    fn stats_merge_across_shards() {
        let st = ShardedStore::with_shards(8);
        let mut fresh = Vec::new();
        st.insert_batch_explicit(&[t(1, 10, 2), t(1, 20, 2)], &mut fresh);
        st.insert(t(3, 10, 4));
        let stats = st.stats();
        assert_eq!(stats.triples, 3);
        assert_eq!(stats.explicit, 2);
        assert_eq!(stats.derived, 1);
        assert_eq!(stats.predicates, 2);
        assert_eq!(stats.largest_partition, 2);
    }
}
