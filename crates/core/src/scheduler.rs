//! Coalesced maintenance scheduling — batching DRed runs for high churn.
//!
//! A sliding window over a fast stream retracts a batch per arrival; paying
//! a full overdelete/rederive cycle for each one (an eager
//! [`Op::Remove`](crate::Op::Remove)) wastes most of its time on per-run
//! overhead: waiting for quiescence, taking the write lock, scoping the
//! rules, and re-scanning the deleted set during rederivation. One DRed
//! pass over the *union* of several expiring batches does the same
//! downward-closure walk once — the classic amortisation of tick-based
//! incremental window maintenance.
//!
//! `MaintenanceScheduler` (crate-private) is the pending set behind
//! [`Op::Defer`](crate::Op::Defer): retractions are enqueued
//! (deduplicated, FIFO) instead of applied, and one coalesced run fires on
//! the pending-count threshold, the max-age deadline (served by the
//! reasoner's pool, once per tick), an explicit [`Op::Flush`](crate::Op::Flush) or the
//! reasoner's drop. [`Op`](crate::Op) states the contract: when each
//! trigger fires, where a flush linearises, and why an `Add` of a pending
//! triple cancels its retraction (`MaintenanceScheduler::cancel`, driven
//! by the add path). `tests/retraction.rs` pins it against the recompute
//! oracle: a flush lands on the closure of the explicit set that survived
//! the interleaving.

use parking_lot::Mutex;
use slider_model::{FxHashSet, Triple};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The deferred-retraction queue: distinct pending triples in FIFO order,
/// each stamped with its enqueue time.
struct Pending {
    /// Distinct pending retractions with enqueue times, in first-enqueue
    /// order (the head is the oldest).
    queue: Vec<(Triple, Instant)>,
    /// Dedup set mirroring `queue`.
    seen: FxHashSet<Triple>,
}

/// Pending retractions awaiting a coalesced DRed run (see the module docs
/// for the trigger semantics).
pub(crate) struct MaintenanceScheduler {
    inner: Mutex<Pending>,
    /// Mirror of `queue.len()`, maintained under the lock — the add path's
    /// lock-free fast check that there is nothing to cancel.
    count: AtomicUsize,
    /// Retractions drained by a flush whose outcome is not yet in the
    /// session counters; see [`Self::outstanding`].
    in_flight: AtomicUsize,
    /// Distinct-pending threshold that requests a coalesced run.
    batch: usize,
    /// Age of the oldest pending retraction after which a pool worker
    /// forces a run; `None` disables the deadline.
    max_age: Option<Duration>,
}

impl MaintenanceScheduler {
    /// An empty scheduler firing at `batch` distinct pending retractions
    /// (clamped to ≥ 1) or after `max_age`.
    pub(crate) fn new(batch: usize, max_age: Option<Duration>) -> Self {
        MaintenanceScheduler {
            inner: Mutex::new(Pending {
                queue: Vec::new(),
                seen: FxHashSet::default(),
            }),
            count: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            batch: batch.max(1),
            max_age,
        }
    }

    /// Enqueues `triples` (duplicates of already-pending triples are
    /// dropped). Returns `(newly_enqueued, threshold_reached)`; the caller
    /// is responsible for flushing when the threshold is reported.
    pub(crate) fn enqueue(&self, triples: &[Triple]) -> (usize, bool) {
        let mut inner = self.inner.lock();
        let before = inner.queue.len();
        let now = Instant::now();
        for &t in triples {
            if inner.seen.insert(t) {
                inner.queue.push((t, now));
            }
        }
        let after = inner.queue.len();
        self.count.store(after, Ordering::Relaxed);
        (after - before, after >= self.batch)
    }

    /// Cancels the pending retraction of every triple in `triples` that is
    /// pending (the rest are ignored); returns how many were cancelled.
    /// The add path calls this on every asserted batch, restoring the
    /// invariant that a flush lands on the closure of the explicit set
    /// that survived the add/remove interleaving.
    pub(crate) fn cancel(&self, triples: &[Triple]) -> usize {
        // Lock-free fast path: with nothing pending (the common case for
        // the hot additive path) there is nothing to cancel.
        if self.count.load(Ordering::Relaxed) == 0 {
            return 0;
        }
        let mut inner = self.inner.lock();
        let before = inner.queue.len();
        let mut hit = false;
        for t in triples {
            hit |= inner.seen.remove(t);
        }
        if !hit {
            return 0;
        }
        // `seen` mirrors `queue`; dropping the no-longer-seen entries keeps
        // FIFO order (and the head as the oldest survivor).
        let seen = std::mem::take(&mut inner.seen);
        inner.queue.retain(|(t, _)| seen.contains(t));
        inner.seen = seen;
        let after = inner.queue.len();
        self.count.store(after, Ordering::Relaxed);
        before - after
    }

    /// Takes the whole pending set (FIFO order), resetting the age clock.
    /// The drained set stays [in flight](Self::outstanding) until the
    /// caller [settles](Self::settle) it.
    pub(crate) fn drain(&self) -> Vec<Triple> {
        let mut inner = self.inner.lock();
        // Counted in flight before it leaves `count`, so `outstanding`
        // never misses it.
        self.in_flight
            .fetch_add(inner.queue.len(), Ordering::SeqCst);
        inner.seen.clear();
        self.count.store(0, Ordering::SeqCst);
        std::mem::take(&mut inner.queue)
            .into_iter()
            .map(|(t, _)| t)
            .collect()
    }

    /// Ends the in-flight span of a drained set of `len` retractions.
    /// Call it once the set's outcome is in the session counters.
    pub(crate) fn settle(&self, len: usize) {
        self.in_flight.fetch_sub(len, Ordering::SeqCst);
    }

    /// Number of distinct retractions currently pending.
    pub(crate) fn pending(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// Pending retractions plus drained ones not yet
    /// [settled](Self::settle) — what `stats()` reports as pending. Once
    /// this reads 0, every drained retraction's outcome is already in the
    /// session counters, so a counter read after it includes them.
    pub(crate) fn outstanding(&self) -> usize {
        // `count` first: a drained set joins `in_flight` before it leaves
        // `count`.
        let queued = self.count.load(Ordering::SeqCst);
        queued + self.in_flight.load(Ordering::SeqCst)
    }

    /// Visits every pending retraction without draining. The dictionary
    /// sweep uses this to root its liveness scan: a pending triple's ids
    /// must survive the sweep even when the triple has already left the
    /// store, or a re-asserted term would come back under a fresh id that
    /// no longer cancels the pending retraction.
    pub(crate) fn for_each_pending(&self, mut f: impl FnMut(Triple)) {
        for (t, _) in self.inner.lock().queue.iter() {
            f(*t);
        }
    }

    /// Age of the oldest pending retraction — the staleness bound: every
    /// pending retraction has been invisible to queries for at most this
    /// long. `None` when nothing is pending.
    pub(crate) fn oldest_age(&self) -> Option<Duration> {
        self.inner.lock().queue.first().map(|(_, at)| at.elapsed())
    }

    /// True if a max-age deadline is configured and the oldest pending
    /// retraction has outlived it — the pool tick's trigger.
    pub(crate) fn is_stale(&self) -> bool {
        let Some(max_age) = self.max_age else {
            return false;
        };
        self.oldest_age().is_some_and(|age| age >= max_age)
    }
}

impl std::fmt::Debug for MaintenanceScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaintenanceScheduler")
            .field("pending", &self.pending())
            .field("batch", &self.batch)
            .field("max_age", &self.max_age)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slider_model::NodeId;

    fn t(v: u64) -> Triple {
        Triple::new(NodeId(v), NodeId(0), NodeId(v))
    }

    #[test]
    fn enqueue_dedups_and_reports_threshold() {
        let s = MaintenanceScheduler::new(3, None);
        assert_eq!(s.enqueue(&[t(1), t(2), t(1)]), (2, false));
        assert_eq!(s.pending(), 2);
        // Already-pending triples do not re-enqueue…
        assert_eq!(s.enqueue(&[t(2)]), (0, false));
        // …and the threshold counts distinct triples.
        assert_eq!(s.enqueue(&[t(3)]), (1, true));
        assert_eq!(s.pending(), 3);
    }

    #[test]
    fn drain_preserves_fifo_and_resets() {
        let s = MaintenanceScheduler::new(100, None);
        s.enqueue(&[t(2), t(1)]);
        s.enqueue(&[t(3), t(2)]);
        assert_eq!(s.drain(), vec![t(2), t(1), t(3)]);
        assert_eq!(s.pending(), 0);
        assert!(s.drain().is_empty());
        // A drained triple may be deferred again.
        assert_eq!(s.enqueue(&[t(1)]), (1, false));
    }

    #[test]
    fn drained_slices_stay_outstanding_until_settled() {
        let s = MaintenanceScheduler::new(100, None);
        s.enqueue(&[t(1), t(2)]);
        assert_eq!(s.drain().len(), 2);
        assert_eq!((s.pending(), s.outstanding()), (0, 2));
        // A retraction deferred while the drained set is unsettled counts
        // beside it.
        s.enqueue(&[t(3)]);
        assert_eq!((s.pending(), s.outstanding()), (1, 3));
        s.settle(2);
        assert_eq!((s.pending(), s.outstanding()), (1, 1));
        assert_eq!(s.drain().len(), 1);
        assert_eq!((s.pending(), s.outstanding()), (0, 1));
        s.settle(1);
        assert_eq!(s.outstanding(), 0);
    }

    #[test]
    fn cancel_removes_pending_retractions() {
        let s = MaintenanceScheduler::new(100, None);
        s.enqueue(&[t(1), t(2), t(3)]);
        // Cancelling a mix of pending and unknown triples counts the hits.
        assert_eq!(s.cancel(&[t(2), t(9), t(2)]), 1);
        assert_eq!(s.pending(), 2);
        assert_eq!(s.cancel(&[t(9)]), 0, "nothing pending matches");
        // FIFO order of the survivors is preserved.
        assert_eq!(s.drain(), vec![t(1), t(3)]);
        // Cancel on an empty queue takes the lock-free fast path.
        assert_eq!(s.cancel(&[t(1)]), 0);
        // A cancelled triple can be deferred again later.
        s.enqueue(&[t(2)]);
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn staleness_tracks_oldest_enqueue() {
        let s = MaintenanceScheduler::new(100, Some(Duration::ZERO));
        assert!(!s.is_stale(), "empty queue is never stale");
        assert_eq!(s.oldest_age(), None);
        s.enqueue(&[t(1)]);
        assert!(s.is_stale(), "zero max-age is immediately stale");
        assert!(s.oldest_age().is_some());
        s.drain();
        assert!(!s.is_stale(), "drain resets the age clock");
        assert_eq!(s.oldest_age(), None);
    }

    #[test]
    fn cancel_of_oldest_advances_the_age_clock() {
        let s = MaintenanceScheduler::new(100, None);
        s.enqueue(&[t(1)]);
        std::thread::sleep(Duration::from_millis(5));
        s.enqueue(&[t(2)]);
        let oldest = s.oldest_age().unwrap();
        assert!(oldest >= Duration::from_millis(5));
        // Cancelling the head makes the younger survivor the oldest.
        s.cancel(&[t(1)]);
        assert!(s.oldest_age().unwrap() < oldest);
    }

    #[test]
    fn no_deadline_is_never_stale() {
        let s = MaintenanceScheduler::new(1, None);
        s.enqueue(&[t(1)]);
        assert!(!s.is_stale());
    }

    #[test]
    fn zero_batch_clamped_to_one() {
        let s = MaintenanceScheduler::new(0, None);
        assert_eq!(s.enqueue(&[t(1)]), (1, true));
    }
}
