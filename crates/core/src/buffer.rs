//! Per-rule triple buffers (paper §2, "Buffers").
//!
//! > "Each rule module is assigned with a buffer that is in-charge of
//! > collecting triples … Once the buffer is full or in-case of timeouts,
//! > it triggers a new instance of rule module."

use parking_lot::Mutex;
use slider_model::Triple;
use std::time::{Duration, Instant};

struct Inner {
    queue: Vec<Triple>,
    /// Last time the buffer was drained or received triples; the pool's
    /// deadline service drains it when this goes stale.
    last_activity: Instant,
}

/// A bounded triple buffer with full- and timeout-flush semantics.
///
/// `push_batch` appends and drains complete capacity-sized chunks — each
/// chunk is one *rule instance* (a job for the pool), so a large input
/// batch becomes several parallelisable instances, exactly the paper's
/// "multiple instances of same rule … run in parallel".
pub(crate) struct Buffer {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl Buffer {
    /// An empty buffer firing every `capacity` triples.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "buffer capacity must be at least 1");
        Buffer {
            capacity,
            inner: Mutex::new(Inner {
                queue: Vec::new(),
                last_activity: Instant::now(),
            }),
        }
    }

    /// The configured capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends `triples`; returns the full chunks to execute (empty vec if
    /// the buffer has not filled). Chunks split off the front of the queue
    /// (FIFO), leaving the remainder buffered. Linear in the queue: every
    /// full chunk is cut in one pass, where splitting one chunk at a time
    /// would re-copy the tail per chunk.
    pub(crate) fn push_batch(&self, triples: &[Triple]) -> Vec<Vec<Triple>> {
        if triples.is_empty() {
            return Vec::new();
        }
        let mut inner = self.inner.lock();
        inner.queue.extend_from_slice(triples);
        inner.last_activity = Instant::now();
        let full = inner.queue.len() - inner.queue.len() % self.capacity;
        if full == 0 {
            return Vec::new();
        }
        let rest = inner.queue.split_off(full);
        let mut head = std::mem::replace(&mut inner.queue, rest);
        drop(inner);
        // The chunks after the first are copied out once; the first keeps
        // the queue's allocation.
        let mut chunks: Vec<Vec<Triple>> = head[self.capacity..]
            .chunks_exact(self.capacity)
            .map(<[Triple]>::to_vec)
            .collect();
        head.truncate(self.capacity);
        chunks.insert(0, head);
        chunks
    }

    /// Drains everything buffered, or with `stale: Some(timeout)` only
    /// if the buffer has been idle for `timeout`; `None` if nothing was
    /// drained.
    pub(crate) fn drain(&self, stale: Option<Duration>) -> Option<Vec<Triple>> {
        let mut inner = self.inner.lock();
        if inner.queue.is_empty() || stale.is_some_and(|t| inner.last_activity.elapsed() < t) {
            return None;
        }
        inner.last_activity = Instant::now();
        Some(std::mem::take(&mut inner.queue))
    }

    /// Number of buffered triples.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// True if nothing is buffered.
    pub(crate) fn is_empty(&self) -> bool {
        self.inner.lock().queue.is_empty()
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
    fn fills_and_chunks() {
        let b = Buffer::new(3);
        assert!(b.push_batch(&[t(1), t(2)]).is_empty());
        assert_eq!(b.len(), 2);
        let chunks = b.push_batch(&[t(3), t(4)]);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0], vec![t(1), t(2), t(3)]);
        assert_eq!(b.len(), 1); // t(4) remains
    }

    #[test]
    fn large_batch_multiple_chunks() {
        let b = Buffer::new(2);
        let batch: Vec<Triple> = (0..7).map(t).collect();
        let chunks = b.push_batch(&batch);
        assert_eq!(chunks.len(), 3);
        assert!(chunks.iter().all(|c| c.len() == 2));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn one_push_cuts_every_full_chunk_in_order() {
        let b = Buffer::new(8);
        let batch: Vec<Triple> = (0..8 * 100 + 3).map(t).collect();
        let chunks = b.push_batch(&batch);
        assert_eq!(chunks.len(), 100);
        assert!(chunks.iter().all(|c| c.len() == 8));
        assert_eq!(chunks.concat(), batch[..800]);
        assert_eq!(b.drain(None).unwrap(), batch[800..]);
    }

    #[test]
    fn capacity_one_fires_immediately() {
        let b = Buffer::new(1);
        let chunks = b.push_batch(&[t(1), t(2)]);
        assert_eq!(chunks.len(), 2);
        assert!(b.is_empty());
    }

    #[test]
    fn drain_takes_everything() {
        let b = Buffer::new(10);
        b.push_batch(&[t(1), t(2)]);
        assert_eq!(b.drain(None), Some(vec![t(1), t(2)]));
        assert!(b.is_empty());
        assert!(b.drain(None).is_none());
    }

    #[test]
    fn stale_drain_respects_activity() {
        let b = Buffer::new(10);
        b.push_batch(&[t(1)]);
        // Not stale yet.
        assert!(b.drain(Some(Duration::from_secs(60))).is_none());
        // Stale with zero timeout.
        assert_eq!(b.drain(Some(Duration::ZERO)), Some(vec![t(1)]));
        // Empty buffer never drains.
        assert!(b.drain(Some(Duration::ZERO)).is_none());
    }

    #[test]
    fn empty_push_is_noop() {
        let b = Buffer::new(1);
        assert!(b.push_batch(&[]).is_empty());
        assert!(b.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = Buffer::new(0);
    }

    #[test]
    fn preserves_fifo_order() {
        let b = Buffer::new(4);
        b.push_batch(&[t(1), t(2)]);
        let chunks = b.push_batch(&[t(3), t(4), t(5)]);
        assert_eq!(chunks[0], vec![t(1), t(2), t(3), t(4)]);
        assert_eq!(b.drain(None), Some(vec![t(5)]));
    }
}
