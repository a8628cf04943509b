//! Reasoner configuration — the knobs of the paper's demo (§4).

use std::time::Duration;

/// Configuration of a [`Slider`](crate::Slider) instance.
///
/// The paper's demonstration exposes three parameters: buffer size,
/// buffer timeout and the fragment (the fragment is passed separately as
/// a [`Ruleset`](slider_rules::Ruleset)). This reproduction adds the pool
/// size, a tracing switch, and the retraction analogues of buffer size and
/// timeout. Everything else the engine decides for itself: the object
/// index is always built, every removal or flush is one DRed pass, and
/// the dictionary is swept after large retraction bursts unless another
/// engine shares it.
#[derive(Debug, Clone)]
pub struct SliderConfig {
    /// How many triples a buffer holds before it "fires a new rule
    /// execution" (§4). Default: 1024.
    pub buffer_capacity: usize,
    /// "After how long an inactive buffer is forced to flush" (§4).
    /// `None` disables timeout flushing (batch mode — callers must use
    /// [`Slider::wait_idle`](crate::Slider::wait_idle), which force-flushes).
    /// Served by the pool, so it needs `workers > 0`. Default: 20 ms.
    pub timeout: Option<Duration>,
    /// Worker threads in the pool. `0` spawns none: rule instances queue
    /// until [`Slider::wait_idle`](crate::Slider::wait_idle) (or an op that
    /// waits for quiescence) runs them, FIFO. Default: available parallelism.
    pub workers: usize,
    /// Record an [`EventLog`](crate::EventLog) of module activity (the demo
    /// player's data source). Off by default: tracing serialises events.
    pub trace: bool,
    /// Coalesced-maintenance threshold: how many *distinct* pending
    /// retractions [`Op::Defer`](crate::Op::Defer) accumulates before it triggers one coalesced DRed run over the whole
    /// pending set (the retraction analogue of `buffer_capacity`). See the
    /// [`scheduler`](crate::scheduler) module docs for the trigger
    /// semantics. Default: 1024.
    pub maintenance_batch: usize,
    /// Coalesced-maintenance deadline: how long the *oldest* deferred
    /// retraction may stay pending before a pool worker forces a coalesced
    /// run (the retraction analogue of `timeout`; it needs `workers > 0`).
    /// `None` disables the deadline — pending retractions then wait for
    /// the threshold or an explicit [`Op::Flush`](crate::Op::Flush).
    /// Default: 100 ms.
    pub maintenance_max_age: Option<Duration>,
}

impl Default for SliderConfig {
    fn default() -> Self {
        SliderConfig {
            buffer_capacity: 1024,
            timeout: Some(Duration::from_millis(20)),
            workers: std::thread::available_parallelism().map_or(4, usize::from),
            trace: false,
            maintenance_batch: 1024,
            maintenance_max_age: Some(Duration::from_millis(100)),
        }
    }
}

impl SliderConfig {
    /// Batch-friendly configuration: no timeouts, default buffers, and no
    /// maintenance deadline — the workers never tick. Batch callers
    /// drive everything explicitly
    /// ([`Slider::wait_idle`](crate::Slider::wait_idle),
    /// [`Op::Flush`](crate::Op::Flush));
    /// deferred retractions flush on the pending-count threshold or an
    /// explicit flush only.
    pub fn batch() -> Self {
        SliderConfig {
            timeout: None,
            maintenance_max_age: None,
            ..SliderConfig::default()
        }
    }

    /// Builder-style buffer capacity.
    pub fn with_buffer_capacity(mut self, capacity: usize) -> Self {
        self.buffer_capacity = capacity.max(1);
        self
    }

    /// Builder-style timeout.
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.timeout = timeout;
        self
    }

    /// Builder-style worker count (`0`: no pool).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Builder-style tracing switch.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Builder-style coalesced-maintenance threshold (min 1).
    pub fn with_maintenance_batch(mut self, batch: usize) -> Self {
        self.maintenance_batch = batch.max(1);
        self
    }

    /// Builder-style coalesced-maintenance deadline.
    pub fn with_maintenance_max_age(mut self, max_age: Option<Duration>) -> Self {
        self.maintenance_max_age = max_age;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SliderConfig::default();
        assert!(c.buffer_capacity >= 1);
        assert!(c.workers >= 1);
        assert!(c.timeout.is_some());
        assert!(!c.trace);
        assert!(c.maintenance_batch >= 1);
        assert!(c.maintenance_max_age.is_some());
    }

    #[test]
    fn builders_clamp() {
        let c = SliderConfig::default()
            .with_buffer_capacity(0)
            .with_workers(0)
            .with_maintenance_batch(0);
        assert_eq!(c.buffer_capacity, 1);
        assert_eq!(c.maintenance_batch, 1);
    }

    #[test]
    fn maintenance_builders() {
        let c = SliderConfig::default()
            .with_maintenance_batch(7)
            .with_maintenance_max_age(None);
        assert_eq!(c.maintenance_batch, 7);
        assert!(c.maintenance_max_age.is_none());
    }

    #[test]
    fn batch_mode_has_no_timeout() {
        assert!(SliderConfig::batch().timeout.is_none());
        // …and no maintenance deadline: the workers never tick in batch mode.
        assert!(SliderConfig::batch().maintenance_max_age.is_none());
    }
}
