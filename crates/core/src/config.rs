//! Reasoner configuration — the knobs of the paper's demo (§4).

use std::time::Duration;

/// Configuration of a [`Slider`](crate::Slider) instance.
///
/// The paper's demonstration exposes three parameters: buffer size,
/// buffer timeout and the fragment (the fragment is passed separately as
/// a [`Ruleset`](slider_rules::Ruleset)). This reproduction adds the pool
/// size, a tracing switch, the retraction analogues of buffer size and
/// timeout, and the dictionary sweep trigger. Everything else the engine
/// decides for itself: the object index is always built, and every
/// removal or flush is one DRed pass.
#[derive(Debug, Clone)]
pub struct SliderConfig {
    /// How many triples a buffer holds before it "fires a new rule
    /// execution" (§4). Default: 1024.
    pub buffer_capacity: usize,
    /// "After how long an inactive buffer is forced to flush" (§4).
    /// `None` disables timeout flushing (batch mode — callers must use
    /// [`Slider::wait_idle`](crate::Slider::wait_idle), which force-flushes).
    /// Default: 20 ms.
    pub timeout: Option<Duration>,
    /// Worker threads in the pool. Default: available parallelism.
    pub workers: usize,
    /// Record an [`EventLog`](crate::EventLog) of module activity (the demo
    /// player's data source). Off by default: tracing serialises events.
    pub trace: bool,
    /// Coalesced-maintenance threshold: how many *distinct* pending
    /// retractions [`Slider::remove_deferred`](crate::Slider::remove_deferred)
    /// accumulates before it triggers one coalesced DRed run over the whole
    /// pending set (the retraction analogue of `buffer_capacity`). See the
    /// [`scheduler`](crate::scheduler) module docs for the trigger
    /// semantics. Default: 1024.
    pub maintenance_batch: usize,
    /// Coalesced-maintenance deadline: how long the *oldest* deferred
    /// retraction may stay pending before the flusher thread forces a
    /// coalesced run (the retraction analogue of `timeout`). `None`
    /// disables the deadline — pending retractions then wait for the
    /// threshold or an explicit
    /// [`Slider::flush_maintenance`](crate::Slider::flush_maintenance).
    /// Default: 100 ms.
    pub maintenance_max_age: Option<Duration>,
    /// Dictionary sweep trigger ratio: after a coalesced DRed flush or an
    /// eager removal, the engine sweeps the term dictionary
    /// ([`Dictionary::sweep`](slider_model::Dictionary::sweep)) once the
    /// number of node ids retired since the last sweep exceeds this
    /// fraction of the dictionary's live-term count (and an absolute floor
    /// of 1024 retirements, so small workloads never pay for a sweep).
    /// The sweep runs with the store held exclusively, tombstones
    /// unreferenced non-vocabulary terms and recycles their ids through a
    /// free-list; ids of live terms never move. `f64::INFINITY` disables
    /// automatic sweeping (explicit
    /// [`Slider::sweep_dictionary`](crate::Slider::sweep_dictionary) still
    /// works). A dictionary shared with other sessions needs
    /// `f64::INFINITY`: a sweep's live roots are this session's store
    /// only. Default: 0.5.
    pub dict_sweep_ratio: f64,
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
            dict_sweep_ratio: 0.5,
        }
    }
}

impl SliderConfig {
    /// Batch-friendly configuration: no timeouts, default buffers, and no
    /// maintenance deadline — no flusher thread at all. Batch callers
    /// drive everything explicitly
    /// ([`Slider::wait_idle`](crate::Slider::wait_idle),
    /// [`Slider::flush_maintenance`](crate::Slider::flush_maintenance));
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

    /// Builder-style worker count (min 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
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

    /// Builder-style dictionary sweep ratio (clamped to be non-negative;
    /// `f64::INFINITY` disables automatic sweeping).
    pub fn with_dict_sweep_ratio(mut self, ratio: f64) -> Self {
        self.dict_sweep_ratio = if ratio.is_nan() { 0.5 } else { ratio.max(0.0) };
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
        assert_eq!(c.dict_sweep_ratio, 0.5);
    }

    #[test]
    fn dict_sweep_ratio_builder_clamps() {
        let c = SliderConfig::default();
        assert_eq!(c.clone().with_dict_sweep_ratio(-1.0).dict_sweep_ratio, 0.0);
        assert_eq!(c.clone().with_dict_sweep_ratio(2.0).dict_sweep_ratio, 2.0);
        assert_eq!(
            c.clone().with_dict_sweep_ratio(f64::NAN).dict_sweep_ratio,
            0.5
        );
        assert!(c
            .with_dict_sweep_ratio(f64::INFINITY)
            .dict_sweep_ratio
            .is_infinite());
    }

    #[test]
    fn builders_clamp() {
        let c = SliderConfig::default()
            .with_buffer_capacity(0)
            .with_workers(0)
            .with_maintenance_batch(0);
        assert_eq!(c.buffer_capacity, 1);
        assert_eq!(c.workers, 1);
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
        // …and no maintenance deadline: no flusher thread in batch mode.
        assert!(SliderConfig::batch().maintenance_max_age.is_none());
    }
}
