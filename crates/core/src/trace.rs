//! Event tracing — the data source for the demo's "inference player" (§4).
//!
//! The paper's web demo records "the state of all the modules of Slider at
//! each step of the process", letting users pause, step and replay an
//! inference. With [`SliderConfig::trace`](crate::SliderConfig::trace)
//! enabled, the reasoner appends an [`Event`] per module transition;
//! `examples/inference_player.rs` replays them in a terminal.

use parking_lot::Mutex;
use std::time::{Duration, Instant};

/// What happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A batch arrived at the input manager.
    Input {
        /// Triples offered.
        received: usize,
        /// Triples that were new to the store.
        fresh: usize,
    },
    /// A buffer reached capacity and fired an instance.
    BufferFull {
        /// Rule index in the ruleset.
        rule: usize,
    },
    /// A buffer was force-flushed before it filled: by the pool's tick
    /// (idle past its timeout) or by `wait_idle`'s forced flush.
    TimeoutFlush {
        /// Rule index in the ruleset.
        rule: usize,
    },
    /// A rule instance finished.
    RuleFired {
        /// Rule index in the ruleset.
        rule: usize,
        /// Size of the input batch (delta).
        delta: usize,
        /// Conclusions derived (incl. duplicates).
        derived: usize,
        /// Conclusions new to the store (dispatched).
        fresh: usize,
        /// Store size after the distributor ran.
        store_size: usize,
    },
    /// A DRed maintenance run (retraction) completed.
    Removal {
        /// Triples offered to the `Remove` op.
        requested: usize,
        /// Explicit triples actually retracted.
        retracted: usize,
        /// Derived triples deleted during overdeletion.
        overdeleted: usize,
        /// Overdeleted triples restored by rederivation.
        rederived: usize,
        /// Store size after maintenance.
        store_size: usize,
    },
    /// A coalesced maintenance run: deferred retractions flushed as one
    /// DRed pass (threshold-, deadline- or explicitly triggered).
    CoalescedRemoval {
        /// Distinct pending retractions drained into this run.
        pending: usize,
        /// Explicit triples actually retracted.
        retracted: usize,
        /// Derived triples deleted during overdeletion.
        overdeleted: usize,
        /// Overdeleted triples restored by rederivation.
        rederived: usize,
        /// Store size after maintenance.
        store_size: usize,
    },
    /// A live ruleset replacement completed (`Op::Swap`): the program
    /// was diffed against the running one, derivations supported only by
    /// dropped rules were retracted (DRed), added rules were evaluated
    /// semi-naively, and the dependency graph / rule modules were rebuilt at
    /// the swap's linearisation point.
    RulesetSwap {
        /// Rules removed by the swap.
        dropped: usize,
        /// Rules introduced by the swap.
        added: usize,
        /// Rules present in both programs (counters carried over).
        kept: usize,
        /// Derived triples deleted during dropped-rule overdeletion.
        overdeleted: usize,
        /// Overdeleted triples restored (they survived under kept rules).
        rederived: usize,
        /// Triples newly inferred by the added rules.
        inferred: usize,
        /// Store size after the swap.
        store_size: usize,
    },
    /// A dictionary compaction sweep completed (automatic after a large
    /// retraction flush, or an explicit
    /// [`Slider::sweep_dictionary`](crate::Slider::sweep_dictionary)):
    /// terms no sweep root references were retired, their ids never to be
    /// reused. Ids of live terms never move. A skipped sweep records none.
    DictSweep {
        /// Non-vocabulary slots examined.
        scanned: usize,
        /// Ids retired by this sweep.
        swept: usize,
        /// Live terms remaining after the sweep (vocabulary included).
        live: usize,
        /// Dictionary bytes estimate before the sweep.
        bytes_before: usize,
        /// Dictionary bytes estimate after the sweep.
        bytes_after: usize,
    },
    /// The reasoner reached quiescence.
    Idle {
        /// Store size at quiescence.
        store_size: usize,
    },
}

/// A timestamped event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Time since the reasoner was created.
    pub at: Duration,
    /// What happened.
    pub kind: EventKind,
}

/// An append-only, thread-safe event log.
#[derive(Debug)]
pub struct EventLog {
    epoch: Instant,
    events: Mutex<Vec<Event>>,
}

impl EventLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        EventLog {
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Appends an event, stamped under the lock so the log stays in time order.
    pub fn record(&self, kind: EventKind) {
        let mut events = self.events.lock();
        let at = self.epoch.elapsed();
        events.push(Event { at, kind });
    }

    /// Copies out all events recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().clone()
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new()
    }
}

/// Serialises events as a JSON array — the wire format a web front end
/// (like the paper's demo GUI) would consume. Hand-rolled; the event
/// payloads are numbers and static strings, so no escaping is needed.
pub fn events_to_json(events: &[Event]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(events.len() * 96 + 2);
    out.push('[');
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let us = event.at.as_micros();
        match &event.kind {
            EventKind::Input { received, fresh } => {
                let _ = write!(
                    out,
                    r#"{{"at_us":{us},"type":"input","received":{received},"fresh":{fresh}}}"#
                );
            }
            EventKind::BufferFull { rule } => {
                let _ = write!(
                    out,
                    r#"{{"at_us":{us},"type":"buffer_full","rule":{rule}}}"#
                );
            }
            EventKind::TimeoutFlush { rule } => {
                let _ = write!(
                    out,
                    r#"{{"at_us":{us},"type":"timeout_flush","rule":{rule}}}"#
                );
            }
            EventKind::RuleFired {
                rule,
                delta,
                derived,
                fresh,
                store_size,
            } => {
                let _ = write!(
                    out,
                    r#"{{"at_us":{us},"type":"rule_fired","rule":{rule},"delta":{delta},"derived":{derived},"fresh":{fresh},"store_size":{store_size}}}"#
                );
            }
            EventKind::Removal {
                requested,
                retracted,
                overdeleted,
                rederived,
                store_size,
            } => {
                let _ = write!(
                    out,
                    r#"{{"at_us":{us},"type":"removal","requested":{requested},"retracted":{retracted},"overdeleted":{overdeleted},"rederived":{rederived},"store_size":{store_size}}}"#
                );
            }
            EventKind::CoalescedRemoval {
                pending,
                retracted,
                overdeleted,
                rederived,
                store_size,
            } => {
                let _ = write!(
                    out,
                    r#"{{"at_us":{us},"type":"coalesced_removal","pending":{pending},"retracted":{retracted},"overdeleted":{overdeleted},"rederived":{rederived},"store_size":{store_size}}}"#
                );
            }
            EventKind::RulesetSwap {
                dropped,
                added,
                kept,
                overdeleted,
                rederived,
                inferred,
                store_size,
            } => {
                let _ = write!(
                    out,
                    r#"{{"at_us":{us},"type":"ruleset_swap","dropped":{dropped},"added":{added},"kept":{kept},"overdeleted":{overdeleted},"rederived":{rederived},"inferred":{inferred},"store_size":{store_size}}}"#
                );
            }
            EventKind::DictSweep {
                scanned,
                swept,
                live,
                bytes_before,
                bytes_after,
            } => {
                let _ = write!(
                    out,
                    r#"{{"at_us":{us},"type":"dict_sweep","scanned":{scanned},"swept":{swept},"live":{live},"bytes_before":{bytes_before},"bytes_after":{bytes_after}}}"#
                );
            }
            EventKind::Idle { store_size } => {
                let _ = write!(
                    out,
                    r#"{{"at_us":{us},"type":"idle","store_size":{store_size}}}"#
                );
            }
        }
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_monotonic_time() {
        let log = EventLog::new();
        log.record(EventKind::Input {
            received: 5,
            fresh: 5,
        });
        log.record(EventKind::BufferFull { rule: 0 });
        log.record(EventKind::RuleFired {
            rule: 0,
            delta: 5,
            derived: 3,
            fresh: 2,
            store_size: 7,
        });
        let events = log.events();
        assert_eq!(events.len(), 3);
        assert!(events[0].at <= events[1].at);
        assert!(events[1].at <= events[2].at);
        assert!(matches!(
            events[2].kind,
            EventKind::RuleFired { fresh: 2, .. }
        ));
    }

    #[test]
    fn concurrent_recording() {
        let log = std::sync::Arc::new(EventLog::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let log = std::sync::Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    log.record(EventKind::BufferFull { rule: 1 });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.len(), 400);
        assert!(!log.is_empty());
    }

    #[test]
    fn json_export_covers_every_event_kind() {
        let log = EventLog::new();
        log.record(EventKind::Input {
            received: 5,
            fresh: 4,
        });
        log.record(EventKind::BufferFull { rule: 2 });
        log.record(EventKind::TimeoutFlush { rule: 3 });
        log.record(EventKind::RuleFired {
            rule: 2,
            delta: 4,
            derived: 6,
            fresh: 1,
            store_size: 5,
        });
        log.record(EventKind::Removal {
            requested: 3,
            retracted: 2,
            overdeleted: 4,
            rederived: 1,
            store_size: 2,
        });
        log.record(EventKind::CoalescedRemoval {
            pending: 7,
            retracted: 6,
            overdeleted: 9,
            rederived: 2,
            store_size: 4,
        });
        log.record(EventKind::RulesetSwap {
            dropped: 1,
            added: 2,
            kept: 6,
            overdeleted: 4,
            rederived: 1,
            inferred: 3,
            store_size: 8,
        });
        log.record(EventKind::DictSweep {
            scanned: 50,
            swept: 30,
            live: 20,
            bytes_before: 9000,
            bytes_after: 4000,
        });
        log.record(EventKind::Idle { store_size: 5 });
        let json = events_to_json(&log.events());
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        for needle in [
            r#""type":"input","received":5,"fresh":4"#,
            r#""type":"buffer_full","rule":2"#,
            r#""type":"timeout_flush","rule":3"#,
            r#""type":"rule_fired","rule":2,"delta":4,"derived":6,"fresh":1,"store_size":5"#,
            r#""type":"removal","requested":3,"retracted":2,"overdeleted":4,"rederived":1,"store_size":2"#,
            r#""type":"coalesced_removal","pending":7,"retracted":6,"overdeleted":9,"rederived":2,"store_size":4"#,
            r#""type":"ruleset_swap","dropped":1,"added":2,"kept":6,"overdeleted":4,"rederived":1,"inferred":3,"store_size":8"#,
            r#""type":"dict_sweep","scanned":50,"swept":30,"live":20,"bytes_before":9000,"bytes_after":4000"#,
            r#""type":"idle","store_size":5"#,
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        // 8 separators for 9 events.
        assert_eq!(json.matches("},{").count(), 8);
    }

    #[test]
    fn json_export_empty() {
        assert_eq!(events_to_json(&[]), "[]");
    }
}
