//! What the integration suites share: the one model of a reasoner's write
//! ops, judged by the recompute oracle, and the drivers built on it.

// Each suite compiles this module on its own and uses a part of it.
#![allow(dead_code)]

use proptest::prelude::*;
use slider::baseline::RecomputeOracle;
use slider::prelude::*;
use std::sync::Arc;

/// Feeds a batch and waits for its closure.
pub fn materialize(slider: &Slider, triples: &[Triple]) {
    slider.add_triples(triples);
    slider.wait_idle();
}

/// A reasoner whose deferred retractions apply only on [`Op::Flush`]: no
/// threshold, no deadline.
pub fn manual_flush_slider(ruleset: Ruleset) -> Slider {
    Slider::new(
        Arc::new(Dictionary::new()),
        ruleset,
        SliderConfig::default()
            .with_maintenance_batch(usize::MAX)
            .with_maintenance_max_age(None),
    )
}

/// Ops over batches of 1–7 triples drawn from `triple`, picked with the
/// weights `[add, remove, defer, flush]`.
pub fn write_op<S>(triple: fn() -> S, weights: [u32; 4]) -> impl Strategy<Value = Op>
where
    S: Strategy<Value = Triple> + 'static,
{
    let batch = move || prop::collection::vec(triple(), 1..8);
    let [add, remove, defer, flush] = weights;
    prop_oneof![
        add => batch().prop_map(Op::Add),
        remove => batch().prop_map(Op::Remove),
        defer => batch().prop_map(Op::Defer),
        flush => Just(Op::Flush),
    ]
}

/// The model of a reasoner under a stream of [`Op`]s: the explicit set
/// and the loaded ruleset (kept by the oracle, which recomputes the
/// closure from scratch), and the distinct pending retractions in
/// enqueue order. An `Add` cancels the pending retractions it asserts;
/// with a threshold, a `Defer` that leaves that many pending flushes.
pub struct Model {
    oracle: RecomputeOracle,
    ruleset: Ruleset,
    pending: Vec<Triple>,
    threshold: Option<usize>,
}

impl Model {
    /// An empty model over `ruleset`, auto-flushing at `threshold`.
    pub fn new(ruleset: Ruleset, threshold: Option<usize>) -> Self {
        Model {
            oracle: RecomputeOracle::new(ruleset.clone()),
            ruleset,
            pending: Vec::new(),
            threshold,
        }
    }

    /// The oracle holding the surviving explicit set.
    pub fn oracle(&self) -> &RecomputeOracle {
        &self.oracle
    }

    /// How many retractions are pending.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Mirrors `op`, and checks the `outcome` the reasoner reported for
    /// it: a `Flush` drained exactly the pending set, and a `Swap`'s
    /// dropped/added/kept partition both programs.
    pub fn apply(&mut self, op: &Op, outcome: Outcome) -> Result<(), TestCaseError> {
        match op {
            Op::Add(batch) => {
                self.oracle.add(batch);
                self.pending.retain(|t| !batch.contains(t));
            }
            Op::Remove(batch) => {
                self.oracle.remove(batch);
            }
            Op::Defer(batch) => {
                for &t in batch {
                    if !self.pending.contains(&t) {
                        self.pending.push(t);
                    }
                }
                if self.threshold.is_some_and(|k| self.pending.len() >= k) {
                    self.flush();
                }
            }
            Op::Flush => {
                let requested = outcome.removal().map(|o| o.requested);
                prop_assert_eq!(requested, Some(self.pending.len()));
                self.flush();
            }
            Op::Swap(next) => {
                let swap = outcome.swap().expect("a swap reports a SwapOutcome");
                prop_assert_eq!(swap.dropped + swap.kept, self.ruleset.rules().len());
                prop_assert_eq!(swap.added + swap.kept, next.rules().len());
                let explicit = self.oracle.explicit();
                self.oracle = RecomputeOracle::new(next.clone());
                self.oracle.add(&explicit);
                self.ruleset = next.clone();
            }
            Op::Sweep => {}
        }
        Ok(())
    }

    fn flush(&mut self) {
        self.oracle.remove(&self.pending);
        self.pending.clear();
    }

    /// Checks a quiescent reasoner against the model: the pending count,
    /// the store against the oracle's closure, and the explicit count.
    pub fn check(&self, slider: &Slider) -> Result<(), TestCaseError> {
        let stats = slider.stats();
        prop_assert_eq!(stats.pending_removals, self.pending.len());
        prop_assert_eq!(slider.store().to_sorted_vec(), self.oracle.to_sorted_vec());
        prop_assert_eq!(stats.store.explicit, self.oracle.explicit_len());
        Ok(())
    }

    /// Applies each op to the reasoner and the model, then a last `Flush`
    /// for what is still pending, checking after each one once the
    /// reasoner is idle.
    pub fn run(&mut self, slider: &Slider, ops: &[Op]) -> Result<(), TestCaseError> {
        for (i, op) in ops.iter().chain([&Op::Flush]).enumerate() {
            let context = |e: TestCaseError| TestCaseError::fail(format!("op {i} of {ops:?}: {e}"));
            self.apply(op, slider.apply(op.clone())).map_err(context)?;
            slider.wait_idle();
            self.check(slider).map_err(context)?;
        }
        Ok(())
    }
}
