//! Operations as data: the reasoner's write contract in one place.
//!
//! Every write a [`Slider`](crate::Slider) accepts is an [`Op`], applied
//! one at a time by [`Slider::apply`](crate::Slider::apply), which answers
//! with the matching [`Outcome`]. The few typed entry points that remain
//! beside it ([`Slider::add_triples`](crate::Slider::add_triples),
//! [`add_terms`](crate::Slider::add_terms),
//! [`remove_terms`](crate::Slider::remove_terms),
//! [`sweep_dictionary`](crate::Slider::sweep_dictionary)) run the same
//! engine code as their `Op` and follow the same contract.

use crate::maintenance::RemovalOutcome;
use crate::quiescent::SwapOutcome;
use slider_model::{SweepOutcome, Triple};
use slider_rules::Ruleset;

/// One write operation on a reasoner, for
/// [`Slider::apply`](crate::Slider::apply).
///
/// Each op **linearises** at one instant: every query, and every other op
/// on the same reasoner, observes it either wholly before or wholly after
/// that instant. Ops applied one after another are not atomic together —
/// another thread's op may land between them.
///
/// * **`Add`** asserts triples. Each one enters the store **explicit**
///   (asserted, as opposed to rule-derived) — duplicates are dropped —
///   and the new ones are routed to the rule buffers; inference runs on
///   the worker pool and the call returns without waiting for it
///   ([`Slider::wait_idle`](crate::Slider::wait_idle) does). It linearises
///   at its store insert, and it **cancels** the pending `Defer` of every
///   triple it asserts: the assertion is the newer fact, so the next flush
///   leaves it and its consequences in place. No flush can land between
///   the insert and the cancellation. Reports how many triples were new.
/// * **`Remove`** retracts triples eagerly with DRed truth maintenance
///   (see [`maintenance`](crate::maintenance)): the retracted facts and
///   every conclusion that depended on them are deleted, then the
///   conclusions with a surviving derivation are restored. It waits for
///   quiescence — the inference of every earlier `Add` completes — and
///   linearises in one pass with the store held exclusively, so a racing
///   `Add` lands wholly before or after it. Only explicit triples retract:
///   a derived-only or absent triple is a no-op, counted apart in
///   [`RemovalOutcome::ignored_derived`] and [`RemovalOutcome::not_found`].
///   An empty batch returns at once, without taking the store. A pending
///   `Defer` of the same triple stays queued.
/// * **`Defer`** enqueues retractions without applying them (distinct,
///   oldest first) and reports how many were newly enqueued. One coalesced
///   DRed pass over the whole pending set applies them at the next
///   `Flush`; when the pending count reaches
///   [`SliderConfig::maintenance_batch`](crate::SliderConfig::maintenance_batch)
///   (inside this call); when the oldest outlives
///   [`SliderConfig::maintenance_max_age`](crate::SliderConfig::maintenance_max_age)
///   (on a pool worker's tick); or when the reasoner drops. Until then
///   queries see the pre-retraction closure, at most
///   [`Slider::pending_staleness`](crate::Slider::pending_staleness) old.
///   A later `Add` of a pending triple cancels its retraction; a `Swap`
///   does not — pending retractions survive it and apply under the
///   program loaded at flush time.
/// * **`Flush`** drains every pending retraction and applies the union in
///   one DRed pass. It linearises at the drain, taken with the store held
///   exclusively after a quiescence check, so it never applies a
///   retraction over an `Add` that cancelled it. It is a barrier: it
///   returns only once every retraction drained by any flush, a racing
///   one included, is applied. [`RemovalOutcome::requested`] is the number
///   of distinct retractions drained; with nothing pending it returns the
///   zero outcome without taking the store. The result equals an eager
///   `Remove` of the surviving pending set.
/// * **`Swap`** replaces the loaded ruleset on the live reasoner and
///   repairs the store incrementally. Rules present in both programs
///   (equal by `Rule::same_rule`: a [`RuleSpec`](slider_rules::RuleSpec)
///   by name, definition, clauses with their constants, and guards) are
///   kept with their counters; derivations supported only by dropped rules
///   retract through DRed; added rules are evaluated over the whole store.
///   It linearises at a quiescent instant with the store held
///   exclusively, where the new rule modules and dependency graph install
///   at once: racing `Add`s run wholly under the old program or the new
///   one, and readers see the new closure as one generation bump.
///   Afterwards the store is the closure of its explicit triples under the
///   new program. Swapping to an identical ruleset changes no triple.
/// * **`Sweep`** compacts the term dictionary: it retires every term no
///   root mentions. The roots are the live store, every epoch a query
///   still holds, the pending retractions, and every id interned before
///   the current ruleset was installed — the rules' constants among them.
///   It runs like a maintenance pass, one at a time with the store held
///   exclusively. Swept ids are never reused; a dictionary shared with
///   another live reasoner is never swept
///   ([`SweepOutcome::skipped`]). Large retraction flushes sweep on their
///   own.
#[derive(Debug, Clone)]
pub enum Op {
    /// Assert triples.
    Add(Vec<Triple>),
    /// Retract triples now.
    Remove(Vec<Triple>),
    /// Enqueue triples for a coalesced retraction.
    Defer(Vec<Triple>),
    /// Apply every pending retraction.
    Flush,
    /// Replace the loaded ruleset.
    Swap(Ruleset),
    /// Compact the term dictionary.
    Sweep,
}

/// What one [`Op`] did: one variant per op, named after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Triples new to the store.
    Add(usize),
    /// The eager DRed pass.
    Remove(RemovalOutcome),
    /// Retractions newly enqueued.
    Defer(usize),
    /// The coalesced DRed pass.
    Flush(RemovalOutcome),
    /// The ruleset swap, phase by phase.
    Swap(SwapOutcome),
    /// The dictionary sweep.
    Sweep(SweepOutcome),
}

impl Outcome {
    /// The count an `Add` or `Defer` reported.
    pub fn count(self) -> Option<usize> {
        match self {
            Outcome::Add(n) | Outcome::Defer(n) => Some(n),
            _ => None,
        }
    }

    /// The DRed pass a `Remove` or `Flush` ran.
    pub fn removal(self) -> Option<RemovalOutcome> {
        match self {
            Outcome::Remove(o) | Outcome::Flush(o) => Some(o),
            _ => None,
        }
    }

    /// What a `Swap` did.
    pub fn swap(self) -> Option<SwapOutcome> {
        match self {
            Outcome::Swap(o) => Some(o),
            _ => None,
        }
    }
}
