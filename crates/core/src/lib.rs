//! **Slider** — the incremental reasoner (the paper's primary contribution).
//!
//! The architecture is a faithful Rust realisation of the paper's Figure 1,
//! extended with a retraction path (DRed truth maintenance):
//!
//! ```text
//!             ┌────────────────────────────────────────────────┐
//!  evolving   │  TRIPLE STORE (vertically partitioned, 1 lock) │
//!  data ──►   └─▲──▲──────────────▲──────────────▲─────────────┘
//!   input       │  │ read         │ read         │ write (dedup)
//!  manager ──► [Buffer R1] ─► (rule instance on thread pool) ─► [Distributor R1]
//!          └─► [Buffer R2] ─► (rule instance on thread pool) ─► [Distributor R2]
//!          └─► [Buffer R3] ─►            …                         │
//!               │  ▲───────────── fresh triples routed ◄───────────┘
//!               │        (rules dependency graph, Figure 2)
//!  retractions ─┴─► [DRed maintenance: overdelete ▸ rederive]
//!               (store-exclusive; explicit/derived provenance flags)
//! ```
//!
//! * The **input manager** ([`Op::Add`], or [`Slider::add_triples`] and
//!   [`Slider::add_terms`] on a borrowed batch) dictionary-encodes
//!   incoming triples, inserts them into the store
//!   (duplicates are dropped here — first dedup layer; inputs are flagged
//!   **explicit**) and routes the new ones to the buffers of every rule
//!   whose join can use them ([`Rule::joinable`](slider_rules::Rule::joinable),
//!   asked after the insert; by predicate, from the rule's [`InputFilter`],
//!   for a hand-written rule).
//! * Each rule module owns a **buffer**; when it reaches
//!   [`SliderConfig::buffer_capacity`] triples — or sits idle longer than
//!   [`SliderConfig::timeout`] — its content becomes a *rule instance*: a
//!   job on the **thread pool** that joins the batch against the live
//!   store under a shared read lock, beside other joins, and drops the
//!   conclusions already present under the same read — per paper
//!   Algorithm 1.
//! * The rule instance's **distributor** inserts the remaining conclusions
//!   into the store as one batch under the write lock, bumping the store
//!   generation once; only the triples that were *actually new*
//!   are dispatched onward, to the buffers selected by the **rules
//!   dependency graph** — the paper's duplicate-limitation mechanism.
//! * [`Slider::wait_idle`] detects quiescence (all buffers empty, no
//!   in-flight work): the closure is complete, and its caller runs queued
//!   rule instances meanwhile, help-first — the partial buffers it
//!   flushes wake no pool worker. Streaming callers instead just keep
//!   feeding triples; timeouts keep buffers moving.
//! * **Retractions** ([`Op::Remove`], [`Slider::remove_terms`])
//!   run the [`maintenance`] module's DRed algorithm with the store held
//!   exclusively: overdelete the
//!   downward closure of the retracted facts
//!   through the dependency graph, then rederive the survivors via the
//!   same rule modules. Afterwards the store equals the closure of the
//!   surviving explicit triples — sliding-window streams retract expiring
//!   batches instead of rebuilding.
//! * **Deferred retractions** ([`Op::Defer`], [`Op::Flush`]) enqueue on
//!   the [`scheduler`] module's maintenance scheduler instead; one
//!   *coalesced* DRed run over the whole pending set fires on a
//!   pending-count threshold, a max-age deadline (served by the pool's
//!   tick), or an explicit flush — amortising maintenance for high-churn
//!   windows. Eager removals and flushes take the same path: one DRed pass
//!   over the quiescent store, one maintenance run at a time.
//!
//! Every write is an [`Op`] applied by [`Slider::apply`]; [`Op`]'s docs
//! are the one linearisation contract, variant by variant.
//!
//! Termination is guaranteed because every dispatched triple was new to the
//! store and rules never invent new term ids, so the reachable closure is
//! finite and monotone between maintenance runs.
//!
//! Each [`Slider`] owns [`SliderConfig::workers`] threads draining one
//! FIFO work queue, which also serve the deadlines once per tick (none
//! with `workers: 0`). Several streams are several `Slider`s; they may
//! share one `Arc<Dictionary>`, which is never swept while more than one
//! of them is live (see [`Op::Sweep`]).
//!
//! [`InputFilter`]: slider_rules::InputFilter

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod config;
mod engine;
pub mod maintenance;
mod module;
mod op;
mod quiescent;
pub mod scheduler;
mod slider;
mod stats;
pub mod trace;
mod work;

pub use config::SliderConfig;
pub use maintenance::RemovalOutcome;
pub use op::{Op, Outcome};
pub use quiescent::SwapOutcome;
pub use slider::Slider;
pub use stats::{RuleStats, StatsSnapshot};
pub use trace::{events_to_json, Event, EventKind, EventLog};

/// End-to-end tests of one reasoning session, across the modules above.
#[cfg(test)]
mod session {
    mod tests;
}
