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
//! * The **input manager** ([`Slider::add_triples`], [`Slider::add_terms`])
//!   dictionary-encodes incoming triples, inserts them into the store
//!   (duplicates are dropped here — first dedup layer; inputs are flagged
//!   **explicit**) and routes the new ones to the buffers of every rule
//!   whose [`InputFilter`] accepts them.
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
//!   in-flight work): the closure is complete. Streaming callers instead
//!   just keep feeding triples; timeouts keep buffers moving.
//! * **Retractions** ([`Slider::remove_triples`], [`Slider::remove_terms`])
//!   run the [`maintenance`] module's DRed algorithm with the store held
//!   exclusively: overdelete the
//!   downward closure of the retracted facts
//!   through the dependency graph, then rederive the survivors via the
//!   same rule modules. Afterwards the store equals the closure of the
//!   surviving explicit triples — sliding-window streams retract expiring
//!   batches instead of rebuilding.
//! * **Deferred retractions** ([`Slider::remove_deferred`],
//!   [`Slider::flush_maintenance`]) enqueue on the [`scheduler`] module's
//!   maintenance scheduler instead; one *coalesced* DRed run over the
//!   whole pending set fires on a pending-count threshold, a max-age
//!   deadline (serviced by the flusher thread), or an explicit flush —
//!   amortising maintenance for high-churn windows. Re-asserting a triple
//!   while its retraction is pending **cancels** the retraction, so a
//!   flush always lands on the closure of the surviving explicit set;
//!   [`Slider::pending_staleness`] bounds how stale pre-flush queries may
//!   be. Eager removals and flushes take the same path: one DRed pass
//!   over the quiescent store, one maintenance run at a time.
//!
//! Termination is guaranteed because every dispatched triple was new to the
//! store and rules never invent new term ids, so the reachable closure is
//! finite and monotone between maintenance runs.
//!
//! The execution layer — worker pool, session-fair job queue, and the
//! flusher that services buffer timeouts and maintenance deadlines — is a
//! shared [`Runtime`] (see the [`runtime`] module): a standalone `Slider`
//! owns a private one, while [`Runtime::session`] multiplexes many
//! independent reasoner sessions over a single pool, with per-tick
//! maintenance slicing ([`RuntimeConfig::maintenance_budget`]) keeping one
//! tenant's coalesced DRed out of another's ingest latency.
//!
//! [`InputFilter`]: slider_rules::InputFilter

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod config;
mod inflight;
pub mod maintenance;
pub mod runtime;
pub mod scheduler;
mod session;
mod stats;
pub mod trace;

pub use buffer::Buffer;
pub use config::SliderConfig;
pub use maintenance::RemovalOutcome;
pub use runtime::{Runtime, RuntimeConfig, SessionHandle};
pub use session::{Slider, SwapOutcome};
pub use stats::{RuleStats, StatsSnapshot};
pub use trace::{events_to_json, Event, EventKind, EventLog};
