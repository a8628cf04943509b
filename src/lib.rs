//! # Slider — an efficient incremental RDFS reasoner
//!
//! A from-scratch Rust reproduction of *Slider: an Efficient Incremental
//! Reasoner* (Chevalier, Subercaze, Gravier, Laforest — SIGMOD 2015),
//! including every substrate the paper depends on: RDF data model and
//! dictionary encoding, N-Triples/Turtle parsing, a vertically partitioned
//! concurrent triple store, the ρdf and RDFS rule fragments with their
//! dependency graph, the buffered incremental reasoning engine, batch
//! baselines, workload generators and the full benchmark harness.
//!
//! This facade crate re-exports the public API of every member crate under
//! one roof; depend on it to get everything, or on the individual
//! `slider-*` crates for narrower footprints.
//!
//! ## Quickstart
//!
//! ```
//! use slider::prelude::*;
//!
//! // A reasoner over the ρdf fragment with default tuning.
//! let slider = Slider::fragment(Fragment::RhoDf, SliderConfig::default());
//!
//! // Feed triples (here through the Turtle parser).
//! let doc = r#"
//!     @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
//!     @prefix ex:   <http://example.org/> .
//!     ex:Cat  rdfs:subClassOf ex:Feline .
//!     ex:Feline rdfs:subClassOf ex:Animal .
//!     ex:felix a ex:Cat .
//! "#;
//! let triples: Vec<_> = slider::parser::parse_turtle_str(doc)
//!     .collect::<Result<_, _>>()
//!     .unwrap();
//! slider.add_terms(&triples);
//!
//! // Wait for the closure: felix is a Feline and an Animal, and
//! // Cat ⊑ Animal was derived by SCM-SCO.
//! slider.wait_idle();
//! assert_eq!(slider.store().len(), 3 + 3);
//!
//! // Retraction (DRed truth maintenance): retract the Feline ⊑ Animal
//! // assertion and every conclusion that depended on it goes too.
//! let feline_animal = slider::parser::parse_turtle_str(
//!     "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
//!      @prefix ex: <http://example.org/> .
//!      ex:Feline rdfs:subClassOf ex:Animal .",
//! ).collect::<Result<Vec<_>, _>>().unwrap();
//! assert_eq!(slider.remove_terms(&feline_animal), 1);
//! // Cat ⊑ Animal and felix's Animal typing went with it; what is left is
//! // the closure of the two surviving assertions: felix is just a Feline.
//! assert_eq!(slider.store().len(), 2 + 1);
//! ```
//!
//! ## Removal semantics
//!
//! The store distinguishes **explicit** triples (asserted through
//! `add_*` — what you said) from **derived** ones (rule conclusions —
//! what follows). `Slider::remove_triples`/`remove_terms` retract
//! *assertions*: the triple loses its explicit status, and DRed
//! maintenance (overdelete, then rederive — see `slider_core::maintenance`)
//! updates the derived closure, leaving the store equal to the closure of
//! the surviving explicit triples. Consequences:
//!
//! * removing a **derived-only** fact is a no-op — it is not an assertion,
//!   and it would be rederived anyway; `Slider::remove_triples_outcome`
//!   reports these distinctly (`RemovalOutcome::ignored_derived`) from
//!   triples that were absent altogether (`RemovalOutcome::not_found`), so
//!   callers can tell "you offered a consequence, not an assertion" apart
//!   from "never heard of it";
//! * removing an explicit fact that is *also* derivable (e.g. an asserted
//!   `Cat ⊑ Animal` in a taxonomy that implies it) demotes it to derived:
//!   it stays in the store but no longer survives on its own authority;
//! * `remove_terms` only looks terms up (never interns), so a triple over
//!   unknown terms is skipped;
//! * `Slider::stats().store` reports the explicit/derived split, and the
//!   `retracted`/`overdeleted`/`rederived` counters the maintenance runs.
//!
//! ## Deferred (coalesced) removal
//!
//! High-churn sliding windows retract a batch per arrival; paying one
//! overdelete/rederive cycle per batch wastes the work the batches share.
//! `Slider::remove_deferred`/`remove_terms_deferred` *enqueue* retractions
//! on the maintenance scheduler instead, and one **coalesced** DRed run
//! over the whole pending set fires when the pending count reaches
//! `SliderConfig::maintenance_batch`, when the oldest pending retraction
//! outlives `SliderConfig::maintenance_max_age`, or on an explicit
//! `Slider::flush_maintenance`. The deferred semantics:
//!
//! * a flush leaves the store at the closure of the explicit set that
//!   **survived the interleaving** — in particular, *re-asserting a
//!   triple while its retraction is pending cancels the retraction*
//!   (the assertion is newer; `StatsSnapshot::cancelled_removals`
//!   counts these);
//! * until a trigger fires, queries see the pre-retraction closure;
//!   `Slider::pending_staleness()` bounds how stale (the age of the
//!   oldest pending retraction);
//! * dropping the reasoner flushes the pending set — retractions apply
//!   on teardown rather than being discarded;
//! * a flush is one DRed pass over the whole pending set, exactly what an
//!   eager `remove_triples` of the same set runs.
//!
//! Use eager `remove_triples` when retractions must be visible
//! immediately.
//!
//! ## Shared runtime & multi-tenant sessions
//!
//! A standalone `Slider` owns a private execution runtime: a worker pool
//! plus one flusher thread servicing buffer timeouts and maintenance
//! deadlines. When many reasoners must coexist — one per stream, tenant
//! or ontology — spawning a pool each wastes threads and lets one
//! tenant's maintenance monopolise the machine. `Runtime::new` builds the
//! pool once and `Runtime::session` attaches any number of independent
//! sessions (own store, ruleset, scheduler and stats) to it:
//!
//! ```
//! use slider::prelude::*;
//! use std::time::Duration;
//!
//! // One pool, two workers, flushes sliced under a 2 ms per-tick budget.
//! let runtime = Runtime::new(
//!     RuntimeConfig::default()
//!         .with_workers(2)
//!         .with_maintenance_budget(Some(Duration::from_millis(2))),
//! );
//! let news = runtime.session_fragment(Fragment::RhoDf, SliderConfig::default());
//! let social = runtime.session_fragment(Fragment::Rdfs, SliderConfig::default());
//! assert_eq!(runtime.session_count(), 2);
//! assert_eq!(runtime.thread_count(), 2 + 1); // workers + one flusher
//! # drop((news, social));
//! ```
//!
//! The job queue is **session-fair** (round-robin across sessions, so a
//! bursty tenant cannot starve a quiet one), worker panics are contained
//! to the session whose rule instance panicked, and deadline-triggered
//! flushes are **sliced** under `RuntimeConfig::maintenance_budget`: a
//! tick applies at most a budget's worth of one session's pending
//! retractions — always at least one slice, so no session starves — and
//! defers the rest (`StatsSnapshot::budget_deferrals`), keeping a
//! co-tenant's huge coalesced DRed out of everyone else's ingest latency.
//! Dropping a session detaches it; the pool's threads only join when the
//! last session *and* the last `Runtime` handle are gone.
//!
//! ## Epoch reads & ruleset hot-swap
//!
//! Rule joins read the live store under a shared lock, side by side.
//! Queries (`contains`, `matches`, `stats`, `to_sorted_vec`) answer from
//! the store's **epoch snapshot** (`slider_store::EpochSnapshot`) — an
//! immutable, generation-stamped copy-on-write image, built by the first
//! query after a write (or, once a query has had to wait for a running
//! write batch, by every write) — so a query never sees a half-applied
//! write and never waits for maintenance: an exclusive section publishes
//! its pre-section epoch on entry. `Slider::swap_ruleset` replaces the loaded
//! ruleset on the live reasoner: derivations supported only by dropped
//! rules are retracted with DRed, added rules are evaluated semi-naively,
//! and the dependency graph and rule modules are rebuilt atomically at
//! the swap's linearisation point:
//!
//! ```
//! use slider::prelude::*;
//! use slider::rules::Transitive;
//! use std::sync::Arc;
//!
//! let dict = Arc::new(Dictionary::new());
//! let p = NodeId(7);
//! let slider = Slider::new(
//!     Arc::clone(&dict),
//!     Ruleset::custom("trans").with(Transitive::new("T", p)),
//!     SliderConfig::default(),
//! );
//! slider.materialize(&[
//!     Triple::new(NodeId(1), p, NodeId(2)),
//!     Triple::new(NodeId(2), p, NodeId(3)),
//! ]);
//!
//! // Live program change: drop the transitivity rule. Its derivations
//! // retract incrementally — no rebuild, no downtime.
//! let outcome: SwapOutcome = slider.swap_ruleset(Ruleset::custom("empty"));
//! assert_eq!(outcome.dropped, 1);
//! assert!(!slider.store().contains(Triple::new(NodeId(1), p, NodeId(3))));
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`model`] | `slider-model` | terms, triples, sharded lock-free-read dictionary (+ sweep compaction), vocabulary |
//! | [`parser`] | `slider-parser` | N-Triples + Turtle subset, writer |
//! | [`store`] | `slider-store` | vertically partitioned triple store |
//! | [`rules`] | `slider-rules` | ρdf/RDFS rules, dependency graph |
//! | [`core`] | `slider-core` | the incremental reasoner |
//! | [`baseline`] | `slider-baseline` | batch materialisers (comparators/oracles) |
//! | [`workloads`] | `slider-workloads` | benchmark ontology generators |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use slider_baseline as baseline;
pub use slider_core as core;
pub use slider_model as model;
pub use slider_parser as parser;
pub use slider_rules as rules;
pub use slider_store as store;
pub use slider_workloads as workloads;

/// The names most programs need, in one import.
pub mod prelude {
    pub use slider_baseline::{NaiveReasoner, SemiNaiveReasoner};
    pub use slider_core::{
        RemovalOutcome, Runtime, RuntimeConfig, SessionHandle, Slider, SliderConfig, SwapOutcome,
    };
    pub use slider_model::{
        DictStats, Dictionary, Literal, NodeId, SweepOutcome, Term, TermTriple, Triple,
    };
    pub use slider_parser::{NTriplesParser, TurtleParser};
    pub use slider_rules::{DependencyGraph, Fragment, Rule, Ruleset};
    pub use slider_store::{EpochSnapshot, ShardedStore, TriplePattern, VerticalStore};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let slider = Slider::fragment(Fragment::Rdfs, SliderConfig::default());
        let nt = "<http://e/a> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://e/b> .\n";
        let triples = slider_parser::load_ntriples(nt.as_bytes(), slider.dict()).unwrap();
        slider.add_triples(&triples);
        slider.wait_idle();
        assert!(slider.store().len() > 1);
        // The retraction path round-trips through the facade too.
        assert_eq!(slider.remove_triples(&triples), 1);
        assert!(slider.store().is_empty());
    }
}
