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
//! ## Operations
//!
//! Every write is an [`Op`](slider_core::Op) —
//! `Add`, `Remove`, `Defer`, `Flush`, `Swap` or `Sweep` — applied one at a
//! time by `Slider::apply`, which answers with the matching
//! [`Outcome`](slider_core::Outcome). `Op`'s docs are the one written
//! contract: where each op linearises, what it waits for, and how they
//! interact. `add_triples`, `add_terms`, `remove_terms` and
//! `sweep_dictionary` are typed shortcuts that run the same code.
//!
//! The store distinguishes **explicit** triples (asserted by `Add` — what
//! you said) from **derived** ones (rule conclusions — what follows).
//! `Remove` retracts *assertions* with DRed maintenance (overdelete, then
//! rederive — see `slider_core::maintenance`), leaving the store equal to
//! the closure of the surviving explicit triples:
//!
//! * removing a **derived-only** fact is a no-op — it is not an assertion,
//!   and it would be rederived anyway; the `RemovalOutcome` counts these
//!   (`ignored_derived`) apart from absent triples (`not_found`);
//! * removing an explicit fact that is *also* derivable demotes it to
//!   derived: it stays, but no longer on its own authority;
//! * `remove_terms` only looks terms up (never interns), so a triple over
//!   unknown terms is skipped.
//!
//! High-churn sliding windows retract a batch per arrival. `Defer`
//! *enqueues* retractions instead, and one **coalesced** DRed run over the
//! whole pending set fires at `SliderConfig::maintenance_batch` pending,
//! after `SliderConfig::maintenance_max_age`, on a `Flush`, or when the
//! reasoner drops. Until then queries see the pre-retraction closure
//! (`Slider::pending_staleness()` bounds how stale), and an `Add` of a
//! pending triple **cancels** its retraction, so a flush always lands on
//! the closure of the explicit set that survived the interleaving:
//!
//! ```
//! use slider::prelude::*;
//! use std::sync::Arc;
//!
//! let sco = slider::model::vocab::RDFS_SUB_CLASS_OF;
//! let (a, b, c) = (NodeId(1000), NodeId(1001), NodeId(1002));
//! let config = SliderConfig::batch().with_maintenance_batch(usize::MAX);
//! let slider = Slider::new(Arc::new(Dictionary::new()), Ruleset::rho_df(), config);
//! slider.add_triples(&[Triple::new(a, sco, b), Triple::new(b, sco, c)]);
//! slider.wait_idle();
//! slider.apply(Op::Defer(vec![Triple::new(a, sco, b), Triple::new(b, sco, c)]));
//! slider.apply(Op::Add(vec![Triple::new(a, sco, b)])); // cancels its retraction
//! let flushed = slider.apply(Op::Flush).removal().unwrap();
//! assert_eq!(flushed.requested, 1);
//! assert_eq!(slider.store().len(), 1); // a ⊑ b survives, a ⊑ c went with b ⊑ c
//! ```
//!
//! ## Several streams
//!
//! A `Slider` owns exactly `SliderConfig::workers` threads, which drain
//! its work queue and serve its buffer timeout and maintenance deadline;
//! with `workers: 0` it owns none and `wait_idle` runs every rule
//! instance on the caller. Several streams are several `Slider`s. They may share one dictionary,
//! so their ids agree; it is never swept while several of them are live.
//!
//! ```
//! use slider::prelude::*;
//! use std::sync::Arc;
//!
//! let dict = Arc::new(Dictionary::new());
//! let config = SliderConfig::default().with_workers(2);
//! let news = Slider::new(Arc::clone(&dict), Ruleset::rho_df(), config.clone());
//! let social = Slider::new(Arc::clone(&dict), Ruleset::rdfs(&dict), config);
//! assert!(news.sweep_dictionary().skipped); // shared: never swept
//! # drop((news, social));
//! ```
//!
//! ## Epoch reads & ruleset hot-swap
//!
//! Rule joins read the live store under a shared lock, side by side.
//! Queries (`contains`, `matches`, `to_sorted_vec`) answer from the
//! store's **epoch snapshot** (`slider_store::EpochSnapshot`) — an
//! immutable, generation-stamped copy-on-write image, built by the first
//! query after a write (or, once a query has had to wait for a running
//! write, by every write) — so a query never sees a half-applied write or
//! maintenance section; `stats` reads counters each write records. Until
//! that first wait, a section (DRed, swap, sweep) changes the tables in
//! place and a query that meets it waits for the post-section state; from
//! then on every section publishes its pre-section epoch on entry and no
//! query waits. `Op::Swap` replaces the loaded
//! ruleset on the live reasoner: derivations supported only by dropped
//! rules are retracted with DRed, added rules are evaluated semi-naively,
//! and the dependency graph and rule modules are rebuilt atomically at
//! the swap's linearisation point:
//!
//! ```
//! use slider::prelude::*;
//! use slider::rules::RuleSpec;
//! use std::sync::Arc;
//!
//! let dict = Arc::new(Dictionary::new());
//! let p = NodeId(7);
//! let slider = Slider::new(
//!     Arc::clone(&dict),
//!     Ruleset::custom("trans").with(RuleSpec::transitive("T", p)),
//!     SliderConfig::default(),
//! );
//! slider.add_triples(&[
//!     Triple::new(NodeId(1), p, NodeId(2)),
//!     Triple::new(NodeId(2), p, NodeId(3)),
//! ]);
//! slider.wait_idle();
//!
//! // Live program change: drop the transitivity rule. Its derivations
//! // retract incrementally — no rebuild, no downtime.
//! let outcome: SwapOutcome = slider.apply(Op::Swap(Ruleset::custom("empty"))).swap().unwrap();
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
    pub use slider_core::{Op, Outcome, RemovalOutcome, Slider, SliderConfig, SwapOutcome};
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
        let removed = slider.apply(Op::Remove(triples)).removal().unwrap();
        assert_eq!(removed.retracted, 1);
        assert!(slider.store().is_empty());
    }
}
