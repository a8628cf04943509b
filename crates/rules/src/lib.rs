//! Inference rules for the Slider reasoner.
//!
//! Slider is *fragment agnostic* (paper §1): a fragment is just a set of
//! rules implementing the [`Rule`] trait, and the reasoner wires them
//! together at initialisation time through the [`DependencyGraph`]
//! (paper §2.3, Figure 2).
//!
//! Rules are data. A [`RuleSpec`] lists Horn clauses over triple patterns
//! ([`Atom`]s of variables and constant ids, plus [`Guard`]s), and one
//! join evaluator, compiled per spec at construction, gives it every
//! [`Rule`] method: semi-naive `apply`, the backward `derives` that DRed
//! rederivation uses, the input filter, the output signature and the
//! transitive predicate. The crate ships three fragments, in this order:
//!
//! * **ρdf** ([`Ruleset::rho_df`]) — the minimal RDFS fragment of Muñoz,
//!   Pérez & Gutierrez, as the eight rules of the paper's Figure 2:
//!   `CAX-SCO`, `SCM-SCO`, `SCM-SPO`, `SCM-DOM2`, `SCM-RNG2`, `PRP-DOM`,
//!   `PRP-RNG`, `PRP-SPO1` (OWL 2 RL rule names, after Motik et al.);
//! * **RDFS** ([`Ruleset::rdfs`]) — ρdf plus the structural RDFS entailment
//!   rules rdfs1, rdfs4a, rdfs4b, rdfs6, rdfs8, rdfs10, rdfs12, rdfs13;
//! * **RDFS-Plus** ([`Ruleset::rdfs_plus`]) — RDFS plus twelve OWL 2 RL
//!   rules: `sameAs` equality, inverse, symmetric, transitive and
//!   (inverse-)functional properties, class and property equivalence.
//!
//! Every built-in is a spec. rdfs1 and rdfs4b test whether a term is a
//! literal — a dictionary fact no triple pattern can state — through the
//! kind guards [`Guard::Literal`] and [`Guard::NotLiteral`], over the
//! dictionary the fragment is built with. [`RuleSpec::transitive`],
//! [`RuleSpec::subsumption`], [`RuleSpec::domain`] and [`RuleSpec::range`]
//! build the predicate-parameterised families of custom fragments.
//!
//! Custom rules plug in exactly like the built-ins (the paper exposes Java
//! interfaces for this): declare a [`RuleSpec`], or implement [`Rule`] by
//! hand — see `examples/custom_rule.rs`. A hand-written rule must
//! implement the backward [`Rule::derives`] as well as `apply`: DRed
//! rederivation and ruleset swaps ask it whether a triple is one-step
//! derivable, and there is no forward fallback.
//!
//! ## Rule application contract
//!
//! [`Rule::apply`] is *semi-naive*: it joins a `delta` of newly added
//! triples against the full store, in both directions (paper Algorithm 1).
//! The caller guarantees `delta ⊆ store` — incoming triples are inserted
//! into the store *before* being dispatched (Figure 1) — which makes the
//! two one-sided joins cover the `delta × delta` case as well.
//!
//! ## Example
//!
//! Build the ρdf fragment and inspect its dependency graph (the paper's
//! Figure 2): `SCM-SCO` produces `subClassOf` triples, which `CAX-SCO`
//! consumes, so the graph has that edge:
//!
//! ```
//! use slider_rules::{DependencyGraph, Ruleset};
//!
//! let rho = Ruleset::rho_df();
//! assert_eq!(rho.len(), 8);
//!
//! let graph = DependencyGraph::build(&rho);
//! assert_eq!(graph.len(), 8);
//! assert!(graph.has_edge_named("SCM-SCO", "CAX-SCO"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod axioms;
mod generic;
mod graph;
mod rdfs;
mod rdfs_plus;
mod rho_df;
mod rule;
mod ruleset;
mod spec;

pub use axioms::axiomatic_triples;
pub use graph::DependencyGraph;
pub use rule::{InputFilter, OutputSignature, Rule};
pub use ruleset::{Fragment, Ruleset};
pub use spec::{Arg, Atom, Guard, RuleSpec};

#[cfg(test)]
mod testutil {
    use crate::{Rule, Ruleset};
    use slider_model::{Dictionary, NodeId, Triple};
    use slider_store::VerticalStore;
    use std::sync::Arc;

    /// Test node ids, clear of the vocabulary range.
    pub fn n(v: u64) -> NodeId {
        NodeId(1000 + v)
    }

    /// The built-in rule called `name`.
    pub fn rule(name: &str) -> Arc<dyn Rule> {
        let rs = Ruleset::rdfs_plus(&Arc::new(Dictionary::new()));
        Arc::clone(&rs.rules()[rs.index_of(name).expect(name)])
    }

    /// Applies the built-in rule `name` with `delta` = `new` over the store
    /// `base ∪ new` (the reasoner inserts before dispatching), returning
    /// the sorted, unique conclusions the store does not hold yet.
    pub fn run(name: &str, base: &[Triple], new: &[Triple]) -> Vec<Triple> {
        let mut store: VerticalStore = base.iter().copied().collect();
        for &t in new {
            store.insert(t);
        }
        let mut out = Vec::new();
        rule(name).apply(&store, new, &mut out);
        out.retain(|&t| !store.contains(t));
        out.sort_unstable();
        out.dedup();
        out
    }
}
