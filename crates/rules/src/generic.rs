//! Predicate-parameterised rules for custom fragments.
//!
//! The built-in ρdf/RDFS rules are pinned to the RDFS vocabulary. Many
//! streaming workloads instead carry *domain* hierarchies — part-of
//! chains, org charts, sensor containment trees — each over its own
//! predicate. [`RuleSpec::transitive`] and [`RuleSpec::subsumption`] are
//! the two recurring shapes, parameterised by predicate so one ruleset can
//! host several independent **families**:
//!
//! ```
//! use slider_model::NodeId;
//! use slider_rules::{DependencyGraph, RuleSpec, Ruleset};
//!
//! let part_of = NodeId(100);
//! let within = NodeId(101);
//! let located_in = NodeId(200);
//! let rs = Ruleset::custom("facilities")
//!     .with(RuleSpec::transitive("PART-OF", part_of))
//!     .with(RuleSpec::subsumption("WITHIN", within, part_of))
//!     .with(RuleSpec::transitive("LOCATED-IN", located_in));
//!
//! // The two families never exchange triples: retracting a located-in
//! // link can only touch LOCATED-IN's conclusions.
//! let graph = DependencyGraph::build(&rs);
//! assert_eq!(graph.affected_by(located_in), vec![2]);
//! ```
//!
//! Like every spec, they come with the backward [`Rule::derives`]
//! check, so DRed rederivation over them stays proportional to the
//! deleted set.
//!
//! [`Rule::derives`]: crate::Rule::derives

use crate::spec::{Atom, RuleSpec};
use slider_model::NodeId;

impl RuleSpec {
    /// `(x P y), (y P z) ⊢ (x P z)` — transitivity over `pred` (the
    /// generic `SCM-SCO`), reported as `name` in stats and
    /// dependency-graph dumps.
    pub fn transitive(name: &'static str, pred: NodeId) -> Self {
        RuleSpec::new(name, "(x P y), (y P z) ⊢ (x P z)").clause(
            [Atom::new("x", pred, "y"), Atom::new("y", pred, "z")],
            [Atom::new("x", pred, "z")],
        )
    }

    /// `(x IS c), (c SUB d) ⊢ (x IS d)` — membership propagation up the
    /// `sub` hierarchy (the generic `CAX-SCO`, with `IS` playing `rdf:type`
    /// and `SUB` playing `rdfs:subClassOf`).
    pub fn subsumption(name: &'static str, is: NodeId, sub: NodeId) -> Self {
        RuleSpec::new(name, "(x IS c), (c SUB d) ⊢ (x IS d)").clause(
            [Atom::new("x", is, "c"), Atom::new("c", sub, "d")],
            [Atom::new("x", is, "d")],
        )
    }

    /// `(x P y) ⊢ (x IS c)` — domain typing of `pred`'s subjects as `class`
    /// members (the generic `PRP-DOM` for one known property/class pair;
    /// the built-in reads the schema at run time, so it is universal-input).
    pub fn domain(name: &'static str, pred: NodeId, is: NodeId, class: NodeId) -> Self {
        RuleSpec::new(name, "(x P y) ⊢ (x IS c)")
            .clause([Atom::new("x", pred, "y")], [Atom::new("x", is, class)])
    }

    /// `(x P y) ⊢ (y IS c)` — range typing of `pred`'s objects as `class`
    /// members (the generic `PRP-RNG` for one known property/class pair).
    pub fn range(name: &'static str, pred: NodeId, is: NodeId, class: NodeId) -> Self {
        RuleSpec::new(name, "(x P y) ⊢ (y IS c)")
            .clause([Atom::new("x", pred, "y")], [Atom::new("y", is, class)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DependencyGraph, Ruleset};
    use slider_model::Triple;
    use slider_store::VerticalStore;

    fn n(v: u64) -> NodeId {
        NodeId(v)
    }
    const P: NodeId = NodeId(100);
    const IS: NodeId = NodeId(101);

    fn family() -> Ruleset {
        Ruleset::custom("family")
            .with(RuleSpec::transitive("TRANS", P))
            .with(RuleSpec::subsumption("SUB", IS, P))
    }

    #[test]
    fn transitive_closes_chains() {
        use slider_baseline_free_closure::closure;
        let input: Vec<Triple> = (1..5).map(|i| Triple::new(n(i), P, n(i + 1))).collect();
        let store = closure(&family(), &input);
        assert!(store.contains(Triple::new(n(1), P, n(4))));
        // C(4,2) = 6 chain pairs… plus the membership rule derives nothing.
        assert_eq!(store.len(), 4 + 3 + 2 + 1);
    }

    #[test]
    fn subsumption_propagates_membership() {
        use slider_baseline_free_closure::closure;
        let input = vec![
            Triple::new(n(1), P, n(2)),
            Triple::new(n(2), P, n(3)),
            Triple::new(n(9), IS, n(1)),
        ];
        let store = closure(&family(), &input);
        for c in 1..=3 {
            assert!(store.contains(Triple::new(n(9), IS, n(c))), "IS {c}");
        }
    }

    /// `derives` agrees with one-step `apply` over a probe universe.
    #[test]
    fn derives_matches_one_step_apply() {
        let store: VerticalStore = [
            Triple::new(n(1), P, n(2)),
            Triple::new(n(2), P, n(3)),
            Triple::new(n(9), IS, n(1)),
        ]
        .into_iter()
        .collect();
        assert_derives_matches_apply(&family(), &store);
    }

    #[test]
    fn domain_types_subjects_range_types_objects() {
        use slider_baseline_free_closure::closure;
        let rs = Ruleset::custom("typing")
            .with(RuleSpec::domain("DOM", P, IS, n(7)))
            .with(RuleSpec::range("RNG", P, IS, n(8)));
        let store = closure(&rs, &[Triple::new(n(1), P, n(2))]);
        assert!(store.contains(Triple::new(n(1), IS, n(7))));
        assert!(store.contains(Triple::new(n(2), IS, n(8))));
        assert_eq!(store.len(), 3);
    }

    /// `derives` agrees with one-step `apply` for the typing rules too.
    #[test]
    fn domain_range_derives_match_one_step_apply() {
        let rs = Ruleset::custom("typing")
            .with(RuleSpec::domain("DOM", P, IS, n(7)))
            .with(RuleSpec::range("RNG", P, IS, n(8)));
        let store: VerticalStore = [
            Triple::new(n(1), P, n(2)),
            Triple::new(n(3), P, n(2)),
            Triple::new(n(9), IS, n(7)),
        ]
        .into_iter()
        .collect();
        assert_derives_matches_apply(&rs, &store);
    }

    /// Every rule's `derives` answers exactly what one `apply` over the
    /// whole store emits, on every probe over nodes 1..10.
    fn assert_derives_matches_apply(rs: &Ruleset, store: &VerticalStore) {
        let all: Vec<Triple> = store.iter().collect();
        for rule in rs.rules() {
            let mut out = Vec::new();
            rule.apply(store, &all, &mut out);
            out.sort_unstable();
            out.dedup();
            assert!(
                !out.is_empty(),
                "{}: the store never fires the rule",
                rule.name()
            );
            for s in 1..10u64 {
                for p in [P, IS, n(77)] {
                    for o in 1..10u64 {
                        let probe = Triple::new(n(s), p, n(o));
                        assert_eq!(
                            rule.derives(store, probe),
                            out.binary_search(&probe).is_ok(),
                            "{}: derives disagrees with apply on {probe:?}",
                            rule.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn families_partition_the_graph() {
        let rs = Ruleset::custom("two-families")
            .with(RuleSpec::transitive("T-A", n(100)))
            .with(RuleSpec::subsumption("S-A", n(101), n(100)))
            .with(RuleSpec::transitive("T-B", n(200)))
            .with(RuleSpec::subsumption("S-B", n(201), n(200)));
        let g = DependencyGraph::build(&rs);
        // Each family's rules reach only each other.
        assert_eq!(g.reachable([0]), vec![0, 1]);
        assert_eq!(g.reachable([2]), vec![2, 3]);
        // A retraction's downward closure stays inside its family.
        assert_eq!(g.affected_by(n(100)), vec![0, 1]);
        assert_eq!(g.affected_by(n(201)), vec![3]);
        assert!(g.affected_by(n(999)).is_empty(), "inert predicate");
    }

    /// Minimal fixpoint helper for these tests (the real baselines live in
    /// `slider-baseline`, which depends on this crate).
    mod slider_baseline_free_closure {
        use super::*;

        pub fn closure(rs: &Ruleset, input: &[Triple]) -> VerticalStore {
            let mut store: VerticalStore = input.iter().copied().collect();
            let mut delta: Vec<Triple> = input.to_vec();
            let mut out = Vec::new();
            let mut fresh = Vec::new();
            while !delta.is_empty() {
                out.clear();
                for rule in rs.rules() {
                    rule.apply(&store, &delta, &mut out);
                }
                fresh.clear();
                store.insert_batch(&out, &mut fresh);
                delta = fresh.clone();
            }
            store
        }
    }
}
