//! Predicate-parameterised rules for custom fragments.
//!
//! The built-in ρdf/RDFS rules are pinned to the RDFS vocabulary. Many
//! streaming workloads instead carry *domain* hierarchies — part-of
//! chains, org charts, sensor containment trees — each over its own
//! predicate. [`Transitive`] and [`Subsumption`] are the two recurring
//! shapes, parameterised by predicate so one ruleset can host several
//! independent **families**:
//!
//! ```
//! use slider_model::NodeId;
//! use slider_rules::{DependencyGraph, Ruleset, Subsumption, Transitive};
//!
//! let part_of = NodeId(100);
//! let within = NodeId(101);
//! let located_in = NodeId(200);
//! let rs = Ruleset::custom("facilities")
//!     .with(Transitive::new("PART-OF", part_of))
//!     .with(Subsumption::new("WITHIN", within, part_of))
//!     .with(Transitive::new("LOCATED-IN", located_in));
//!
//! // The two families never exchange triples: retracting a located-in
//! // link can only touch LOCATED-IN's conclusions.
//! let graph = DependencyGraph::build(&rs);
//! assert_eq!(graph.affected_by(located_in), vec![2]);
//! ```
//!
//! Both rules implement the backward [`Rule::derives`] check, so DRed
//! rederivation over them stays proportional to the deleted set.

use crate::rule::{InputFilter, OutputSignature, Rule};
use slider_model::{NodeId, Triple};
use slider_store::VerticalStore;

/// `(x P y), (y P z) ⊢ (x P z)` — transitivity over a configurable
/// predicate `P` (the generic [`ScmSco`](crate::ScmSco)).
#[derive(Debug, Clone, Copy)]
pub struct Transitive {
    name: &'static str,
    pred: NodeId,
}

impl Transitive {
    /// A transitivity rule over `pred`, reported as `name` in stats and
    /// dependency-graph dumps.
    pub fn new(name: &'static str, pred: NodeId) -> Self {
        Transitive { name, pred }
    }
}

impl Rule for Transitive {
    fn name(&self) -> &'static str {
        self.name
    }

    fn definition(&self) -> &'static str {
        "(x P y), (y P z) ⊢ (x P z)"
    }

    fn input_filter(&self) -> InputFilter {
        InputFilter::Predicates(vec![self.pred])
    }

    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Predicates(vec![self.pred])
    }

    fn apply(&self, store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        for &t in delta {
            if t.p != self.pred {
                continue;
            }
            // Forward: new (x P y) × store (y P z).
            for z in store.objects_with(self.pred, t.o) {
                out.push(Triple::new(t.s, self.pred, z));
            }
            // Backward: store (w P x) × new (x P y).
            for w in store.subjects_with(self.pred, t.s) {
                out.push(Triple::new(w, self.pred, t.o));
            }
        }
    }

    fn derives(&self, store: &VerticalStore, t: Triple) -> Option<bool> {
        // (x P z) ⇐ ∃y: (x P y) ∧ (y P z).
        Some(
            t.p == self.pred
                && store
                    .objects_with(self.pred, t.s)
                    .any(|y| store.contains(Triple::new(y, self.pred, t.o))),
        )
    }
}

/// `(x IS c), (c SUB d) ⊢ (x IS d)` — membership propagation up a
/// configurable hierarchy (the generic [`CaxSco`](crate::CaxSco), with
/// `IS` playing `rdf:type` and `SUB` playing `rdfs:subClassOf`).
#[derive(Debug, Clone, Copy)]
pub struct Subsumption {
    name: &'static str,
    is: NodeId,
    sub: NodeId,
}

impl Subsumption {
    /// A subsumption rule propagating `is` memberships along `sub` edges,
    /// reported as `name`.
    pub fn new(name: &'static str, is: NodeId, sub: NodeId) -> Self {
        Subsumption { name, is, sub }
    }
}

impl Rule for Subsumption {
    fn name(&self) -> &'static str {
        self.name
    }

    fn definition(&self) -> &'static str {
        "(x IS c), (c SUB d) ⊢ (x IS d)"
    }

    fn input_filter(&self) -> InputFilter {
        InputFilter::Predicates(vec![self.is, self.sub])
    }

    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Predicates(vec![self.is])
    }

    fn apply(&self, store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        for &t in delta {
            if t.p == self.sub {
                // new (c SUB d) × store (x IS c)
                for x in store.subjects_with(self.is, t.s) {
                    out.push(Triple::new(x, self.is, t.o));
                }
            } else if t.p == self.is {
                // new (x IS c) × store (c SUB d)
                for d in store.objects_with(self.sub, t.o) {
                    out.push(Triple::new(t.s, self.is, d));
                }
            }
        }
    }

    fn derives(&self, store: &VerticalStore, t: Triple) -> Option<bool> {
        // (x IS d) ⇐ ∃c: (c SUB d) ∧ (x IS c).
        Some(
            t.p == self.is
                && store
                    .subjects_with(self.sub, t.o)
                    .any(|c| store.contains(Triple::new(t.s, self.is, c))),
        )
    }
}

/// `(x P y) ⊢ (x IS c)` — domain typing over a configurable property
/// (the generic `PRP-DOM` for one known property/class pair; the built-in
/// [`PrpDom`](crate::PrpDom) reads the schema at run time and is therefore
/// universal-input).
#[derive(Debug, Clone, Copy)]
pub struct Domain {
    name: &'static str,
    pred: NodeId,
    is: NodeId,
    class: NodeId,
}

impl Domain {
    /// A domain rule typing subjects of `pred` as `class` members via the
    /// `is` membership predicate, reported as `name`.
    pub fn new(name: &'static str, pred: NodeId, is: NodeId, class: NodeId) -> Self {
        Domain {
            name,
            pred,
            is,
            class,
        }
    }
}

impl Rule for Domain {
    fn name(&self) -> &'static str {
        self.name
    }

    fn definition(&self) -> &'static str {
        "(x P y) ⊢ (x IS c)"
    }

    fn input_filter(&self) -> InputFilter {
        InputFilter::Predicates(vec![self.pred])
    }

    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Predicates(vec![self.is])
    }

    fn apply(&self, _store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        for &t in delta {
            if t.p == self.pred {
                out.push(Triple::new(t.s, self.is, self.class));
            }
        }
    }

    fn derives(&self, store: &VerticalStore, t: Triple) -> Option<bool> {
        // (x IS c) ⇐ ∃y: (x P y).
        Some(
            t.p == self.is
                && t.o == self.class
                && store.objects_with(self.pred, t.s).next().is_some(),
        )
    }
}

/// `(x P y) ⊢ (y IS c)` — range typing over a configurable property (the
/// generic `PRP-RNG` for one known property/class pair).
#[derive(Debug, Clone, Copy)]
pub struct Range {
    name: &'static str,
    pred: NodeId,
    is: NodeId,
    class: NodeId,
}

impl Range {
    /// A range rule typing objects of `pred` as `class` members via the
    /// `is` membership predicate, reported as `name`.
    pub fn new(name: &'static str, pred: NodeId, is: NodeId, class: NodeId) -> Self {
        Range {
            name,
            pred,
            is,
            class,
        }
    }
}

impl Rule for Range {
    fn name(&self) -> &'static str {
        self.name
    }

    fn definition(&self) -> &'static str {
        "(x P y) ⊢ (y IS c)"
    }

    fn input_filter(&self) -> InputFilter {
        InputFilter::Predicates(vec![self.pred])
    }

    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Predicates(vec![self.is])
    }

    fn apply(&self, _store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        for &t in delta {
            if t.p == self.pred {
                out.push(Triple::new(t.o, self.is, self.class));
            }
        }
    }

    fn derives(&self, store: &VerticalStore, t: Triple) -> Option<bool> {
        // (y IS c) ⇐ ∃x: (x P y).
        Some(
            t.p == self.is
                && t.o == self.class
                && store.subjects_with(self.pred, t.s).next().is_some(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ruleset::Ruleset;
    use crate::DependencyGraph;

    fn n(v: u64) -> NodeId {
        NodeId(v)
    }
    const P: NodeId = NodeId(100);
    const IS: NodeId = NodeId(101);

    fn family() -> Ruleset {
        Ruleset::custom("family")
            .with(Transitive::new("TRANS", P))
            .with(Subsumption::new("SUB", IS, P))
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
        let all: Vec<Triple> = store.iter().collect();
        for rule in family().rules() {
            let mut out = Vec::new();
            rule.apply(&store, &all, &mut out);
            out.sort_unstable();
            out.dedup();
            for s in 1..10u64 {
                for p in [P, IS, n(77)] {
                    for o in 1..10u64 {
                        let probe = Triple::new(n(s), p, n(o));
                        assert_eq!(
                            rule.derives(&store, probe),
                            Some(out.binary_search(&probe).is_ok()),
                            "{}: derives disagrees with apply on {probe:?}",
                            rule.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn domain_types_subjects_range_types_objects() {
        use slider_baseline_free_closure::closure;
        let rs = Ruleset::custom("typing")
            .with(Domain::new("DOM", P, IS, n(7)))
            .with(Range::new("RNG", P, IS, n(8)));
        let store = closure(&rs, &[Triple::new(n(1), P, n(2))]);
        assert!(store.contains(Triple::new(n(1), IS, n(7))));
        assert!(store.contains(Triple::new(n(2), IS, n(8))));
        assert_eq!(store.len(), 3);
    }

    /// `derives` agrees with one-step `apply` for the typing rules too.
    #[test]
    fn domain_range_derives_match_one_step_apply() {
        let store: VerticalStore = [
            Triple::new(n(1), P, n(2)),
            Triple::new(n(3), P, n(2)),
            Triple::new(n(9), IS, n(7)),
        ]
        .into_iter()
        .collect();
        let all: Vec<Triple> = store.iter().collect();
        let rules: Vec<Box<dyn Rule>> = vec![
            Box::new(Domain::new("DOM", P, IS, n(7))),
            Box::new(Range::new("RNG", P, IS, n(8))),
        ];
        for rule in &rules {
            let mut out = Vec::new();
            rule.apply(&store, &all, &mut out);
            out.sort_unstable();
            out.dedup();
            for s in 1..10u64 {
                for p in [P, IS, n(77)] {
                    for o in 1..10u64 {
                        let probe = Triple::new(n(s), p, n(o));
                        assert_eq!(
                            rule.derives(&store, probe),
                            Some(out.binary_search(&probe).is_ok()),
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
            .with(Transitive::new("T-A", n(100)))
            .with(Subsumption::new("S-A", n(101), n(100)))
            .with(Transitive::new("T-B", n(200)))
            .with(Subsumption::new("S-B", n(201), n(200)));
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
