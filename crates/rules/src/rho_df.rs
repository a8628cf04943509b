//! The ρdf fragment: the eight rules of the paper's Figure 2.
//!
//! ρdf (Muñoz, Pérez & Gutierrez, *Minimal deductive systems for RDF*) is
//! the minimal core of RDFS: `subClassOf`, `subPropertyOf`, `domain`,
//! `range` and `type`. The paper names the rules after their OWL 2 RL
//! counterparts (Motik et al., tables 4–9), which we follow.
//!
//! Every implementation below follows paper Algorithm 1: join the new
//! triples (`delta`) against the store in both directions, using the
//! vertical indexes instead of the algorithm's nested loops (§2.2 motivates
//! the predicate → subject → object index with exactly these lookups).

use crate::rule::{InputFilter, OutputSignature, Rule};
use slider_model::vocab::{
    RDFS_DOMAIN, RDFS_RANGE, RDFS_SUB_CLASS_OF, RDFS_SUB_PROPERTY_OF, RDF_TYPE,
};
use slider_model::{NodeId, Triple};
use slider_store::VerticalStore;

/// `CAX-SCO`: `(c1 subClassOf c2), (x type c1) ⊢ (x type c2)`.
///
/// This is the rule the paper spells out as Algorithm 1.
#[derive(Debug, Default, Clone, Copy)]
pub struct CaxSco;

impl Rule for CaxSco {
    fn name(&self) -> &'static str {
        "CAX-SCO"
    }

    fn definition(&self) -> &'static str {
        "(c1 subClassOf c2), (x type c1) ⊢ (x type c2)"
    }

    fn input_filter(&self) -> InputFilter {
        InputFilter::Predicates(vec![RDFS_SUB_CLASS_OF, RDF_TYPE])
    }

    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Predicates(vec![RDF_TYPE])
    }

    fn apply(&self, store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        for &t in delta {
            if t.p == RDFS_SUB_CLASS_OF {
                // new (c1 sco c2) × store (x type c1)
                for x in store.subjects_with(RDF_TYPE, t.s) {
                    out.push(Triple::new(x, RDF_TYPE, t.o));
                }
            } else if t.p == RDF_TYPE {
                // new (x type c1) × store (c1 sco c2)
                for c2 in store.objects_with(RDFS_SUB_CLASS_OF, t.o) {
                    out.push(Triple::new(t.s, RDF_TYPE, c2));
                }
            }
        }
    }

    fn derives(&self, store: &VerticalStore, t: Triple) -> Option<bool> {
        // (x type c2) ⇐ ∃c1: (c1 sco c2) ∧ (x type c1).
        Some(
            t.p == RDF_TYPE
                && store
                    .subjects_with(RDFS_SUB_CLASS_OF, t.o)
                    .any(|c1| store.contains(Triple::new(t.s, RDF_TYPE, c1))),
        )
    }
}

/// `SCM-SCO`: `(c1 subClassOf c2), (c2 subClassOf c3) ⊢ (c1 subClassOf c3)`.
///
/// Transitivity of subsumption — the rule stressed by the paper's
/// `subClassOfⁿ` ontologies, whose chains produce O(n²) unique triples.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScmSco;

impl Rule for ScmSco {
    fn name(&self) -> &'static str {
        "SCM-SCO"
    }

    fn definition(&self) -> &'static str {
        "(c1 subClassOf c2), (c2 subClassOf c3) ⊢ (c1 subClassOf c3)"
    }

    fn input_filter(&self) -> InputFilter {
        InputFilter::Predicates(vec![RDFS_SUB_CLASS_OF])
    }

    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Predicates(vec![RDFS_SUB_CLASS_OF])
    }

    fn apply(&self, store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        for &t in delta {
            if t.p != RDFS_SUB_CLASS_OF {
                continue;
            }
            // Forward: new (c1 sco c2) × store (c2 sco c3).
            for c3 in store.objects_with(RDFS_SUB_CLASS_OF, t.o) {
                out.push(Triple::new(t.s, RDFS_SUB_CLASS_OF, c3));
            }
            // Backward: store (c0 sco c1) × new (c1 sco c2).
            for c0 in store.subjects_with(RDFS_SUB_CLASS_OF, t.s) {
                out.push(Triple::new(c0, RDFS_SUB_CLASS_OF, t.o));
            }
        }
    }

    fn derives(&self, store: &VerticalStore, t: Triple) -> Option<bool> {
        // (c1 sco c3) ⇐ ∃c2: (c1 sco c2) ∧ (c2 sco c3).
        Some(
            t.p == RDFS_SUB_CLASS_OF
                && store
                    .objects_with(RDFS_SUB_CLASS_OF, t.s)
                    .any(|c2| store.contains(Triple::new(c2, RDFS_SUB_CLASS_OF, t.o))),
        )
    }

    fn transitive_predicate(&self) -> Option<NodeId> {
        Some(RDFS_SUB_CLASS_OF)
    }
}

/// `SCM-SPO`: `(p1 subPropertyOf p2), (p2 subPropertyOf p3) ⊢ (p1 subPropertyOf p3)`.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScmSpo;

impl Rule for ScmSpo {
    fn name(&self) -> &'static str {
        "SCM-SPO"
    }

    fn definition(&self) -> &'static str {
        "(p1 subPropertyOf p2), (p2 subPropertyOf p3) ⊢ (p1 subPropertyOf p3)"
    }

    fn input_filter(&self) -> InputFilter {
        InputFilter::Predicates(vec![RDFS_SUB_PROPERTY_OF])
    }

    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Predicates(vec![RDFS_SUB_PROPERTY_OF])
    }

    fn apply(&self, store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        for &t in delta {
            if t.p != RDFS_SUB_PROPERTY_OF {
                continue;
            }
            for p3 in store.objects_with(RDFS_SUB_PROPERTY_OF, t.o) {
                out.push(Triple::new(t.s, RDFS_SUB_PROPERTY_OF, p3));
            }
            for p0 in store.subjects_with(RDFS_SUB_PROPERTY_OF, t.s) {
                out.push(Triple::new(p0, RDFS_SUB_PROPERTY_OF, t.o));
            }
        }
    }

    fn derives(&self, store: &VerticalStore, t: Triple) -> Option<bool> {
        // (p1 spo p3) ⇐ ∃p2: (p1 spo p2) ∧ (p2 spo p3).
        Some(
            t.p == RDFS_SUB_PROPERTY_OF
                && store
                    .objects_with(RDFS_SUB_PROPERTY_OF, t.s)
                    .any(|p2| store.contains(Triple::new(p2, RDFS_SUB_PROPERTY_OF, t.o))),
        )
    }

    fn transitive_predicate(&self) -> Option<NodeId> {
        Some(RDFS_SUB_PROPERTY_OF)
    }
}

/// `SCM-DOM2`: `(p2 domain c), (p1 subPropertyOf p2) ⊢ (p1 domain c)`.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScmDom2;

impl Rule for ScmDom2 {
    fn name(&self) -> &'static str {
        "SCM-DOM2"
    }

    fn definition(&self) -> &'static str {
        "(p2 domain c), (p1 subPropertyOf p2) ⊢ (p1 domain c)"
    }

    fn input_filter(&self) -> InputFilter {
        InputFilter::Predicates(vec![RDFS_DOMAIN, RDFS_SUB_PROPERTY_OF])
    }

    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Predicates(vec![RDFS_DOMAIN])
    }

    fn apply(&self, store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        for &t in delta {
            if t.p == RDFS_DOMAIN {
                // new (p2 dom c) × store (p1 spo p2)
                for p1 in store.subjects_with(RDFS_SUB_PROPERTY_OF, t.s) {
                    out.push(Triple::new(p1, RDFS_DOMAIN, t.o));
                }
            } else if t.p == RDFS_SUB_PROPERTY_OF {
                // new (p1 spo p2) × store (p2 dom c)
                for c in store.objects_with(RDFS_DOMAIN, t.o) {
                    out.push(Triple::new(t.s, RDFS_DOMAIN, c));
                }
            }
        }
    }

    fn derives(&self, store: &VerticalStore, t: Triple) -> Option<bool> {
        // (p1 dom c) ⇐ ∃p2: (p1 spo p2) ∧ (p2 dom c).
        Some(
            t.p == RDFS_DOMAIN
                && store
                    .objects_with(RDFS_SUB_PROPERTY_OF, t.s)
                    .any(|p2| store.contains(Triple::new(p2, RDFS_DOMAIN, t.o))),
        )
    }
}

/// `SCM-RNG2`: `(p2 range c), (p1 subPropertyOf p2) ⊢ (p1 range c)`.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScmRng2;

impl Rule for ScmRng2 {
    fn name(&self) -> &'static str {
        "SCM-RNG2"
    }

    fn definition(&self) -> &'static str {
        "(p2 range c), (p1 subPropertyOf p2) ⊢ (p1 range c)"
    }

    fn input_filter(&self) -> InputFilter {
        InputFilter::Predicates(vec![RDFS_RANGE, RDFS_SUB_PROPERTY_OF])
    }

    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Predicates(vec![RDFS_RANGE])
    }

    fn apply(&self, store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        for &t in delta {
            if t.p == RDFS_RANGE {
                for p1 in store.subjects_with(RDFS_SUB_PROPERTY_OF, t.s) {
                    out.push(Triple::new(p1, RDFS_RANGE, t.o));
                }
            } else if t.p == RDFS_SUB_PROPERTY_OF {
                for c in store.objects_with(RDFS_RANGE, t.o) {
                    out.push(Triple::new(t.s, RDFS_RANGE, c));
                }
            }
        }
    }

    fn derives(&self, store: &VerticalStore, t: Triple) -> Option<bool> {
        // (p1 rng c) ⇐ ∃p2: (p1 spo p2) ∧ (p2 rng c).
        Some(
            t.p == RDFS_RANGE
                && store
                    .objects_with(RDFS_SUB_PROPERTY_OF, t.s)
                    .any(|p2| store.contains(Triple::new(p2, RDFS_RANGE, t.o))),
        )
    }
}

/// `PRP-DOM`: `(p domain c), (x p y) ⊢ (x type c)`.
///
/// The `(x p y)` atom has a variable predicate, so this rule has
/// **universal input** (Figure 2).
#[derive(Debug, Default, Clone, Copy)]
pub struct PrpDom;

impl Rule for PrpDom {
    fn name(&self) -> &'static str {
        "PRP-DOM"
    }

    fn definition(&self) -> &'static str {
        "(p domain c), (x p y) ⊢ (x type c)"
    }

    fn input_filter(&self) -> InputFilter {
        InputFilter::Universal
    }

    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Predicates(vec![RDF_TYPE])
    }

    fn apply(&self, store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        for &t in delta {
            if t.p == RDFS_DOMAIN {
                // new (p dom c) × store (x p y): walk the p-partition.
                for (x, _y) in store.pairs(t.s) {
                    out.push(Triple::new(x, RDF_TYPE, t.o));
                }
            }
            // new (x p y) × store (p dom c).
            for c in store.objects_with(RDFS_DOMAIN, t.p) {
                out.push(Triple::new(t.s, RDF_TYPE, c));
            }
        }
    }

    fn derives(&self, store: &VerticalStore, t: Triple) -> Option<bool> {
        // (x type c) ⇐ ∃p: (p dom c) ∧ (x p _).
        Some(
            t.p == RDF_TYPE
                && store
                    .subjects_with(RDFS_DOMAIN, t.o)
                    .any(|p| store.objects_with(p, t.s).next().is_some()),
        )
    }
}

/// `PRP-RNG`: `(p range c), (x p y) ⊢ (y type c)`.
///
/// Universal input, like [`PrpDom`].
#[derive(Debug, Default, Clone, Copy)]
pub struct PrpRng;

impl Rule for PrpRng {
    fn name(&self) -> &'static str {
        "PRP-RNG"
    }

    fn definition(&self) -> &'static str {
        "(p range c), (x p y) ⊢ (y type c)"
    }

    fn input_filter(&self) -> InputFilter {
        InputFilter::Universal
    }

    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Predicates(vec![RDF_TYPE])
    }

    fn apply(&self, store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        for &t in delta {
            if t.p == RDFS_RANGE {
                for (_x, y) in store.pairs(t.s) {
                    out.push(Triple::new(y, RDF_TYPE, t.o));
                }
            }
            for c in store.objects_with(RDFS_RANGE, t.p) {
                out.push(Triple::new(t.o, RDF_TYPE, c));
            }
        }
    }

    fn derives(&self, store: &VerticalStore, t: Triple) -> Option<bool> {
        // (y type c) ⇐ ∃p: (p rng c) ∧ (_ p y).
        Some(
            t.p == RDF_TYPE
                && store
                    .subjects_with(RDFS_RANGE, t.o)
                    .any(|p| store.subjects_with(p, t.s).next().is_some()),
        )
    }
}

/// `PRP-SPO1`: `(p1 subPropertyOf p2), (x p1 y) ⊢ (x p2 y)`.
///
/// Universal input *and* universal output: the emitted predicate `p2` is a
/// variable, so in the dependency graph this rule can feed every other rule.
#[derive(Debug, Default, Clone, Copy)]
pub struct PrpSpo1;

impl Rule for PrpSpo1 {
    fn name(&self) -> &'static str {
        "PRP-SPO1"
    }

    fn definition(&self) -> &'static str {
        "(p1 subPropertyOf p2), (x p1 y) ⊢ (x p2 y)"
    }

    fn input_filter(&self) -> InputFilter {
        InputFilter::Universal
    }

    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Universal
    }

    fn apply(&self, store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        for &t in delta {
            if t.p == RDFS_SUB_PROPERTY_OF {
                // new (p1 spo p2) × store (x p1 y).
                for (x, y) in store.pairs(t.s) {
                    out.push(Triple::new(x, t.o, y));
                }
            }
            // new (x p1 y) × store (p1 spo p2).
            for p2 in store.objects_with(RDFS_SUB_PROPERTY_OF, t.p) {
                out.push(Triple::new(t.s, p2, t.o));
            }
        }
    }

    fn derives(&self, store: &VerticalStore, t: Triple) -> Option<bool> {
        // (x p2 y) ⇐ ∃p1: (p1 spo p2) ∧ (x p1 y).
        Some(
            store
                .subjects_with(RDFS_SUB_PROPERTY_OF, t.p)
                .any(|p1| store.contains(Triple::new(t.s, p1, t.o))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slider_model::NodeId;

    // Test node ids, clear of the vocabulary range.
    fn n(v: u64) -> NodeId {
        NodeId(1000 + v)
    }

    /// Applies `rule` with `delta` = `new`, store = `base ∪ new`
    /// (the reasoner inserts before dispatching), returning sorted unique
    /// conclusions minus what the store already contains.
    fn run(rule: &dyn Rule, base: &[Triple], new: &[Triple]) -> Vec<Triple> {
        let mut store: VerticalStore = base.iter().copied().collect();
        for &t in new {
            store.insert(t);
        }
        let mut out = Vec::new();
        rule.apply(&store, new, &mut out);
        out.retain(|&t| !store.contains(t));
        out.sort_unstable();
        out.dedup();
        out
    }

    fn sco(a: u64, b: u64) -> Triple {
        Triple::new(n(a), RDFS_SUB_CLASS_OF, n(b))
    }
    fn spo(a: u64, b: u64) -> Triple {
        Triple::new(n(a), RDFS_SUB_PROPERTY_OF, n(b))
    }
    fn ty(a: u64, b: u64) -> Triple {
        Triple::new(n(a), RDF_TYPE, n(b))
    }
    fn dom(a: u64, b: u64) -> Triple {
        Triple::new(n(a), RDFS_DOMAIN, n(b))
    }
    fn rng(a: u64, b: u64) -> Triple {
        Triple::new(n(a), RDFS_RANGE, n(b))
    }

    #[test]
    fn cax_sco_both_directions() {
        // Schema in store, instance arrives.
        assert_eq!(run(&CaxSco, &[sco(1, 2)], &[ty(9, 1)]), vec![ty(9, 2)]);
        // Instance in store, schema arrives.
        assert_eq!(run(&CaxSco, &[ty(9, 1)], &[sco(1, 2)]), vec![ty(9, 2)]);
        // Both arrive together (delta × delta via store superset).
        assert_eq!(run(&CaxSco, &[], &[sco(1, 2), ty(9, 1)]), vec![ty(9, 2)]);
    }

    #[test]
    fn cax_sco_no_match() {
        assert!(run(&CaxSco, &[sco(1, 2)], &[ty(9, 3)]).is_empty());
        assert!(run(&CaxSco, &[], &[Triple::new(n(1), n(99), n(2))]).is_empty());
    }

    #[test]
    fn scm_sco_transitivity_both_sides() {
        assert_eq!(run(&ScmSco, &[sco(2, 3)], &[sco(1, 2)]), vec![sco(1, 3)]);
        assert_eq!(run(&ScmSco, &[sco(1, 2)], &[sco(2, 3)]), vec![sco(1, 3)]);
        // Chain of 3 in one delta: one application closes length-2 paths.
        let got = run(&ScmSco, &[], &[sco(1, 2), sco(2, 3), sco(3, 4)]);
        assert_eq!(got, vec![sco(1, 3), sco(2, 4)]);
    }

    #[test]
    fn scm_sco_cycle_is_safe() {
        let got = run(&ScmSco, &[], &[sco(1, 2), sco(2, 1)]);
        // Derives the reflexive edges; no unbounded growth.
        assert_eq!(got, vec![sco(1, 1), sco(2, 2)]);
    }

    #[test]
    fn scm_spo_transitivity() {
        assert_eq!(run(&ScmSpo, &[spo(2, 3)], &[spo(1, 2)]), vec![spo(1, 3)]);
        assert_eq!(run(&ScmSpo, &[spo(1, 2)], &[spo(2, 3)]), vec![spo(1, 3)]);
    }

    #[test]
    fn scm_dom2_both_directions() {
        assert_eq!(run(&ScmDom2, &[spo(1, 2)], &[dom(2, 7)]), vec![dom(1, 7)]);
        assert_eq!(run(&ScmDom2, &[dom(2, 7)], &[spo(1, 2)]), vec![dom(1, 7)]);
    }

    #[test]
    fn scm_rng2_both_directions() {
        assert_eq!(run(&ScmRng2, &[spo(1, 2)], &[rng(2, 7)]), vec![rng(1, 7)]);
        assert_eq!(run(&ScmRng2, &[rng(2, 7)], &[spo(1, 2)]), vec![rng(1, 7)]);
    }

    #[test]
    fn prp_dom_types_subjects() {
        let fact = Triple::new(n(9), n(5), n(8));
        // Schema first.
        assert_eq!(run(&PrpDom, &[dom(5, 7)], &[fact]), vec![ty(9, 7)]);
        // Fact first.
        assert_eq!(run(&PrpDom, &[fact], &[dom(5, 7)]), vec![ty(9, 7)]);
    }

    #[test]
    fn prp_rng_types_objects() {
        let fact = Triple::new(n(9), n(5), n(8));
        assert_eq!(run(&PrpRng, &[rng(5, 7)], &[fact]), vec![ty(8, 7)]);
        assert_eq!(run(&PrpRng, &[fact], &[rng(5, 7)]), vec![ty(8, 7)]);
    }

    #[test]
    fn prp_spo1_lifts_facts() {
        let fact = Triple::new(n(9), n(5), n(8));
        let lifted = Triple::new(n(9), n(6), n(8));
        assert_eq!(run(&PrpSpo1, &[spo(5, 6)], &[fact]), vec![lifted]);
        assert_eq!(run(&PrpSpo1, &[fact], &[spo(5, 6)]), vec![lifted]);
    }

    #[test]
    fn prp_spo1_is_universal_io() {
        assert_eq!(PrpSpo1.input_filter(), InputFilter::Universal);
        assert_eq!(PrpSpo1.output_signature(), OutputSignature::Universal);
    }

    #[test]
    fn figure2_universal_input_rules() {
        // Figure 2: PRP-SPO, PRP-RNG, PRP-DOM take universal input; the
        // SCM-* and CAX-* rules are predicate-filtered.
        assert_eq!(PrpDom.input_filter(), InputFilter::Universal);
        assert_eq!(PrpRng.input_filter(), InputFilter::Universal);
        assert!(matches!(CaxSco.input_filter(), InputFilter::Predicates(_)));
        assert!(matches!(ScmSco.input_filter(), InputFilter::Predicates(_)));
        assert!(matches!(ScmSpo.input_filter(), InputFilter::Predicates(_)));
        assert!(matches!(ScmDom2.input_filter(), InputFilter::Predicates(_)));
        assert!(matches!(ScmRng2.input_filter(), InputFilter::Predicates(_)));
    }

    #[test]
    fn only_the_transitive_schema_rules_report_a_closure_predicate() {
        let rules: Vec<&dyn Rule> = vec![
            &CaxSco, &ScmSco, &ScmSpo, &ScmDom2, &ScmRng2, &PrpDom, &PrpRng, &PrpSpo1,
        ];
        let closed: Vec<_> = rules
            .iter()
            .filter_map(|r| Some((r.name(), r.transitive_predicate()?)))
            .collect();
        assert_eq!(
            closed,
            vec![
                ("SCM-SCO", RDFS_SUB_CLASS_OF),
                ("SCM-SPO", RDFS_SUB_PROPERTY_OF)
            ]
        );
    }

    #[test]
    fn names_match_paper() {
        let rules: Vec<&dyn Rule> = vec![
            &CaxSco, &ScmSco, &ScmSpo, &ScmDom2, &ScmRng2, &PrpDom, &PrpRng, &PrpSpo1,
        ];
        let names: Vec<&str> = rules.iter().map(|r| r.name()).collect();
        assert_eq!(
            names,
            vec![
                "CAX-SCO", "SCM-SCO", "SCM-SPO", "SCM-DOM2", "SCM-RNG2", "PRP-DOM", "PRP-RNG",
                "PRP-SPO1"
            ]
        );
        for r in rules {
            assert!(r.definition().contains('⊢'));
        }
    }
}
