//! The ρdf fragment: the eight rules of the paper's Figure 2, as data.
//!
//! ρdf (Muñoz, Pérez & Gutierrez, *Minimal deductive systems for RDF*) is
//! the minimal core of RDFS: `subClassOf`, `subPropertyOf`, `domain`,
//! `range` and `type`. The paper names the rules after their OWL 2 RL
//! counterparts (Motik et al., tables 4–9), which we follow. The join
//! evaluator ([`RuleSpec`]) runs each as paper Algorithm 1: the new triples
//! joined against the store in both directions through the vertical
//! indexes (§2.2 motivates the predicate → subject → object index with
//! exactly these lookups).

use crate::spec::{Atom, RuleSpec};
use slider_model::vocab::{
    RDFS_DOMAIN as DOM, RDFS_RANGE as RNG, RDFS_SUB_CLASS_OF as SCO, RDFS_SUB_PROPERTY_OF as SPO,
    RDF_TYPE as TYPE,
};

/// The ρdf rules, in Figure 2's order.
pub(crate) fn rules() -> Vec<RuleSpec> {
    vec![
        // Algorithm 1 spells out this rule.
        RuleSpec::new("CAX-SCO", "(c1 subClassOf c2), (x type c1) ⊢ (x type c2)").clause(
            [Atom::new("c1", SCO, "c2"), Atom::new("x", TYPE, "c1")],
            [Atom::new("x", TYPE, "c2")],
        ),
        // The `subClassOfⁿ` chains of Equation 1: O(n²) unique triples.
        RuleSpec::new(
            "SCM-SCO",
            "(c1 subClassOf c2), (c2 subClassOf c3) ⊢ (c1 subClassOf c3)",
        )
        .clause(
            [Atom::new("c1", SCO, "c2"), Atom::new("c2", SCO, "c3")],
            [Atom::new("c1", SCO, "c3")],
        ),
        RuleSpec::new(
            "SCM-SPO",
            "(p1 subPropertyOf p2), (p2 subPropertyOf p3) ⊢ (p1 subPropertyOf p3)",
        )
        .clause(
            [Atom::new("p1", SPO, "p2"), Atom::new("p2", SPO, "p3")],
            [Atom::new("p1", SPO, "p3")],
        ),
        RuleSpec::new(
            "SCM-DOM2",
            "(p2 domain c), (p1 subPropertyOf p2) ⊢ (p1 domain c)",
        )
        .clause(
            [Atom::new("p2", DOM, "c"), Atom::new("p1", SPO, "p2")],
            [Atom::new("p1", DOM, "c")],
        ),
        RuleSpec::new(
            "SCM-RNG2",
            "(p2 range c), (p1 subPropertyOf p2) ⊢ (p1 range c)",
        )
        .clause(
            [Atom::new("p2", RNG, "c"), Atom::new("p1", SPO, "p2")],
            [Atom::new("p1", RNG, "c")],
        ),
        // The variable predicate of `(x p y)` makes the next three
        // universal-input rules (Figure 2); PRP-SPO1 is universal-output too.
        RuleSpec::new("PRP-DOM", "(p domain c), (x p y) ⊢ (x type c)").clause(
            [Atom::new("p", DOM, "c"), Atom::new("x", "p", "y")],
            [Atom::new("x", TYPE, "c")],
        ),
        RuleSpec::new("PRP-RNG", "(p range c), (x p y) ⊢ (y type c)").clause(
            [Atom::new("p", RNG, "c"), Atom::new("x", "p", "y")],
            [Atom::new("y", TYPE, "c")],
        ),
        RuleSpec::new("PRP-SPO1", "(p1 subPropertyOf p2), (x p1 y) ⊢ (x p2 y)").clause(
            [Atom::new("p1", SPO, "p2"), Atom::new("x", "p1", "y")],
            [Atom::new("x", "p2", "y")],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use crate::rule::{InputFilter, OutputSignature, Rule};
    use crate::testutil::{n, rule, run};
    use slider_model::vocab::*;
    use slider_model::Triple;

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
    fn fact() -> Triple {
        Triple::new(n(9), n(5), n(8))
    }

    #[test]
    fn cax_sco_both_directions() {
        // Schema first, instance first, and both in one delta.
        assert_eq!(run("CAX-SCO", &[sco(1, 2)], &[ty(9, 1)]), [ty(9, 2)]);
        assert_eq!(run("CAX-SCO", &[ty(9, 1)], &[sco(1, 2)]), [ty(9, 2)]);
        assert_eq!(run("CAX-SCO", &[], &[sco(1, 2), ty(9, 1)]), [ty(9, 2)]);
    }

    #[test]
    fn cax_sco_no_match() {
        assert!(run("CAX-SCO", &[sco(1, 2)], &[ty(9, 3)]).is_empty());
        assert!(run("CAX-SCO", &[], &[Triple::new(n(1), n(99), n(2))]).is_empty());
    }

    #[test]
    fn scm_sco_transitivity_both_sides() {
        assert_eq!(run("SCM-SCO", &[sco(2, 3)], &[sco(1, 2)]), [sco(1, 3)]);
        assert_eq!(run("SCM-SCO", &[sco(1, 2)], &[sco(2, 3)]), [sco(1, 3)]);
        // One application over a chain of 3 closes the length-2 paths.
        let got = run("SCM-SCO", &[], &[sco(1, 2), sco(2, 3), sco(3, 4)]);
        assert_eq!(got, [sco(1, 3), sco(2, 4)]);
    }

    #[test]
    fn scm_sco_cycle_is_safe() {
        let got = run("SCM-SCO", &[], &[sco(1, 2), sco(2, 1)]);
        assert_eq!(got, [sco(1, 1), sco(2, 2)]);
    }

    #[test]
    fn scm_spo_transitivity() {
        assert_eq!(run("SCM-SPO", &[spo(2, 3)], &[spo(1, 2)]), [spo(1, 3)]);
        assert_eq!(run("SCM-SPO", &[spo(1, 2)], &[spo(2, 3)]), [spo(1, 3)]);
    }

    #[test]
    fn scm_dom2_both_directions() {
        assert_eq!(run("SCM-DOM2", &[spo(1, 2)], &[dom(2, 7)]), [dom(1, 7)]);
        assert_eq!(run("SCM-DOM2", &[dom(2, 7)], &[spo(1, 2)]), [dom(1, 7)]);
    }

    #[test]
    fn scm_rng2_both_directions() {
        assert_eq!(run("SCM-RNG2", &[spo(1, 2)], &[rng(2, 7)]), [rng(1, 7)]);
        assert_eq!(run("SCM-RNG2", &[rng(2, 7)], &[spo(1, 2)]), [rng(1, 7)]);
    }

    #[test]
    fn prp_dom_types_subjects() {
        assert_eq!(run("PRP-DOM", &[dom(5, 7)], &[fact()]), [ty(9, 7)]);
        assert_eq!(run("PRP-DOM", &[fact()], &[dom(5, 7)]), [ty(9, 7)]);
    }

    #[test]
    fn prp_rng_types_objects() {
        assert_eq!(run("PRP-RNG", &[rng(5, 7)], &[fact()]), [ty(8, 7)]);
        assert_eq!(run("PRP-RNG", &[fact()], &[rng(5, 7)]), [ty(8, 7)]);
    }

    #[test]
    fn prp_spo1_lifts_facts() {
        let lifted = Triple::new(n(9), n(6), n(8));
        assert_eq!(run("PRP-SPO1", &[spo(5, 6)], &[fact()]), [lifted]);
        assert_eq!(run("PRP-SPO1", &[fact()], &[spo(5, 6)]), [lifted]);
    }

    #[test]
    fn prp_spo1_is_universal_io() {
        assert_eq!(rule("PRP-SPO1").input_filter(), InputFilter::Universal);
        assert_eq!(
            rule("PRP-SPO1").output_signature(),
            OutputSignature::Universal
        );
    }

    #[test]
    fn figure2_universal_input_rules() {
        // PRP-SPO1, PRP-RNG and PRP-DOM take universal input; the SCM-*
        // and CAX-* rules are predicate-filtered.
        for r in super::rules() {
            let universal = r.input_filter() == InputFilter::Universal;
            assert_eq!(universal, r.name().starts_with("PRP-"), "{}", r.name());
        }
    }

    #[test]
    fn only_the_transitive_schema_rules_report_a_closure_predicate() {
        let closed: Vec<_> = (super::rules().iter())
            .filter_map(|r| Some((r.name(), r.transitive_predicate()?)))
            .collect();
        let expected = [
            ("SCM-SCO", RDFS_SUB_CLASS_OF),
            ("SCM-SPO", RDFS_SUB_PROPERTY_OF),
        ];
        assert_eq!(closed, expected);
    }

    #[test]
    fn names_match_paper() {
        let rules = super::rules();
        let names: Vec<&str> = rules.iter().map(|r| r.name()).collect();
        assert_eq!(
            names,
            [
                "CAX-SCO", "SCM-SCO", "SCM-SPO", "SCM-DOM2", "SCM-RNG2", "PRP-DOM", "PRP-RNG",
                "PRP-SPO1"
            ]
        );
        assert!(rules.iter().all(|r| r.definition().contains('⊢')));
    }
}
