//! The RDFS-Plus fragment: the paper's stated future work, realised.
//!
//! §5: "First, we will implement more complex inference rules, in order to
//! implement reasoning over a more complex fragments." RDFS-Plus (Allemang
//! & Hendler) is the canonical next step above RDFS: it adds the OWL
//! constructs that stay rule-expressible and PTIME —
//!
//! * `owl:sameAs` equality (symmetry, transitivity, substitution),
//! * `owl:inverseOf`, `owl:SymmetricProperty`, `owl:TransitiveProperty`,
//! * `owl:FunctionalProperty` / `owl:InverseFunctionalProperty`
//!   (which *derive* `sameAs` facts),
//! * `owl:equivalentClass` / `owl:equivalentProperty`.
//!
//! Rule names follow OWL 2 RL (Motik et al.). Every rule is a
//! [`RuleSpec`], evaluated like the ρdf set; none invents new term ids, so
//! the closure stays finite and the reasoner's termination argument is
//! unchanged. `EQ-TRANS` has the exact transitivity shape, so it reports
//! `transitive_predicate(sameAs)` and the engine closes `sameAs` edges
//! incrementally, as it does `subClassOf`.

use crate::spec::{Atom, Guard, RuleSpec};
use slider_model::vocab::{
    OWL_EQUIVALENT_CLASS as EQC, OWL_EQUIVALENT_PROPERTY as EQP, OWL_FUNCTIONAL_PROPERTY,
    OWL_INVERSE_FUNCTIONAL_PROPERTY, OWL_INVERSE_OF as INV, OWL_SAME_AS as SAME,
    OWL_SYMMETRIC_PROPERTY, OWL_TRANSITIVE_PROPERTY, RDFS_SUB_CLASS_OF as SCO,
    RDFS_SUB_PROPERTY_OF as SPO, RDF_TYPE as TYPE,
};

/// The RDFS-Plus extension rules, in the order `Ruleset::rdfs_plus`
/// appends them.
pub(crate) fn rules() -> Vec<RuleSpec> {
    vec![
        RuleSpec::new("EQ-SYM", "(x sameAs y) ⊢ (y sameAs x)")
            .clause([Atom::new("x", SAME, "y")], [Atom::new("y", SAME, "x")]),
        RuleSpec::new("EQ-TRANS", "(x sameAs y), (y sameAs z) ⊢ (x sameAs z)").clause(
            [Atom::new("x", SAME, "y"), Atom::new("y", SAME, "z")],
            [Atom::new("x", SAME, "z")],
        ),
        RuleSpec::new("EQ-REP-S", "(s sameAs s'), (s p o) ⊢ (s' p o)").clause(
            [Atom::new("s", SAME, "s'"), Atom::new("s", "p", "o")],
            [Atom::new("s'", "p", "o")],
        ),
        RuleSpec::new("EQ-REP-P", "(p sameAs p'), (s p o) ⊢ (s p' o)").clause(
            [Atom::new("p", SAME, "p'"), Atom::new("s", "p", "o")],
            [Atom::new("s", "p'", "o")],
        ),
        RuleSpec::new("EQ-REP-O", "(o sameAs o'), (s p o) ⊢ (s p o')").clause(
            [Atom::new("o", SAME, "o'"), Atom::new("s", "p", "o")],
            [Atom::new("s", "p", "o'")],
        ),
        RuleSpec::new(
            "PRP-INV",
            "(p1 inverseOf p2), (x p1 y) ⊢ (y p2 x)  [and symmetrically]",
        )
        .clause(
            [Atom::new("p1", INV, "p2"), Atom::new("x", "p1", "y")],
            [Atom::new("y", "p2", "x")],
        )
        .clause(
            [Atom::new("p1", INV, "p2"), Atom::new("x", "p2", "y")],
            [Atom::new("y", "p1", "x")],
        ),
        RuleSpec::new("PRP-SYMP", "(p type SymmetricProperty), (x p y) ⊢ (y p x)").clause(
            [
                Atom::new("p", TYPE, OWL_SYMMETRIC_PROPERTY),
                Atom::new("x", "p", "y"),
            ],
            [Atom::new("y", "p", "x")],
        ),
        RuleSpec::new(
            "PRP-TRP",
            "(p type TransitiveProperty), (x p y), (y p z) ⊢ (x p z)",
        )
        .clause(
            [
                Atom::new("p", TYPE, OWL_TRANSITIVE_PROPERTY),
                Atom::new("x", "p", "y"),
                Atom::new("y", "p", "z"),
            ],
            [Atom::new("x", "p", "z")],
        ),
        RuleSpec::new(
            "PRP-FP",
            "(p type FunctionalProperty), (x p y1), (x p y2) ⊢ (y1 sameAs y2)",
        )
        .clause(
            [
                Atom::new("p", TYPE, OWL_FUNCTIONAL_PROPERTY),
                Atom::new("x", "p", "y1"),
                Atom::new("x", "p", "y2"),
            ],
            [Atom::new("y1", SAME, "y2")],
        )
        .guard(Guard::Distinct("y1", "y2")),
        RuleSpec::new(
            "PRP-IFP",
            "(p type InverseFunctionalProperty), (x1 p y), (x2 p y) ⊢ (x1 sameAs x2)",
        )
        .clause(
            [
                Atom::new("p", TYPE, OWL_INVERSE_FUNCTIONAL_PROPERTY),
                Atom::new("x1", "p", "y"),
                Atom::new("x2", "p", "y"),
            ],
            [Atom::new("x1", SAME, "x2")],
        )
        .guard(Guard::Distinct("x1", "x2")),
        RuleSpec::new(
            "SCM-EQC",
            "(c1 equivalentClass c2) ⊢ (c1 subClassOf c2), (c2 subClassOf c1)",
        )
        .clause(
            [Atom::new("c1", EQC, "c2")],
            [Atom::new("c1", SCO, "c2"), Atom::new("c2", SCO, "c1")],
        ),
        RuleSpec::new(
            "SCM-EQP",
            "(p1 equivalentProperty p2) ⊢ (p1 subPropertyOf p2), (p2 subPropertyOf p1)",
        )
        .clause(
            [Atom::new("p1", EQP, "p2")],
            [Atom::new("p1", SPO, "p2"), Atom::new("p2", SPO, "p1")],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{n, run};
    use slider_model::{NodeId, Triple};

    fn same(a: u64, b: u64) -> Triple {
        Triple::new(n(a), SAME, n(b))
    }
    fn fact(s: u64, p: u64, o: u64) -> Triple {
        Triple::new(n(s), n(p), n(o))
    }
    fn schema(class: NodeId) -> Triple {
        Triple::new(n(5), TYPE, class)
    }

    #[test]
    fn eq_sym() {
        assert_eq!(run("EQ-SYM", &[], &[same(1, 2)]), [same(2, 1)]);
        assert!(run("EQ-SYM", &[], &[fact(1, 2, 3)]).is_empty());
    }

    #[test]
    fn eq_trans_both_sides() {
        assert_eq!(run("EQ-TRANS", &[same(2, 3)], &[same(1, 2)]), [same(1, 3)]);
        assert_eq!(run("EQ-TRANS", &[same(1, 2)], &[same(2, 3)]), [same(1, 3)]);
    }

    #[test]
    fn eq_rep_s_rewrites_subjects() {
        // Equality first, fact second.
        assert_eq!(
            run("EQ-REP-S", &[same(1, 9)], &[fact(1, 5, 3)]),
            [fact(9, 5, 3)]
        );
        // Fact first: rewriting also applies to the sameAs triple itself,
        // soundly deriving (9 sameAs 9).
        let got = run("EQ-REP-S", &[fact(1, 5, 3)], &[same(1, 9)]);
        assert_eq!(got, [same(9, 9), fact(9, 5, 3)]);
    }

    #[test]
    fn eq_rep_p_rewrites_predicates() {
        assert_eq!(
            run("EQ-REP-P", &[same(5, 6)], &[fact(1, 5, 3)]),
            [fact(1, 6, 3)]
        );
        assert_eq!(
            run("EQ-REP-P", &[fact(1, 5, 3)], &[same(5, 6)]),
            [fact(1, 6, 3)]
        );
    }

    #[test]
    fn eq_rep_o_rewrites_objects() {
        assert_eq!(
            run("EQ-REP-O", &[same(3, 9)], &[fact(1, 5, 3)]),
            [fact(1, 5, 9)]
        );
        assert_eq!(
            run("EQ-REP-O", &[fact(1, 5, 3)], &[same(3, 9)]),
            [fact(1, 5, 9)]
        );
    }

    #[test]
    fn prp_inv_both_orders() {
        let inv = Triple::new(n(5), INV, n(6));
        assert_eq!(run("PRP-INV", &[inv], &[fact(1, 5, 2)]), [fact(2, 6, 1)]);
        assert_eq!(run("PRP-INV", &[fact(1, 5, 2)], &[inv]), [fact(2, 6, 1)]);
        // Facts through the *inverse* predicate flip the other way.
        assert_eq!(run("PRP-INV", &[inv], &[fact(2, 6, 1)]), [fact(1, 5, 2)]);
    }

    #[test]
    fn prp_symp() {
        let symp = schema(OWL_SYMMETRIC_PROPERTY);
        assert_eq!(run("PRP-SYMP", &[symp], &[fact(1, 5, 2)]), [fact(2, 5, 1)]);
        assert_eq!(run("PRP-SYMP", &[fact(1, 5, 2)], &[symp]), [fact(2, 5, 1)]);
        // Non-symmetric predicates untouched.
        assert!(run("PRP-SYMP", &[], &[fact(1, 5, 2)]).is_empty());
    }

    #[test]
    fn prp_trp_single_step() {
        let trp = schema(OWL_TRANSITIVE_PROPERTY);
        let got = run("PRP-TRP", &[trp, fact(2, 5, 3)], &[fact(1, 5, 2)]);
        assert_eq!(got, [fact(1, 5, 3)]);
        // Schema arriving last closes one step over existing pairs.
        let got = run("PRP-TRP", &[fact(1, 5, 2), fact(2, 5, 3)], &[trp]);
        assert_eq!(got, [fact(1, 5, 3)]);
    }

    #[test]
    fn prp_fp_derives_same_as() {
        // y1 and y2 are symmetric in the body, so a new fact derives both
        // orientations, as does the schema arriving last.
        let fp = schema(OWL_FUNCTIONAL_PROPERTY);
        let got = run("PRP-FP", &[fp, fact(1, 5, 7)], &[fact(1, 5, 8)]);
        assert_eq!(got, [same(7, 8), same(8, 7)]);
        let got = run("PRP-FP", &[fact(1, 5, 7), fact(1, 5, 8)], &[fp]);
        assert_eq!(got, [same(7, 8), same(8, 7)]);
    }

    #[test]
    fn prp_ifp_derives_same_as() {
        let ifp = schema(OWL_INVERSE_FUNCTIONAL_PROPERTY);
        let got = run("PRP-IFP", &[ifp, fact(7, 5, 1)], &[fact(8, 5, 1)]);
        assert_eq!(got, [same(7, 8), same(8, 7)]);
    }

    #[test]
    fn scm_eqc_and_eqp() {
        let got = run("SCM-EQC", &[], &[Triple::new(n(1), EQC, n(2))]);
        assert_eq!(
            got,
            [(1, 2), (2, 1)].map(|(a, b)| Triple::new(n(a), SCO, n(b)))
        );
        let got = run("SCM-EQP", &[], &[Triple::new(n(1), EQP, n(2))]);
        assert_eq!(
            got,
            [(1, 2), (2, 1)].map(|(a, b)| Triple::new(n(a), SPO, n(b)))
        );
    }
}
