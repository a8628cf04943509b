//! The RDFS extension rules: structural entailment beyond ρdf.
//!
//! Together with the ρdf rules these form the paper's "RDFS" fragment.
//! Rule names follow the W3C RDF Semantics entailment rules (rdfs1–rdfs13);
//! the ρdf rules already cover rdfs2/3/5/7/9/11 (as PRP-DOM, PRP-RNG,
//! SCM-SPO, PRP-SPO1, CAX-SCO, SCM-SCO).
//!
//! Every rule is a [`RuleSpec`]. rdfs1 and rdfs4b test a term's kind
//! (literal or not), which no triple pattern can express, through kind
//! guards over the dictionary the fragment is built with.
//!
//! ## Generalised-RDF note (rdfs1, rdfs4b)
//!
//! W3C rdfs1 introduces a fresh blank node per literal; like other
//! materialisation engines we instead emit the *generalised* triple
//! `(lit rdf:type rdfs:Literal)` with the literal itself in subject
//! position — deterministic and loss-free. rdfs4b skips literal objects, so
//! the closure remains valid RDF.

use crate::spec::{Atom, Guard, RuleSpec};
use slider_model::vocab::{
    RDFS_CLASS, RDFS_CONTAINER_MEMBERSHIP_PROPERTY, RDFS_DATATYPE, RDFS_LITERAL, RDFS_MEMBER,
    RDFS_RESOURCE, RDFS_SUB_CLASS_OF as SCO, RDFS_SUB_PROPERTY_OF as SPO, RDF_PROPERTY,
    RDF_TYPE as TYPE,
};
use slider_model::Dictionary;
use std::sync::Arc;

/// The RDFS extension rules, in the order `Ruleset::rdfs` appends them;
/// `dict` classifies terms for rdfs1 and rdfs4b.
pub(crate) fn rules(dict: &Arc<Dictionary>) -> Vec<RuleSpec> {
    let typed = |name, definition, class, head| {
        RuleSpec::new(name, definition).clause([Atom::new("x", TYPE, class)], [head])
    };
    vec![
        RuleSpec::new("RDFS1", "(x p l), l literal ⊢ (l type Literal)")
            .dictionary(dict)
            .clause(
                [Atom::new("x", "p", "l")],
                [Atom::new("l", TYPE, RDFS_LITERAL)],
            )
            .guard(Guard::Literal("l")),
        RuleSpec::new("RDFS4A", "(x p y) ⊢ (x type Resource)").clause(
            [Atom::new("x", "p", "y")],
            [Atom::new("x", TYPE, RDFS_RESOURCE)],
        ),
        RuleSpec::new("RDFS4B", "(x p y) ⊢ (y type Resource)")
            .dictionary(dict)
            .clause(
                [Atom::new("x", "p", "y")],
                [Atom::new("y", TYPE, RDFS_RESOURCE)],
            )
            .guard(Guard::NotLiteral("y")),
        typed(
            "RDFS6",
            "(p type Property) ⊢ (p subPropertyOf p)",
            RDF_PROPERTY,
            Atom::new("x", SPO, "x"),
        ),
        typed(
            "RDFS8",
            "(c type Class) ⊢ (c subClassOf Resource)",
            RDFS_CLASS,
            Atom::new("x", SCO, RDFS_RESOURCE),
        ),
        typed(
            "RDFS10",
            "(c type Class) ⊢ (c subClassOf c)",
            RDFS_CLASS,
            Atom::new("x", SCO, "x"),
        ),
        typed(
            "RDFS12",
            "(p type ContainerMembershipProperty) ⊢ (p subPropertyOf member)",
            RDFS_CONTAINER_MEMBERSHIP_PROPERTY,
            Atom::new("x", SPO, RDFS_MEMBER),
        ),
        typed(
            "RDFS13",
            "(d type Datatype) ⊢ (d subClassOf Literal)",
            RDFS_DATATYPE,
            Atom::new("x", SCO, RDFS_LITERAL),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{InputFilter, Rule};
    use crate::testutil::{n, rule};
    use crate::Ruleset;
    use slider_model::{Term, Triple};
    use slider_store::VerticalStore;

    /// One application of `rule` to `delta` over the store `delta`.
    fn run(rule: &dyn Rule, delta: &[Triple]) -> Vec<Triple> {
        let store: VerticalStore = delta.iter().copied().collect();
        let mut out = Vec::new();
        rule.apply(&store, delta, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The RDFS rule `name`, classifying terms with `dict`.
    fn rdfs_rule(dict: &Arc<Dictionary>, name: &str) -> Arc<dyn Rule> {
        let rs = Ruleset::rdfs(dict);
        Arc::clone(&rs.rules()[rs.index_of(name).expect(name)])
    }

    /// `rule` applied to one `(x type class)` triple.
    fn typed(name: &str, class: slider_model::NodeId) -> Vec<Triple> {
        run(&*rule(name), &[Triple::new(n(1), TYPE, class)])
    }

    #[test]
    fn rdfs1_types_literals_generalised() {
        let dict = Arc::new(Dictionary::new());
        let lit = dict.intern(&Term::literal("hello"));
        let iri = dict.intern(&Term::iri("http://e/o"));
        let rule = rdfs_rule(&dict, "RDFS1");
        let got = run(
            &*rule,
            &[Triple::new(n(1), n(2), lit), Triple::new(n(1), n(2), iri)],
        );
        assert_eq!(got, [Triple::new(lit, TYPE, RDFS_LITERAL)]);
    }

    #[test]
    fn rdfs4a_types_all_subjects() {
        let got = run(
            &*rule("RDFS4A"),
            &[Triple::new(n(1), n(2), n(3)), Triple::new(n(4), n(5), n(6))],
        );
        let expected = [1, 4].map(|x| Triple::new(n(x), TYPE, RDFS_RESOURCE));
        assert_eq!(got, expected);
    }

    #[test]
    fn rdfs4b_skips_literals_by_default() {
        let dict = Arc::new(Dictionary::new());
        let lit = dict.intern(&Term::literal("x"));
        let iri = dict.intern(&Term::iri("http://e/o"));
        let rule = rdfs_rule(&dict, "RDFS4B");
        let got = run(
            &*rule,
            &[Triple::new(n(1), n(2), lit), Triple::new(n(1), n(2), iri)],
        );
        assert_eq!(got, [Triple::new(iri, TYPE, RDFS_RESOURCE)]);
    }

    #[test]
    fn rdfs6_reflexive_subproperty() {
        let got = typed("RDFS6", RDF_PROPERTY);
        assert_eq!(got, [Triple::new(n(1), SPO, n(1))]);
        assert!(typed("RDFS6", RDFS_CLASS).is_empty());
    }

    #[test]
    fn rdfs8_and_10_on_classes() {
        let got = typed("RDFS8", RDFS_CLASS);
        assert_eq!(got, [Triple::new(n(1), SCO, RDFS_RESOURCE)]);
        let got = typed("RDFS10", RDFS_CLASS);
        assert_eq!(got, [Triple::new(n(1), SCO, n(1))]);
        // Non-class typing triggers neither.
        assert!(typed("RDFS8", RDF_PROPERTY).is_empty());
        assert!(typed("RDFS10", RDF_PROPERTY).is_empty());
    }

    #[test]
    fn rdfs12_container_membership() {
        let got = typed("RDFS12", RDFS_CONTAINER_MEMBERSHIP_PROPERTY);
        assert_eq!(got, [Triple::new(n(1), SPO, RDFS_MEMBER)]);
    }

    #[test]
    fn rdfs13_datatypes() {
        let got = typed("RDFS13", RDFS_DATATYPE);
        assert_eq!(got, [Triple::new(n(1), SCO, RDFS_LITERAL)]);
    }

    #[test]
    fn structural_rules_are_type_filtered() {
        for name in ["RDFS6", "RDFS8", "RDFS10", "RDFS12", "RDFS13"] {
            let filter = rule(name).input_filter();
            assert_eq!(filter, InputFilter::Predicates(vec![TYPE]), "{name}");
        }
    }
}
