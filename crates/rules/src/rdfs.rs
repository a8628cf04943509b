//! The RDFS extension rules: structural entailment beyond ρdf.
//!
//! Together with the ρdf rules these form the paper's "RDFS" fragment.
//! Rule names follow the W3C RDF Semantics entailment rules (rdfs1–rdfs13);
//! the ρdf rules already cover rdfs2/3/5/7/9/11 (as PRP-DOM, PRP-RNG,
//! SCM-SPO, PRP-SPO1, CAX-SCO, SCM-SCO).
//!
//! ## Generalised-RDF note (rdfs1, rdfs4b)
//!
//! W3C rdfs1 introduces a fresh blank node per literal; like other
//! materialisation engines we instead emit the *generalised* triple
//! `(lit rdf:type rdfs:Literal)` with the literal itself in subject
//! position — deterministic and loss-free. rdfs4b skips literal objects by
//! default (so the closure remains valid RDF); both behaviours are
//! configurable through [`RdfsConfig`](crate::RdfsConfig).

use crate::rule::{InputFilter, OutputSignature, Rule};
use slider_model::vocab::{
    RDFS_CLASS, RDFS_CONTAINER_MEMBERSHIP_PROPERTY, RDFS_DATATYPE, RDFS_LITERAL, RDFS_MEMBER,
    RDFS_RESOURCE, RDFS_SUB_CLASS_OF, RDFS_SUB_PROPERTY_OF, RDF_PROPERTY, RDF_TYPE,
};
use slider_model::{Dictionary, Triple};
use slider_store::VerticalStore;
use std::sync::Arc;

/// `rdfs1`: `(x p l), l is a literal ⊢ (l type Literal)` *(generalised)*.
pub struct Rdfs1 {
    dict: Arc<Dictionary>,
}

impl Rdfs1 {
    /// Builds the rule; it needs the dictionary to classify term kinds.
    pub fn new(dict: Arc<Dictionary>) -> Self {
        Rdfs1 { dict }
    }
}

impl Rule for Rdfs1 {
    // Delta-only: `apply` never queries the store.

    fn name(&self) -> &'static str {
        "RDFS1"
    }

    fn definition(&self) -> &'static str {
        "(x p l), l literal ⊢ (l type Literal)"
    }

    fn input_filter(&self) -> InputFilter {
        InputFilter::Universal
    }

    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Predicates(vec![RDF_TYPE])
    }

    fn apply(&self, _store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        // One guard for the whole batch (hot path — see Dictionary::kinds).
        let kinds = self.dict.kinds();
        for &t in delta {
            if kinds.is_literal(t.o) {
                out.push(Triple::new(t.o, RDF_TYPE, RDFS_LITERAL));
            }
        }
    }

    fn derives(&self, store: &VerticalStore, t: Triple) -> Option<bool> {
        // (l type Literal) ⇐ l is a literal ∧ ∃p: (_ p l).
        Some(
            t.p == RDF_TYPE
                && t.o == RDFS_LITERAL
                && self.dict.is_literal(t.s)
                && store
                    .predicates()
                    .any(|p| store.subjects_with(p, t.s).next().is_some()),
        )
    }
}

/// `rdfs4a`: `(x p y) ⊢ (x type Resource)`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Rdfs4a;

impl Rule for Rdfs4a {
    // Delta-only: `apply` never queries the store.

    fn name(&self) -> &'static str {
        "RDFS4A"
    }

    fn definition(&self) -> &'static str {
        "(x p y) ⊢ (x type Resource)"
    }

    fn input_filter(&self) -> InputFilter {
        InputFilter::Universal
    }

    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Predicates(vec![RDF_TYPE])
    }

    fn apply(&self, _store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        for &t in delta {
            out.push(Triple::new(t.s, RDF_TYPE, RDFS_RESOURCE));
        }
    }

    fn derives(&self, store: &VerticalStore, t: Triple) -> Option<bool> {
        // (x type Resource) ⇐ ∃p: (x p _).
        Some(
            t.p == RDF_TYPE
                && t.o == RDFS_RESOURCE
                && store
                    .predicates()
                    .any(|p| store.objects_with(p, t.s).next().is_some()),
        )
    }
}

/// `rdfs4b`: `(x p y) ⊢ (y type Resource)` — literal objects skipped unless
/// configured otherwise (see module docs).
pub struct Rdfs4b {
    dict: Arc<Dictionary>,
    include_literals: bool,
}

impl Rdfs4b {
    /// Standard behaviour: literal objects are not typed.
    pub fn new(dict: Arc<Dictionary>) -> Self {
        Rdfs4b {
            dict,
            include_literals: false,
        }
    }

    /// Generalised behaviour: also type literal objects as Resources.
    pub fn with_literals(dict: Arc<Dictionary>) -> Self {
        Rdfs4b {
            dict,
            include_literals: true,
        }
    }
}

impl Rule for Rdfs4b {
    // Delta-only: `apply` never queries the store.

    fn name(&self) -> &'static str {
        "RDFS4B"
    }

    fn definition(&self) -> &'static str {
        "(x p y) ⊢ (y type Resource)"
    }

    fn input_filter(&self) -> InputFilter {
        InputFilter::Universal
    }

    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Predicates(vec![RDF_TYPE])
    }

    fn apply(&self, _store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        let kinds = self.dict.kinds();
        for &t in delta {
            if self.include_literals || !kinds.is_literal(t.o) {
                out.push(Triple::new(t.o, RDF_TYPE, RDFS_RESOURCE));
            }
        }
    }

    fn derives(&self, store: &VerticalStore, t: Triple) -> Option<bool> {
        // (y type Resource) ⇐ ∃p: (_ p y), with the literal gate.
        Some(
            t.p == RDF_TYPE
                && t.o == RDFS_RESOURCE
                && (self.include_literals || !self.dict.is_literal(t.s))
                && store
                    .predicates()
                    .any(|p| store.subjects_with(p, t.s).next().is_some()),
        )
    }
}

/// `rdfs6`: `(p type Property) ⊢ (p subPropertyOf p)`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Rdfs6;

impl Rule for Rdfs6 {
    // Delta-only: `apply` never queries the store.

    fn name(&self) -> &'static str {
        "RDFS6"
    }

    fn definition(&self) -> &'static str {
        "(p type Property) ⊢ (p subPropertyOf p)"
    }

    fn input_filter(&self) -> InputFilter {
        InputFilter::Predicates(vec![RDF_TYPE])
    }

    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Predicates(vec![RDFS_SUB_PROPERTY_OF])
    }

    fn apply(&self, _store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        for &t in delta {
            if t.p == RDF_TYPE && t.o == RDF_PROPERTY {
                out.push(Triple::new(t.s, RDFS_SUB_PROPERTY_OF, t.s));
            }
        }
    }

    fn derives(&self, store: &VerticalStore, t: Triple) -> Option<bool> {
        Some(
            t.p == RDFS_SUB_PROPERTY_OF
                && t.s == t.o
                && store.contains(Triple::new(t.s, RDF_TYPE, RDF_PROPERTY)),
        )
    }
}

/// `rdfs8`: `(c type Class) ⊢ (c subClassOf Resource)`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Rdfs8;

impl Rule for Rdfs8 {
    // Delta-only: `apply` never queries the store.

    fn name(&self) -> &'static str {
        "RDFS8"
    }

    fn definition(&self) -> &'static str {
        "(c type Class) ⊢ (c subClassOf Resource)"
    }

    fn input_filter(&self) -> InputFilter {
        InputFilter::Predicates(vec![RDF_TYPE])
    }

    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Predicates(vec![RDFS_SUB_CLASS_OF])
    }

    fn apply(&self, _store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        for &t in delta {
            if t.p == RDF_TYPE && t.o == RDFS_CLASS {
                out.push(Triple::new(t.s, RDFS_SUB_CLASS_OF, RDFS_RESOURCE));
            }
        }
    }

    fn derives(&self, store: &VerticalStore, t: Triple) -> Option<bool> {
        Some(
            t.p == RDFS_SUB_CLASS_OF
                && t.o == RDFS_RESOURCE
                && store.contains(Triple::new(t.s, RDF_TYPE, RDFS_CLASS)),
        )
    }
}

/// `rdfs10`: `(c type Class) ⊢ (c subClassOf c)`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Rdfs10;

impl Rule for Rdfs10 {
    // Delta-only: `apply` never queries the store.

    fn name(&self) -> &'static str {
        "RDFS10"
    }

    fn definition(&self) -> &'static str {
        "(c type Class) ⊢ (c subClassOf c)"
    }

    fn input_filter(&self) -> InputFilter {
        InputFilter::Predicates(vec![RDF_TYPE])
    }

    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Predicates(vec![RDFS_SUB_CLASS_OF])
    }

    fn apply(&self, _store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        for &t in delta {
            if t.p == RDF_TYPE && t.o == RDFS_CLASS {
                out.push(Triple::new(t.s, RDFS_SUB_CLASS_OF, t.s));
            }
        }
    }

    fn derives(&self, store: &VerticalStore, t: Triple) -> Option<bool> {
        Some(
            t.p == RDFS_SUB_CLASS_OF
                && t.s == t.o
                && store.contains(Triple::new(t.s, RDF_TYPE, RDFS_CLASS)),
        )
    }
}

/// `rdfs12`: `(p type ContainerMembershipProperty) ⊢ (p subPropertyOf member)`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Rdfs12;

impl Rule for Rdfs12 {
    // Delta-only: `apply` never queries the store.

    fn name(&self) -> &'static str {
        "RDFS12"
    }

    fn definition(&self) -> &'static str {
        "(p type ContainerMembershipProperty) ⊢ (p subPropertyOf member)"
    }

    fn input_filter(&self) -> InputFilter {
        InputFilter::Predicates(vec![RDF_TYPE])
    }

    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Predicates(vec![RDFS_SUB_PROPERTY_OF])
    }

    fn apply(&self, _store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        for &t in delta {
            if t.p == RDF_TYPE && t.o == RDFS_CONTAINER_MEMBERSHIP_PROPERTY {
                out.push(Triple::new(t.s, RDFS_SUB_PROPERTY_OF, RDFS_MEMBER));
            }
        }
    }

    fn derives(&self, store: &VerticalStore, t: Triple) -> Option<bool> {
        Some(
            t.p == RDFS_SUB_PROPERTY_OF
                && t.o == RDFS_MEMBER
                && store.contains(Triple::new(
                    t.s,
                    RDF_TYPE,
                    RDFS_CONTAINER_MEMBERSHIP_PROPERTY,
                )),
        )
    }
}

/// `rdfs13`: `(d type Datatype) ⊢ (d subClassOf Literal)`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Rdfs13;

impl Rule for Rdfs13 {
    // Delta-only: `apply` never queries the store.

    fn name(&self) -> &'static str {
        "RDFS13"
    }

    fn definition(&self) -> &'static str {
        "(d type Datatype) ⊢ (d subClassOf Literal)"
    }

    fn input_filter(&self) -> InputFilter {
        InputFilter::Predicates(vec![RDF_TYPE])
    }

    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Predicates(vec![RDFS_SUB_CLASS_OF])
    }

    fn apply(&self, _store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        for &t in delta {
            if t.p == RDF_TYPE && t.o == RDFS_DATATYPE {
                out.push(Triple::new(t.s, RDFS_SUB_CLASS_OF, RDFS_LITERAL));
            }
        }
    }

    fn derives(&self, store: &VerticalStore, t: Triple) -> Option<bool> {
        Some(
            t.p == RDFS_SUB_CLASS_OF
                && t.o == RDFS_LITERAL
                && store.contains(Triple::new(t.s, RDF_TYPE, RDFS_DATATYPE)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slider_model::{NodeId, Term};

    fn n(v: u64) -> NodeId {
        NodeId(1000 + v)
    }

    fn run(rule: &dyn Rule, delta: &[Triple]) -> Vec<Triple> {
        let store: VerticalStore = delta.iter().copied().collect();
        let mut out = Vec::new();
        rule.apply(&store, delta, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn rdfs1_types_literals_generalised() {
        let dict = Arc::new(Dictionary::new());
        let lit = dict.intern(&Term::literal("hello"));
        let iri = dict.intern(&Term::iri("http://e/o"));
        let rule = Rdfs1::new(Arc::clone(&dict));
        let got = run(
            &rule,
            &[Triple::new(n(1), n(2), lit), Triple::new(n(1), n(2), iri)],
        );
        assert_eq!(got, vec![Triple::new(lit, RDF_TYPE, RDFS_LITERAL)]);
    }

    #[test]
    fn rdfs4a_types_all_subjects() {
        let got = run(
            &Rdfs4a,
            &[Triple::new(n(1), n(2), n(3)), Triple::new(n(4), n(5), n(6))],
        );
        assert_eq!(
            got,
            vec![
                Triple::new(n(1), RDF_TYPE, RDFS_RESOURCE),
                Triple::new(n(4), RDF_TYPE, RDFS_RESOURCE),
            ]
        );
    }

    #[test]
    fn rdfs4b_skips_literals_by_default() {
        let dict = Arc::new(Dictionary::new());
        let lit = dict.intern(&Term::literal("x"));
        let iri = dict.intern(&Term::iri("http://e/o"));
        let rule = Rdfs4b::new(Arc::clone(&dict));
        let got = run(
            &rule,
            &[Triple::new(n(1), n(2), lit), Triple::new(n(1), n(2), iri)],
        );
        assert_eq!(got, vec![Triple::new(iri, RDF_TYPE, RDFS_RESOURCE)]);

        let rule = Rdfs4b::with_literals(dict);
        let got = run(&rule, &[Triple::new(n(1), n(2), lit)]);
        assert_eq!(got, vec![Triple::new(lit, RDF_TYPE, RDFS_RESOURCE)]);
    }

    #[test]
    fn rdfs6_reflexive_subproperty() {
        let got = run(&Rdfs6, &[Triple::new(n(1), RDF_TYPE, RDF_PROPERTY)]);
        assert_eq!(got, vec![Triple::new(n(1), RDFS_SUB_PROPERTY_OF, n(1))]);
        assert!(run(&Rdfs6, &[Triple::new(n(1), RDF_TYPE, RDFS_CLASS)]).is_empty());
    }

    #[test]
    fn rdfs8_and_10_on_classes() {
        let c = Triple::new(n(1), RDF_TYPE, RDFS_CLASS);
        assert_eq!(
            run(&Rdfs8, &[c]),
            vec![Triple::new(n(1), RDFS_SUB_CLASS_OF, RDFS_RESOURCE)]
        );
        assert_eq!(
            run(&Rdfs10, &[c]),
            vec![Triple::new(n(1), RDFS_SUB_CLASS_OF, n(1))]
        );
        // Non-class typing triggers neither.
        let p = Triple::new(n(1), RDF_TYPE, RDF_PROPERTY);
        assert!(run(&Rdfs8, &[p]).is_empty());
        assert!(run(&Rdfs10, &[p]).is_empty());
    }

    #[test]
    fn rdfs12_container_membership() {
        let got = run(
            &Rdfs12,
            &[Triple::new(
                n(1),
                RDF_TYPE,
                RDFS_CONTAINER_MEMBERSHIP_PROPERTY,
            )],
        );
        assert_eq!(
            got,
            vec![Triple::new(n(1), RDFS_SUB_PROPERTY_OF, RDFS_MEMBER)]
        );
    }

    #[test]
    fn rdfs13_datatypes() {
        let got = run(&Rdfs13, &[Triple::new(n(1), RDF_TYPE, RDFS_DATATYPE)]);
        assert_eq!(
            got,
            vec![Triple::new(n(1), RDFS_SUB_CLASS_OF, RDFS_LITERAL)]
        );
    }

    #[test]
    fn structural_rules_are_type_filtered() {
        for rule in [&Rdfs6 as &dyn Rule, &Rdfs8, &Rdfs10, &Rdfs12, &Rdfs13] {
            assert_eq!(
                rule.input_filter(),
                InputFilter::Predicates(vec![RDF_TYPE]),
                "{}",
                rule.name()
            );
        }
    }
}
