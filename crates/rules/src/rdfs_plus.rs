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
//! Rule names follow OWL 2 RL (Motik et al.). All rules are semi-naive
//! two-sided joins like the ρdf set, and none invents new term ids, so the
//! closure stays finite and the reasoner's termination argument is
//! unchanged.

use crate::rule::{InputFilter, OutputSignature, Rule};
use slider_model::vocab::{
    OWL_EQUIVALENT_CLASS, OWL_EQUIVALENT_PROPERTY, OWL_FUNCTIONAL_PROPERTY,
    OWL_INVERSE_FUNCTIONAL_PROPERTY, OWL_INVERSE_OF, OWL_SAME_AS, OWL_SYMMETRIC_PROPERTY,
    OWL_TRANSITIVE_PROPERTY, RDFS_SUB_CLASS_OF, RDFS_SUB_PROPERTY_OF, RDF_TYPE,
};
use slider_model::Triple;
use slider_store::VerticalStore;

/// `EQ-SYM`: `(x sameAs y) ⊢ (y sameAs x)`.
#[derive(Debug, Default, Clone, Copy)]
pub struct EqSym;

impl Rule for EqSym {
    fn name(&self) -> &'static str {
        "EQ-SYM"
    }

    fn definition(&self) -> &'static str {
        "(x sameAs y) ⊢ (y sameAs x)"
    }

    fn input_filter(&self) -> InputFilter {
        InputFilter::Predicates(vec![OWL_SAME_AS])
    }

    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Predicates(vec![OWL_SAME_AS])
    }

    fn apply(&self, _store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        for &t in delta {
            if t.p == OWL_SAME_AS {
                out.push(Triple::new(t.o, OWL_SAME_AS, t.s));
            }
        }
    }
}

/// `EQ-TRANS`: `(x sameAs y), (y sameAs z) ⊢ (x sameAs z)`.
#[derive(Debug, Default, Clone, Copy)]
pub struct EqTrans;

impl Rule for EqTrans {
    fn name(&self) -> &'static str {
        "EQ-TRANS"
    }

    fn definition(&self) -> &'static str {
        "(x sameAs y), (y sameAs z) ⊢ (x sameAs z)"
    }

    fn input_filter(&self) -> InputFilter {
        InputFilter::Predicates(vec![OWL_SAME_AS])
    }

    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Predicates(vec![OWL_SAME_AS])
    }

    fn apply(&self, store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        for &t in delta {
            if t.p != OWL_SAME_AS {
                continue;
            }
            for z in store.objects_with(OWL_SAME_AS, t.o) {
                out.push(Triple::new(t.s, OWL_SAME_AS, z));
            }
            for w in store.subjects_with(OWL_SAME_AS, t.s) {
                out.push(Triple::new(w, OWL_SAME_AS, t.o));
            }
        }
    }
}

/// `EQ-REP-S`: `(s sameAs s′), (s p o) ⊢ (s′ p o)`.
#[derive(Debug, Default, Clone, Copy)]
pub struct EqRepS;

impl Rule for EqRepS {
    fn name(&self) -> &'static str {
        "EQ-REP-S"
    }

    fn definition(&self) -> &'static str {
        "(s sameAs s'), (s p o) ⊢ (s' p o)"
    }

    fn input_filter(&self) -> InputFilter {
        InputFilter::Universal
    }

    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Universal
    }

    fn apply(&self, store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        for &t in delta {
            if t.p == OWL_SAME_AS {
                // New equality: rewrite every fact about s. The store has
                // no cross-predicate subject index, so walk the (few)
                // predicate partitions.
                for p in store.predicates() {
                    for o in store.objects_with(p, t.s) {
                        out.push(Triple::new(t.o, p, o));
                    }
                }
            }
            // New fact: rewrite through known equalities of its subject.
            for s2 in store.objects_with(OWL_SAME_AS, t.s) {
                out.push(Triple::new(s2, t.p, t.o));
            }
        }
    }
}

/// `EQ-REP-P`: `(p sameAs p′), (s p o) ⊢ (s p′ o)`.
#[derive(Debug, Default, Clone, Copy)]
pub struct EqRepP;

impl Rule for EqRepP {
    fn name(&self) -> &'static str {
        "EQ-REP-P"
    }

    fn definition(&self) -> &'static str {
        "(p sameAs p'), (s p o) ⊢ (s p' o)"
    }

    fn input_filter(&self) -> InputFilter {
        InputFilter::Universal
    }

    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Universal
    }

    fn apply(&self, store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        for &t in delta {
            if t.p == OWL_SAME_AS {
                for (s, o) in store.pairs(t.s) {
                    out.push(Triple::new(s, t.o, o));
                }
            }
            for p2 in store.objects_with(OWL_SAME_AS, t.p) {
                out.push(Triple::new(t.s, p2, t.o));
            }
        }
    }
}

/// `EQ-REP-O`: `(o sameAs o′), (s p o) ⊢ (s p o′)`.
#[derive(Debug, Default, Clone, Copy)]
pub struct EqRepO;

impl Rule for EqRepO {
    fn name(&self) -> &'static str {
        "EQ-REP-O"
    }

    fn definition(&self) -> &'static str {
        "(o sameAs o'), (s p o) ⊢ (s p o')"
    }

    fn input_filter(&self) -> InputFilter {
        InputFilter::Universal
    }

    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Universal
    }

    fn apply(&self, store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        for &t in delta {
            if t.p == OWL_SAME_AS {
                for p in store.predicates() {
                    for s in store.subjects_with(p, t.s) {
                        out.push(Triple::new(s, p, t.o));
                    }
                }
            }
            for o2 in store.objects_with(OWL_SAME_AS, t.o) {
                out.push(Triple::new(t.s, t.p, o2));
            }
        }
    }
}

/// `PRP-INV`: `(p1 inverseOf p2), (x p1 y) ⊢ (y p2 x)` and symmetrically.
#[derive(Debug, Default, Clone, Copy)]
pub struct PrpInv;

impl Rule for PrpInv {
    fn name(&self) -> &'static str {
        "PRP-INV"
    }

    fn definition(&self) -> &'static str {
        "(p1 inverseOf p2), (x p1 y) ⊢ (y p2 x)  [and symmetrically]"
    }

    fn input_filter(&self) -> InputFilter {
        InputFilter::Universal
    }

    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Universal
    }

    fn apply(&self, store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        for &t in delta {
            if t.p == OWL_INVERSE_OF {
                for (x, y) in store.pairs(t.s) {
                    out.push(Triple::new(y, t.o, x));
                }
                for (x, y) in store.pairs(t.o) {
                    out.push(Triple::new(y, t.s, x));
                }
            }
            for p2 in store.objects_with(OWL_INVERSE_OF, t.p) {
                out.push(Triple::new(t.o, p2, t.s));
            }
            for p1 in store.subjects_with(OWL_INVERSE_OF, t.p) {
                out.push(Triple::new(t.o, p1, t.s));
            }
        }
    }
}

/// `PRP-SYMP`: `(p type SymmetricProperty), (x p y) ⊢ (y p x)`.
#[derive(Debug, Default, Clone, Copy)]
pub struct PrpSymp;

impl Rule for PrpSymp {
    fn name(&self) -> &'static str {
        "PRP-SYMP"
    }

    fn definition(&self) -> &'static str {
        "(p type SymmetricProperty), (x p y) ⊢ (y p x)"
    }

    fn input_filter(&self) -> InputFilter {
        InputFilter::Universal
    }

    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Universal
    }

    fn apply(&self, store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        for &t in delta {
            if t.p == RDF_TYPE && t.o == OWL_SYMMETRIC_PROPERTY {
                for (x, y) in store.pairs(t.s) {
                    out.push(Triple::new(y, t.s, x));
                }
            }
            if store.contains(Triple::new(t.p, RDF_TYPE, OWL_SYMMETRIC_PROPERTY)) {
                out.push(Triple::new(t.o, t.p, t.s));
            }
        }
    }
}

/// `PRP-TRP`: `(p type TransitiveProperty), (x p y), (y p z) ⊢ (x p z)`.
#[derive(Debug, Default, Clone, Copy)]
pub struct PrpTrp;

impl Rule for PrpTrp {
    fn name(&self) -> &'static str {
        "PRP-TRP"
    }

    fn definition(&self) -> &'static str {
        "(p type TransitiveProperty), (x p y), (y p z) ⊢ (x p z)"
    }

    fn input_filter(&self) -> InputFilter {
        InputFilter::Universal
    }

    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Universal
    }

    fn apply(&self, store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        for &t in delta {
            if t.p == RDF_TYPE && t.o == OWL_TRANSITIVE_PROPERTY {
                // One transitive step over the whole partition; the
                // fixpoint loop completes the closure.
                for (x, y) in store.pairs(t.s) {
                    for z in store.objects_with(t.s, y) {
                        out.push(Triple::new(x, t.s, z));
                    }
                }
            }
            if store.contains(Triple::new(t.p, RDF_TYPE, OWL_TRANSITIVE_PROPERTY)) {
                for z in store.objects_with(t.p, t.o) {
                    out.push(Triple::new(t.s, t.p, z));
                }
                for w in store.subjects_with(t.p, t.s) {
                    out.push(Triple::new(w, t.p, t.o));
                }
            }
        }
    }
}

/// `PRP-FP`: `(p type FunctionalProperty), (x p y1), (x p y2) ⊢ (y1 sameAs y2)`.
#[derive(Debug, Default, Clone, Copy)]
pub struct PrpFp;

impl Rule for PrpFp {
    fn name(&self) -> &'static str {
        "PRP-FP"
    }

    fn definition(&self) -> &'static str {
        "(p type FunctionalProperty), (x p y1), (x p y2) ⊢ (y1 sameAs y2)"
    }

    fn input_filter(&self) -> InputFilter {
        InputFilter::Universal
    }

    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Predicates(vec![OWL_SAME_AS])
    }

    fn apply(&self, store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        for &t in delta {
            if t.p == RDF_TYPE && t.o == OWL_FUNCTIONAL_PROPERTY {
                for (x, y1) in store.pairs(t.s) {
                    for y2 in store.objects_with(t.s, x) {
                        if y1 != y2 {
                            out.push(Triple::new(y1, OWL_SAME_AS, y2));
                        }
                    }
                }
            }
            if store.contains(Triple::new(t.p, RDF_TYPE, OWL_FUNCTIONAL_PROPERTY)) {
                for y2 in store.objects_with(t.p, t.s) {
                    if y2 != t.o {
                        out.push(Triple::new(t.o, OWL_SAME_AS, y2));
                    }
                }
            }
        }
    }
}

/// `PRP-IFP`: `(p type InverseFunctionalProperty), (x1 p y), (x2 p y) ⊢ (x1 sameAs x2)`.
#[derive(Debug, Default, Clone, Copy)]
pub struct PrpIfp;

impl Rule for PrpIfp {
    fn name(&self) -> &'static str {
        "PRP-IFP"
    }

    fn definition(&self) -> &'static str {
        "(p type InverseFunctionalProperty), (x1 p y), (x2 p y) ⊢ (x1 sameAs x2)"
    }

    fn input_filter(&self) -> InputFilter {
        InputFilter::Universal
    }

    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Predicates(vec![OWL_SAME_AS])
    }

    fn apply(&self, store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        for &t in delta {
            if t.p == RDF_TYPE && t.o == OWL_INVERSE_FUNCTIONAL_PROPERTY {
                for (x1, y) in store.pairs(t.s) {
                    for x2 in store.subjects_with(t.s, y) {
                        if x1 != x2 {
                            out.push(Triple::new(x1, OWL_SAME_AS, x2));
                        }
                    }
                }
            }
            if store.contains(Triple::new(t.p, RDF_TYPE, OWL_INVERSE_FUNCTIONAL_PROPERTY)) {
                for x2 in store.subjects_with(t.p, t.o) {
                    if x2 != t.s {
                        out.push(Triple::new(t.s, OWL_SAME_AS, x2));
                    }
                }
            }
        }
    }
}

/// `SCM-EQC`: `(c1 equivalentClass c2) ⊢ (c1 subClassOf c2), (c2 subClassOf c1)`.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScmEqc;

impl Rule for ScmEqc {
    fn name(&self) -> &'static str {
        "SCM-EQC"
    }

    fn definition(&self) -> &'static str {
        "(c1 equivalentClass c2) ⊢ (c1 subClassOf c2), (c2 subClassOf c1)"
    }

    fn input_filter(&self) -> InputFilter {
        InputFilter::Predicates(vec![OWL_EQUIVALENT_CLASS])
    }

    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Predicates(vec![RDFS_SUB_CLASS_OF])
    }

    fn apply(&self, _store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        for &t in delta {
            if t.p == OWL_EQUIVALENT_CLASS {
                out.push(Triple::new(t.s, RDFS_SUB_CLASS_OF, t.o));
                out.push(Triple::new(t.o, RDFS_SUB_CLASS_OF, t.s));
            }
        }
    }
}

/// `SCM-EQP`: `(p1 equivalentProperty p2) ⊢ (p1 subPropertyOf p2), (p2 subPropertyOf p1)`.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScmEqp;

impl Rule for ScmEqp {
    fn name(&self) -> &'static str {
        "SCM-EQP"
    }

    fn definition(&self) -> &'static str {
        "(p1 equivalentProperty p2) ⊢ (p1 subPropertyOf p2), (p2 subPropertyOf p1)"
    }

    fn input_filter(&self) -> InputFilter {
        InputFilter::Predicates(vec![OWL_EQUIVALENT_PROPERTY])
    }

    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Predicates(vec![RDFS_SUB_PROPERTY_OF])
    }

    fn apply(&self, _store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        for &t in delta {
            if t.p == OWL_EQUIVALENT_PROPERTY {
                out.push(Triple::new(t.s, RDFS_SUB_PROPERTY_OF, t.o));
                out.push(Triple::new(t.o, RDFS_SUB_PROPERTY_OF, t.s));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slider_model::NodeId;

    fn n(v: u64) -> NodeId {
        NodeId(1000 + v)
    }

    /// Applies `rule` with the full store (base ∪ delta) as in the engine.
    fn run(rule: &dyn Rule, base: &[Triple], delta: &[Triple]) -> Vec<Triple> {
        let mut store: VerticalStore = base.iter().copied().collect();
        for &t in delta {
            store.insert(t);
        }
        let mut out = Vec::new();
        rule.apply(&store, delta, &mut out);
        out.retain(|&t| !store.contains(t));
        out.sort_unstable();
        out.dedup();
        out
    }

    fn same(a: u64, b: u64) -> Triple {
        Triple::new(n(a), OWL_SAME_AS, n(b))
    }
    fn fact(s: u64, p: u64, o: u64) -> Triple {
        Triple::new(n(s), n(p), n(o))
    }

    #[test]
    fn eq_sym() {
        assert_eq!(run(&EqSym, &[], &[same(1, 2)]), vec![same(2, 1)]);
        assert!(run(&EqSym, &[], &[fact(1, 2, 3)]).is_empty());
    }

    #[test]
    fn eq_trans_both_sides() {
        assert_eq!(
            run(&EqTrans, &[same(2, 3)], &[same(1, 2)]),
            vec![same(1, 3)]
        );
        assert_eq!(
            run(&EqTrans, &[same(1, 2)], &[same(2, 3)]),
            vec![same(1, 3)]
        );
    }

    #[test]
    fn eq_rep_s_rewrites_subjects() {
        // equality first, fact second
        assert_eq!(
            run(&EqRepS, &[same(1, 9)], &[fact(1, 5, 3)]),
            vec![fact(9, 5, 3)]
        );
        // fact first, equality second — rewriting also applies to the
        // sameAs triple itself, soundly deriving (9 sameAs 9).
        assert_eq!(
            run(&EqRepS, &[fact(1, 5, 3)], &[same(1, 9)]),
            vec![same(9, 9), fact(9, 5, 3)]
        );
    }

    #[test]
    fn eq_rep_p_rewrites_predicates() {
        assert_eq!(
            run(&EqRepP, &[same(5, 6)], &[fact(1, 5, 3)]),
            vec![fact(1, 6, 3)]
        );
        assert_eq!(
            run(&EqRepP, &[fact(1, 5, 3)], &[same(5, 6)]),
            vec![fact(1, 6, 3)]
        );
    }

    #[test]
    fn eq_rep_o_rewrites_objects() {
        assert_eq!(
            run(&EqRepO, &[same(3, 9)], &[fact(1, 5, 3)]),
            vec![fact(1, 5, 9)]
        );
        assert_eq!(
            run(&EqRepO, &[fact(1, 5, 3)], &[same(3, 9)]),
            vec![fact(1, 5, 9)]
        );
    }

    #[test]
    fn prp_inv_both_orders() {
        let schema = Triple::new(n(5), OWL_INVERSE_OF, n(6));
        assert_eq!(
            run(&PrpInv, &[schema], &[fact(1, 5, 2)]),
            vec![fact(2, 6, 1)]
        );
        assert_eq!(
            run(&PrpInv, &[fact(1, 5, 2)], &[schema]),
            vec![fact(2, 6, 1)]
        );
        // Facts through the *inverse* predicate flip the other way.
        assert_eq!(
            run(&PrpInv, &[schema], &[fact(2, 6, 1)]),
            vec![fact(1, 5, 2)]
        );
    }

    #[test]
    fn prp_symp() {
        let schema = Triple::new(n(5), RDF_TYPE, OWL_SYMMETRIC_PROPERTY);
        assert_eq!(
            run(&PrpSymp, &[schema], &[fact(1, 5, 2)]),
            vec![fact(2, 5, 1)]
        );
        assert_eq!(
            run(&PrpSymp, &[fact(1, 5, 2)], &[schema]),
            vec![fact(2, 5, 1)]
        );
        // Non-symmetric predicates untouched.
        assert!(run(&PrpSymp, &[], &[fact(1, 5, 2)]).is_empty());
    }

    #[test]
    fn prp_trp_single_step() {
        let schema = Triple::new(n(5), RDF_TYPE, OWL_TRANSITIVE_PROPERTY);
        let got = run(&PrpTrp, &[schema, fact(2, 5, 3)], &[fact(1, 5, 2)]);
        assert_eq!(got, vec![fact(1, 5, 3)]);
        // Schema arriving last closes one step over existing pairs.
        let got = run(&PrpTrp, &[fact(1, 5, 2), fact(2, 5, 3)], &[schema]);
        assert_eq!(got, vec![fact(1, 5, 3)]);
    }

    #[test]
    fn prp_fp_derives_same_as() {
        let schema = Triple::new(n(5), RDF_TYPE, OWL_FUNCTIONAL_PROPERTY);
        let got = run(&PrpFp, &[schema, fact(1, 5, 7)], &[fact(1, 5, 8)]);
        assert_eq!(got, vec![same(8, 7)]);
        let got = run(&PrpFp, &[fact(1, 5, 7), fact(1, 5, 8)], &[schema]);
        // Both orientations derived when the schema lands.
        assert_eq!(got, vec![same(7, 8), same(8, 7)]);
    }

    #[test]
    fn prp_ifp_derives_same_as() {
        let schema = Triple::new(n(5), RDF_TYPE, OWL_INVERSE_FUNCTIONAL_PROPERTY);
        let got = run(&PrpIfp, &[schema, fact(7, 5, 1)], &[fact(8, 5, 1)]);
        assert_eq!(got, vec![same(8, 7)]);
    }

    #[test]
    fn scm_eqc_and_eqp() {
        let eqc = Triple::new(n(1), OWL_EQUIVALENT_CLASS, n(2));
        let got = run(&ScmEqc, &[], &[eqc]);
        assert_eq!(
            got,
            vec![
                Triple::new(n(1), RDFS_SUB_CLASS_OF, n(2)),
                Triple::new(n(2), RDFS_SUB_CLASS_OF, n(1)),
            ]
        );
        let eqp = Triple::new(n(1), OWL_EQUIVALENT_PROPERTY, n(2));
        let got = run(&ScmEqp, &[], &[eqp]);
        assert_eq!(
            got,
            vec![
                Triple::new(n(1), RDFS_SUB_PROPERTY_OF, n(2)),
                Triple::new(n(2), RDFS_SUB_PROPERTY_OF, n(1)),
            ]
        );
    }
}
