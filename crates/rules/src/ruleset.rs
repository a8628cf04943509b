//! Rulesets: named collections of rules forming a fragment.

use crate::rule::Rule;
use crate::{rdfs, rdfs_plus, rho_df};
use slider_model::Dictionary;
use std::sync::Arc;

/// The fragments the paper supports natively, plus the RDFS-Plus
/// extension this reproduction adds (the paper's §5 future work).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fragment {
    /// The minimal ρdf fragment (8 rules, Figure 2).
    RhoDf,
    /// Full RDFS (ρdf + 8 structural rules).
    Rdfs,
    /// RDFS-Plus: RDFS + sameAs equality, inverse/symmetric/transitive and
    /// (inverse-)functional properties, class/property equivalence.
    RdfsPlus,
}

impl Fragment {
    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Fragment::RhoDf => "rho-df",
            Fragment::Rdfs => "RDFS",
            Fragment::RdfsPlus => "RDFS-Plus",
        }
    }
}

impl std::fmt::Display for Fragment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A named, ordered collection of rules — the unit the reasoner is
/// initialised with.
#[derive(Clone)]
pub struct Ruleset {
    name: String,
    rules: Vec<Arc<dyn Rule>>,
}

impl Ruleset {
    /// An empty custom ruleset.
    pub fn custom(name: impl Into<String>) -> Self {
        Ruleset {
            name: name.into(),
            rules: Vec::new(),
        }
    }

    /// The ρdf fragment (paper Figure 2: 8 rules).
    pub fn rho_df() -> Self {
        let mut rs = Ruleset::custom("rho-df");
        rho_df::rules().into_iter().for_each(|r| rs.push(r));
        rs
    }

    /// The RDFS fragment: ρdf plus rdfs1, rdfs4a/b, rdfs6/8/10/12/13.
    pub fn rdfs(dict: &Arc<Dictionary>) -> Self {
        let mut rs = Ruleset::rho_df();
        rs.name = "RDFS".to_owned();
        rdfs::rules(dict).into_iter().for_each(|r| rs.push(r));
        rs
    }

    /// The RDFS-Plus fragment: RDFS plus the rule-expressible OWL core.
    pub fn rdfs_plus(dict: &Arc<Dictionary>) -> Self {
        let mut rs = Ruleset::rdfs(dict);
        rs.name = "RDFS-Plus".to_owned();
        rdfs_plus::rules().into_iter().for_each(|r| rs.push(r));
        rs
    }

    /// Builds a native fragment by name.
    pub fn fragment(fragment: Fragment, dict: &Arc<Dictionary>) -> Self {
        match fragment {
            Fragment::RhoDf => Ruleset::rho_df(),
            Fragment::Rdfs => Ruleset::rdfs(dict),
            Fragment::RdfsPlus => Ruleset::rdfs_plus(dict),
        }
    }

    /// Adds a rule (builder-style also available via [`Ruleset::with`]).
    pub fn push<R: Rule + 'static>(&mut self, rule: R) {
        self.rules.push(Arc::new(rule));
    }

    /// Adds an already-shared rule.
    pub fn push_arc(&mut self, rule: Arc<dyn Rule>) {
        self.rules.push(rule);
    }

    /// Builder-style [`Ruleset::push`].
    pub fn with<R: Rule + 'static>(mut self, rule: R) -> Self {
        self.push(rule);
        self
    }

    /// The ruleset name ("rho-df", "RDFS", or custom).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The rules, in declaration order.
    pub fn rules(&self) -> &[Arc<dyn Rule>] {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if the ruleset holds no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Rule names, in order.
    pub fn names(&self) -> Vec<&'static str> {
        self.rules.iter().map(|r| r.name()).collect()
    }

    /// Index of the rule with `name`, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.rules.iter().position(|r| r.name() == name)
    }
}

impl std::fmt::Debug for Ruleset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ruleset")
            .field("name", &self.name)
            .field("rules", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::RuleSpec;
    use slider_model::vocab::*;
    use slider_model::{NodeId, Term, Triple};
    use slider_store::VerticalStore;

    #[test]
    fn rho_df_has_figure2_rules() {
        let rs = Ruleset::rho_df();
        assert_eq!(
            rs.names(),
            vec![
                "CAX-SCO", "SCM-SCO", "SCM-SPO", "SCM-DOM2", "SCM-RNG2", "PRP-DOM", "PRP-RNG",
                "PRP-SPO1"
            ]
        );
        assert_eq!(rs.name(), "rho-df");
    }

    #[test]
    fn rdfs_extends_rho_df() {
        let dict = Arc::new(Dictionary::new());
        let rs = Ruleset::rdfs(&dict);
        assert_eq!(rs.len(), 16);
        assert_eq!(rs.name(), "RDFS");
        let extra = [
            "RDFS1", "RDFS4A", "RDFS4B", "RDFS6", "RDFS8", "RDFS10", "RDFS12", "RDFS13",
        ];
        assert_eq!(rs.names()[..8], Ruleset::rho_df().names()[..]);
        assert_eq!(rs.names()[8..], extra);
    }

    #[test]
    fn index_of() {
        let rs = Ruleset::rho_df();
        assert_eq!(rs.index_of("CAX-SCO"), Some(0));
        assert_eq!(rs.index_of("PRP-SPO1"), Some(7));
        assert_eq!(rs.index_of("NOPE"), None);
    }

    #[test]
    fn fragment_constructor() {
        let dict = Arc::new(Dictionary::new());
        assert_eq!(Ruleset::fragment(Fragment::RhoDf, &dict).len(), 8);
        assert_eq!(Ruleset::fragment(Fragment::Rdfs, &dict).len(), 16);
        assert_eq!(Ruleset::fragment(Fragment::RdfsPlus, &dict).len(), 28);
        assert_eq!(Fragment::RhoDf.name(), "rho-df");
        assert_eq!(Fragment::Rdfs.to_string(), "RDFS");
        assert_eq!(Fragment::RdfsPlus.name(), "RDFS-Plus");
    }

    #[test]
    fn rdfs_plus_extends_rdfs() {
        let dict = Arc::new(Dictionary::new());
        let rs = Ruleset::rdfs_plus(&dict);
        assert_eq!(rs.name(), "RDFS-Plus");
        assert_eq!(rs.names()[..16], Ruleset::rdfs(&dict).names()[..]);
        let extra = [
            "EQ-SYM", "EQ-TRANS", "EQ-REP-S", "EQ-REP-P", "EQ-REP-O", "PRP-INV", "PRP-SYMP",
            "PRP-TRP", "PRP-FP", "PRP-IFP", "SCM-EQC", "SCM-EQP",
        ];
        assert_eq!(rs.names()[16..], extra);
    }

    /// Every built-in rule's backward `derives` — all of RDFS-Plus and
    /// the four family constructors — agrees exactly with one-step
    /// forward `apply` (the whole store as the delta) on every probe of a
    /// grid over the store's nodes and the vocabulary.
    #[test]
    fn derives_matches_one_step_apply() {
        let dict = Arc::new(Dictionary::new());
        let lit = dict.intern(&Term::literal("x"));
        let n = |v: u64| NodeId(1000 + v);
        let (p, is) = (n(5), n(6));
        let fact = |s, o| Triple::new(n(s), p, n(o));
        // A store touching every rule: sco/spo chains, dom/rng schema,
        // typings of the structural classes, a literal, equalities, an
        // inverse, and p typed with every OWL property class.
        let mut store: VerticalStore = [
            Triple::new(n(1), RDFS_SUB_CLASS_OF, n(2)),
            Triple::new(n(2), RDFS_SUB_CLASS_OF, n(3)),
            Triple::new(n(9), RDF_TYPE, n(1)),
            Triple::new(p, RDFS_SUB_PROPERTY_OF, is),
            Triple::new(is, RDFS_SUB_PROPERTY_OF, n(3)),
            Triple::new(n(4), is, n(1)),
            Triple::new(is, RDFS_DOMAIN, n(2)),
            Triple::new(is, RDFS_RANGE, n(3)),
            Triple::new(n(7), p, lit),
            Triple::new(n(4), RDF_TYPE, RDFS_CLASS),
            Triple::new(p, RDF_TYPE, RDF_PROPERTY),
            Triple::new(n(4), RDF_TYPE, RDFS_DATATYPE),
            Triple::new(n(8), RDF_TYPE, RDFS_CONTAINER_MEMBERSHIP_PROPERTY),
            Triple::new(n(7), OWL_SAME_AS, n(8)),
            Triple::new(n(8), OWL_SAME_AS, n(9)),
            Triple::new(p, OWL_SAME_AS, is),
            Triple::new(p, OWL_INVERSE_OF, n(3)),
            Triple::new(n(1), OWL_EQUIVALENT_CLASS, n(4)),
            Triple::new(p, OWL_EQUIVALENT_PROPERTY, n(3)),
        ]
        .into_iter()
        .chain([(7, 8), (8, 9), (1, 9), (2, 9), (1, 2)].map(|(s, o)| fact(s, o)))
        .collect();
        for class in [
            OWL_SYMMETRIC_PROPERTY,
            OWL_TRANSITIVE_PROPERTY,
            OWL_FUNCTIONAL_PROPERTY,
            OWL_INVERSE_FUNCTIONAL_PROPERTY,
        ] {
            store.insert(Triple::new(p, RDF_TYPE, class));
        }
        let all: Vec<Triple> = store.iter().collect();
        let nodes: Vec<NodeId> = (1..10)
            .map(n)
            .chain([lit, RDFS_RESOURCE, RDFS_LITERAL, RDFS_CLASS, RDFS_MEMBER])
            .collect();
        let preds = [
            RDF_TYPE,
            RDFS_SUB_CLASS_OF,
            RDFS_SUB_PROPERTY_OF,
            RDFS_DOMAIN,
            RDFS_RANGE,
            OWL_SAME_AS,
            p,
            is,
            n(3),
        ];

        let mut rules = Ruleset::rdfs_plus(&dict)
            .with(RuleSpec::transitive("T", p))
            .with(RuleSpec::subsumption("S", is, p))
            .with(RuleSpec::domain("D", p, is, n(2)))
            .with(RuleSpec::range("R", p, is, n(3)));
        rules.name = "every built-in".to_owned();
        for rule in rules.rules() {
            let mut out = Vec::new();
            rule.apply(&store, &all, &mut out);
            out.sort_unstable();
            out.dedup();
            let mut hits = 0;
            for &s in &nodes {
                for &p in &preds {
                    for &o in &nodes {
                        let probe = Triple::new(s, p, o);
                        let expected = out.binary_search(&probe).is_ok();
                        hits += usize::from(expected);
                        assert_eq!(
                            rule.derives(&store, probe),
                            expected,
                            "{}: derives disagrees with apply on {probe:?}",
                            rule.name()
                        );
                    }
                }
            }
            assert!(hits > 0, "{}: the grid never fires the rule", rule.name());
        }
    }

    #[test]
    fn every_builtin_is_a_spec() {
        let rs = Ruleset::rdfs_plus(&Arc::new(Dictionary::new()));
        assert_eq!(rs.len(), 28);
        for rule in rs.rules() {
            assert!(rule.spec().is_some(), "{} is not a RuleSpec", rule.name());
        }
    }

    #[test]
    fn custom_builder() {
        let mut rs = Ruleset::custom("mine").with(RuleSpec::transitive("T", NodeId(7)));
        rs.push_arc(Arc::clone(&Ruleset::rho_df().rules()[0]));
        assert_eq!(rs.names(), ["T", "CAX-SCO"]);
        assert_eq!(rs.name(), "mine");
        assert!(!rs.is_empty());
    }
}
