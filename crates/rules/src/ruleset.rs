//! Rulesets: named collections of rules forming a fragment.

use crate::rdfs::{Rdfs1, Rdfs10, Rdfs12, Rdfs13, Rdfs4a, Rdfs4b, Rdfs6, Rdfs8};
use crate::rho_df::{CaxSco, PrpDom, PrpRng, PrpSpo1, ScmDom2, ScmRng2, ScmSco, ScmSpo};
use crate::rule::Rule;
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

/// Options for the RDFS fragment (see `rdfs` module docs for the
/// generalised-RDF notes).
#[derive(Debug, Clone, Copy)]
pub struct RdfsConfig {
    /// Enable rdfs1 (`(x p l) ⊢ (l type Literal)`, generalised). Default on.
    pub literal_typing: bool,
    /// Enable rdfs4a/rdfs4b (`type Resource` for subjects/objects).
    /// Default on — this is what makes RDFS closures so much larger than
    /// ρdf in Table 1.
    pub resource_typing: bool,
    /// rdfs4b also types literal objects (generalised RDF). Default off.
    pub type_literal_objects: bool,
    /// Enable the class/property structural rules rdfs6/8/10/12/13.
    /// Default on.
    pub structural_rules: bool,
}

impl Default for RdfsConfig {
    fn default() -> Self {
        RdfsConfig {
            literal_typing: true,
            resource_typing: true,
            type_literal_objects: false,
            structural_rules: true,
        }
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
        rs.push(CaxSco);
        rs.push(ScmSco);
        rs.push(ScmSpo);
        rs.push(ScmDom2);
        rs.push(ScmRng2);
        rs.push(PrpDom);
        rs.push(PrpRng);
        rs.push(PrpSpo1);
        rs
    }

    /// The RDFS fragment with default options.
    pub fn rdfs(dict: &Arc<Dictionary>) -> Self {
        Ruleset::rdfs_with(dict, RdfsConfig::default())
    }

    /// The RDFS fragment with explicit options.
    pub fn rdfs_with(dict: &Arc<Dictionary>, config: RdfsConfig) -> Self {
        let mut rs = Ruleset::rho_df();
        rs.name = "RDFS".to_owned();
        if config.literal_typing {
            rs.push(Rdfs1::new(Arc::clone(dict)));
        }
        if config.resource_typing {
            rs.push(Rdfs4a);
            if config.type_literal_objects {
                rs.push(Rdfs4b::with_literals(Arc::clone(dict)));
            } else {
                rs.push(Rdfs4b::new(Arc::clone(dict)));
            }
        }
        if config.structural_rules {
            rs.push(Rdfs6);
            rs.push(Rdfs8);
            rs.push(Rdfs10);
            rs.push(Rdfs12);
            rs.push(Rdfs13);
        }
        rs
    }

    /// The RDFS-Plus fragment: RDFS plus the rule-expressible OWL core.
    pub fn rdfs_plus(dict: &Arc<Dictionary>) -> Self {
        use crate::rdfs_plus::*;
        let mut rs = Ruleset::rdfs(dict);
        rs.name = "RDFS-Plus".to_owned();
        rs.push(EqSym);
        rs.push(EqTrans);
        rs.push(EqRepS);
        rs.push(EqRepP);
        rs.push(EqRepO);
        rs.push(PrpInv);
        rs.push(PrpSymp);
        rs.push(PrpTrp);
        rs.push(PrpFp);
        rs.push(PrpIfp);
        rs.push(ScmEqc);
        rs.push(ScmEqp);
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
        for rho in Ruleset::rho_df().names() {
            assert!(rs.names().contains(&rho), "missing {rho}");
        }
        for extra in [
            "RDFS1", "RDFS4A", "RDFS4B", "RDFS6", "RDFS8", "RDFS10", "RDFS12", "RDFS13",
        ] {
            assert!(rs.names().contains(&extra), "missing {extra}");
        }
    }

    #[test]
    fn rdfs_config_toggles() {
        let dict = Arc::new(Dictionary::new());
        let slim = Ruleset::rdfs_with(
            &dict,
            RdfsConfig {
                literal_typing: false,
                resource_typing: false,
                type_literal_objects: false,
                structural_rules: false,
            },
        );
        assert_eq!(slim.len(), 8); // just ρdf
        let no_structural = Ruleset::rdfs_with(
            &dict,
            RdfsConfig {
                structural_rules: false,
                ..RdfsConfig::default()
            },
        );
        assert_eq!(no_structural.len(), 11);
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
        for base in Ruleset::rdfs(&dict).names() {
            assert!(rs.names().contains(&base), "missing {base}");
        }
        for extra in [
            "EQ-SYM", "EQ-TRANS", "EQ-REP-S", "EQ-REP-P", "EQ-REP-O", "PRP-INV", "PRP-SYMP",
            "PRP-TRP", "PRP-FP", "PRP-IFP", "SCM-EQC", "SCM-EQP",
        ] {
            assert!(rs.names().contains(&extra), "missing {extra}");
        }
    }

    /// Every built-in ρdf/RDFS rule implements the backward `derives`
    /// check, and it agrees exactly with one-step forward `apply` over an
    /// exhaustive probe universe.
    #[test]
    fn derives_matches_one_step_apply() {
        use slider_model::vocab::{
            RDFS_CLASS, RDFS_DATATYPE, RDFS_DOMAIN, RDFS_LITERAL, RDFS_RANGE, RDFS_RESOURCE,
            RDFS_SUB_CLASS_OF, RDFS_SUB_PROPERTY_OF, RDF_PROPERTY, RDF_TYPE,
        };
        use slider_model::{NodeId, Term, Triple};
        use slider_store::VerticalStore;

        let dict = Arc::new(Dictionary::new());
        let lit = dict.intern(&Term::literal("x"));
        let n = |v: u64| NodeId(1000 + v);
        // A store touching every rule: sco/spo chains, dom/rng schema, an
        // instance fact, typings of the structural classes, a literal.
        let store: VerticalStore = [
            Triple::new(n(1), RDFS_SUB_CLASS_OF, n(2)),
            Triple::new(n(2), RDFS_SUB_CLASS_OF, n(3)),
            Triple::new(n(9), RDF_TYPE, n(1)),
            Triple::new(n(5), RDFS_SUB_PROPERTY_OF, n(6)),
            Triple::new(n(6), RDFS_DOMAIN, n(2)),
            Triple::new(n(6), RDFS_RANGE, n(3)),
            Triple::new(n(7), n(5), n(8)),
            Triple::new(n(7), n(5), lit),
            Triple::new(n(4), RDF_TYPE, RDFS_CLASS),
            Triple::new(n(5), RDF_TYPE, RDF_PROPERTY),
            Triple::new(n(4), RDF_TYPE, RDFS_DATATYPE),
        ]
        .into_iter()
        .collect();
        let all: Vec<Triple> = store.iter().collect();

        // Probe universe: every (s, p, o) over the mentioned nodes and the
        // vocabulary constants.
        let nodes: Vec<NodeId> = (1..10)
            .map(n)
            .chain([
                lit,
                RDFS_RESOURCE,
                RDFS_LITERAL,
                RDFS_CLASS,
                RDF_PROPERTY,
                RDFS_MEMBER_PROBE,
            ])
            .collect();
        let preds = [
            RDF_TYPE,
            RDFS_SUB_CLASS_OF,
            RDFS_SUB_PROPERTY_OF,
            RDFS_DOMAIN,
            RDFS_RANGE,
            n(5),
            n(6),
        ];

        for ruleset in [Ruleset::rho_df(), Ruleset::rdfs(&dict)] {
            for rule in ruleset.rules() {
                let mut out = Vec::new();
                rule.apply(&store, &all, &mut out);
                out.sort_unstable();
                out.dedup();
                for &s in &nodes {
                    for &p in &preds {
                        for &o in &nodes {
                            let probe = Triple::new(s, p, o);
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
    }

    /// Placeholder node so the probe grid also covers rdfs12's member
    /// object without colliding with the data nodes.
    const RDFS_MEMBER_PROBE: slider_model::NodeId = slider_model::vocab::RDFS_MEMBER;

    #[test]
    fn rdfs_plus_rules_have_no_backward_matcher_yet() {
        let dict = Arc::new(Dictionary::new());
        let store = slider_store::VerticalStore::new();
        let probe = slider_model::Triple::new(
            slider_model::NodeId(1),
            slider_model::NodeId(2),
            slider_model::NodeId(3),
        );
        // The RDFS-Plus extension rules fall back to the forward pass.
        let rs = Ruleset::rdfs_plus(&dict);
        let eq_sym = &rs.rules()[rs.index_of("EQ-SYM").unwrap()];
        assert_eq!(eq_sym.derives(&store, probe), None);
    }

    #[test]
    fn custom_builder() {
        let rs = Ruleset::custom("mine").with(CaxSco).with(ScmSco);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.name(), "mine");
        assert!(!rs.is_empty());
    }
}
