//! The [`Rule`] trait and rule I/O signatures.

use slider_model::{NodeId, Triple};
use slider_store::VerticalStore;

/// Which incoming triples a rule's buffer accepts.
///
/// The paper routes triples to modules "according to configured rules'
/// predicates" (§2); rules whose body contains an atom with a *variable*
/// predicate (e.g. the `(s p o)` atom of `PRP-DOM`) have **universal
/// input** — they must see every triple (Figure 2's "Universal Input").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InputFilter {
    /// The rule must see every triple.
    Universal,
    /// The rule only consumes triples whose predicate is in the list.
    Predicates(Vec<NodeId>),
}

impl InputFilter {
    /// True if a triple with predicate `p` is relevant to the rule.
    #[inline]
    pub fn accepts_predicate(&self, p: NodeId) -> bool {
        match self {
            InputFilter::Universal => true,
            InputFilter::Predicates(ps) => ps.contains(&p),
        }
    }

    /// True if `t` is relevant to the rule.
    #[inline]
    pub fn accepts(&self, t: Triple) -> bool {
        self.accepts_predicate(t.p)
    }
}

/// Which predicates a rule's conclusions can carry.
///
/// Used to build the [`DependencyGraph`](crate::DependencyGraph): rule `A`
/// feeds rule `B` iff some predicate `A` can emit is accepted by `B`'s
/// input filter. `PRP-SPO1` emits a *variable* predicate (the super
/// property), so its output signature is universal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutputSignature {
    /// The rule can emit triples with any predicate.
    Universal,
    /// The rule only emits triples whose predicate is in the list.
    Predicates(Vec<NodeId>),
}

impl OutputSignature {
    /// True if output with this signature can be consumed by `filter`.
    pub fn may_feed(&self, filter: &InputFilter) -> bool {
        match (self, filter) {
            (_, InputFilter::Universal) => true,
            (OutputSignature::Universal, _) => true,
            (OutputSignature::Predicates(outs), InputFilter::Predicates(ins)) => {
                outs.iter().any(|p| ins.contains(p))
            }
        }
    }
}

/// One inference rule — the unit the reasoner maps to a module (§2).
///
/// Implementations must be `Send + Sync`: the thread pool runs many
/// instances of the same rule concurrently against the store, read under
/// a shared lock.
pub trait Rule: Send + Sync {
    /// Rule name as used in the paper/figures (e.g. `"CAX-SCO"`).
    fn name(&self) -> &'static str;

    /// Human-readable `body ⊢ head` form, for docs/demo UI.
    fn definition(&self) -> &'static str;

    /// Which triples this rule's buffer accepts.
    fn input_filter(&self) -> InputFilter;

    /// Which predicates this rule's conclusions carry.
    fn output_signature(&self) -> OutputSignature;

    /// Semi-naive application: join `delta` (new triples, already in
    /// `store`) against `store` in both directions, appending conclusions
    /// to `out`. Conclusions may repeat; the distributor deduplicates
    /// against the store.
    fn apply(&self, store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>);

    /// Backward support check — the optional fast path for DRed
    /// rederivation: is `t` derivable by this rule **in one step** from
    /// premises currently in `store`?
    ///
    /// `Some(_)` answers must agree exactly with [`Rule::apply`]: `t` is
    /// one-step derivable iff applying the rule with the full store as the
    /// delta could emit `t`. `t` itself need not be in the store (the
    /// maintenance subsystem asks about triples it just deleted). The
    /// default `None` means "no backward matcher"; maintenance then falls
    /// back to a forward full-store pass — sound for any rule, just
    /// slower. All built-in ρdf and RDFS rules implement this.
    fn derives(&self, store: &VerticalStore, t: Triple) -> Option<bool> {
        let _ = (store, t);
        None
    }
}

impl std::fmt::Debug for dyn Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Rule({})", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> NodeId {
        NodeId(v)
    }

    #[test]
    fn input_filter_accepts() {
        let f = InputFilter::Predicates(vec![n(1), n(2)]);
        assert!(f.accepts_predicate(n(1)));
        assert!(!f.accepts_predicate(n(3)));
        assert!(InputFilter::Universal.accepts_predicate(n(3)));
        assert!(f.accepts(Triple::new(n(9), n(2), n(9))));
        assert!(!f.accepts(Triple::new(n(9), n(9), n(9))));
    }

    #[test]
    fn output_feeding() {
        let out_ab = OutputSignature::Predicates(vec![n(1), n(2)]);
        let in_bc = InputFilter::Predicates(vec![n(2), n(3)]);
        let in_cd = InputFilter::Predicates(vec![n(3), n(4)]);
        assert!(out_ab.may_feed(&in_bc));
        assert!(!out_ab.may_feed(&in_cd));
        assert!(out_ab.may_feed(&InputFilter::Universal));
        assert!(OutputSignature::Universal.may_feed(&in_cd));
        assert!(OutputSignature::Universal.may_feed(&InputFilter::Universal));
    }
}
