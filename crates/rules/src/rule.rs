//! The [`Rule`] trait and rule I/O signatures.

use crate::spec::RuleSpec;
use slider_model::{NodeId, Triple};
use slider_store::{TriplePattern, VerticalStore};

/// Which incoming triples a rule consumes, by predicate.
///
/// The paper routes triples to modules "according to configured rules'
/// predicates" (§2); rules whose body contains an atom with a *variable*
/// predicate (e.g. the `(s p o)` atom of `PRP-DOM`) have **universal
/// input** — they may consume any triple (Figure 2's "Universal Input").
/// The engine routes finer, by [`Rule::joinable`].
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
    /// True if the rule can emit a triple with predicate `p`.
    #[inline]
    pub fn may_emit(&self, p: NodeId) -> bool {
        match self {
            OutputSignature::Universal => true,
            OutputSignature::Predicates(ps) => ps.contains(&p),
        }
    }

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

    /// Which triples this rule consumes, by predicate: the dependency
    /// graph's edges, and the default [`Rule::joinable`] routing.
    fn input_filter(&self) -> InputFilter;

    /// Which predicates this rule's conclusions carry.
    fn output_signature(&self) -> OutputSignature;

    /// Semi-naive application: join `delta` (new triples, already in
    /// `store`) against `store` in both directions, appending conclusions
    /// to `out`. Conclusions may repeat; the distributor deduplicates
    /// against the store.
    fn apply(&self, store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>);

    /// Backward support check, which DRed rederivation and ruleset swaps
    /// use: is `t` derivable by this rule **in one step** from premises
    /// currently in `store`?
    ///
    /// The answer must agree exactly with [`Rule::apply`]: `t` is one-step
    /// derivable iff applying the rule with the full store as the delta
    /// could emit `t`. `t` itself need not be in the store (the
    /// maintenance subsystem asks about triples it just deleted). Every
    /// rule implements this: a [`RuleSpec`] derives it from its clauses
    /// and guards, and a hand-written rule must implement it by hand.
    fn derives(&self, store: &VerticalStore, t: Triple) -> bool;

    /// Which triples an instance could join against `store` as it stands,
    /// as constant patterns appended to `out`: the engine buffers for this
    /// rule only the triples that match one. The default routes by
    /// predicate, from [`Rule::input_filter`].
    ///
    /// The contract: for any body solution, whichever member is inserted
    /// last matches a pattern given for every store that holds the whole
    /// solution. The engine asks right after inserting the triples it
    /// routes, under one shared read, so the last member's join reads the
    /// rest of the solution from the store and no conclusion is lost.
    /// (Asked before the insert, two racing inserts could each miss the
    /// other's triple.) A [`RuleSpec`] gives the constants of each body
    /// atom whose other atoms' constant predicates all have a partition
    /// ([`VerticalStore::table`]), so `(p domain c), (x p y)` takes only
    /// domain triples while no domain triple is stored.
    fn joinable(&self, store: &VerticalStore, out: &mut Vec<TriplePattern>) {
        let _ = store;
        match self.input_filter() {
            InputFilter::Universal => out.push(TriplePattern::ANY),
            InputFilter::Predicates(ps) => out.extend(ps.into_iter().map(TriplePattern::with_p)),
        }
    }

    /// `Some(p)` if this rule is exactly `(x p y), (y p z) ⊢ (x p z)`:
    /// it reads and writes only `p` triples and derives nothing else.
    ///
    /// The concurrent engine then evaluates the module as an incremental
    /// transitive closure instead of calling [`Rule::apply`]: its
    /// instances run one at a time, and each non-reflexive delta edge
    /// `(a, b)` emits `({a} ∪ anc(a)) × ({b} ∪ desc(b))` at once, read
    /// from the store, and inserts it before the next edge is read. A
    /// chain of `n` edges (the paper's Equation 1) then costs O(n²)
    /// derivations instead of O(n³). The module no longer feeds itself;
    /// every `p` triple it did not emit still reaches it. `apply` and
    /// `derives` keep their one-step meaning, which DRed, ruleset swaps
    /// and the batch baselines use. Default `None`: a rule with any
    /// other head or body must not claim this.
    fn transitive_predicate(&self) -> Option<NodeId> {
        None
    }

    /// The rule's declarative form, if it is a [`RuleSpec`]. Default `None`:
    /// a hand-written rule.
    fn spec(&self) -> Option<&RuleSpec> {
        None
    }
}

impl dyn Rule {
    /// Rule identity, as ruleset swaps judge it: two [`RuleSpec`]s are the
    /// same rule iff they are structurally equal (name, definition, clauses
    /// with their constants, guards); two hand-written rules iff their name
    /// and definition are; a spec never equals a hand-written rule.
    pub fn same_rule(&self, other: &dyn Rule) -> bool {
        match (self.spec(), other.spec()) {
            (Some(a), Some(b)) => a == b,
            (None, None) => (self.name(), self.definition()) == (other.name(), other.definition()),
            _ => false,
        }
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
