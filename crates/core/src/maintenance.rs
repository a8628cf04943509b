//! Truth maintenance under retraction: the DRed algorithm.
//!
//! The seed engine is monotone-additive — the paper's Slider only ever
//! *adds* triples, so expiring facts (sensor windows, revoked assertions)
//! would force a full rebuild. This module adds the standard incremental
//! answer, **delete-and-rederive** (DRed, Gupta–Mumick–Subrahmanian), as
//! one core that both a retraction (`dred`) and a ruleset swap
//! (`retract_rules`) run on their own seeds:
//!
//! 1. **Overdeletion** — starting from the seeds, delete the *downward
//!    closure* through the rules: every derived triple with at least one
//!    derivation step using a deleted triple as a premise. The existing
//!    semi-naive [`Rule::apply`] does the premise matching: a round's
//!    deletion delta is joined against the store (delta still present,
//!    satisfying the `delta ⊆ store` contract), its conclusions become the
//!    next round's delta, and only *then* is the delta removed. Explicit
//!    triples are never overdeleted — they hold on their own authority.
//! 2. **Rederivation** — overdeletion overshoots: a deleted triple may have
//!    an alternative derivation from surviving facts. Each rule's backward
//!    matcher ([`Rule::derives`], which every rule implements) says whether
//!    a deleted triple is one-step derivable from the surviving store, and
//!    those are restored; then one semi-naive step per round over the
//!    triples just restored brings back the deleted ones they support,
//!    until none are left — cost proportional to the *deleted* set, not
//!    the store.
//!
//! Both phases restrict the rules they run: overdeletion to the dependency
//! graph's [`reachable`](slider_rules::DependencyGraph::reachable) set of
//! the rules consuming a retracted predicate — no other rule can have
//! consumed a deleted triple — and rederivation to the rules whose
//! [`OutputSignature`] can emit a deleted predicate — no other rule can
//! restore a deleted triple.
//!
//! The result invariant, asserted by `tests/retraction.rs` against the
//! recompute-from-scratch oracle: after maintenance the store equals the
//! semi-naive closure of the surviving explicit triples.

use slider_model::{FxHashSet, NodeId, Triple};
use slider_rules::{DependencyGraph, OutputSignature, Rule};
use slider_store::VerticalStore;
use std::sync::Arc;

/// Counters of one maintenance (retraction) run.
///
/// Every *distinct* offered triple lands in exactly one of
/// [`retracted`](RemovalOutcome::retracted),
/// [`ignored_derived`](RemovalOutcome::ignored_derived) or
/// [`not_found`](RemovalOutcome::not_found); duplicate offers within one
/// call only inflate [`requested`](RemovalOutcome::requested).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemovalOutcome {
    /// Triples offered for removal (including duplicates within the call).
    pub requested: usize,
    /// Explicit triples actually retracted (present + asserted). Offering a
    /// derived or absent triple is a no-op and does not count.
    pub retracted: usize,
    /// Offered triples that were present but **derived-only**: not
    /// assertions, so there was nothing to retract — the no-op the facade
    /// documents (a derived fact would be rederived anyway). Distinct from
    /// [`not_found`](RemovalOutcome::not_found).
    pub ignored_derived: usize,
    /// Offered triples absent from the store altogether.
    pub not_found: usize,
    /// Derived triples deleted during overdeletion, beyond the retracted
    /// assertions themselves. Some may have been restored again — see
    /// [`RemovalOutcome::rederived`].
    pub overdeleted: usize,
    /// Overdeleted triples restored by rederivation (they had a derivation
    /// from surviving facts).
    pub rederived: usize,
}

impl RemovalOutcome {
    /// Net store shrinkage caused by this run.
    pub fn net_deleted(&self) -> usize {
        self.retracted + self.overdeleted - self.rederived
    }
}

/// Runs DRed on `store`: retracts `retracted`, overdeletes the downward
/// closure, rederives survivors. The caller must hold exclusive access
/// (the reasoner passes the store behind its write lock) and guarantee the
/// store is a closed state (quiescent — no in-flight rule instances).
pub(crate) fn dred(
    store: &mut VerticalStore,
    rules: &[Arc<dyn Rule>],
    graph: &DependencyGraph,
    retracted: &[Triple],
) -> RemovalOutcome {
    let mut outcome = RemovalOutcome {
        requested: retracted.len(),
        ..RemovalOutcome::default()
    };

    // Only triples that are present *and* explicit are genuine
    // retractions; demote them to derived so overdeletion may take them.
    // The no-ops are reported distinctly: present-but-derived-only vs
    // absent.
    let mut offered: FxHashSet<Triple> = FxHashSet::default();
    let mut seeds: Vec<Triple> = Vec::new();
    for &t in retracted {
        if !offered.insert(t) {
            continue; // duplicate within this request: already classified
        }
        if store.is_explicit(t) {
            store.unmark_explicit(t);
            seeds.push(t);
        } else if store.contains(t) {
            outcome.ignored_derived += 1;
        } else {
            outcome.not_found += 1;
        }
    }
    outcome.retracted = seeds.len();
    if seeds.is_empty() {
        return outcome;
    }

    // Overdeletion scope: only rules transitively reachable from the rules
    // that consume a retracted predicate can have used a deleted triple.
    let over: Vec<Arc<dyn Rule>> = graph
        .reachable(seeds.iter().flat_map(|t| graph.entry_routes(t.p)))
        .into_iter()
        .map(|i| Arc::clone(&rules[i]))
        .collect();
    let (deleted, rederived) = delete_and_rederive(store, &over, rules, seeds);
    outcome.overdeleted = deleted - outcome.retracted;
    outcome.rederived = rederived;
    outcome
}

/// Ruleset-swap retraction: removes every derivation supported only by
/// the `dropped` rules, leaving the store at the closure of its explicit
/// triples under the `surviving` rules.
///
/// Seeding is backward: in a **closed** store every derived triple has a
/// one-step derivation from facts in the closure, so the derived triples
/// a dropped rule one-step supports *right now* ([`Rule::derives`]) are
/// exactly the ones that may owe their presence to it. The seeds'
/// downward closure through **all** old rules is then overdeleted (a
/// deletion can undercut conclusions of kept rules too), and the
/// overdeleted set is rederived with the surviving rules only. Returns
/// `(overdeleted, rederived)` — `overdeleted` includes the seeds.
///
/// The caller holds the store exclusively and guarantees quiescence,
/// exactly as for [`dred`].
pub(crate) fn retract_rules(
    store: &mut VerticalStore,
    old_rules: &[Arc<dyn Rule>],
    dropped: &[Arc<dyn Rule>],
    surviving: &[Arc<dyn Rule>],
) -> (usize, usize) {
    let mut seeds: Vec<Triple> = store
        .iter()
        .filter(|&t| !store.is_explicit(t) && dropped.iter().any(|r| r.derives(store, t)))
        .collect();
    seeds.sort_unstable(); // deterministic rounds
    delete_and_rederive(store, old_rules, surviving, seeds)
}

/// The DRed core under [`dred`] and [`retract_rules`]: overdeletes the
/// downward closure of `seeds` (derived triples, each still in `store`)
/// through the `over` rules, then restores every deleted triple that
/// still has a derivation under the `rederive_with` rules. Returns
/// `(deleted, rederived)`, `deleted` counting the seeds.
fn delete_and_rederive(
    store: &mut VerticalStore,
    over: &[Arc<dyn Rule>],
    rederive_with: &[Arc<dyn Rule>],
    seeds: Vec<Triple>,
) -> (usize, usize) {
    // Phase 1: overdelete. Each round joins the deletion delta against the
    // store *before* removing it (the rules' `delta ⊆ store` contract also
    // covers conclusions of two same-round deletions), then deletes the
    // delta and schedules every conclusion that is still present and not
    // explicit. Termination: each round deletes ≥1 triple from a finite
    // store.
    let mut deleted: FxHashSet<Triple> = seeds.iter().copied().collect();
    let mut deleted_preds: FxHashSet<NodeId> = FxHashSet::default();
    let mut delta = seeds;
    let mut out: Vec<Triple> = Vec::new();
    while !delta.is_empty() {
        out.clear();
        for rule in over {
            rule.apply(store, &delta, &mut out);
        }
        for &t in &delta {
            store.remove(t);
            deleted_preds.insert(t.p);
        }
        delta = out
            .iter()
            .copied()
            .filter(|&t| store.contains(t) && !store.is_explicit(t) && deleted.insert(t))
            .collect();
    }
    let total = deleted.len();

    // Phase 2: rederive, with the rules whose output signature may emit a
    // deleted predicate — no other rule can restore a deleted triple.
    let rules: Vec<&Arc<dyn Rule>> = rederive_with
        .iter()
        .filter(|r| match r.output_signature() {
            OutputSignature::Universal => true,
            OutputSignature::Predicates(ps) => ps.iter().any(|p| deleted_preds.contains(p)),
        })
        .collect();
    // First a backward support check over the deleted set: a triple with
    // one-step support from the surviving store comes back.
    let mut restored: Vec<Triple> = deleted
        .iter()
        .copied()
        .filter(|&t| rules.iter().any(|r| r.derives(store, t)))
        .collect();
    restored.sort_unstable(); // deterministic restoration order
    for t in &restored {
        deleted.remove(t);
    }
    // Then forward from the restorations: a triple the check left is
    // derivable now only through a triple restored since, so one
    // semi-naive step over the last restorations finds exactly the next
    // ones, until none are left. `out` still holds phase 1's last
    // conclusions, so each round starts it empty.
    while !restored.is_empty() {
        for &t in &restored {
            store.insert(t);
        }
        if deleted.is_empty() {
            break;
        }
        out.clear();
        for rule in &rules {
            rule.apply(store, &restored, &mut out);
        }
        restored.clear();
        restored.extend(out.iter().copied().filter(|t| deleted.remove(t)));
    }
    (total, total - deleted.len())
}

/// Ruleset-swap evaluation of newly `added` rules over a closed store:
/// round 0 feeds the whole store as the added rules' delta (everything is
/// "new input" to a rule that has never run), then the usual semi-naive
/// fixpoint over **all** rules on fresh conclusions — a new conclusion
/// can trigger kept rules too. Returns how many triples were inferred.
///
/// The caller holds the store exclusively and guarantees quiescence.
pub(crate) fn evaluate_added(
    store: &mut VerticalStore,
    all_rules: &[Arc<dyn Rule>],
    added: &[Arc<dyn Rule>],
) -> usize {
    let mut inferred = 0;
    let mut out: Vec<Triple> = Vec::new();
    let mut fresh: Vec<Triple> = Vec::new();
    let delta0: Vec<Triple> = store.iter().collect();
    for rule in added {
        rule.apply(store, &delta0, &mut out);
    }
    store.insert_batch(&out, &mut fresh);
    inferred += fresh.len();
    let mut delta = std::mem::take(&mut fresh);
    while !delta.is_empty() {
        out.clear();
        for rule in all_rules {
            rule.apply(store, &delta, &mut out);
        }
        fresh.clear();
        store.insert_batch(&out, &mut fresh);
        inferred += fresh.len();
        std::mem::swap(&mut delta, &mut fresh);
    }
    inferred
}

#[cfg(test)]
mod tests {
    use super::*;
    use slider_baseline::closure;
    use slider_model::vocab::{RDFS_DOMAIN, RDFS_SUB_CLASS_OF, RDFS_SUB_PROPERTY_OF, RDF_TYPE};
    use slider_model::NodeId;
    use slider_rules::Ruleset;

    fn n(v: u64) -> NodeId {
        NodeId(1000 + v)
    }
    fn sco(a: u64, b: u64) -> Triple {
        Triple::new(n(a), RDFS_SUB_CLASS_OF, n(b))
    }
    fn ty(a: u64, b: u64) -> Triple {
        Triple::new(n(a), RDF_TYPE, n(b))
    }

    /// Loads `explicit` into a closed store (explicit flags set, closure
    /// materialised as derived triples), mirroring the engine's state.
    fn closed_store(ruleset: &Ruleset, explicit: &[Triple]) -> VerticalStore {
        let mut store = closure(ruleset.clone(), explicit);
        for &t in explicit {
            store.insert_explicit(t);
        }
        store
    }

    fn run(
        ruleset: &Ruleset,
        explicit: &[Triple],
        retract: &[Triple],
    ) -> (VerticalStore, RemovalOutcome) {
        let mut store = closed_store(ruleset, explicit);
        let graph = DependencyGraph::build(ruleset);
        let outcome = dred(&mut store, ruleset.rules(), &graph, retract);
        (store, outcome)
    }

    /// The oracle: closure of the surviving explicit triples.
    fn surviving_closure(
        ruleset: &Ruleset,
        explicit: &[Triple],
        retract: &[Triple],
    ) -> Vec<Triple> {
        let survivors: Vec<Triple> = explicit
            .iter()
            .copied()
            .filter(|t| !retract.contains(t))
            .collect();
        closure(ruleset.clone(), &survivors).to_sorted_vec()
    }

    #[test]
    fn chain_link_removal_drops_exactly_the_lost_paths() {
        let rs = Ruleset::rho_df();
        let explicit: Vec<Triple> = (1..6).map(|i| sco(i, i + 1)).collect();
        let (store, outcome) = run(&rs, &explicit, &[sco(3, 4)]);
        assert_eq!(
            store.to_sorted_vec(),
            surviving_closure(&rs, &explicit, &[sco(3, 4)])
        );
        assert_eq!(outcome.retracted, 1);
        assert!(outcome.overdeleted > 0);
        // A broken chain has no alternative derivations.
        assert_eq!(outcome.rederived, 0);
    }

    #[test]
    fn alternative_derivation_survives_via_rederivation() {
        // Two parallel paths 1→2→4 and 1→3→4: deleting sco(2,4) overdeletes
        // sco(1,4), which the 1→3→4 path rederives.
        let rs = Ruleset::rho_df();
        let explicit = [sco(1, 2), sco(2, 4), sco(1, 3), sco(3, 4)];
        let (store, outcome) = run(&rs, &explicit, &[sco(2, 4)]);
        assert_eq!(
            store.to_sorted_vec(),
            surviving_closure(&rs, &explicit, &[sco(2, 4)])
        );
        assert!(store.contains(sco(1, 4)), "1→3→4 still derives (1 sco 4)");
        assert!(outcome.rederived > 0);
    }

    #[test]
    fn retracting_an_explicit_fact_that_is_also_derivable_demotes_it() {
        let rs = Ruleset::rho_df();
        // sco(1,3) asserted AND derivable from the chain.
        let explicit = [sco(1, 2), sco(2, 3), sco(1, 3)];
        let (store, outcome) = run(&rs, &explicit, &[sco(1, 3)]);
        assert!(store.contains(sco(1, 3)), "still derivable");
        assert!(!store.is_explicit(sco(1, 3)), "no longer asserted");
        assert_eq!(outcome.retracted, 1);
        assert_eq!(
            store.to_sorted_vec(),
            surviving_closure(&rs, &explicit, &[sco(1, 3)])
        );
    }

    #[test]
    fn removing_derived_or_absent_facts_is_a_noop() {
        let rs = Ruleset::rho_df();
        let explicit = [sco(1, 2), sco(2, 3)];
        let before = closed_store(&rs, &explicit).to_sorted_vec();
        // sco(1,3) is derived-only; ty(9,9) is absent.
        let (store, outcome) = run(&rs, &explicit, &[sco(1, 3), ty(9, 9)]);
        assert_eq!(store.to_sorted_vec(), before);
        assert_eq!(outcome.requested, 2);
        assert_eq!(outcome.retracted, 0);
        assert_eq!(outcome.overdeleted, 0);
        // The two no-op flavours are reported distinctly.
        assert_eq!(
            outcome.ignored_derived, 1,
            "sco(1,3) is present but derived"
        );
        assert_eq!(outcome.not_found, 1, "ty(9,9) is absent");
    }

    #[test]
    fn duplicate_offers_classify_once() {
        let rs = Ruleset::rho_df();
        let explicit = [sco(1, 2), sco(2, 3)];
        let retract = [
            sco(1, 2),
            sco(1, 2),
            sco(1, 3),
            sco(1, 3),
            ty(9, 9),
            ty(9, 9),
        ];
        let (_, outcome) = run(&rs, &explicit, &retract);
        assert_eq!(outcome.requested, 6);
        assert_eq!(outcome.retracted, 1);
        assert_eq!(outcome.ignored_derived, 1);
        assert_eq!(outcome.not_found, 1);
    }

    #[test]
    fn cycles_do_not_leave_self_supporting_garbage() {
        let rs = Ruleset::rho_df();
        // a ⊑ b ⊑ a derives the reflexive edges; retracting one direction
        // must tear the whole cycle's derived closure down.
        let explicit = [sco(1, 2), sco(2, 1)];
        let (store, _) = run(&rs, &explicit, &[sco(1, 2)]);
        assert_eq!(
            store.to_sorted_vec(),
            surviving_closure(&rs, &explicit, &[sco(1, 2)])
        );
        assert_eq!(store.to_sorted_vec(), vec![sco(2, 1)]);
    }

    #[test]
    fn mixed_schema_retraction_matches_oracle() {
        let rs = Ruleset::rho_df();
        let spo = |a: u64, b: u64| Triple::new(n(a), RDFS_SUB_PROPERTY_OF, n(b));
        let dom = |a: u64, b: u64| Triple::new(n(a), RDFS_DOMAIN, n(b));
        let explicit = [
            sco(1, 2),
            sco(2, 3),
            ty(9, 1),
            spo(5, 6),
            dom(6, 2),
            Triple::new(n(7), n(5), n(8)),
        ];
        for retract in [
            vec![spo(5, 6)],
            vec![dom(6, 2)],
            vec![ty(9, 1), sco(1, 2)],
            vec![Triple::new(n(7), n(5), n(8))],
        ] {
            let (store, _) = run(&rs, &explicit, &retract);
            assert_eq!(
                store.to_sorted_vec(),
                surviving_closure(&rs, &explicit, &retract),
                "retract {retract:?}"
            );
        }
    }

    #[test]
    fn empty_ruleset_just_deletes() {
        let rs = Ruleset::custom("none");
        let explicit = [ty(1, 2), ty(3, 4)];
        let (store, outcome) = run(&rs, &explicit, &[ty(1, 2)]);
        assert_eq!(store.to_sorted_vec(), vec![ty(3, 4)]);
        assert_eq!(outcome.retracted, 1);
        assert_eq!(outcome.net_deleted(), 1);
    }
}
