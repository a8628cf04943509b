//! Truth maintenance under retraction: the DRed algorithm.
//!
//! The seed engine is monotone-additive — the paper's Slider only ever
//! *adds* triples, so expiring facts (sensor windows, revoked assertions)
//! would force a full rebuild. This module adds the standard incremental
//! answer, **delete-and-rederive** (DRed, Gupta–Mumick–Subrahmanian):
//!
//! 1. **Overdeletion** — starting from the retracted assertions, delete the
//!    *downward closure* through the rules: every derived triple with at
//!    least one derivation step using a deleted triple as a premise. The
//!    existing semi-naive [`Rule::apply`] does the premise matching: a
//!    round's deletion delta is joined against the store (delta still
//!    present, satisfying the `delta ⊆ store` contract), its conclusions
//!    become the next round's delta, and only *then* is the delta removed.
//!    Explicit triples are never overdeleted — they hold on their own
//!    authority.
//! 2. **Rederivation** — overdeletion overshoots: a deleted triple may have
//!    an alternative derivation from surviving facts. The fast path asks
//!    each rule's backward matcher ([`Rule::derives`]) whether a deleted
//!    triple is one-step derivable from the surviving store, re-inserting
//!    and re-checking until fixpoint — cost proportional to the *deleted*
//!    set, not the store. If any in-scope rule has no backward matcher
//!    (`derives` returns `None` — e.g. the RDFS-Plus extension rules), the
//!    phase falls back to a forward full pass: one semi-naive round with
//!    the surviving store as the delta, then the usual fixpoint on fresh
//!    conclusions. Both paths restore exactly the same triples.
//!
//! Both phases restrict the rules they run: overdeletion to the dependency
//! graph's [`reachable`](slider_rules::DependencyGraph::reachable) set of
//! the rules consuming a retracted predicate — no other rule can have
//! consumed a deleted triple — and rederivation to the rules whose
//! [`OutputSignature`] can emit a deleted predicate — no other rule can
//! rederive a deleted triple.
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

    /// Accumulates `other` into `self` — used to combine the slices of one
    /// budgeted flush into the flush's total.
    pub fn merge(&mut self, other: RemovalOutcome) {
        self.requested += other.requested;
        self.retracted += other.retracted;
        self.ignored_derived += other.ignored_derived;
        self.not_found += other.not_found;
        self.overdeleted += other.overdeleted;
        self.rederived += other.rederived;
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
    // retractions; demote them to derived so the deletion loop below may
    // take them, and seed the first deletion round. The no-ops are
    // reported distinctly: present-but-derived-only vs absent.
    let mut scheduled: FxHashSet<Triple> = FxHashSet::default();
    let mut offered: FxHashSet<Triple> = FxHashSet::default();
    let mut delta: Vec<Triple> = Vec::new();
    for &t in retracted {
        if !offered.insert(t) {
            continue; // duplicate within this request: already classified
        }
        if store.is_explicit(t) {
            scheduled.insert(t);
            store.unmark_explicit(t);
            delta.push(t);
        } else if store.contains(t) {
            outcome.ignored_derived += 1;
        } else {
            outcome.not_found += 1;
        }
    }
    outcome.retracted = delta.len();
    if delta.is_empty() {
        return outcome;
    }

    // Overdeletion scope: only rules transitively reachable from the rules
    // that consume a retracted predicate can have used a deleted triple.
    let seeds: Vec<usize> = delta.iter().flat_map(|t| graph.entry_routes(t.p)).collect();
    let over_rules = graph.reachable(seeds);

    // Phase 1: overdelete. Each round joins the deletion delta against the
    // store *before* removing it (the rules' `delta ⊆ store` contract also
    // covers conclusions of two same-round deletions), then deletes the
    // delta and schedules every conclusion that is still present and not
    // explicit. Termination: each round deletes ≥1 triple from a finite
    // store.
    let mut deleted_preds: FxHashSet<NodeId> = FxHashSet::default();
    let mut out: Vec<Triple> = Vec::new();
    while !delta.is_empty() {
        out.clear();
        for &i in &over_rules {
            rules[i].apply(store, &delta, &mut out);
        }
        for &t in &delta {
            store.remove(t);
            deleted_preds.insert(t.p);
        }
        delta = out
            .iter()
            .copied()
            .filter(|&t| store.contains(t) && !store.is_explicit(t) && scheduled.insert(t))
            .collect();
    }
    outcome.overdeleted = scheduled.len() - outcome.retracted;

    // Rederivation scope: a deleted triple can only be rederived by a rule
    // whose output signature may emit its predicate.
    let rederive_rules: Vec<usize> = (0..rules.len())
        .filter(|&i| match rules[i].output_signature() {
            OutputSignature::Universal => true,
            OutputSignature::Predicates(ps) => ps.iter().any(|p| deleted_preds.contains(p)),
        })
        .collect();

    // Phase 2: rederive (shared with ruleset-swap retraction).
    outcome.rederived = rederive(store, rules, &rederive_rules, &scheduled);
    outcome
}

/// DRed phase 2, shared between [`dred`] and [`retract_rules`]: restores
/// every triple in `scheduled` (the overdeleted set) that still has a
/// derivation from the surviving store, using `rule_indices` into
/// `rules`. Returns how many triples were restored.
fn rederive(
    store: &mut VerticalStore,
    rules: &[Arc<dyn Rule>],
    rule_indices: &[usize],
    scheduled: &FxHashSet<Triple>,
) -> usize {
    if rule_indices.is_empty() || store.is_empty() {
        return 0;
    }
    let mut rederived = 0;
    // Fast path: backward support checks over the deleted set only.
    // A deleted triple with one-step support from the current store is
    // restored; restorations can support further restorations, so
    // passes repeat until nothing changes. If any in-scope rule lacks
    // a backward matcher (`derives` → None) the answer is unknown and
    // we fall back to the forward pass below.
    let mut candidates: Vec<Triple> = scheduled.iter().copied().collect();
    candidates.sort_unstable(); // deterministic restoration order
    let mut need_forward = false;
    while !need_forward {
        let mut restored: Vec<Triple> = Vec::new();
        candidates.retain(|&t| {
            for &i in rule_indices {
                match rules[i].derives(store, t) {
                    Some(true) => {
                        restored.push(t);
                        return false;
                    }
                    Some(false) => {}
                    None => need_forward = true,
                }
            }
            true
        });
        rederived += restored.len();
        for &t in &restored {
            store.insert(t);
        }
        if restored.is_empty() {
            break;
        }
    }
    // Forward fallback: one pass with the whole surviving store as the
    // delta — every one-step-from-survivors conclusion that went
    // missing was overdeleted and comes back — then the usual
    // semi-naive fixpoint on fresh conclusions.
    if need_forward {
        let mut out: Vec<Triple> = Vec::new();
        let mut delta: Vec<Triple> = store.iter().collect();
        let mut fresh: Vec<Triple> = Vec::new();
        loop {
            out.clear();
            for &i in rule_indices {
                rules[i].apply(store, &delta, &mut out);
            }
            fresh.clear();
            store.insert_batch(&out, &mut fresh);
            if fresh.is_empty() {
                break;
            }
            rederived += fresh.len();
            std::mem::swap(&mut delta, &mut fresh);
        }
    }
    rederived
}

/// Ruleset-swap retraction: removes every derivation supported only by
/// the `dropped` rules, leaving the store at the closure of its explicit
/// triples under the `surviving` rules.
///
/// Seeding is backward: in a **closed** store every derived triple has a
/// one-step derivation from facts in the closure, so the derived triples
/// a dropped rule one-step supports *right now* ([`Rule::derives`] →
/// `Some(true)`) are exactly the ones that may owe their presence to it.
/// A dropped rule without a backward matcher (`derives` → `None`) seeds
/// conservatively by output signature — over-seeding is repaired by
/// rederivation, under-seeding never happens. The seeds' downward
/// closure through **all** old rules is then overdeleted (a deletion can
/// undercut conclusions of kept rules too), and the overdeleted set is
/// rederived with the surviving rules only. Returns
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
    // Seed: derived triples a dropped rule one-step supports from the
    // current closure (or might emit, absent a backward matcher).
    let derived: Vec<Triple> = store.iter().filter(|&t| !store.is_explicit(t)).collect();
    let mut scheduled: FxHashSet<Triple> = FxHashSet::default();
    let mut delta: Vec<Triple> = Vec::new();
    for &t in &derived {
        let mut seed = false;
        for rule in dropped {
            match rule.derives(store, t) {
                Some(true) => {
                    seed = true;
                    break;
                }
                Some(false) => {}
                None => {
                    let may_emit = match rule.output_signature() {
                        OutputSignature::Universal => true,
                        OutputSignature::Predicates(ps) => ps.contains(&t.p),
                    };
                    if may_emit {
                        seed = true;
                        break;
                    }
                }
            }
        }
        if seed && scheduled.insert(t) {
            delta.push(t);
        }
    }
    delta.sort_unstable(); // deterministic rounds
    if delta.is_empty() {
        return (0, 0);
    }

    // Overdelete the seeds' downward closure through all old rules, as in
    // [`dred`] phase 1.
    let mut out: Vec<Triple> = Vec::new();
    while !delta.is_empty() {
        out.clear();
        for rule in old_rules {
            rule.apply(store, &delta, &mut out);
        }
        for &t in &delta {
            store.remove(t);
        }
        delta = out
            .iter()
            .copied()
            .filter(|&t| store.contains(t) && !store.is_explicit(t) && scheduled.insert(t))
            .collect();
    }
    let overdeleted = scheduled.len();

    // Rederive with the surviving rules: whatever still has a derivation
    // under the new program comes back.
    let indices: Vec<usize> = (0..surviving.len()).collect();
    let rederived = rederive(store, surviving, &indices, &scheduled);
    (overdeleted, rederived)
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
