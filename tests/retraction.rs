//! The retraction (DRed truth-maintenance) suite: any interleaving of
//! `add_*`/`remove_*` calls must leave the store equal to the from-scratch
//! semi-naive closure of the surviving explicit triples, as computed by
//! the [`RecomputeOracle`] baseline.

use proptest::prelude::*;
use slider::baseline::RecomputeOracle;
use slider::core::EventKind;
use slider::model::vocab::{
    RDFS_DOMAIN, RDFS_RANGE, RDFS_SUB_CLASS_OF, RDFS_SUB_PROPERTY_OF, RDF_TYPE,
};
use slider::prelude::*;
use std::sync::Arc;

fn n(v: u64) -> NodeId {
    NodeId(1000 + v)
}
fn sco(a: u64, b: u64) -> Triple {
    Triple::new(n(a), RDFS_SUB_CLASS_OF, n(b))
}
fn ty(a: u64, b: u64) -> Triple {
    Triple::new(n(a), RDF_TYPE, n(b))
}
fn chain(k: u64) -> Vec<Triple> {
    (1..k).map(|i| sco(i, i + 1)).collect()
}

fn rho_slider(config: SliderConfig) -> Slider {
    Slider::new(Arc::new(Dictionary::new()), Ruleset::rho_df(), config)
}

/// Asserts the DRed invariant: Slider's store == oracle closure.
#[track_caller]
fn assert_matches_oracle(slider: &Slider, oracle: &RecomputeOracle, context: &str) {
    assert_eq!(
        slider.store().to_sorted_vec(),
        oracle.to_sorted_vec(),
        "store diverged from recompute oracle: {context}"
    );
    assert_eq!(
        slider.stats().store.explicit,
        oracle.explicit_len(),
        "explicit count diverged: {context}"
    );
}

#[test]
fn single_link_retraction_on_chain() {
    let input = chain(20);
    let slider = rho_slider(SliderConfig::default());
    slider.materialize(&input);
    let mut oracle = RecomputeOracle::new(Ruleset::rho_df());
    oracle.add(&input);

    slider.remove_triples(&[sco(10, 11)]);
    oracle.remove(&[sco(10, 11)]);
    assert_matches_oracle(&slider, &oracle, "chain minus middle link");
    // The two halves survive: 1→…→10 and 11→…→20.
    assert!(slider.store().contains(sco(1, 10)));
    assert!(slider.store().contains(sco(11, 20)));
    assert!(!slider.store().contains(sco(1, 20)));
}

#[test]
fn alternative_derivations_are_rederived() {
    // Diamond: 1→{2,3}→4 plus an instance typed at the bottom.
    let input = vec![sco(1, 2), sco(2, 4), sco(1, 3), sco(3, 4), ty(9, 1)];
    let slider = rho_slider(SliderConfig::default());
    slider.materialize(&input);
    let mut oracle = RecomputeOracle::new(Ruleset::rho_df());
    oracle.add(&input);

    let outcome = slider.remove_triples_outcome(&[sco(2, 4)]);
    oracle.remove(&[sco(2, 4)]);
    assert_matches_oracle(&slider, &oracle, "diamond minus one side");
    // (1 sco 4) and (9 type 4) survived via the 1→3→4 path…
    assert!(slider.store().contains(sco(1, 4)));
    assert!(slider.store().contains(ty(9, 4)));
    // …which means rederivation actually ran.
    assert!(outcome.rederived > 0, "{outcome:?}");
}

#[test]
fn removing_derived_facts_is_a_noop() {
    let input = chain(6);
    let slider = rho_slider(SliderConfig::default());
    slider.materialize(&input);
    let before = slider.store().to_sorted_vec();
    // sco(1,3) is derived; ty(1,1) absent; both no-ops.
    assert_eq!(slider.remove_triples(&[sco(1, 3), ty(1, 1)]), 0);
    assert_eq!(slider.store().to_sorted_vec(), before);
    assert_eq!(slider.stats().removal_runs, 0);
}

#[test]
fn retracting_everything_empties_the_store() {
    let input = chain(15);
    let slider = rho_slider(SliderConfig::default());
    slider.materialize(&input);
    assert_eq!(slider.remove_triples(&input), input.len());
    assert!(slider.store().is_empty(), "{:?}", slider.store().stats());
    let stats = slider.stats();
    assert_eq!(stats.store.explicit, 0);
    assert_eq!(stats.store.derived, 0);
}

#[test]
fn interleaved_adds_and_removes_match_oracle_at_each_quiescence() {
    let slider = rho_slider(SliderConfig::default());
    let mut oracle = RecomputeOracle::new(Ruleset::rho_df());
    let script: Vec<(bool, Vec<Triple>)> = vec![
        (true, chain(8)),
        (false, vec![sco(3, 4)]),
        (true, vec![ty(9, 1), sco(3, 4)]), // re-add the removed link
        (false, vec![sco(1, 2), sco(7, 8)]),
        (true, vec![sco(20, 1), sco(21, 20)]),
        (false, vec![ty(9, 1)]),
        (false, vec![sco(21, 20), sco(4, 5)]),
    ];
    for (i, (is_add, batch)) in script.iter().enumerate() {
        if *is_add {
            slider.add_triples(batch);
            oracle.add(batch);
        } else {
            slider.remove_triples(batch);
            oracle.remove(batch);
        }
        slider.wait_idle();
        assert_matches_oracle(&slider, &oracle, &format!("script step {i}"));
    }
}

#[test]
fn mixed_schema_removals_match_oracle() {
    let input = vec![
        sco(1, 2),
        sco(2, 3),
        sco(1, 3), // also derivable
        ty(9, 1),
        Triple::new(n(5), RDFS_SUB_PROPERTY_OF, n(6)),
        Triple::new(n(6), RDFS_DOMAIN, n(2)),
        Triple::new(n(6), RDFS_RANGE, n(3)),
        Triple::new(n(7), n(5), n(8)),
    ];
    let removals = [
        vec![Triple::new(n(5), RDFS_SUB_PROPERTY_OF, n(6))],
        vec![sco(1, 3), sco(2, 3)],
        vec![Triple::new(n(7), n(5), n(8)), ty(9, 1)],
    ];
    let slider = rho_slider(SliderConfig::default());
    let mut oracle = RecomputeOracle::new(Ruleset::rho_df());
    slider.materialize(&input);
    oracle.add(&input);
    for (i, batch) in removals.iter().enumerate() {
        slider.remove_triples(batch);
        oracle.remove(batch);
        assert_matches_oracle(&slider, &oracle, &format!("removal {i}"));
    }
}

#[test]
fn rdfs_fragment_retraction_matches_oracle() {
    let dict = Arc::new(Dictionary::new());
    let ruleset = Ruleset::rdfs(&dict);
    let slider = Slider::new(Arc::clone(&dict), ruleset.clone(), SliderConfig::default());
    let mut oracle = RecomputeOracle::new(ruleset);
    let input = vec![
        sco(1, 2),
        sco(2, 3),
        ty(9, 1),
        Triple::new(n(4), n(5), n(6)),
    ];
    slider.materialize(&input);
    oracle.add(&input);
    for removal in [
        vec![sco(2, 3)],
        vec![ty(9, 1)],
        vec![Triple::new(n(4), n(5), n(6))],
    ] {
        slider.remove_triples(&removal);
        oracle.remove(&removal);
        assert_matches_oracle(&slider, &oracle, &format!("RDFS removal {removal:?}"));
    }
}

#[test]
fn remove_terms_resolves_through_the_dictionary() {
    let slider = Slider::fragment(Fragment::RhoDf, SliderConfig::default());
    let sco_t = Term::iri("http://www.w3.org/2000/01/rdf-schema#subClassOf");
    let a = Term::iri("http://e/A");
    let b = Term::iri("http://e/B");
    let c = Term::iri("http://e/C");
    slider.add_terms(&[
        (a.clone(), sco_t.clone(), b.clone()),
        (b.clone(), sco_t.clone(), c.clone()),
    ]);
    slider.wait_idle();
    assert_eq!(slider.store().len(), 3); // + (A sco C)
    assert_eq!(slider.remove_terms(&[(b.clone(), sco_t.clone(), c)]), 1);
    assert_eq!(slider.store().len(), 1);
    // Unknown terms never match (and are not interned).
    let before = slider.dict().len();
    assert_eq!(
        slider.remove_terms(&[(a, sco_t, Term::iri("http://e/Unknown"))]),
        0
    );
    assert_eq!(slider.dict().len(), before);
}

#[test]
fn removal_emits_trace_event_and_counters() {
    let slider = rho_slider(SliderConfig::default().with_trace(true));
    slider.materialize(&chain(10));
    let outcome = slider.remove_triples_outcome(&[sco(5, 6), ty(1, 1)]);
    assert_eq!(outcome.requested, 2);
    assert_eq!(outcome.retracted, 1);
    let events = slider.events().expect("tracing on");
    let removal = events
        .iter()
        .find_map(|e| match e.kind {
            EventKind::Removal {
                requested,
                retracted,
                overdeleted,
                rederived,
                store_size,
            } => Some((requested, retracted, overdeleted, rederived, store_size)),
            _ => None,
        })
        .expect("removal event recorded");
    assert_eq!(removal.0, 2);
    assert_eq!(removal.1, 1);
    assert_eq!(removal.2 as u64, slider.stats().overdeleted);
    assert_eq!(removal.4, slider.store().len());
    // The Display form mentions the removal line.
    assert!(slider.stats().to_string().contains("removals: 1 runs"));
}

#[test]
fn tiny_buffers_and_single_worker_still_maintain_correctly() {
    let config = SliderConfig::default()
        .with_buffer_capacity(1)
        .with_workers(1);
    let slider = rho_slider(config);
    let mut oracle = RecomputeOracle::new(Ruleset::rho_df());
    let input = chain(12);
    slider.materialize(&input);
    oracle.add(&input);
    slider.remove_triples(&[sco(6, 7), sco(2, 3)]);
    oracle.remove(&[sco(6, 7), sco(2, 3)]);
    assert_matches_oracle(&slider, &oracle, "tiny buffers");
}

// ---------- coalesced (deferred) maintenance ---------------------------------

/// A slider whose deferred queue only flushes explicitly (no threshold, no
/// deadline) — the deterministic base for coalescing tests.
fn manual_flush_slider() -> Slider {
    rho_slider(
        SliderConfig::default()
            .with_maintenance_batch(usize::MAX)
            .with_maintenance_max_age(None),
    )
}

#[test]
fn coalesced_flush_equals_eager_removals() {
    // The coalescing invariant: one flush over N deferred batches lands
    // exactly where N eager removals do.
    let input = chain(20);
    let removals = [vec![sco(4, 5)], vec![sco(9, 10)], vec![sco(15, 16)]];

    let eager = rho_slider(SliderConfig::default());
    eager.materialize(&input);
    for batch in &removals {
        eager.remove_triples(batch);
    }

    let deferred = manual_flush_slider();
    deferred.materialize(&input);
    for batch in &removals {
        assert_eq!(deferred.remove_deferred(batch), batch.len());
    }
    // Nothing applied yet: the full closure is still visible.
    assert_eq!(deferred.store().len(), 20 * 19 / 2);
    assert_eq!(deferred.stats().pending_removals, 3);

    let outcome = deferred.flush_maintenance();
    assert_eq!(outcome.requested, 3);
    assert_eq!(outcome.retracted, 3);
    assert_eq!(
        deferred.store().to_sorted_vec(),
        eager.store().to_sorted_vec(),
        "coalesced flush diverged from eager removals"
    );

    let stats = deferred.stats();
    assert_eq!(stats.deferred, 3);
    assert_eq!(stats.pending_removals, 0);
    assert_eq!(stats.coalesced_runs, 1);
    assert_eq!(stats.removal_runs, 1, "one DRed run covered all batches");
    assert_eq!(eager.stats().removal_runs, 3);
    // An empty flush is a no-op.
    assert_eq!(deferred.flush_maintenance(), RemovalOutcome::default());
    assert_eq!(deferred.stats().coalesced_runs, 1);
}

#[test]
fn deferred_duplicates_coalesce_in_the_queue() {
    let slider = manual_flush_slider();
    slider.materialize(&chain(6));
    assert_eq!(slider.remove_deferred(&[sco(2, 3), sco(2, 3)]), 1);
    assert_eq!(slider.remove_deferred(&[sco(2, 3), sco(4, 5)]), 1);
    assert_eq!(slider.stats().pending_removals, 2);
    let outcome = slider.flush_maintenance();
    assert_eq!(outcome.requested, 2);
    assert_eq!(outcome.retracted, 2);
    // Drained triples may be deferred (and flushed) again.
    assert_eq!(slider.remove_deferred(&[sco(2, 3)]), 1);
    assert_eq!(slider.flush_maintenance().retracted, 0, "already gone");
}

#[test]
fn threshold_triggers_coalesced_flush() {
    let slider = rho_slider(
        SliderConfig::default()
            .with_maintenance_batch(3)
            .with_maintenance_max_age(None),
    );
    slider.materialize(&chain(10));
    slider.remove_deferred(&[sco(2, 3)]);
    slider.remove_deferred(&[sco(5, 6)]);
    let stats = slider.stats();
    assert_eq!(stats.pending_removals, 2, "below threshold: still pending");
    assert_eq!(stats.coalesced_runs, 0);
    // The third distinct retraction reaches the threshold and auto-flushes.
    slider.remove_deferred(&[sco(8, 9)]);
    let stats = slider.stats();
    assert_eq!(stats.pending_removals, 0);
    assert_eq!(stats.coalesced_runs, 1);
    assert_eq!(stats.retracted, 3);
    let mut oracle = RecomputeOracle::new(Ruleset::rho_df());
    oracle.add(&chain(10));
    oracle.remove(&[sco(2, 3), sco(5, 6), sco(8, 9)]);
    assert_matches_oracle(&slider, &oracle, "threshold-triggered flush");
}

#[test]
fn max_age_deadline_triggers_flush_from_the_flusher() {
    let slider = rho_slider(
        SliderConfig::default()
            .with_maintenance_batch(usize::MAX)
            .with_maintenance_max_age(Some(std::time::Duration::from_millis(5))),
    );
    slider.materialize(&chain(8));
    slider.remove_deferred(&[sco(3, 4)]);
    // No explicit flush: the flusher thread must apply it via the deadline.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while slider.stats().coalesced_runs == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "deadline flush never fired"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    slider.wait_idle();
    assert_eq!(slider.stats().pending_removals, 0);
    assert!(!slider.store().contains(sco(3, 4)));
    let mut oracle = RecomputeOracle::new(Ruleset::rho_df());
    oracle.add(&chain(8));
    oracle.remove(&[sco(3, 4)]);
    assert_matches_oracle(&slider, &oracle, "deadline-triggered flush");
}

#[test]
fn coalesced_flush_emits_trace_event() {
    let slider = rho_slider(
        SliderConfig::default()
            .with_trace(true)
            .with_maintenance_batch(usize::MAX)
            .with_maintenance_max_age(None),
    );
    slider.materialize(&chain(10));
    slider.remove_deferred(&[sco(3, 4), sco(7, 8)]);
    slider.flush_maintenance();
    let events = slider.events().expect("tracing on");
    let (pending, retracted, store_size) = events
        .iter()
        .find_map(|e| match e.kind {
            EventKind::CoalescedRemoval {
                pending,
                retracted,
                store_size,
                ..
            } => Some((pending, retracted, store_size)),
            _ => None,
        })
        .expect("coalesced removal event recorded");
    assert_eq!(pending, 2);
    assert_eq!(retracted, 2);
    assert_eq!(store_size, slider.store().len());
    // No eager Removal event was logged for the coalesced run.
    assert!(!events
        .iter()
        .any(|e| matches!(e.kind, EventKind::Removal { .. })));
    // The Display form mentions the deferred line.
    assert!(slider.stats().to_string().contains("deferred: 2 enqueued"));
}

/// Regression (the PR 4 headline bugfix): re-asserting a triple while its
/// deferred retraction is pending must CANCEL the retraction. The
/// previously *documented* behaviour — "a triple re-asserted while pending
/// is still retracted by the next flush" — let the store diverge from the
/// closure of the surviving explicit set; that behaviour is the bug.
#[test]
fn re_asserting_while_pending_keeps_the_assertion() {
    let slider = manual_flush_slider();
    let input = chain(12);
    slider.materialize(&input);
    let full = slider.store().to_sorted_vec();
    let mut oracle = RecomputeOracle::new(Ruleset::rho_df());
    oracle.add(&input);

    // Defer two retractions, then re-assert one of them before any flush.
    slider.remove_deferred(&[sco(5, 6), sco(9, 10)]);
    slider.add_triples(&[sco(5, 6)]);
    slider.wait_idle();
    let stats = slider.stats();
    assert_eq!(stats.pending_removals, 1, "sco(5,6) should be cancelled");
    assert_eq!(stats.cancelled_removals, 1);

    let outcome = slider.flush_maintenance();
    assert_eq!(outcome.requested, 1, "only the surviving retraction ran");
    oracle.remove(&[sco(9, 10)]);
    assert_matches_oracle(&slider, &oracle, "flush after re-assertion");
    assert!(slider.store().contains(sco(5, 6)), "re-assertion lost");
    assert!(
        slider.store().contains(sco(1, 6)),
        "its closure survives too"
    );
    assert_ne!(slider.store().to_sorted_vec(), full, "sco(9,10) did go");

    // A cancelled triple can be retracted again later, for real.
    slider.remove_deferred(&[sco(5, 6)]);
    slider.flush_maintenance();
    oracle.remove(&[sco(5, 6)]);
    assert_matches_oracle(&slider, &oracle, "second, un-cancelled deferral");
}

/// Re-assertion of a triple that is *not* pending changes nothing about
/// the pending set (and an add racing nothing pending is free).
#[test]
fn unrelated_assertions_do_not_touch_the_pending_set() {
    let slider = manual_flush_slider();
    slider.materialize(&chain(8));
    slider.remove_deferred(&[sco(3, 4)]);
    slider.add_triples(&[ty(50, 1), sco(20, 21)]);
    slider.wait_idle();
    let stats = slider.stats();
    assert_eq!(stats.pending_removals, 1);
    assert_eq!(stats.cancelled_removals, 0);
}

#[test]
fn outcome_reports_ignored_derived_distinct_from_not_found() {
    let slider = rho_slider(SliderConfig::default());
    slider.materialize(&chain(6));
    // sco(1,3) is derived-only, ty(9,9) absent, sco(2,3) explicit.
    let outcome = slider.remove_triples_outcome(&[sco(1, 3), ty(9, 9), sco(2, 3)]);
    assert_eq!(outcome.requested, 3);
    assert_eq!(outcome.retracted, 1);
    assert_eq!(outcome.ignored_derived, 1);
    assert_eq!(outcome.not_found, 1);
}

// ---------- coalesced flushes across rule families ---------------------------

use slider::rules::{Subsumption, Transitive};

/// Predicates of two independent rule families plus an inert one.
const TRANS_A: NodeId = NodeId(600);
const IS_A: NodeId = NodeId(601);
const TRANS_B: NodeId = NodeId(610);
const IS_B: NodeId = NodeId(611);
const INERT: NodeId = NodeId(666);

/// Two transitive-hierarchy families with disjoint vocabularies — a
/// retraction's downward closure stays inside its family.
fn family_ruleset() -> Ruleset {
    Ruleset::custom("two-families")
        .with(Transitive::new("T-A", TRANS_A))
        .with(Subsumption::new("S-A", IS_A, TRANS_A))
        .with(Transitive::new("T-B", TRANS_B))
        .with(Subsumption::new("S-B", IS_B, TRANS_B))
}

fn family_slider(config: SliderConfig) -> Slider {
    Slider::new(Arc::new(Dictionary::new()), family_ruleset(), config)
}

fn family_input() -> Vec<Triple> {
    let mut input = Vec::new();
    for (trans, is) in [(TRANS_A, IS_A), (TRANS_B, IS_B)] {
        input.extend((1..8).map(|i| Triple::new(n(i), trans, n(i + 1))));
        input.push(Triple::new(n(100), is, n(1)));
        input.push(Triple::new(n(101), is, n(3)));
    }
    input.push(Triple::new(n(200), INERT, n(201)));
    input
}

/// Eager-equality across families: one flush whose pending set spans
/// both families (and the inert predicate) lands exactly where eager
/// removals do.
#[test]
fn multi_family_flush_equals_eager_removals() {
    let input = family_input();
    let removals = [
        Triple::new(n(3), TRANS_A, n(4)),
        Triple::new(n(100), IS_B, n(1)),
        Triple::new(n(5), TRANS_B, n(6)),
        Triple::new(n(200), INERT, n(201)),
    ];

    let eager = family_slider(SliderConfig::default());
    eager.materialize(&input);
    for &t in &removals {
        eager.remove_triples(&[t]);
    }

    let deferred = family_slider(
        SliderConfig::default()
            .with_maintenance_batch(usize::MAX)
            .with_maintenance_max_age(None),
    );
    deferred.materialize(&input);
    deferred.remove_deferred(&removals);
    let outcome = deferred.flush_maintenance();
    assert_eq!(outcome.requested, 4);
    assert_eq!(outcome.retracted, 4);

    assert_eq!(
        deferred.store().to_sorted_vec(),
        eager.store().to_sorted_vec(),
        "multi-family flush diverged from eager removals"
    );
    let stats = deferred.stats();
    assert_eq!(stats.coalesced_runs, 1);
    assert_eq!(
        stats.store.explicit,
        eager.stats().store.explicit,
        "explicit provenance diverged from eager removals"
    );
}

/// One `remove_triples` call whose seeds span both families is one
/// maintenance run and lands on the oracle's closure.
#[test]
fn eager_multi_family_removal_is_one_run_matching_oracle() {
    let input = family_input();
    let slider = family_slider(SliderConfig::default());
    slider.materialize(&input);
    let mut oracle = RecomputeOracle::new(family_ruleset());
    oracle.add(&input);

    let removals = [
        Triple::new(n(100), IS_A, n(1)),
        Triple::new(n(101), IS_B, n(3)),
    ];
    let outcome = slider.remove_triples_outcome(&removals);
    oracle.remove(&removals);
    assert_eq!(outcome.retracted, 2);
    assert_matches_oracle(&slider, &oracle, "eager multi-family removal");

    let stats = slider.stats();
    assert_eq!(stats.removal_runs, 1);
    assert_eq!(stats.coalesced_runs, 0);
}

/// The empty-maintenance fast path: a flush with nothing pending and an
/// eager removal of nothing return the zero outcome WITHOUT taking the
/// store exclusively.
#[test]
fn empty_maintenance_calls_skip_the_store_gate() {
    let slider = manual_flush_slider();
    slider.materialize(&chain(5));
    let before = slider.stats().gate_write_acquisitions;
    assert_eq!(slider.flush_maintenance(), RemovalOutcome::default());
    assert_eq!(slider.remove_triples(&[]), 0);
    let stats = slider.stats();
    assert_eq!(
        stats.gate_write_acquisitions, before,
        "empty maintenance took the store exclusively"
    );
    assert_eq!(stats.removal_runs, 0);
    assert_eq!(stats.coalesced_runs, 0);
}

// ---------- the property test -----------------------------------------------

/// A pool of triples that keeps joins frequent: schema-heavy predicates
/// over a small node universe.
fn pool_triple() -> impl Strategy<Value = Triple> {
    let node = || (0u64..10).prop_map(n);
    (
        node(),
        prop_oneof![
            3 => Just(RDFS_SUB_CLASS_OF),
            2 => Just(RDF_TYPE),
            2 => Just(RDFS_SUB_PROPERTY_OF),
            1 => Just(RDFS_DOMAIN),
            1 => Just(RDFS_RANGE),
            2 => (0u64..3).prop_map(n),
        ],
        node(),
    )
        .prop_map(|(s, p, o)| Triple::new(s, p, o))
}

/// One scripted operation: `true` = add the batch, `false` = remove it.
fn op() -> impl Strategy<Value = (bool, Vec<Triple>)> {
    (
        prop_oneof![2 => Just(true), 1 => Just(false)],
        prop::collection::vec(pool_triple(), 1..8),
    )
}

/// One scripted operation of the deferred-maintenance property tests.
#[derive(Debug, Clone)]
enum DeferredOp {
    /// Feed a batch to the input manager.
    Add(Vec<Triple>),
    /// Enqueue a batch on the maintenance scheduler.
    Defer(Vec<Triple>),
    /// Coalesced flush of everything pending.
    Flush,
}

/// Bursty mix: adds and deferrals dominate, flushes are occasional — so
/// pending retractions pile up across several operations before one
/// coalesced run applies them.
fn deferred_op() -> impl Strategy<Value = DeferredOp> {
    let batch = || prop::collection::vec(pool_triple(), 1..8);
    prop_oneof![
        3 => batch().prop_map(DeferredOp::Add),
        3 => batch().prop_map(DeferredOp::Defer),
        1 => Just(DeferredOp::Flush),
    ]
}

/// Triples over the two independent families' vocabularies plus the inert
/// predicate — one flush can span both families' downward closures.
fn family_triple() -> impl Strategy<Value = Triple> {
    let node = || (0u64..8).prop_map(n);
    (
        node(),
        prop_oneof![
            2 => Just(TRANS_A),
            2 => Just(IS_A),
            2 => Just(TRANS_B),
            2 => Just(IS_B),
            1 => Just(INERT),
        ],
        node(),
    )
        .prop_map(|(s, p, o)| Triple::new(s, p, o))
}

/// The deferred-op mix over the two families' pool.
fn family_op() -> impl Strategy<Value = DeferredOp> {
    let batch = || prop::collection::vec(family_triple(), 1..8);
    prop_oneof![
        3 => batch().prop_map(DeferredOp::Add),
        3 => batch().prop_map(DeferredOp::Defer),
        1 => Just(DeferredOp::Flush),
    ]
}

/// One scripted operation of the mixed eager/deferred property test — the
/// deferred mix plus *eager* removals, which run the same DRed pass.
#[derive(Debug, Clone)]
enum MixedOp {
    Add(Vec<Triple>),
    Remove(Vec<Triple>),
    Defer(Vec<Triple>),
    Flush,
}

fn mixed_op() -> impl Strategy<Value = MixedOp> {
    let batch = || prop::collection::vec(family_triple(), 1..8);
    prop_oneof![
        3 => batch().prop_map(MixedOp::Add),
        2 => batch().prop_map(MixedOp::Remove),
        3 => batch().prop_map(MixedOp::Defer),
        1 => Just(MixedOp::Flush),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The acceptance property: after ANY interleaving of add/remove and
    /// `wait_idle`, the store equals the from-scratch semi-naive closure
    /// of the surviving explicit triples.
    #[test]
    fn random_interleavings_match_recompute_oracle(ops in prop::collection::vec(op(), 1..12)) {
        let slider = rho_slider(SliderConfig::default());
        let mut oracle = RecomputeOracle::new(Ruleset::rho_df());
        for (i, (is_add, batch)) in ops.iter().enumerate() {
            if *is_add {
                slider.add_triples(batch);
                oracle.add(batch);
            } else {
                slider.remove_triples(batch);
                oracle.remove(batch);
            }
            slider.wait_idle();
            prop_assert_eq!(
                slider.store().to_sorted_vec(),
                oracle.to_sorted_vec(),
                "diverged after op {} of {:?}",
                i,
                ops
            );
        }
        // Provenance bookkeeping stayed exact as well.
        prop_assert_eq!(slider.stats().store.explicit, oracle.explicit_len());
    }

    /// The coalescing acceptance property: ANY interleaving of
    /// `add_triples`, `remove_deferred` and `flush_maintenance` (a bursty
    /// shape: deferrals pile up, then one flush applies them all) leaves
    /// the store equal to the from-scratch closure of the surviving
    /// explicit triples — where "surviving" reflects the deferred
    /// semantics: a retraction applies at its *flush*, and a triple
    /// re-added while pending **cancels** the pending retraction (the
    /// pre-PR-4 behaviour — retract it anyway — silently lost the
    /// re-assertion and diverged from the surviving explicit set).
    #[test]
    fn deferred_interleavings_match_recompute_oracle(
        ops in prop::collection::vec(deferred_op(), 1..14),
    ) {
        let slider = rho_slider(
            SliderConfig::default()
                .with_maintenance_batch(usize::MAX)
                .with_maintenance_max_age(None),
        );
        let mut oracle = RecomputeOracle::new(Ruleset::rho_df());
        // The model of the scheduler: distinct pending retractions, FIFO,
        // with re-assertion cancelling.
        let mut pending: Vec<Triple> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                DeferredOp::Add(batch) => {
                    slider.add_triples(batch);
                    oracle.add(batch);
                    // Asserting a pending triple cancels its retraction.
                    pending.retain(|t| !batch.contains(t));
                }
                DeferredOp::Defer(batch) => {
                    slider.remove_deferred(batch);
                    for &t in batch {
                        if !pending.contains(&t) {
                            pending.push(t);
                        }
                    }
                }
                DeferredOp::Flush => {
                    let outcome = slider.flush_maintenance();
                    prop_assert_eq!(outcome.requested, pending.len(), "op {}", i);
                    oracle.remove(&pending);
                    pending.clear();
                }
            }
            slider.wait_idle();
            prop_assert_eq!(slider.stats().pending_removals, pending.len());
            prop_assert_eq!(
                slider.store().to_sorted_vec(),
                oracle.to_sorted_vec(),
                "diverged after op {} of {:?}",
                i,
                ops
            );
        }
        // Drain whatever is still pending; the end state must agree too.
        slider.flush_maintenance();
        oracle.remove(&pending);
        prop_assert_eq!(slider.store().to_sorted_vec(), oracle.to_sorted_vec());
        prop_assert_eq!(slider.stats().store.explicit, oracle.explicit_len());
    }

    /// Same property with the *threshold* trigger live: the model mirrors
    /// the scheduler's rule (auto-flush once ≥ K distinct retractions are
    /// pending after an enqueue).
    #[test]
    fn deferred_threshold_interleavings_match_oracle(
        ops in prop::collection::vec(deferred_op(), 1..12),
    ) {
        const THRESHOLD: usize = 4;
        let slider = rho_slider(
            SliderConfig::default()
                .with_maintenance_batch(THRESHOLD)
                .with_maintenance_max_age(None),
        );
        let mut oracle = RecomputeOracle::new(Ruleset::rho_df());
        let mut pending: Vec<Triple> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                DeferredOp::Add(batch) => {
                    slider.add_triples(batch);
                    oracle.add(batch);
                    // Re-assertion cancels a pending retraction.
                    pending.retain(|t| !batch.contains(t));
                }
                DeferredOp::Defer(batch) => {
                    slider.remove_deferred(batch);
                    for &t in batch {
                        if !pending.contains(&t) {
                            pending.push(t);
                        }
                    }
                    if pending.len() >= THRESHOLD {
                        oracle.remove(&pending);
                        pending.clear();
                    }
                }
                DeferredOp::Flush => {
                    slider.flush_maintenance();
                    oracle.remove(&pending);
                    pending.clear();
                }
            }
            slider.wait_idle();
            prop_assert_eq!(
                slider.store().to_sorted_vec(),
                oracle.to_sorted_vec(),
                "diverged after op {} of {:?}",
                i,
                ops
            );
        }
    }

    /// Over a ruleset of two independent families, ANY interleaving of
    /// adds, deferrals and flushes — including re-assertions of pending
    /// triples — leaves the store at the from-scratch closure of the
    /// surviving explicit set. The triple pool spans both families plus
    /// an inert predicate, so flushes routinely span several downward
    /// closures.
    #[test]
    fn multi_family_deferred_interleavings_match_oracle(
        ops in prop::collection::vec(family_op(), 1..14),
    ) {
        let slider = family_slider(
            SliderConfig::default()
                .with_maintenance_batch(usize::MAX)
                .with_maintenance_max_age(None),
        );
        let mut oracle = RecomputeOracle::new(family_ruleset());
        let mut pending: Vec<Triple> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                DeferredOp::Add(batch) => {
                    slider.add_triples(batch);
                    oracle.add(batch);
                    pending.retain(|t| !batch.contains(t));
                }
                DeferredOp::Defer(batch) => {
                    slider.remove_deferred(batch);
                    for &t in batch {
                        if !pending.contains(&t) {
                            pending.push(t);
                        }
                    }
                }
                DeferredOp::Flush => {
                    let outcome = slider.flush_maintenance();
                    prop_assert_eq!(outcome.requested, pending.len(), "op {}", i);
                    oracle.remove(&pending);
                    pending.clear();
                }
            }
            slider.wait_idle();
            prop_assert_eq!(
                slider.store().to_sorted_vec(),
                oracle.to_sorted_vec(),
                "diverged after op {} of {:?}",
                i,
                ops
            );
        }
        slider.flush_maintenance();
        oracle.remove(&pending);
        prop_assert_eq!(slider.store().to_sorted_vec(), oracle.to_sorted_vec());
        prop_assert_eq!(slider.stats().store.explicit, oracle.explicit_len());
    }

    /// ANY interleaving of adds, *eager* removals, deferrals and flushes
    /// over the two-family ruleset lands at the recompute oracle's
    /// closure.
    #[test]
    fn eager_and_deferred_interleavings_match_recompute_oracle(
        ops in prop::collection::vec(mixed_op(), 1..12),
    ) {
        let slider = family_slider(
            SliderConfig::default()
                .with_maintenance_batch(usize::MAX)
                .with_maintenance_max_age(None),
        );
        let mut oracle = RecomputeOracle::new(family_ruleset());
        let mut pending: Vec<Triple> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                MixedOp::Add(batch) => {
                    slider.add_triples(batch);
                    oracle.add(batch);
                    pending.retain(|t| !batch.contains(t));
                }
                MixedOp::Remove(batch) => {
                    // Eager: applies now; a pending deferral of the same
                    // triple stays queued (and retracts nothing later).
                    slider.remove_triples(batch);
                    oracle.remove(batch);
                }
                MixedOp::Defer(batch) => {
                    slider.remove_deferred(batch);
                    for &t in batch {
                        if !pending.contains(&t) {
                            pending.push(t);
                        }
                    }
                }
                MixedOp::Flush => {
                    let outcome = slider.flush_maintenance();
                    prop_assert_eq!(outcome.requested, pending.len(), "op {}", i);
                    oracle.remove(&pending);
                    pending.clear();
                }
            }
            slider.wait_idle();
            prop_assert_eq!(slider.stats().pending_removals, pending.len());
            prop_assert_eq!(
                slider.store().to_sorted_vec(),
                oracle.to_sorted_vec(),
                "diverged after op {} of {:?}",
                i,
                ops
            );
        }
        slider.flush_maintenance();
        oracle.remove(&pending);
        prop_assert_eq!(slider.store().to_sorted_vec(), oracle.to_sorted_vec());
        prop_assert_eq!(slider.stats().store.explicit, oracle.explicit_len());
    }

    /// Same property under pathological buffering.
    #[test]
    fn random_interleavings_tiny_buffers(ops in prop::collection::vec(op(), 1..8)) {
        let config = SliderConfig::default()
            .with_buffer_capacity(1)
            .with_workers(2);
        let slider = rho_slider(config);
        let mut oracle = RecomputeOracle::new(Ruleset::rho_df());
        for (is_add, batch) in &ops {
            if *is_add {
                slider.add_triples(batch);
                oracle.add(batch);
            } else {
                slider.remove_triples(batch);
                oracle.remove(batch);
            }
        }
        slider.wait_idle();
        prop_assert_eq!(
            slider.store().to_sorted_vec(),
            oracle.to_sorted_vec(),
            "diverged after {:?}",
            ops
        );
    }
}

// ---------- the shared-store property test -----------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The shared-store acceptance property: random add / defer / flush
    /// interleavings over the two-family workload leave the
    /// store identical to the recompute-from-scratch oracle, with the
    /// lock-free length counter in exact agreement.
    #[test]
    fn sharded_store_interleavings_match_recompute_oracle(
        ops in prop::collection::vec(family_op(), 1..12),
    ) {
        let slider = family_slider(
            SliderConfig::default()
                .with_maintenance_batch(usize::MAX)
                .with_maintenance_max_age(None),
        );
        let mut oracle = RecomputeOracle::new(family_ruleset());
        let mut pending: Vec<Triple> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                DeferredOp::Add(batch) => {
                    slider.add_triples(batch);
                    oracle.add(batch);
                    pending.retain(|t| !batch.contains(t));
                }
                DeferredOp::Defer(batch) => {
                    slider.remove_deferred(batch);
                    for &t in batch {
                        if !pending.contains(&t) {
                            pending.push(t);
                        }
                    }
                }
                DeferredOp::Flush => {
                    slider.flush_maintenance();
                    oracle.remove(&pending);
                    pending.clear();
                }
            }
            slider.wait_idle();
            prop_assert_eq!(
                slider.store().to_sorted_vec(),
                oracle.to_sorted_vec(),
                "diverged after op {} of {:?}",
                i,
                ops
            );
        }
        slider.flush_maintenance();
        oracle.remove(&pending);
        prop_assert_eq!(slider.store().to_sorted_vec(), oracle.to_sorted_vec());
        prop_assert_eq!(slider.stats().store.explicit, oracle.explicit_len());
        // The store's lock-free length counter never drifts from
        // the actual table population, whatever the interleaving.
        prop_assert_eq!(slider.store().len(), slider.store().to_sorted_vec().len());
    }
}

/// A pending deferred retraction roots its ids against dictionary
/// sweeps: sweeping between a deferral and its flush must not tombstone
/// the pending triple's ids even when the triple has already left the
/// store — a recycled id could alias the queued retraction at flush time,
/// and the re-assertion-cancels invariant depends on the pending term
/// re-interning to its pending id.
#[test]
fn sweeps_never_recycle_ids_referenced_by_pending_retractions() {
    use slider::model::vocab::ALL;
    let dict = Arc::new(Dictionary::new());
    let slider = Slider::new(
        Arc::clone(&dict),
        Ruleset::rho_df(),
        SliderConfig::default()
            .with_maintenance_batch(usize::MAX)
            .with_maintenance_max_age(None),
    );
    let a = Term::iri("http://example.org/pending/a");
    let b = Term::iri("http://example.org/pending/b");
    let sco = Term::iri(ALL[RDFS_SUB_CLASS_OF.index()]);
    let triple = (a.clone(), sco.clone(), b.clone());
    slider.add_terms(std::slice::from_ref(&triple));
    slider.wait_idle();
    let a_id = dict.id_of(&a).expect("a interned");
    let b_id = dict.id_of(&b).expect("b interned");

    // Eagerly retract: (a sco b) leaves the store, a/b stay in the dict
    // with no store reference. Then defer a retraction of the same triple
    // — its encoding references the now store-dead ids.
    assert_eq!(slider.remove_terms(std::slice::from_ref(&triple)), 1);
    assert_eq!(
        slider.remove_terms_deferred(std::slice::from_ref(&triple)),
        1
    );
    assert_eq!(slider.stats().pending_removals, 1);

    // The sweep must treat the pending ids as live roots.
    slider.sweep_dictionary();
    assert_eq!(
        dict.lookup(a_id),
        Some(a.clone()),
        "sweep took a pending id"
    );
    assert_eq!(
        dict.lookup(b_id),
        Some(b.clone()),
        "sweep took a pending id"
    );
    assert_eq!(slider.stats().pending_removals, 1);

    // Re-asserting the pending triple cancels the retraction by encoded
    // id — sound only because the ids survived the sweep.
    slider.add_terms(std::slice::from_ref(&triple));
    slider.wait_idle();
    assert_eq!(dict.id_of(&a), Some(a_id), "re-intern changed a live id");
    assert_eq!(slider.stats().cancelled_removals, 1);
    assert_eq!(slider.stats().pending_removals, 0);
    assert_eq!(slider.flush_maintenance(), RemovalOutcome::default());
    assert!(slider
        .store()
        .contains(Triple::new(a_id, RDFS_SUB_CLASS_OF, b_id)));
}

// ---------- the dictionary-sweep property test --------------------------------

/// One scripted operation of the sweep property test: the deferred mix
/// over *decoded* (term) triples, plus explicit dictionary sweeps.
#[derive(Debug, Clone)]
enum SweepOp {
    Add(Vec<TermTriple>),
    Defer(Vec<TermTriple>),
    Flush,
    Sweep,
}

fn sweep_node(v: u64) -> Term {
    Term::iri(format!("http://example.org/sweep/n{v}"))
}

/// Decoded triples over a small term pool: schema-heavy predicates (the
/// real vocabulary IRIs, so they intern to the fixed ids the ρdf rules
/// match on) over few nodes plus the odd literal object — collisions are
/// frequent, so flushes leave dictionary garbage for sweeps to find.
fn sweep_term_triple() -> impl Strategy<Value = TermTriple> {
    use slider::model::vocab::ALL;
    let node = || (0u64..10).prop_map(sweep_node);
    let object = prop_oneof![
        4 => (0u64..10).prop_map(sweep_node),
        1 => (0u64..3).prop_map(|v| Term::literal(format!("lit{v}"))),
    ];
    (
        node(),
        prop_oneof![
            3 => Just(Term::iri(ALL[RDFS_SUB_CLASS_OF.index()])),
            2 => Just(Term::iri(ALL[RDF_TYPE.index()])),
            2 => Just(Term::iri(ALL[RDFS_SUB_PROPERTY_OF.index()])),
            2 => (0u64..3).prop_map(sweep_node),
        ],
        object,
    )
}

fn sweep_op() -> impl Strategy<Value = SweepOp> {
    let batch = || prop::collection::vec(sweep_term_triple(), 1..8);
    prop_oneof![
        3 => batch().prop_map(SweepOp::Add),
        3 => batch().prop_map(SweepOp::Defer),
        1 => Just(SweepOp::Flush),
        2 => Just(SweepOp::Sweep),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The compaction acceptance property: ANY interleaving of term-level
    /// adds, deferrals, flushes and **dictionary sweeps** ends
    /// closure-identical to the recompute oracle, and no sweep ever moves
    /// or corrupts a live id. Comparison is over *decoded* closures
    /// against an oracle with a never-swept dictionary — a term
    /// retracted, swept and later re-asserted legally returns under a
    /// fresh id, so raw id-triple equality would be the wrong invariant.
    /// Every id the store references before a sweep must resolve to the
    /// same term and kind after it (ids of live terms never move), and a
    /// sweep must not disturb the pending-retraction queue (its ids are
    /// liveness roots even when their triples already left the store).
    #[test]
    fn sweep_interleavings_match_oracle_and_keep_live_ids_stable(
        ops in prop::collection::vec(sweep_op(), 1..14),
    ) {
        let dict = Arc::new(Dictionary::new());
        let slider = Slider::new(
            Arc::clone(&dict),
            Ruleset::rho_df(),
            SliderConfig::default()
                .with_maintenance_batch(usize::MAX)
                .with_maintenance_max_age(None),
        );
        let oracle_dict = Dictionary::new();
        let mut oracle = RecomputeOracle::new(Ruleset::rho_df());
        // Model of the scheduler in term space: distinct pending
        // retractions over terms known at defer time, re-assertion
        // cancelling (sound because pending ids are sweep roots — the
        // re-asserted term re-interns to its pending id, never a fresh
        // one).
        let mut pending: Vec<TermTriple> = Vec::new();
        let decoded = |d: &Dictionary, v: Vec<Triple>| -> Vec<TermTriple> {
            let mut out: Vec<TermTriple> = v
                .into_iter()
                .map(|t| d.decode_triple(t).expect("store references an undecodable id"))
                .collect();
            out.sort();
            out
        };
        let encode_oracle = |batch: &[TermTriple]| -> Vec<Triple> {
            batch.iter().map(|t| oracle_dict.encode_triple(t)).collect()
        };
        for (i, op) in ops.iter().enumerate() {
            match op {
                SweepOp::Add(batch) => {
                    slider.add_terms(batch);
                    oracle.add(&encode_oracle(batch));
                    pending.retain(|t| !batch.contains(t));
                }
                SweepOp::Defer(batch) => {
                    // `remove_terms_deferred` looks terms up (never
                    // interns): triples over unknown terms are skipped.
                    let known: Vec<TermTriple> = batch
                        .iter()
                        .filter(|(s, p, o)| {
                            dict.id_of(s).is_some()
                                && dict.id_of(p).is_some()
                                && dict.id_of(o).is_some()
                        })
                        .cloned()
                        .collect();
                    slider.remove_terms_deferred(batch);
                    for t in known {
                        if !pending.contains(&t) {
                            pending.push(t);
                        }
                    }
                }
                SweepOp::Flush => {
                    let outcome = slider.flush_maintenance();
                    prop_assert_eq!(outcome.requested, pending.len(), "op {}", i);
                    oracle.remove(&encode_oracle(&pending));
                    pending.clear();
                }
                SweepOp::Sweep => {
                    // Pin every store-referenced id's resolution across
                    // the sweep: live ids never move.
                    let before: Vec<(NodeId, Term)> = {
                        let mut ids: Vec<NodeId> = slider
                            .store()
                            .to_sorted_vec()
                            .into_iter()
                            .flat_map(|t| [t.s, t.p, t.o])
                            .collect();
                        ids.sort_unstable();
                        ids.dedup();
                        ids.into_iter()
                            .map(|id| (id, dict.lookup(id).expect("live id resolves")))
                            .collect()
                    };
                    slider.sweep_dictionary();
                    for (id, term) in &before {
                        let resolved = dict.lookup(*id);
                        prop_assert_eq!(
                            resolved.as_ref(),
                            Some(term),
                            "sweep moved live id {:?} (op {})",
                            id,
                            i
                        );
                        prop_assert_eq!(dict.kind(*id), Some(term.kind()), "op {}", i);
                    }
                    prop_assert_eq!(
                        slider.stats().pending_removals,
                        pending.len(),
                        "a sweep disturbed the pending queue (op {})",
                        i
                    );
                }
            }
            slider.wait_idle();
            prop_assert_eq!(
                decoded(&dict, slider.store().to_sorted_vec()),
                decoded(&oracle_dict, oracle.to_sorted_vec()),
                "decoded closure diverged after op {} of {:?}",
                i,
                ops
            );
        }
        // Drain what is still pending; the decoded end states agree too.
        slider.flush_maintenance();
        oracle.remove(&encode_oracle(&pending));
        prop_assert_eq!(
            decoded(&dict, slider.store().to_sorted_vec()),
            decoded(&oracle_dict, oracle.to_sorted_vec())
        );
        prop_assert_eq!(slider.stats().store.explicit, oracle.explicit_len());
    }
}
