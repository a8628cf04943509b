//! The ruleset hot-swap suite: `Slider::swap_ruleset` on a *live* reasoner
//! must leave the store identical to a reasoner built with the new program
//! from scratch — dropped rules' derivations retracted by DRed, added
//! rules evaluated semi-naively, kept rules untouched — under any
//! interleaving with adds, deferrals and flushes, as judged by the
//! [`RecomputeOracle`] baseline rebuilt with the final ruleset.

use proptest::prelude::*;
use slider::baseline::RecomputeOracle;
use slider::core::EventKind;
use slider::model::vocab::{RDFS_SUB_CLASS_OF, RDF_TYPE};
use slider::prelude::*;
use slider::rules::{Subsumption, Transitive};
use std::sync::Arc;

fn n(v: u64) -> NodeId {
    NodeId(1000 + v)
}

/// Predicates of two independent rule families plus an inert one (same
/// vocabulary as the two-family suite in `tests/retraction.rs`).
const TRANS_A: NodeId = NodeId(600);
const IS_A: NodeId = NodeId(601);
const TRANS_B: NodeId = NodeId(610);
const IS_B: NodeId = NodeId(611);
const INERT: NodeId = NodeId(666);

/// The swap pool: programs sharing rules pairwise (kept on swap), dropping
/// whole families, and crossing into the ρdf fragment. Rule identity is
/// (name, definition), so "T-A" here is the *same rule* in every variant
/// that contains it.
const RULESET_VARIANTS: usize = 5;

fn ruleset_variant(which: usize) -> Ruleset {
    match which {
        0 => Ruleset::custom("two-families")
            .with(Transitive::new("T-A", TRANS_A))
            .with(Subsumption::new("S-A", IS_A, TRANS_A))
            .with(Transitive::new("T-B", TRANS_B))
            .with(Subsumption::new("S-B", IS_B, TRANS_B)),
        1 => Ruleset::custom("family-a")
            .with(Transitive::new("T-A", TRANS_A))
            .with(Subsumption::new("S-A", IS_A, TRANS_A)),
        2 => Ruleset::custom("transitive-only")
            .with(Transitive::new("T-A", TRANS_A))
            .with(Transitive::new("T-B", TRANS_B)),
        3 => Ruleset::rho_df(),
        _ => Ruleset::custom("empty"),
    }
}

fn manual_flush_slider(ruleset: Ruleset) -> Slider {
    Slider::new(
        Arc::new(Dictionary::new()),
        ruleset,
        SliderConfig::default()
            .with_maintenance_batch(usize::MAX)
            .with_maintenance_max_age(None),
    )
}

/// Triples over both families, the inert predicate *and* the ρdf schema
/// vocabulary — whichever program is loaded, part of the pool joins and
/// part is inert, and a swap flips which is which.
fn pool_triple() -> impl Strategy<Value = Triple> {
    let node = || (0u64..8).prop_map(n);
    (
        node(),
        prop_oneof![
            2 => Just(TRANS_A),
            2 => Just(IS_A),
            2 => Just(TRANS_B),
            1 => Just(IS_B),
            1 => Just(INERT),
            2 => Just(RDFS_SUB_CLASS_OF),
            1 => Just(RDF_TYPE),
        ],
        node(),
    )
        .prop_map(|(s, p, o)| Triple::new(s, p, o))
}

/// One scripted operation of the hot-swap property test.
#[derive(Debug, Clone)]
enum SwapOp {
    /// Feed a batch to the input manager.
    Add(Vec<Triple>),
    /// Enqueue a batch on the maintenance scheduler.
    Defer(Vec<Triple>),
    /// Coalesced flush of everything pending.
    Flush,
    /// Hot-swap to the indexed ruleset variant.
    Swap(usize),
}

fn swap_op() -> impl Strategy<Value = SwapOp> {
    let batch = || prop::collection::vec(pool_triple(), 1..8);
    prop_oneof![
        3 => batch().prop_map(SwapOp::Add),
        2 => batch().prop_map(SwapOp::Defer),
        1 => Just(SwapOp::Flush),
        2 => (0..RULESET_VARIANTS).prop_map(SwapOp::Swap),
    ]
}

/// The model's view of the store: the closure, under `ruleset`, of the
/// explicit triples that survived the interleaving so far.
fn expected_closure(ruleset: &Ruleset, explicit: &[Triple]) -> Vec<Triple> {
    let mut oracle = RecomputeOracle::new(ruleset.clone());
    oracle.add(explicit);
    oracle.to_sorted_vec()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The acceptance property: ANY interleaving of adds, deferrals and
    /// flushes **punctuated by random ruleset swaps** leaves the store
    /// equal to the from-scratch closure of the surviving explicit set
    /// under the ruleset loaded at that moment — and the run ends
    /// store-identical to a recompute oracle built with the *final*
    /// ruleset. Pending retractions survive swaps and apply (under the
    /// program live at flush time) at their next flush.
    #[test]
    fn swap_interleavings_match_recompute_oracle(
        start in 0..RULESET_VARIANTS,
        ops in prop::collection::vec(swap_op(), 1..14),
    ) {
        let slider = manual_flush_slider(ruleset_variant(start));
        // The model: the surviving explicit set, the distinct pending
        // retractions (re-assertion cancels), and the loaded program.
        let mut explicit: Vec<Triple> = Vec::new();
        let mut pending: Vec<Triple> = Vec::new();
        let mut current = ruleset_variant(start);
        let mut swaps = 0u64;
        for (i, op) in ops.iter().enumerate() {
            match op {
                SwapOp::Add(batch) => {
                    slider.add_triples(batch);
                    for &t in batch {
                        if !explicit.contains(&t) {
                            explicit.push(t);
                        }
                    }
                    pending.retain(|t| !batch.contains(t));
                }
                SwapOp::Defer(batch) => {
                    slider.remove_deferred(batch);
                    for &t in batch {
                        if !pending.contains(&t) {
                            pending.push(t);
                        }
                    }
                }
                SwapOp::Flush => {
                    let outcome = slider.flush_maintenance();
                    prop_assert_eq!(outcome.requested, pending.len(), "op {}", i);
                    explicit.retain(|t| !pending.contains(t));
                    pending.clear();
                }
                SwapOp::Swap(which) => {
                    let next = ruleset_variant(*which);
                    let outcome = slider.swap_ruleset(next.clone());
                    // The diff partitions both programs exactly.
                    prop_assert_eq!(
                        outcome.dropped + outcome.kept,
                        current.rules().len(),
                        "op {}", i
                    );
                    prop_assert_eq!(
                        outcome.added + outcome.kept,
                        next.rules().len(),
                        "op {}", i
                    );
                    current = next;
                    swaps += 1;
                }
            }
            slider.wait_idle();
            prop_assert_eq!(slider.stats().pending_removals, pending.len());
            prop_assert_eq!(
                slider.store().to_sorted_vec(),
                expected_closure(&current, &explicit),
                "diverged after op {} of {:?}",
                i,
                ops
            );
        }
        // Drain the queue; the end state must be store-identical to an
        // oracle built with the FINAL ruleset over the surviving set.
        slider.flush_maintenance();
        explicit.retain(|t| !pending.contains(t));
        let mut oracle = RecomputeOracle::new(current);
        oracle.add(&explicit);
        prop_assert_eq!(slider.store().to_sorted_vec(), oracle.to_sorted_vec());
        prop_assert_eq!(slider.stats().store.explicit, oracle.explicit_len());
        prop_assert_eq!(slider.stats().ruleset_swaps, swaps);
    }
}

/// Deterministic pin of the repair itself: dropping one rule of a mixed
/// program retracts exactly its unsupported derivations, adding it back
/// re-infers them without re-feeding any input.
#[test]
fn dropping_and_re_adding_a_rule_round_trips() {
    let slider = manual_flush_slider(ruleset_variant(0));
    let mut input: Vec<Triple> = (1..8)
        .map(|i| Triple::new(n(i), TRANS_A, n(i + 1)))
        .collect();
    input.push(Triple::new(n(100), IS_A, n(1)));
    input.extend((1..5).map(|i| Triple::new(n(i), TRANS_B, n(i + 1))));
    slider.materialize(&input);

    // Drop family B's transitivity (and family B's subsumption with it).
    let outcome = slider.swap_ruleset(ruleset_variant(1));
    assert_eq!(outcome.dropped, 2);
    assert_eq!(outcome.kept, 2);
    assert!(outcome.overdeleted > 0, "{outcome:?}");
    assert_eq!(
        slider.store().to_sorted_vec(),
        expected_closure(&ruleset_variant(1), &input),
        "dropped-rule derivations survived the swap"
    );
    assert!(!slider.store().contains(Triple::new(n(1), TRANS_B, n(3))));
    // Family A's closure is untouched.
    assert!(slider.store().contains(Triple::new(n(1), TRANS_A, n(7))));
    assert!(slider.store().contains(Triple::new(n(100), IS_A, n(7))));

    // Swap back: the added rules re-infer from the store, no re-feed.
    let outcome = slider.swap_ruleset(ruleset_variant(0));
    assert_eq!(outcome.added, 2);
    assert!(outcome.inferred > 0, "{outcome:?}");
    assert_eq!(
        slider.store().to_sorted_vec(),
        expected_closure(&ruleset_variant(0), &input),
        "re-added rules did not rebuild their closure"
    );
}

/// Swapping to an identical ruleset (rebuilt from fresh rule instances,
/// so identity is judged by name + definition, not pointer) is a
/// store-level no-op: nothing dropped, added, retracted or inferred —
/// but it still counts as a swap and reinstalls fresh state.
#[test]
fn swap_to_identical_ruleset_is_a_store_noop() {
    let slider = manual_flush_slider(ruleset_variant(0));
    let input: Vec<Triple> = (1..10)
        .map(|i| Triple::new(n(i), TRANS_A, n(i + 1)))
        .collect();
    slider.materialize(&input);
    let before = slider.store().to_sorted_vec();
    let generation_before = slider.stats().snapshot_generation;

    let outcome = slider.swap_ruleset(ruleset_variant(0));
    assert_eq!(
        outcome,
        SwapOutcome {
            kept: 4,
            ..SwapOutcome::default()
        }
    );
    assert_eq!(slider.store().to_sorted_vec(), before);
    let stats = slider.stats();
    assert_eq!(stats.ruleset_swaps, 1);
    // The quiescent section republishes: readers linearise past the swap.
    assert!(stats.snapshot_generation >= generation_before);
    // The reasoner still works afterwards.
    slider.materialize(&[Triple::new(n(50), TRANS_A, n(1))]);
    assert!(slider.store().contains(Triple::new(n(50), TRANS_A, n(10))));
}

/// Swaps racing live producers: feeds keep flowing from several threads
/// while rulesets swap mid-stream. Every input batch either joins under
/// the old program or the new one — and once the dust settles the store
/// is the final program's closure of EVERYTHING that was fed, exactly as
/// if the reasoner had been born with it.
#[test]
fn swap_while_producers_race_lands_on_final_program_closure() {
    let link = |p: NodeId, i: u64| Triple::new(n(i), p, n(i + 1));
    let input: Vec<Triple> = (1..40)
        .flat_map(|i| [link(TRANS_A, i), link(TRANS_B, i)])
        .chain([
            Triple::new(n(200), IS_A, n(1)),
            Triple::new(n(201), IS_B, n(1)),
        ])
        .collect();

    let slider = Arc::new(manual_flush_slider(ruleset_variant(0)));
    std::thread::scope(|scope| {
        for producer in 0..4 {
            let slider = Arc::clone(&slider);
            let slice: Vec<Triple> = input.iter().copied().skip(producer).step_by(4).collect();
            scope.spawn(move || {
                for chunk in slice.chunks(8) {
                    slider.add_triples(chunk);
                }
            });
        }
        // Swap under fire: narrow the program, then restore it.
        let slider = Arc::clone(&slider);
        scope.spawn(move || {
            slider.swap_ruleset(ruleset_variant(2));
            slider.swap_ruleset(ruleset_variant(1));
            slider.swap_ruleset(ruleset_variant(0));
        });
    });
    slider.wait_idle();

    assert_eq!(slider.stats().ruleset_swaps, 3);
    assert_eq!(
        slider.store().to_sorted_vec(),
        expected_closure(&ruleset_variant(0), &input),
        "post-race store is not the final program's closure"
    );
}

/// A swap on a traced reasoner records [`EventKind::RulesetSwap`] with the
/// outcome's own numbers and the post-swap store size.
#[test]
fn swap_emits_trace_event_matching_outcome() {
    let slider = Slider::new(
        Arc::new(Dictionary::new()),
        ruleset_variant(0),
        SliderConfig::default().with_trace(true),
    );
    slider.materialize(
        &(1..8)
            .map(|i| Triple::new(n(i), TRANS_A, n(i + 1)))
            .collect::<Vec<_>>(),
    );
    let outcome = slider.swap_ruleset(ruleset_variant(4));
    assert_eq!(outcome.dropped, 4);

    let events = slider.events().expect("tracing on");
    let swap = events
        .iter()
        .find_map(|e| match e.kind {
            EventKind::RulesetSwap {
                dropped,
                added,
                kept,
                overdeleted,
                rederived,
                inferred,
                store_size,
            } => Some((
                dropped,
                added,
                kept,
                overdeleted,
                rederived,
                inferred,
                store_size,
            )),
            _ => None,
        })
        .expect("ruleset swap event recorded");
    assert_eq!(swap.0, outcome.dropped);
    assert_eq!(swap.1, outcome.added);
    assert_eq!(swap.2, outcome.kept);
    assert_eq!(swap.3, outcome.overdeleted);
    assert_eq!(swap.4, outcome.rederived);
    assert_eq!(swap.5, outcome.inferred);
    assert_eq!(swap.6, slider.store().len());
    // The explicit chain survives the program's death; only derivations go.
    assert_eq!(slider.store().len(), 7);
}
