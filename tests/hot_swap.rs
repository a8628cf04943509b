//! The ruleset hot-swap suite: `Op::Swap` on a *live* reasoner must
//! leave the store identical to a reasoner built with the new program
//! from scratch — dropped rules' derivations retracted by DRed, added
//! rules evaluated semi-naively, kept rules untouched — under any
//! interleaving with the other ops, as judged by the [`RecomputeOracle`]
//! baseline rebuilt with the final ruleset.

mod common;

use common::{manual_flush_slider, materialize, Model};
use proptest::prelude::*;
use slider::baseline::RecomputeOracle;
use slider::core::EventKind;
use slider::model::vocab::{OWL_INVERSE_OF, OWL_SAME_AS, RDFS_SUB_CLASS_OF, RDF_TYPE};
use slider::prelude::*;
use slider::rules::RuleSpec;
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
/// whole families, and crossing into the ρdf fragment. Spec identity is
/// structural (name, definition, clauses with their constants, guards), so
/// "T-A" here is the *same rule* in every variant that contains it.
const RULESET_VARIANTS: usize = 5;

fn ruleset_variant(which: usize) -> Ruleset {
    match which {
        0 => Ruleset::custom("two-families")
            .with(RuleSpec::transitive("T-A", TRANS_A))
            .with(RuleSpec::subsumption("S-A", IS_A, TRANS_A))
            .with(RuleSpec::transitive("T-B", TRANS_B))
            .with(RuleSpec::subsumption("S-B", IS_B, TRANS_B)),
        1 => Ruleset::custom("family-a")
            .with(RuleSpec::transitive("T-A", TRANS_A))
            .with(RuleSpec::subsumption("S-A", IS_A, TRANS_A)),
        2 => Ruleset::custom("transitive-only")
            .with(RuleSpec::transitive("T-A", TRANS_A))
            .with(RuleSpec::transitive("T-B", TRANS_B)),
        3 => Ruleset::rho_df(),
        _ => Ruleset::custom("empty"),
    }
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

/// Any op, swaps to the indexed ruleset variants included.
fn swap_op() -> impl Strategy<Value = Op> {
    let batch = || prop::collection::vec(pool_triple(), 1..8);
    prop_oneof![
        3 => batch().prop_map(Op::Add),
        1 => batch().prop_map(Op::Remove),
        2 => batch().prop_map(Op::Defer),
        1 => Just(Op::Flush),
        2 => (0..RULESET_VARIANTS).prop_map(|which| Op::Swap(ruleset_variant(which))),
        1 => Just(Op::Sweep),
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

    /// The acceptance property: ANY interleaving of all six ops — eager
    /// removals, deferrals, flushes and dictionary sweeps **punctuated by
    /// random ruleset swaps** — leaves the store equal to the
    /// from-scratch closure of the surviving explicit set under the
    /// ruleset loaded at that moment, and the run ends store-identical to
    /// a recompute oracle built with the *final* ruleset. Pending
    /// retractions survive swaps and apply (under the program live at
    /// flush time) at their next flush.
    #[test]
    fn swap_interleavings_match_recompute_oracle(
        start in 0..RULESET_VARIANTS,
        ops in prop::collection::vec(swap_op(), 1..14),
    ) {
        let slider = manual_flush_slider(ruleset_variant(start));
        Model::new(ruleset_variant(start), None).run(&slider, &ops)?;
        let swaps = ops.iter().filter(|op| matches!(op, Op::Swap(_))).count();
        prop_assert_eq!(slider.stats().ruleset_swaps, swaps as u64);
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
    materialize(&slider, &input);

    // Drop family B's transitivity (and family B's subsumption with it).
    let outcome = slider.apply(Op::Swap(ruleset_variant(1))).swap().unwrap();
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
    let outcome = slider.apply(Op::Swap(ruleset_variant(0))).swap().unwrap();
    assert_eq!(outcome.added, 2);
    assert!(outcome.inferred > 0, "{outcome:?}");
    assert_eq!(
        slider.store().to_sorted_vec(),
        expected_closure(&ruleset_variant(0), &input),
        "re-added rules did not rebuild their closure"
    );
}

/// Swapping to an identical ruleset (rebuilt from fresh rule instances,
/// so identity is judged by structure, not pointer) is a
/// store-level no-op: nothing dropped, added, retracted or inferred —
/// but it still counts as a swap and reinstalls fresh state.
#[test]
fn swap_to_identical_ruleset_is_a_store_noop() {
    let slider = manual_flush_slider(ruleset_variant(0));
    let input: Vec<Triple> = (1..10)
        .map(|i| Triple::new(n(i), TRANS_A, n(i + 1)))
        .collect();
    materialize(&slider, &input);
    let before = slider.store().to_sorted_vec();
    let generation_before = slider.stats().snapshot_generation;

    let outcome = slider.apply(Op::Swap(ruleset_variant(0))).swap().unwrap();
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
    materialize(&slider, &[Triple::new(n(50), TRANS_A, n(1))]);
    assert!(slider.store().contains(Triple::new(n(50), TRANS_A, n(10))));
}

/// Spec identity is structural: the same name and definition over another
/// predicate is another rule, so the swap drops the old one (retracting
/// its derivations) and adds the new one (inferring its closure).
#[test]
fn same_named_rule_over_another_predicate_is_swapped_out() {
    let program = |p| Ruleset::custom("trans").with(RuleSpec::transitive("T", p));
    let link = |p, a, b| Triple::new(n(a), p, n(b));
    let input = [
        link(TRANS_A, 1, 2),
        link(TRANS_A, 2, 3),
        link(TRANS_B, 1, 2),
        link(TRANS_B, 2, 3),
    ];
    let slider = manual_flush_slider(program(TRANS_A));
    materialize(&slider, &input);
    assert!(slider.store().contains(link(TRANS_A, 1, 3)));

    let outcome = slider.apply(Op::Swap(program(TRANS_B))).swap().unwrap();
    assert_eq!(
        (outcome.dropped, outcome.added, outcome.kept),
        (1, 1, 0),
        "{outcome:?}"
    );
    assert_eq!(
        slider.store().to_sorted_vec(),
        expected_closure(&program(TRANS_B), &input),
        "store is not the new program's closure"
    );
    assert!(!slider.store().contains(link(TRANS_A, 1, 3)));
    assert!(slider.store().contains(link(TRANS_B, 1, 3)));
}

/// A swap rederives what a kept rule still supports: two domain rules
/// type subject 1, only the dropped one types subject 4, so the swap
/// overdeletes both typings and the kept rule restores subject 1's.
#[test]
fn swap_rederives_what_a_kept_rule_still_supports() {
    let (p, q, is, c) = (NodeId(700), NodeId(701), NodeId(702), n(9));
    let both = Ruleset::custom("two-domains")
        .with(RuleSpec::domain("DOM-P", p, is, c))
        .with(RuleSpec::domain("DOM-Q", q, is, c));
    let only_q = Ruleset::custom("one-domain").with(RuleSpec::domain("DOM-Q", q, is, c));
    let input = [
        Triple::new(n(1), p, n(2)),
        Triple::new(n(1), q, n(3)),
        Triple::new(n(4), p, n(5)),
    ];
    let slider = manual_flush_slider(both);
    materialize(&slider, &input);

    let outcome = slider.apply(Op::Swap(only_q.clone())).swap().unwrap();
    assert_eq!(
        outcome,
        SwapOutcome {
            dropped: 1,
            added: 0,
            kept: 1,
            overdeleted: 2,
            rederived: 1,
            inferred: 0,
        }
    );
    assert_eq!(
        slider.store().to_sorted_vec(),
        expected_closure(&only_q, &input)
    );
}

/// A swap across built-in fragments: an RDFS engine swapped to RDFS-Plus
/// keeps all 16 RDFS rules (the two kind-guarded ones included), so it
/// retracts nothing, and its 12 added rules infer exactly what the
/// RDFS-Plus closure holds beyond the RDFS one.
#[test]
fn swap_from_rdfs_to_rdfs_plus_keeps_every_rdfs_rule() {
    let dict = Arc::new(Dictionary::new());
    let iri = |s: &str| dict.intern(&Term::iri(format!("http://e/{s}")));
    let (x, y, i, j, p, q) = (iri("x"), iri("y"), iri("i"), iri("j"), iri("p"), iri("q"));
    let lit = dict.intern(&Term::literal("l"));
    let input = [
        Triple::new(x, RDFS_SUB_CLASS_OF, y),
        Triple::new(i, RDF_TYPE, x),
        Triple::new(i, p, lit),
        Triple::new(i, p, j),
        Triple::new(p, OWL_INVERSE_OF, q),
        Triple::new(i, OWL_SAME_AS, j),
    ];
    let (rdfs, plus) = (Ruleset::rdfs(&dict), Ruleset::rdfs_plus(&dict));
    let slider = Slider::new(Arc::clone(&dict), rdfs.clone(), SliderConfig::default());
    materialize(&slider, &input);

    let outcome = slider.apply(Op::Swap(plus.clone())).swap().unwrap();
    let (before, after) = (
        expected_closure(&rdfs, &input),
        expected_closure(&plus, &input),
    );
    assert_eq!(
        outcome,
        SwapOutcome {
            dropped: 0,
            added: 12,
            kept: 16,
            overdeleted: 0,
            rederived: 0,
            inferred: after.len() - before.len(),
        }
    );
    assert!(outcome.inferred > 0);
    assert_eq!(slider.store().to_sorted_vec(), after);
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
            slider.apply(Op::Swap(ruleset_variant(2)));
            slider.apply(Op::Swap(ruleset_variant(1)));
            slider.apply(Op::Swap(ruleset_variant(0)));
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
    materialize(
        &slider,
        &(1..8)
            .map(|i| Triple::new(n(i), TRANS_A, n(i + 1)))
            .collect::<Vec<_>>(),
    );
    let outcome = slider.apply(Op::Swap(ruleset_variant(4))).swap().unwrap();
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
