//! Transitive modules (`SCM-SCO`, `SCM-SPO`, `RuleSpec::transitive`) run as
//! serialized incremental closure: each edge `(a, b)` emits
//! `({a} ∪ anc(a)) × ({b} ∪ desc(b))` at once. Under racing writers and
//! tiny buffers the store must still equal the batch closure, and DRed and
//! ruleset swaps, which keep the rules' one-step meaning, must still land
//! on the recompute oracle afterwards.

use proptest::prelude::*;
use slider::baseline::{closure, RecomputeOracle};
use slider::model::vocab::{RDFS_CLASS, RDFS_SUB_CLASS_OF, RDFS_SUB_PROPERTY_OF, RDF_TYPE};
use slider::prelude::*;
use slider::rules::RuleSpec;
use slider::workloads::chains::subclass_chain;
use slider::workloads::encode_all;
use std::sync::Arc;

/// The custom family's transitive and membership predicates.
const PART_OF: NodeId = NodeId(900);
const LOCATED_IN: NodeId = NodeId(901);
const IN: NodeId = NodeId(902);

fn class(v: u64) -> NodeId {
    NodeId(1000 + v)
}
fn instance(v: u64) -> NodeId {
    NodeId(2000 + v)
}
fn sco(a: u64, b: u64) -> Triple {
    Triple::new(class(a), RDFS_SUB_CLASS_OF, class(b))
}
fn chain(k: u64) -> Vec<Triple> {
    (1..k).map(|i| sco(i, i + 1)).collect()
}

/// One random case: a chain-like DAG whose edges jump one to three classes
/// ahead, split between the two transitive predicates `preds`. About 10 %
/// of the edges point back to any earlier class instead, or to the same
/// class, so cycles and self-loops form. Each member class also gets
/// `rdf:type rdfs:Class` and an `is` membership of an instance. Long
/// chains make every emitted edge count: a racing closure that misses one
/// rarely finds another path to it.
fn soup(
    nodes: u64,
    edges: &[(u64, u64, u8)],
    members: &[(u64, u64)],
    preds: [NodeId; 2],
    is: NodeId,
) -> Vec<Triple> {
    let mut out = Vec::new();
    for &(x, y, r) in edges {
        let a = x % nodes;
        let (s, o) = if r < 2 {
            (a.max(y % nodes), a.min(y % nodes))
        } else {
            (a, a + 1 + y % 3)
        };
        let p = preds[usize::from(r % 4 == 3)];
        out.push(Triple::new(class(s), p, class(o)));
    }
    for &(c, i) in members {
        let c = class(c % nodes);
        out.push(Triple::new(c, RDF_TYPE, RDFS_CLASS));
        out.push(Triple::new(instance(i), is, c));
    }
    out
}

/// Feeds `input` from three writer threads in small interleaved batches,
/// waits for quiescence and returns the store.
fn race(
    ruleset: Ruleset,
    dict: &Arc<Dictionary>,
    input: &[Triple],
    capacity: usize,
) -> Vec<Triple> {
    let slider = Slider::new(
        Arc::clone(dict),
        ruleset,
        SliderConfig::default()
            .with_buffer_capacity(capacity)
            .with_workers(2),
    );
    std::thread::scope(|scope| {
        for writer in 0..3 {
            let slider = &slider;
            let slice: Vec<Triple> = input.iter().copied().skip(writer).step_by(3).collect();
            scope.spawn(move || {
                for batch in slice.chunks(1) {
                    slider.add_triples(batch);
                }
            });
        }
    });
    slider.wait_idle();
    slider.store().to_sorted_vec()
}

fn edges() -> impl Strategy<Value = Vec<(u64, u64, u8)>> {
    prop::collection::vec((0u64..40, 0u64..40, 0u8..20), 20..120)
}

fn members() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..40, 0u64..6), 0..16)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 240, ..ProptestConfig::default() })]

    /// ρdf: `SCM-SCO` and `SCM-SPO` close their hierarchies while
    /// `CAX-SCO` reads them, fed by three racing writers.
    #[test]
    fn rho_df_closure_races_match_batch(
        nodes in 8u64..40,
        edges in edges(),
        members in members(),
        capacity in 1usize..=4,
    ) {
        let input = soup(nodes, &edges, &members, [RDFS_SUB_CLASS_OF, RDFS_SUB_PROPERTY_OF], RDF_TYPE);
        let dict = Arc::new(Dictionary::new());
        let expected = closure(Ruleset::rho_df(), &input).to_sorted_vec();
        prop_assert_eq!(race(Ruleset::rho_df(), &dict, &input, capacity), expected);
    }

    /// RDFS: the reflexive `(c sco c)` and `(p spo p)` edges RDFS6/RDFS10
    /// add race the closure modules, which skip them.
    #[test]
    fn rdfs_closure_races_match_batch(
        nodes in 8u64..40,
        edges in edges(),
        members in members(),
        capacity in 1usize..=4,
    ) {
        let input = soup(nodes, &edges, &members, [RDFS_SUB_CLASS_OF, RDFS_SUB_PROPERTY_OF], RDF_TYPE);
        let dict = Arc::new(Dictionary::new());
        let expected = closure(Ruleset::rdfs(&dict), &input).to_sorted_vec();
        prop_assert_eq!(race(Ruleset::rdfs(&dict), &dict, &input, capacity), expected);
    }

    /// A custom program: two `RuleSpec::transitive` families close side by side,
    /// with a `RuleSpec::subsumption` reader on one of them.
    #[test]
    fn custom_transitive_races_match_batch(
        nodes in 8u64..40,
        edges in edges(),
        members in members(),
        capacity in 1usize..=4,
    ) {
        let input = soup(nodes, &edges, &members, [PART_OF, LOCATED_IN], IN);
        let ruleset = Ruleset::custom("part-of")
            .with(RuleSpec::transitive("PART-OF", PART_OF))
            .with(RuleSpec::transitive("LOCATED-IN", LOCATED_IN))
            .with(RuleSpec::subsumption("IN-PART", IN, PART_OF));
        let dict = Arc::new(Dictionary::new());
        let expected = closure(ruleset.clone(), &input).to_sorted_vec();
        prop_assert_eq!(race(ruleset, &dict, &input, capacity), expected);
    }
}

#[track_caller]
fn assert_matches_oracle(slider: &Slider, oracle: &RecomputeOracle, context: &str) {
    assert_eq!(
        slider.store().to_sorted_vec(),
        oracle.to_sorted_vec(),
        "store diverged from recompute oracle: {context}"
    );
}

#[test]
fn dred_after_closure_inserts_matches_oracle() {
    let input = chain(40);
    let slider = Slider::new(
        Arc::new(Dictionary::new()),
        Ruleset::rho_df(),
        SliderConfig::default().with_buffer_capacity(3),
    );
    let mut oracle = RecomputeOracle::new(Ruleset::rho_df());
    slider.add_triples(&input);
    slider.wait_idle();
    oracle.add(&input);
    assert_matches_oracle(&slider, &oracle, "loaded chain");

    let middle = [sco(20, 21)];
    assert_eq!(
        slider
            .apply(Op::Remove(middle.to_vec()))
            .removal()
            .unwrap()
            .retracted,
        1
    );
    oracle.remove(&middle);
    assert_matches_oracle(&slider, &oracle, "middle edge removed");

    slider.add_triples(&middle);
    slider.wait_idle();
    oracle.add(&middle);
    assert_matches_oracle(&slider, &oracle, "middle edge re-added");

    let end = [sco(39, 40)];
    assert_eq!(
        slider
            .apply(Op::Remove(end.to_vec()))
            .removal()
            .unwrap()
            .retracted,
        1
    );
    oracle.remove(&end);
    assert_matches_oracle(&slider, &oracle, "end edge removed");
}

#[test]
fn swapping_scm_sco_out_and_back_recloses_the_chain() {
    let input = chain(40);
    let without = {
        let mut rs = Ruleset::custom("rho-df without SCM-SCO");
        for rule in Ruleset::rho_df().rules() {
            if rule.name() != "SCM-SCO" {
                rs.push_arc(Arc::clone(rule));
            }
        }
        rs
    };
    let slider = Slider::new(
        Arc::new(Dictionary::new()),
        Ruleset::rho_df(),
        SliderConfig::default().with_buffer_capacity(3),
    );
    slider.add_triples(&input);
    slider.wait_idle();
    let full = closure(Ruleset::rho_df(), &input).to_sorted_vec();
    assert_eq!(slider.store().to_sorted_vec(), full);

    let outcome = slider.apply(Op::Swap(without.clone())).swap().unwrap();
    assert_eq!((outcome.dropped, outcome.added), (1, 0));
    assert_eq!(
        slider.store().to_sorted_vec(),
        closure(without, &input).to_sorted_vec()
    );

    let outcome = slider.apply(Op::Swap(Ruleset::rho_df())).swap().unwrap();
    assert_eq!((outcome.dropped, outcome.added), (0, 1));
    assert_eq!(slider.store().to_sorted_vec(), full);

    // The swapped-in module closes new edges incrementally again.
    let tail = [sco(40, 41)];
    slider.add_triples(&tail);
    slider.wait_idle();
    let all: Vec<Triple> = input.iter().chain(&tail).copied().collect();
    assert_eq!(
        slider.store().to_sorted_vec(),
        closure(Ruleset::rho_df(), &all).to_sorted_vec()
    );
}

#[test]
fn rdfs_chain_derives_each_closure_edge_a_bounded_number_of_times() {
    let dict = Arc::new(Dictionary::new());
    let input = encode_all(&subclass_chain(300), &dict);
    let slider = Slider::new(
        Arc::clone(&dict),
        Ruleset::rdfs(&dict),
        SliderConfig::default(),
    );
    slider.add_triples(&input);
    slider.wait_idle();
    let stats = slider.stats();
    let sco = stats
        .rules
        .iter()
        .find(|r| r.name == "SCM-SCO")
        .expect("RDFS loads SCM-SCO");
    // Reflexive `(c sco c)` edges from RDFS10 are skipped; without the
    // skip each of them re-emits its class's whole closure row.
    assert!(
        sco.derived <= 4 * sco.fresh,
        "SCM-SCO derived {} for {} fresh",
        sco.derived,
        sco.fresh
    );
}
