//! End-to-end tests for the RDFS-Plus fragment (the paper's §5 future
//! work): equality smushing, inverse/symmetric/transitive properties and
//! their composition with the RDFS core — checked against the batch
//! oracle under many reasoner configurations.

mod common;

use common::Model;
use proptest::prelude::*;
use slider::baseline::closure;
use slider::model::vocab;
use slider::prelude::*;
use std::sync::Arc;

fn e(name: &str) -> Term {
    Term::iri(format!("http://example.org/{name}"))
}

/// A cross-source data-integration scenario: two catalogues describe the
/// same book under different IRIs; a functional identifier property plus
/// sameAs reasoning merges them.
fn library_scenario(dict: &Dictionary) -> Vec<Triple> {
    let t = |s: &Term, p: NodeId, o: &Term| Triple::new(dict.intern(s), p, dict.intern(o));
    let isbn = dict.intern(&e("isbn"));
    let author_of = dict.intern(&e("authorOf"));
    let written_by = dict.intern(&e("writtenBy"));
    let part_of = dict.intern(&e("partOfSeries"));
    let mut out = vec![
        // isbn is inverse functional: same ISBN ⇒ same book.
        Triple::new(
            isbn,
            vocab::RDF_TYPE,
            vocab::OWL_INVERSE_FUNCTIONAL_PROPERTY,
        ),
        // writtenBy is the inverse of authorOf.
        Triple::new(written_by, vocab::OWL_INVERSE_OF, author_of),
        // partOfSeries is transitive.
        Triple::new(part_of, vocab::RDF_TYPE, vocab::OWL_TRANSITIVE_PROPERTY),
        // Catalogue A.
        t(&e("bookA"), isbn, &e("9780001")),
        t(&e("bookA"), written_by, &e("tolkien")),
        t(&e("bookA"), part_of, &e("lotr")),
        // Catalogue B (same ISBN, different IRI).
        t(&e("bookB"), isbn, &e("9780001")),
        // Series nesting.
        t(&e("lotr"), part_of, &e("middle-earth-canon")),
    ];
    // Some typing so the RDFS core has work too.
    let book_class = dict.intern(&e("Book"));
    let work_class = dict.intern(&e("Work"));
    out.push(Triple::new(
        book_class,
        vocab::RDFS_SUB_CLASS_OF,
        work_class,
    ));
    out.push(t(&e("bookA"), vocab::RDF_TYPE, &e("Book")));
    out
}

#[test]
fn library_scenario_merges_identities() {
    let dict = Arc::new(Dictionary::new());
    let input = library_scenario(&dict);
    let slider = Slider::new(
        Arc::clone(&dict),
        Ruleset::rdfs_plus(&dict),
        SliderConfig::default(),
    );
    slider.add_triples(&input);
    slider.wait_idle();
    let store = slider.store();

    let id = |name: &str| dict.id_of(&e(name)).unwrap();

    // PRP-IFP: same ISBN ⇒ bookA sameAs bookB (both directions via EQ-SYM).
    assert!(store.contains(Triple::new(id("bookA"), vocab::OWL_SAME_AS, id("bookB"))));
    assert!(store.contains(Triple::new(id("bookB"), vocab::OWL_SAME_AS, id("bookA"))));

    // EQ-REP-S: bookB inherits everything known about bookA.
    assert!(store.contains(Triple::new(id("bookB"), id("writtenBy"), id("tolkien"))));
    assert!(store.contains(Triple::new(id("bookB"), vocab::RDF_TYPE, id("Book"))));

    // PRP-INV: tolkien authorOf both books.
    assert!(store.contains(Triple::new(id("tolkien"), id("authorOf"), id("bookA"))));
    assert!(store.contains(Triple::new(id("tolkien"), id("authorOf"), id("bookB"))));

    // PRP-TRP: series nesting is transitive.
    assert!(store.contains(Triple::new(
        id("bookA"),
        id("partOfSeries"),
        id("middle-earth-canon")
    )));

    // CAX-SCO composition: both books are Works.
    assert!(store.contains(Triple::new(id("bookA"), vocab::RDF_TYPE, id("Work"))));
    assert!(store.contains(Triple::new(id("bookB"), vocab::RDF_TYPE, id("Work"))));
}

#[test]
fn rdfs_plus_matches_oracle_on_scenario() {
    let dict = Arc::new(Dictionary::new());
    let input = library_scenario(&dict);
    let expected = closure(Ruleset::rdfs_plus(&dict), &input).to_sorted_vec();
    for config in [
        SliderConfig::default(),
        SliderConfig::default()
            .with_buffer_capacity(1)
            .with_workers(1),
        SliderConfig::batch(),
    ] {
        let slider = Slider::new(Arc::clone(&dict), Ruleset::rdfs_plus(&dict), config);
        slider.add_triples(&input);
        slider.wait_idle();
        assert_eq!(slider.store().to_sorted_vec(), expected);
    }
}

#[test]
fn rdfs_plus_incremental_equals_batch() {
    let dict = Arc::new(Dictionary::new());
    let input = library_scenario(&dict);
    let expected = closure(Ruleset::rdfs_plus(&dict), &input).to_sorted_vec();
    // Feed one triple at a time with quiescence in between — the hardest
    // ordering: equalities may arrive long after the facts they rewrite.
    let slider = Slider::new(
        Arc::clone(&dict),
        Ruleset::rdfs_plus(&dict),
        SliderConfig::default(),
    );
    for &t in &input {
        slider.add_triples(&[t]);
        slider.wait_idle();
    }
    assert_eq!(slider.store().to_sorted_vec(), expected);

    // And in reverse order.
    let slider = Slider::new(
        Arc::clone(&dict),
        Ruleset::rdfs_plus(&dict),
        SliderConfig::default(),
    );
    for &t in input.iter().rev() {
        slider.add_triples(&[t]);
    }
    slider.wait_idle();
    assert_eq!(slider.store().to_sorted_vec(), expected);
}

#[test]
fn same_as_clique_terminates() {
    // sameAs cliques are the worst case for equality reasoning: n members
    // ⇒ n² sameAs triples plus full fact propagation. Must terminate and
    // match the oracle.
    let dict = Arc::new(Dictionary::new());
    let members: Vec<NodeId> = (0..8)
        .map(|i| dict.intern(&e(&format!("alias{i}"))))
        .collect();
    let p = dict.intern(&e("claims"));
    let v = dict.intern(&e("value"));
    let mut input: Vec<Triple> = members
        .windows(2)
        .map(|w| Triple::new(w[0], vocab::OWL_SAME_AS, w[1]))
        .collect();
    input.push(Triple::new(members[0], p, v));

    let expected = closure(Ruleset::rdfs_plus(&dict), &input).to_sorted_vec();
    let slider = Slider::new(
        Arc::clone(&dict),
        Ruleset::rdfs_plus(&dict),
        SliderConfig::default(),
    );
    slider.add_triples(&input);
    slider.wait_idle();
    let got = slider.store().to_sorted_vec();
    assert_eq!(got, expected);

    // Every member claims the value (EQ-REP-S over the clique)…
    let store = slider.store().snapshot();
    for &m in &members {
        assert!(store.contains(Triple::new(m, p, v)), "{m} lost the fact");
    }
    // …and the sameAs relation is the full clique (n² incl. reflexive).
    assert_eq!(
        store.count_with_p(vocab::OWL_SAME_AS),
        members.len() * members.len()
    );
}

#[test]
fn functional_property_chain_of_equalities() {
    // b0 = b1 = … = b5 via a functional property all pointing at the same
    // subject; checks PRP-FP + EQ-TRANS together.
    let dict = Arc::new(Dictionary::new());
    let p = dict.intern(&e("primaryKey"));
    let mut input = vec![Triple::new(
        p,
        vocab::RDF_TYPE,
        vocab::OWL_FUNCTIONAL_PROPERTY,
    )];
    let subject = dict.intern(&e("row"));
    let keys: Vec<NodeId> = (0..6).map(|i| dict.intern(&e(&format!("k{i}")))).collect();
    for &k in &keys {
        input.push(Triple::new(subject, p, k));
    }
    let slider = Slider::new(
        Arc::clone(&dict),
        Ruleset::rdfs_plus(&dict),
        SliderConfig::default(),
    );
    slider.add_triples(&input);
    slider.wait_idle();
    let store = slider.store().snapshot();
    for &a in &keys {
        for &b in &keys {
            if a != b {
                assert!(
                    store.contains(Triple::new(a, vocab::OWL_SAME_AS, b)),
                    "missing {a} sameAs {b}"
                );
            }
        }
    }
}

#[test]
fn dependency_graph_wires_equality_rules() {
    let dict = Arc::new(Dictionary::new());
    let graph = DependencyGraph::build(&Ruleset::rdfs_plus(&dict));
    // sameAs producers feed the equality machinery.
    for producer in ["PRP-FP", "PRP-IFP", "EQ-SYM", "EQ-TRANS"] {
        for consumer in ["EQ-SYM", "EQ-TRANS", "EQ-REP-S", "EQ-REP-P", "EQ-REP-O"] {
            assert!(
                graph.has_edge_named(producer, consumer),
                "{producer} → {consumer}"
            );
        }
    }
    // Equivalence desugaring feeds the RDFS core.
    assert!(graph.has_edge_named("SCM-EQC", "SCM-SCO"));
    assert!(graph.has_edge_named("SCM-EQC", "CAX-SCO"));
    assert!(graph.has_edge_named("SCM-EQP", "SCM-SPO"));
    assert!(graph.has_edge_named("SCM-EQP", "PRP-SPO1"));
    // But not vice versa: CAX-SCO emits type, not equivalence.
    assert!(!graph.has_edge_named("CAX-SCO", "SCM-EQC"));
}

// ---------- retraction under RDFS-Plus ---------------------------------------

/// Retracting the sources of identities and of inverse/transitive facts
/// runs DRed through the RDFS-Plus backward matchers; at every quiescent
/// point the store is the oracle's closure of what survives.
#[test]
fn retracting_identity_sources_matches_oracle() {
    let dict = Arc::new(Dictionary::new());
    let input = library_scenario(&dict);
    let id = |name: &str| dict.intern(&e(name));
    let slider = Slider::new(
        Arc::clone(&dict),
        Ruleset::rdfs_plus(&dict),
        SliderConfig::default(),
    );
    let isbn_b = Triple::new(id("bookB"), id("isbn"), id("9780001"));
    let script = [
        Op::Add(input.clone()),
        // bookB loses its ISBN: the merge with bookA and all it copied go.
        Op::Remove(vec![isbn_b]),
        Op::Add(vec![isbn_b]),
        // The inverse and the series nesting lose their schema.
        Op::Remove(vec![input[1], input[2]]),
        Op::Remove(vec![input[0]]),
        Op::Add(vec![input[0], input[2]]),
        Op::Remove(input[3..].to_vec()),
    ];
    Model::new(Ruleset::rdfs_plus(&dict), None)
        .run(&slider, &script)
        .unwrap();
}

const P: NodeId = NodeId(1100);
const Q: NodeId = NodeId(1101);

/// Triples over a small node universe that keep every RDFS-Plus rule
/// busy: facts over two properties, equalities, subclassing and typing,
/// the four OWL property characteristics, inverses and class equivalence.
fn plus_triple() -> impl Strategy<Value = Triple> {
    let node = || (0u64..6).prop_map(|v| NodeId(1000 + v));
    let prop = || prop_oneof![Just(P), Just(Q)];
    let pair = |p: NodeId| (node(), node()).prop_map(move |(s, o)| Triple::new(s, p, o));
    prop_oneof![
        3 => (node(), prop(), node()).prop_map(|(s, p, o)| Triple::new(s, p, o)),
        2 => pair(vocab::OWL_SAME_AS),
        1 => pair(vocab::RDFS_SUB_CLASS_OF),
        1 => pair(vocab::RDF_TYPE),
        1 => pair(vocab::OWL_EQUIVALENT_CLASS),
        1 => (prop(), prop()).prop_map(|(a, b)| Triple::new(a, vocab::OWL_INVERSE_OF, b)),
        1 => (
            prop(),
            prop_oneof![
                Just(vocab::OWL_SYMMETRIC_PROPERTY),
                Just(vocab::OWL_TRANSITIVE_PROPERTY),
                Just(vocab::OWL_FUNCTIONAL_PROPERTY),
                Just(vocab::OWL_INVERSE_FUNCTIONAL_PROPERTY),
            ],
        )
            .prop_map(|(p, class)| Triple::new(p, vocab::RDF_TYPE, class)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Any interleaving of RDFS-Plus adds and removes leaves the store
    /// equal to the from-scratch closure of the surviving explicit triples.
    #[test]
    fn rdfs_plus_add_remove_interleavings_match_recompute_oracle(
        ops in prop::collection::vec(
            (prop_oneof![2 => Just(true), 1 => Just(false)], prop::collection::vec(plus_triple(), 1..6))
                .prop_map(|(add, batch)| if add { Op::Add(batch) } else { Op::Remove(batch) }),
            1..10,
        )
    ) {
        let dict = Arc::new(Dictionary::new());
        let slider = Slider::new(
            Arc::clone(&dict),
            Ruleset::rdfs_plus(&dict),
            SliderConfig::default(),
        );
        Model::new(Ruleset::rdfs_plus(&dict), None).run(&slider, &ops)?;
    }
}
