//! Property-based tests over the whole stack: random triple soups must
//! close identically under Slider and the semi-naive oracle; parser and
//! dictionary round-trips; closure-size laws.

use proptest::prelude::*;
use slider::baseline::closure;
use slider::model::vocab;
use slider::prelude::*;
use std::sync::Arc;

// ---------- generators ----------------------------------------------------

/// A node id drawn from a small universe (so joins actually happen).
fn small_node() -> impl Strategy<Value = NodeId> {
    (0u64..12).prop_map(|v| NodeId(1000 + v))
}

/// A predicate: biased towards the RDFS vocabulary so rules fire, with
/// occasional plain predicates.
fn schema_heavy_predicate() -> impl Strategy<Value = NodeId> {
    prop_oneof![
        3 => Just(vocab::RDFS_SUB_CLASS_OF),
        3 => Just(vocab::RDF_TYPE),
        2 => Just(vocab::RDFS_SUB_PROPERTY_OF),
        2 => Just(vocab::RDFS_DOMAIN),
        2 => Just(vocab::RDFS_RANGE),
        2 => (0u64..4).prop_map(|v| NodeId(1000 + v)), // instance predicates
    ]
}

fn random_triples(max: usize) -> impl Strategy<Value = Vec<Triple>> {
    prop::collection::vec(
        (small_node(), schema_heavy_predicate(), small_node())
            .prop_map(|(s, p, o)| Triple::new(s, p, o)),
        0..max,
    )
}

fn arbitrary_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        "[a-z][a-z0-9/.#-]{0,30}".prop_map(|s| Term::iri(format!("http://e/{s}"))),
        any::<String>().prop_map(Term::literal),
        ("[ -~]{0,20}", "[a-z]{2,5}").prop_map(|(lex, tag)| Term::Literal(Literal::lang(lex, tag))),
        ("[ -~]{0,20}", "[a-z]{1,10}")
            .prop_map(|(lex, dt)| Term::Literal(Literal::typed(lex, format!("http://dt/{dt}")))),
        "[A-Za-z0-9][A-Za-z0-9_-]{0,10}".prop_map(Term::blank),
    ]
}

// ---------- reasoner properties -------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Slider ≡ semi-naive oracle on random ρdf soups.
    #[test]
    fn slider_matches_oracle_rho_df(input in random_triples(80)) {
        let dict = Arc::new(Dictionary::new());
        let expected = closure(Ruleset::rho_df(), &input).to_sorted_vec();
        let slider = Slider::new(Arc::clone(&dict), Ruleset::rho_df(), SliderConfig::default());
        slider.add_triples(&input);
        slider.wait_idle();
        prop_assert_eq!(slider.store().to_sorted_vec(), expected);
    }

    /// Same with pathological buffering (capacity 1, single worker).
    #[test]
    fn slider_matches_oracle_tiny_buffers(input in random_triples(40)) {
        let dict = Arc::new(Dictionary::new());
        let expected = closure(Ruleset::rho_df(), &input).to_sorted_vec();
        let config = SliderConfig::default().with_buffer_capacity(1).with_workers(1);
        let slider = Slider::new(Arc::clone(&dict), Ruleset::rho_df(), config);
        slider.add_triples(&input);
        slider.wait_idle();
        prop_assert_eq!(slider.store().to_sorted_vec(), expected);
    }

    /// Incremental = batch on random soups and random chunkings.
    #[test]
    fn incremental_equals_batch(input in random_triples(60), chunk in 1usize..16) {
        let dict = Arc::new(Dictionary::new());
        let batch = Slider::new(Arc::clone(&dict), Ruleset::rho_df(), SliderConfig::default());
        batch.add_triples(&input);
        batch.wait_idle();

        let inc = Slider::new(Arc::clone(&dict), Ruleset::rho_df(), SliderConfig::default());
        for c in input.chunks(chunk) {
            inc.add_triples(c);
        }
        inc.wait_idle();
        prop_assert_eq!(batch.store().to_sorted_vec(), inc.store().to_sorted_vec());
    }

    /// Closures are monotone: a superset input yields a superset closure.
    #[test]
    fn closure_is_monotone(input in random_triples(50), extra in random_triples(10)) {
        let small = closure(Ruleset::rho_df(), &input);
        let mut combined = input.clone();
        combined.extend_from_slice(&extra);
        let big = closure(Ruleset::rho_df(), &combined);
        for t in small.iter() {
            prop_assert!(big.contains(t), "monotonicity violated for {}", t);
        }
    }

    /// The closure is a fixpoint: reclosing it adds nothing.
    #[test]
    fn closure_is_idempotent(input in random_triples(50)) {
        let first = closure(Ruleset::rho_df(), &input).to_sorted_vec();
        let second = closure(Ruleset::rho_df(), &first).to_sorted_vec();
        prop_assert_eq!(first, second);
    }
}

// ---------- properties of several Sliders on one dictionary ---------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Multi-tenant closure equality: three `Slider`s on ONE shared
    /// dictionary, each fed from its own thread, interleave adds, deferred
    /// retractions and flushes — with each engine's 1 ms deadline flushes
    /// racing its explicit ones — and each must land exactly on the
    /// closure of its own surviving explicit set, neither leaking triples
    /// across engines nor losing retractions.
    #[test]
    fn sessions_sharing_a_dictionary_match_their_oracles(
        soups in prop::collection::vec(random_triples(50), 3..4),
        chunk in 1usize..8,
    ) {
        use std::time::Duration;
        let dict = Arc::new(Dictionary::new());
        let config = SliderConfig::default()
            .with_workers(2)
            .with_maintenance_max_age(Some(Duration::from_millis(1)));
        let sessions: Vec<Slider> = (0..soups.len())
            .map(|_| Slider::new(Arc::clone(&dict), Ruleset::rho_df(), config.clone()))
            .collect();
        // Every second distinct triple is retracted again.
        let doomed: Vec<Vec<Triple>> = soups
            .iter()
            .map(|soup| {
                let mut seen = std::collections::HashSet::new();
                soup.iter()
                    .copied()
                    .filter(|t| seen.insert(*t))
                    .step_by(2)
                    .collect()
            })
            .collect();

        std::thread::scope(|scope| {
            for (i, ((session, soup), doomed)) in
                sessions.iter().zip(&soups).zip(&doomed).enumerate()
            {
                scope.spawn(move || {
                    for c in soup.chunks(chunk) {
                        session.add_triples(c);
                    }
                    session.wait_idle();
                    // Explicit flushes race the deadline-triggered ones.
                    for (round, c) in doomed.chunks(chunk).enumerate() {
                        session.apply(Op::Defer(c.to_vec()));
                        if (round + i) % 3 == 0 {
                            session.apply(Op::Flush);
                        }
                    }
                    session.apply(Op::Flush);
                    session.wait_idle();
                });
            }
        });

        for ((session, soup), doomed) in sessions.iter().zip(&soups).zip(&doomed) {
            let survivors: Vec<Triple> = soup
                .iter()
                .copied()
                .filter(|t| !doomed.contains(t))
                .collect();
            let expected = closure(Ruleset::rho_df(), &survivors).to_sorted_vec();
            prop_assert_eq!(
                session.store().to_sorted_vec(),
                expected,
                "a session on the shared dictionary diverged from its oracle"
            );
            prop_assert_eq!(session.stats().pending_removals, 0);
        }
    }
}

// ---------- store properties ----------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Store insertion is set semantics: count and membership match a
    /// reference HashSet regardless of duplicates and order.
    #[test]
    fn store_is_a_set(input in random_triples(120)) {
        let mut store = VerticalStore::new();
        let mut reference = std::collections::HashSet::new();
        for &t in &input {
            prop_assert_eq!(store.insert(t), reference.insert(t));
        }
        prop_assert_eq!(store.len(), reference.len());
        for &t in &input {
            prop_assert!(store.contains(t));
        }
        let mut via_iter: Vec<Triple> = store.iter().collect();
        via_iter.sort_unstable();
        let mut via_ref: Vec<Triple> = reference.into_iter().collect();
        via_ref.sort_unstable();
        prop_assert_eq!(via_iter, via_ref);
    }

    /// Pattern matching agrees with brute force for all 8 pattern shapes.
    #[test]
    fn patterns_agree_with_reference(input in random_triples(60), probe in random_triples(1)) {
        let store: VerticalStore = input.iter().copied().collect();
        let probe = probe.first().copied()
            .unwrap_or(Triple::new(NodeId(1000), NodeId(1001), NodeId(1002)));
        for mask in 0u8..8 {
            let pattern = TriplePattern::new(
                (mask & 1 != 0).then_some(probe.s),
                (mask & 2 != 0).then_some(probe.p),
                (mask & 4 != 0).then_some(probe.o),
            );
            let mut got = store.matches(pattern);
            got.sort_unstable();
            got.dedup();
            let mut want: Vec<Triple> =
                input.iter().copied().filter(|&t| pattern.matches(t)).collect();
            want.sort_unstable();
            want.dedup();
            prop_assert_eq!(got, want, "mask {}", mask);
        }
    }
}

// ---------- parser / dictionary round-trips --------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// write(term) then parse() is the identity, for arbitrary content
    /// including control characters, quotes and non-ASCII.
    #[test]
    fn ntriples_roundtrip(s in arbitrary_term(), o in arbitrary_term()) {
        // Subjects must be IRI/blank; predicates IRIs.
        let s = match s {
            Term::Literal(_) => Term::iri("http://e/s"),
            other => other,
        };
        let p = Term::iri("http://e/p");
        let triple = (s, p, o);
        let mut doc = String::new();
        slider::parser::write_triple(&mut doc, &triple);
        let parsed: Vec<TermTriple> = slider::parser::parse_ntriples_str(&doc)
            .collect::<Result<_, _>>()
            .map_err(|e| TestCaseError::fail(format!("{e} in {doc:?}")))?;
        prop_assert_eq!(parsed, vec![triple]);
    }

    /// Dictionary interning is a bijection on the interned set.
    #[test]
    fn dictionary_roundtrip(terms in prop::collection::vec(arbitrary_term(), 1..40)) {
        let dict = Dictionary::new();
        let ids: Vec<NodeId> = terms.iter().map(|t| dict.intern(t)).collect();
        for (term, &id) in terms.iter().zip(&ids) {
            let looked_up = dict.lookup(id);
            prop_assert_eq!(looked_up.as_ref(), Some(term));
            prop_assert_eq!(dict.id_of(term), Some(id));
        }
        // Distinct terms ↔ distinct ids.
        let distinct_terms: std::collections::HashSet<&Term> = terms.iter().collect();
        let distinct_ids: std::collections::HashSet<NodeId> = ids.iter().copied().collect();
        prop_assert_eq!(distinct_terms.len(), distinct_ids.len());
    }
}

// ---------- closure-size laws ----------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The subClassOf-chain law the paper builds its worst case on:
    /// closure size is exactly quadratic.
    #[test]
    fn chain_closure_size_law(n in 3usize..60) {
        let dict = Arc::new(Dictionary::new());
        let data = slider::workloads::chains::subclass_chain(n);
        let input = slider::workloads::encode_all(&data, &dict);
        let slider = Slider::new(Arc::clone(&dict), Ruleset::rho_df(), SliderConfig::default());
        slider.add_triples(&input);
        slider.wait_idle();
        let inferred = slider.store().len() - input.len();
        prop_assert_eq!(inferred, (n - 1) * (n - 2) / 2);
    }
}
