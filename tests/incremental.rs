//! Incremental-mode guarantees: streamed ingestion reaches exactly the
//! batch closure, regardless of chunking, ordering, or interleaved waits.

use slider::prelude::*;
use slider::workloads::{encode_all, stream, PaperOntology};
use std::sync::Arc;
use std::time::Duration;

fn batch_closure(dict: &Arc<Dictionary>, fragment: Fragment, input: &[Triple]) -> Vec<Triple> {
    let slider = Slider::new(
        Arc::clone(dict),
        Ruleset::fragment(fragment, dict),
        SliderConfig::default(),
    );
    slider.add_triples(input);
    slider.wait_idle();
    slider.store().to_sorted_vec()
}

#[test]
fn chunked_ingestion_matches_batch() {
    let data = PaperOntology::Bsbm100k.generate(0.01);
    for chunk_size in [1usize, 7, 64, 1024] {
        let dict = Arc::new(Dictionary::new());
        let input = encode_all(&data, &dict);
        let expected = batch_closure(&dict, Fragment::RhoDf, &input);

        let dict2 = Arc::new(Dictionary::new());
        let input2 = encode_all(&data, &dict2);
        let slider = Slider::new(
            Arc::clone(&dict2),
            Ruleset::rho_df(),
            SliderConfig::default(),
        );
        for chunk in input2.chunks(chunk_size) {
            slider.add_triples(chunk);
        }
        slider.wait_idle();
        assert_eq!(
            slider.store().to_sorted_vec(),
            expected,
            "chunk size {chunk_size}"
        );
    }
}

#[test]
fn wait_idle_between_chunks_matches_batch() {
    // The hardest incremental discipline: full quiescence between chunks
    // (closure of prefix, then extend). Schema arrives *last*.
    let dict = Arc::new(Dictionary::new());
    let schema = encode_all(&PaperOntology::SubClassOf50.generate(1.0), &dict);
    let (types, rest) = schema.split_at(schema.len() / 2);

    let expected = {
        let all: Vec<Triple> = schema.to_vec();
        batch_closure(&dict, Fragment::RhoDf, &all)
    };

    let slider = Slider::new(
        Arc::clone(&dict),
        Ruleset::rho_df(),
        SliderConfig::default(),
    );
    slider.add_triples(rest);
    slider.wait_idle();
    slider.add_triples(types);
    slider.wait_idle();
    assert_eq!(slider.store().to_sorted_vec(), expected);
}

#[test]
fn reversed_and_shuffled_order_reach_same_closure() {
    let data = PaperOntology::Wikipedia.generate(0.003);
    let dict = Arc::new(Dictionary::new());
    let input = encode_all(&data, &dict);
    let expected = batch_closure(&dict, Fragment::RhoDf, &input);

    // Reversed.
    let slider = Slider::new(
        Arc::clone(&dict),
        Ruleset::rho_df(),
        SliderConfig::default(),
    );
    let mut reversed = input.clone();
    reversed.reverse();
    slider.add_triples(&reversed);
    slider.wait_idle();
    assert_eq!(slider.store().to_sorted_vec(), expected, "reversed");

    // Deterministically shuffled (multiplicative stride).
    let slider = Slider::new(
        Arc::clone(&dict),
        Ruleset::rho_df(),
        SliderConfig::default(),
    );
    let n = input.len();
    let stride = 7919usize; // prime ≫ any small factor of n
    for k in 0..n {
        slider.add_triples(&[input[(k * stride) % n]]);
    }
    slider.wait_idle();
    assert_eq!(slider.store().to_sorted_vec(), expected, "shuffled");
}

#[test]
fn duplicate_stream_converges() {
    // The same data fed three times: second and third passes are no-ops.
    let data = PaperOntology::Wordnet.generate(0.005);
    let dict = Arc::new(Dictionary::new());
    let input = encode_all(&data, &dict);
    let slider = Slider::new(
        Arc::clone(&dict),
        Ruleset::rdfs(&dict),
        SliderConfig::default(),
    );
    slider.add_triples(&input);
    slider.wait_idle();
    let first = slider.store().len();
    for _ in 0..2 {
        slider.add_triples(&input);
        slider.wait_idle();
    }
    assert_eq!(slider.store().len(), first);
    let stats = slider.stats();
    assert_eq!(stats.input_received, 3 * input.len() as u64);
    assert_eq!(stats.input_fresh, first as u64 - stats.total_inferred());
}

#[test]
fn timed_stream_with_background_knowledge() {
    // The paper's headline scenario: static background + arriving facts.
    let dict = Arc::new(Dictionary::new());
    let background = encode_all(&PaperOntology::SubClassOf20.generate(1.0), &dict);

    // Facts typed with the deepest chain class: each must climb 19 levels.
    let deepest = dict.intern(&Term::iri("http://slider.example.org/chain#20"));
    let rdf_type = slider::model::vocab::RDF_TYPE;
    let facts: Vec<Triple> = (0..50)
        .map(|i| {
            Triple::new(
                dict.intern(&Term::iri(format!("http://e/x{i}"))),
                rdf_type,
                deepest,
            )
        })
        .collect();

    let config = SliderConfig::default()
        .with_buffer_capacity(8)
        .with_timeout(Some(Duration::from_millis(2)));
    let slider = Slider::new(Arc::clone(&dict), Ruleset::rho_df(), config);
    slider.add_triples(&background);
    slider.wait_idle();

    // Stream in timed batches without ever calling wait_idle in between.
    let decoded: Vec<TermTriple> = facts
        .iter()
        .map(|&t| dict.decode_triple(t).unwrap())
        .collect();
    let timed = stream::TimedStream::uniform(&decoded, 5, Duration::from_millis(3));
    timed.play(|batch| {
        slider.add_terms(batch);
    });
    slider.wait_idle();

    // Every fact instance is now typed with all 20 chain classes.
    let store = slider.store().snapshot();
    for i in 0..50 {
        let x = dict.id_of(&Term::iri(format!("http://e/x{i}"))).unwrap();
        assert_eq!(store.objects_with(rdf_type, x).count(), 20, "instance {i}");
    }
}

#[test]
fn monotonicity_store_never_shrinks() {
    let data = PaperOntology::Bsbm100k.generate(0.005);
    let dict = Arc::new(Dictionary::new());
    let input = encode_all(&data, &dict);
    let slider = Slider::new(
        Arc::clone(&dict),
        Ruleset::rdfs(&dict),
        SliderConfig::default(),
    );
    let mut last = 0usize;
    for chunk in input.chunks(100) {
        slider.add_triples(chunk);
        let now = slider.store().len();
        assert!(now >= last, "store shrank: {last} → {now}");
        last = now;
    }
    slider.wait_idle();
    assert!(slider.store().len() >= last);
}
