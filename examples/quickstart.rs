//! Quickstart: load a small Turtle ontology, materialise it under RDFS,
//! and inspect what was inferred.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use slider::prelude::*;

const ZOO: &str = r#"
@prefix rdf:  <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix zoo:  <http://example.org/zoo#> .

# Terminology (T-Box)
zoo:Cat     rdfs:subClassOf zoo:Feline .
zoo:Feline  rdfs:subClassOf zoo:Carnivore .
zoo:Carnivore rdfs:subClassOf zoo:Animal .
zoo:hasKeeper rdfs:domain zoo:Animal ;
              rdfs:range  zoo:Keeper .
zoo:hasHeadKeeper rdfs:subPropertyOf zoo:hasKeeper .

# Assertions (A-Box)
zoo:felix a zoo:Cat ;
          zoo:hasHeadKeeper zoo:alice ;
          rdfs:label "Felix the cat" .
"#;

fn main() {
    // 1. A reasoner over the RDFS fragment, default tuning (buffer 1024,
    //    20 ms timeout, one worker per core).
    let slider = Slider::fragment(Fragment::Rdfs, SliderConfig::default());

    // 2. Parse and feed. `add_terms` is the paper's input manager: terms
    //    are dictionary-encoded, duplicates dropped, new triples routed to
    //    the rule buffers.
    let triples: Vec<TermTriple> = slider::parser::parse_turtle_str(ZOO)
        .collect::<Result<_, _>>()
        .expect("ZOO parses");
    let fresh = slider.add_terms(&triples);
    println!("loaded {fresh} explicit triples");

    // 3. Wait for the fixpoint.
    slider.wait_idle();

    // 4. Everything in one store: explicit + inferred.
    let stats = slider.stats();
    println!(
        "materialised: {} triples total, {} inferred\n",
        stats.store_size,
        stats.total_inferred()
    );

    // 5. Ask a question through the pattern API: what is felix?
    let dict = slider.dict();
    let felix = dict
        .id_of(&Term::iri("http://example.org/zoo#felix"))
        .unwrap();
    let rdf_type = slider::model::vocab::RDF_TYPE;
    let store = slider.store().snapshot();
    let mut classes: Vec<String> = store
        .objects_with(rdf_type, felix)
        .map(|c| dict.lookup(c).unwrap().to_string())
        .collect();
    classes.sort();
    println!("felix is an instance of:");
    for class in classes {
        println!("  {class}");
    }

    // 6. And the per-rule activity report (the §4 demo counters).
    println!("\nper-rule activity:\n{stats}");
}
