//! End-to-end pipeline tests: text → parser → dictionary → reasoner →
//! serializer → text, across formats and fragments.

use slider::parser::{self, Format};
use slider::prelude::*;
use slider::workloads::{to_ntriples, PaperOntology};
use std::sync::Arc;

#[test]
fn turtle_and_ntriples_agree_end_to_end() {
    let ttl = r#"
        @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
        @prefix ex:   <http://example.org/> .
        ex:A rdfs:subClassOf ex:B .
        ex:B rdfs:subClassOf ex:C .
        ex:x a ex:A ;
             ex:knows ex:y , ex:z .
    "#;
    let from_ttl: Vec<TermTriple> = parser::parse_turtle_str(ttl)
        .collect::<Result<_, _>>()
        .unwrap();
    // Serialise to N-Triples and parse back: same triples.
    let nt = to_ntriples(&from_ttl);
    let from_nt: Vec<TermTriple> = parser::parse_ntriples_str(&nt)
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(from_ttl, from_nt);

    // Same closure whichever syntax fed the reasoner.
    let close = |triples: &[TermTriple]| {
        let slider = Slider::fragment(Fragment::RhoDf, SliderConfig::default());
        slider.add_terms(triples);
        slider.wait_idle();
        let dict = slider.dict();
        let mut out: Vec<String> = slider
            .store()
            .to_sorted_vec()
            .into_iter()
            .map(|t| dict.format_triple(t))
            .collect();
        out.sort();
        out
    };
    assert_eq!(close(&from_ttl), close(&from_nt));
}

#[test]
fn closure_serialises_and_reloads_as_fixpoint() {
    // Materialise a generated ontology and write the closure to N-Triples.
    // The RDFS closure contains *generalised* triples (literal subjects,
    // from rdfs1) that valid N-Triples cannot carry — exactly the triples
    // a reasoner re-derives for free. So: serialise the valid-RDF subset,
    // reload it, and check the reasoner reconstructs the full closure.
    let data = PaperOntology::Bsbm100k.generate(0.005);
    let slider = Slider::fragment(Fragment::Rdfs, SliderConfig::default());
    slider.add_terms(&data);
    slider.wait_idle();

    let dict = slider.dict();
    let mut generalised = 0usize;
    let closure_text = {
        let mut text = String::new();
        for t in slider.store().to_sorted_vec() {
            if dict.is_literal(t.s) {
                generalised += 1;
                continue;
            }
            let decoded = dict.decode_triple(t).expect("closure decodes");
            parser::write_triple(&mut text, &decoded);
        }
        text
    };
    let closure_size = slider.store().len();
    assert!(
        generalised > 0,
        "RDFS closure should contain rdfs1 conclusions"
    );

    let reloaded = Slider::fragment(Fragment::Rdfs, SliderConfig::default());
    let triples: Vec<TermTriple> = parser::parse_ntriples_str(&closure_text)
        .collect::<Result<_, _>>()
        .unwrap();
    reloaded.add_terms(&triples);
    reloaded.wait_idle();
    assert_eq!(reloaded.store().len(), closure_size);
    assert_eq!(
        reloaded.inferred_count() as usize,
        generalised,
        "only the generalised triples are re-derived"
    );
}

#[test]
fn format_dispatch_loads_both_syntaxes() {
    let nt = "<http://e/s> <http://e/p> <http://e/o> .\n";
    let ttl = "@prefix e: <http://e/> . e:s e:p e:o .\n";
    let a: Vec<TermTriple> = parser::parse(std::io::Cursor::new(nt.to_owned()), Format::NTriples)
        .collect::<Result<_, _>>()
        .unwrap();
    let b: Vec<TermTriple> = parser::parse(std::io::Cursor::new(ttl.to_owned()), Format::Turtle)
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(a, b);
}

#[test]
fn malformed_input_reports_position_not_panic() {
    let bad = "<http://e/s> <http://e/p> <http://e/o> .\nthis is not a triple\n";
    let result: Result<Vec<TermTriple>, _> = parser::parse_ntriples_str(bad).collect();
    let err = result.unwrap_err();
    assert_eq!(err.line, 2);
}

#[test]
fn generated_ontologies_are_valid_ntriples() {
    for ontology in [
        PaperOntology::Bsbm100k,
        PaperOntology::Wikipedia,
        PaperOntology::Wordnet,
        PaperOntology::SubClassOf20,
    ] {
        let data = ontology.generate(0.002);
        let text = to_ntriples(&data);
        let parsed: Vec<TermTriple> = parser::parse_ntriples_str(&text)
            .collect::<Result<_, _>>()
            .unwrap_or_else(|e| panic!("{ontology}: {e}"));
        assert_eq!(parsed, data, "{ontology} must round-trip");
    }
}

#[test]
fn stats_accounting_closes_the_books() {
    // input_fresh + Σ fresh-per-rule = store size, on a workload that
    // exercises every ρdf rule.
    let dict = Arc::new(Dictionary::new());
    let ttl = r#"
        @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
        @prefix ex:   <http://example.org/> .
        ex:A rdfs:subClassOf ex:B . ex:B rdfs:subClassOf ex:C .
        ex:p rdfs:subPropertyOf ex:q . ex:q rdfs:subPropertyOf ex:r .
        ex:q rdfs:domain ex:A . ex:q rdfs:range ex:B .
        ex:x ex:p ex:y .
    "#;
    let triples: Vec<TermTriple> = parser::parse_turtle_str(ttl)
        .collect::<Result<_, _>>()
        .unwrap();
    let slider = Slider::new(
        Arc::clone(&dict),
        Ruleset::rho_df(),
        SliderConfig::default(),
    );
    slider.add_terms(&triples);
    slider.wait_idle();

    let stats = slider.stats();
    assert_eq!(
        stats.store_size as u64,
        stats.input_fresh + stats.total_inferred(),
        "{stats}"
    );
    // Every ρdf rule contributed at least one conclusion here except the
    // schema-only dom/rng propagators which contribute via ex:p ⊑ ex:q.
    let by_name = |name: &str| stats.rules.iter().find(|r| r.name == name).unwrap();
    assert!(by_name("CAX-SCO").fresh > 0);
    assert!(by_name("SCM-SCO").fresh > 0);
    assert!(by_name("SCM-SPO").fresh > 0);
    assert!(by_name("SCM-DOM2").fresh > 0);
    assert!(by_name("SCM-RNG2").fresh > 0);
    assert!(by_name("PRP-DOM").fresh > 0);
    assert!(by_name("PRP-RNG").fresh > 0);
    assert!(by_name("PRP-SPO1").fresh > 0);
}

#[test]
fn axiomatic_triples_extend_the_closure_consistently() {
    let dict = Arc::new(Dictionary::new());
    let input: Vec<Triple> = slider::rules::axiomatic_triples();
    let slider = Slider::new(
        Arc::clone(&dict),
        Ruleset::rdfs(&dict),
        SliderConfig::default(),
    );
    slider.add_triples(&input);
    slider.wait_idle();
    // The axioms self-describe the vocabulary; closure must terminate and
    // agree with the oracle.
    let expected = slider::baseline::closure(Ruleset::rdfs(&dict), &input).to_sorted_vec();
    assert_eq!(slider.store().to_sorted_vec(), expected);
}

#[test]
fn cli_reads_a_ttl_file_as_turtle_without_format() {
    let ttl = "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
               @prefix ex: <http://example.org/> .\n\
               ex:A rdfs:subClassOf ex:B .\n\
               ex:x a ex:A .\n";
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_no_format.ttl");
    std::fs::write(&path, ttl).unwrap();
    let materialize = |extra: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_slider_cli"))
            .arg("materialize")
            .arg(&path)
            .args(["--fragment", "rho-df"])
            .args(extra)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{extra:?}: {stderr}");
        String::from_utf8(out.stdout).unwrap()
    };
    let inferred = materialize(&[]);
    assert_eq!(inferred, materialize(&["--format", "ttl"]));
    assert!(inferred.contains(
        "<http://example.org/x> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> \
         <http://example.org/B> ."
    ));
}
