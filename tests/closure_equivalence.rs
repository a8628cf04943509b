//! Cross-engine closure equivalence: Slider (all configurations) must
//! compute exactly the closure the independent batch oracles compute, on
//! every workload family and both fragments.

use slider::baseline::{NaiveReasoner, SemiNaiveReasoner};
use slider::prelude::*;
use slider::workloads::{encode_all, PaperOntology};
use std::sync::Arc;
use std::time::Duration;

fn oracle_closure(dict: &Arc<Dictionary>, fragment: Fragment, input: &[Triple]) -> Vec<Triple> {
    let mut semi = SemiNaiveReasoner::new(Ruleset::fragment(fragment, dict));
    semi.materialize_all(input);
    let mut naive = NaiveReasoner::new(Ruleset::fragment(fragment, dict));
    naive.materialize_all(input);
    let a = semi.store().to_sorted_vec();
    let b = naive.store().to_sorted_vec();
    assert_eq!(
        a, b,
        "the two oracles disagree — bug in a rule or a baseline"
    );
    a
}

fn slider_closure(
    dict: &Arc<Dictionary>,
    fragment: Fragment,
    input: &[Triple],
    config: SliderConfig,
) -> Vec<Triple> {
    let slider = Slider::new(Arc::clone(dict), Ruleset::fragment(fragment, dict), config);
    slider.add_triples(input);
    slider.wait_idle();
    slider.store().to_sorted_vec()
}

fn check_ontology(ontology: PaperOntology, scale: f64) {
    let data = ontology.generate(scale);
    for fragment in [Fragment::RhoDf, Fragment::Rdfs] {
        let dict = Arc::new(Dictionary::new());
        let input = encode_all(&data, &dict);
        let expected = oracle_closure(&dict, fragment, &input);
        let got = slider_closure(&dict, fragment, &input, SliderConfig::default());
        assert_eq!(got, expected, "{ontology} under {fragment}");
    }
}

#[test]
fn bsbm_family() {
    check_ontology(PaperOntology::Bsbm100k, 0.02);
}

#[test]
fn wikipedia_family() {
    check_ontology(PaperOntology::Wikipedia, 0.01);
}

#[test]
fn wordnet_family() {
    check_ontology(PaperOntology::Wordnet, 0.01);
}

#[test]
fn chain_family() {
    check_ontology(PaperOntology::SubClassOf50, 1.0);
}

/// Table 1's chain rows are exact: `(n−1)(n−2)/2` inferred under ρdf.
#[test]
fn chain_inferred_counts_match_table1() {
    for (ontology, n) in [
        (PaperOntology::SubClassOf10, 10usize),
        (PaperOntology::SubClassOf20, 20),
        (PaperOntology::SubClassOf50, 50),
        (PaperOntology::SubClassOf100, 100),
    ] {
        let dict = Arc::new(Dictionary::new());
        let input = encode_all(&ontology.generate(1.0), &dict);
        let slider = Slider::new(
            Arc::clone(&dict),
            Ruleset::rho_df(),
            SliderConfig::default(),
        );
        slider.add_triples(&input);
        slider.wait_idle();
        let inferred = slider.store().len() - input.len();
        assert_eq!(
            inferred,
            (n - 1) * (n - 2) / 2,
            "{ontology}: paper Table 1 count"
        );
    }
}

/// The closure must be identical across extreme reasoner configurations —
/// buffer size and pool size affect performance, never the result.
#[test]
fn configuration_independence() {
    let data = PaperOntology::Bsbm100k.generate(0.01);
    let configs = [
        SliderConfig::default(),
        SliderConfig::default().with_buffer_capacity(1),
        SliderConfig::default().with_buffer_capacity(100_000),
        SliderConfig::default().with_workers(1),
        SliderConfig::default().with_workers(16),
        SliderConfig::batch(),
        SliderConfig::default().with_timeout(Some(Duration::from_millis(1))),
        SliderConfig::default().with_trace(true),
    ];
    for fragment in [Fragment::RhoDf, Fragment::Rdfs] {
        let mut closures = Vec::new();
        for config in &configs {
            let dict = Arc::new(Dictionary::new());
            let input = encode_all(&data, &dict);
            closures.push(slider_closure(&dict, fragment, &input, config.clone()));
        }
        for (i, closure) in closures.iter().enumerate() {
            assert_eq!(
                closure, &closures[0],
                "config #{i} disagrees under {fragment}"
            );
        }
    }
}

/// ρdf ⊆ RDFS: everything ρdf infers, RDFS infers too.
#[test]
fn rho_df_is_subset_of_rdfs() {
    let data = PaperOntology::Bsbm100k.generate(0.01);
    let dict = Arc::new(Dictionary::new());
    let input = encode_all(&data, &dict);
    let rho = slider_closure(&dict, Fragment::RhoDf, &input, SliderConfig::default());
    let rdfs = slider_closure(&dict, Fragment::Rdfs, &input, SliderConfig::default());
    let rdfs_set: std::collections::HashSet<Triple> = rdfs.iter().copied().collect();
    for t in rho {
        assert!(rdfs_set.contains(&t), "RDFS closure is missing {t}");
    }
}

/// Materialisation is idempotent: re-feeding the closure infers nothing.
#[test]
fn closure_is_a_fixpoint() {
    let data = PaperOntology::Wikipedia.generate(0.005);
    let dict = Arc::new(Dictionary::new());
    let input = encode_all(&data, &dict);
    let closure = slider_closure(&dict, Fragment::Rdfs, &input, SliderConfig::default());

    let slider = Slider::new(
        Arc::clone(&dict),
        Ruleset::rdfs(&dict),
        SliderConfig::default(),
    );
    slider.add_triples(&closure);
    slider.wait_idle();
    assert_eq!(slider.store().len(), closure.len());
}
