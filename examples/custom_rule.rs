//! Fragment customisation: plugging a user-defined rule into Slider.
//!
//! The paper: "Slider natively supports both ρdf and RDFS fragments, and
//! its architecture allows it to be further extended to any other
//! fragments" (via Java interfaces there). Here a rule is data: a
//! [`RuleSpec`] of triple patterns, which one join evaluator runs forward
//! (semi-naive, as the built-ins) and backward (for retraction). We add a
//! rule no fragment ships:
//!
//! ```text
//! (x hasParent y), (y hasBrother z) ⊢ (x hasUncle z)
//! ```
//!
//! and watch the dependency graph wire it into the ρdf fragment.
//!
//! ```text
//! cargo run --release --example custom_rule
//! ```

use slider::prelude::*;
use slider::rules::{Atom, RuleSpec};
use std::sync::Arc;

const EX: &str = "http://example.org/family#";

fn main() {
    let dict = Arc::new(Dictionary::new());
    let iri = |name: &str| Term::iri(format!("{EX}{name}"));
    let [parent, brother, uncle] =
        ["hasParent", "hasBrother", "hasUncle"].map(|p| dict.intern(&iri(p)));

    // The rule's constants are term ids, interned before it is built.
    let uncle_rule = RuleSpec::new(
        "UNCLE",
        "(x hasParent y), (y hasBrother z) ⊢ (x hasUncle z)",
    )
    .clause(
        [Atom::new("x", parent, "y"), Atom::new("y", brother, "z")],
        [Atom::new("x", uncle, "z")],
    );

    // ρdf + our custom rule = a custom fragment.
    let mut ruleset = Ruleset::rho_df();
    ruleset.push(uncle_rule);

    // The dependency graph wires UNCLE from its clauses alone: it reads
    // only hasParent/hasBrother triples, so only PRP-SPO1 (universal
    // output) feeds it, and it feeds the universal-input rules.
    let graph = DependencyGraph::build(&ruleset);
    println!("dependency graph with the custom rule:");
    for i in 0..graph.len() {
        let succ: Vec<&str> = graph.successors(i).iter().map(|&j| graph.name(j)).collect();
        println!("  {:<10} -> {}", graph.name(i), succ.join(", "));
    }

    let slider = Slider::new(Arc::clone(&dict), ruleset, SliderConfig::default());

    // Family data: hasUncle is a subProperty of relatedTo, so PRP-SPO1
    // composes with UNCLE.
    let doc: Vec<TermTriple> = vec![
        (iri("ada"), iri("hasParent"), iri("byron")),
        (iri("byron"), iri("hasBrother"), iri("george")),
        (
            iri("hasUncle"),
            Term::iri("http://www.w3.org/2000/01/rdf-schema#subPropertyOf"),
            iri("relatedTo"),
        ),
    ];
    slider.add_terms(&doc);
    slider.wait_idle();

    println!("\nmaterialised {} triples:", slider.store().len());
    let mut lines: Vec<String> = slider
        .store()
        .to_sorted_vec()
        .into_iter()
        .map(|t| format!("  {}", dict.format_triple(t)))
        .collect();
    lines.sort();
    for line in &lines {
        println!("{line}");
    }

    let id = |name: &str| dict.id_of(&iri(name)).unwrap();
    // The uncle was derived …
    let ada_uncle = Triple::new(id("ada"), uncle, id("george"));
    assert!(slider.store().contains(ada_uncle));
    // … and composed with the ρdf rules.
    assert!(slider
        .store()
        .contains(Triple::new(id("ada"), id("relatedTo"), id("george"))));

    // Retraction runs the rule backward: with the brother link gone, the
    // uncle (and what it implied) is retracted.
    slider.remove_terms(&doc[1..2]);
    assert!(!slider.store().contains(ada_uncle));
    println!("\nUNCLE fired, composed with PRP-SPO1 and retracted — custom fragment works.");
}
