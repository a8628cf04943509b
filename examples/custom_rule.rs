//! Fragment customisation: plugging a user-defined rule into Slider.
//!
//! The paper: "Slider natively supports both ρdf and RDFS fragments, and
//! its architecture allows it to be further extended to any other
//! fragments" (via Java interfaces there; via the [`Rule`] trait here).
//!
//! We add the OWL rule `PRP-INV` (inverse properties):
//!
//! ```text
//! (p1 inverseOf p2), (x p1 y) ⊢ (y p2 x)
//! (p1 inverseOf p2), (x p2 y) ⊢ (y p1 x)
//! ```
//!
//! and watch the dependency graph wire it into the ρdf fragment.
//!
//! ```text
//! cargo run --release --example custom_rule
//! ```

use slider::prelude::*;
use slider::rules::{InputFilter, OutputSignature};
use slider::store::VerticalStore;
use std::sync::Arc;

const OWL_INVERSE_OF: &str = "http://www.w3.org/2002/07/owl#inverseOf";
const EX: &str = "http://example.org/family#";

/// `PRP-INV`: symmetric propagation through `owl:inverseOf`.
struct PrpInv {
    /// Dictionary id of `owl:inverseOf`, interned at construction.
    inverse_of: NodeId,
}

impl PrpInv {
    fn new(dict: &Dictionary) -> Self {
        PrpInv {
            inverse_of: dict.intern(&Term::iri(OWL_INVERSE_OF)),
        }
    }
}

impl Rule for PrpInv {
    fn name(&self) -> &'static str {
        "PRP-INV"
    }

    fn definition(&self) -> &'static str {
        "(p1 inverseOf p2), (x p1 y) ⊢ (y p2 x)  [and symmetrically]"
    }

    fn input_filter(&self) -> InputFilter {
        // The (x p1 y) atom has a variable predicate → universal input.
        InputFilter::Universal
    }

    fn output_signature(&self) -> OutputSignature {
        // The emitted predicate is a variable → universal output.
        OutputSignature::Universal
    }

    fn apply(&self, store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        for &t in delta {
            if t.p == self.inverse_of {
                // New schema: flip every existing fact using p1 or p2.
                for (x, y) in store.pairs(t.s) {
                    out.push(Triple::new(y, t.o, x));
                }
                for (x, y) in store.pairs(t.o) {
                    out.push(Triple::new(y, t.s, x));
                }
            }
            // New fact: flip through both directions of the schema.
            for p2 in store.objects_with(self.inverse_of, t.p) {
                out.push(Triple::new(t.o, p2, t.s));
            }
            for p1 in store.subjects_with(self.inverse_of, t.p) {
                out.push(Triple::new(t.o, p1, t.s));
            }
        }
    }
}

fn main() {
    let dict = Arc::new(Dictionary::new());

    // ρdf + our custom rule = a custom fragment.
    let mut ruleset = Ruleset::rho_df();
    ruleset.push(PrpInv::new(&dict));

    // The dependency graph wires PRP-INV automatically: it has universal
    // output, so it feeds every rule — and universal input, so every rule
    // feeds it.
    let graph = DependencyGraph::build(&ruleset);
    println!("dependency graph with the custom rule:");
    for i in 0..graph.len() {
        let succ: Vec<&str> = graph.successors(i).iter().map(|&j| graph.name(j)).collect();
        println!("  {:<10} -> {}", graph.name(i), succ.join(", "));
    }

    let slider = Slider::new(Arc::clone(&dict), ruleset, SliderConfig::default());

    // Family data: hasParent is inverseOf hasChild; hasParent is a
    // subProperty of relatedTo (so PRP-SPO1 composes with PRP-INV).
    let doc: Vec<TermTriple> = vec![
        (
            Term::iri(format!("{EX}hasParent")),
            Term::iri(OWL_INVERSE_OF),
            Term::iri(format!("{EX}hasChild")),
        ),
        (
            Term::iri(format!("{EX}hasParent")),
            Term::iri("http://www.w3.org/2000/01/rdf-schema#subPropertyOf"),
            Term::iri(format!("{EX}relatedTo")),
        ),
        (
            Term::iri(format!("{EX}ada")),
            Term::iri(format!("{EX}hasParent")),
            Term::iri(format!("{EX}byron")),
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

    // The inverse was derived …
    let byron = dict.id_of(&Term::iri(format!("{EX}byron"))).unwrap();
    let ada = dict.id_of(&Term::iri(format!("{EX}ada"))).unwrap();
    let has_child = dict.id_of(&Term::iri(format!("{EX}hasChild"))).unwrap();
    assert!(slider.store().contains(Triple::new(byron, has_child, ada)));
    // … and composed with the ρdf rules.
    let related_to = dict.id_of(&Term::iri(format!("{EX}relatedTo"))).unwrap();
    assert!(slider.store().contains(Triple::new(ada, related_to, byron)));
    println!("\nPRP-INV fired and composed with PRP-SPO1 — custom fragment works.");
}
