//! Dictionary sweeps never change what an id means. Ids are never reused,
//! and a sweep keeps every id something still holds: the live store, an
//! epoch a query pinned, the pending-retraction queue, and every id interned
//! before the ruleset was installed (the rules' constants among them). A
//! dictionary another engine shares is never swept.

use slider::baseline::RecomputeOracle;
use slider::model::vocab::RDF_TYPE;
use slider::prelude::*;
use slider::rules::RuleSpec;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

fn iri(name: &str) -> Term {
    Term::iri(format!("http://example.org/{name}"))
}

fn triple(s: &str, p: &str, o: &str) -> TermTriple {
    (iri(s), iri(p), iri(o))
}

/// Decodes and sorts every triple of `triples`, failing on an id the
/// dictionary no longer knows.
fn decoded(dict: &Dictionary, triples: Vec<Triple>) -> Vec<TermTriple> {
    let mut out: Vec<TermTriple> = triples
        .into_iter()
        .map(|t| {
            dict.decode_triple(t)
                .expect("an id held by a root was swept")
        })
        .collect();
    out.sort();
    out
}

/// A query pins an epoch; the triple is then retracted and swept, and a
/// fresh triple interned. The pinned epoch still decodes to its own terms.
#[test]
fn a_pinned_epoch_keeps_decoding_across_a_sweep() {
    let slider = Slider::fragment(Fragment::RhoDf, SliderConfig::batch());
    let dict = Arc::clone(slider.dict());
    let old = triple("a", "p", "b");
    slider.add_terms(std::slice::from_ref(&old));
    slider.wait_idle();
    let pinned = slider.store().snapshot();
    let seen = decoded(&dict, pinned.to_sorted_vec());
    assert_eq!(seen, vec![old.clone()]);

    assert_eq!(slider.remove_terms(std::slice::from_ref(&old)), 1);
    let outcome = slider.sweep_dictionary();
    slider.add_terms(&[triple("z", "y", "x")]);
    slider.wait_idle();
    assert_eq!(decoded(&dict, pinned.to_sorted_vec()), seen);
    assert_eq!(outcome.swept, 0, "the pinned epoch is a root");

    // Unpinned, the old terms go, and their ids stay unknown for good.
    let ids = pinned.to_sorted_vec()[0];
    drop(pinned);
    assert_eq!(slider.sweep_dictionary().swept, 3);
    assert_eq!(dict.decode_triple(ids), None);
    slider.add_terms(&[triple("q", "r", "s")]);
    assert_eq!(
        dict.decode_triple(ids),
        None,
        "a swept id was handed out again"
    );
}

/// Two engines share one dictionary: neither sweeps while the other is
/// attached, so the co-tenant's live triple keeps its terms.
#[test]
fn a_shared_dictionary_is_never_swept() {
    let dict = Arc::new(Dictionary::new());
    let engine = || Slider::new(Arc::clone(&dict), Ruleset::rho_df(), SliderConfig::batch());
    let (sweeper, tenant) = (engine(), engine());
    let theirs = triple("tenant-s", "tenant-p", "tenant-o");
    tenant.add_terms(std::slice::from_ref(&theirs));
    tenant.wait_idle();

    let outcome = sweeper.sweep_dictionary();
    sweeper.add_terms(&[triple("mine-s", "mine-p", "mine-o")]);
    sweeper.wait_idle();
    assert_eq!(decoded(&dict, tenant.store().to_sorted_vec()), vec![theirs]);
    assert!(outcome.skipped, "a sweep ran beside a co-tenant");
    assert_eq!((outcome.swept, sweeper.stats().dict_sweeps), (0, 0));

    // Once the co-tenant is gone, the survivor sweeps what only it held.
    drop(tenant);
    let outcome = sweeper.sweep_dictionary();
    assert!(!outcome.skipped);
    assert_eq!(outcome.swept, 3);
}

/// A custom ruleset over non-vocabulary constants: `anc` is transitive and
/// types its subjects as `Person`.
fn family(anc: NodeId, person: NodeId) -> Ruleset {
    Ruleset::custom("family")
        .with(RuleSpec::transitive("anc-trans", anc))
        .with(RuleSpec::domain("anc-dom", anc, RDF_TYPE, person))
}

/// Retracting every triple that mentions the rules' constants, then
/// sweeping, must not retire the constants: the rules keep matching when
/// the terms come back, and the closure equals the recompute oracle's.
#[test]
fn rule_constants_survive_a_sweep() {
    let dict = Arc::new(Dictionary::new());
    let (anc, person) = (dict.intern(&iri("anc")), dict.intern(&iri("Person")));
    let slider = Slider::new(
        Arc::clone(&dict),
        family(anc, person),
        SliderConfig::batch(),
    );
    let input = vec![triple("a", "anc", "b"), triple("b", "anc", "c")];
    slider.add_terms(&input);
    slider.wait_idle();
    assert_eq!(slider.remove_terms(&input), 2);
    let outcome = slider.sweep_dictionary();
    slider.add_terms(&input);
    slider.wait_idle();

    let oracle_dict = Dictionary::new();
    let mut oracle = RecomputeOracle::new(family(
        oracle_dict.intern(&iri("anc")),
        oracle_dict.intern(&iri("Person")),
    ));
    let encoded: Vec<Triple> = input.iter().map(|t| oracle_dict.encode_triple(t)).collect();
    oracle.add(&encoded);
    let closure = decoded(&oracle_dict, oracle.to_sorted_vec());
    assert_eq!(closure.len(), 5, "a anc c, a and b typed Person");
    assert_eq!(decoded(&dict, slider.store().to_sorted_vec()), closure);
    assert_eq!(outcome.swept, 3, "only a, b and c go");
    assert_eq!(dict.lookup(anc), Some(iri("anc")));
    assert_eq!(dict.lookup(person), Some(iri("Person")));
}

/// Queries take epochs and decode every triple in them while the engine
/// adds, retracts and sweeps round after round. The sweep reads the epoch
/// registry inside its exclusive section while the queries clone epochs:
/// every epoch a query gets must decode in full, each triple to the terms
/// of the round that added it.
#[test]
fn queries_racing_sweeps_always_decode_their_epochs() {
    let slider = Slider::fragment(Fragment::RhoDf, SliderConfig::batch().with_workers(1));
    let dict = Arc::clone(slider.dict());
    let (done, epochs) = (AtomicBool::new(false), AtomicUsize::new(0));
    std::thread::scope(|scope| {
        let query = scope.spawn(|| {
            while !done.load(Ordering::Acquire) {
                for (s, _, o) in decoded(&dict, slider.store().snapshot().to_sorted_vec()) {
                    let round = |t: &Term| t.to_string().split('-').nth(1).map(str::to_owned);
                    assert_eq!(round(&s), round(&o), "{s} was decoded beside {o}");
                }
                epochs.fetch_add(1, Ordering::Release);
            }
        });
        // Keep writing until the query has decoded at least one epoch, or
        // has failed.
        let mut round = 0;
        while round < 150 || (epochs.load(Ordering::Acquire) == 0 && !query.is_finished()) {
            let batch: Vec<TermTriple> = (0..8)
                .map(|i| triple(&format!("s-{round}-{i}"), "p", &format!("o-{round}-{i}")))
                .collect();
            slider.add_terms(&batch);
            slider.wait_idle();
            slider.remove_terms(&batch);
            slider.sweep_dictionary();
            round += 1;
        }
        done.store(true, Ordering::Release);
        query.join().unwrap();
    });
    assert!(slider.stats().dict_tombstones > 0, "nothing was ever swept");
}
