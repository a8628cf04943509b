//! End-to-end tests of one reasoning session: a [`Slider`] driven through
//! its public surface, across the engine, its rule modules and its
//! maintenance sections.

use crate::maintenance;
use crate::{EventKind, Op, Slider, SliderConfig};
use slider_baseline::closure;
use slider_model::vocab::{RDFS_DOMAIN, RDFS_SUB_CLASS_OF, RDFS_SUB_PROPERTY_OF, RDF_TYPE};
use slider_model::NodeId;
use slider_model::{Dictionary, TermTriple, Triple};
use slider_rules::{DependencyGraph, Fragment, InputFilter, OutputSignature, Rule, Ruleset};
use slider_store::VerticalStore;
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Duration;

fn n(v: u64) -> NodeId {
    NodeId(1000 + v)
}
fn sco(a: u64, b: u64) -> Triple {
    Triple::new(n(a), RDFS_SUB_CLASS_OF, n(b))
}
fn ty(a: u64, b: u64) -> Triple {
    Triple::new(n(a), RDF_TYPE, n(b))
}

fn chain(k: u64) -> Vec<Triple> {
    (1..k).map(|i| sco(i, i + 1)).collect()
}

fn rho_slider(config: SliderConfig) -> Slider {
    let dict = Arc::new(Dictionary::new());
    Slider::new(dict, Ruleset::rho_df(), config)
}

/// Feeds a batch and waits for its closure.
fn materialize(slider: &Slider, triples: &[Triple]) {
    slider.add_triples(triples);
    slider.wait_idle();
}

#[test]
fn closure_matches_oracle_on_chain() {
    let input = chain(30);
    let slider = rho_slider(SliderConfig::default());
    materialize(&slider, &input);
    let oracle = closure(Ruleset::rho_df(), &input);
    assert_eq!(slider.store().to_sorted_vec(), oracle.to_sorted_vec());
}

#[test]
fn closure_matches_oracle_mixed_schema() {
    let input = vec![
        sco(1, 2),
        sco(2, 3),
        ty(9, 1),
        Triple::new(n(5), RDFS_SUB_PROPERTY_OF, n(6)),
        Triple::new(n(6), RDFS_DOMAIN, n(2)),
        Triple::new(n(7), n(5), n(8)),
    ];
    let slider = rho_slider(SliderConfig::default());
    materialize(&slider, &input);
    let oracle = closure(Ruleset::rho_df(), &input);
    assert_eq!(slider.store().to_sorted_vec(), oracle.to_sorted_vec());
    assert!(slider.store().contains(ty(7, 3)));
}

#[test]
fn rdfs_fragment_closure_matches_oracle() {
    let dict = Arc::new(Dictionary::new());
    let input = vec![sco(1, 2), ty(9, 1), Triple::new(n(1), RDF_TYPE, NodeId(7))];
    let slider = Slider::new(
        Arc::clone(&dict),
        Ruleset::rdfs(&dict),
        SliderConfig::default(),
    );
    materialize(&slider, &input);
    let oracle = closure(Ruleset::rdfs(&dict), &input);
    assert_eq!(slider.store().to_sorted_vec(), oracle.to_sorted_vec());
}

#[test]
fn incremental_equals_batch() {
    let input = chain(40);
    let batch = rho_slider(SliderConfig::default());
    materialize(&batch, &input);

    let inc = rho_slider(SliderConfig::default());
    for chunk in input.chunks(3) {
        inc.add_triples(chunk);
    }
    inc.wait_idle();
    assert_eq!(batch.store().to_sorted_vec(), inc.store().to_sorted_vec());
}

#[test]
fn tiny_buffers_and_single_worker() {
    let input = chain(25);
    let config = SliderConfig::default()
        .with_buffer_capacity(1)
        .with_workers(1);
    let slider = rho_slider(config);
    materialize(&slider, &input);
    let oracle = closure(Ruleset::rho_df(), &input);
    assert_eq!(slider.store().to_sorted_vec(), oracle.to_sorted_vec());
}

#[test]
fn huge_buffers_rely_on_wait_idle_flush() {
    let input = chain(25);
    let config = SliderConfig::batch().with_buffer_capacity(1_000_000); // never fills
    let slider = rho_slider(config);
    materialize(&slider, &input);
    let oracle = closure(Ruleset::rho_df(), &input);
    assert_eq!(slider.store().to_sorted_vec(), oracle.to_sorted_vec());
}

#[test]
fn timeout_drives_progress_without_explicit_flush() {
    let config = SliderConfig::default()
        .with_buffer_capacity(1_000_000) // full-flush can never trigger
        .with_timeout(Some(Duration::from_millis(2)));
    let slider = rho_slider(config);
    slider.add_triples(&[sco(1, 2), sco(2, 3)]);
    // Poll: the pool's timeout tick must eventually produce (1 sco 3).
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !slider.store().contains(sco(1, 3)) {
        assert!(
            std::time::Instant::now() < deadline,
            "timeout flush never fired"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = slider.stats();
    assert!(stats.rules.iter().any(|r| r.timeout_flushes > 0));
}

/// The threads rule instances ran on.
type Threads = Arc<std::sync::Mutex<HashSet<ThreadId>>>;

/// Runs its rule, recording the thread each rule instance ran on.
struct Probe(Arc<dyn Rule>, Threads);

impl Rule for Probe {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn definition(&self) -> &'static str {
        self.0.definition()
    }
    fn input_filter(&self) -> InputFilter {
        self.0.input_filter()
    }
    fn output_signature(&self) -> OutputSignature {
        self.0.output_signature()
    }
    fn apply(&self, store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        self.1.lock().unwrap().insert(std::thread::current().id());
        self.0.apply(store, delta, out);
    }
    fn derives(&self, store: &VerticalStore, t: Triple) -> bool {
        self.0.derives(store, t)
    }
}

/// A ρdf engine whose every rule is a [`Probe`], and the threads they ran on.
fn probed_slider(config: SliderConfig) -> (Slider, Threads) {
    let threads = Threads::default();
    let native = Ruleset::rho_df();
    let probed = native
        .rules()
        .iter()
        .fold(Ruleset::custom(native.name()), |set, rule| {
            set.with(Probe(Arc::clone(rule), Arc::clone(&threads)))
        });
    let slider = Slider::new(Arc::new(Dictionary::new()), probed, config);
    (slider, threads)
}

/// Help-first: the partial buffers `wait_idle` flushes wake no worker,
/// and their successors fill no buffer here, so with the worker asleep
/// every rule instance runs on the waiting thread.
#[test]
fn wait_idle_runs_its_own_jobs_without_waking_the_pool() {
    let (slider, threads) = probed_slider(SliderConfig::batch().with_workers(1));
    // No tick in batch mode: once asleep, only a wake gives the worker work.
    while slider.engine.work.idle_workers() == 0 {
        std::thread::yield_now();
    }
    let mut input = chain(30);
    input.extend((100..110).map(|i| ty(i, 1)));
    materialize(&slider, &input); // far below the buffer capacity
    let oracle = closure(Ruleset::rho_df(), &input);
    assert_eq!(slider.store().to_sorted_vec(), oracle.to_sorted_vec());
    assert!(slider.stats().rules.iter().map(|r| r.fired).sum::<u64>() > 1);
    let me = HashSet::from([std::thread::current().id()]);
    assert_eq!(*threads.lock().unwrap(), me, "a rule ran off the caller");
}

/// A buffer that fills in `add` still wakes the pool: without any
/// `wait_idle`, the worker runs the instances to the closure.
#[test]
fn a_full_buffer_wakes_the_pool_without_wait_idle() {
    let capacity = 64;
    let config = SliderConfig::batch()
        .with_workers(1)
        .with_buffer_capacity(capacity);
    let (slider, threads) = probed_slider(config);
    // One edge and a buffer's worth of instances: each type-consuming
    // buffer fills, and so does each with their `ty(_, 2)` conclusions.
    let mut input = vec![sco(1, 2)];
    input.extend((0..capacity as u64).map(|i| ty(100 + i, 1)));
    slider.add_triples(&input);
    let oracle = closure(Ruleset::rho_df(), &input).to_sorted_vec();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while slider.store().len() < oracle.len() {
        assert!(
            std::time::Instant::now() < deadline,
            "the worker never ran the full buffers"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(slider.store().to_sorted_vec(), oracle);
    let threads = threads.lock().unwrap();
    assert!(!threads.is_empty());
    assert!(!threads.contains(&std::thread::current().id()));
}

#[test]
fn duplicate_input_is_dropped() {
    let slider = rho_slider(SliderConfig::default());
    assert_eq!(slider.add_triples(&[sco(1, 2), sco(1, 2)]), 1);
    assert_eq!(slider.add_triples(&[sco(1, 2)]), 0);
    slider.wait_idle();
    let stats = slider.stats();
    assert_eq!(stats.input_received, 3);
    assert_eq!(stats.input_fresh, 1);
}

#[test]
fn stats_are_consistent_with_store() {
    let input = chain(20);
    let slider = rho_slider(SliderConfig::default());
    materialize(&slider, &input);
    let stats = slider.stats();
    assert_eq!(
        stats.store_size as u64,
        stats.input_fresh + stats.total_inferred(),
        "store = input + inferred\n{stats}"
    );
    // Chain closure: 19 explicit + 171 inferred = C(20,2).
    assert_eq!(stats.total_inferred(), 171);
    assert!(stats.total_fired() > 0);
}

#[test]
fn trace_records_lifecycle() {
    let input = chain(10);
    let slider = rho_slider(SliderConfig::default().with_trace(true));
    materialize(&slider, &input);
    let events = slider.events().expect("tracing enabled");
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::Input { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::RuleFired { .. })));
    assert!(matches!(
        events.last().unwrap().kind,
        EventKind::Idle { .. }
    ));
    // Times are monotone.
    for pair in events.windows(2) {
        assert!(pair[0].at <= pair[1].at);
    }
}

#[test]
fn no_trace_by_default() {
    let slider = rho_slider(SliderConfig::default());
    assert!(slider.events().is_none());
}

#[test]
fn concurrent_ingestion() {
    let input = chain(60);
    let slider = Arc::new(rho_slider(SliderConfig::default()));
    let mut handles = Vec::new();
    for chunk in input.chunks(10) {
        let slider = Arc::clone(&slider);
        let chunk = chunk.to_vec();
        handles.push(std::thread::spawn(move || {
            slider.add_triples(&chunk);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    slider.wait_idle();
    let oracle = closure(Ruleset::rho_df(), &input);
    assert_eq!(slider.store().to_sorted_vec(), oracle.to_sorted_vec());
}

#[test]
fn add_terms_encodes_through_dictionary() {
    use slider_model::Term;
    let slider = Slider::fragment(Fragment::RhoDf, SliderConfig::default());
    let sub = Term::iri("http://e/Cat");
    let sup = Term::iri("http://e/Animal");
    let sco_term = Term::iri("http://www.w3.org/2000/01/rdf-schema#subClassOf");
    let type_term = Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
    let inst = Term::iri("http://e/felix");
    slider.add_terms(&[
        (sub.clone(), sco_term, sup.clone()),
        (inst.clone(), type_term.clone(), sub),
    ]);
    slider.wait_idle();
    let felix = slider.dict().id_of(&inst).unwrap();
    let animal = slider.dict().id_of(&sup).unwrap();
    assert!(slider
        .store()
        .contains(Triple::new(felix, RDF_TYPE, animal)));
}

#[test]
fn repeated_wait_idle_is_stable() {
    let slider = rho_slider(SliderConfig::default());
    materialize(&slider, &chain(10));
    let len = slider.store().len();
    slider.wait_idle();
    slider.wait_idle();
    assert_eq!(slider.store().len(), len);
}

#[test]
fn drop_mid_work_does_not_hang() {
    let slider = rho_slider(SliderConfig::default().with_buffer_capacity(2));
    slider.add_triples(&chain(200));
    drop(slider); // must join cleanly with jobs still queued
}

#[test]
fn empty_ruleset_is_a_plain_store() {
    let dict = Arc::new(Dictionary::new());
    let slider = Slider::new(dict, Ruleset::custom("none"), SliderConfig::default());
    materialize(&slider, &chain(5));
    assert_eq!(slider.store().len(), 4);
    assert_eq!(slider.inferred_count(), 0);
}

#[test]
fn dependency_graph_accessible() {
    let slider = rho_slider(SliderConfig::default());
    assert_eq!(slider.dependency_graph().len(), 8);
    assert_eq!(slider.ruleset_name(), "rho-df");
}

#[test]
fn remove_triples_runs_dred_end_to_end() {
    let slider = rho_slider(SliderConfig::default());
    materialize(&slider, &chain(10));
    assert_eq!(
        slider
            .apply(Op::Remove(vec![sco(5, 6)]))
            .removal()
            .unwrap()
            .retracted,
        1
    );
    let survivors: Vec<Triple> = chain(10).into_iter().filter(|&t| t != sco(5, 6)).collect();
    let oracle = closure(Ruleset::rho_df(), &survivors);
    assert_eq!(slider.store().to_sorted_vec(), oracle.to_sorted_vec());
    let stats = slider.stats();
    assert_eq!(stats.store.explicit, survivors.len());
    assert_eq!(stats.removal_runs, 1);
    assert_eq!(stats.retracted, 1);
    assert!(stats.overdeleted > 0);
    // Removing it again (or a derived fact) is a no-op.
    assert_eq!(
        slider
            .apply(Op::Remove(vec![sco(5, 6), sco(1, 3)]))
            .removal()
            .unwrap()
            .retracted,
        0
    );
    assert_eq!(slider.stats().removal_runs, 1);
}

/// The sweep trigger counts net deletions: when every overdeleted triple
/// is rederived, a removal adds only its retractions.
#[test]
fn a_fully_rederived_removal_adds_only_its_retractions_to_the_sweep_trigger() {
    let slider = rho_slider(SliderConfig::batch());
    // Two paths 1→2→4 and 1→3→4: retracting 2 ⊑ 4 overdeletes 1 ⊑ 4 and
    // 9 : 4, and the path through 3 rederives both.
    materialize(
        &slider,
        &[sco(1, 2), sco(2, 4), sco(1, 3), sco(3, 4), ty(9, 1)],
    );
    let outcome = slider.apply(Op::Remove(vec![sco(2, 4)])).removal().unwrap();
    assert_eq!(outcome.retracted, 1);
    assert!(outcome.overdeleted > 0);
    assert_eq!(outcome.rederived, outcome.overdeleted);
    assert_eq!(slider.engine.retired_since_sweep.load(Ordering::Relaxed), 1);
}

#[test]
fn removal_then_re_add_round_trips() {
    let input = chain(12);
    let slider = rho_slider(SliderConfig::default());
    materialize(&slider, &input);
    let full = slider.store().to_sorted_vec();
    assert_eq!(
        slider
            .apply(Op::Remove(vec![sco(4, 5)]))
            .removal()
            .unwrap()
            .retracted,
        1
    );
    assert_ne!(slider.store().to_sorted_vec(), full);
    materialize(&slider, &[sco(4, 5)]);
    assert_eq!(slider.store().to_sorted_vec(), full);
}

#[test]
fn remove_terms_skips_unknown_terms() {
    use slider_model::Term;
    let slider = Slider::fragment(Fragment::RhoDf, SliderConfig::default());
    let sco_term = Term::iri("http://www.w3.org/2000/01/rdf-schema#subClassOf");
    let cat = Term::iri("http://e/Cat");
    let animal = Term::iri("http://e/Animal");
    slider.add_terms(&[(cat.clone(), sco_term.clone(), animal.clone())]);
    slider.wait_idle();
    let interned = slider.dict().len();
    // Unknown term: skipped without interning anything.
    assert_eq!(
        slider.remove_terms(&[(Term::iri("http://e/Nope"), sco_term.clone(), animal.clone())]),
        0
    );
    assert_eq!(slider.dict().len(), interned);
    assert_eq!(slider.remove_terms(&[(cat, sco_term, animal)]), 1);
    assert!(slider.store().is_empty());
}

#[test]
fn static_plans_keep_configured_capacity() {
    let slider = rho_slider(SliderConfig::default().with_buffer_capacity(77));
    materialize(&slider, &chain(40));
    for r in &slider.stats().rules {
        assert_eq!(r.buffer_capacity, 77, "{}", r.name);
    }
}

/// Regression (silently discarded retractions): dropping a `Slider`
/// with a non-empty pending set must flush it — pending retractions
/// apply on teardown, mirroring the buffer drain — not discard it.
#[test]
fn drop_flushes_pending_retractions() {
    // Batch mode: no deadline tick, threshold unreachable — nothing
    // but the drop path can apply the deferral.
    let slider = rho_slider(SliderConfig::batch().with_maintenance_batch(usize::MAX));
    materialize(&slider, &chain(10));
    slider.apply(Op::Defer(vec![sco(5, 6)]));
    assert_eq!(slider.stats().pending_removals, 1);
    let engine = Arc::clone(&slider.engine);
    drop(slider);
    let survivors: Vec<Triple> = chain(10).into_iter().filter(|&t| t != sco(5, 6)).collect();
    assert_eq!(
        engine.store.to_sorted_vec(),
        closure(Ruleset::rho_df(), &survivors).to_sorted_vec(),
        "pending retraction was discarded on drop"
    );
    assert_eq!(engine.globals.coalesced_runs.load(Ordering::Relaxed), 1);
}

/// Regression (lost re-assertion): a triple re-asserted while its
/// deferred retraction is pending must survive the next flush — the
/// assertion cancels the retraction.
#[test]
fn re_assertion_cancels_pending_retraction() {
    let slider = rho_slider(
        SliderConfig::batch()
            .with_maintenance_batch(usize::MAX)
            .with_trace(true),
    );
    let input = chain(10);
    materialize(&slider, &input);
    let full = slider.store().to_sorted_vec();
    slider.apply(Op::Defer(vec![sco(4, 5), sco(7, 8)]));
    // Re-assert one of the two while both are pending.
    slider.add_triples(&[sco(4, 5)]);
    assert_eq!(slider.stats().pending_removals, 1, "one cancelled");
    assert_eq!(slider.stats().cancelled_removals, 1);
    let outcome = slider.apply(Op::Flush).removal().unwrap();
    slider.wait_idle();
    // Only the surviving retraction applied.
    assert_eq!(outcome.requested, 1);
    assert!(slider.store().contains(sco(4, 5)), "re-assertion lost");
    assert!(!slider.store().contains(sco(7, 8)));
    let survivors: Vec<Triple> = input.into_iter().filter(|&t| t != sco(7, 8)).collect();
    assert_eq!(
        slider.store().to_sorted_vec(),
        closure(Ruleset::rho_df(), &survivors).to_sorted_vec()
    );
    assert_ne!(slider.store().to_sorted_vec(), full);
}

/// DRed composes over sub-batches: one flush over two retractions
/// lands on the store that one flush per retraction gives.
#[test]
fn one_flush_lands_where_per_retraction_flushes_do() {
    use slider_rules::RuleSpec;
    let p = |v: u64| NodeId(5_000 + v);
    let retractions = [
        Triple::new(n(3), p(0), n(4)),
        Triple::new(n(5), p(10), n(6)),
    ];
    let build = |together: bool| {
        let ruleset = Ruleset::custom("two-chains")
            .with(RuleSpec::transitive("T-A", p(0)))
            .with(RuleSpec::transitive("T-B", p(10)));
        let config = SliderConfig::batch().with_maintenance_batch(usize::MAX);
        let slider = Slider::new(Arc::new(Dictionary::new()), ruleset, config);
        for base in [0, 10] {
            let links: Vec<Triple> = (1..8)
                .map(|i| Triple::new(n(i), p(base), n(i + 1)))
                .collect();
            materialize(&slider, &links);
        }
        if together {
            slider.apply(Op::Defer(retractions.to_vec()));
            slider.apply(Op::Flush);
        } else {
            for t in retractions {
                slider.apply(Op::Defer(vec![t]));
                slider.apply(Op::Flush);
            }
        }
        slider
    };
    let together = build(true);
    let apart = build(false);
    assert_eq!(
        together.store().to_sorted_vec(),
        apart.store().to_sorted_vec()
    );
    assert_eq!(together.stats().coalesced_runs, 1);
    assert_eq!(apart.stats().coalesced_runs, 2);
}

/// A flush reports the [`RemovalOutcome`] a direct DRed pass over the
/// same pending set gives, counter for counter — the no-op
/// classifications included — and lands on the same store.
#[test]
fn flush_outcome_counters_match_a_direct_dred_pass() {
    use slider_rules::RuleSpec;
    let p = |v: u64| NodeId(5_000 + v);
    let ruleset = Ruleset::custom("two-chains")
        .with(RuleSpec::transitive("T-A", p(0)))
        .with(RuleSpec::transitive("T-B", p(10)));
    let config = SliderConfig::batch().with_maintenance_batch(usize::MAX);
    let slider = Slider::new(Arc::new(Dictionary::new()), ruleset.clone(), config);
    for base in [0, 10] {
        let links: Vec<Triple> = (1..8)
            .map(|i| Triple::new(n(i), p(base), n(i + 1)))
            .collect();
        materialize(&slider, &links);
    }
    // Genuine retractions in both chains plus the two no-op flavours
    // (a derived-only triple and an absent one), so every counter is
    // exercised.
    let pending = [
        Triple::new(n(3), p(0), n(4)),
        Triple::new(n(5), p(10), n(6)),
        Triple::new(n(1), p(0), n(3)),    // derived-only (chain hop)
        Triple::new(n(90), p(10), n(91)), // absent
    ];
    // The reference: one DRed run on a copy of the pre-flush store.
    let mut direct = VerticalStore::clone(&slider.store().snapshot());
    let graph = DependencyGraph::build(&ruleset);
    let direct_pass = maintenance::dred(&mut direct, ruleset.rules(), &graph, &pending);

    slider.apply(Op::Defer(pending.to_vec()));
    let flushed = slider.apply(Op::Flush).removal().unwrap();
    assert_eq!(slider.store().to_sorted_vec(), direct.to_sorted_vec());
    assert_eq!(flushed, direct_pass, "flush outcome drifted");
    assert_eq!(flushed.retracted, 2);
    assert_eq!(flushed.ignored_derived, 1);
    assert_eq!(flushed.not_found, 1);
}

/// `Op::Flush` is a barrier: while another thread's slice is
/// drained from the pending queue but not yet applied, a second
/// explicit flush must not return until the store reflects that slice.
#[test]
fn explicit_flush_waits_for_a_drained_but_unapplied_slice() {
    let slider = Arc::new(rho_slider(
        SliderConfig::batch().with_maintenance_batch(usize::MAX),
    ));
    materialize(&slider, &chain(5));
    slider.apply(Op::Defer(vec![sco(2, 3)]));

    let (drained_tx, drained_rx) = channel();
    let (release_tx, release_rx) = channel::<()>();
    *slider.engine.flush_drained_hook.lock() = Some(Box::new(move || {
        let _ = drained_tx.send(());
        // A dropped sender (the test failed) releases the slice too.
        let _ = release_rx.recv();
    }));
    let first = {
        let slider = Arc::clone(&slider);
        std::thread::spawn(move || slider.apply(Op::Flush))
    };
    drained_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the first flush drained its slice");

    let (seen_tx, seen_rx) = channel();
    let second = {
        let slider = Arc::clone(&slider);
        std::thread::spawn(move || {
            slider.apply(Op::Flush);
            let _ = seen_tx.send(slider.store().contains(sco(2, 3)));
        })
    };
    if let Ok(still_present) = seen_rx.recv_timeout(Duration::from_millis(200)) {
        panic!(
            "second flush returned mid-slice (retraction applied: {})",
            !still_present
        );
    }
    release_tx
        .send(())
        .expect("the first flush is parked in the hook");
    let still_present = seen_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the second flush returns once the slice is applied");
    assert!(
        !still_present,
        "flush returned before the store reflected the slice"
    );
    assert_eq!(first.join().unwrap().removal().unwrap().retracted, 1);
    second.join().unwrap();
}

/// A drained slice is never missing from both `pending_removals` and
/// `retracted`: it counts as pending until its outcome is counted, so a
/// reader that waits for `pending_removals == 0` then sees it retracted.
#[test]
fn stats_count_a_drained_slice_as_pending_until_it_is_retracted() {
    let slider = Arc::new(rho_slider(
        SliderConfig::batch().with_maintenance_batch(usize::MAX),
    ));
    materialize(&slider, &chain(5));
    slider.apply(Op::Defer(vec![sco(2, 3)]));

    let (drained_tx, drained_rx) = channel();
    let (release_tx, release_rx) = channel::<()>();
    *slider.engine.flush_drained_hook.lock() = Some(Box::new(move || {
        let _ = drained_tx.send(());
        // A dropped sender (the test failed) releases the slice too.
        let _ = release_rx.recv();
    }));
    let flush = {
        let slider = Arc::clone(&slider);
        std::thread::spawn(move || slider.apply(Op::Flush))
    };
    drained_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the flush drained its slice");

    let mid = slider.stats();
    assert_eq!(
        (mid.pending_removals, mid.retracted),
        (1, 0),
        "a drained, uncounted slice must still read as pending"
    );
    release_tx
        .send(())
        .expect("the flush is parked in the hook");
    assert_eq!(flush.join().unwrap().removal().unwrap().retracted, 1);
    let after = slider.stats();
    assert_eq!((after.pending_removals, after.retracted), (0, 1));
}

#[test]
fn pending_staleness_reports_oldest_age() {
    let slider = rho_slider(SliderConfig::batch().with_maintenance_batch(usize::MAX));
    materialize(&slider, &chain(5));
    assert_eq!(slider.pending_staleness(), None);
    slider.apply(Op::Defer(vec![sco(2, 3)]));
    std::thread::sleep(Duration::from_millis(2));
    let age = slider.pending_staleness().expect("one pending");
    assert!(age >= Duration::from_millis(2));
    assert!(slider.stats().oldest_pending_age.is_some());
    slider.apply(Op::Flush);
    assert_eq!(slider.pending_staleness(), None);
}

#[test]
fn large_retraction_burst_triggers_an_automatic_dict_sweep() {
    use slider_model::Term;
    let dict = Arc::new(Dictionary::new());
    let slider = Slider::new(
        Arc::clone(&dict),
        Ruleset::custom("empty"),
        SliderConfig::batch().with_trace(true),
    );
    let keep = (
        Term::iri("http://e/keep"),
        Term::iri("http://e/p"),
        Term::iri("http://e/kept-object"),
    );
    slider.add_terms(std::slice::from_ref(&keep));
    // One shared object keeps the term count close to the burst size,
    // so the default ratio (retired ≥ 0.5 × live terms) is what this
    // test actually exercises — not a rigged knob.
    let burst: Vec<TermTriple> = (0..1500)
        .map(|i| {
            (
                Term::iri(format!("http://e/s{i}")),
                Term::iri("http://e/p"),
                Term::iri("http://e/shared-object"),
            )
        })
        .collect();
    slider.add_terms(&burst);
    slider.wait_idle();
    let keep_id = dict.id_of(&keep.0).expect("kept term interned");
    let bytes_before = dict.stats().bytes_estimate;
    assert_eq!(slider.remove_terms(&burst), 1500);
    let stats = slider.stats();
    assert!(stats.dict_sweeps >= 1, "burst should have auto-swept");
    assert!(stats.dict_tombstones > 0);
    assert!(stats.dict_bytes_estimate < bytes_before);
    // Ids of live terms never move across a sweep.
    assert_eq!(dict.id_of(&keep.0), Some(keep_id));
    assert_eq!(dict.lookup(keep_id).as_ref(), Some(&keep.0));
    assert!(
        slider
            .events()
            .expect("tracing enabled")
            .iter()
            .any(|e| matches!(e.kind, EventKind::DictSweep { .. })),
        "the sweep must leave a trace event"
    );
}

#[test]
fn explicit_dictionary_sweep_reclaims_and_reports() {
    use slider_model::{vocab, Term};
    let dict = Arc::new(Dictionary::new());
    let slider = Slider::new(
        Arc::clone(&dict),
        Ruleset::custom("empty"),
        SliderConfig::batch(),
    );
    let triples: Vec<TermTriple> = (0..2000)
        .map(|i| {
            (
                Term::iri(format!("http://e/s{i}")),
                Term::iri("http://e/p"),
                Term::iri("http://e/o"),
            )
        })
        .collect();
    slider.add_terms(&triples);
    slider.wait_idle();
    let bytes_loaded = dict.bytes_estimate();
    // The burst clears the automatic trigger; the explicit call sweeps
    // whatever the automatic pass left.
    assert_eq!(slider.remove_terms(&triples), 2000);
    assert_eq!(slider.stats().dict_sweeps, 1, "the burst auto-swept");
    let auto_swept = slider.stats().dict_tombstones;
    let outcome = slider.sweep_dictionary();
    assert!(!outcome.skipped);
    assert_eq!(auto_swept + outcome.swept, 2002); // 2000 subjects + p + o
    assert_eq!(outcome.live, vocab::VOCAB_LEN);
    assert!(outcome.bytes_after < bytes_loaded);
    assert_eq!(slider.stats().dict_sweeps, 2);
}
