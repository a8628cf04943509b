//! Concurrency stress: multi-source ingestion, queries racing inference,
//! and teardown under load — the paper's "multiple instances of input
//! manager allows to retrieve data from various sources".

mod common;

use common::materialize;
use slider::prelude::*;
use slider::rules::{InputFilter, OutputSignature};
use slider::store::ExclusiveStore;
use slider::workloads::{encode_all, PaperOntology};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// A rule over one trigger predicate that concludes nothing and calls
/// `on_apply` once per rule instance.
struct Hook<F> {
    name: &'static str,
    trigger: NodeId,
    on_apply: F,
}

impl<F: Fn() + Send + Sync> Rule for Hook<F> {
    fn name(&self) -> &'static str {
        self.name
    }
    fn definition(&self) -> &'static str {
        "(s trigger o) ⊢ nothing"
    }
    fn input_filter(&self) -> InputFilter {
        InputFilter::Predicates(vec![self.trigger])
    }
    fn output_signature(&self) -> OutputSignature {
        OutputSignature::Predicates(vec![])
    }
    fn apply(&self, _: &VerticalStore, _: &[Triple], _: &mut Vec<Triple>) {
        (self.on_apply)()
    }
    fn derives(&self, _: &VerticalStore, _: Triple) -> bool {
        false
    }
}

#[test]
fn many_producers_one_closure() {
    let data = PaperOntology::Bsbm100k.generate(0.01);
    let dict = Arc::new(Dictionary::new());
    let input = encode_all(&data, &dict);

    // Expected closure from a single-threaded feed.
    let expected = {
        let slider = Slider::new(
            Arc::clone(&dict),
            Ruleset::rho_df(),
            SliderConfig::default(),
        );
        slider.add_triples(&input);
        slider.wait_idle();
        slider.store().to_sorted_vec()
    };

    // 8 producers feeding interleaved slices concurrently.
    let slider = Arc::new(Slider::new(
        Arc::clone(&dict),
        Ruleset::rho_df(),
        SliderConfig::default(),
    ));
    std::thread::scope(|scope| {
        for producer in 0..8 {
            let slider = Arc::clone(&slider);
            let slice: Vec<Triple> = input.iter().copied().skip(producer).step_by(8).collect();
            scope.spawn(move || {
                for chunk in slice.chunks(64) {
                    slider.add_triples(chunk);
                }
            });
        }
    });
    slider.wait_idle();
    assert_eq!(slider.store().to_sorted_vec(), expected);
}

#[test]
fn readers_race_inference_without_torn_state() {
    let dict = Arc::new(Dictionary::new());
    let input = encode_all(&PaperOntology::SubClassOf200.generate(1.0), &dict);
    let slider = Arc::new(Slider::new(
        Arc::clone(&dict),
        Ruleset::rho_df(),
        SliderConfig::default(),
    ));

    // Every reader observes once before the writer starts, so none can
    // miss the whole closure by being scheduled after it finished.
    const READERS: usize = 4;
    let start = Arc::new(Barrier::new(READERS + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for _ in 0..READERS {
        let slider = Arc::clone(&slider);
        let (start, stop) = (Arc::clone(&start), Arc::clone(&stop));
        readers.push(std::thread::spawn(move || {
            let mut last = 0usize;
            let mut observations = 0usize;
            loop {
                let now = slider.store().len();
                assert!(now >= last, "reader saw the store shrink");
                last = now;
                observations += 1;
                if observations == 1 {
                    start.wait();
                }
                if stop.load(Ordering::Relaxed) {
                    break observations;
                }
            }
        }));
    }

    start.wait();
    slider.add_triples(&input);
    slider.wait_idle();
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        assert!(r.join().unwrap() > 0);
    }
    // Chain closure exact size: input 399 + 199·198/2 inferred.
    assert_eq!(slider.store().len(), 399 + 19_701);
}

#[test]
fn wait_idle_from_multiple_threads() {
    let dict = Arc::new(Dictionary::new());
    let input = encode_all(&PaperOntology::SubClassOf100.generate(1.0), &dict);
    let slider = Arc::new(Slider::new(
        Arc::clone(&dict),
        Ruleset::rho_df(),
        SliderConfig::default(),
    ));
    slider.add_triples(&input);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let slider = Arc::clone(&slider);
            scope.spawn(move || slider.wait_idle());
        }
    });
    assert_eq!(slider.store().len(), 199 + 4_851);
}

/// `wait_idle` helps instead of sleeping: the one worker is stuck in rule
/// A's instance, which waits (at most 10 s) until rule B's has run, and B
/// is queued behind it. Only a caller that runs B itself returns early.
#[test]
fn wait_idle_runs_queued_instances_on_the_caller() {
    let gate = Arc::new(AtomicBool::new(false));
    let (a, b) = (NodeId(98_000), NodeId(98_001));
    let wait = {
        let gate = Arc::clone(&gate);
        move || {
            let give_up = std::time::Instant::now() + Duration::from_secs(10);
            while !gate.load(Ordering::SeqCst) && std::time::Instant::now() < give_up {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    };
    let open = {
        let gate = Arc::clone(&gate);
        move || gate.store(true, Ordering::SeqCst)
    };
    let slider = Arc::new(Slider::new(
        Arc::new(Dictionary::new()),
        Ruleset::custom("gates")
            .with(Hook {
                name: "A",
                trigger: a,
                on_apply: wait,
            })
            .with(Hook {
                name: "B",
                trigger: b,
                on_apply: open,
            }),
        SliderConfig::default()
            .with_buffer_capacity(1)
            .with_workers(1),
    ));
    slider.add_triples(&[Triple::new(NodeId(1), a, NodeId(2))]);
    slider.add_triples(&[Triple::new(NodeId(1), b, NodeId(2))]);
    let (tx, rx) = std::sync::mpsc::channel();
    let waiter = {
        let slider = Arc::clone(&slider);
        std::thread::spawn(move || {
            slider.wait_idle();
            let _ = tx.send(());
        })
    };
    rx.recv_timeout(Duration::from_secs(5))
        .expect("wait_idle slept while rule B's instance sat in the queue");
    waiter.join().unwrap();
    assert!(gate.load(Ordering::SeqCst));
    assert_eq!(slider.stats().total_fired(), 2);
}

#[test]
fn stats_reads_race_inference() {
    let dict = Arc::new(Dictionary::new());
    let input = encode_all(&PaperOntology::Bsbm100k.generate(0.005), &dict);
    let slider = Arc::new(Slider::new(
        Arc::clone(&dict),
        Ruleset::rdfs(&dict),
        SliderConfig::default(),
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let observer = {
        let slider = Arc::clone(&slider);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let snap = slider.stats();
                // Derived ≥ fresh per rule, always.
                for r in &snap.rules {
                    assert!(
                        r.derived >= r.fresh,
                        "{}: {} < {}",
                        r.name,
                        r.derived,
                        r.fresh
                    );
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        })
    };
    slider.add_triples(&input);
    slider.wait_idle();
    stop.store(true, Ordering::Relaxed);
    observer.join().unwrap();

    let finali = slider.stats();
    assert_eq!(
        finali.store_size as u64,
        finali.input_fresh + finali.total_inferred()
    );
}

#[test]
fn removals_race_insertions_without_corrupting_invariants() {
    // Plain (non-schema) predicates: the ρdf rules derive nothing, so the
    // expected final store is exactly the surviving explicit set — which
    // makes len()/dedup/provenance invariants checkable under full racing.
    let plain = |k: u64| Triple::new(NodeId(50_000 + k), NodeId(40_000), NodeId(60_000 + k));
    let preloaded: Vec<Triple> = (0..600).map(plain).collect();
    let added: Vec<Triple> = (600..1_200).map(plain).collect();
    let (doomed, kept) = preloaded.split_at(300);

    let dict = Arc::new(Dictionary::new());
    let slider = Arc::new(Slider::new(
        Arc::clone(&dict),
        Ruleset::rho_df(),
        SliderConfig::default(),
    ));
    slider.add_triples(&preloaded);
    slider.wait_idle();

    std::thread::scope(|scope| {
        // 4 producers keep inserting fresh triples…
        for producer in 0..4 {
            let slider = Arc::clone(&slider);
            let slice: Vec<Triple> = added.iter().copied().skip(producer).step_by(4).collect();
            scope.spawn(move || {
                for chunk in slice.chunks(16) {
                    slider.add_triples(chunk);
                }
            });
        }
        // …while 2 removers retract disjoint halves of the preload.
        for (remover, slice) in doomed.chunks(150).enumerate() {
            let slider = Arc::clone(&slider);
            let slice = slice.to_vec();
            scope.spawn(move || {
                let mut retracted = 0usize;
                for chunk in slice.chunks(25) {
                    retracted += slider
                        .apply(Op::Remove(chunk.to_vec()))
                        .removal()
                        .unwrap()
                        .retracted;
                }
                assert_eq!(retracted, 150, "remover {remover} lost retractions");
            });
        }
    });
    slider.wait_idle();

    // Exact final contents: preload minus doomed plus added, each once.
    let mut expected: Vec<Triple> = kept.iter().chain(added.iter()).copied().collect();
    expected.sort_unstable();
    let got = slider.store().to_sorted_vec();
    assert_eq!(got, expected);
    // len() agrees with the enumerated (deduplicated) contents, and every
    // survivor kept its explicit provenance.
    assert_eq!(slider.store().len(), got.len());
    let stats = slider.stats();
    assert_eq!(stats.store.explicit, expected.len());
    assert_eq!(stats.store.derived, 0);
    assert_eq!(stats.retracted, 300);
}

#[test]
fn deferred_removals_race_insertions_and_flushes() {
    // Plain (non-schema) predicates as above: the expected final store is
    // exactly the surviving explicit set. Deferred removers race producers
    // AND the threshold/explicit flush triggers: retractions land in
    // whatever coalesced run wins, but the end state is exact.
    let plain = |k: u64| Triple::new(NodeId(70_000 + k), NodeId(40_001), NodeId(80_000 + k));
    let preloaded: Vec<Triple> = (0..600).map(plain).collect();
    let added: Vec<Triple> = (600..1_200).map(plain).collect();
    let (doomed, kept) = preloaded.split_at(300);

    let dict = Arc::new(Dictionary::new());
    // Small threshold: auto-flushes fire mid-race; no deadline so runs are
    // driven by the racing threads themselves (plus the final flush).
    let config = SliderConfig::default()
        .with_maintenance_batch(64)
        .with_maintenance_max_age(None);
    let slider = Arc::new(Slider::new(Arc::clone(&dict), Ruleset::rho_df(), config));
    slider.add_triples(&preloaded);
    slider.wait_idle();

    std::thread::scope(|scope| {
        // 4 producers keep inserting fresh triples…
        for producer in 0..4 {
            let slider = Arc::clone(&slider);
            let slice: Vec<Triple> = added.iter().copied().skip(producer).step_by(4).collect();
            scope.spawn(move || {
                for chunk in slice.chunks(16) {
                    slider.add_triples(chunk);
                }
            });
        }
        // …while 2 deferred removers enqueue disjoint halves of the
        // preload, and one of them interleaves explicit flushes.
        for (remover, slice) in doomed.chunks(150).enumerate() {
            let slider = Arc::clone(&slider);
            let slice = slice.to_vec();
            scope.spawn(move || {
                let mut enqueued = 0usize;
                for chunk in slice.chunks(25) {
                    enqueued += slider.apply(Op::Defer(chunk.to_vec())).count().unwrap();
                    if remover == 0 {
                        slider.apply(Op::Flush);
                    }
                }
                // Disjoint slices, each triple deferred once: every
                // enqueue is fresh even under full racing.
                assert_eq!(enqueued, 150, "remover {remover} lost deferrals");
            });
        }
    });
    // Apply whatever generation is still pending, then settle.
    slider.apply(Op::Flush);
    slider.wait_idle();

    // Exact final contents: preload minus doomed plus added, each once.
    let mut expected: Vec<Triple> = kept.iter().chain(added.iter()).copied().collect();
    expected.sort_unstable();
    let got = slider.store().to_sorted_vec();
    assert_eq!(got, expected);
    let stats = slider.stats();
    assert_eq!(stats.store.explicit, expected.len());
    assert_eq!(stats.store.derived, 0);
    assert_eq!(stats.deferred, 300);
    assert_eq!(stats.retracted, 300);
    assert_eq!(stats.pending_removals, 0);
    assert!(stats.coalesced_runs > 0);
}

#[test]
fn producers_race_multi_family_flushes() {
    // Two independent rule families (disjoint vocabularies) plus an inert
    // predicate. Producers keep asserting chain links in both families
    // while deferred removers retract earlier links and force flushes
    // whose pending sets span both families, racing the blocked
    // producers.
    use slider::rules::RuleSpec;
    let trans_a = NodeId(90_000);
    let is_a = NodeId(90_001);
    let trans_b = NodeId(90_010);
    let inert = NodeId(90_666);
    let ruleset = Ruleset::custom("race-families")
        .with(RuleSpec::transitive("T-A", trans_a))
        .with(RuleSpec::subsumption("S-A", is_a, trans_a))
        .with(RuleSpec::transitive("T-B", trans_b));

    // Spaced chains: links (2k)→(2k+1) never concatenate, so each family's
    // closure is exactly its explicit links — the expected final store is
    // enumerable even under full racing — while retractions still exercise
    // the real DRed machinery in both families.
    let link = |p: NodeId, k: u64| Triple::new(NodeId(100_000 + 2 * k), p, NodeId(100_001 + 2 * k));
    let preload: Vec<Triple> = (0..200)
        .flat_map(|k| [link(trans_a, k), link(trans_b, k)])
        .chain((0..100).map(|k| Triple::new(NodeId(200_000 + k), inert, NodeId(200_500 + k))))
        .collect();
    let added: Vec<Triple> = (200..400)
        .flat_map(|k| [link(trans_a, k), link(trans_b, k)])
        .collect();
    // Doomed: the first 100 links of each family plus half the inert set.
    let doomed: Vec<Triple> = (0..100)
        .flat_map(|k| [link(trans_a, k), link(trans_b, k)])
        .chain((0..50).map(|k| Triple::new(NodeId(200_000 + k), inert, NodeId(200_500 + k))))
        .collect();

    let dict = Arc::new(Dictionary::new());
    let config = SliderConfig::default()
        .with_maintenance_batch(48) // threshold flushes fire mid-race
        .with_maintenance_max_age(None);
    let slider = Arc::new(Slider::new(Arc::clone(&dict), ruleset, config));
    slider.add_triples(&preload);
    slider.wait_idle();

    std::thread::scope(|scope| {
        // 3 producers keep inserting fresh links in both families…
        for producer in 0..3 {
            let slider = Arc::clone(&slider);
            let slice: Vec<Triple> = added.iter().copied().skip(producer).step_by(3).collect();
            scope.spawn(move || {
                for chunk in slice.chunks(16) {
                    slider.add_triples(chunk);
                }
            });
        }
        // …while 2 deferred removers enqueue cross-family retractions;
        // one interleaves explicit flushes on top of the threshold ones.
        for (remover, slice) in doomed.chunks(125).enumerate() {
            let slider = Arc::clone(&slider);
            let slice = slice.to_vec();
            scope.spawn(move || {
                for chunk in slice.chunks(25) {
                    slider.apply(Op::Defer(chunk.to_vec()));
                    if remover == 0 {
                        slider.apply(Op::Flush);
                    }
                }
            });
        }
    });
    slider.apply(Op::Flush);
    slider.wait_idle();

    // Exact final contents: preload minus doomed plus added, each once.
    let mut expected: Vec<Triple> = preload
        .iter()
        .filter(|t| !doomed.contains(t))
        .chain(added.iter())
        .copied()
        .collect();
    expected.sort_unstable();
    let got = slider.store().to_sorted_vec();
    assert_eq!(got, expected);
    let stats = slider.stats();
    assert_eq!(stats.store.explicit, expected.len());
    assert_eq!(stats.deferred, 250);
    assert_eq!(stats.retracted, 250);
    assert_eq!(stats.pending_removals, 0);
    assert!(stats.coalesced_runs > 0);
}

/// Dictionary tentpole, acceptance pin: id→term and id→kind lookups take
/// **zero locks** — they answer from the append-only segmented slot table
/// and complete in bounded time while an intern write lock is held
/// indefinitely. The held lock is the one of the shard owning the very
/// term looked up, so a regression back to lock-pinned lookups (the old
/// `RwLock<Inner>` design) deadlocks the reader thread and trips the
/// `recv_timeout`.
#[test]
fn dict_lookups_complete_while_an_intern_write_lock_is_held() {
    use slider::model::vocab::VOCAB_LEN;
    use slider::model::TermKind;

    let dict = Arc::new(Dictionary::new());
    let iri = Term::iri("http://example.org/held-shard");
    let lit = Term::literal("forty-two");
    let iri_id = dict.intern(&iri);
    let lit_id = dict.intern(&lit);

    // Write-locks the index shard that owns `iri`.
    let guard = dict.lock_intern_shard(&iri);
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = {
        let dict = Arc::clone(&dict);
        std::thread::spawn(move || {
            let _ = tx.send((
                dict.lookup(iri_id),
                dict.kind(iri_id),
                dict.kind(lit_id),
                dict.is_literal(lit_id),
                dict.len(),
            ));
        })
    };
    let (looked_up, iri_kind, lit_kind, lit_is_literal, len) = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("id→term/kind lookups blocked behind a held intern write lock");
    assert_eq!(looked_up, Some(iri), "lookup resolved the wrong payload");
    assert_eq!(iri_kind, Some(TermKind::Iri));
    assert_eq!(lit_kind, Some(TermKind::Literal));
    assert!(lit_is_literal);
    assert_eq!(len, VOCAB_LEN + 2);
    drop(guard);
    reader.join().unwrap();
}

/// A query meets `section`, an open exclusive section on a store whose
/// queries never overlapped a write: it waits, and switches the store, so
/// every later section publishes its pre-section epoch. Then `finish` runs
/// on the section, which closes; returns what the query saw.
fn query_across(
    slider: &Arc<Slider>,
    mut section: ExclusiveStore<'_>,
    finish: impl FnOnce(&mut VerticalStore),
) -> Vec<Triple> {
    let (tx, rx) = std::sync::mpsc::channel();
    let query = Arc::clone(slider);
    std::thread::spawn(move || tx.send(query.store().to_sorted_vec()).unwrap());
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    // A panic here drops `section`, so the query still finishes.
    while !slider.store().queries_overlap_writes() {
        assert!(std::time::Instant::now() < deadline, "no overlap marked");
        std::thread::yield_now();
    }
    finish(&mut section);
    assert!(rx.try_recv().is_err(), "a query answered mid-section");
    drop(section);
    rx.recv_timeout(Duration::from_secs(10))
        .expect("the query never returned after the section")
}

/// Lock-free read path, acceptance pin (a): once queries overlap writes,
/// `matches`/`stats`/`to_sorted_vec` complete while the store's write
/// lock — the one shard every subClassOf triple lives in — is held
/// **indefinitely**: the reader answers from the epoch `exclusive()`
/// published on entry and never waits for the section.
/// Bounded-time via a channel timeout: a regression back to lock-pinned
/// reads deadlocks the reader thread and trips the `recv_timeout`.
#[test]
fn queries_complete_while_a_shard_write_lock_is_held() {
    use slider::model::vocab::RDFS_SUB_CLASS_OF;
    let dict = Arc::new(Dictionary::new());
    let slider = Arc::new(Slider::new(
        Arc::clone(&dict),
        Ruleset::rho_df(),
        SliderConfig::default(),
    ));
    let chain: Vec<Triple> = (1..20)
        .map(|i| Triple::new(NodeId(1_000 + i), RDFS_SUB_CLASS_OF, NodeId(1_001 + i)))
        .collect();
    materialize(&slider, &chain);
    let expected = slider.store().to_sorted_vec();
    query_across(&slider, slider.store().exclusive(), |_| {});

    let guard = slider.store().exclusive();
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = {
        let slider = Arc::clone(&slider);
        std::thread::spawn(move || {
            let sorted = slider.store().to_sorted_vec();
            let stats = slider.stats();
            let scoped = slider
                .store()
                .matches(TriplePattern::with_p(RDFS_SUB_CLASS_OF));
            let _ = tx.send((sorted, stats, scoped));
        })
    };
    let (sorted, stats, scoped) = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("reads blocked behind a held store write lock");
    assert_eq!(sorted, expected, "epoch read returned a torn cut");
    assert_eq!(stats.store_size, expected.len());
    assert_eq!(scoped.len(), expected.len(), "all triples are subClassOf");
    drop(guard);
    reader.join().unwrap();
}

/// Lock-free read path: once queries overlap writes, `matches`/`stats`/
/// `to_sorted_vec` and snapshot reads complete while `exclusive()` holds
/// the store lock **indefinitely** — `exclusive()` publishes the epoch on
/// entry, so the reader answers from it and never waits for the section —
/// and they see the **pre-exclusive** epoch until
/// the section releases, at which point the mutation becomes visible as
/// one atomic publication. Bounded-time via a channel timeout: a
/// regression back to lock-pinned reads deadlocks the reader thread and
/// trips the `recv_timeout`.
#[test]
fn queries_answer_from_the_old_epoch_while_exclusive_holds_the_store() {
    let p = NodeId(40_123);
    let t1 = Triple::new(NodeId(1), p, NodeId(2));
    let t2 = Triple::new(NodeId(3), p, NodeId(4));
    let slider = Arc::new(Slider::new(
        Arc::new(Dictionary::new()),
        Ruleset::custom("none"),
        SliderConfig::default(),
    ));
    materialize(&slider, &[t1]);
    query_across(&slider, slider.store().exclusive(), |_| {});

    let mut exclusive = slider.store().exclusive();
    exclusive.insert(t2);
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = {
        let slider = Arc::clone(&slider);
        std::thread::spawn(move || {
            let snap = slider.store().snapshot();
            let _ = tx.send((
                snap.contains(t1),
                snap.contains(t2),
                snap.len(),
                slider.store().to_sorted_vec(),
                slider.stats(),
                slider.store().matches(TriplePattern::with_p(p)),
            ));
        })
    };
    let (has_t1, has_t2, len, sorted, stats, scoped) = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("reads blocked behind the exclusive section");
    assert!(has_t1, "pre-exclusive triple missing from the epoch");
    assert!(
        !has_t2,
        "uncommitted exclusive mutation leaked into readers"
    );
    assert_eq!(len, 1);
    assert_eq!(sorted, vec![t1], "epoch read returned a torn cut");
    assert_eq!(stats.store_size, 1);
    assert_eq!(scoped, vec![t1]);
    drop(exclusive);
    reader.join().unwrap();
    // Release republishes: the mutation is now visible atomically.
    assert!(slider.store().contains(t2));
    assert_eq!(slider.store().len(), 2);
}

/// The section contract end to end: a query sees the pre-section or the
/// post-section closure and nothing in between. Before any query has
/// overlapped a write, a query that meets a section waits for it and gets
/// the post-section closure — never the half-applied store — which
/// switches the store. During the next section a query answers at once
/// from that section's pre-section epoch.
#[test]
fn a_query_waits_for_one_section_then_never_again() {
    use slider::model::vocab::RDFS_SUB_CLASS_OF;
    let link = |i: u64| Triple::new(NodeId(3_000 + i), RDFS_SUB_CLASS_OF, NodeId(3_001 + i));
    let (first, second): (Vec<Triple>, Vec<Triple>) =
        (0..12).map(link).partition(|t| t.s.0 < 3_006);
    let closure_of = |triples: &[Triple]| {
        let reference = Slider::new(
            Arc::new(Dictionary::new()),
            Ruleset::rho_df(),
            SliderConfig::default(),
        );
        materialize(&reference, triples);
        reference.store().to_sorted_vec()
    };
    let pre = closure_of(&first);
    let post = closure_of(&[first.clone(), second].concat());
    let delta: Vec<Triple> = post.iter().copied().filter(|t| !pre.contains(t)).collect();
    let (half, rest) = delta.split_at(delta.len() / 2);
    let slider = Arc::new(Slider::new(
        Arc::new(Dictionary::new()),
        Ruleset::rho_df(),
        SliderConfig::default(),
    ));
    materialize(&slider, &first);
    assert_eq!(slider.store().to_sorted_vec(), pre);

    // Section one: the store never switched, so the query waits for it.
    let mut section = slider.store().exclusive();
    half.iter().for_each(|&t| assert!(section.insert(t)));
    let seen = query_across(&slider, section, |section| {
        rest.iter().for_each(|&t| assert!(section.insert(t)))
    });
    assert_eq!(
        seen, post,
        "the waiting query must see the post-section closure"
    );

    // Section two: the store has switched, so the query answers at once.
    let mut section = slider.store().exclusive();
    half.iter().for_each(|&t| assert!(section.remove(t)));
    let (tx, rx) = std::sync::mpsc::channel();
    let query = Arc::clone(&slider);
    std::thread::spawn(move || tx.send(query.store().to_sorted_vec()).unwrap());
    let seen = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("a query waited for a section after the switch");
    rest.iter().for_each(|&t| assert!(section.remove(t)));
    drop(section);
    assert_eq!(seen, post, "the query must see the pre-section closure");
    assert_eq!(slider.store().to_sorted_vec(), pre);
}

/// Lock-free read path (b): a reader loops `stats`/`to_sorted_vec` while
/// a DRed flush spanning two rule families runs. Reads never block (progress is asserted
/// on both sides), generations never regress, and **every observed cut is
/// one of the legal store states** — the pre-flush closure or the
/// post-flush closure — never a torn intermediate (DRed's overdeletions
/// and rederivations publish as one epoch when the section releases).
#[test]
fn readers_observe_only_legal_cuts_across_multi_family_flushes() {
    use slider::rules::RuleSpec;
    let pa = NodeId(91_000);
    let pb = NodeId(91_010);
    let ruleset = Ruleset::custom("two-families")
        .with(RuleSpec::transitive("T-A", pa))
        .with(RuleSpec::transitive("T-B", pb));
    let slider = Arc::new(Slider::new(
        Arc::new(Dictionary::new()),
        ruleset,
        SliderConfig::default().with_maintenance_batch(usize::MAX),
    ));
    let link = |p: NodeId, i: u64| Triple::new(NodeId(92_000 + i), p, NodeId(92_001 + i));
    let chains: Vec<Triple> = (1..6).flat_map(|i| [link(pa, i), link(pb, i)]).collect();
    materialize(&slider, &chains);
    let before = slider.store().to_sorted_vec();

    // The flush will retract one middle link per family, landing exactly
    // on this closure:
    let doomed = [link(pa, 3), link(pb, 3)];
    let survivors: Vec<Triple> = chains
        .iter()
        .copied()
        .filter(|t| !doomed.contains(t))
        .collect();
    let after = {
        let oracle = Slider::new(
            Arc::new(Dictionary::new()),
            Ruleset::custom("two-families")
                .with(RuleSpec::transitive("T-A", pa))
                .with(RuleSpec::transitive("T-B", pb)),
            SliderConfig::default(),
        );
        materialize(&oracle, &survivors);
        oracle.store().to_sorted_vec()
    };

    let stop = Arc::new(AtomicBool::new(false));
    // The flush starts only once the reader has made its first read: a
    // one-pass flush over this small store can finish before a freshly
    // spawned thread is scheduled at all.
    let reading = Arc::new(std::sync::Barrier::new(2));
    let reader = {
        let slider = Arc::clone(&slider);
        let stop = Arc::clone(&stop);
        let reading = Arc::clone(&reading);
        let (before, after) = (before.clone(), after.clone());
        std::thread::spawn(move || {
            let mut last_generation = 0u64;
            let mut observations = 0usize;
            loop {
                let snap = slider.store().snapshot();
                assert!(
                    snap.generation() >= last_generation,
                    "epoch generation regressed"
                );
                last_generation = snap.generation();
                let cut = snap.to_sorted_vec();
                assert_eq!(cut.len(), snap.len(), "epoch len out of step");
                assert!(
                    cut == before || cut == after,
                    "reader observed a torn cut ({} triples)",
                    cut.len()
                );
                observations += 1;
                if observations == 1 {
                    reading.wait();
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            observations
        })
    };
    reading.wait();
    slider.apply(Op::Defer(doomed.to_vec()));
    slider.apply(Op::Flush);
    stop.store(true, Ordering::Relaxed);
    assert!(reader.join().unwrap() > 0, "reader made no progress");
    assert_eq!(slider.store().to_sorted_vec(), after);
    assert_eq!(slider.stats().coalesced_runs, 1);
}

/// Generation-monotonicity regression: an epoch acquired **before** a
/// maintenance flush is immutable — it never observes the post-flush
/// retractions — while a snapshot acquired after sees them all, at a
/// strictly higher generation.
#[test]
fn snapshot_acquired_before_a_flush_never_observes_its_retractions() {
    use slider::model::vocab::RDFS_SUB_CLASS_OF;
    let slider = Slider::new(
        Arc::new(Dictionary::new()),
        Ruleset::rho_df(),
        SliderConfig::default(),
    );
    let sco = |a: u64, b: u64| Triple::new(NodeId(2_000 + a), RDFS_SUB_CLASS_OF, NodeId(2_000 + b));
    materialize(&slider, &[sco(1, 2), sco(2, 3)]);
    let pinned = slider.store().snapshot();
    assert!(pinned.contains(sco(1, 3)), "closure incomplete");

    assert_eq!(
        slider
            .apply(Op::Remove(vec![sco(2, 3)]))
            .removal()
            .unwrap()
            .retracted,
        1
    );
    // The pinned epoch still answers from the pre-flush world…
    assert!(pinned.contains(sco(2, 3)));
    assert!(pinned.contains(sco(1, 3)));
    assert_eq!(pinned.len(), 3);
    // …while the current epoch has the retraction and its consequences.
    let current = slider.store().snapshot();
    assert!(!current.contains(sco(2, 3)));
    assert!(!current.contains(sco(1, 3)));
    assert!(current.generation() > pinned.generation());
    assert_eq!(slider.stats().snapshot_generation, current.generation());
}

/// Teardown under load: dropping a `Slider` with hundreds of jobs queued
/// joins cleanly. The second input adds a deferred backlog on a 1 ms
/// deadline, so the drop lands while a worker is mid deadline-flush,
/// helping drain those queued jobs until quiescence while the drop's own
/// flush waits for it; the stopped pool must still empty the queue before
/// it exits. The drop runs on its own thread under a bound, so a stranded
/// token fails instead of hanging.
#[test]
fn drop_under_load_terminates() {
    for max_age in [None, Some(Duration::from_millis(1))] {
        for _ in 0..5 {
            let dict = Arc::new(Dictionary::new());
            let input = encode_all(&PaperOntology::SubClassOf200.generate(1.0), &dict);
            let slider = Slider::new(
                Arc::clone(&dict),
                Ruleset::rho_df(),
                SliderConfig::default()
                    .with_buffer_capacity(4)
                    .with_maintenance_batch(usize::MAX)
                    .with_maintenance_max_age(max_age),
            );
            slider.add_triples(&input);
            if max_age.is_some() {
                slider.apply(Op::Defer(input[..input.len() / 2].to_vec()));
                std::thread::sleep(Duration::from_millis(3)); // the deadline passes
            }
            // Drop while hundreds of jobs are in flight.
            let (tx, rx) = std::sync::mpsc::channel();
            let dropper = std::thread::spawn(move || {
                drop(slider);
                let _ = tx.send(());
            });
            rx.recv_timeout(Duration::from_secs(30))
                .expect("dropping a loaded Slider hung");
            dropper.join().unwrap();
        }
    }
}

// ───────────────────── sessions: several Sliders on one dictionary ─────────────────────

/// A rule that panics mid-join loses its own conclusions and nothing
/// else. The panicking session's tokens are released (its `wait_idle`
/// returns), its *other* rules keep deriving, and a co-tenant on the same
/// dictionary computes an exact closure throughout — with a pool and
/// without one.
#[test]
fn a_panicking_rule_is_contained_to_its_session() {
    use slider::rules::RuleSpec;

    for workers in [0, 2] {
        let trans = NodeId(95_000);
        let trigger = NodeId(95_001);
        let dict = Arc::new(Dictionary::new());
        let victim = Arc::new(Slider::new(
            Arc::clone(&dict),
            Ruleset::custom("grenade")
                .with(RuleSpec::transitive("T", trans))
                .with(Hook {
                    name: "GRENADE",
                    trigger,
                    on_apply: || panic!("grenade detonated (deliberately, in a test)"),
                }),
            // Capacity 1: every trigger triple detonates its own rule instance.
            SliderConfig::default()
                .with_buffer_capacity(1)
                .with_workers(workers),
        ));
        let bystander = Arc::new(Slider::new(
            dict,
            Ruleset::rho_df(),
            SliderConfig::default().with_workers(2),
        ));

        let link = |k: u64| Triple::new(NodeId(96_000 + k), trans, NodeId(96_001 + k));
        let bomb = |k: u64| Triple::new(NodeId(97_000 + k), trigger, NodeId(97_500 + k));
        std::thread::scope(|scope| {
            {
                let victim = Arc::clone(&victim);
                scope.spawn(move || {
                    for k in 0..20 {
                        victim.add_triples(&[link(k), bomb(k)]);
                    }
                });
            }
            {
                let bystander = Arc::clone(&bystander);
                scope.spawn(move || {
                    use slider::model::vocab::RDFS_SUB_CLASS_OF;
                    let chain: Vec<Triple> = (0..60)
                        .map(|k| Triple::new(NodeId(500 + k), RDFS_SUB_CLASS_OF, NodeId(501 + k)))
                        .collect();
                    for chunk in chain.chunks(5) {
                        bystander.add_triples(chunk);
                    }
                });
            }
        });

        // The victim still quiesces: every detonated instance released its
        // token — and with no pool, every detonation happens inside this
        // waiter's `wait_idle`, which survives them. Bound the wait so a
        // leaked token fails, not hangs.
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = {
            let victim = Arc::clone(&victim);
            std::thread::spawn(move || {
                victim.wait_idle();
                let _ = tx.send(());
            })
        };
        rx.recv_timeout(Duration::from_secs(10))
            .expect("a panicked rule instance leaked its token");
        waiter.join().unwrap();
        bystander.wait_idle();

        // Victim: explicit triples all present (the input manager inserted
        // them before the rules ran), and the non-panicking rule kept
        // deriving — the 20 chained links close transitively (20·21/2 = 210)
        // while the 20 bombs add only themselves.
        assert_eq!(victim.store().len(), 210 + 20);
        // Bystander: untouched by the detonations next door.
        assert_eq!(bystander.store().len(), 60 * 61 / 2);
    }
}

/// A panicking DRed pass strands no other caller: two eager removals on
/// disjoint subjects of two independent rule families race behind a slow
/// third one, and family A's mark rule panics in its backward check on
/// one poisoned subject. Caller A sees the panic; caller B's retraction
/// still applies, with the outcome a serial run of B's batch reports.
///
/// Shape of the race: a slow removal holds the maintenance mutex first,
/// so both racing callers are blocked on it before either runs.
#[test]
fn panicking_eager_removal_strands_no_racing_caller() {
    use slider::rules::RuleSpec;
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

    /// One family's vocabulary: a hierarchy, a membership and a mark
    /// predicate. The two families share none, so a retraction in one
    /// never reaches the other's rules.
    #[derive(Clone, Copy)]
    struct Family {
        trans: NodeId,
        is: NodeId,
        mark: NodeId,
    }
    const A: Family = Family {
        trans: NodeId(98_000),
        is: NodeId(98_001),
        mark: NodeId(98_002),
    };
    const B: Family = Family {
        trans: NodeId(98_010),
        is: NodeId(98_011),
        mark: NodeId(98_012),
    };

    /// `(x IS c) ⊢ (x MARK c)`, slowly: every application sleeps and
    /// counts itself, so the test knows when a removal is inside DRed.
    /// Its backward check panics on the `poison` subject.
    struct SlowMark {
        name: &'static str,
        family: Family,
        delay: Duration,
        entered: Arc<AtomicUsize>,
        poison: Option<NodeId>,
    }
    impl Rule for SlowMark {
        fn name(&self) -> &'static str {
            self.name
        }
        fn definition(&self) -> &'static str {
            "(x IS c) ⊢ (x MARK c), slowly"
        }
        fn input_filter(&self) -> InputFilter {
            InputFilter::Predicates(vec![self.family.is])
        }
        fn output_signature(&self) -> OutputSignature {
            OutputSignature::Predicates(vec![self.family.mark])
        }
        fn apply(&self, _store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
            self.entered.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(self.delay);
            for t in delta.iter().filter(|t| t.p == self.family.is) {
                out.push(Triple::new(t.s, self.family.mark, t.o));
            }
        }
        fn derives(&self, store: &VerticalStore, t: Triple) -> bool {
            assert!(Some(t.s) != self.poison, "{}: poisoned subject", self.name);
            t.p == self.family.mark && store.contains(Triple::new(t.s, self.family.is, t.o))
        }
    }

    let cls = |i: u64| NodeId(98_200 + i);
    let rm = |f: Family, m: NodeId| Triple::new(m, f.is, cls(1));
    let (m0, m1, m2) = (NodeId(98_400), NodeId(98_401), NodeId(98_550));
    let ruleset = |delay: Duration, entered: &Arc<AtomicUsize>| {
        let mut rs = Ruleset::custom("two-slow-families");
        for (f, [t, s, m], poison) in [
            (A, ["T-A", "S-A", "MARK-A"], Some(m0)),
            (B, ["T-B", "S-B", "MARK-B"], None),
        ] {
            rs.push(RuleSpec::transitive(t, f.trans));
            rs.push(RuleSpec::subsumption(s, f.is, f.trans));
            rs.push(SlowMark {
                name: m,
                family: f,
                delay,
                entered: Arc::clone(entered),
                poison,
            });
        }
        rs
    };
    let mut input: Vec<Triple> = Vec::new();
    for f in [A, B] {
        input.extend((1..4).map(|i| Triple::new(cls(i), f.trans, cls(i + 1))));
    }
    input.extend([rm(A, m0), rm(B, m1), rm(A, m2)]);

    let entered = Arc::new(AtomicUsize::new(0));
    let par = Arc::new(Slider::new(
        Arc::new(Dictionary::new()),
        ruleset(Duration::from_millis(200), &entered),
        SliderConfig::default().with_workers(2),
    ));
    materialize(&par, &input);

    let entered_before = entered.load(Ordering::SeqCst);
    let (a, b) = std::thread::scope(|scope| {
        let blocker = {
            let par = Arc::clone(&par);
            scope.spawn(move || par.apply(Op::Remove(vec![rm(A, m2)])).removal().unwrap())
        };
        // Wait until the blocker's DRed is inside the slow rule — the
        // maintenance mutex is then certainly held, so both racing
        // callers block behind it.
        let deadline = Instant::now() + Duration::from_secs(10);
        while entered.load(Ordering::SeqCst) == entered_before {
            assert!(
                Instant::now() < deadline,
                "blocking removal never reached the slow rule"
            );
            std::thread::yield_now();
        }
        let a = {
            let par = Arc::clone(&par);
            scope.spawn(move || par.apply(Op::Remove(vec![rm(A, m0)])).removal().unwrap())
        };
        let b = {
            let par = Arc::clone(&par);
            scope.spawn(move || par.apply(Op::Remove(vec![rm(B, m1)])).removal().unwrap())
        };
        blocker
            .join()
            .expect("the blocker touches no poisoned subject");
        (a.join(), b.join())
    });
    assert!(a.is_err(), "caller A's DRed hit the poisoned subject");
    let b = b.expect("caller B was stranded by A's panic");

    // B's outcome and B's family match a serial run of B's batch.
    let serial = Slider::new(
        Arc::new(Dictionary::new()),
        ruleset(Duration::ZERO, &Arc::new(AtomicUsize::new(0))),
        SliderConfig::default().with_workers(2),
    );
    materialize(&serial, &input);
    serial.apply(Op::Remove(vec![rm(A, m2)]));
    assert_eq!(
        b,
        serial.apply(Op::Remove(vec![rm(B, m1)])).removal().unwrap()
    );
    assert_eq!(b.retracted, 1);
    let family_b = |slider: &Slider| -> Vec<Triple> {
        let mut triples: Vec<Triple> = [B.trans, B.is, B.mark]
            .into_iter()
            .flat_map(|p| slider.store().matches(TriplePattern::with_p(p)))
            .collect();
        triples.sort_unstable();
        triples
    };
    assert_eq!(family_b(&par), family_b(&serial));
    assert!(!par.store().contains(rm(B, m1)));
}

/// Store locking under contention: producers feed **disjoint predicate
/// families** concurrently, so their input writes and their rules'
/// distributor writes race on the one store lock. Whatever the
/// interleaving, no fresh triple may be lost or double-counted: every
/// producer-reported fresh count sums to the explicit population, and the
/// closure equals a single-threaded feed of the same input.
#[test]
fn disjoint_family_producers_lose_no_fresh_triples() {
    use slider::model::NodeId;
    use slider::rules::RuleSpec;

    const FAMILIES: usize = 4;
    const TRANS_NAMES: [&str; FAMILIES] = ["T-0", "T-1", "T-2", "T-3"];
    const IS_NAMES: [&str; FAMILIES] = ["S-0", "S-1", "S-2", "S-3"];
    let trans = |f: usize| NodeId(20_000 + 10 * f as u64);
    let is_a = |f: usize| NodeId(20_001 + 10 * f as u64);
    let node = |f: usize, v: u64| NodeId(30_000 + 1_000 * f as u64 + v);

    let ruleset = || {
        let mut rs = Ruleset::custom("four-families");
        for f in 0..FAMILIES {
            rs.push(RuleSpec::transitive(TRANS_NAMES[f], trans(f)));
            rs.push(RuleSpec::subsumption(IS_NAMES[f], is_a(f), trans(f)));
        }
        rs
    };
    // Each family: a chain plus memberships at several chain positions.
    let family_feed = |f: usize| -> Vec<Triple> {
        let mut feed: Vec<Triple> = (1..40)
            .map(|i| Triple::new(node(f, i), trans(f), node(f, i + 1)))
            .collect();
        for m in 0..10 {
            feed.push(Triple::new(node(f, 500 + m), is_a(f), node(f, 1 + m)));
        }
        feed
    };

    // Expected closure from a single-threaded feed.
    let expected = {
        let slider = Slider::new(
            Arc::new(Dictionary::new()),
            ruleset(),
            SliderConfig::default(),
        );
        for f in 0..FAMILIES {
            slider.add_triples(&family_feed(f));
        }
        slider.wait_idle();
        slider.store().to_sorted_vec()
    };

    let slider = Arc::new(Slider::new(
        Arc::new(Dictionary::new()),
        ruleset(),
        SliderConfig::default(),
    ));
    let mut total_fresh = 0usize;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..FAMILIES)
            .map(|f| {
                let slider = Arc::clone(&slider);
                scope.spawn(move || {
                    let feed = family_feed(f);
                    let mut fresh = 0;
                    for chunk in feed.chunks(7) {
                        fresh += slider.add_triples(chunk);
                    }
                    fresh
                })
            })
            .collect();
        total_fresh = handles.into_iter().map(|h| h.join().unwrap()).sum();
    });
    slider.wait_idle();
    let stats = slider.stats();
    assert_eq!(
        slider.store().to_sorted_vec(),
        expected,
        "closure diverged under concurrent family feeds"
    );
    assert_eq!(
        total_fresh, stats.store.explicit,
        "a fresh triple was lost or double-reported"
    );
    assert_eq!(total_fresh as u64, stats.input_fresh);
    assert_eq!(slider.store().len(), expected.len(), "len counter drift");
}

/// A data triple `(a p b)` added while no `(p domain c)` exists is buffered
/// for no domain join — `PRP-DOM` could not use it yet — and must still
/// meet the domain triple when that arrives: the engine judges what a rule
/// can join after the insert, so the domain triple's own join reads it.
/// Both orders, on a pool-less and a pooled engine, each closure checked
/// against the recompute oracle; then the two adds race from two threads
/// (see below).
#[test]
fn a_triple_routed_before_its_join_table_exists_still_joins() {
    use slider::baseline::RecomputeOracle;
    use slider::model::vocab::{RDFS_DOMAIN, RDFS_SUB_CLASS_OF, RDF_TYPE};

    let [a, p, b, c, d] = [0, 1, 2, 3, 4].map(|v| NodeId(40_000 + v));
    let (data, domain) = (Triple::new(a, p, b), Triple::new(p, RDFS_DOMAIN, c));
    let closure = |triples: &[Triple]| {
        let mut oracle = RecomputeOracle::new(Ruleset::rho_df());
        oracle.add(triples);
        oracle.closure().to_sorted_vec()
    };
    let engine = |workers: usize| {
        Slider::new(
            Arc::new(Dictionary::new()),
            Ruleset::rho_df(),
            SliderConfig::default().with_workers(workers),
        )
    };

    let expected = closure(&[data, domain]);
    assert!(expected.contains(&Triple::new(a, RDF_TYPE, c)));
    for workers in [0, 2] {
        for (first, second) in [(data, domain), (domain, data)] {
            let slider = engine(workers);
            materialize(&slider, &[first]);
            materialize(&slider, &[second]);
            let got = slider.store().to_sorted_vec();
            assert_eq!(got, expected, "workers {workers}, {first:?} first");
        }
    }

    // Racing, on fresh pooled engines: one thread adds the data triples,
    // the other the schema that joins them, both released by a spin so
    // that their adds overlap. `(a type c), (c subClassOf d)` is the pair
    // a routing check made *before* the insert loses: when both checks run
    // before both inserts, each add sees the other's table absent and
    // neither triple reaches `CAX-SCO`, so `(a type d)` is never derived.
    let member = Triple::new(a, RDF_TYPE, c);
    let (facts, schema) = (
        [data, member],
        [domain, Triple::new(c, RDFS_SUB_CLASS_OF, d)],
    );
    let expected = closure(&[facts, schema].concat());
    assert!(expected.contains(&Triple::new(a, RDF_TYPE, d)));
    for trial in 0..300 {
        let slider = engine(2);
        let ready = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for batch in [&facts, &schema] {
                let (slider, ready) = (&slider, &ready);
                scope.spawn(move || {
                    ready.fetch_add(1, Ordering::SeqCst);
                    while ready.load(Ordering::SeqCst) < 2 {
                        std::hint::spin_loop();
                    }
                    slider.add_triples(batch);
                });
            }
        });
        slider.wait_idle();
        assert_eq!(slider.store().to_sorted_vec(), expected, "trial {trial}");
    }
}
