//! Concurrency stress: multi-source ingestion, queries racing inference,
//! and teardown under load — the paper's "multiple instances of input
//! manager allows to retrieve data from various sources".

use slider::prelude::*;
use slider::workloads::{encode_all, PaperOntology};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

    let stop = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for _ in 0..4 {
        let slider = Arc::clone(&slider);
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            let mut last = 0usize;
            let mut observations = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let now = slider.store().len();
                assert!(now >= last, "reader saw the store shrink");
                last = now;
                observations += 1;
            }
            observations
        }));
    }

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
                    retracted += slider.remove_triples(chunk);
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
                    enqueued += slider.remove_deferred(chunk);
                    if remover == 0 {
                        slider.flush_maintenance();
                    }
                }
                // Disjoint slices, each triple deferred once: every
                // enqueue is fresh even under full racing.
                assert_eq!(enqueued, 150, "remover {remover} lost deferrals");
            });
        }
    });
    // Apply whatever generation is still pending, then settle.
    slider.flush_maintenance();
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
    use slider::rules::{Subsumption, Transitive};
    let trans_a = NodeId(90_000);
    let is_a = NodeId(90_001);
    let trans_b = NodeId(90_010);
    let inert = NodeId(90_666);
    let ruleset = Ruleset::custom("race-families")
        .with(Transitive::new("T-A", trans_a))
        .with(Subsumption::new("S-A", is_a, trans_a))
        .with(Transitive::new("T-B", trans_b));

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
                    slider.remove_deferred(chunk);
                    if remover == 0 {
                        slider.flush_maintenance();
                    }
                }
            });
        }
    });
    slider.flush_maintenance();
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

/// Lock-free read path, acceptance pin (a): `matches`/`stats`/
/// `to_sorted_vec` complete while the store's write lock — the one shard
/// every subClassOf triple lives in — is held **indefinitely**: the reader
/// answers from the epoch `exclusive()` built on entry and never waits
/// for the section.
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
    slider.materialize(&chain);
    let expected = slider.store().to_sorted_vec();

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

/// Lock-free read path: `matches`/`stats`/`to_sorted_vec` and snapshot
/// reads complete while `exclusive()` holds the store lock
/// **indefinitely** — `exclusive()` builds the epoch on entry, so the
/// reader answers from it and never waits for the section — and they see
/// the **pre-exclusive** epoch until
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
    slider.materialize(&[t1]);

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

/// Lock-free read path (b): a reader loops `stats`/`to_sorted_vec` while
/// a DRed flush spanning two rule families runs. Reads never block (progress is asserted
/// on both sides), generations never regress, and **every observed cut is
/// one of the legal store states** — the pre-flush closure or the
/// post-flush closure — never a torn intermediate (DRed's overdeletions
/// and rederivations publish as one epoch when the section releases).
#[test]
fn readers_observe_only_legal_cuts_across_multi_family_flushes() {
    use slider::rules::Transitive;
    let pa = NodeId(91_000);
    let pb = NodeId(91_010);
    let ruleset = Ruleset::custom("two-families")
        .with(Transitive::new("T-A", pa))
        .with(Transitive::new("T-B", pb));
    let slider = Arc::new(Slider::new(
        Arc::new(Dictionary::new()),
        ruleset,
        SliderConfig::default().with_maintenance_batch(usize::MAX),
    ));
    let link = |p: NodeId, i: u64| Triple::new(NodeId(92_000 + i), p, NodeId(92_001 + i));
    let chains: Vec<Triple> = (1..6).flat_map(|i| [link(pa, i), link(pb, i)]).collect();
    slider.materialize(&chains);
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
                .with(Transitive::new("T-A", pa))
                .with(Transitive::new("T-B", pb)),
            SliderConfig::default(),
        );
        oracle.materialize(&survivors);
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
    slider.remove_deferred(&doomed);
    slider.flush_maintenance();
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
    slider.materialize(&[sco(1, 2), sco(2, 3)]);
    let pinned = slider.store().snapshot();
    assert!(pinned.contains(sco(1, 3)), "closure incomplete");

    assert_eq!(slider.remove_triples(&[sco(2, 3)]), 1);
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

#[test]
fn drop_under_load_terminates() {
    for _ in 0..5 {
        let dict = Arc::new(Dictionary::new());
        let input = encode_all(&PaperOntology::SubClassOf200.generate(1.0), &dict);
        let slider = Slider::new(
            Arc::clone(&dict),
            Ruleset::rho_df(),
            SliderConfig::default().with_buffer_capacity(4),
        );
        slider.add_triples(&input);
        // Drop while hundreds of jobs are in flight.
        drop(slider);
    }
}

// ───────────────────── shared runtime: multi-tenant sessions ─────────────────────

/// Acceptance pin: N ≥ 8 sessions on one `Runtime` run on exactly
/// `workers + 1` threads (the pool plus one flusher) — nothing is spawned
/// per session — and concurrent feeds close each session's store exactly,
/// with no bleed between tenants.
#[test]
fn eight_sessions_share_one_pool_and_close_independently() {
    use slider::model::vocab::RDFS_SUB_CLASS_OF;
    let runtime = Runtime::new(RuntimeConfig::default().with_workers(3));
    let sessions: Vec<Slider> = (0..8)
        .map(|_| runtime.session_fragment(Fragment::RhoDf, SliderConfig::default()))
        .collect();
    assert_eq!(runtime.session_count(), 8);
    assert_eq!(
        runtime.thread_count(),
        3 + 1,
        "a session must not spawn threads: workers + one flusher, always"
    );

    // Session i gets a subClassOf chain of 10 + i links; the closures are
    // different sizes on purpose, so any cross-session bleed is visible.
    let links = |i: usize| 10 + i as u64;
    std::thread::scope(|scope| {
        for (i, session) in sessions.iter().enumerate() {
            scope.spawn(move || {
                let chain: Vec<Triple> = (0..links(i))
                    .map(|k| Triple::new(NodeId(500 + k), RDFS_SUB_CLASS_OF, NodeId(501 + k)))
                    .collect();
                for chunk in chain.chunks(3) {
                    session.add_triples(chunk);
                }
                session.wait_idle();
            });
        }
    });
    for (i, session) in sessions.iter().enumerate() {
        let l = links(i) as usize;
        assert_eq!(
            session.store().len(),
            l * (l + 1) / 2,
            "session {i}: chain closure wrong"
        );
        assert_eq!(session.stats().runtime_sessions, 8);
    }
}

/// Satellite pin (teardown order): dropping one session must not tear
/// down the shared pool or flusher. The co-tenant keeps computing exact
/// closures afterwards — including **timeout-driven** buffer flushes,
/// which only the (still-alive) flusher thread can fire.
#[test]
fn dropping_one_session_leaves_the_cotenant_running() {
    use slider::model::vocab::RDFS_SUB_CLASS_OF;
    let runtime = Runtime::new(RuntimeConfig::default().with_workers(2));
    let doomed = runtime.session_fragment(Fragment::RhoDf, SliderConfig::default());
    let survivor = Arc::new(runtime.session_fragment(Fragment::RhoDf, SliderConfig::default()));

    // Put the doomed session under load and drop it mid-flight.
    let sco = |a: u64, b: u64| Triple::new(NodeId(3_000 + a), RDFS_SUB_CLASS_OF, NodeId(3_000 + b));
    doomed.add_triples(&(0..200).map(|k| sco(k, k + 1)).collect::<Vec<_>>());
    drop(doomed);
    assert_eq!(runtime.session_count(), 1);
    assert_eq!(runtime.thread_count(), 3, "the pool died with a session");

    // Two triples in a 1024-capacity buffer: only a flusher timeout can
    // drain them. Bound the wait so a dead flusher fails the test instead
    // of hanging it.
    survivor.add_triples(&[sco(1, 2), sco(2, 3)]);
    let (tx, rx) = std::sync::mpsc::channel();
    let waiter = {
        let survivor = Arc::clone(&survivor);
        std::thread::spawn(move || {
            survivor.wait_idle();
            let _ = tx.send(());
        })
    };
    rx.recv_timeout(Duration::from_secs(10))
        .expect("the flusher died with the dropped session");
    waiter.join().unwrap();
    assert_eq!(survivor.store().len(), 3, "sco(1,3) was not derived");
}

/// Satellite pin (flusher wake-up): the flusher parks indefinitely while
/// no live session has a deadline; registering a session **with** one
/// must nudge it awake, or the new session's timeout flushes never fire.
#[test]
fn registering_a_deadlined_session_wakes_a_parked_flusher() {
    use slider::model::vocab::RDFS_SUB_CLASS_OF;
    let runtime = Runtime::new(RuntimeConfig::default().with_workers(1));
    // Spawn-then-drop a deadlined session: the flusher thread starts,
    // then — with the live set empty — has nothing to tick for and parks.
    drop(runtime.session_fragment(Fragment::RhoDf, SliderConfig::default()));
    assert_eq!(runtime.thread_count(), 2);
    std::thread::sleep(Duration::from_millis(30));

    let session = Arc::new(runtime.session_fragment(
        Fragment::RhoDf,
        SliderConfig::default().with_timeout(Some(Duration::from_millis(5))),
    ));
    let sco = |a: u64, b: u64| Triple::new(NodeId(4_000 + a), RDFS_SUB_CLASS_OF, NodeId(4_000 + b));
    session.add_triples(&[sco(1, 2), sco(2, 3)]);
    let (tx, rx) = std::sync::mpsc::channel();
    let waiter = {
        let session = Arc::clone(&session);
        std::thread::spawn(move || {
            session.wait_idle();
            let _ = tx.send(());
        })
    };
    rx.recv_timeout(Duration::from_secs(10))
        .expect("registration did not wake the parked flusher");
    waiter.join().unwrap();
    assert_eq!(session.store().len(), 3);
}

/// Isolation battery (a): a rule that panics mid-join loses its own
/// conclusions and nothing else. The panicking session's inflight tokens
/// are released (its `wait_idle` returns), its *other* rules keep
/// deriving, and a co-tenant sharing the workers computes an exact
/// closure throughout.
#[test]
fn a_panicking_rule_is_contained_to_its_session() {
    use slider::rules::{InputFilter, OutputSignature, Rule, Transitive};
    use slider::store::VerticalStore;

    /// Detonates on every application; accepts only its trigger predicate.
    struct Grenade {
        trigger: NodeId,
    }
    impl Rule for Grenade {
        fn name(&self) -> &'static str {
            "GRENADE"
        }
        fn definition(&self) -> &'static str {
            "(s trigger o) ⊢ panic!"
        }
        fn input_filter(&self) -> InputFilter {
            InputFilter::Predicates(vec![self.trigger])
        }
        fn output_signature(&self) -> OutputSignature {
            OutputSignature::Predicates(vec![])
        }
        fn apply(&self, _store: &VerticalStore, _delta: &[Triple], _out: &mut Vec<Triple>) {
            panic!("grenade detonated (deliberately, in a test)");
        }
    }

    let trans = NodeId(95_000);
    let trigger = NodeId(95_001);
    let runtime = Runtime::new(RuntimeConfig::default().with_workers(2));
    let victim = Arc::new(
        runtime.session(
            Arc::new(Dictionary::new()),
            Ruleset::custom("grenade")
                .with(Transitive::new("T", trans))
                .with(Grenade { trigger }),
            // Capacity 1: every trigger triple detonates its own rule instance.
            SliderConfig::default().with_buffer_capacity(1),
        ),
    );
    let bystander = Arc::new(runtime.session_fragment(Fragment::RhoDf, SliderConfig::default()));

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
    // inflight token. Bound the wait so a leaked token fails, not hangs.
    let (tx, rx) = std::sync::mpsc::channel();
    let waiter = {
        let victim = Arc::clone(&victim);
        std::thread::spawn(move || {
            victim.wait_idle();
            let _ = tx.send(());
        })
    };
    rx.recv_timeout(Duration::from_secs(10))
        .expect("a panicked rule instance leaked its inflight token");
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

/// Isolation battery (b): a co-tenant with a huge pending DRed being
/// flushed under a per-tick budget must not stall another session's
/// ingest. The flush is sliced (`budget_deferrals` counts the deferrals),
/// drains to the exact closure across ticks, and the other session's
/// `add_triples` calls stay bounded while it happens.
#[test]
fn a_budgeted_flush_defers_and_does_not_stall_the_cotenant() {
    use std::time::Instant;
    let runtime = Runtime::new(
        RuntimeConfig::default()
            .with_workers(2)
            // Zero budget = exactly one reserve slice per tick: maximal
            // slicing, deterministic deferral counts.
            .with_maintenance_budget(Some(Duration::ZERO)),
    );
    let churn = runtime.session(
        Arc::new(Dictionary::new()),
        Ruleset::rho_df(),
        SliderConfig::default()
            .with_maintenance_batch(usize::MAX) // only the deadline triggers
            .with_maintenance_max_age(Some(Duration::from_millis(1))),
    );
    let plain = |k: u64| Triple::new(NodeId(50_000 + k), NodeId(40_000), NodeId(60_000 + k));
    let preload: Vec<Triple> = (0..2_000).map(plain).collect();
    churn.add_triples(&preload);
    churn.wait_idle();
    assert_eq!(churn.remove_deferred(&preload[..1_500]), 1_500);

    // While the flusher slices that backlog, the co-tenant ingests; each
    // call must complete promptly (generous bound — the precise p99 claim
    // is the multi_tenant bench's job).
    let live = Arc::new(runtime.session_fragment(Fragment::RhoDf, SliderConfig::default()));
    use slider::model::vocab::RDFS_SUB_CLASS_OF;
    let chain: Vec<Triple> = (0..100)
        .map(|k| Triple::new(NodeId(500 + k), RDFS_SUB_CLASS_OF, NodeId(501 + k)))
        .collect();
    for chunk in chain.chunks(4) {
        let start = Instant::now();
        live.add_triples(chunk);
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "co-tenant ingest stalled behind a sliced flush"
        );
    }
    live.wait_idle();
    assert_eq!(live.store().len(), 100 * 101 / 2);

    // The sliced flush converges to the unsliced store.
    let deadline = Instant::now() + Duration::from_secs(20);
    while churn.stats().pending_removals > 0 {
        assert!(
            Instant::now() < deadline,
            "budget-sliced flush never drained: {}",
            churn.stats()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = churn.stats();
    assert!(
        stats.budget_deferrals > 0,
        "1 500 pending retractions flushed without a single slice deferral\n{stats}"
    );
    assert_eq!(stats.retracted, 1_500);
    assert_eq!(stats.runtime_sessions, 2);
    assert_eq!(churn.store().len(), 500);
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
    use slider::rules::{InputFilter, OutputSignature, Rule, Subsumption, Transitive};
    use slider::store::VerticalStore;
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
        fn derives(&self, store: &VerticalStore, t: Triple) -> Option<bool> {
            assert!(Some(t.s) != self.poison, "{}: poisoned subject", self.name);
            Some(t.p == self.family.mark && store.contains(Triple::new(t.s, self.family.is, t.o)))
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
            rs.push(Transitive::new(t, f.trans));
            rs.push(Subsumption::new(s, f.is, f.trans));
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
    par.materialize(&input);

    let entered_before = entered.load(Ordering::SeqCst);
    let (a, b) = std::thread::scope(|scope| {
        let blocker = {
            let par = Arc::clone(&par);
            scope.spawn(move || par.remove_triples_outcome(&[rm(A, m2)]))
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
            scope.spawn(move || par.remove_triples_outcome(&[rm(A, m0)]))
        };
        let b = {
            let par = Arc::clone(&par);
            scope.spawn(move || par.remove_triples_outcome(&[rm(B, m1)]))
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
    serial.materialize(&input);
    serial.remove_triples(&[rm(A, m2)]);
    assert_eq!(b, serial.remove_triples_outcome(&[rm(B, m1)]));
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
    use slider::rules::{Subsumption, Transitive};

    const FAMILIES: usize = 4;
    const TRANS_NAMES: [&str; FAMILIES] = ["T-0", "T-1", "T-2", "T-3"];
    const IS_NAMES: [&str; FAMILIES] = ["S-0", "S-1", "S-2", "S-3"];
    let trans = |f: usize| NodeId(20_000 + 10 * f as u64);
    let is_a = |f: usize| NodeId(20_001 + 10 * f as u64);
    let node = |f: usize, v: u64| NodeId(30_000 + 1_000 * f as u64 + v);

    let ruleset = || {
        let mut rs = Ruleset::custom("four-families");
        for f in 0..FAMILIES {
            rs.push(Transitive::new(TRANS_NAMES[f], trans(f)));
            rs.push(Subsumption::new(IS_NAMES[f], is_a(f), trans(f)));
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
