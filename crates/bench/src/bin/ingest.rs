//! The `ingest` benchmark: concurrent readers and writers on the store,
//! and dictionary interning under contention.
//!
//! * **Read-heavy**: N query threads race one writer on the raw store,
//!   each query answered from an epoch (`ShardedStore::matches`). The
//!   first query to find the epoch stale waits for the writer's batch;
//!   from then on the writer builds the epoch at every write, so queries
//!   stop waiting. The writer feeds the shared [`family`]
//!   workload: several independent predicate families, each a class chain
//!   plus batches of memberships.
//! * **Dictionary interning**: threads intern disjoint or overlapping
//!   vocabularies into one shared dictionary; under `--smoke` the result
//!   is checked against a single-threaded reference.
//! * **Dictionary footprint**: a retraction burst followed by the
//!   automatic sweep, reporting how many dictionary bytes it reclaims.
//!
//! ```text
//! cargo run --release -p slider-bench --bin ingest            # full size
//! cargo run --release -p slider-bench --bin ingest -- --smoke # CI smoke
//! ```
//!
//! `--smoke` runs a tiny workload and verifies every cell (store
//! completeness, dictionary agreement, sweep reclamation).
//! `--json <path>` additionally writes the machine-readable trajectory
//! (`slider_bench::report`) for cross-commit comparison.

use slider_baseline::RecomputeOracle;
use slider_bench::report::{BenchReport, Cell};
use slider_bench::{family, parse_bench_args};
use slider_core::{Slider, SliderConfig};
use slider_model::{Dictionary, NodeId, Term, TermTriple, Triple};
use slider_rules::Ruleset;
use slider_store::TriplePattern;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Params {
    /// Independent predicate families.
    families: u64,
    /// Depth of each family's resident class chain.
    depth: u64,
    /// Membership batches per family.
    batches: u64,
    /// Instance-membership triples per batch.
    members: u64,
    /// Reader threads in the read-heavy cell; interning threads in the
    /// dictionary cell.
    threads: usize,
    /// Verify every cell.
    verify: bool,
}

const SMOKE: Params = Params {
    families: 4,
    depth: 5,
    batches: 6,
    members: 5,
    threads: 2,
    verify: true,
};

const FULL: Params = Params {
    families: 8,
    depth: 14,
    batches: 80,
    members: 50,
    threads: 4,
    verify: false,
};

/// Everything the writer feeds for family `f`: the resident chain, then
/// per batch a fresh leaf linked into the chain plus its members. Uses the
/// shared [`family`] vocabulary helpers so the predicates match the
/// retraction bench.
fn family_feed(f: u64, p: &Params) -> Vec<Triple> {
    let mut feed: Vec<Triple> = (0..p.depth - 1)
        .map(|d| {
            Triple::new(
                family::class(f, d),
                family::trans_pred(f),
                family::class(f, d + 1),
            )
        })
        .collect();
    for i in 0..p.batches {
        let leaf = family::batch_leaf(f, i);
        feed.push(Triple::new(
            leaf,
            family::trans_pred(f),
            family::class(f, 0),
        ));
        for k in 0..p.members {
            let inst = NodeId(1_000_000 + f * 100_000 + i * p.members + k);
            feed.push(Triple::new(inst, family::is_pred(f), leaf));
        }
    }
    feed
}

/// One timed **read-heavy** cell: `readers` threads each run `sweeps`
/// rounds of pattern queries over every family predicate while one writer
/// continuously feeds the workload into the store (cycling once the feed
/// is exhausted, so writes contend for the cell's whole duration).
/// Readers answer from an epoch
/// ([`slider_store::ShardedStore::matches`]); the first reader to find it
/// stale waits for the writer's batch, which switches the store to
/// building the epoch at every write. Returns the time for all
/// readers to finish, the total queries completed, and the store for
/// verification.
fn run_read_cell(
    feeds: &[Vec<Triple>],
    families: u64,
    readers: usize,
    sweeps: u64,
) -> (Duration, u64, slider_store::ShardedStore) {
    let store = slider_store::ShardedStore::new();
    let done = AtomicBool::new(false);
    let queries = AtomicU64::new(0);
    let start = Instant::now();
    let elapsed = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                let (store, queries) = (&store, &queries);
                scope.spawn(move || {
                    for _ in 0..sweeps {
                        for f in 0..families {
                            let pattern = TriplePattern::with_p(family::trans_pred(f));
                            std::hint::black_box(store.matches(pattern));
                            queries.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        let writer = scope.spawn(|| {
            let mut fresh = Vec::new();
            // First pass runs to completion — the verified final store
            // must contain the whole workload; later cycles just keep the
            // write locks hot and bail as soon as the readers are done.
            for feed in feeds {
                for chunk in feed.chunks(32) {
                    fresh.clear();
                    store.insert_batch(chunk, &mut fresh);
                }
            }
            while !done.load(Ordering::Relaxed) {
                for feed in feeds {
                    for chunk in feed.chunks(32) {
                        fresh.clear();
                        store.insert_batch(chunk, &mut fresh);
                        if done.load(Ordering::Relaxed) {
                            return;
                        }
                    }
                }
            }
        });
        for handle in handles {
            handle.join().expect("reader panicked");
        }
        let elapsed = start.elapsed();
        done.store(true, Ordering::Relaxed);
        writer.join().expect("writer panicked");
        elapsed
    });
    (elapsed, queries.load(Ordering::Relaxed), store)
}

/// Per-thread vocabulary lists for the dictionary-contention cell:
/// `overlap` makes every thread intern the *same* terms (pure index
/// contention — every insert races); disjoint lists only collide on
/// shard hash.
fn dict_vocab(threads: usize, per_thread: usize, overlap: bool) -> Vec<Vec<Term>> {
    (0..threads)
        .map(|t| {
            let tag = if overlap { 0 } else { t };
            (0..per_thread)
                .map(|i| Term::iri(format!("http://bench/dict/{tag}/term-{i}")))
                .collect()
        })
        .collect()
}

/// One timed dictionary-interning cell: one thread per vocabulary list,
/// all interning into one dictionary. Returns the elapsed time and the
/// dictionary for verification.
fn run_dict_cell(lists: &[Vec<Term>]) -> (Duration, Dictionary) {
    let dict = Dictionary::new();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for list in lists {
            let dict = &dict;
            scope.spawn(move || {
                for term in list {
                    std::hint::black_box(dict.intern(term));
                }
            });
        }
    });
    (start.elapsed(), dict)
}

/// Smoke check for the dictionary-contention cells: the concurrently
/// built dictionary and a single-threaded reference over the same
/// vocabulary must both hold a **dense** id set (one id per distinct
/// term, no holes above the vocabulary), every term must round-trip
/// through id→term lookup, and a closure computed over triples encoded
/// by each dictionary must decode identically — concurrency changes
/// contention, never term assignments.
fn verify_dict_agreement(lists: &[Vec<Term>], concurrent: &Dictionary) {
    let mut distinct: Vec<&Term> = lists.iter().flatten().collect();
    distinct.sort_unstable();
    distinct.dedup();
    let reference = Dictionary::new();
    for term in lists.iter().flatten() {
        reference.intern(term);
    }
    let base = slider_model::vocab::VOCAB_LEN as u64;
    for dict in [&reference, concurrent] {
        assert_eq!(dict.len(), slider_model::vocab::VOCAB_LEN + distinct.len());
        let mut ids: Vec<u64> = distinct
            .iter()
            .map(|t| dict.id_of(t).expect("term interned").0)
            .collect();
        ids.sort_unstable();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(id, base + i as u64, "interned ids are not dense");
        }
        for &t in &distinct {
            let id = dict.id_of(t).expect("term interned");
            assert_eq!(dict.lookup(id).as_ref(), Some(t), "id→term round-trip");
        }
    }
    // Same closure through either dictionary: a subClassOf chain over the
    // first distinct terms, encoded per-dictionary (so the raw NodeIds
    // may differ), closed by the oracle, decoded back to terms.
    let sco = Term::iri("http://www.w3.org/2000/01/rdf-schema#subClassOf");
    let chain: Vec<TermTriple> = distinct
        .windows(2)
        .take(40)
        .map(|w| (w[0].clone(), sco.clone(), w[1].clone()))
        .collect();
    let closure_terms = |dict: &Dictionary| -> Vec<TermTriple> {
        let encoded: Vec<Triple> = chain.iter().map(|t| dict.encode_triple(t)).collect();
        let mut oracle = RecomputeOracle::new(Ruleset::rho_df());
        oracle.add(&encoded);
        let mut decoded: Vec<TermTriple> = oracle
            .to_sorted_vec()
            .into_iter()
            .map(|t| dict.decode_triple(t).expect("closure ids decode"))
            .collect();
        decoded.sort();
        decoded
    };
    assert_eq!(
        closure_terms(&reference),
        closure_terms(concurrent),
        "oracle closure diverged from the single-threaded reference"
    );
}

fn main() {
    let (smoke, json_path) = parse_bench_args("ingest [--smoke] [--json <path>]");
    let p = if smoke { SMOKE } else { FULL };

    let input: usize = (0..p.families).map(|f| family_feed(f, &p).len()).sum();
    let runs = if smoke { 1 } else { 3 };
    let mut report = BenchReport::new(
        "ingest",
        format!(
            "{} families × depth {}, {} batches × {} members ({} input triples)",
            p.families, p.depth, p.batches, p.members, input
        ),
    )
    .best_of(runs)
    .config("smoke", smoke)
    .config("families", p.families)
    .config("input_triples", input);
    println!(
        "ingest bench: {} families × depth {}, {} batches × {} members — {} input triples{}",
        p.families,
        p.depth,
        p.batches,
        p.members,
        input,
        if smoke { " [smoke]" } else { "" }
    );

    let feeds: Vec<Vec<Triple>> = (0..p.families).map(|f| family_feed(f, &p)).collect();

    // --- read-heavy: N epoch readers vs 1 writer ------------------------
    let read_threads = p.threads;
    let sweeps: u64 = if smoke { 100 } else { 400 };
    println!("read-heavy ({read_threads} reader(s) × {sweeps} sweeps racing 1 writer):");
    {
        let (mut took, mut qs, mut store) = run_read_cell(&feeds, p.families, read_threads, sweeps);
        for _ in 1..runs {
            let (t, q, s) = run_read_cell(&feeds, p.families, read_threads, sweeps);
            if t < took {
                (took, qs, store) = (t, q, s);
            }
        }
        let rate = qs as f64 / took.as_secs_f64().max(1e-9);
        println!(
            "  epoch readers: {:>9.2} ms to drain, {:>7} queries, {:>10.0} queries/s",
            took.as_secs_f64() * 1e3,
            qs,
            rate,
        );
        report.push(
            Cell::new(format!("read-heavy/epoch/{read_threads}-readers"))
                .param("phase", "read-heavy")
                .param("readers", read_threads)
                .param("sweeps", sweeps)
                .metric("elapsed_ms", took.as_secs_f64() * 1e3)
                .metric("queries", qs as f64)
                .metric("queries_per_sec", rate),
        );
        if p.verify {
            let mut want: Vec<Triple> = feeds.iter().flatten().copied().collect();
            want.sort_unstable();
            want.dedup();
            assert_eq!(store.to_sorted_vec(), want, "read-heavy cell lost writes");
            println!("    ✓ store complete under racing epoch readers");
        }
    }

    // --- dictionary interning contention -------------------------------
    let dict_threads = p.threads;
    let per_thread = if smoke { 2_000 } else { 50_000 };
    println!("dict interning ({dict_threads} thread(s) × {per_thread} terms):");
    for (mode, overlap) in [("disjoint", false), ("overlapping", true)] {
        let lists = dict_vocab(dict_threads, per_thread, overlap);
        let total: usize = lists.iter().map(Vec::len).sum();
        let (mut took, mut dict) = run_dict_cell(&lists);
        for _ in 1..runs {
            let (t, d) = run_dict_cell(&lists);
            if t < took {
                (took, dict) = (t, d);
            }
        }
        let stats = dict.stats();
        println!(
            "  {mode:>11}: {:>9.2} ms, {:>10.0} terms/s ({} shard conflicts)",
            took.as_secs_f64() * 1e3,
            total as f64 / took.as_secs_f64().max(1e-9),
            stats.shard_conflicts,
        );
        report.push(
            Cell::new(format!("dict-intern/{mode}"))
                .param("phase", "dict-intern")
                .param("vocabularies", mode)
                .param("threads", dict_threads)
                .metric("elapsed_ms", took.as_secs_f64() * 1e3)
                .metric("terms_per_sec", total as f64 / took.as_secs_f64().max(1e-9))
                .metric("shard_conflicts", stats.shard_conflicts as f64),
        );
        if p.verify {
            verify_dict_agreement(&lists, &dict);
            println!("    ✓ agrees with a single-threaded reference: dense ids, round-trips, same closure");
        }
    }

    // --- dictionary footprint & post-retraction compaction -------------
    {
        let members = if smoke { 2_000 } else { 50_000 };
        println!("dict footprint (load {members} members, retract the burst, auto-sweep):");
        let dict = Arc::new(Dictionary::new());
        let slider = Slider::new(Arc::clone(&dict), Ruleset::rho_df(), SliderConfig::batch());
        let sco = Term::iri("http://www.w3.org/2000/01/rdf-schema#subClassOf");
        let ty = Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
        let class = |d: usize| Term::iri(format!("http://bench/class-{d}"));
        let schema: Vec<TermTriple> = (0..10)
            .map(|d| (class(d), sco.clone(), class(d + 1)))
            .collect();
        let burst: Vec<TermTriple> = (0..members)
            .map(|i| {
                (
                    Term::iri(format!("http://bench/member-{i}")),
                    ty.clone(),
                    class(0),
                )
            })
            .collect();
        slider.add_terms(&schema);
        slider.add_terms(&burst);
        slider.wait_idle();
        let loaded = dict.stats();
        let start = Instant::now();
        let removed = slider.remove_terms(&burst);
        let took = start.elapsed();
        assert_eq!(removed, members, "the whole burst was explicit");
        let after = dict.stats();
        let reclaim = 1.0 - after.bytes_estimate as f64 / loaded.bytes_estimate.max(1) as f64;
        println!(
            "  loaded: {:>6} terms, {:>9} bytes",
            loaded.terms, loaded.bytes_estimate
        );
        println!(
            "  swept:  {:>6} terms, {:>9} bytes after {} sweep(s) — \
             {:.1}% reclaimed ({:.2} ms retract+sweep)",
            after.terms,
            after.bytes_estimate,
            after.sweeps,
            reclaim * 100.0,
            took.as_secs_f64() * 1e3,
        );
        report.push(
            Cell::new("dict-footprint/retraction-burst")
                .param("phase", "dict-footprint")
                .param("members", members)
                .metric("bytes_after_load", loaded.bytes_estimate as f64)
                .metric("bytes_after_sweep", after.bytes_estimate as f64)
                .metric("reclaim_ratio", reclaim)
                .metric("sweeps", after.sweeps as f64)
                .metric("tombstones", after.tombstones as f64)
                .metric("retract_sweep_ms", took.as_secs_f64() * 1e3),
        );
        if p.verify {
            assert!(after.sweeps >= 1, "the retraction burst should auto-sweep");
            assert!(
                reclaim >= 0.30,
                "sweep reclaimed only {:.1}% of dict bytes",
                reclaim * 100.0
            );
            // Every id still reachable from the store survived the sweep.
            for t in &schema {
                for term in [&t.0, &t.1, &t.2] {
                    let id = dict.id_of(term).expect("schema term survived the sweep");
                    assert_eq!(dict.lookup(id).as_ref(), Some(term));
                }
            }
            println!("    ✓ sweep reclaimed ≥ 30% of dict bytes; store-referenced ids intact");
        }
    }

    if let Some(path) = json_path {
        report.write(&path).expect("bench trajectory written");
    }
}
