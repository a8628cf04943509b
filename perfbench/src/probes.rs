//! Isolated probes for the traced run: the same input pushed through one
//! layer at a time, from outside, through the layer's public functions.

use crate::inputs::{Input, Shape};
use crate::measure::{median, Tracer};
use crate::report::Metrics;
use crate::scenario::{engine_config, load, Timings, LOAD_CHUNK};
use slider_baseline::NaiveReasoner;
use slider_core::{Slider, SliderConfig};
use slider_model::{Dictionary, TermTriple, Triple};
use slider_parser::{load_ntriples, NTriplesParser};
use slider_rules::{Fragment, Ruleset};
use slider_store::{ShardedStore, TriplePattern};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Buffer capacities of `core.buffer_*_s` — the paper's §4 parameter.
const BUFFER_CURVE: [usize; 3] = [64, 1024, 16384];
/// Queries per kind timed on the quiescent final store.
const STORE_QUERIES: usize = 1024;

/// Times `f` up to three times, stopping once a second has been spent, and
/// returns the median with the last result: quick probes are repeated, slow
/// ones are not.
fn probe<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::new();
    loop {
        let start = Instant::now();
        let out = f();
        times.push(start.elapsed().as_secs_f64());
        if times.len() == 3 || times.iter().sum::<f64>() > 1.0 {
            return (median(&times), out);
        }
    }
}

/// First half of an N-Triples text, cut at a line end.
fn first_half(text: &str) -> &str {
    let lines = text.lines().count();
    let cut = text
        .match_indices('\n')
        .nth(lines / 2 - 1)
        .map_or(text.len(), |(i, _)| i + 1);
    &text[..cut]
}

/// Seconds one untraced load of `text` takes on an engine built from `config`.
fn load_seconds(text: &str, fragment: Fragment, config: SliderConfig) -> f64 {
    let mut timings = Timings::default();
    load(
        text,
        fragment,
        config,
        &mut Tracer::new(false),
        &mut timings,
    );
    timings.seconds
}

/// Inserts `triples` into a bare store the way the engine's input manager
/// does, and returns the store.
fn insert_all(triples: &[Triple]) -> ShardedStore {
    let store = ShardedStore::new();
    let mut fresh = Vec::new();
    for chunk in triples.chunks(LOAD_CHUNK) {
        fresh.clear();
        store.insert_batch_explicit(chunk, &mut fresh);
    }
    store
}

/// Runs every probe `input`'s scenario has a use for. `rep_s` is the median
/// untraced repetition time, `join_s` the reference's join time, and
/// `engine` the last repetition's engine, quiescent.
pub fn run(input: &Input, engine: &Slider, rep_s: f64, join_s: f64, m: &mut Metrics) {
    let loads = matches!(input.shape, Shape::Load);
    let fragment = input.workload.fragment();

    // parser and model: only where the scenario parses or interns inside
    // the timed region.
    if loads {
        let (parse_s, lines) = probe(|| NTriplesParser::new(input.text.as_bytes()).count());
        m.push("parser.parse_s", parse_s, 1);
        m.push("parser.lines", lines as f64, 1);
    }
    if !matches!(input.shape, Shape::Ingest { .. }) {
        let terms: Vec<TermTriple> = NTriplesParser::new(input.text.as_bytes())
            .map(|r| r.expect("generated N-Triples parse"))
            .collect();
        let (intern_s, _) = probe(|| {
            let dict = Dictionary::new();
            let encoded: Vec<Triple> = terms
                .iter()
                .cloned()
                .map(|t| dict.encode_triple_owned(t))
                .collect();
            black_box(encoded.len())
        });
        m.push("model.intern_s", intern_s, 1);
    }

    // store: bare inserts at n and n/2, removal, and reads on the final store.
    let resident = &input.resident;
    let (insert_s, store) = probe(|| insert_all(resident));
    let (half_s, _) = probe(|| insert_all(&resident[..resident.len() / 2]));
    m.push("store.insert_s", insert_s, 1);
    m.push("store.publishes", store.snapshot_generation() as f64, 1);
    m.push("store.insert_exponent", (insert_s / half_s).log2(), 1);
    let start = Instant::now();
    let mut removed = Vec::new();
    for chunk in resident.chunks(LOAD_CHUNK) {
        removed.clear();
        store.remove_batch(chunk, &mut removed);
    }
    m.push("store.remove_s", start.elapsed().as_secs_f64(), 1);
    drop(store);

    let keys = || resident.iter().cycle().step_by(7).take(STORE_QUERIES);
    let final_store = engine.store();
    let (match_s, _) = probe(|| {
        keys()
            .map(|t| {
                final_store
                    .matches(TriplePattern::new(Some(t.s), None, None))
                    .len()
            })
            .sum::<usize>()
    });
    let (contains_s, _) = probe(|| keys().filter(|&&t| final_store.contains(t)).count());
    let per_query_us = 1e6 / STORE_QUERIES as f64;
    m.push("store.match_us", match_s * per_query_us, STORE_QUERIES);
    m.push(
        "store.contains_us",
        contains_s * per_query_us,
        STORE_QUERIES,
    );

    // core: the engine on pre-encoded input, against the serial sum of the
    // two layers it coordinates.
    let (engine_s, _) = probe(|| {
        let dict = Arc::clone(&input.dict);
        let ruleset = Ruleset::fragment(fragment, &dict);
        let slider = Slider::new(dict, ruleset, engine_config());
        for chunk in resident.chunks(LOAD_CHUNK) {
            slider.add_triples(chunk);
        }
        slider.wait_idle();
        slider.store().len()
    });
    m.push("core.engine_s", engine_s, 1);
    m.push("core.speedup_vs_serial", (insert_s + join_s) / engine_s, 1);

    if loads {
        for capacity in BUFFER_CURVE {
            let config = engine_config().with_buffer_capacity(capacity);
            let (s, _) = probe(|| load_seconds(&input.text, fragment, config.clone()));
            m.push(format!("core.buffer_{capacity}_s"), s, 1);
        }
        let (half_s, _) =
            probe(|| load_seconds(first_half(&input.text), fragment, engine_config()));
        m.push("load_scaling_exponent", (rep_s / half_s).log2(), 1);

        // The paper's comparator: parse, load, batch fixpoint.
        let (batch_s, _) = probe(|| {
            let dict = Arc::new(Dictionary::new());
            let triples =
                load_ntriples(input.text.as_bytes(), &dict).expect("generated N-Triples parse");
            let mut naive = NaiveReasoner::new(Ruleset::fragment(fragment, &dict));
            naive.load(&triples);
            naive.materialize();
            naive.store().len()
        });
        m.push("baseline.batch_s", batch_s, 1);
        m.push("gain_pct", (batch_s / rep_s - 1.0) * 100.0, 1);
    }

    // One explicit sweep after the last step. Only the window's engine owns
    // its dictionary; a sweep of a shared one could retire terms in use.
    if matches!(input.shape, Shape::Window { .. }) {
        let start = Instant::now();
        engine.sweep_dictionary();
        m.push("model.sweep_s", start.elapsed().as_secs_f64(), 1);
    }
}
