//! One repetition of each workload on a fresh engine, through the public
//! API only, with a span around every call into a layer; and the reference
//! each repetition is checked against.

use crate::inputs::{Input, Query, Shape};
use crate::measure::{fnv1a, Tracer, FNV_OFFSET};
use slider_baseline::SemiNaiveReasoner;
use slider_core::{Slider, SliderConfig, StatsSnapshot};
use slider_model::{Dictionary, FxHashMap, NodeId, TermTriple, Triple};
use slider_parser::NTriplesParser;
use slider_rules::{Fragment, Ruleset};
use slider_store::TriplePattern;
use std::sync::Arc;
use std::time::Instant;

/// Triples handed to `add_triples` per call on the load path.
pub const LOAD_CHUNK: usize = 4096;

/// The engine every workload runs on: two workers (the box has two cores),
/// every other knob at its default.
pub fn engine_config() -> SliderConfig {
    SliderConfig::default().with_workers(2)
}

/// Size and hash of a closure, in the input dictionary's id space.
pub type ClosureDigest = (usize, u64);

/// What one repetition timed.
#[derive(Default)]
pub struct Timings {
    /// Time spent on the fresh engine before the clock started: building it
    /// and loading the resident background. Part of `setup_s`.
    pub before_clock_s: f64,
    /// Wall-clock time of the scenario, first hand-over to last result.
    pub seconds: f64,
    /// Explicit triples handed in (arrivals and expiries).
    pub handed_in: usize,
    /// One sample per hand-over: from giving the engine a batch (on the load
    /// path, the whole input) until `wait_idle` returns.
    pub closure_ms: Vec<f64>,
    /// One sample per query block: block time / queries in it.
    pub query_us: Vec<f64>,
    /// Hits of each query block.
    pub query_hits: Vec<u64>,
}

/// One repetition: its timings, the engine's counters when it ended and the
/// digest of the closure it produced.
pub struct Rep {
    pub traced: bool,
    pub timings: Timings,
    pub stats: StatsSnapshot,
    pub closure: ClosureDigest,
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Runs one repetition of `input`'s scenario and returns the engine with it,
/// still holding the final store.
pub fn run(input: &Input, config: SliderConfig, t: &mut Tracer, traced: bool) -> (Rep, Slider) {
    t.next_rep();
    let mut rep = Timings::default();
    let slider = match &input.shape {
        Shape::Load => load(&input.text, input.workload.fragment(), config, t, &mut rep),
        Shape::Window { tbox, window } => {
            let before_clock = Instant::now();
            let slider = Slider::fragment(input.workload.fragment(), config);
            // Resident background: loaded before the clock starts.
            slider.add_terms(tbox);
            slider.wait_idle();
            rep.before_clock_s = before_clock.elapsed().as_secs_f64();
            let start = Instant::now();
            t.span("rep", |t| {
                for step in window.steps() {
                    let handed = Instant::now();
                    t.span("step", |t| {
                        if let Some(expired) = step.expiring {
                            rep.handed_in += expired.len();
                            t.span("engine.remove", |_| slider.remove_terms(expired));
                        }
                        rep.handed_in += step.arrival.len();
                        t.span("engine.add", |_| slider.add_terms(step.arrival));
                        t.span("engine.wait_idle", |_| slider.wait_idle());
                    });
                    rep.closure_ms.push(ms(handed));
                }
            });
            rep.seconds = start.elapsed().as_secs_f64();
            slider
        }
        Shape::Ingest { batches, queries } => {
            let before_clock = Instant::now();
            let dict = Arc::clone(&input.dict);
            let ruleset = Ruleset::fragment(input.workload.fragment(), &dict);
            let slider = Slider::new(dict, ruleset, config);
            rep.before_clock_s = before_clock.elapsed().as_secs_f64();
            let start = Instant::now();
            t.span("rep", |t| {
                for (batch, block) in batches.iter().zip(queries) {
                    let handed = Instant::now();
                    rep.handed_in += batch.len();
                    t.span("step", |t| {
                        t.span("engine.add", |_| slider.add_triples(batch));
                        t.span("engine.wait_idle", |_| slider.wait_idle());
                    });
                    rep.closure_ms.push(ms(handed));
                    let asked = Instant::now();
                    let store = slider.store();
                    let hits = t.span("query", |_| {
                        run_block(block, |p| store.matches(p).len(), |q| store.contains(q))
                    });
                    rep.query_us
                        .push(asked.elapsed().as_secs_f64() * 1e6 / block.len() as f64);
                    rep.query_hits.push(hits);
                }
            });
            rep.seconds = start.elapsed().as_secs_f64();
            slider
        }
    };
    let rep = Rep {
        traced,
        timings: rep,
        stats: slider.stats(),
        closure: closure_digest(slider.store().to_sorted_vec(), slider.dict(), &input.dict),
    };
    (rep, slider)
}

/// Table 1's pipeline: text → parser → dictionary → engine, a chunk at a
/// time, then wait for the closure. The clock covers all of it, engine
/// construction included.
pub fn load(
    text: &str,
    fragment: Fragment,
    config: SliderConfig,
    t: &mut Tracer,
    rep: &mut Timings,
) -> Slider {
    let start = Instant::now();
    let slider = t.span("rep", |t| {
        let slider = Slider::fragment(fragment, config);
        let dict = Arc::clone(slider.dict());
        let mut parser = NTriplesParser::new(text.as_bytes());
        loop {
            let terms: Vec<TermTriple> = t.span("parse", |_| {
                parser
                    .by_ref()
                    .take(LOAD_CHUNK)
                    .map(|r| r.expect("generated N-Triples parse"))
                    .collect()
            });
            if terms.is_empty() {
                break;
            }
            rep.handed_in += terms.len();
            let chunk: Vec<Triple> = t.span("intern", |_| {
                terms
                    .into_iter()
                    .map(|x| dict.encode_triple_owned(x))
                    .collect()
            });
            t.span("engine.add", |_| slider.add_triples(&chunk));
        }
        t.span("engine.wait_idle", |_| slider.wait_idle());
        slider
    });
    rep.seconds = start.elapsed().as_secs_f64();
    rep.closure_ms.push(rep.seconds * 1e3);
    slider
}

/// Evaluates one query block; the hit count is the number of triples the
/// subject patterns matched plus the number of `contains` that held.
pub fn run_block(
    block: &[Query],
    matches: impl Fn(TriplePattern) -> usize,
    contains: impl Fn(Triple) -> bool,
) -> u64 {
    block
        .iter()
        .map(|q| match *q {
            Query::Subject(s) => matches(TriplePattern::new(Some(s), None, None)) as u64,
            Query::Contains(t) => u64::from(contains(t)),
        })
        .sum()
}

/// Digest of a closure after translating it from the ids of `from` to the
/// ids of `to` through the terms, so that closures built over different
/// dictionaries compare. A term `to` does not know maps to an id no closure
/// over `to` holds.
pub fn closure_digest(
    mut sorted: Vec<Triple>,
    from: &Dictionary,
    to: &Dictionary,
) -> ClosureDigest {
    if !std::ptr::eq(from, to) {
        let mut memo: FxHashMap<NodeId, NodeId> = FxHashMap::default();
        let mut translate = |id: NodeId| {
            *memo.entry(id).or_insert_with(|| {
                from.with_term(id, |term| to.id_of(term))
                    .flatten()
                    .unwrap_or(NodeId(u64::MAX))
            })
        };
        for t in &mut sorted {
            *t = Triple::new(translate(t.s), translate(t.p), translate(t.o));
        }
        sorted.sort_unstable();
    }
    let hash = sorted.iter().fold(FNV_OFFSET, |h, t| {
        [t.s, t.p, t.o]
            .iter()
            .fold(h, |h, id| fnv1a(h, &id.0.to_le_bytes()))
    });
    (sorted.len(), hash)
}

/// What a correct repetition must produce, computed single-threaded by the
/// semi-naive batch reasoner after the measurement.
pub struct Reference {
    pub closure: ClosureDigest,
    pub query_hits: Vec<u64>,
    /// Time the reference spent joining: the same job with no buffers and
    /// no threads (`rules.join_s`).
    pub join_s: f64,
}

pub fn reference(input: &Input) -> Reference {
    let ruleset = Ruleset::fragment(input.workload.fragment(), &input.dict);
    let mut reasoner = SemiNaiveReasoner::new(ruleset);
    let mut join_s = 0.0;
    let mut query_hits = Vec::new();
    let mut timed = |reasoner: &mut SemiNaiveReasoner, triples: &[Triple]| {
        let start = Instant::now();
        reasoner.materialize_all(triples);
        join_s += start.elapsed().as_secs_f64();
    };
    match &input.shape {
        Shape::Ingest { batches, queries } => {
            for (batch, block) in batches.iter().zip(queries) {
                timed(&mut reasoner, batch);
                let store = reasoner.store();
                query_hits.push(run_block(
                    block,
                    |p| store.matches(p).len(),
                    |q| store.contains(q),
                ));
            }
        }
        _ => timed(&mut reasoner, &input.resident),
    }
    Reference {
        closure: closure_digest(reasoner.store().to_sorted_vec(), &input.dict, &input.dict),
        query_hits,
        join_s,
    }
}
