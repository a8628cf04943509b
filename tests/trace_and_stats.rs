//! Telemetry consistency: the event log (the demo player's data source)
//! and the per-module counters are two independent recording paths — they
//! must tell the same story.

mod common;

use common::materialize;
use slider::core::{events_to_json, EventKind};
use slider::prelude::*;
use slider::workloads::{encode_all, PaperOntology};
use std::collections::HashMap;
use std::sync::Arc;

fn traced_run(ontology: PaperOntology, scale: f64) -> (Slider, Vec<slider::core::Event>) {
    let dict = Arc::new(Dictionary::new());
    let input = encode_all(&ontology.generate(scale), &dict);
    let slider = Slider::new(
        Arc::clone(&dict),
        Ruleset::rho_df(),
        SliderConfig::default()
            .with_trace(true)
            .with_buffer_capacity(256),
    );
    for chunk in input.chunks(512) {
        slider.add_triples(chunk);
    }
    slider.wait_idle();
    let events = slider.events().expect("tracing enabled");
    (slider, events)
}

#[test]
fn event_log_agrees_with_counters() {
    let (slider, events) = traced_run(PaperOntology::SubClassOf100, 1.0);
    let stats = slider.stats();

    // Aggregate the event log per rule.
    let mut fired: HashMap<usize, u64> = HashMap::new();
    let mut fresh: HashMap<usize, u64> = HashMap::new();
    let mut derived: HashMap<usize, u64> = HashMap::new();
    let mut input_fresh = 0u64;
    for event in &events {
        match event.kind {
            EventKind::RuleFired {
                rule,
                fresh: f,
                derived: d,
                ..
            } => {
                *fired.entry(rule).or_default() += 1;
                *fresh.entry(rule).or_default() += f as u64;
                *derived.entry(rule).or_default() += d as u64;
            }
            EventKind::Input { fresh: f, .. } => input_fresh += f as u64,
            _ => {}
        }
    }

    assert_eq!(input_fresh, stats.input_fresh);
    for (i, rule) in stats.rules.iter().enumerate() {
        assert_eq!(
            fired.get(&i).copied().unwrap_or(0),
            rule.fired,
            "{} fired",
            rule.name
        );
        assert_eq!(
            fresh.get(&i).copied().unwrap_or(0),
            rule.fresh,
            "{} fresh",
            rule.name
        );
        assert_eq!(
            derived.get(&i).copied().unwrap_or(0),
            rule.derived,
            "{} derived",
            rule.name
        );
    }
}

#[test]
fn store_size_in_events_is_monotone_and_final() {
    let (slider, events) = traced_run(PaperOntology::SubClassOf50, 1.0);
    let final_size = slider.store().len();
    let mut last_seen = 0usize;
    for event in &events {
        if let EventKind::RuleFired { store_size, .. } | EventKind::Idle { store_size } = event.kind
        {
            assert!(
                store_size >= last_seen,
                "store size went backwards in the log"
            );
            last_seen = store_size;
        }
    }
    assert_eq!(last_seen, final_size);
}

#[test]
fn every_fire_has_a_matching_flush_event() {
    let (slider, events) = traced_run(PaperOntology::SubClassOf100, 1.0);
    let stats = slider.stats();
    let mut full = 0u64;
    let mut timeout = 0u64;
    let mut fired = 0u64;
    for event in &events {
        match event.kind {
            EventKind::BufferFull { .. } => full += 1,
            EventKind::TimeoutFlush { .. } => timeout += 1,
            EventKind::RuleFired { .. } => fired += 1,
            _ => {}
        }
    }
    let stats_full: u64 = stats.rules.iter().map(|r| r.full_flushes).sum();
    let stats_timeout: u64 = stats.rules.iter().map(|r| r.timeout_flushes).sum();
    assert_eq!(full, stats_full);
    assert_eq!(timeout, stats_timeout);
    // Every flush spawned exactly one rule instance.
    assert_eq!(fired, full + timeout);
    assert_eq!(fired, stats.total_fired());
}

#[test]
fn json_export_of_a_real_run_is_well_formed() {
    let (_slider, events) = traced_run(PaperOntology::SubClassOf20, 1.0);
    let json = events_to_json(&events);
    assert!(json.starts_with('[') && json.ends_with(']'));
    // Object count equals event count; no nesting in this format.
    assert_eq!(json.matches('{').count(), events.len());
    assert_eq!(json.matches('}').count(), events.len());
    // Quotes are balanced.
    assert_eq!(json.matches('"').count() % 2, 0);
    // Ends with the idle event.
    assert!(json.contains(r#""type":"idle""#));
}

#[test]
fn epoch_counters_track_publications_and_swaps() {
    let (slider, _events) = traced_run(PaperOntology::SubClassOf50, 1.0);
    let stats = slider.stats();
    // Every changing write bumps the generation: a run that inserted
    // anything must have advanced it past the empty store's.
    assert!(stats.snapshot_generation > 0, "no epoch was ever published");
    assert_eq!(
        stats.snapshot_generation,
        slider.store().snapshot_generation(),
        "stats and store disagree on the published generation"
    );
    assert_eq!(stats.ruleset_swaps, 0, "no swap ran");
    // The Display table renders the epoch line from these counters.
    let rendered = stats.to_string();
    assert!(
        rendered.contains(&format!(
            "epochs: generation {}, 0 ruleset swaps",
            stats.snapshot_generation
        )),
        "{rendered}"
    );

    // A (no-op) hot swap bumps the swap counter and republishes.
    slider.apply(Op::Swap(Ruleset::rho_df()));
    let stats = slider.stats();
    assert_eq!(stats.ruleset_swaps, 1);
    assert!(stats.snapshot_generation >= slider.store().snapshot_generation() - 1);
}

#[test]
fn ruleset_swap_event_round_trips_through_json() {
    use slider::rules::RuleSpec;
    let p = NodeId(9_000);
    let slider = Slider::new(
        Arc::new(Dictionary::new()),
        Ruleset::custom("trans").with(RuleSpec::transitive("T", p)),
        SliderConfig::default().with_trace(true),
    );
    materialize(
        &slider,
        &[
            Triple::new(NodeId(1), p, NodeId(2)),
            Triple::new(NodeId(2), p, NodeId(3)),
        ],
    );
    let outcome = slider
        .apply(Op::Swap(Ruleset::custom("empty")))
        .swap()
        .unwrap();
    assert_eq!(outcome.dropped, 1);

    let events = slider.events().expect("tracing on");
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::RulesetSwap { dropped: 1, .. })),
        "swap left no trace event"
    );
    let json = events_to_json(&events);
    assert!(
        json.contains(r#""type":"ruleset_swap","dropped":1,"added":0,"kept":0"#),
        "{json}"
    );
    // The export stays flat and balanced with the new event kind in it.
    assert_eq!(json.matches('{').count(), events.len());
    assert_eq!(json.matches('"').count() % 2, 0);
}

#[test]
fn batch_mode_counts_forced_flushes_as_timeouts() {
    // With timeout: None and huge buffers, the only flushes are the forced
    // ones from wait_idle, which are accounted as timeout flushes.
    let dict = Arc::new(Dictionary::new());
    let input = encode_all(&PaperOntology::SubClassOf50.generate(1.0), &dict);
    let slider = Slider::new(
        Arc::clone(&dict),
        Ruleset::rho_df(),
        SliderConfig::batch().with_buffer_capacity(1_000_000),
    );
    slider.add_triples(&input);
    slider.wait_idle();
    let stats = slider.stats();
    let full: u64 = stats.rules.iter().map(|r| r.full_flushes).sum();
    let timeout: u64 = stats.rules.iter().map(|r| r.timeout_flushes).sum();
    assert_eq!(full, 0, "buffers can never fill at this capacity");
    assert!(timeout > 0, "forced flushes must be accounted");
}
