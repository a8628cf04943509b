//! Streamed reasoning over a **time-based sliding window** — the paper's
//! motivating scenario ("inferences on streams of semantic data") extended
//! with the retraction subsystem and the coalesced maintenance scheduler:
//! observations *expire by timestamp*, and expiring batches are retracted
//! **deferred** so bursts of churn cost one DRed pass instead of many.
//!
//! A simulated building-sensor feed publishes observations on a *bursty*
//! schedule (back-to-back bursts, occasional long pauses) while the
//! background knowledge (sensor taxonomy, room topology) stays resident.
//! Each arrival enters the reasoner immediately; batches older than the
//! window are handed to `Op::Defer`, which merely enqueues them — the
//! maintenance scheduler runs one coalesced overdelete/rederive pass
//! when enough retractions are pending (or when the oldest has waited too
//! long), so the post-pause step that expires a whole run of batches at
//! once does not pay per-batch maintenance.
//!
//! ```text
//! cargo run --release --example streaming_sensor
//! ```

use slider::prelude::*;
use slider::workloads::stream::{TimedStream, TimedWindow};
use std::time::Duration;

/// Total observation batches streamed.
const BATCHES: usize = 40;
/// Observation triples per batch.
const BATCH_SIZE: usize = 4;
/// Virtual time an observation batch stays live.
const WINDOW: Duration = Duration::from_millis(60);
/// Base tick of the bursty arrival schedule.
const TICK: Duration = Duration::from_millis(8);

const RDF_NS: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#";
const RDFS_NS: &str = "http://www.w3.org/2000/01/rdf-schema#";
const S_NS: &str = "http://example.org/sensors#";

fn iri(ns: &str, local: &str) -> Term {
    Term::iri(format!("{ns}{local}"))
}

/// Background knowledge: a sensor taxonomy and observation schema.
fn background() -> Vec<TermTriple> {
    let sco = iri(RDFS_NS, "subClassOf");
    let dom = iri(RDFS_NS, "domain");
    let rng = iri(RDFS_NS, "range");
    vec![
        (
            iri(S_NS, "TemperatureSensor"),
            sco.clone(),
            iri(S_NS, "ClimateSensor"),
        ),
        (
            iri(S_NS, "HumiditySensor"),
            sco.clone(),
            iri(S_NS, "ClimateSensor"),
        ),
        (iri(S_NS, "ClimateSensor"), sco.clone(), iri(S_NS, "Sensor")),
        (
            iri(S_NS, "SmokeDetector"),
            sco.clone(),
            iri(S_NS, "SafetySensor"),
        ),
        (iri(S_NS, "SafetySensor"), sco, iri(S_NS, "Sensor")),
        (
            iri(S_NS, "observedBy"),
            dom.clone(),
            iri(S_NS, "Observation"),
        ),
        (iri(S_NS, "observedBy"), rng.clone(), iri(S_NS, "Sensor")),
        (iri(S_NS, "locatedIn"), dom, iri(S_NS, "Sensor")),
        (iri(S_NS, "locatedIn"), rng, iri(S_NS, "Room")),
    ]
}

/// One observation batch: a sensor (typed with a leaf class) placed in a
/// room, plus an observation event pointing at it.
fn observation_batch(i: usize) -> Vec<TermTriple> {
    let a = iri(RDF_NS, "type");
    let kinds = ["TemperatureSensor", "HumiditySensor", "SmokeDetector"];
    let sensor = iri(S_NS, &format!("sensor{i}"));
    let obs = iri(S_NS, &format!("obs{i}"));
    let room = iri(S_NS, &format!("room{}", i % 4));
    vec![
        (sensor.clone(), a, iri(S_NS, kinds[i % kinds.len()])),
        (sensor.clone(), iri(S_NS, "locatedIn"), room),
        (obs.clone(), iri(S_NS, "observedBy"), sensor),
        (
            obs,
            iri(S_NS, "value"),
            Term::literal(format!("{}.5", 18 + i % 6)),
        ),
    ]
}

fn main() {
    // Streaming tuning: small buffers, tight timeout — the reasoner reacts
    // within ~10 ms of an arrival instead of waiting for full buffers. The
    // maintenance knobs coalesce expiring batches: a flush fires at 16
    // pending retractions (≈ 4 expired batches) or once the oldest has
    // waited 30 ms, whichever comes first.
    let config = SliderConfig::default()
        .with_buffer_capacity(64)
        .with_timeout(Some(Duration::from_millis(5)))
        .with_maintenance_batch(16)
        .with_maintenance_max_age(Some(Duration::from_millis(30)));
    let slider = Slider::fragment(Fragment::RhoDf, config);

    println!("loading background knowledge …");
    slider.add_terms(&background());
    slider.wait_idle();
    let background_size = slider.store().len();
    println!("  {background_size} triples (incl. taxonomy closure)\n");

    // The stream: observation batches on a bursty schedule (geometric
    // gaps, mean ≈ 1.5 × TICK) through a time-based window — a burst
    // expires nothing, the arrival after a pause expires several batches
    // at once.
    let feed: Vec<TermTriple> = (0..BATCHES).flat_map(observation_batch).collect();
    let stream = TimedStream::bursty(&feed, BATCH_SIZE, TICK, 0.6, 42);
    let window = TimedWindow::from_stream(&stream, WINDOW);

    let dict = slider.dict();
    let rdf_type = slider::model::vocab::RDF_TYPE;
    let sensor_class = dict.intern(&iri(S_NS, "Sensor"));

    println!(
        "streaming {} batches through a {:?} window (bursty, tick {:?}) …",
        window.len(),
        window.window(),
        TICK
    );
    window.play(|step| {
        slider.add_terms(step.arrival);
        // Batches aging out of the window are *deferred*: enqueued on the
        // maintenance scheduler, which coalesces them into one DRed pass
        // per threshold/deadline trigger instead of one per batch.
        for expired in &step.expiring {
            let known = expired.iter().filter_map(|t| dict.encode_known(t));
            slider.apply(Op::Defer(known.collect()));
        }
        // Query concurrently with inference — no global lock, no re-run.
        let known_sensors = slider
            .store()
            .snapshot()
            .subjects_with(rdf_type, sensor_class)
            .count();
        if step.index % 10 == 9 || !step.expiring.is_empty() {
            println!(
                "  step {:>3} (t={:>4}ms): +{} triples, {} batch(es) expired, \
                 store = {:>4}, {} live Sensors",
                step.index,
                step.at.as_millis(),
                step.arrival.len(),
                step.expiring.len(),
                slider.store().len(),
                known_sensors
            );
        }
    });

    // Drain: apply whatever is still pending, then settle.
    slider.apply(Op::Flush);
    slider.wait_idle();
    let stats = slider.stats();
    println!(
        "\nstream drained: {} triples live ({} explicit, {} derived), {} inferred in total",
        stats.store_size,
        stats.store.explicit,
        stats.store.derived,
        stats.total_inferred()
    );
    println!(
        "maintenance: {} retractions deferred, {} coalesced runs \
         ({} retracted, {} overdeleted, {} rederived; {} pending)",
        stats.deferred,
        stats.coalesced_runs,
        stats.retracted,
        stats.overdeleted,
        stats.rederived,
        stats.pending_removals
    );

    // Every sensor was typed with a *leaf* class only; CAX-SCO made each a
    // Sensor against the background taxonomy — and expiry took it away
    // again, so exactly the still-live batches' sensors remain.
    let live_batches = window.live_tail().len();
    let sensors = slider
        .store()
        .snapshot()
        .subjects_with(rdf_type, sensor_class)
        .count();
    println!("sensors currently rdf:type s:Sensor: {sensors} (expected {live_batches})");
    assert_eq!(sensors, live_batches);
    assert_eq!(stats.pending_removals, 0, "final flush drained the queue");

    // Every flush drains whole batches, so runs can never exceed expired
    // batches; usually they are far fewer (a bulk expiry after a pause is
    // one run), but how *much* fewer depends on real-time deadline
    // triggers, so that part is reported rather than asserted.
    let expired_batches = window.len() - live_batches;
    assert!(
        stats.coalesced_runs > 0 && (stats.coalesced_runs as usize) <= expired_batches,
        "expected coalesced maintenance: {} runs for {} expired batches",
        stats.coalesced_runs,
        expired_batches
    );
    println!(
        "coalescing: {} DRed runs covered {} expired batches",
        stats.coalesced_runs, expired_batches
    );
}
