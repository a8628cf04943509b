//! The inference player — a terminal stand-in for the paper's §4 demo GUI.
//!
//! The original demo records "the state of all the modules of Slider at
//! each step of the process" and lets visitors replay an inference, with
//! per-buffer counters (times full, times timed out, triples inferred) and
//! a two-coloured store bar (explicit vs inferred). This example runs an
//! inference with tracing on, then replays the event log step by step with
//! the same counters.
//!
//! ```text
//! cargo run --release --example inference_player            # rho-df
//! cargo run --release --example inference_player -- rdfs    # RDFS
//! cargo run --release --example inference_player -- rdfs 5000  # bigger run
//! ```

use slider::core::{Event, EventKind};
use slider::prelude::*;
use slider::workloads::{bsbm, encode_all};
use std::sync::Arc;

struct ModuleState {
    name: &'static str,
    full_fires: u64,
    timeout_fires: u64,
    inferred: u64,
}

fn replay(events: &[Event], rule_names: &[&'static str], input_size: usize) {
    let mut modules: Vec<ModuleState> = rule_names
        .iter()
        .map(|&name| ModuleState {
            name,
            full_fires: 0,
            timeout_fires: 0,
            inferred: 0,
        })
        .collect();
    let mut store_size = 0usize;
    let mut input_seen = 0usize;

    println!("\n── inference player: {} events ──", events.len());
    for (step, event) in events.iter().enumerate() {
        let ms = event.at.as_secs_f64() * 1e3;
        match &event.kind {
            EventKind::Input { received, fresh } => {
                input_seen += fresh;
                store_size += fresh;
                println!("[{step:>4} {ms:>8.2}ms] input   +{received} triples ({fresh} new)");
            }
            EventKind::BufferFull { rule } => {
                modules[*rule].full_fires += 1;
                println!(
                    "[{step:>4} {ms:>8.2}ms] fire    {} (buffer full, {}th time)",
                    modules[*rule].name, modules[*rule].full_fires
                );
            }
            EventKind::TimeoutFlush { rule } => {
                modules[*rule].timeout_fires += 1;
                println!(
                    "[{step:>4} {ms:>8.2}ms] fire    {} (timeout, {}th time)",
                    modules[*rule].name, modules[*rule].timeout_fires
                );
            }
            EventKind::RuleFired {
                rule,
                delta,
                derived,
                fresh,
                store_size: size,
            } => {
                modules[*rule].inferred += *fresh as u64;
                store_size = *size;
                println!(
                    "[{step:>4} {ms:>8.2}ms] applied {} on {delta} triples → {derived} derived, {fresh} new",
                    modules[*rule].name
                );
            }
            EventKind::Removal {
                requested,
                retracted,
                overdeleted,
                rederived,
                store_size: size,
            } => {
                store_size = *size;
                println!(
                    "[{step:>4} {ms:>8.2}ms] retract {requested} offered: {retracted} retracted, \
                     {overdeleted} overdeleted, {rederived} rederived"
                );
            }
            EventKind::CoalescedRemoval {
                pending,
                retracted,
                overdeleted,
                rederived,
                store_size: size,
            } => {
                store_size = *size;
                println!(
                    "[{step:>4} {ms:>8.2}ms] flush   {pending} deferred: {retracted} retracted, \
                     {overdeleted} overdeleted, {rederived} rederived (coalesced)"
                );
            }
            EventKind::RulesetSwap {
                dropped,
                added,
                kept,
                overdeleted,
                rederived,
                inferred,
                store_size: size,
            } => {
                store_size = *size;
                println!(
                    "[{step:>4} {ms:>8.2}ms] swap    ruleset: -{dropped} +{added} rules \
                     ({kept} kept); {overdeleted} overdeleted, {rederived} rederived, \
                     {inferred} inferred"
                );
            }
            EventKind::BudgetSlice { applied, remaining } => {
                println!(
                    "[{step:>4} {ms:>8.2}ms] budget  flush sliced: {applied} applied, \
                     {remaining} deferred to later ticks"
                );
            }
            EventKind::DictSweep {
                scanned,
                swept,
                live,
                bytes_before,
                bytes_after,
            } => {
                println!(
                    "[{step:>4} {ms:>8.2}ms] dict    sweep: {swept}/{scanned} terms tombstoned, \
                     {live} live, {bytes_before} -> {bytes_after} bytes"
                );
            }
            EventKind::Idle { store_size: size } => {
                store_size = *size;
                println!("[{step:>4} {ms:>8.2}ms] idle    (closure complete)");
            }
        }
    }

    // The §4 summary panel: store bar + per-module counters.
    let inferred_total = store_size.saturating_sub(input_seen);
    let bar_len = 40usize;
    let explicit_cells = (input_seen * bar_len).checked_div(store_size).unwrap_or(0);
    println!("\n── summary ──");
    println!(
        "store: [{}{}] {} explicit + {} inferred = {}",
        "▓".repeat(explicit_cells),
        "░".repeat(bar_len - explicit_cells),
        input_seen,
        inferred_total,
        store_size
    );
    println!("input fraction seen: {input_size} offered");
    println!(
        "\n{:<10} {:>10} {:>14} {:>12}",
        "module", "full fires", "timeout fires", "inferred"
    );
    for m in &modules {
        println!(
            "{:<10} {:>10} {:>14} {:>12}",
            m.name, m.full_fires, m.timeout_fires, m.inferred
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fragment = match args.first().map(String::as_str) {
        Some("rdfs") | Some("RDFS") => Fragment::Rdfs,
        _ => Fragment::RhoDf,
    };
    let size: usize = args.get(1).and_then(|v| v.parse().ok()).unwrap_or(600);

    let dict = Arc::new(Dictionary::new());
    let ruleset = Ruleset::fragment(fragment, &dict);
    let rule_names: Vec<&'static str> = ruleset.rules().iter().map(|r| r.name()).collect();

    // Small buffers → many module transitions → an interesting replay.
    let config = SliderConfig::default()
        .with_buffer_capacity(128)
        .with_trace(true);
    let slider = Slider::new(Arc::clone(&dict), ruleset, config);

    let data = bsbm::generate(&bsbm::BsbmConfig::sized(size));
    let encoded = encode_all(&data, &dict);
    println!(
        "running {} on a {}-triple BSBM ontology with tracing on …",
        fragment,
        encoded.len()
    );
    for chunk in encoded.chunks(200) {
        slider.add_triples(chunk);
    }
    slider.wait_idle();

    let events = slider.events().expect("tracing was enabled");
    replay(&events, &rule_names, encoded.len());

    // The scheduler-aware staleness bound (queries reflect a closure at
    // most this far behind the retraction stream).
    match slider.pending_staleness() {
        Some(age) => println!(
            "staleness bound: oldest pending retraction {:.1} ms ({} pending)",
            age.as_secs_f64() * 1e3,
            slider.stats().pending_removals
        ),
        None => println!("staleness bound: no pending retractions (queries are exact)"),
    }

    // Store-lock contention over the run: how often the store was taken
    // exclusively, and how often a write found the lock busy.
    let stats = slider.stats();
    println!(
        "store lock: {} exclusive acquisitions, {} contended writes",
        stats.gate_write_acquisitions, stats.shard_write_conflicts
    );
    println!(
        "runtime: {} session(s) on the pool, {} budget deferrals",
        stats.runtime_sessions, stats.budget_deferrals
    );
}
