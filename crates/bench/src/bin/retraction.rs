//! The `retraction` benchmark: sliding-window streaming with incremental
//! deletion (DRed), comparing **three** maintainers on an identical bursty
//! multi-predicate schedule:
//!
//! * **eager (per-batch DRed)** — every expiring batch pays its own
//!   overdelete/rederive cycle (`Op::Remove`), exactly what a
//!   count-based window does per step;
//! * **coalesced** — expiring batches are deferred
//!   (`Op::Defer`) and each step with expiries ends in one `Op::Flush`,
//!   a single DRed pass over the whole
//!   pending set;
//! * **recompute** — the closure of the surviving explicit set is rebuilt
//!   from scratch every step (`slider_baseline::RecomputeOracle`).
//!
//! The workload runs several independent rule *families* (a
//! [`RuleSpec::transitive`](slider_rules::RuleSpec::transitive) hierarchy plus a
//! [`RuleSpec::subsumption`](slider_rules::RuleSpec::subsumption) membership rule per family,
//! disjoint vocabularies — see [`slider_bench::family`]), so one step's
//! expiries span several downward closures. Within each family, every live
//! batch types the same shared subjects at its own per-batch leaf class,
//! so expiring batches share a downward closure that coalescing amortises.
//!
//! ```text
//! cargo run --release -p slider-bench --bin retraction            # full size
//! cargo run --release -p slider-bench --bin retraction -- --smoke # CI smoke
//! ```
//!
//! `--smoke` runs a tiny workload and additionally cross-checks all
//! incremental maintainers against the oracle **at every
//! step** — and the multi-family schedule deliberately **re-asserts
//! triples whose retraction is still pending** before some flushes,
//! verifying the cancellation semantics (the re-asserted fact and its
//! consequences must survive the flush) in eager and coalesced modes
//! alike. `--json <path>` writes the machine-readable
//! trajectory (`slider_bench::report`).

use slider_baseline::RecomputeOracle;
use slider_bench::family::{self, FamilyParams};
use slider_bench::parse_bench_args;
use slider_bench::report::{BenchReport, Cell};
use slider_core::Op;
use slider_model::Triple;
use slider_workloads::stream::{bursty_gaps, expirations};
use std::time::{Duration, Instant};

struct Params {
    /// Workload shape: families, chain depth, batch and shared-subject
    /// sizes (see [`slider_bench::family`]).
    shape: FamilyParams,
    /// Window length, in bursty-clock ticks.
    window_ticks: u32,
    /// Stream steps to play.
    steps: u64,
    /// Cross-check every step against the oracle closure.
    verify: bool,
}

const SMOKE: Params = Params {
    shape: FamilyParams {
        families: 3,
        depth: 6,
        batch: 15,
        shared: 6,
    },
    window_ticks: 4,
    steps: 12,
    verify: true,
};

const FULL: Params = Params {
    shape: FamilyParams {
        families: 8,
        depth: 16,
        batch: 120,
        shared: 300,
    },
    window_ticks: 8,
    steps: 48,
    verify: false,
};

/// Geometric-gap continuation probability of the bursty virtual clock.
const CONTINUE_PROB: f64 = 0.6;
/// Seed of the bursty virtual clock (deterministic runs).
const SEED: u64 = 42;

/// Bursty virtual arrival times: the cumulative sum of [`bursty_gaps`] —
/// the exact sampler behind `TimedStream::bursty`.
fn bursty_times(steps: u64, continue_prob: f64, seed: u64) -> Vec<Duration> {
    let tick = Duration::from_millis(1);
    let mut at = Duration::ZERO;
    bursty_gaps(steps as usize, tick, continue_prob, seed)
        .into_iter()
        .map(|gap| {
            at += gap;
            at
        })
        .collect()
}

/// Triples of `from` re-asserted while their retraction is pending at step
/// `i` (smoke only): a few instances of the batch's first family.
fn re_assertions(p: &Params, from: &[Triple], i: u64) -> Vec<Triple> {
    if !p.verify || i % 2 == 0 {
        return Vec::new();
    }
    from.iter().copied().take(3).collect()
}

fn fmt_ms(d: Duration) -> String {
    format!("{:8.2} ms", d.as_secs_f64() * 1e3)
}

fn main() {
    let (smoke, json_path) = parse_bench_args("retraction [--smoke] [--json <path>]");
    let p = if smoke { SMOKE } else { FULL };

    let schema = family::taxonomy(&p.shape);
    let batches: Vec<Vec<Triple>> = (0..p.steps).map(|i| family::batch(&p.shape, i)).collect();
    // The bursty time-based window: per step, which batches expire.
    let times = bursty_times(p.steps, CONTINUE_PROB, SEED);
    let window = Duration::from_millis(p.window_ticks as u64);
    let expiry = expirations(&times, window);
    let expired_total: usize = expiry.iter().map(Vec::len).sum();
    let bulk_steps = expiry.iter().filter(|e| e.len() > 1).count();

    println!(
        "retraction bench: {} families × depth {}, {} steps of {} membership triples/family, \
         {}-tick window over a bursty clock ({} expiries, {} bulk steps){}",
        p.shape.families,
        p.shape.depth,
        p.steps,
        p.shape.batch + p.shape.shared,
        p.window_ticks,
        expired_total,
        bulk_steps,
        if smoke {
            " [smoke + re-assertions]"
        } else {
            ""
        }
    );

    // --- eager: one DRed run per expiring batch ------------------------
    let eager = family::deferred_slider(p.shape.families);
    eager.add_triples(&schema);
    eager.wait_idle();
    // --- coalesced flushes: one DRed run per step ----------------------
    let coalesced = family::deferred_slider(p.shape.families);
    coalesced.add_triples(&schema);
    coalesced.wait_idle();
    // --- recompute baseline --------------------------------------------
    let mut oracle = RecomputeOracle::new(family::ruleset(p.shape.families));
    oracle.add(&schema);

    let mut eager_elapsed = Duration::ZERO;
    let mut coalesced_elapsed = Duration::ZERO;
    let mut oracle_elapsed = Duration::ZERO;
    for (i, arriving) in batches.iter().enumerate() {
        let expiring = &expiry[i];
        // In smoke mode, some steps re-assert a few triples of the first
        // expiring batch *while their retraction is pending* — the flush
        // must leave them (and their consequences) in place.
        let readd: Vec<Triple> = expiring
            .first()
            .map(|&j| re_assertions(&p, &batches[j], i as u64))
            .unwrap_or_default();

        let start = Instant::now();
        eager.add_triples(arriving);
        for &j in expiring {
            eager.apply(Op::Remove(batches[j].clone()));
        }
        // Eager equivalent of the cancellation: retract, then re-assert.
        eager.add_triples(&readd);
        eager.wait_idle();
        eager_elapsed += start.elapsed();

        let start = Instant::now();
        coalesced.add_triples(arriving);
        for &j in expiring {
            coalesced.apply(Op::Defer(batches[j].clone()));
        }
        // The re-assertion lands while the retractions are pending and
        // must cancel them.
        coalesced.add_triples(&readd);
        if !expiring.is_empty() {
            coalesced.apply(Op::Flush);
        }
        coalesced.wait_idle();
        coalesced_elapsed += start.elapsed();

        let start = Instant::now();
        oracle.add(arriving);
        for &j in expiring {
            oracle.remove(&batches[j]);
        }
        oracle.add(&readd);
        let closure = oracle.closure();
        oracle_elapsed += start.elapsed();

        if p.verify {
            let expected = closure.to_sorted_vec();
            assert_eq!(
                eager.store().to_sorted_vec(),
                expected,
                "eager DRed diverged from recompute at step {i}"
            );
            assert_eq!(
                coalesced.store().to_sorted_vec(),
                expected,
                "coalesced DRed diverged from recompute at step {i}"
            );
        }
    }

    let eager_stats = eager.stats();
    let coal_stats = coalesced.stats();
    println!(
        "  eager (per-batch DRed):  {} total, {} / step  ({} maintenance runs)",
        fmt_ms(eager_elapsed),
        fmt_ms(eager_elapsed / p.steps as u32),
        eager_stats.removal_runs
    );
    println!(
        "  coalesced flushes:       {} total, {} / step  ({} runs)",
        fmt_ms(coalesced_elapsed),
        fmt_ms(coalesced_elapsed / p.steps as u32),
        coal_stats.coalesced_runs
    );
    println!(
        "  recompute baseline:      {} total, {} / step",
        fmt_ms(oracle_elapsed),
        fmt_ms(oracle_elapsed / p.steps as u32)
    );
    println!(
        "  coalesced vs eager: {:.2}x   coalesced vs recompute: {:.2}x",
        eager_elapsed.as_secs_f64() / coalesced_elapsed.as_secs_f64().max(1e-9),
        oracle_elapsed.as_secs_f64() / coalesced_elapsed.as_secs_f64().max(1e-9),
    );
    println!(
        "  (store: {} triples, {} explicit; coalesced: {} retracted, {} overdeleted, \
         {} rederived, {} cancelled)",
        coal_stats.store_size,
        coal_stats.store.explicit,
        coal_stats.retracted,
        coal_stats.overdeleted,
        coal_stats.rederived,
        coal_stats.cancelled_removals
    );
    assert!(
        coal_stats.coalesced_runs < eager_stats.removal_runs,
        "coalescing must batch runs: {} coalesced vs {} eager",
        coal_stats.coalesced_runs,
        eager_stats.removal_runs
    );
    if p.verify {
        assert!(
            coal_stats.cancelled_removals > 0,
            "the smoke schedule must exercise re-assertion-while-pending"
        );
        println!(
            "  verified: eager and coalesced stores == recompute closure at every step \
             (incl. {} re-assertions cancelling pending retractions)",
            coal_stats.cancelled_removals
        );
    }

    if let Some(path) = json_path {
        let mut report = BenchReport::new(
            "retraction",
            format!(
                "{} families × depth {}, {} steps × {} triples/family, {}-tick window \
                 ({} expiries, {} bulk steps)",
                p.shape.families,
                p.shape.depth,
                p.steps,
                p.shape.batch + p.shape.shared,
                p.window_ticks,
                expired_total,
                bulk_steps
            ),
        )
        .config("smoke", smoke)
        .config("families", p.shape.families)
        .config("steps", p.steps)
        .config("window_ticks", p.window_ticks);
        let per_step = |total: Duration| total.as_secs_f64() * 1e3 / p.steps as f64;
        for (label, elapsed, runs) in [
            ("eager", eager_elapsed, eager_stats.removal_runs),
            ("coalesced", coalesced_elapsed, coal_stats.coalesced_runs),
            ("recompute", oracle_elapsed, 0),
        ] {
            report.push(
                Cell::new(format!("maintainer/{label}"))
                    .param("maintainer", label)
                    .metric("elapsed_ms", elapsed.as_secs_f64() * 1e3)
                    .metric("per_step_ms", per_step(elapsed))
                    .metric("maintenance_runs", runs as f64),
            );
        }
        report.write(&path).expect("bench trajectory written");
    }
}
