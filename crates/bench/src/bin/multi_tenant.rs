//! The `multi_tenant` benchmark: independent reasoners side by side,
//! each a `Slider` with its own threads, either each on a private
//! dictionary or all on one shared `Arc<Dictionary>`.
//!
//! Two questions:
//!
//! 1. **Concurrent sessions** — N sessions on one shared dictionary
//!    materialise their streams concurrently, and each lands on its own
//!    oracle closure.
//! 2. **Ingest latency and flush throughput under co-tenant churn** — one
//!    tenant streams membership batches (timed per `add_triples` call,
//!    p50/p99) while a co-tenant's deferred-retraction backlog is flushed
//!    by its own pool's deadline tick; how fast the backlog drains
//!    (retractions/s).
//!    The "isolated" cell gives each tenant a private dictionary, the
//!    "shared" cell puts both on one.
//!
//! ```text
//! cargo run --release -p slider-bench --bin multi_tenant            # full
//! cargo run --release -p slider-bench --bin multi_tenant -- --smoke # CI
//! ```
//!
//! `--smoke` shrinks the workload and verifies every session's final
//! store against the `RecomputeOracle` closure. `--json <path>` writes
//! the machine-readable trajectory (`slider_bench::report`).

use slider_baseline::RecomputeOracle;
use slider_bench::report::{BenchReport, Cell};
use slider_bench::{family, parse_bench_args};
use slider_core::{Op, Slider, SliderConfig};
use slider_model::{Dictionary, NodeId, Triple};
use slider_rules::Ruleset;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Params {
    /// Concurrent sessions on one shared dictionary (phase 1).
    sessions: usize,
    /// Worker threads per reasoner.
    workers: usize,
    /// Ingest tenant: membership batches streamed, and members per batch
    /// (family workload, one family, resident chain of `depth`).
    depth: u64,
    batches: u64,
    members: u64,
    /// Churn tenant: plain triples preloaded, and how many of them are
    /// deferred-retracted as one backlog before the ingest run starts.
    churn_preload: u64,
    churn_retract: u64,
    /// Verify final stores against the oracle closure.
    verify: bool,
}

const SMOKE: Params = Params {
    sessions: 8,
    workers: 2,
    depth: 5,
    batches: 40,
    members: 10,
    churn_preload: 600,
    churn_retract: 450,
    verify: true,
};

const FULL: Params = Params {
    sessions: 8,
    workers: 4,
    depth: 12,
    batches: 200,
    members: 40,
    churn_preload: 20_000,
    churn_retract: 15_000,
    verify: false,
};

/// The churn tenant's configuration: the deferred queue only drains on
/// the max-age deadline (no threshold), so the whole backlog is flushed
/// by the churn tenant's pool, on its deadline tick.
fn churn_config() -> SliderConfig {
    SliderConfig::default()
        .with_maintenance_batch(usize::MAX)
        .with_maintenance_max_age(Some(Duration::from_millis(1)))
}

/// A plain (underivable) churn triple — DRed still walks its downward
/// closure, so the backlog costs real maintenance work.
fn churn_triple(k: u64) -> Triple {
    Triple::new(NodeId(700_000 + k), NodeId(42_000), NodeId(800_000 + k))
}

/// The ingest tenant's stream: the resident chain, then `batches`
/// membership batches (family 0 of the shared [`family`] workload).
fn ingest_params(p: &Params) -> family::FamilyParams {
    family::FamilyParams {
        families: 1,
        depth: p.depth,
        batch: p.members,
        shared: 0,
    }
}

fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct LatencyCell {
    /// Per-`add_triples` latencies, sorted ascending.
    latencies: Vec<Duration>,
    /// Time for the churn backlog to drain completely.
    flush_drain: Duration,
}

/// One timed cell: the ingest tenant streams its batches (timed per
/// call) while the churn tenant's backlog — enqueued just before the
/// stream starts — is flushed by its pool's deadline tick. `shared = true`
/// puts both tenants on one dictionary; otherwise each has its own.
fn run_latency_cell(p: &Params, shared: bool) -> LatencyCell {
    let fp = ingest_params(p);
    let shared_dict = Arc::new(Dictionary::new());
    let session = |ruleset: Ruleset, config: SliderConfig| {
        let dict = if shared {
            Arc::clone(&shared_dict)
        } else {
            Arc::new(Dictionary::new())
        };
        Slider::new(dict, ruleset, config.with_workers(p.workers))
    };
    let churn = session(Ruleset::rho_df(), churn_config());
    let ingest = session(family::ruleset(1), SliderConfig::default());

    let preload: Vec<Triple> = (0..p.churn_preload).map(churn_triple).collect();
    churn.add_triples(&preload);
    churn.wait_idle();
    ingest.add_triples(&family::taxonomy(&fp));
    ingest.wait_idle();

    // Enqueue the whole backlog, then stream: the deadline fires ~1 ms in,
    // so the flush overlaps the timed ingest calls.
    assert_eq!(
        churn
            .apply(Op::Defer(preload[..p.churn_retract as usize].to_vec()))
            .count(),
        Some(p.churn_retract as usize)
    );
    let flush_started = Instant::now();
    let mut latencies = Vec::with_capacity(p.batches as usize);
    for i in 0..p.batches {
        let batch = family::batch(&fp, i);
        let start = Instant::now();
        ingest.add_triples(&batch);
        latencies.push(start.elapsed());
    }
    ingest.wait_idle();

    // Drain the backlog completely (bounded) to time flush throughput.
    let deadline = Instant::now() + Duration::from_secs(120);
    while churn.stats().pending_removals > 0 {
        assert!(Instant::now() < deadline, "churn backlog never drained");
        std::thread::sleep(Duration::from_micros(200));
    }
    let flush_drain = flush_started.elapsed();
    let stats = churn.stats();
    assert_eq!(stats.retracted, p.churn_retract);

    if p.verify {
        let mut oracle = RecomputeOracle::new(family::ruleset(1));
        oracle.add(&family::taxonomy(&fp));
        for i in 0..p.batches {
            oracle.add(&family::batch(&fp, i));
        }
        assert_eq!(
            ingest.store().to_sorted_vec(),
            oracle.to_sorted_vec(),
            "ingest tenant diverged from the oracle closure"
        );
        let mut survivors: Vec<Triple> = (p.churn_retract..p.churn_preload)
            .map(churn_triple)
            .collect();
        survivors.sort_unstable();
        assert_eq!(
            churn.store().to_sorted_vec(),
            survivors,
            "churn tenant's flush missed the exact closure"
        );
    }

    latencies.sort_unstable();
    LatencyCell {
        latencies,
        flush_drain,
    }
}

fn main() {
    let (smoke, json_path) = parse_bench_args("multi_tenant [--smoke] [--json <path>]");
    let p = if smoke { SMOKE } else { FULL };
    let mut report = BenchReport::new(
        "multi_tenant",
        format!(
            "{} sessions / {} workers; ingest {} batches × {} members vs {} deferred retractions",
            p.sessions, p.workers, p.batches, p.members, p.churn_retract
        ),
    )
    .config("smoke", smoke)
    .config("sessions", p.sessions)
    .config("workers", p.workers);
    println!(
        "multi_tenant bench: {} sessions, {} workers each{}",
        p.sessions,
        p.workers,
        if smoke { " [smoke]" } else { "" }
    );

    // --- phase 1: N concurrent sessions on one shared dictionary -------
    {
        let fp = ingest_params(&p);
        let dict = Arc::new(Dictionary::new());
        let sessions: Vec<Slider> = (0..p.sessions)
            .map(|_| {
                Slider::new(
                    Arc::clone(&dict),
                    family::ruleset(1),
                    SliderConfig::default().with_workers(p.workers),
                )
            })
            .collect();
        let start = Instant::now();
        std::thread::scope(|scope| {
            for session in &sessions {
                scope.spawn(move || {
                    session.add_triples(&family::taxonomy(&fp));
                    for i in 0..p.batches.min(10) {
                        session.add_triples(&family::batch(&fp, i));
                    }
                    session.wait_idle();
                });
            }
        });
        let wall = start.elapsed();
        if p.verify {
            let mut oracle = RecomputeOracle::new(family::ruleset(1));
            oracle.add(&family::taxonomy(&fp));
            for i in 0..p.batches.min(10) {
                oracle.add(&family::batch(&fp, i));
            }
            let expected = oracle.to_sorted_vec();
            for (i, session) in sessions.iter().enumerate() {
                assert_eq!(
                    session.store().to_sorted_vec(),
                    expected,
                    "session {i} diverged on the shared dictionary"
                );
            }
            println!(
                "  ✓ all {} session stores match the oracle closure",
                p.sessions
            );
        }
        println!(
            "concurrent sessions: {} on one dictionary in {:.2} ms",
            p.sessions,
            wall.as_secs_f64() * 1e3
        );
        report.push(
            Cell::new(format!("sessions/{}", p.sessions))
                .param("phase", "sessions")
                .param("sessions", p.sessions)
                .metric("wall_ms", wall.as_secs_f64() * 1e3),
        );
    }

    // --- phase 2: ingest latency + flush throughput, isolated vs shared
    let mut p99s = [Duration::ZERO; 2];
    for (idx, (label, shared)) in [("isolated", false), ("shared", true)]
        .into_iter()
        .enumerate()
    {
        let cell = run_latency_cell(&p, shared);
        let (p50, p99) = (
            percentile(&cell.latencies, 0.50),
            percentile(&cell.latencies, 0.99),
        );
        p99s[idx] = p99;
        let flush_rate = p.churn_retract as f64 / cell.flush_drain.as_secs_f64().max(1e-9);
        println!(
            "  {label:>8}: ingest p50 {:>8.3} ms, p99 {:>8.3} ms | backlog drained in \
             {:>8.2} ms ({:>9.0} retractions/s)",
            p50.as_secs_f64() * 1e3,
            p99.as_secs_f64() * 1e3,
            cell.flush_drain.as_secs_f64() * 1e3,
            flush_rate,
        );
        report.push(
            Cell::new(format!("latency/{label}"))
                .param("phase", "latency")
                .param("dictionary", label)
                .metric("ingest_p50_ms", p50.as_secs_f64() * 1e3)
                .metric("ingest_p99_ms", p99.as_secs_f64() * 1e3)
                .metric("flush_drain_ms", cell.flush_drain.as_secs_f64() * 1e3)
                .metric("flush_retractions_per_sec", flush_rate),
        );
    }
    println!(
        "shared-dictionary ingest p99 is {:.2}x the isolated one \
         (co-tenant flushing {} retractions)",
        p99s[1].as_secs_f64() / p99s[0].as_secs_f64().max(1e-9),
        p.churn_retract,
    );

    if let Some(path) = json_path {
        report.write(&path).expect("bench trajectory written");
    }
}
