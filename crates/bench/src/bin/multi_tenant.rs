//! The `multi_tenant` benchmark: N reasoner sessions sharing one
//! `Runtime` (worker pool + flusher) vs N independent `Slider`s, each
//! with a private pool.
//!
//! Three questions, per the shared-runtime design:
//!
//! 1. **Thread economy** — N sessions on one runtime must run on exactly
//!    `workers + 1` threads, vs `N × (workers + 1)` for the isolated
//!    fleet.
//! 2. **Ingest latency under co-tenant churn** — one tenant streams
//!    membership batches (timed per `add_triples` call, p50/p99) while a
//!    co-tenant's huge deferred-retraction backlog is flushed by the
//!    shared flusher under `RuntimeConfig::maintenance_budget`. The
//!    budget slices the co-tenant's coalesced DRed so the shared-pool p99
//!    stays close to the isolated baseline (two private pools, no budget
//!    needed).
//! 3. **Flush throughput** — how fast the sliced flush drains the backlog
//!    (retractions/s), and how many per-tick deferrals it took.
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
use slider_core::{Op, Runtime, RuntimeConfig, Slider, SliderConfig};
use slider_model::{Dictionary, NodeId, Triple};
use slider_rules::Ruleset;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Params {
    /// Sessions attached to the shared runtime (thread-economy phase).
    sessions: usize,
    /// Worker threads per pool (the shared runtime's, and each isolated
    /// reasoner's).
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
    /// Per-tick budget for the shared runtime's sliced flushes. The
    /// smoke run uses `Duration::ZERO` — the starvation governor still
    /// grants exactly one slice per tick, so the backlog *must* defer
    /// (the `deferrals > 0` smoke assertion stays deterministic on any
    /// machine speed); the full run uses a realistic budget.
    budget: Duration,
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
    budget: Duration::ZERO,
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
    budget: Duration::from_micros(500),
};

/// The churn tenant's configuration: the deferred queue only drains on
/// the max-age deadline (no threshold), so the whole backlog is flushed
/// by the flusher thread — monolithically on a private runtime, sliced
/// under the budget on the shared one.
fn churn_config() -> SliderConfig {
    SliderConfig::default()
        .with_maintenance_batch(usize::MAX)
        .with_maintenance_max_age(Some(Duration::from_millis(1)))
}

/// A plain (underivable) churn triple — DRed still walks its downward
/// closure, so the backlog costs real maintenance work per slice.
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
    /// `StatsSnapshot::budget_deferrals` of the churn session at the end.
    deferrals: u64,
    /// Threads the setup ran on (pools + flushers, not user threads).
    threads: usize,
}

/// One timed cell: the ingest tenant streams its batches (timed per
/// call) while the churn tenant's backlog — enqueued just before the
/// stream starts — is flushed by the deadline flusher. `shared = true`
/// runs both tenants as sessions of one budgeted `Runtime`; otherwise
/// each is a standalone `Slider` with a private pool.
fn run_latency_cell(p: &Params, shared: bool) -> LatencyCell {
    let fp = ingest_params(p);
    let runtime = shared.then(|| {
        Runtime::new(
            RuntimeConfig::default()
                .with_workers(p.workers)
                .with_maintenance_budget(Some(p.budget)),
        )
    });
    let session = |ruleset: Ruleset, config: SliderConfig| match &runtime {
        Some(rt) => rt.session(Arc::new(Dictionary::new()), ruleset, config),
        None => Slider::new(
            Arc::new(Dictionary::new()),
            ruleset,
            config.with_workers(p.workers),
        ),
    };

    let churn = session(Ruleset::rho_df(), churn_config());
    let ingest = session(family::ruleset(1), SliderConfig::default());
    let threads = match &runtime {
        Some(rt) => rt.thread_count(),
        None => churn.runtime().thread_count() + ingest.runtime().thread_count(),
    };

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
            "churn tenant's sliced flush missed the exact closure"
        );
    }

    latencies.sort_unstable();
    LatencyCell {
        latencies,
        flush_drain,
        deferrals: stats.budget_deferrals,
        threads,
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
    .config("workers", p.workers)
    .config("budget_us", p.budget.as_micros());
    println!(
        "multi_tenant bench: {} sessions on {} workers, budget {:?}{}",
        p.sessions,
        p.workers,
        p.budget,
        if smoke { " [smoke]" } else { "" }
    );

    // --- phase 1: thread economy — N sessions, one pool ----------------
    {
        let runtime = Runtime::new(RuntimeConfig::default().with_workers(p.workers));
        let fp = ingest_params(&p);
        let sessions: Vec<Slider> = (0..p.sessions)
            .map(|_| {
                runtime.session(
                    Arc::new(Dictionary::new()),
                    family::ruleset(1),
                    SliderConfig::default(),
                )
            })
            .collect();
        let shared_threads = runtime.thread_count();
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
                    "session {i} diverged on the shared pool"
                );
            }
            println!(
                "  ✓ all {} session stores match the oracle closure",
                p.sessions
            );
        }
        let isolated_threads = p.sessions * (p.workers + 1);
        println!(
            "thread economy: {} sessions share {} threads (isolated fleet would hold {})",
            p.sessions, shared_threads, isolated_threads
        );
        assert_eq!(
            shared_threads,
            p.workers + 1,
            "a session spawned its own threads"
        );
        report.push(
            Cell::new(format!("threads/{}-sessions", p.sessions))
                .param("phase", "threads")
                .param("sessions", p.sessions)
                .metric("shared_threads", shared_threads as f64)
                .metric("isolated_threads", isolated_threads as f64),
        );
    }

    // --- phase 2: ingest latency + flush throughput, shared vs isolated
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
             {:>8.2} ms ({:>9.0} retractions/s, {} budget deferrals) on {} threads",
            p50.as_secs_f64() * 1e3,
            p99.as_secs_f64() * 1e3,
            cell.flush_drain.as_secs_f64() * 1e3,
            flush_rate,
            cell.deferrals,
            cell.threads,
        );
        report.push(
            Cell::new(format!("latency/{label}"))
                .param("phase", "latency")
                .param("pool", label)
                .param("threads", cell.threads)
                .metric("ingest_p50_ms", p50.as_secs_f64() * 1e3)
                .metric("ingest_p99_ms", p99.as_secs_f64() * 1e3)
                .metric("flush_drain_ms", cell.flush_drain.as_secs_f64() * 1e3)
                .metric("flush_retractions_per_sec", flush_rate)
                .metric("budget_deferrals", cell.deferrals as f64),
        );
        if shared {
            assert!(
                cell.deferrals > 0,
                "the shared flush was never sliced — the budget did nothing"
            );
        }
    }
    println!(
        "shared-pool ingest p99 is {:.2}x the isolated baseline \
         (co-tenant flushing {} retractions under a {:?} budget)",
        p99s[1].as_secs_f64() / p99s[0].as_secs_f64().max(1e-9),
        p.churn_retract,
        p.budget,
    );

    if let Some(path) = json_path {
        report.write(&path).expect("bench trajectory written");
    }
}
