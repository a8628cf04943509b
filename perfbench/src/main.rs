//! The repository's benchmark. See `README.md` beside `Cargo.toml` for the
//! workloads, the metrics and how they relate.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]
//! perfbench [--seed N] [--seconds S] [--trace 0|1] [--json PATH] [--check-repeat]
//! ```
//!
//! With `--workload` it runs that workload in this process and ends with one
//! JSON line. Without, it runs every workload, each in a child process of its
//! own so that peak memory is the workload's, untraced and then traced.

mod inputs;
mod measure;
mod probes;
mod report;
mod scenario;

use inputs::{Input, Shape, Workload, DEFAULT_SEED};
use measure::{median, peak_rss_mb, quantile, supports_percentile, Tracer};
use report::{json_number, Metrics, Spec, END_TO_END, PER_LAYER};
use scenario::{engine_config, Reference, Rep};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// `setup_s` is the median over at least this many set-ups, and over as many
/// more as fit in [`SETUP_SECONDS`]: a set-up of a millisecond is repeated
/// until its median is steady.
const MIN_SETUPS: usize = 3;
const SETUP_SECONDS: f64 = 0.5;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    /// `None`: both runs (all-workloads mode only).
    trace: Option<bool>,
    spans: Option<String>,
    json: Option<String>,
    check_repeat: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--spans PATH] [--json PATH] [--check-repeat]\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: None,
        spans: None,
        json: None,
        check_repeat: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--check-repeat" {
            args.check_repeat = true;
            continue;
        }
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Workload::from_name(&value).unwrap_or_else(|| usage()))
            }
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--spans" => args.spans = Some(value),
            "--json" => args.json = Some(value),
            _ => usage(),
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let ok = match args.workload {
        Some(workload) => run_workload(workload, &args),
        None if args.check_repeat => check_repeat(&args),
        None => run_all(&args).is_some(),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Generates the input repeatedly and keeps the last; the times go to
/// `setup_s`.
fn set_up(workload: Workload, seed: u64) -> (Input, Vec<f64>) {
    let mut times = Vec::new();
    loop {
        let start = Instant::now();
        let input = inputs::generate(workload, seed);
        times.push(start.elapsed().as_secs_f64());
        if times.len() >= MIN_SETUPS && times.iter().sum::<f64>() >= SETUP_SECONDS {
            return (input, times);
        }
    }
}

/// Runs one workload in this process and prints its metrics and the closing
/// JSON line. False if the input digest is not the pinned one or an output
/// was wrong.
fn run_workload(workload: Workload, args: &Args) -> bool {
    let traced_run = args.trace.unwrap_or(false);
    println!(
        "workload {} seed {} seconds {} trace {} workers 2 cores {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(traced_run),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let (input, setup_times) = set_up(workload, args.seed);
    println!(
        "input {} triples={} fnv1a={:#018x}{}",
        workload.name(),
        input.triples,
        input.fnv,
        if workload == Workload::ChainClosure {
            " (the same for every seed)"
        } else {
            ""
        }
    );
    let (pinned_triples, pinned_fnv) = workload.pinned_digest();
    if args.seed == DEFAULT_SEED && (input.triples, input.fnv) != (pinned_triples, pinned_fnv) {
        eprintln!(
            "input digest differs from the pinned triples={pinned_triples} \
             fnv1a={pinned_fnv:#018x}: the generator changed, so results do not compare \
             with the recorded baseline"
        );
        return false;
    }

    // Measure: fresh engine per repetition until the time is used up. The
    // traced run alternates untraced and traced repetitions, so that both
    // see the same machine state.
    let mut plain = Tracer::new(false);
    let mut tracer = Tracer::new(true);
    let mut reps: Vec<Rep> = Vec::new();
    let mut engine = None;
    let mut measured = 0.0;
    while measured < args.seconds || reps.len() < if traced_run { 2 } else { 1 } {
        drop(engine.take());
        let traced = traced_run && reps.len() % 2 == 1;
        let t = if traced { &mut tracer } else { &mut plain };
        let (rep, slider) = scenario::run(&input, engine_config(), t, traced);
        measured += rep.timings.seconds;
        reps.push(rep);
        engine = Some(slider);
    }
    let engine = engine.expect("at least one repetition ran");
    // Read before the reference is computed: the peak of set-up and
    // repetitions, not of the check.
    let peak_rss = peak_rss_mb();

    // Check every repetition against the reference, outside the clock.
    let reference = scenario::reference(&input);
    let (attempted, failed) = verify(&reps, &reference);

    println!(
        "repetitions {}",
        reps.iter()
            .map(|r| format!(
                "{:.3}s{}",
                r.timings.seconds,
                if r.traced { "t" } else { "" }
            ))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let mut m = Metrics::default();
    let (traced, untraced): (Vec<&Rep>, Vec<&Rep>) = reps.iter().partition(|r| r.traced);
    let throughput = |reps: &[&Rep]| {
        let per_rep: Vec<f64> = reps
            .iter()
            .map(|r| r.timings.handed_in as f64 / r.timings.seconds)
            .collect();
        median(&per_rep)
    };
    let pooled = |f: fn(&Rep) -> &Vec<f64>| -> Vec<f64> {
        untraced.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let rep_s = median(
        &untraced
            .iter()
            .map(|r| r.timings.seconds)
            .collect::<Vec<_>>(),
    );
    if traced_run {
        per_layer(&input, &reps, &tracer, &reference, &mut m);
        let traced_throughput = throughput(&traced);
        let overhead = throughput(&untraced) / traced_throughput - 1.0;
        m.push("traced.triples_per_s", traced_throughput, traced.len());
        m.push("trace_overhead_pct", overhead * 100.0, traced.len());
        probes::run(&input, &engine, rep_s, reference.join_s, &mut m);
        if let Some(path) = &args.spans {
            if let Err(e) = std::fs::write(path, tracer.to_json()) {
                eprintln!("cannot write spans to {path}: {e}");
                return false;
            }
            println!("spans {} written to {path}", tracer.spans().len());
        }
    } else {
        let closure = pooled(|r| &r.timings.closure_ms);
        let query = pooled(|r| &r.timings.query_us);
        m.push("triples_per_s", throughput(&untraced), untraced.len());
        m.push("closure_p50_ms", median(&closure), closure.len());
        if supports_percentile(closure.len(), 0.95) {
            m.push("closure_p95_ms", quantile(&closure, 0.95), closure.len());
        }
        if !query.is_empty() {
            m.push("query_p50_us", median(&query), query.len());
        }
        if supports_percentile(query.len(), 0.95) {
            m.push("query_p95_us", quantile(&query, 0.95), query.len());
        }
        let before_clock: Vec<f64> = untraced.iter().map(|r| r.timings.before_clock_s).collect();
        m.push(
            "setup_s",
            median(&setup_times) + median(&before_clock),
            setup_times.len(),
        );
        m.push("error_rate", failed as f64 / attempted as f64, attempted);
    }
    m.push("process.peak_rss_mb", peak_rss, 1);
    m.print();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        m.to_json(if traced_run { PER_LAYER } else { END_TO_END })
    );
    failed == 0
}

/// Operations attempted and failed: a repetition whose closure differs from
/// the reference's, or a query block whose hit count does.
fn verify(reps: &[Rep], reference: &Reference) -> (usize, usize) {
    let mut attempted = 0;
    let mut failed = 0;
    for (i, rep) in reps.iter().enumerate() {
        attempted += 1 + rep.timings.query_hits.len();
        if rep.closure != reference.closure {
            failed += 1;
            eprintln!(
                "repetition {i}: closure {:?} differs from the reference {:?}",
                rep.closure, reference.closure
            );
        }
        let wrong_blocks = rep
            .timings
            .query_hits
            .iter()
            .zip(&reference.query_hits)
            .filter(|(got, want)| got != want)
            .count();
        if wrong_blocks > 0 {
            failed += wrong_blocks;
            eprintln!("repetition {i}: {wrong_blocks} query blocks differ from the reference");
        }
    }
    (attempted, failed)
}

/// Per-layer metrics the repetitions themselves give: the engine's counters
/// (from the first repetition — each runs the same input on a fresh engine)
/// and the spans' self times.
fn per_layer(input: &Input, reps: &[Rep], tracer: &Tracer, reference: &Reference, m: &mut Metrics) {
    let stats = &reps[0].stats;
    let sum = |f: fn(&slider_core::RuleStats) -> u64| stats.rules.iter().map(f).sum::<u64>() as f64;
    let (fired, derived, fresh) = (sum(|r| r.fired), sum(|r| r.derived), sum(|r| r.fresh));
    for r in stats.rules.iter().filter(|r| r.fired > 0) {
        for (what, v) in [
            ("fired", r.fired),
            ("derived", r.derived),
            ("fresh", r.fresh),
        ] {
            m.push(format!("rules.{what}[{}]", r.name), v as f64, 1);
        }
    }
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    m.push("rules.join_s", reference.join_s, 1);
    m.push("rules.fired", fired, 1);
    m.push("rules.derived", derived, 1);
    m.push("rules.fresh", fresh, 1);
    m.push("rules.useful_ratio", ratio(fresh, derived), 1);
    m.push("model.terms", stats.dict_terms as f64, 1);
    m.push("model.dict_bytes", stats.dict_bytes_estimate as f64, 1);
    m.push("model.sweeps", stats.dict_sweeps as f64, 1);
    m.push("core.full_flushes", sum(|r| r.full_flushes), 1);
    m.push("core.timeout_flushes", sum(|r| r.timeout_flushes), 1);
    m.push(
        "core.gate_write_acquisitions",
        stats.gate_write_acquisitions as f64,
        1,
    );
    m.push(
        "core.shard_write_conflicts",
        stats.shard_write_conflicts as f64,
        1,
    );
    m.push("core.removal_runs", stats.removal_runs as f64, 1);
    m.push("core.retracted", stats.retracted as f64, 1);
    m.push("core.overdeleted", stats.overdeleted as f64, 1);
    m.push("core.rederived", stats.rederived as f64, 1);
    m.push(
        "core.rederive_ratio",
        ratio(stats.rederived as f64, stats.overdeleted as f64),
        1,
    );
    m.push("closure.triples", reps[0].closure.0 as f64, 1);

    let self_times = tracer.self_times();
    let traced_reps = reps.len() / 2;
    let of = |name: &str| {
        self_times
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, s)| s)
    };
    for (name, s) in &self_times {
        if *name != "step" {
            m.push(
                format!("span.{}_s", name.replace('.', "_")),
                *s,
                traced_reps,
            );
        }
    }
    let total: f64 = self_times.iter().map(|&(_, s)| s).sum();
    let layers = total - of("rep") - of("step");
    m.push(
        "span.coverage_pct",
        ratio(layers, total) * 100.0,
        traced_reps,
    );
    if matches!(input.shape, Shape::Window { .. }) {
        m.push("core.remove_s", of("engine.remove"), traced_reps);
        m.push(
            "core.add_s",
            of("engine.add") + of("engine.wait_idle"),
            traced_reps,
        );
    }
}

/// One workload's results from a child process.
struct ChildRun {
    workload: Workload,
    traced: bool,
    metrics: Metrics,
}

/// Runs every workload in a child process each, untraced and traced unless
/// `--trace` picks one. `None` if a child failed.
fn run_all(args: &Args) -> Option<Vec<ChildRun>> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut runs = Vec::new();
    for workload in Workload::ALL {
        for traced in [false, true] {
            if args.trace.is_some_and(|t| t != traced) {
                continue;
            }
            let output = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output()
                .expect("start a child process for the workload");
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            if !output.status.success() {
                eprintln!("{} failed ({})", workload.name(), output.status);
                return None;
            }
            runs.push(ChildRun {
                workload,
                traced,
                metrics: Metrics::parse(&stdout),
            });
        }
    }
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, runs_to_json(&runs)) {
            eprintln!("cannot write {path}: {e}");
            return None;
        }
    }
    Some(runs)
}

fn runs_to_json(runs: &[ChildRun]) -> String {
    let objects: Vec<String> = runs
        .iter()
        .map(|run| {
            let metrics: Vec<String> = run
                .metrics
                .0
                .iter()
                .map(|m| {
                    format!(
                        "    \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                        m.name,
                        json_number(m.value),
                        m.unit,
                        m.samples
                    )
                })
                .collect();
            format!(
                "  {{\"workload\": \"{}\", \"trace\": {}, \"metrics\": {{\n{}\n  }}}}",
                run.workload.name(),
                u8::from(run.traced),
                metrics.join(",\n")
            )
        })
        .collect();
    format!("[\n{}\n]\n", objects.join(",\n"))
}

/// Runs the full set twice and compares: every end-to-end metric must agree
/// within its own bound, every exact counter exactly. Per-layer timings are
/// printed by the runs themselves and not compared.
fn check_repeat(args: &Args) -> bool {
    let (Some(first), Some(second)) = (run_all(args), run_all(args)) else {
        return false;
    };
    let mut ok = true;
    println!(
        "{:<18} {:<22} {:>16} {:>16} {:>8}",
        "workload", "metric", "first", "second", "diff"
    );
    for (a, b) in first.iter().zip(&second) {
        let specs: &[Spec] = if a.traced { PER_LAYER } else { END_TO_END };
        for spec in specs.iter().filter(|s| s.exact || !a.traced) {
            let (Some(x), Some(y)) = (a.metrics.get(spec.name), b.metrics.get(spec.name)) else {
                continue;
            };
            let diff = if x == y {
                0.0
            } else {
                (y - x).abs() / x.abs().max(y.abs())
            };
            let agrees = if spec.exact {
                x == y
            } else {
                diff <= spec.bound
            };
            println!(
                "{:<18} {:<22} {:>16.6} {:>16.6} {:>7.2}% {}",
                a.workload.name(),
                spec.name,
                x,
                y,
                diff * 100.0,
                if agrees { "" } else { "DIFFERS" }
            );
            ok &= agrees;
        }
    }
    println!("check-repeat {}", if ok { "passed" } else { "failed" });
    ok
}
