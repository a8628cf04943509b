//! Benchmark harness reproducing the paper's evaluation (§3).
//!
//! The measured pipeline follows the paper exactly: "for both systems …
//! the running times include both parsing and inferencing times". One run =
//! parse N-Triples text → dictionary-encode → materialise, timed end to
//! end.
//!
//! * engine `Baseline` = [`slider_baseline::NaiveReasoner`] (the OWLIM-SE
//!   stand-in — batch fixpoint over the whole store);
//! * engine `Slider` = [`slider_core::Slider`] (buffered incremental).
//!
//! Binaries:
//!
//! * `table1` — regenerates Table 1 (all 13 ontologies × {ρdf, RDFS} ×
//!   {Baseline, Slider}) plus the §3 headline averages;
//! * `figure3` — the same data as inference-time series (Table 1 minus
//!   BSBM_5M, as in the paper's figure), with an ASCII rendering and CSV;
//! * `figure2` — the ρdf rules dependency graph as DOT;
//! * `retraction` — sliding-window streaming with incremental deletion:
//!   eager per-batch DRed vs coalesced flushes vs
//!   recompute-from-scratch, over the shared [`family`]
//!   workload; `--smoke` runs the tiny CI configuration with per-step
//!   oracle verification (including re-assertions that must cancel
//!   pending retractions).
//!
//! Criterion benches: `table1` (scaled-down row set), `buffer_params`
//! (buffer size / timeout sweeps — the demo's §4 parameters), `ablation`
//! (pool size, duplicate limitation), `store_micro` (substrate
//! microbenchmarks),
//! `retraction` (one sliding-window maintenance step, both engines).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use slider_baseline::NaiveReasoner;
use slider_core::{Slider, SliderConfig};
use slider_model::Dictionary;
use slider_parser::load_ntriples;
use slider_rules::{Fragment, Ruleset};
use slider_workloads::{to_ntriples, PaperOntology};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which engine a measurement used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Batch fixpoint materialiser (the OWLIM-SE stand-in).
    Baseline,
    /// The Slider incremental reasoner.
    Slider,
}

impl EngineKind {
    /// Column label.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Baseline => "baseline",
            EngineKind::Slider => "slider",
        }
    }
}

/// One timed materialisation (parse + inference, as in the paper).
#[derive(Debug, Clone, Copy)]
pub struct RunResult {
    /// Input triples parsed (after in-file duplicate removal).
    pub input: usize,
    /// Triples inferred (closure size − input).
    pub inferred: usize,
    /// Wall-clock time, parsing included.
    pub elapsed: Duration,
}

impl RunResult {
    /// Throughput over input triples (the paper reports "up to 36,000
    /// triples/sec").
    pub fn throughput(&self) -> f64 {
        self.input as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Parses `nt_text` and materialises it with the batch baseline.
pub fn run_baseline(nt_text: &str, fragment: Fragment) -> RunResult {
    let start = Instant::now();
    let dict = Arc::new(Dictionary::new());
    let triples = load_ntriples(nt_text.as_bytes(), &dict).expect("generated data parses");
    let ruleset = Ruleset::fragment(fragment, &dict);
    let mut reasoner = NaiveReasoner::new(ruleset);
    // Count distinct inputs: generated data may repeat a triple.
    reasoner.load(&triples);
    let input = reasoner.store().len();
    reasoner.materialize();
    let elapsed = start.elapsed();
    RunResult {
        input,
        inferred: reasoner.store().len() - input,
        elapsed,
    }
}

/// Parses `nt_text` and materialises it with Slider.
///
/// Unlike the batch baseline, Slider is fed *while parsing*: the input
/// manager pushes parser chunks straight into the rule buffers, so parsing
/// and inference overlap on the pool — the paper's "parallelisation of
/// parsing and reasoning process" (§1, Data Stream Support). The batch
/// baseline, like OWLIM, must finish parsing before it can start its
/// fixpoint.
pub fn run_slider(nt_text: &str, fragment: Fragment, config: SliderConfig) -> RunResult {
    const CHUNK: usize = 4096;
    let start = Instant::now();
    let dict = Arc::new(Dictionary::new());
    let ruleset = Ruleset::fragment(fragment, &dict);
    let slider = Slider::new(Arc::clone(&dict), ruleset, config);
    let mut chunk = Vec::with_capacity(CHUNK);
    for t in slider_parser::NTriplesParser::new(nt_text.as_bytes()) {
        chunk.push(dict.encode_triple_owned(t.expect("generated data parses")));
        if chunk.len() == CHUNK {
            slider.add_triples(&chunk);
            chunk.clear();
        }
    }
    slider.add_triples(&chunk);
    slider.wait_idle();
    let elapsed = start.elapsed();
    let stats = slider.stats();
    RunResult {
        input: stats.input_fresh as usize,
        inferred: stats.total_inferred() as usize,
        elapsed,
    }
}

/// One Table 1 cell pair: both engines on one (ontology, fragment) point.
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    /// Input size (distinct triples).
    pub input: usize,
    /// Baseline measurement.
    pub baseline: RunResult,
    /// Slider measurement.
    pub slider: RunResult,
}

impl Comparison {
    /// The paper's "Gain" column: `(t_baseline / t_slider − 1) × 100 %`
    /// (e.g. BSBM_100k ρdf: 9.907 s vs 4.636 s → 113.69 %).
    pub fn gain_percent(&self) -> f64 {
        (self.baseline.elapsed.as_secs_f64() / self.slider.elapsed.as_secs_f64().max(1e-9) - 1.0)
            * 100.0
    }
}

/// Runs both engines on one ontology/fragment point.
pub fn compare(nt_text: &str, fragment: Fragment, config: &SliderConfig) -> Comparison {
    let baseline = run_baseline(nt_text, fragment);
    let slider = run_slider(nt_text, fragment, config.clone());
    Comparison {
        input: slider.input,
        baseline,
        slider,
    }
}

/// A full Table 1 row: one ontology, both fragments, both engines.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// Ontology name (Table 1 spelling).
    pub ontology: String,
    /// Input size.
    pub input: usize,
    /// ρdf comparison.
    pub rho_df: Comparison,
    /// RDFS comparison.
    pub rdfs: Comparison,
}

/// Generates the N-Triples text for an ontology at `scale`.
pub fn generate_ntriples(ontology: PaperOntology, scale: f64) -> String {
    to_ntriples(&ontology.generate(scale))
}

/// Runs the full Table 1 measurement for one ontology.
pub fn table1_row(ontology: PaperOntology, scale: f64, config: &SliderConfig) -> TableRow {
    let text = generate_ntriples(ontology, scale);
    let rho_df = compare(&text, Fragment::RhoDf, config);
    let rdfs = compare(&text, Fragment::Rdfs, config);
    TableRow {
        ontology: ontology.name().to_owned(),
        input: rho_df.input,
        rho_df,
        rdfs,
    }
}

/// Formats a duration like the paper ("9.907s").
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

/// Renders rows in Table 1's layout.
pub fn render_table(rows: &[TableRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<14} {:>9} | {:>9} {:>10} {:>10} {:>9} | {:>9} {:>10} {:>10} {:>9}",
        "Ontology",
        "Input",
        "Inferred",
        "Baseline",
        "Slider",
        "Gain",
        "Inferred",
        "Baseline",
        "Slider",
        "Gain"
    );
    let _ = writeln!(
        s,
        "{:<14} {:>9} | {:>52} | {:>52}",
        "", "", "rho-df reasoning", "RDFS reasoning"
    );
    let mut rho_gains = Vec::new();
    let mut rdfs_gains = Vec::new();
    for row in rows {
        // Mirror the paper: the wordnet ρdf row is "-" (nothing inferred).
        let rho_gain = if row.rho_df.slider.inferred == 0 && row.rho_df.baseline.inferred == 0 {
            "-".to_owned()
        } else {
            rho_gains.push(row.rho_df.gain_percent());
            format!("{:.2}%", row.rho_df.gain_percent())
        };
        rdfs_gains.push(row.rdfs.gain_percent());
        let _ = writeln!(
            s,
            "{:<14} {:>9} | {:>9} {:>10} {:>10} {:>9} | {:>9} {:>10} {:>10} {:>9}",
            row.ontology,
            row.input,
            row.rho_df.slider.inferred,
            fmt_secs(row.rho_df.baseline.elapsed),
            fmt_secs(row.rho_df.slider.elapsed),
            rho_gain,
            row.rdfs.slider.inferred,
            fmt_secs(row.rdfs.baseline.elapsed),
            fmt_secs(row.rdfs.slider.elapsed),
            format!("{:.2}%", row.rdfs.gain_percent()),
        );
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let rho_avg = avg(&rho_gains);
    let rdfs_avg = avg(&rdfs_gains);
    let _ = writeln!(
        s,
        "{:<24} rho-df average gain: {rho_avg:.2}%   (paper: 106.86%)",
        ""
    );
    let _ = writeln!(
        s,
        "{:<24} RDFS   average gain: {rdfs_avg:.2}%   (paper: 36.08%)",
        ""
    );
    let _ = writeln!(
        s,
        "{:<24} overall average gain: {:.2}%   (paper: 71.47%)",
        "",
        (rho_avg + rdfs_avg) / 2.0
    );
    let peak = rows
        .iter()
        .flat_map(|r| [r.rho_df.slider, r.rdfs.slider])
        .map(|r| r.throughput())
        .fold(0.0f64, f64::max);
    let _ = writeln!(
        s,
        "{:<24} peak Slider throughput: {:.0} triples/sec (paper: up to 36,000)",
        "", peak
    );
    s
}

/// Renders rows as CSV (one line per ontology × fragment × engine).
pub fn render_csv(rows: &[TableRow]) -> String {
    let mut s = String::from("ontology,fragment,engine,input,inferred,seconds,gain_percent\n");
    for row in rows {
        for (frag, cmp) in [("rho-df", &row.rho_df), ("RDFS", &row.rdfs)] {
            for (engine, run) in [("baseline", &cmp.baseline), ("slider", &cmp.slider)] {
                use std::fmt::Write as _;
                let _ = writeln!(
                    s,
                    "{},{},{},{},{},{:.6},{:.2}",
                    row.ontology,
                    frag,
                    engine,
                    run.input,
                    run.inferred,
                    run.elapsed.as_secs_f64(),
                    cmp.gain_percent()
                );
            }
        }
    }
    s
}

/// The multi-family maintenance workload of the `retraction` bin, also
/// fed by the `ingest` bin.
///
/// Each *family* `f` is an independent rule pair — a
/// [`Transitive`](slider_rules::Transitive) hierarchy over its own
/// predicate plus a [`Subsumption`](slider_rules::Subsumption) membership
/// rule — with a vocabulary disjoint from every other family, so the
/// dependency graph keeps each family's downward closure to itself.
pub mod family {
    use slider_core::{Slider, SliderConfig};
    use slider_model::{Dictionary, NodeId, Triple};
    use slider_rules::{Ruleset, Subsumption, Transitive};
    use std::sync::Arc;

    /// Shape of the workload (stream scheduling stays with the caller).
    #[derive(Debug, Clone, Copy)]
    pub struct FamilyParams {
        /// Independent rule families; at most [`MAX_FAMILIES`].
        pub families: u64,
        /// Depth of each family's resident class chain.
        pub depth: u64,
        /// Instance-membership triples per family per stream batch.
        pub batch: u64,
        /// Shared subjects every batch of a family re-types (the
        /// overlapping downward closure within the family); 0 disables.
        pub shared: u64,
    }

    /// Upper bound on `families` (rule names are `&'static`).
    pub const MAX_FAMILIES: usize = 8;
    const T_NAMES: [&str; MAX_FAMILIES] = ["T-0", "T-1", "T-2", "T-3", "T-4", "T-5", "T-6", "T-7"];
    const S_NAMES: [&str; MAX_FAMILIES] = ["S-0", "S-1", "S-2", "S-3", "S-4", "S-5", "S-6", "S-7"];

    /// Family `f`'s transitive hierarchy predicate.
    pub fn trans_pred(f: u64) -> NodeId {
        NodeId(50_000 + f * 100)
    }
    /// Family `f`'s membership predicate.
    pub fn is_pred(f: u64) -> NodeId {
        NodeId(50_001 + f * 100)
    }
    /// Class `d` of family `f`'s resident chain.
    pub fn class(f: u64, d: u64) -> NodeId {
        NodeId(10_000 + f * 1_000 + d)
    }
    /// Per-batch leaf class of family `f` (links into the resident chain).
    pub fn batch_leaf(f: u64, i: u64) -> NodeId {
        NodeId(100_000 + f * 10_000 + i)
    }
    /// Shared subject `s` of family `f`.
    pub fn shared_subj(f: u64, s: u64) -> NodeId {
        NodeId(2_000_000 + f * 100_000 + s)
    }

    /// The `families`-family ruleset: one `Transitive` + `Subsumption`
    /// pair per family, disjoint vocabularies.
    pub fn ruleset(families: u64) -> Ruleset {
        assert!(families as usize <= MAX_FAMILIES);
        let mut rs = Ruleset::custom("families");
        for f in 0..families {
            rs.push(Transitive::new(T_NAMES[f as usize], trans_pred(f)));
            rs.push(Subsumption::new(
                S_NAMES[f as usize],
                is_pred(f),
                trans_pred(f),
            ));
        }
        rs
    }

    /// Resident background: one class chain per family.
    pub fn taxonomy(p: &FamilyParams) -> Vec<Triple> {
        (0..p.families)
            .flat_map(|f| {
                (0..p.depth - 1)
                    .map(move |d| Triple::new(class(f, d), trans_pred(f), class(f, d + 1)))
            })
            .collect()
    }

    /// Stream batch `i`: per family, a fresh leaf class linked into the
    /// chain, `batch` instances and `shared` shared subjects typed at that
    /// leaf. Each membership derives the whole chain of super-memberships;
    /// the shared subjects' derived memberships are supported by *every*
    /// live batch of the family, so retracting one batch overdeletes and
    /// rederives that overlapping closure — per batch in eager mode, and
    /// once per deferred flush.
    pub fn batch(p: &FamilyParams, i: u64) -> Vec<Triple> {
        (0..p.families)
            .flat_map(move |f| {
                let leaf = batch_leaf(f, i);
                std::iter::once(Triple::new(leaf, trans_pred(f), class(f, 0)))
                    .chain((0..p.batch).map(move |k| {
                        let inst = NodeId(1_000_000 + f * 100_000 + i * p.batch + k);
                        Triple::new(inst, is_pred(f), leaf)
                    }))
                    .chain(
                        (0..p.shared)
                            .map(move |s| Triple::new(shared_subj(f, s), is_pred(f), leaf)),
                    )
            })
            .collect()
    }

    /// A family-ruleset reasoner whose deferred queue only flushes
    /// explicitly (no threshold, no deadline — timings measure the
    /// maintenance itself, not flusher scheduling).
    pub fn deferred_slider(families: u64) -> Slider {
        let config = SliderConfig::batch()
            .with_maintenance_batch(usize::MAX)
            .with_maintenance_max_age(None);
        Slider::new(Arc::new(Dictionary::new()), ruleset(families), config)
    }
}

/// Machine-readable benchmark trajectories: every bench bin can emit a
/// `BENCH_*.json` file (workload shape, configuration, one entry per
/// measured cell with its best-of-N timings) so successive runs of the
/// same bin are comparable across commits — the start of the
/// bench-trajectory record the roadmap asks for.
///
/// The format is deliberately flat — one object with `bench`, `workload`,
/// `best_of`, a string-valued `config` map, and a `cells` array whose
/// entries carry a `label`, a string-valued `params` map and a
/// float-valued `metrics` map — so a few lines of any plotting script can
/// consume it without a schema.
pub mod report {
    use std::fmt::Write as _;

    /// One measured cell: a labelled point in the bench's sweep.
    #[derive(Debug, Clone, Default)]
    pub struct Cell {
        label: String,
        params: Vec<(String, String)>,
        metrics: Vec<(String, f64)>,
    }

    impl Cell {
        /// A cell named `label` (e.g. `"sharded/2-producers"`).
        pub fn new(label: impl Into<String>) -> Self {
            Cell {
                label: label.into(),
                ..Cell::default()
            }
        }

        /// Attaches a sweep parameter (stringified).
        pub fn param(mut self, key: &str, value: impl std::fmt::Display) -> Self {
            self.params.push((key.to_owned(), value.to_string()));
            self
        }

        /// Attaches a measurement. Non-finite values are recorded as 0
        /// (JSON has no NaN/Inf).
        pub fn metric(mut self, key: &str, value: f64) -> Self {
            let value = if value.is_finite() { value } else { 0.0 };
            self.metrics.push((key.to_owned(), value));
            self
        }
    }

    /// A whole bench run: workload description, config, measured cells.
    #[derive(Debug, Clone)]
    pub struct BenchReport {
        bench: String,
        workload: String,
        best_of: usize,
        config: Vec<(String, String)>,
        cells: Vec<Cell>,
    }

    impl BenchReport {
        /// A report for bench `bench` over `workload` (human-readable
        /// shape summary).
        pub fn new(bench: impl Into<String>, workload: impl Into<String>) -> Self {
            BenchReport {
                bench: bench.into(),
                workload: workload.into(),
                best_of: 1,
                config: Vec::new(),
                cells: Vec::new(),
            }
        }

        /// Records that each cell's timing is the best of `n` runs.
        pub fn best_of(mut self, n: usize) -> Self {
            self.best_of = n;
            self
        }

        /// Attaches a configuration key (stringified).
        pub fn config(mut self, key: &str, value: impl std::fmt::Display) -> Self {
            self.config.push((key.to_owned(), value.to_string()));
            self
        }

        /// Appends a measured cell.
        pub fn push(&mut self, cell: Cell) {
            self.cells.push(cell);
        }

        /// Serialises the report (flat JSON, no external dependencies).
        pub fn to_json(&self) -> String {
            fn escape(s: &str) -> String {
                let mut out = String::with_capacity(s.len());
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out
            }
            fn string_map(pairs: &[(String, String)]) -> String {
                let entries: Vec<String> = pairs
                    .iter()
                    .map(|(k, v)| format!(r#""{}":"{}""#, escape(k), escape(v)))
                    .collect();
                format!("{{{}}}", entries.join(","))
            }
            let cells: Vec<String> = self
                .cells
                .iter()
                .map(|cell| {
                    let metrics: Vec<String> = cell
                        .metrics
                        .iter()
                        .map(|(k, v)| format!(r#""{}":{:.6}"#, escape(k), v))
                        .collect();
                    format!(
                        r#"{{"label":"{}","params":{},"metrics":{{{}}}}}"#,
                        escape(&cell.label),
                        string_map(&cell.params),
                        metrics.join(",")
                    )
                })
                .collect();
            format!(
                r#"{{"bench":"{}","workload":"{}","best_of":{},"config":{},"cells":[{}]}}"#,
                escape(&self.bench),
                escape(&self.workload),
                self.best_of,
                string_map(&self.config),
                cells.join(",")
            )
        }

        /// Writes the report to `path` and prints where it went.
        pub fn write(&self, path: &str) -> std::io::Result<()> {
            std::fs::write(path, self.to_json())?;
            println!("bench trajectory written to {path}");
            Ok(())
        }
    }

    /// Scans the process arguments for `--json <path>`, ignoring anything
    /// else (cargo appends `--bench` when running criterion benches, so
    /// the strict [`parse_bench_args`](crate::parse_bench_args) would
    /// reject the invocation). Used by the criterion benches' custom
    /// harness mains to decide whether to emit a report trajectory.
    pub fn json_arg() -> Option<String> {
        json_arg_in(std::env::args().skip(1))
    }

    fn json_arg_in(args: impl Iterator<Item = String>) -> Option<String> {
        let mut args = args;
        while let Some(arg) = args.next() {
            if arg == "--json" {
                return args.next();
            }
        }
        None
    }

    #[cfg(test)]
    mod tests {
        use super::json_arg_in;

        #[test]
        fn json_arg_tolerates_cargo_bench_flags() {
            let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
            assert_eq!(
                json_arg_in(args(&["--bench", "--json", "out.json"]).into_iter()),
                Some("out.json".to_string())
            );
            assert_eq!(json_arg_in(args(&["--bench"]).into_iter()), None);
            assert_eq!(json_arg_in(args(&["--json"]).into_iter()), None);
        }
    }
}

/// Parses the shared bench CLI shape: `[--smoke] [--json <path>]`.
/// Exits with usage on anything else. Returns `(smoke, json_path)`.
pub fn parse_bench_args(usage: &str) -> (bool, Option<String>) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut json = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--json" => match it.next() {
                Some(path) => json = Some(path),
                None => {
                    eprintln!("usage: {usage}");
                    std::process::exit(2);
                }
            },
            _ => {
                eprintln!("usage: {usage}");
                std::process::exit(2);
            }
        }
    }
    (smoke, json)
}

/// Reads the benchmark scale factor from `SLIDER_SCALE` (default
/// `default_scale`).
pub fn env_scale(default_scale: f64) -> f64 {
    std::env::var("SLIDER_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(default_scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chains_run_end_to_end() {
        let text = generate_ntriples(PaperOntology::SubClassOf10, 1.0);
        let cmp = compare(&text, Fragment::RhoDf, &SliderConfig::default());
        assert_eq!(cmp.input, 19);
        // Table 1: 36 inferred for subClassOf10 under ρdf.
        assert_eq!(cmp.slider.inferred, 36);
        assert_eq!(cmp.baseline.inferred, 36);
    }

    #[test]
    fn engines_agree_on_closure_sizes() {
        for ont in [
            PaperOntology::Bsbm100k,
            PaperOntology::Wikipedia,
            PaperOntology::Wordnet,
        ] {
            let text = generate_ntriples(ont, 0.01);
            for fragment in [Fragment::RhoDf, Fragment::Rdfs] {
                let b = run_baseline(&text, fragment);
                let s = run_slider(&text, fragment, SliderConfig::default());
                assert_eq!(b.input, s.input, "{ont} {fragment} input");
                assert_eq!(b.inferred, s.inferred, "{ont} {fragment} inferred");
            }
        }
    }

    #[test]
    fn wordnet_infers_nothing_under_rho_df() {
        let text = generate_ntriples(PaperOntology::Wordnet, 0.01);
        let r = run_slider(&text, Fragment::RhoDf, SliderConfig::default());
        assert_eq!(r.inferred, 0);
    }

    #[test]
    fn gain_formula_matches_paper_example() {
        // BSBM_100k ρdf row: 9.907s baseline, 4.636s slider → 113.69 %.
        let cmp = Comparison {
            input: 0,
            baseline: RunResult {
                input: 0,
                inferred: 0,
                elapsed: Duration::from_secs_f64(9.907),
            },
            slider: RunResult {
                input: 0,
                inferred: 0,
                elapsed: Duration::from_secs_f64(4.636),
            },
        };
        assert!(
            (cmp.gain_percent() - 113.69).abs() < 0.05,
            "{}",
            cmp.gain_percent()
        );
    }

    #[test]
    fn table_and_csv_render() {
        let row = table1_row(PaperOntology::SubClassOf10, 1.0, &SliderConfig::default());
        let table = render_table(std::slice::from_ref(&row));
        assert!(table.contains("subClassOf10"));
        assert!(table.contains("average gain"));
        let csv = render_csv(std::slice::from_ref(&row));
        assert_eq!(csv.lines().count(), 1 + 4);
        assert!(csv.contains("subClassOf10,rho-df,slider"));
    }

    #[test]
    fn bench_report_json_is_flat_and_balanced() {
        let mut report = report::BenchReport::new("ingest", "4 families × depth 5")
            .best_of(3)
            .config("shards", 16)
            .config("note", "quote \" and\nnewline");
        report.push(
            report::Cell::new("sharded/2-producers")
                .param("producers", 2)
                .metric("elapsed_ms", 12.5)
                .metric("throughput", f64::NAN),
        );
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        // Balanced delimiter quotes (escaped quotes excluded).
        assert_eq!(
            json.replace("\\\"", "").matches('"').count() % 2,
            0,
            "{json}"
        );
        assert!(json.contains(r#""bench":"ingest""#));
        assert!(json.contains(r#""best_of":3"#));
        assert!(json.contains(r#""shards":"16""#));
        assert!(json.contains(r#""label":"sharded/2-producers""#));
        assert!(json.contains(r#""elapsed_ms":12.5"#));
        // Non-finite metrics are clamped, escapes round-trip.
        assert!(json.contains(r#""throughput":0.0"#));
        assert!(json.contains(r#"quote \" and\nnewline"#));
    }

    #[test]
    fn env_scale_parsing() {
        // Not setting the variable in-process (tests run in parallel);
        // exercise only the default path here.
        assert_eq!(env_scale(0.25), 0.25);
    }
}
