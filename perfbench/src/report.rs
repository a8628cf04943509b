//! Metric names, units and bounds — the same list `BENCHMARK.json` holds —
//! and the two forms a result is printed in: one `metric` line per value
//! for people and for the parent process, and the closing JSON line.

/// A metric the benchmark's contract names.
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the baseline by which an end-to-end metric may worsen
    /// before it counts as a regression; unused for per-layer metrics.
    pub bound: f64,
    /// Single-client counter that must repeat exactly from run to run.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        bound,
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str) -> Spec {
    Spec {
        name,
        unit,
        bound: 0.0,
        exact: false,
    }
}

const fn count(name: &'static str) -> Spec {
    Spec {
        name,
        unit: "count",
        bound: 0.0,
        exact: true,
    }
}

/// Printed by the untraced run (`--trace 0`), for every workload.
pub const END_TO_END: &[Spec] = &[
    e2e("triples_per_s", "1/s", 0.25),
    e2e("closure_p50_ms", "ms", 0.25),
    e2e("setup_s", "s", 0.25),
];

/// Printed by the traced run (`--trace 1`), for every workload; 0 where the
/// workload bypasses the layer.
pub const PER_LAYER: &[Spec] = &[
    layer("parser.parse_s", "s"),
    count("parser.lines"),
    layer("model.intern_s", "s"),
    count("model.terms"),
    layer("model.dict_bytes", "B"),
    count("model.sweeps"),
    layer("model.sweep_s", "s"),
    layer("store.insert_s", "s"),
    count("store.publishes"),
    layer("store.insert_exponent", "exp"),
    layer("load_scaling_exponent", "exp"),
    layer("store.remove_s", "s"),
    layer("store.match_us", "us"),
    layer("store.contains_us", "us"),
    layer("rules.join_s", "s"),
    layer("rules.fired", "count"),
    layer("rules.derived", "count"),
    count("rules.fresh"),
    layer("rules.useful_ratio", "ratio"),
    layer("core.engine_s", "s"),
    layer("core.speedup_vs_serial", "ratio"),
    layer("core.full_flushes", "count"),
    layer("core.timeout_flushes", "count"),
    layer("core.gate_write_acquisitions", "count"),
    layer("core.shard_write_conflicts", "count"),
    layer("core.buffer_64_s", "s"),
    layer("core.buffer_1024_s", "s"),
    layer("core.buffer_16384_s", "s"),
    layer("core.remove_s", "s"),
    layer("core.add_s", "s"),
    count("core.removal_runs"),
    count("core.retracted"),
    count("core.overdeleted"),
    count("core.rederived"),
    layer("core.rederive_ratio", "ratio"),
    layer("baseline.batch_s", "s"),
    layer("gain_pct", "%"),
    layer("span.parse_s", "s"),
    layer("span.intern_s", "s"),
    layer("span.engine_add_s", "s"),
    layer("span.engine_remove_s", "s"),
    layer("span.engine_wait_idle_s", "s"),
    layer("span.query_s", "s"),
    layer("span.rep_s", "s"),
    layer("span.coverage_pct", "%"),
    layer("traced.triples_per_s", "1/s"),
    layer("trace_overhead_pct", "%"),
    count("closure.triples"),
    layer("process.peak_rss_mb", "MB"),
];

/// Printed by the untraced run where the workload has them, for people; the
/// contract's closing line holds only what every workload has.
pub const EXTRA: &[Spec] = &[
    layer("closure_p95_ms", "ms"),
    layer("query_p50_us", "us"),
    layer("query_p95_us", "us"),
    layer("error_rate", "ratio"),
];

/// The unit of the metric called `name`; a per-rule metric, `base[rule]`,
/// has its base's. Panics on a name no list holds, which is a bug here.
fn unit_of(name: &str) -> &'static str {
    let base = name.split('[').next().unwrap_or(name);
    [END_TO_END, PER_LAYER, EXTRA]
        .iter()
        .flat_map(|specs| specs.iter())
        .find(|s| s.name == base)
        .unwrap_or_else(|| panic!("metric {name} is in no list of report.rs"))
        .unit
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was taken over.
    pub samples: usize,
}

/// The values of one run, in the order they were recorded.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        let name = name.into();
        let unit = unit_of(&name);
        self.0.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// One line per metric: `metric <name> <value> <unit> n=<samples>`.
    pub fn print(&self) {
        for m in &self.0 {
            println!("metric {} {} {} n={}", m.name, m.value, m.unit, m.samples);
        }
    }

    /// Reads the `metric` lines back out of a child's output.
    pub fn parse(output: &str) -> Metrics {
        let mut metrics = Metrics::default();
        for line in output.lines() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            if let ["metric", name, value, _unit, n] = fields[..] {
                if let (Ok(value), Some(Ok(n))) =
                    (value.parse(), n.strip_prefix("n=").map(str::parse))
                {
                    metrics.push(name, value, n);
                }
            }
        }
        metrics
    }

    /// The `"metrics"` object of the closing line: every metric of `specs`,
    /// 0 for one this workload does not have.
    pub fn to_json(&self, specs: &[Spec]) -> String {
        let fields: Vec<String> = specs
            .iter()
            .map(|s| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    s.name,
                    json_number(self.get(s.name).unwrap_or(0.0)),
                    s.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// JSON has no NaN or infinity; a measurement that is neither is printed
/// with all its digits.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}
