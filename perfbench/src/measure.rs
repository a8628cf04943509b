//! Clocks, spans and order statistics — everything the benchmark measures
//! with, kept apart from what it measures.

use std::time::Instant;

/// One recorded span: a named interval on the driver thread.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Repetition the span belongs to (spans of one repetition share it).
    pub rep: u32,
}

/// Records spans around calls into the layers, in memory, on the driver
/// thread. A disabled tracer takes no timestamps, so the traced and the
/// untraced run execute the same pipeline code.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Starts the next repetition; later spans carry its number.
    pub fn next_rep(&mut self) {
        self.rep += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, nested in the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name and repetition: a span's duration minus the
    /// part its children cover, summed over the spans of that name, then the
    /// median over repetitions. Returned in seconds, in first-seen order.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        let reps: Vec<u32> = {
            let mut r: Vec<u32> = self.spans.iter().map(|s| s.rep).collect();
            r.dedup();
            r
        };
        names
            .into_iter()
            .map(|name| {
                let per_rep: Vec<f64> = reps
                    .iter()
                    .map(|&rep| {
                        self.spans
                            .iter()
                            .zip(&own)
                            .filter(|(s, _)| s.name == name && s.rep == rep)
                            .map(|(_, &ns)| ns as f64 * 1e-9)
                            .sum()
                    })
                    .collect();
                (name, median(&per_rep))
            })
            .collect()
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"rep\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.rep,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push(']');
        out
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A percentile is reported only when at least ten samples lie beyond it.
pub fn supports_percentile(samples: usize, q: f64) -> bool {
    samples as f64 * (1.0 - q) >= 10.0
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a.
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(seed, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
