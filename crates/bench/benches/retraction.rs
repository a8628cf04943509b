//! Criterion bench: sliding-window maintenance — add a batch, retract the
//! expiring batch(es) — comparing incremental DRed vs recompute, and
//! per-batch eager DRed vs one coalesced run per step.

use criterion::{criterion_group, Criterion};
use slider_baseline::RecomputeOracle;
use slider_bench::report::{BenchReport, Cell};
use slider_core::{Slider, SliderConfig};
use slider_model::vocab::{RDFS_DOMAIN, RDFS_SUB_CLASS_OF, RDF_TYPE};
use slider_model::{Dictionary, NodeId, Triple};
use slider_rules::Ruleset;
use std::hint::black_box;
use std::sync::Arc;

const DEPTH: u64 = 12;
const BATCH: u64 = 60;
/// Shared subjects observed by every batch (the overlapping downward
/// closure the coalesced mode amortises).
const SHARED: u64 = 120;
const WINDOW: usize = 4;
const STEPS: u64 = WINDOW as u64 + 4;
/// Batches expiring per step in the coalesced-vs-eager comparison (a
/// bursty multi-expiry step).
const CHURN: u64 = 2;

fn class(d: u64) -> NodeId {
    NodeId(10_000 + d)
}

fn obs_pred(i: u64) -> NodeId {
    NodeId(20_000 + i)
}

fn taxonomy() -> Vec<Triple> {
    (0..DEPTH - 1)
        .map(|d| Triple::new(class(d), RDFS_SUB_CLASS_OF, class(d + 1)))
        .chain((0..2 * STEPS).map(|i| Triple::new(obs_pred(i), RDFS_DOMAIN, class(0))))
        .collect()
}

fn batch(i: u64) -> Vec<Triple> {
    (0..BATCH)
        .map(|k| Triple::new(NodeId(1_000_000 + i * BATCH + k), RDF_TYPE, class(0)))
        .chain((0..SHARED).map(|s| {
            Triple::new(
                NodeId(2_000_000 + s),
                obs_pred(i),
                NodeId(3_000_000 + i * 10_000 + s),
            )
        }))
        .collect()
}

fn maintained_slider() -> Slider {
    let config = SliderConfig::batch()
        .with_maintenance_batch(usize::MAX)
        .with_maintenance_max_age(None);
    Slider::new(Arc::new(Dictionary::new()), Ruleset::rho_df(), config)
}

fn window_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("retraction/window_step");
    group.sample_size(10);

    group.bench_function("slider_dred", |b| {
        b.iter(|| {
            let slider = maintained_slider();
            slider.materialize(&taxonomy());
            for i in 0..STEPS {
                slider.add_triples(&batch(i));
                if let Some(j) = i.checked_sub(WINDOW as u64) {
                    slider.remove_triples(&batch(j));
                }
                slider.wait_idle();
            }
            black_box(slider.store().len())
        })
    });

    group.bench_function("recompute_baseline", |b| {
        b.iter(|| {
            let mut oracle = RecomputeOracle::new(Ruleset::rho_df());
            oracle.add(&taxonomy());
            let mut size = 0usize;
            for i in 0..STEPS {
                oracle.add(&batch(i));
                if let Some(j) = i.checked_sub(WINDOW as u64) {
                    oracle.remove(&batch(j));
                }
                size = oracle.closure().len();
            }
            black_box(size)
        })
    });

    group.finish();
}

/// A high-churn step expires `CHURN` batches at once: per-batch eager DRed
/// pays the shared downward closure per batch, the coalesced flush once.
fn coalesced_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("retraction/coalesced_step");
    group.sample_size(10);

    group.bench_function("eager_per_batch", |b| {
        b.iter(|| {
            let slider = maintained_slider();
            slider.materialize(&taxonomy());
            for i in 0..STEPS {
                slider.add_triples(&batch(2 * i));
                slider.add_triples(&batch(2 * i + 1));
                if let Some(j) = i.checked_sub(WINDOW as u64) {
                    for k in 0..CHURN {
                        slider.remove_triples(&batch(2 * j + k));
                    }
                }
                slider.wait_idle();
            }
            black_box(slider.store().len())
        })
    });

    group.bench_function("coalesced_flush", |b| {
        b.iter(|| {
            let slider = maintained_slider();
            slider.materialize(&taxonomy());
            for i in 0..STEPS {
                slider.add_triples(&batch(2 * i));
                slider.add_triples(&batch(2 * i + 1));
                if let Some(j) = i.checked_sub(WINDOW as u64) {
                    for k in 0..CHURN {
                        slider.remove_deferred(&batch(2 * j + k));
                    }
                    slider.flush_maintenance();
                }
                slider.wait_idle();
            }
            black_box(slider.store().len())
        })
    });

    group.finish();
}

criterion_group!(retraction, window_step, coalesced_step);

/// Custom harness entry: run the criterion groups, then emit the shim's
/// collected summaries as a `slider_bench::report` trajectory —
/// `cargo bench --bench retraction -- --json BENCH_retraction_criterion.json`
/// joins the criterion groups to the same machine-readable record the
/// bench bins write. Ignores the `--bench` flag cargo appends.
fn main() {
    retraction();
    let Some(path) = slider_bench::report::json_arg() else {
        return;
    };
    let mut report = BenchReport::new(
        "retraction_criterion",
        format!("window {WINDOW} × {STEPS} steps, batch {BATCH} + {SHARED} shared, churn {CHURN}"),
    )
    .best_of(1);
    for s in criterion::take_summaries() {
        report.push(
            Cell::new(&s.label)
                .param("samples", s.samples)
                .metric("min_ms", s.min.as_secs_f64() * 1e3)
                .metric("mean_ms", s.mean.as_secs_f64() * 1e3)
                .metric("max_ms", s.max.as_secs_f64() * 1e3),
        );
    }
    report.write(&path).expect("bench trajectory written");
}
