//! Ablations of the design choices DESIGN.md calls out:
//!
//! * **pool size** — §1's "multiple instances of same rule to run in
//!   parallel": worker count 1 vs N;
//! * **duplicate limitation** — Slider's distributor-level dedup vs the
//!   naive baseline's re-derivation, measured on the subsumption chains the
//!   paper designed for exactly this comparison.

use criterion::{criterion_group, BenchmarkId, Criterion};
use slider_bench::report::{BenchReport, Cell};
use slider_bench::{generate_ntriples, run_baseline, run_slider};
use slider_core::SliderConfig;
use slider_rules::Fragment;
use slider_workloads::PaperOntology;

fn pool_size(c: &mut Criterion) {
    let text = generate_ntriples(PaperOntology::Bsbm100k, 0.05);
    let mut group = c.benchmark_group("ablation/pool_size");
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter(|| {
                run_slider(
                    &text,
                    Fragment::Rdfs,
                    SliderConfig::default().with_workers(w),
                )
            })
        });
    }
    group.finish();
}

fn duplicate_limitation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/duplicate_limitation");
    group.sample_size(10);
    for n in [100usize, 200] {
        let ontology = if n == 100 {
            PaperOntology::SubClassOf100
        } else {
            PaperOntology::SubClassOf200
        };
        let text = generate_ntriples(ontology, 1.0);
        group.bench_with_input(BenchmarkId::new("slider_dedup", n), &text, |b, text| {
            b.iter(|| run_slider(text, Fragment::RhoDf, SliderConfig::default()))
        });
        group.bench_with_input(BenchmarkId::new("naive_rederive", n), &text, |b, text| {
            b.iter(|| run_baseline(text, Fragment::RhoDf))
        });
    }
    group.finish();
}

criterion_group!(ablation, pool_size, duplicate_limitation);

/// Custom harness entry: run the criterion groups, then emit the shim's
/// collected summaries as a `slider_bench::report` trajectory via
/// `cargo bench --bench ablation -- --json <path>`.
fn main() {
    ablation();
    let Some(path) = slider_bench::report::json_arg() else {
        return;
    };
    let mut report = BenchReport::new(
        "ablation_criterion",
        "pool size / duplicate limitation ablations",
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
