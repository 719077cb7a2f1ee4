//! E5 — §1: "TeCoRe allows to set a threshold value and remove derived
//! facts below that."
//!
//! Two costs are measured: grading the derived facts (Gibbs marginals
//! for the MLN backend — the expensive part) and the threshold filter
//! itself (cheap). The kept-facts-vs-threshold curve is produced by the
//! experiments binary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use tecore_core::threshold;
use tecore_core::{Backend, ConfidenceMode, Engine, TecoreConfig};
use tecore_datagen::standard::{paper_rules, ranieri_utkg};
use tecore_mln::marginal::GibbsConfig;

fn bench_threshold(c: &mut Criterion) {
    // A rule-rich workload: the paper rules over a graph with many
    // playsFor facts so f1 derives plenty of hidden atoms to grade.
    let mut graph = ranieri_utkg();
    for i in 0..200 {
        let start = 1950 + (i % 60);
        graph
            .insert(
                &format!("P{i}"),
                "playsFor",
                &format!("Club{}", i % 23),
                tecore_temporal::Interval::new(start, start + 3).unwrap(),
                0.55 + 0.4 * ((i % 10) as f64 / 10.0),
            )
            .unwrap();
    }
    let program = paper_rules();

    let mut group = c.benchmark_group("e5_threshold");
    group.sample_size(10);
    for (label, confidence) in [
        ("constant-confidence", ConfidenceMode::Constant),
        (
            "gibbs-marginals",
            ConfidenceMode::Gibbs(GibbsConfig {
                burn_in: 20,
                samples: 80,
                seed: 5,
            }),
        ),
    ] {
        group.bench_function(BenchmarkId::new("grade", label), |b| {
            b.iter(|| {
                let config = TecoreConfig {
                    backend: Backend::default().into(),
                    confidence: confidence.clone(),
                    ..TecoreConfig::default()
                };
                black_box(
                    Engine::with_config(graph.clone(), program.clone(), config)
                        .resolve()
                        .expect("resolves"),
                )
            })
        });
    }

    // The filter sweep itself.
    let config = TecoreConfig {
        backend: Backend::default().into(),
        confidence: ConfidenceMode::Gibbs(GibbsConfig {
            burn_in: 20,
            samples: 80,
            seed: 5,
        }),
        ..TecoreConfig::default()
    };
    let resolution = Engine::with_config(graph.clone(), program.clone(), config)
        .resolve()
        .expect("resolves");
    let thresholds: Vec<f64> = (0..10).map(|i| f64::from(i) / 10.0).collect();
    group.bench_function("sweep_filter", |b| {
        b.iter(|| black_box(threshold::sweep(&resolution.inferred, &thresholds)))
    });
    group.finish();
}

criterion_group!(benches, bench_threshold);
criterion_main!(benches);
