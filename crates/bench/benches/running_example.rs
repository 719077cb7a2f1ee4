//! E1 — the paper's running example (Figures 1, 4, 6 → Figure 7).
//!
//! Benchmarks the full pipeline (translate → ground → MAP → interpret)
//! on the 5-fact Claudio Ranieri uTKG for every **registered** backend
//! (resolved by name through the solver registry, so a newly registered
//! substrate is benched without touching this file), and asserts the
//! paper's expected outcome (fact (5) removed) on each measured run.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use tecore_core::registry::SolverRegistry;
use tecore_core::{Engine, TecoreConfig};
use tecore_datagen::standard::{paper_program, ranieri_utkg};

fn bench_running_example(c: &mut Criterion) {
    let graph = ranieri_utkg();
    let program = paper_program();
    let registry = SolverRegistry::with_default_backends();
    let mut group = c.benchmark_group("e1_running_example");
    let names: Vec<String> = registry.names().map(str::to_string).collect();
    for name in names {
        let backend = registry.resolve(&name).expect("registered backend");
        group.bench_function(&name, |b| {
            b.iter(|| {
                let config = TecoreConfig {
                    backend: backend.clone(),
                    ..TecoreConfig::default()
                };
                let r = Engine::with_config(
                    black_box(graph.clone()),
                    black_box(program.clone()),
                    config,
                )
                .resolve()
                .expect("resolves");
                assert_eq!(r.stats.conflicting_facts, 1, "Figure 7: Napoli removed");
                black_box(r)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_running_example);
criterion_main!(benches);
