//! A1 — ablation of cutting-plane inference (DESIGN.md).
//!
//! RockIt's design bet is that a solver which only ever sees the
//! *violated* constraint instances beats one that carries them all.
//! Our grounder is violation-only at grounding time (consequents are
//! decidable on evidence), and both sides read the same arena — there
//! is one constraint join, and it is the grounder's. So the measured
//! difference isolates the re-solve loop (a relaxed solve, then one
//! more per round of activated cuts) against one bigger solve.
//! Expected shape: CPI wins when conflicts are sparse and the gap
//! narrows as conflict density rises.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use tecore_bench::harness;
use tecore_core::pipeline::Backend;
use tecore_datagen::standard::football_program;
use tecore_mln::WalkSatConfig;

fn bench_ablation_cpi(c: &mut Criterion) {
    let program = football_program();
    let mut group = c.benchmark_group("a1_ablation_cpi");
    group.sample_size(10);
    for noise in [0.05f64, 0.5] {
        let generated = harness::football_noisy(8_000, noise);
        for (label, backend) in [
            ("cpi", Backend::default()),
            ("eager", Backend::MlnWalkSat(WalkSatConfig::default())),
        ] {
            let id = format!("{label}@noise{noise}");
            group.bench_with_input(
                BenchmarkId::from_parameter(id),
                &generated,
                |b, generated| {
                    b.iter(|| black_box(harness::resolve(generated, &program, backend.clone())))
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_ablation_cpi);
criterion_main!(benches);
