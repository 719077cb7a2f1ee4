//! E3 — §3 "Performance of MAP Inference": nRockIt vs nPSL on
//! FootballDB (paper: 12,181 ms vs 6,129 ms, average of 10 runs).
//!
//! Absolute times are incomparable across substrates (2017 Java + Gurobi
//! vs this in-house Rust stack); the shapes this bench regenerates:
//!
//! * `default budget` — both backends at their stock configurations;
//!   our MaxWalkSAT's *fixed* flip budget makes the MLN backend fast but
//!   measurably lower-quality at scale (see E4/EXPERIMENTS.md);
//! * `quality-matched` — the MLN backend given enough flips to match
//!   PSL's repair F1; this is the like-for-like comparison and is where
//!   the paper's ordering (PSL ≈2× faster) re-emerges.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use tecore_bench::harness;
use tecore_core::MapSolver;
use tecore_datagen::standard::football_program;
use tecore_mln::{CpiConfig, CpiSolver, WalkSatConfig};

fn quality_matched_mln() -> Arc<dyn MapSolver> {
    Arc::new(CpiSolver::new(CpiConfig {
        walksat: WalkSatConfig {
            max_flips: 1_500_000,
            restarts: 6,
        },
    }))
}

fn bench_map_footballdb(c: &mut Criterion) {
    let program = football_program();
    let mut group = c.benchmark_group("e3_map_footballdb");
    group.sample_size(10);
    for size in [5_000usize, 20_000] {
        let generated = harness::football(size);
        for (label, backend) in [
            ("mln-cpi-default", harness::solver("mln-cpi")),
            ("mln-cpi-quality-matched", quality_matched_mln()),
            ("psl-admm", harness::solver("psl-admm")),
        ] {
            group.bench_with_input(BenchmarkId::new(label, size), &generated, |b, generated| {
                b.iter(|| black_box(harness::resolve(generated, &program, backend.clone())))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_map_footballdb);
criterion_main!(benches);
