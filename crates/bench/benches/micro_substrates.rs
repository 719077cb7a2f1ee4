//! A3 — microbenchmarks of the substrates every experiment rests on:
//! Allen relation evaluation, interval coalescing, dictionary
//! interning, uTKG parsing, and grounding throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use tecore_bench::harness;
use tecore_datagen::standard::football_program;
use tecore_ground::{ground, GroundConfig};
use tecore_kg::writer::write_graph;
use tecore_kg::Dictionary;
use tecore_temporal::{AllenRelation, AllenSet, Interval, TemporalElement};

fn bench_allen(c: &mut Criterion) {
    let intervals: Vec<Interval> = (0..512)
        .map(|i| {
            let s = (i * 37) % 1000;
            Interval::new(s, s + 1 + (i % 40)).unwrap()
        })
        .collect();
    let mut group = c.benchmark_group("a3_allen");
    group.throughput(Throughput::Elements(
        (intervals.len() * intervals.len()) as u64,
    ));
    group.bench_function("between_all_pairs", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for &x in &intervals {
                for &y in &intervals {
                    acc += AllenRelation::between(x, y).index();
                }
            }
            black_box(acc)
        })
    });
    group.bench_function("disjoint_holds_all_pairs", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for &x in &intervals {
                for &y in &intervals {
                    acc += usize::from(AllenSet::DISJOINT.holds(x, y));
                }
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_coalesce(c: &mut Criterion) {
    let intervals: Vec<Interval> = (0..2_000)
        .map(|i| {
            let s = (i * 13) % 5_000;
            Interval::new(s, s + (i % 7)).unwrap()
        })
        .collect();
    c.bench_function("a3_coalesce_2000", |b| {
        b.iter(|| black_box(TemporalElement::from_intervals(intervals.iter().copied())))
    });
}

fn bench_dictionary(c: &mut Criterion) {
    let terms: Vec<String> = (0..10_000)
        .map(|i| format!("entity_{}", i % 4_000))
        .collect();
    c.bench_function("a3_dictionary_intern_10k", |b| {
        b.iter(|| {
            let mut d = Dictionary::new();
            for t in &terms {
                black_box(d.intern(t));
            }
            black_box(d.len())
        })
    });
}

fn bench_parse_and_ground(c: &mut Criterion) {
    let generated = harness::football(8_000);
    let text = write_graph(&generated.graph);
    let mut group = c.benchmark_group("a3_kg");
    group.throughput(Throughput::Elements(generated.graph.len() as u64));
    group.bench_function("parse_8k_facts", |b| {
        b.iter(|| black_box(tecore_kg::parser::parse_graph(&text).expect("roundtrip")))
    });
    let program = football_program();
    group.bench_function("ground_8k_facts", |b| {
        b.iter(|| {
            black_box(
                ground(&generated.graph, &program, &GroundConfig::default()).expect("grounds"),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_allen,
    bench_coalesce,
    bench_dictionary,
    bench_parse_and_ground
);
criterion_main!(benches);
