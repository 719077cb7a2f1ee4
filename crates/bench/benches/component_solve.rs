//! Component-wise MAP solving vs the monolithic path.
//!
//! Two views of the same question — what does partitioning the ground
//! problem into independent conflict components buy?
//!
//! * `component_solve/cold/*` — full cold resolves (translate → ground
//!   → solve) on the Wikidata workload at three scales, each backend
//!   once with `ComponentMode::Components` and once with
//!   `ComponentMode::Monolithic`. Components shrink every solver's
//!   instance to conflict-neighbourhood size; the exact backend
//!   benefits super-linearly (its worst case is exponential *per
//!   component*), which is why it appears here at the smallest scale
//!   only, like in `solver_hotpath`.
//! * `component_streaming/*` — the PR2 `streaming_updates` edit cycle
//!   (insert a clashing fact, resolve, retract it, resolve) on
//!   wikidata-2k through the *incremental* engine, monolithic
//!   warm-start vs component-wise dirty-only re-solve. This is the
//!   headline number: a delta dirties a handful of components, so the
//!   component path re-solves tens of clauses instead of warm-walking
//!   the whole problem.
//!
//! `mln-cpi` takes the component path like the others: a component is
//! a sub-store the cutting-plane loop runs over, exact below its
//! `exact_below` atoms.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use tecore_bench::harness;
use tecore_core::{Engine, TecoreConfig};
use tecore_datagen::standard::wikidata_program;
use tecore_ground::ComponentMode;
use tecore_temporal::Interval;

fn config(name: &str, mode: ComponentMode) -> TecoreConfig {
    TecoreConfig {
        backend: harness::solver(name),
        component_mode: mode,
        ..TecoreConfig::default()
    }
}

const MODES: [(&str, ComponentMode); 2] = [
    ("components", ComponentMode::Components),
    ("monolithic", ComponentMode::Monolithic),
];

fn bench_cold(c: &mut Criterion) {
    let program = wikidata_program();
    let mut group = c.benchmark_group("component_solve");
    group.sample_size(10);
    for size in [500usize, 2_000, 8_000] {
        let generated = harness::wikidata(size);
        group.throughput(Throughput::Elements(generated.graph.len() as u64));
        for name in ["mln-exact", "mln-walksat", "mln-cpi", "psl-admm"] {
            if name == "mln-exact" && size > 500 {
                continue; // exponential beyond the smallest scale
            }
            for (label, mode) in MODES {
                group.bench_with_input(
                    BenchmarkId::new(format!("cold/{name}/{label}"), size),
                    &generated,
                    |b, generated| {
                        b.iter(|| {
                            let mut engine = Engine::with_config(
                                generated.graph.clone(),
                                program.clone(),
                                config(name, mode),
                            );
                            black_box(engine.resolve().expect("benchmark workload resolves"))
                        })
                    },
                );
            }
        }
    }
    group.finish();
}

/// One "user edit session": insert a clashing spouse fact, resolve,
/// retract it, resolve again — identical to `streaming_updates`, so
/// the numbers compare directly against the PR2 baseline.
fn edit_cycle(engine: &mut Engine, edit: &mut u64) -> usize {
    let year = 1980 + (*edit % 30) as i64;
    *edit += 1;
    let interval = Interval::new(year, year + 4).unwrap();
    let id = engine
        .insert_fact("Q1", "spouse", "QStream", interval, 0.62)
        .expect("insert");
    let after_insert = engine.resolve_incremental().expect("resolve");
    engine.remove_fact(id).expect("remove");
    let after_remove = engine.resolve_incremental().expect("resolve");
    after_insert.stats.conflicting_facts + after_remove.stats.conflicting_facts
}

fn bench_streaming(c: &mut Criterion) {
    let program = wikidata_program();
    let generated = harness::wikidata(2_000);
    let mut group = c.benchmark_group("component_streaming");
    group.sample_size(10);
    // Two resolves per iteration.
    group.throughput(Throughput::Elements(2));
    for name in ["mln-walksat", "mln-cpi", "psl-admm"] {
        for (label, mode) in MODES {
            let mut engine =
                Engine::with_config(generated.graph.clone(), program.clone(), config(name, mode));
            // Prime the materialised grounding (and, for components,
            // the partition + per-component state) outside the loop —
            // interactive sessions pay this once.
            engine.resolve_incremental().expect("prime");
            let mut edit = 0u64;
            group.bench_function(BenchmarkId::new(name, label), |b| {
                b.iter(|| black_box(edit_cycle(&mut engine, &mut edit)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_cold, bench_streaming);
criterion_main!(benches);
