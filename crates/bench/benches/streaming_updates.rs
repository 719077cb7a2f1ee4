//! Streaming updates — the workload the incremental engine exists for.
//!
//! An interactive (or high-traffic) deployment edits the uTKG one fact
//! at a time and re-resolves after each edit. This bench drives that
//! loop over the Wikidata workload two ways:
//!
//! * `from_scratch/*` — the batch path: every edit rebuilds the whole
//!   pipeline (`Engine::resolve`: translate → ground → cold solve);
//! * `incremental/*` — the delta path: `Engine::insert_fact` /
//!   `remove_fact` feed the change log, `resolve_incremental` applies
//!   just the delta to the cached grounding and warm-starts the solver
//!   from the previous MAP state.
//!
//! One edit cycle is one insert-edit-resolve plus one
//! remove-edit-resolve (the insert is undone, so the graph does not
//! grow across samples and the two variants time identical work). An
//! iteration is one cycle at 2,000 facts and [`GATED_CYCLES`] cycles in
//! the gated groups below.
//! Expected shape: incremental wins by a wide margin — grounding cost
//! drops from O(graph) to O(delta), and warm-started solvers converge
//! in a handful of steps.
//!
//! At 2,000 facts whatever still walks the whole graph per resolve
//! hides in the noise, so the same two variants also run at 50,000
//! facts (`streaming_updates_50k/*`, `mln-walksat` only). Their ratio —
//! incremental over from-scratch, both measured in the same run — is
//! machine-independent and gated in CI (`bench_check --ratio`): one
//! flat copy of the resolved view coming back into the incremental
//! cycle would fail it. The incremental cycle runs once more at 200,000
//! facts (`streaming_updates_200k/incremental/mln-walksat`); its ratio
//! to the 50k one says how far a publish is from flat in graph size,
//! and is gated the same way.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use tecore_bench::harness;
use tecore_core::{Engine, TecoreConfig};
use tecore_datagen::standard::wikidata_program;
use tecore_temporal::Interval;

/// Edit cycles per iteration in the groups CI gates by ratio. CI takes
/// one sample per benchmark, and one incremental cycle is a tenth of a
/// millisecond: sixteen of them make a sample a scheduler hiccup does
/// not double. Every benchmark of those groups runs the same number, so
/// their ratios read per cycle.
const GATED_CYCLES: usize = 16;

/// One "user edit session": insert a clashing spouse fact, resolve,
/// retract it, resolve again.
fn edit_cycle_incremental(engine: &mut Engine, edit: &mut u64) -> usize {
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

/// The same edit session, rebuilding the whole pipeline per resolve.
fn edit_cycle_from_scratch(pipeline: &mut Engine, edit: &mut u64) -> usize {
    let year = 1980 + (*edit % 30) as i64;
    *edit += 1;
    let interval = Interval::new(year, year + 4).unwrap();
    let id = pipeline
        .graph_mut()
        .insert("Q1", "spouse", "QStream", interval, 0.62)
        .expect("insert");
    let after_insert = pipeline.resolve().expect("resolve");
    pipeline.graph_mut().remove(id).expect("remove");
    let after_remove = pipeline.resolve().expect("resolve");
    after_insert.stats.conflicting_facts + after_remove.stats.conflicting_facts
}

fn bench_streaming_updates(c: &mut Criterion) {
    let program = wikidata_program();
    let generated = harness::wikidata(2_000);
    let mut group = c.benchmark_group("streaming_updates");
    group.sample_size(10);
    // Two resolves per iteration.
    group.throughput(Throughput::Elements(2));

    for name in ["mln-cpi", "mln-walksat", "psl-admm"] {
        let backend = harness::solver(name);
        let config = TecoreConfig {
            backend: backend.clone(),
            ..TecoreConfig::default()
        };

        let mut scratch =
            Engine::with_config(generated.graph.clone(), program.clone(), config.clone());
        let mut scratch_edit = 0u64;
        group.bench_function(BenchmarkId::new("from_scratch", name), |b| {
            b.iter(|| black_box(edit_cycle_from_scratch(&mut scratch, &mut scratch_edit)))
        });

        let mut engine =
            Engine::with_config(generated.graph.clone(), program.clone(), config.clone());
        // Prime the materialised grounding outside the measured loop —
        // interactive sessions pay this once.
        engine.resolve_incremental().expect("prime");
        let mut engine_edit = 0u64;
        group.bench_function(BenchmarkId::new("incremental", name), |b| {
            b.iter(|| black_box(edit_cycle_incremental(&mut engine, &mut engine_edit)))
        });
    }
    group.finish();

    let config = TecoreConfig {
        backend: harness::solver("mln-walksat"),
        ..TecoreConfig::default()
    };
    for (group, facts, from_scratch) in [
        ("streaming_updates_50k", 50_000, true),
        ("streaming_updates_200k", 200_000, false),
    ] {
        let generated = harness::wikidata(facts);
        let mut group = c.benchmark_group(group);
        group.sample_size(10);
        group.throughput(Throughput::Elements(2 * GATED_CYCLES as u64));
        if from_scratch {
            let mut scratch =
                Engine::with_config(generated.graph.clone(), program.clone(), config.clone());
            let mut edit = 0u64;
            group.bench_function(BenchmarkId::new("from_scratch", "mln-walksat"), |b| {
                b.iter(|| {
                    for _ in 0..GATED_CYCLES {
                        black_box(edit_cycle_from_scratch(&mut scratch, &mut edit));
                    }
                })
            });
        }
        let mut engine = Engine::with_config(generated.graph, program.clone(), config.clone());
        engine.resolve_incremental().expect("prime");
        // The first resolve after the cold one re-solves every
        // component once, and the first two publishes after it copy the
        // resolved view to have a second buffer (the harness's warm-up
        // iteration); an interactive session pays those once too.
        engine.resolve_incremental().expect("settle");
        let mut edit = 0u64;
        group.bench_function(BenchmarkId::new("incremental", "mln-walksat"), |b| {
            b.iter(|| {
                for _ in 0..GATED_CYCLES {
                    black_box(edit_cycle_incremental(&mut engine, &mut edit));
                }
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_streaming_updates);
criterion_main!(benches);
