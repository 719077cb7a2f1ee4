//! Join planning — one program written worst-first and best-first on
//! skewed data, plus query access paths.
//!
//! The skewed scenario (`tecore_datagen::skewed`, Zipf s = 1.2 over 16
//! predicates) is the workload join ordering exists for: the bench
//! program's constraint bodies are written "dominant predicate first",
//! exactly the order the data punishes — `rel0` holds ~40% of all
//! facts while `rel15` holds ~1%, and the marker predicates none. The
//! grounder's rule (`tecore_ground::planner`) reads the atom store's
//! counts and starts each join at the empty or the tail predicate
//! instead. `worst_first` grounds the program as written; `best_first`
//! grounds the same five constraints with each body written in the
//! order the rule picks. A planner that orders them alike reads ≈ 1;
//! one that keeps the written order reads ≈ 4 at 100k facts.
//!
//! Tracked in `BENCH_join_planning.json`: grounding time worst-first
//! and best-first at 10k/100k facts (CI holds their ratio at 100k with
//! a `--ratio` rule), the query paths on the same
//! data against a brute-force full scan, and `ground_scaling`: a cold
//! `ground()` of the Wikidata mix under its shipped constraints at 25k
//! and 400k facts — 64 times and 4 times per iteration, so that both
//! samples ground 1.6M facts and a CI smoke sample is a second, not
//! milliseconds. Per fact the two would cost the same if memory were
//! flat; what the 400000 / 25000 ratio reads beyond 1 is what leaving
//! the cache (and taking fresh pages from the system) costs. CI holds
//! it with a `--ratio` rule (see `.github/workflows/ci.yml`).
//!
//! `cold_view`, on the same 400k graph: what a cold resolve does around
//! the solver, piece by piece and four calls per iteration — `ground`
//! (a cold `ground()`), `explain` (`explain_conflicts` over that
//! grounding: ≈ 39k conflicts kept as terms, not rendered), `filtered`
//! (`UtkGraph::filtered` keeping every fact: the bulk copy that is the
//! consistent graph), `clone` (`UtkGraph::clone`: the same graph's
//! arena, flags and dictionary copied whole) and `index`
//! (`GraphTemporalIndex::build`: the two run families a cold view's
//! first reader builds). CI holds `explain / ground`, `filtered / index`
//! and `index / clone` with `--ratio` rules. `filtered` is held against
//! the index build, not against `clone`: the graph keeps no table per
//! key, so the two copy the same arrays, and a table per key coming
//! back into the graph slows both; the index build reads none of it.

use criterion::{criterion_group, criterion_main, Bencher, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use tecore_core::explain::explain_conflicts;
use tecore_core::resolution::Resolution;
use tecore_core::{DebugStats, Snapshot};
use tecore_datagen::config::SkewedConfig;
use tecore_datagen::skewed::{generate_skewed, PLANNING_PROGRAM};
use tecore_datagen::standard::wikidata_program;
use tecore_datagen::{generate_wikidata, WikidataConfig};
use tecore_ground::{ground, intern_constants};
use tecore_kg::GraphTemporalIndex;
use tecore_logic::LogicProgram;
use tecore_temporal::Interval;

/// [`PLANNING_PROGRAM`] with each body written in the order the
/// grounder's rule joins it.
const BEST_FIRST_PROGRAM: &str = "\
    c1: quad(q, flagged, u, t5) ^ quad(v, rel0, q, t4) ^ quad(z, rel0, v, t3) ^ quad(y, rel0, z, t2) ^ quad(x, rel0, y, t) -> false w = inf\n\
    c2: quad(v, suspect, u, t4) ^ quad(z, rel0, v, t3) ^ quad(y, rel0, z, t2) ^ quad(x, rel0, y, t) -> false w = inf\n\
    c3: quad(v, retracted, u, t4) ^ quad(z, rel0, v, t3) ^ quad(y, rel1, z, t2) ^ quad(x, rel0, y, t) -> false w = inf\n\
    c4: quad(z, rel15, u, t3) ^ quad(y, rel0, z, t2) ^ quad(x, rel0, y, t) -> false w = inf\n\
    c5: quad(x, rel14, z, t2) ^ quad(x, rel0, y, t) -> false w = inf\n";

fn skewed(total_facts: usize) -> tecore_kg::UtkGraph {
    generate_skewed(&SkewedConfig {
        total_facts,
        seed: 0x10_AD,
        ..SkewedConfig::default()
    })
}

fn bench_grounding(c: &mut Criterion) {
    let mut group = c.benchmark_group("join_planning");
    group.sample_size(10);
    for size in [10_000usize, 100_000] {
        let mut graph = skewed(size);
        group.throughput(Throughput::Elements(size as u64));
        for (label, src) in [
            ("worst_first", PLANNING_PROGRAM),
            ("best_first", BEST_FIRST_PROGRAM),
        ] {
            let program = LogicProgram::parse(src).expect("valid program");
            // The marker predicates have no facts.
            intern_constants(&program, graph.dict_mut());
            group.bench_with_input(BenchmarkId::new(label, size), &graph, |b, g| {
                b.iter(|| black_box(ground(g, &program).expect("grounds")))
            });
        }
    }
    group.finish();
}

/// Facts one `ground_scaling` iteration grounds, at either size.
const SCALING_FACTS: usize = 1_600_000;

/// Calls one `cold_view` iteration makes of its stage (each followed by
/// the drop of its result), so that CI's single sample averages over a
/// stall of the host instead of landing in one.
const COLD_VIEW_CALLS: usize = 4;

fn bench_ground_scaling(c: &mut Criterion) {
    let program = wikidata_program();
    let graphs = [25_000usize, 400_000].map(|size| {
        let generated = generate_wikidata(&WikidataConfig {
            total_facts: size,
            noise_ratio: 0.1,
            seed: 1,
        });
        let mut graph = generated.graph;
        intern_constants(&program, graph.dict_mut());
        (size, graph)
    });
    let mut group = c.benchmark_group("ground_scaling");
    group.sample_size(10);
    for (size, graph) in &graphs {
        group.throughput(Throughput::Elements(SCALING_FACTS as u64));
        group.bench_with_input(BenchmarkId::new("wikidata", size), graph, |b, g| {
            b.iter(|| {
                for _ in 0..SCALING_FACTS / size {
                    black_box(ground(g, &program).expect("grounds"));
                }
            })
        });
    }
    group.finish();

    // The stages of a cold view, on the larger of the two graphs.
    let (size, graph) = &graphs[1];
    let grounding = ground(graph, &program).expect("grounds");
    // glibc serves an allocation above its mmap threshold with fresh
    // pages, and raises the threshold (up to 32 MB, the trim threshold
    // to twice it) whenever such a chunk is freed — so whether a stage's
    // arrays land on pages the heap already holds depended on which
    // stages ran before it: `clone` faulted in ≈ 9 600 pages (37 MB) a
    // call when run on its own (`-- clone`) and none after `ground`,
    // 1.6x apart. Freeing one chunk just under the ceiling pins both
    // thresholds there for the rest of the process, so every stage but
    // `ground` (whose arenas exceed the ceiling) runs on recycled pages
    // whatever ran first. Other allocators are unaffected.
    drop(black_box(vec![0u8; (32 << 20) - (16 << 10)]));
    let mut group = c.benchmark_group("cold_view");
    group.sample_size(10);
    let id = |stage| BenchmarkId::new(format!("wikidata/{size}"), stage);
    group.bench_function(id("ground"), |b| {
        calls(b, || ground(graph, &program).expect("grounds"))
    });
    group.bench_function(id("explain"), |b| {
        calls(b, || explain_conflicts(&grounding, graph.dict()))
    });
    group.bench_function(id("filtered"), |b| calls(b, || graph.filtered(|_, _| true)));
    group.bench_function(id("clone"), |b| calls(b, || graph.clone()));
    group.bench_function(id("index"), |b| {
        calls(b, || GraphTemporalIndex::build(graph))
    });
    group.finish();
}

/// One `cold_view` iteration: the stage, [`COLD_VIEW_CALLS`] times.
fn calls<T>(b: &mut Bencher, mut stage: impl FnMut() -> T) {
    b.iter(|| {
        for _ in 0..COLD_VIEW_CALLS {
            black_box(stage());
        }
    })
}

fn bench_query_paths(c: &mut Criterion) {
    // A snapshot straight from a resolution: query planning is a read
    // concern, no solve needed.
    let size = 20_000usize;
    let snapshot = Snapshot::from_resolution(
        Resolution {
            consistent: skewed(size).into(),
            removed: Vec::new(),
            inferred: Vec::new(),
            conflicts: Vec::new(),
            stats: DebugStats::default(),
        },
        1,
    );
    let _ = snapshot.index();
    let window = Interval::new(1980, 1985).expect("valid window");

    let mut group = c.benchmark_group("join_planning_query");
    group.sample_size(30);
    group.throughput(Throughput::Elements(size as u64));
    // Tail predicate + window: the predicate's short run, narrowed by
    // the window.
    group.bench_with_input(BenchmarkId::new("tail_window", size), &snapshot, |b, s| {
        b.iter(|| {
            black_box(
                s.query()
                    .predicate("rel15")
                    .overlapping(black_box(window))
                    .count(),
            )
        })
    });
    // Dominant predicate + window: the window narrows the 8k-entry run
    // to about half of it.
    group.bench_with_input(BenchmarkId::new("head_window", size), &snapshot, |b, s| {
        b.iter(|| {
            black_box(
                s.query()
                    .predicate("rel0")
                    .overlapping(black_box(window))
                    .count(),
            )
        })
    });
    // Needle: subject + window through the per-subject sub-index.
    group.bench_with_input(
        BenchmarkId::new("subject_window", size),
        &snapshot,
        |b, s| {
            b.iter(|| {
                black_box(
                    s.query()
                        .subject("E42")
                        .overlapping(black_box(window))
                        .count(),
                )
            })
        },
    );
    // The unplanned reference: identical semantics, full arena walk.
    group.bench_with_input(BenchmarkId::new("brute_window", size), &snapshot, |b, s| {
        let graph = s.expanded();
        let head = graph.dict().lookup("rel0").expect("predicate exists");
        b.iter(|| {
            black_box(
                graph
                    .iter()
                    .filter(|(_, f)| f.predicate == head && f.interval.intersects(window))
                    .count(),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_grounding,
    bench_ground_scaling,
    bench_query_paths
);
criterion_main!(benches);
