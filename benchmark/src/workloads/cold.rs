//! The three cold workloads: resolve a whole generated graph from
//! scratch, build the snapshot's index, answer one query.
//!
//! * `cold_cpi_fb243k` — the paper's Fig. 8 run (FootballDB, nRockIt);
//! * `cold_psl_fb243k` — same input, nPSL: the paper's comparison;
//! * `cold_walksat_wd400k` — skewed Wikidata mix, the grounder's run.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use tecore_core::translate::translate;
use tecore_core::{Engine, Snapshot};
use tecore_datagen::standard::{football_program, wikidata_program};
use tecore_datagen::{generate_football, generate_wikidata, FootballConfig, WikidataConfig};
use tecore_ground::{GroundConfig, SolverCaps};
use tecore_kg::parser::parse_graph;
use tecore_kg::writer::write_graph;
use tecore_kg::Dictionary;
use tecore_logic::LogicProgram;
use tecore_mln::{CpiConfig, CpiSolver, MaxWalkSat, SatProblem, WalkSatConfig};
use tecore_psl::{round_assignment, AdmmConfig, AdmmSolver, HlMrf, PslConfig};

use crate::inputs::{hash_lines, Fnv};
use crate::run::{
    engine_config, fill_end_to_end, repair_f1, set_trace_overhead, timed_setups, Ctx, Outcome,
    Phase,
};
use crate::stats::median;
use crate::trace::Tracer;

/// Which cold workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cold {
    /// FootballDB at paper scale, `mln-cpi`.
    CpiFootball,
    /// FootballDB at paper scale, `psl-admm`.
    PslFootball,
    /// Wikidata mix at 400k facts, `mln-walksat`.
    WalksatWikidata,
}

impl Cold {
    fn backend(self) -> &'static str {
        match self {
            Cold::CpiFootball => "mln-cpi",
            Cold::PslFootball => "psl-admm",
            Cold::WalksatWikidata => "mln-walksat",
        }
    }

    fn program(self) -> LogicProgram {
        match self {
            Cold::CpiFootball | Cold::PslFootball => football_program(),
            Cold::WalksatWikidata => wikidata_program(),
        }
    }

    /// `repair_f1` recorded at the default seed; an operation whose
    /// repair scores more than [`F1_TOLERANCE`] away from it fails.
    fn reference_f1(self) -> f64 {
        match self {
            Cold::CpiFootball => 0.835,
            Cold::PslFootball => 0.865,
            Cold::WalksatWikidata => 0.866,
        }
    }
}

/// How far an operation's `repair_f1` may sit from the recorded value.
/// Seeds move it by well under a hundredth at full scale; the small
/// smoke graphs by more.
const F1_TOLERANCE: f64 = 0.02;
const F1_TOLERANCE_SMOKE: f64 = 0.15;

/// Operations discarded before the measured phase: the first resolve
/// in a fresh process costs up to four times a warm one.
const WARMUP_OPS: usize = 2;

/// Repetitions of the solver-detail probes of the traced run.
const PROBE_REPS: usize = 2;

/// What an operation left behind for the checks that run after the
/// measured phase (so the oracle's CPU never lands inside it).
struct OpRecord {
    feasible: bool,
    year: i64,
    count: usize,
    removed: u64,
}

fn removed_fingerprint(snapshot: &Snapshot) -> u64 {
    let mut h = Fnv::default();
    for r in &snapshot.removed {
        h.feed(&r.id.0.to_le_bytes());
    }
    h.finish()
}

/// The year the `op`-th operation's point-in-time query asks about.
fn query_year(op: usize) -> i64 {
    1985 + (op % 25) as i64
}

/// The untraced operation: exactly what a user of the engine calls.
fn plain_op(engine: &mut Engine, year: i64) -> Result<(Arc<Snapshot>, usize), String> {
    let snapshot = engine.resolve().map_err(|e| e.to_string())?;
    let _ = snapshot.index();
    let count = snapshot.at(year).predicate("playsFor").count();
    Ok((snapshot, count))
}

/// The same operation taken apart at the public seams, one span per
/// layer. `Engine::resolve` is `resolve_raw` + `Snapshot::from_resolution`;
/// grounding and solve times are the ones the engine itself measured.
fn traced_op(
    engine: &mut Engine,
    year: i64,
    tracer: &mut Tracer,
) -> Result<(Arc<Snapshot>, usize), String> {
    let id = tracer.enter("core.resolve_raw");
    let resolution = engine.resolve_raw();
    if let Ok(r) = &resolution {
        tracer.reported("ground.cold", r.stats.grounding_time);
        tracer.reported("solver.solve", r.stats.solve_time);
    }
    tracer.exit(id);
    let resolution = resolution.map_err(|e| e.to_string())?;
    let epoch = engine.graph().epoch();
    let snapshot = tracer.span("core.snapshot_build", || {
        Arc::new(Snapshot::from_resolution(resolution, epoch))
    });
    tracer.span("kg.expanded_build", || {
        let _ = snapshot.expanded();
    });
    tracer.span("kg.index_build", || {
        let _ = snapshot.index();
    });
    let count = tracer.span("core.query", || {
        snapshot.at(year).predicate("playsFor").count()
    });
    Ok((snapshot, count))
}

/// Runs one cold workload.
pub fn run(kind: Cold, ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();

    // Inputs: generated, rendered to text, and the generator's graph
    // dropped — the engine under test only ever sees the text.
    let t0 = Instant::now();
    let generated = match kind {
        Cold::CpiFootball | Cold::PslFootball => generate_football(
            &FootballConfig::with_target_facts(ctx.scaled(243_157), 0.0883, ctx.seed),
        ),
        Cold::WalksatWikidata => generate_wikidata(&WikidataConfig {
            total_facts: ctx.scaled(400_000),
            noise_ratio: 0.1,
            seed: ctx.seed,
        }),
    };
    let text = write_graph(&generated.graph);
    out.values
        .set("datagen.generate_ms", t0.elapsed().as_secs_f64() * 1e3);
    let facts = generated.graph.len() as u64;
    out.notes
        .push(("inputs_fnv", format!("{:016x}", hash_lines(&[&text]))));
    if tracer.enabled() {
        let terms: Vec<&str> = generated.graph.dict().iter().map(|(_, t)| t).collect();
        let t0 = Instant::now();
        let mut dict = Dictionary::with_capacity(terms.len());
        for term in &terms {
            std::hint::black_box(dict.intern(term));
        }
        out.values.set(
            "kg.intern_ns_per_term",
            t0.elapsed().as_nanos() as f64 / terms.len().max(1) as f64,
        );
    }
    let labels = generated.labels;
    drop(generated.graph);

    // Set-up: text → parsed graph → program → engine.
    let config = engine_config(kind.backend());
    let (mut engine, setup) = timed_setups(
        tracer,
        |_, tracer| {
            let graph = tracer
                .span("kg.parse_graph", || parse_graph(&text))
                .expect("generated graph text parses");
            let program = tracer.span("logic.parse", || kind.program());
            Engine::with_config(graph, program, config.clone())
        },
        drop,
    );
    drop(text);

    for _ in 0..WARMUP_OPS {
        let _ = plain_op(&mut engine, query_year(0));
    }

    // Measured phase. The traced run alternates plain and traced
    // operations, so the tracing overhead is a paired comparison.
    let mut phase = Phase::begin(ctx.seconds, 0);
    let mut records: Vec<Result<OpRecord, String>> = Vec::new();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut last: Option<Arc<Snapshot>> = None;
    while phase.running() {
        let op = phase.ops();
        let year = query_year(op);
        let traced = tracer.enabled() && op % 2 == 1;
        tracer.set_op(op as u64);
        let t0 = Instant::now();
        let result = if traced {
            let id = tracer.enter("op");
            let r = traced_op(&mut engine, year, tracer);
            tracer.exit(id);
            r
        } else {
            plain_op(&mut engine, year)
        };
        let ms = phase.record(t0, facts);
        if traced {
            &mut traced_ms
        } else {
            &mut plain_ms
        }
        .push(ms);
        records.push(result.map(|(snapshot, count)| {
            let record = OpRecord {
                feasible: snapshot.stats.feasible,
                year,
                count,
                removed: removed_fingerprint(&snapshot),
            };
            last = Some(snapshot);
            record
        }));
    }
    let summary = phase.finish();

    // Checks, against the last snapshot: every operation must have
    // produced the same repair, so its scan speaks for all of them.
    out.attempted = records.len() as u64;
    let tolerance = if ctx.smoke {
        F1_TOLERANCE_SMOKE
    } else {
        F1_TOLERANCE
    };
    let f1 = last.as_deref().map_or(0.0, |s| repair_f1(&labels, s));
    let reference = last.as_deref().map(|s| (removed_fingerprint(s), s));
    let mut scans: BTreeMap<i64, usize> = BTreeMap::new();
    for (op, record) in records.iter().enumerate() {
        let verdict = match (record, reference) {
            (Err(e), _) => Err(format!("resolve failed: {e}")),
            (Ok(_), None) => Err("no snapshot to check against".to_string()),
            (Ok(r), Some((fingerprint, snapshot))) => {
                let scan = *scans.entry(r.year).or_insert_with(|| {
                    let graph = snapshot.expanded();
                    let plays = graph.dict().lookup("playsFor");
                    graph
                        .iter()
                        .filter(|(_, f)| {
                            Some(f.predicate) == plays && f.interval.contains_point(r.year)
                        })
                        .count()
                });
                if !r.feasible {
                    Err("MAP state violates a hard constraint".to_string())
                } else if r.removed != fingerprint {
                    Err("repair differs from the last operation's".to_string())
                } else if r.count != scan {
                    Err(format!(
                        "count at {} is {}, scan says {scan}",
                        r.year, r.count
                    ))
                } else if (f1 - kind.reference_f1()).abs() > tolerance {
                    Err(format!(
                        "repair_f1 {f1:.4} is not within {tolerance} of {}",
                        kind.reference_f1()
                    ))
                } else {
                    Ok(())
                }
            }
        };
        if let Err(why) = verdict {
            out.fail(format!("operation {op}: {why}"));
        }
    }
    fill_end_to_end(&mut out, &setup, &summary, f1);

    if tracer.enabled() {
        layer_metrics(kind, &engine, last.as_deref(), tracer, &mut out);
        set_trace_overhead(&mut out, &plain_ms, &traced_ms);
    }
    out
}

/// Per-layer metrics of the traced run: span medians, the engine's own
/// counts, and direct calls into the solver crates for what the engine
/// does not report (rounds, flips, iterations, rounding).
fn layer_metrics(
    kind: Cold,
    engine: &Engine,
    last: Option<&Snapshot>,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let med = |tracer: &Tracer, name: &str| median(&tracer.durations_ms(name));
    let ground_ms = med(tracer, "ground.cold");
    let solve_ms = med(tracer, "solver.solve");
    out.values
        .set("kg.parse_graph_ms", med(tracer, "kg.parse_graph"));
    out.values
        .set("logic.parse_us", med(tracer, "logic.parse") * 1e3);
    out.values
        .set("kg.index_build_ms", med(tracer, "kg.index_build"));
    out.values
        .set("kg.expanded_build_ms", med(tracer, "kg.expanded_build"));
    out.values.set("ground.cold_ms", ground_ms);
    out.values
        .set("core.resolve_ms", med(tracer, "core.resolve_raw"));
    out.values.set(
        "core.interpret_ms",
        median(&tracer.self_times_ms("core.resolve_raw")),
    );
    out.values
        .set("core.snapshot_build_ms", med(tracer, "core.snapshot_build"));
    out.values
        .set("core.query_scan_ns", med(tracer, "core.query") * 1e6);
    if let Some(snapshot) = last {
        out.values.set("ground.atoms", snapshot.stats.atoms as f64);
        out.values
            .set("ground.clauses", snapshot.stats.clauses as f64);
        if ground_ms > 0.0 {
            out.values.set(
                "ground.clauses_per_ms",
                snapshot.stats.clauses as f64 / ground_ms,
            );
        }
    }

    let caps = engine.config().backend.caps();
    let ground_config = GroundConfig::default();
    let ground = |tracer: &mut Tracer, caps: &SolverCaps| {
        tracer
            .span("ground.translate", || {
                translate(engine.graph(), engine.program(), caps, &ground_config)
            })
            .expect("the engine resolved this program already")
    };
    match kind {
        Cold::CpiFootball => {
            out.values.set("mln.cpi_solve_ms", solve_ms);
            let eager_clauses = ground(tracer, &SolverCaps::mln()).clauses.len();
            let (mut rounds, mut share) = (Vec::new(), Vec::new());
            for _ in 0..PROBE_REPS {
                let grounding = ground(tracer, &caps);
                let result = tracer.span("mln.cpi_solve_lazy", || {
                    CpiSolver::new(CpiConfig::default()).solve_lazy(&grounding)
                });
                rounds.push(f64::from(result.stats.rounds));
                share.push(result.stats.active_clauses as f64 / eager_clauses.max(1) as f64);
            }
            out.values.set("mln.cpi_rounds", median(&rounds));
            out.values
                .set("mln.cpi_active_clause_share", median(&share));
        }
        Cold::WalksatWikidata => {
            out.values.set("mln.walksat_solve_ms", solve_ms);
            let mut flips = Vec::new();
            for _ in 0..PROBE_REPS {
                let grounding = ground(tracer, &caps);
                let result = tracer.span("mln.walksat_solve", || {
                    MaxWalkSat::new(WalkSatConfig::default())
                        .solve(&SatProblem::from_grounding(&grounding))
                });
                flips.push(result.stats.steps as f64);
            }
            out.values.set("mln.walksat_flips", median(&flips));
        }
        Cold::PslFootball => {
            let mut iterations = Vec::new();
            for _ in 0..PROBE_REPS {
                let grounding = ground(tracer, &caps);
                let mrf = tracer.span("psl.hlmrf_build", || {
                    HlMrf::from_grounding(&grounding, &PslConfig::default())
                });
                let result = tracer.span("psl.admm_solve", || {
                    AdmmSolver::new(AdmmConfig::default()).solve_warm(&mrf, None)
                });
                tracer.span("psl.rounding", || {
                    std::hint::black_box(round_assignment(&mrf, &result.values));
                });
                iterations.push(result.iterations as f64);
            }
            out.values
                .set("psl.admm_solve_ms", med(tracer, "psl.admm_solve"));
            out.values.set("psl.admm_iterations", median(&iterations));
            out.values
                .set("psl.rounding_ms", med(tracer, "psl.rounding"));
        }
    }
}
