//! Layer probes shared by the incremental workloads' traced runs: the
//! server and the stream session own their engine, so what one publish
//! costs per layer is measured here, by driving the same public calls
//! (`Engine::apply`, `UtkGraph::since`, `Engine::apply_delta`,
//! `Engine::resolve_incremental`, `Snapshot::index`) on an engine the
//! benchmark holds itself.

use std::sync::Arc;
use std::time::Instant;

use tecore_core::translate::translate;
use tecore_core::{EditBatch, Engine, Snapshot};
use tecore_ground::GroundConfig;
use tecore_mln::{MaxWalkSat, SatProblem, WalkSatConfig};
use tecore_server::SnapshotCell;

use crate::run::Outcome;
use crate::stats::median;
use crate::trace::Tracer;

/// Applies each batch to a primed engine the way the server's writer
/// loop and the stream session do — one batch, one incremental resolve
/// — with one span per layer, then reduces the spans to metrics.
pub fn incremental_probe(
    engine: &mut Engine,
    batches: &[EditBatch],
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let mut touched = Vec::new();
    let mut last: Option<Arc<Snapshot>> = engine.latest();
    for batch in batches {
        let Some(epoch) = last.as_ref().map(|s| s.epoch()) else {
            return; // not primed: nothing incremental to measure
        };
        tracer.span("core.apply_batch", || {
            std::hint::black_box(engine.apply(batch));
        });
        let id = tracer.enter("core.resolve_incr");
        let delta = tracer.span("kg.delta_net", || engine.graph().since(epoch));
        if let Some(delta) = &delta {
            if let Some(stats) = tracer.span("ground.delta", || engine.apply_delta(delta)) {
                touched.push((stats.clauses_retracted + stats.clauses_emitted) as f64);
            }
        }
        let rest = tracer.enter("core.resolve_rest");
        let snapshot = engine.resolve_incremental();
        if let Ok(s) = &snapshot {
            tracer.reported("solver.solve", s.stats.solve_time);
        }
        tracer.exit(rest);
        tracer.exit(id);
        let Ok(snapshot) = snapshot else { return };
        tracer.span("kg.expanded_build", || {
            let _ = snapshot.expanded();
        });
        tracer.span("kg.index_build", || {
            let _ = snapshot.index();
        });
        last = Some(snapshot);
    }

    let med = |name: &str| median(&tracer.durations_ms(name));
    out.values
        .set("core.apply_batch_us", med("core.apply_batch") * 1e3);
    out.values.set("kg.delta_net_us", med("kg.delta_net") * 1e3);
    out.values.set("ground.delta_ms", med("ground.delta"));
    out.values
        .set("ground.delta_clauses_touched", median(&touched));
    out.values
        .set("core.resolve_incr_ms", med("core.resolve_incr"));
    out.values.set("mln.walksat_solve_ms", med("solver.solve"));
    out.values
        .set("kg.expanded_build_ms", med("kg.expanded_build"));
    out.values.set("kg.index_build_ms", med("kg.index_build"));
    out.values.set(
        "core.fallback_regrounds",
        engine.fallback_regrounds() as f64,
    );
    if let Some(snapshot) = &last {
        let stats = &snapshot.stats;
        out.values.set("ground.atoms", stats.atoms as f64);
        out.values.set("ground.clauses", stats.clauses as f64);
        out.values.set("ground.components", stats.components as f64);
        if stats.components > 0 {
            out.values.set(
                "ground.components_dirty_share",
                stats.components_solved as f64 / stats.components as f64,
            );
        }
    }
}

/// Cold-grounds the engine's current graph once and times what the
/// incremental path does on top of a grounding on every publish:
/// partitioning into components, and a monolithic MaxWalkSAT solve
/// (whose flip count the engine does not report).
pub fn grounding_probe(engine: &Engine, tracer: &mut Tracer, out: &mut Outcome) {
    let caps = engine.config().backend.caps();
    let Ok(mut grounding) = tracer.span("ground.translate", || {
        translate(
            engine.graph(),
            engine.program(),
            &caps,
            &GroundConfig::default(),
        )
    }) else {
        return;
    };
    let partition = tracer.span("ground.partition", || grounding.partition_components());
    std::hint::black_box(partition.len());
    let solved = tracer.span("mln.walksat_solve", || {
        MaxWalkSat::new(WalkSatConfig::default()).solve(&SatProblem::from_grounding(&grounding))
    });
    out.values.set(
        "ground.partition_ms",
        median(&tracer.durations_ms("ground.partition")),
    );
    out.values
        .set("mln.walksat_flips", solved.stats.steps as f64);
}

/// Microseconds per `SnapshotCell::publish` of an already built
/// snapshot — the hand-off itself, without the resolve that precedes it.
pub fn cell_publish_probe(snapshot: &Arc<Snapshot>, out: &mut Outcome) {
    const PUBLISHES: u32 = 2_000;
    let cell = SnapshotCell::new(Arc::clone(snapshot));
    let t0 = Instant::now();
    for _ in 0..PUBLISHES {
        cell.publish(Arc::clone(snapshot));
    }
    out.values.set(
        "server.cell_publish_us",
        t0.elapsed().as_secs_f64() * 1e6 / f64::from(PUBLISHES),
    );
}
