//! Pipeline configuration and MAP-state interpretation.
//!
//! The compute pipeline is **backend-agnostic**: the
//! [`Engine`](crate::engine::Engine) translates, asks its configured
//! [`MapSolver`] for a [`MapState`], and the interpretation step turns
//! that state into a repaired knowledge graph. There is deliberately
//! no per-backend dispatch anywhere in this module — what a solver can do
//! is read off its [`SolverCaps`](tecore_ground::SolverCaps), so a
//! plugin solver set as [`TecoreConfig::backend`] behaves exactly like
//! the four in [`crate::registry::SolverRegistry`].

use std::sync::Arc;

use tecore_ground::{AtomId, AtomKind, ComponentMode, GroundAtom, Grounding, MapSolver, MapState};
use tecore_kg::{Dictionary, FactId, FactMap, FxHashSet, UtkGraph};
use tecore_mln::CpiSolver;

use crate::carry::{Inferred, ViewMaps};
use crate::error::TecoreError;
use crate::explain::Conflicts;
use crate::resolution::{InferredFact, RemovedFact, Resolution};
use crate::stats::DebugStats;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct TecoreConfig {
    /// The reasoner: any [`MapSolver`] — `Arc::new(MaxWalkSat::new(..))`,
    /// a [`SolverRegistry`](crate::registry::SolverRegistry) entry, or
    /// a plugin. Defaults to cutting-plane inference (`mln-cpi`), the
    /// scalable configuration of the paper's MLN reasoner.
    pub backend: Arc<dyn MapSolver>,
    /// Confidence threshold for derived facts ("remove derived facts
    /// below that" — paper §1), on every backend: a derived fact's
    /// confidence is its PSL soft truth value or, on a discrete
    /// backend, its exact marginal ([`InferredFact::confidence`]).
    /// `0.0` keeps everything.
    pub threshold: f64,
    /// Conflict-component treatment for the solve step: partition the
    /// ground problem into independent components and solve them
    /// separately (default [`ComponentMode::Auto`]), or force one
    /// monolithic solve. Read by the engine's solve driver only; the
    /// grounding does not depend on it.
    pub component_mode: ComponentMode,
}

impl Default for TecoreConfig {
    fn default() -> Self {
        TecoreConfig {
            backend: Arc::new(CpiSolver::default()),
            threshold: 0.0,
            component_mode: ComponentMode::default(),
        }
    }
}

/// Enforces the MapSolver contract on plugin backends — for a solve of
/// the whole grounding and for one of a component in its local id
/// space alike, `expected` being the number of atoms solved over: wrong
/// vector lengths or a caps/state mismatch must surface as the
/// documented error, not as an index panic (or silently fabricated 0/1
/// confidences) further down.
pub(crate) fn check_solver_contract(
    solver: &dyn MapSolver,
    state: &MapState,
    expected: usize,
) -> Result<(), TecoreError> {
    let soft = state.soft_values.as_ref();
    let violation = if state.assignment.len() != expected {
        format!(
            "returned {} assignments for {expected} atoms",
            state.assignment.len()
        )
    } else if let Some(values) = soft.filter(|v| v.len() != expected) {
        format!("returned {} soft values for {expected} atoms", values.len())
    } else if solver.caps().soft_values != soft.is_some() {
        format!(
            "caps declare soft_values = {} but the solve {} them",
            solver.caps().soft_values,
            if soft.is_some() {
                "returned"
            } else {
                "omitted"
            }
        )
    } else {
        return Ok(());
    };
    Err(TecoreError::Solve(tecore_ground::SolveError::Backend(
        format!("solver `{}` {violation}", solver.name()),
    )))
}

/// Interprets a MAP state as a repaired knowledge graph, reading the
/// whole graph and grounding — the batch path, and what the
/// incremental path falls back to when it cannot (or should not) carry
/// its previous result forward (see [`crate::carry`]). Besides the
/// resolution it returns the id maps that carrying forward starts from.
pub(crate) fn interpret(
    graph: &UtkGraph,
    grounding: &Grounding,
    state: &MapState,
    config: &TecoreConfig,
) -> (Resolution, ViewMaps) {
    // Detected conflicts: constraint groundings violated by the
    // "keep everything" world, with full provenance.
    let conflicts = Conflicts::of(grounding, graph.dict());

    // Partition evidence by the MAP world. Kept facts are numbered in
    // the order `filtered` inserts them.
    let mut removed = Vec::new();
    let mut kept = FactMap::spanning(graph);
    let mut kept_count = 0u32;
    let consistent = graph.filtered(|id, fact| {
        let atom = grounding
            .fact_atoms
            .get(id)
            .expect("a live fact has its atom");
        let keep = state.assignment[atom.index()];
        if keep {
            kept.set(id, FactId(kept_count));
            kept_count += 1;
        } else {
            removed.push(RemovedFact { id, fact: *fact });
        }
        keep
    });

    let mut inferred: Vec<Inferred> = Vec::new();
    let (mut thresholded, mut ungraded) = (FxHashSet::default(), FxHashSet::default());
    // Dead atoms (retracted by deltas) keep their assignment slot but
    // are not part of the result.
    for (id, atom) in grounding.store.iter_alive() {
        if matches!(atom.kind, AtomKind::Hidden) && state.assignment[id.index()] {
            let confidence = confidence(state, id).unwrap_or_else(|| {
                ungraded.insert(id);
                1.0
            });
            if passes(confidence, config.threshold) {
                inferred.push(Inferred {
                    atom: id,
                    // The expanded graph appends the inferred facts, in
                    // this order, behind the kept ones.
                    id: FactId(kept_count + inferred.len() as u32),
                    fact: Arc::new(inferred_fact(graph.dict(), atom, confidence)),
                });
            } else {
                thresholded.insert(id);
            }
        }
    }

    let mut stats = DebugStats {
        total_facts: graph.len(),
        conflicting_facts: removed.len(),
        inferred_facts: inferred.len(),
        thresholded_facts: thresholded.len(),
        ungraded_facts: ungraded.len(),
        per_constraint: conflicts.per_constraint(),
        view_facts_copied: consistent.len(),
        ..DebugStats::default()
    };
    solve_stats(&mut stats, grounding, state, config);
    let maps = ViewMaps {
        kept,
        kept_expanded: FactMap::default(),
        inferred,
        thresholded,
        ungraded,
        conflicts,
        threshold: config.threshold,
    };
    let resolution = Resolution {
        consistent: Arc::new(consistent),
        removed,
        inferred: maps.inferred_facts(),
        conflicts: maps.conflicts.list(),
        stats,
    };
    (resolution, maps)
}

/// Does a derived fact of this confidence pass the threshold? A
/// threshold of `0.0` (or below) keeps everything. "TeCoRe allows to
/// set a threshold value and remove derived facts below that" (paper
/// §1); evidence facts are governed by MAP inference itself.
pub(crate) fn passes(confidence: f64, threshold: f64) -> bool {
    threshold <= 0.0 || confidence >= threshold
}

/// The confidence of an accepted derived atom: the solver's soft value,
/// or the exact marginal the solve driver put in its place for a
/// discrete backend, or `1.0` when there is neither.
/// `None` when the atom's component was not graded ([`f64::NAN`] in
/// the state); the caller takes the MAP value, `1.0`, and counts it.
pub(crate) fn confidence(state: &MapState, atom: AtomId) -> Option<f64> {
    match state.soft_values.as_ref().map(|m| m[atom.index()]) {
        Some(p) if p.is_nan() => None,
        Some(p) => Some(p.clamp(0.0, 1.0)),
        None => Some(1.0),
    }
}

/// A hidden atom accepted by MAP, as the derived fact it stands for,
/// its terms read in `dict`, the grounded graph's.
pub(crate) fn inferred_fact(dict: &Dictionary, atom: &GroundAtom, confidence: f64) -> InferredFact {
    InferredFact {
        subject: dict.resolve(atom.subject).to_string(),
        predicate: dict.resolve(atom.predicate).to_string(),
        object: dict.resolve(atom.object).to_string(),
        interval: atom.interval,
        confidence,
    }
}

/// Fills in the statistics that are read straight off the grounding and
/// the MAP state, the same way on every interpretation path. The
/// timings, the component accounting and the fallback-reground counter
/// are the engine's to add afterwards (it holds the clocks and the
/// counter; the solve driver owns the component accounting).
pub(crate) fn solve_stats(
    stats: &mut DebugStats,
    grounding: &Grounding,
    state: &MapState,
    config: &TecoreConfig,
) {
    stats.atoms = grounding.num_atoms() - grounding.store.dead_count();
    stats.clauses = grounding.clauses.len();
    stats.backend = config.backend.name().to_string();
    stats.feasible = state.feasible;
    stats.cost = state.cost;
    stats.plans = grounding.plans.clone();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_threshold_keeps_all() {
        assert!(passes(0.1, 0.0));
        assert!(passes(0.0, 0.0));
    }

    #[test]
    fn filters_below() {
        assert!(!passes(0.1, 0.5));
        assert!(passes(0.5, 0.5)); // inclusive
        assert!(passes(0.9, 0.5));
    }
}
