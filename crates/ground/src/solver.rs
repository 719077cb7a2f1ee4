//! The **MAP-solver backend interface** — the seam between grounding
//! and inference.
//!
//! TeCoRe's central architectural claim (paper §4–§5) is that temporal
//! conflict resolution is MAP inference over a probabilistic-logic
//! grounding with *interchangeable* substrates: an expressive MLN stack
//! or a scalable PSL relaxation. This module makes that seam a real,
//! object-safe trait with one solve entry: every backend consumes a
//! clause arena ([`ClauseStore`]) over a dense atom id space — the
//! whole [`Grounding`](crate::Grounding)'s arena or one conflict
//! component copied out of it by the solve driver — and returns the
//! same [`MapState`]. A backend solves any arena it is handed; it never
//! learns which of the two it was.
//!
//! The trait lives in this crate — *below* the substrate crates — so
//! that `tecore-mln` and `tecore-psl` implement it in their own trees
//! and `tecore-core` can dispatch through `dyn MapSolver` without a
//! per-backend `match` anywhere in its pipeline. The trait is the whole
//! seam: there is no enum of backends and no wrapper around one. New
//! substrates (e.g. a sharded or approximate solver) plug in by
//! implementing [`MapSolver`] and going into
//! `tecore_core::TecoreConfig::backend` as an `Arc<dyn MapSolver>`; no
//! existing crate needs to change.
//!
//! A solve sees the clauses, the atom count and, on an incremental
//! re-solve, the previous [`MapState`] as a starting point. Everything
//! else a backend needs (seeds, budgets, step sizes) is its own
//! configuration.

use std::fmt;

use tecore_logic::validate::Expressivity;

use crate::clause::ClauseStore;

/// What a backend can do — consulted by the translator and pipeline
/// instead of matching on a backend enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverCaps {
    /// The logic fragment the backend accepts; the translator validates
    /// every formula against this before grounding (paper §2.1: "special
    /// care is taken to verify that the input adheres to the
    /// expressivity of the solver").
    pub expressivity: Expressivity,
    /// `true` if [`MapState::soft_values`] is populated with per-atom
    /// soft truth values (PSL); the pipeline uses them as confidences
    /// for derived facts. A discrete backend's derived facts read their
    /// component's exact marginal ([`Marginals`](crate::Marginals)),
    /// which the solve driver computes whenever the program derives.
    pub soft_values: bool,
    /// `true` if the solver is exact (its cost is the true MAP optimum).
    pub exact: bool,
}

impl SolverCaps {
    /// Caps of a classical eager MLN/MaxSAT solver.
    pub fn mln() -> Self {
        SolverCaps {
            expressivity: Expressivity::Mln,
            soft_values: false,
            exact: false,
        }
    }

    /// Caps of a PSL-style convex solver with soft truth values.
    pub fn psl() -> Self {
        SolverCaps {
            expressivity: Expressivity::Psl,
            soft_values: true,
            exact: false,
        }
    }
}

/// How the solve driver treats conflict components (see
/// `tecore-ground::component`). Interpreted by the solve *driver*
/// (`tecore-core`), never by a backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ComponentMode {
    /// Partition where it pays — on incremental re-solves and for exact
    /// backends — and the problem actually splits; a single-component
    /// problem falls back to one monolithic solve.
    #[default]
    Auto,
    /// Partition always, even when the partition is a single component
    /// (useful for conformance tests and benchmarks that want the
    /// component path exercised unconditionally).
    Components,
    /// Never partition: always one monolithic [`MapSolver::solve`].
    Monolithic,
}

/// The result of MAP inference, backend-agnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct MapState {
    /// Truth value per ground atom, indexed by `AtomId::index()`.
    pub assignment: Vec<bool>,
    /// Total violated soft weight of `assignment` (lower is better).
    pub cost: f64,
    /// All hard clauses satisfied?
    pub feasible: bool,
    /// Per-atom soft truth values in `[0, 1]`, when the backend computes
    /// them (see [`SolverCaps::soft_values`]). For a discrete backend
    /// the solve driver puts exact component marginals here when the
    /// program derives, with `NaN` for the atoms of a component it
    /// could not grade; a backend itself leaves them out.
    pub soft_values: Option<Vec<f64>>,
}

/// A failed MAP solve.
///
/// Infeasibility is *not* an error (it is reported in
/// [`MapState::feasible`]); errors are malformed inputs or solver-side
/// resource failures.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The solver gave up (budget exhausted, numerical failure, ...).
    Backend(String),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Backend(msg) => write!(f, "backend failure: {msg}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// A MAP inference backend over a ground weighted program.
///
/// Object safety is load-bearing: the pipeline holds `dyn MapSolver`
/// and the registry hands out `Arc<dyn MapSolver>`, so a backend added
/// by a downstream crate is indistinguishable from a built-in one.
///
/// Implementations must be deterministic given their configuration (all
/// in-tree backends are seeded) and must uphold the state contract the
/// pipeline enforces: `assignment` (and `soft_values`, when present)
/// have exactly `atoms` entries, and `soft_values` is `Some` iff
/// [`SolverCaps::soft_values`] is declared.
pub trait MapSolver: fmt::Debug + Send + Sync {
    /// Stable identifier used for registry lookup and statistics output
    /// (`"mln-exact"`, `"mln-walksat"`, `"mln-cpi"`, `"psl-admm"`, ...).
    fn name(&self) -> &str;

    /// The backend's capabilities; drives translator validation and
    /// pipeline behaviour.
    fn caps(&self) -> SolverCaps;

    /// Computes the MAP state of the live clauses of `clauses`, whose
    /// literals name atoms `0..atoms`.
    ///
    /// `warm` is a previous MAP state of (an earlier epoch of) the same
    /// problem, offered as a starting point, in the atom id space of
    /// the arena being solved: `warm.assignment[i]` describes atom `i`,
    /// and atoms beyond its length are new. (Atom ids are stable across
    /// deltas; for a component the solve driver projects the global
    /// state into the component's local ids.) A backend may ignore it.
    fn solve(
        &self,
        atoms: usize,
        clauses: &ClauseStore,
        warm: Option<&MapState>,
    ) -> Result<MapState, SolveError>;
}

/// Total violated soft weight and number of violated hard clauses of
/// `world` over the live clauses of `clauses`.
///
/// Shared by backends that need to grade a discrete world against the
/// common clause representation (e.g. PSL scoring its rounding) without
/// depending on another backend's problem types.
pub fn evaluate_world(clauses: &ClauseStore, world: &[bool]) -> (f64, usize) {
    let mut cost = 0.0;
    let mut hard_violations = 0usize;
    for clause in clauses.iter() {
        if !clause.satisfied_by(world) {
            match clause.weight {
                crate::clause::ClauseWeight::Hard => hard_violations += 1,
                crate::clause::ClauseWeight::Soft(w) => cost += w,
            }
        }
    }
    (cost, hard_violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atoms::AtomId;
    use crate::clause::{ClauseOrigin, ClauseWeight, GroundClause, Lit};

    #[test]
    fn caps_presets() {
        assert_eq!(SolverCaps::mln().expressivity, Expressivity::Mln);
        assert!(!SolverCaps::mln().soft_values);
        assert_eq!(SolverCaps::psl().expressivity, Expressivity::Psl);
        assert!(SolverCaps::psl().soft_values);
    }

    #[test]
    fn evaluate_world_costs() {
        let ground_clauses = vec![
            GroundClause::new(
                vec![Lit::pos(AtomId(0))],
                ClauseWeight::Soft(2.0),
                ClauseOrigin::Evidence,
            )
            .unwrap(),
            GroundClause::new(
                vec![Lit::neg(AtomId(0)), Lit::pos(AtomId(1))],
                ClauseWeight::Hard,
                ClauseOrigin::Evidence,
            )
            .unwrap(),
        ];
        let clauses = ClauseStore::from_ground_clauses(&ground_clauses);
        // Satisfy both.
        assert_eq!(evaluate_world(&clauses, &[true, true]), (0.0, 0));
        // Violate the hard implication.
        assert_eq!(evaluate_world(&clauses, &[true, false]), (0.0, 1));
        // Violate the soft unit only.
        assert_eq!(evaluate_world(&clauses, &[false, false]), (2.0, 0));
    }

    #[test]
    fn solve_error_display() {
        let e = SolveError::Backend("budget".into());
        assert!(e.to_string().contains("budget"));
    }
}
