//! The weighted partial MaxSAT problem and its solutions.
//!
//! A [`SatProblem`] is a *view* over the grounding's flat
//! [`ClauseStore`] arena: built from a [`Grounding`] or any store it
//! borrows the arena zero-copy (no per-clause re-boxing of literals),
//! while tests can hold an owned store through the same type (`Cow`
//! keeps one API for both). Clause weights come back as raw
//! `f64` with `f64::INFINITY` marking hard clauses — the exact encoding
//! the arena stores, so solver hot loops read arrays without
//! conversion.

use std::borrow::Cow;
use std::fmt;
use std::time::Duration;

use tecore_ground::{ClauseRef, ClauseStore, GroundClause, Grounding, Lit};

/// A weighted partial MaxSAT instance: minimise the total weight of
/// violated soft clauses subject to all hard clauses holding.
#[derive(Debug, Clone)]
pub struct SatProblem<'a> {
    /// Number of boolean variables (ground atoms).
    pub n_vars: usize,
    /// The clause arena (borrowed from a grounding, or owned).
    clauses: Cow<'a, ClauseStore>,
}

impl<'a> SatProblem<'a> {
    /// Builds the problem as a zero-copy view over a grounding's clause
    /// arena.
    pub fn from_grounding(grounding: &'a Grounding) -> SatProblem<'a> {
        SatProblem {
            n_vars: grounding.num_atoms(),
            clauses: Cow::Borrowed(&grounding.clauses),
        }
    }

    /// Builds the problem as a view over an arbitrary clause store.
    pub fn from_store(n_vars: usize, store: &'a ClauseStore) -> SatProblem<'a> {
        SatProblem {
            n_vars,
            clauses: Cow::Borrowed(store),
        }
    }

    /// Builds an owned problem from raw ground clauses (tests and small
    /// call sites; the hot paths borrow).
    pub fn from_clauses(n_vars: usize, clauses: &[GroundClause]) -> SatProblem<'static> {
        SatProblem {
            n_vars,
            clauses: Cow::Owned(ClauseStore::from_ground_clauses(clauses)),
        }
    }

    /// Number of **live** clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// Is the instance free of live clauses?
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Number of clause slots (tombstones included) — per-clause solver
    /// state indexed by clause id must be sized by this.
    pub fn num_slots(&self) -> usize {
        self.clauses.num_slots()
    }

    /// Iterates over the live clauses.
    pub fn iter(&self) -> impl Iterator<Item = ClauseRef<'_>> {
        self.clauses.iter()
    }

    /// The literals of clause `ci`.
    #[inline]
    pub fn lits(&self, ci: u32) -> &[Lit] {
        self.clauses.lits(ci)
    }

    /// The raw weight of clause `ci` (`f64::INFINITY` = hard).
    #[inline]
    pub fn weight(&self, ci: u32) -> f64 {
        self.clauses.weight_raw(ci)
    }

    /// Is clause `ci` hard?
    #[inline]
    pub fn is_hard(&self, ci: u32) -> bool {
        self.clauses.is_hard(ci)
    }

    /// Total weight of violated soft clauses, and the number of violated
    /// hard clauses, under `assignment`.
    pub fn evaluate(&self, assignment: &[bool]) -> (f64, usize) {
        let mut cost = 0.0;
        let mut hard_violations = 0;
        for c in self.iter() {
            if !c.satisfied_by(assignment) {
                match c.weight {
                    tecore_ground::ClauseWeight::Hard => hard_violations += 1,
                    tecore_ground::ClauseWeight::Soft(w) => cost += w,
                }
            }
        }
        (cost, hard_violations)
    }

    /// Number of hard clauses.
    pub fn hard_count(&self) -> usize {
        self.iter().filter(|c| c.weight.is_hard()).count()
    }
}

/// Statistics of one MAP solve.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveStats {
    /// Search steps (flips for local search, nodes for B&B).
    pub steps: u64,
    /// Restarts (local search) or CPI rounds.
    pub rounds: u32,
    /// Clauses in the final active set (== problem size unless CPI).
    pub active_clauses: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
}

/// The result of MAP inference.
#[derive(Debug, Clone, PartialEq)]
pub struct MapResult {
    /// Truth value per atom (indexed by `AtomId::index()`).
    pub assignment: Vec<bool>,
    /// Total violated soft weight (lower is better).
    pub cost: f64,
    /// All hard clauses satisfied?
    pub feasible: bool,
    /// Solve statistics.
    pub stats: SolveStats,
}

impl MapResult {
    /// Converts into the backend-agnostic [`MapState`](tecore_ground::MapState) the `MapSolver`
    /// interface returns (MLN solvers produce no soft truth values).
    pub fn into_map_state(self) -> tecore_ground::MapState {
        tecore_ground::MapState {
            assignment: self.assignment,
            cost: self.cost,
            feasible: self.feasible,
            soft_values: None,
        }
    }
}

impl fmt::Display for MapResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MAP: cost {:.4}, {}, {} steps, {:?}",
            self.cost,
            if self.feasible {
                "feasible"
            } else {
                "INFEASIBLE"
            },
            self.stats.steps,
            self.stats.elapsed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tecore_ground::{AtomId, ClauseOrigin, ClauseWeight};

    fn clause(lits: Vec<Lit>, weight: ClauseWeight) -> GroundClause {
        GroundClause::new(lits, weight, ClauseOrigin::Evidence).unwrap()
    }

    #[test]
    fn from_clauses_and_evaluate() {
        let clauses = vec![
            clause(vec![Lit::pos(AtomId(0))], ClauseWeight::Soft(2.0)),
            clause(
                vec![Lit::neg(AtomId(0)), Lit::pos(AtomId(1))],
                ClauseWeight::Hard,
            ),
            clause(vec![Lit::neg(AtomId(1))], ClauseWeight::Soft(0.5)),
        ];
        let p = SatProblem::from_clauses(2, &clauses);
        assert_eq!(p.n_vars, 2);
        assert_eq!(p.hard_count(), 1);

        // x0=true forces x1=true (hard), violating the ¬x1 soft clause.
        let (cost, hard) = p.evaluate(&[true, true]);
        assert!((cost - 0.5).abs() < 1e-12);
        assert_eq!(hard, 0);
        // x0=true, x1=false violates the hard clause.
        let (_, hard) = p.evaluate(&[true, false]);
        assert_eq!(hard, 1);
        // x0=false violates the first soft clause only.
        let (cost, hard) = p.evaluate(&[false, false]);
        assert!((cost - 2.0).abs() < 1e-12);
        assert_eq!(hard, 0);
    }

    #[test]
    fn hard_marker_and_raw_weights() {
        let p = SatProblem::from_clauses(
            1,
            &[
                clause(vec![Lit::pos(AtomId(0))], ClauseWeight::Hard),
                clause(vec![Lit::pos(AtomId(0))], ClauseWeight::Soft(1.0)),
            ],
        );
        assert!(p.is_hard(0));
        assert!(p.weight(0).is_infinite());
        assert!(!p.is_hard(1));
        assert_eq!(p.weight(1), 1.0);
        assert_eq!(p.lits(1), &[Lit::pos(AtomId(0))]);
    }
}
