//! # tecore-mln
//!
//! The MLN backend of TeCoRe — the reproduction of **nRockIt** (Markov
//! Logic Networks with numerical constraints, Chekol et al. ECAI 2016).
//!
//! A ground MLN defines the log-linear distribution
//! `P(X = x) = Z⁻¹ exp(Σᵢ wᵢ nᵢ(x))` (paper §2). Its **MAP problem** —
//! find the most probable world — is exactly **weighted partial MaxSAT**
//! over the ground clauses produced by `tecore-ground`: hard formulas
//! are hard clauses, soft formulas contribute their weight when
//! satisfied, so minimising the total weight of *violated* soft clauses
//! maximises the log-probability.
//!
//! The original system solves this with RockIt's ILP encoding on Gurobi;
//! this crate substitutes an in-house solver suite with the same
//! semantics (see `DESIGN.md` §1 for the substitution argument):
//!
//! * [`solver::bnb`] — exact branch & bound with unit propagation on
//!   hard clauses (small/medium instances, and the test oracle);
//! * [`solver::walksat`] — MaxWalkSAT stochastic local search (large
//!   instances);
//! * [`solver::cpi`] — **cutting-plane inference**: RockIt's loop of
//!   solving a relaxed problem and activating only the constraint
//!   groundings the incumbent violates, picked from the grounded arena
//!   (this is what makes MLN-based debugging feasible at FootballDB
//!   scale);
//! * [`marginal`] — a Gibbs sampler for per-atom marginals, backing the
//!   demo's "remove derived facts below a threshold" feature.

#![forbid(unsafe_code)]

pub mod marginal;
pub mod problem;
pub mod solver;

pub use problem::{MapResult, SatProblem, SolveStats};
pub use solver::bnb::BranchAndBound;
pub use solver::cpi::{CpiConfig, CpiSolver};
pub use solver::walksat::{MaxWalkSat, WalkSatConfig};

use tecore_ground::Grounding;

/// Solver selection for MAP inference over a ground MLN.
#[derive(Debug, Clone)]
pub enum MlnSolver {
    /// Exact branch & bound (exponential worst case; use below ~10k
    /// vars only when clause structure is benign, or for tests).
    Exact,
    /// MaxWalkSAT local search.
    WalkSat(WalkSatConfig),
    /// Cutting-plane inference wrapping MaxWalkSAT.
    CuttingPlane(CpiConfig),
}

impl MlnSolver {
    /// Sensible default for a problem of `n_atoms` variables: exact for
    /// tiny instances, CPI + MaxWalkSAT beyond.
    pub fn auto(n_atoms: usize) -> MlnSolver {
        if n_atoms <= 24 {
            MlnSolver::Exact
        } else {
            MlnSolver::CuttingPlane(CpiConfig::default())
        }
    }

    /// Runs MAP inference on a grounding.
    pub fn solve(&self, grounding: &Grounding) -> MapResult {
        let problem = SatProblem::from_grounding(grounding);
        match self {
            MlnSolver::Exact => BranchAndBound::new().solve(&problem),
            MlnSolver::WalkSat(cfg) => MaxWalkSat::new(cfg.clone()).solve(&problem),
            MlnSolver::CuttingPlane(cfg) => CpiSolver::new(cfg.clone()).solve_lazy(grounding),
        }
    }
}
