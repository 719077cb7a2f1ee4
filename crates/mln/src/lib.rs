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
//!   scale).

#![forbid(unsafe_code)]

pub mod problem;
pub mod solver;

pub use problem::{MapResult, SatProblem, SolveStats};
pub use solver::bnb::BranchAndBound;
pub use solver::cpi::{CpiConfig, CpiSolver};
pub use solver::walksat::{MaxWalkSat, WalkSatConfig};
