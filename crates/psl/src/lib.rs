//! # tecore-psl
//!
//! The PSL backend of TeCoRe — the reproduction of **nPSL**, the
//! numerical extension of Probabilistic Soft Logic the paper implements
//! for scalable temporal reasoning.
//!
//! PSL (Bach et al. 2015) relaxes boolean atoms to *soft truth values*
//! in `[0, 1]`: each ground rule becomes a **hinge-loss potential** via
//! the Łukasiewicz relaxation and MAP inference becomes a *convex*
//! optimisation over a Hinge-Loss Markov Random Field (HL-MRF), solved
//! here — as in the reference implementation — by **consensus ADMM**
//! with closed-form prox steps.
//!
//! This convexity is the whole story of the paper's performance
//! comparison: "PSL scales well since it computes a soft approximation
//! of the discrete MAP state" (§3), trading the MLN backend's
//! expressivity for solve times that the paper reports as ≈2× faster on
//! FootballDB (12,181 ms nRockIt vs 6,129 ms nPSL); the
//! `map_footballdb` bench regenerates that comparison.
//!
//! Pipeline: `tecore-ground` clauses → [`hlmrf::HlMrf`] (soft clauses →
//! hinges, hard clauses → linear constraints) → [`admm::AdmmSolver`] →
//! [`rounding`] back to a discrete conflict-free world.
//!
//! A TeCoRe grounding is separable: facts that share no conflict share
//! no factor, so the HL-MRF falls apart into independent **blocks** —
//! a quarter of a million facts make a couple of hundred thousand of
//! them, most of one to three factors. The MRF reads its blocks off the
//! arena with the grounder's component walk
//! ([`tecore_ground::Partition::of`], the same walk the solve driver
//! partitions with), and both the solver and the rounding repair walk
//! that index: ADMM iterates each block to its own residuals (the
//! stopping rule is per block; [`PslResult::iterations`] is the slowest
//! block's count and [`PslResult::factor_updates`] the work actually
//! done), rounding repairs each block against its own constraints. The
//! backend solves whatever arena it is handed — the whole grounding or
//! one component the driver copied out — with the same code, and a
//! one-block problem is the plain loop.

#![forbid(unsafe_code)]

pub mod admm;
pub mod backend;
pub mod hlmrf;
pub mod rounding;

pub use admm::{AdmmConfig, AdmmSolver, PslResult, MAX_ITERATIONS};
pub use backend::PslAdmm;
pub use hlmrf::{HingePotential, HlMrf, LinearConstraint, PslConfig};
pub use rounding::round_assignment;
