//! # tecore-ground
//!
//! The grounding engine of TeCoRe: turns a uTKG plus a logic program
//! into a **ground weighted program** — the common input of both the MLN
//! backend (`tecore-mln`) and the PSL backend (`tecore-psl`).
//!
//! In the paper's terms this implements the translation
//! `map(θ(G), F ∪ C)` up to the point where a solver takes over: every
//! temporal fact becomes a ground **quad atom** (§2, "Temporal
//! Inference"), inference rules and constraints are grounded against the
//! evidence (and against derived atoms, to fixpoint), and every grounding
//! becomes a weighted **ground clause**:
//!
//! * rule `b₁ ∧ … ∧ bₙ ∧ cond → h, w` with satisfied condition becomes
//!   the clause `¬b₁ ∨ … ∨ ¬bₙ ∨ h` with weight `w`;
//! * a *violated* constraint grounding becomes `¬b₁ ∨ … ∨ ¬bₙ`
//!   (hard or soft) — "you cannot keep all of these facts";
//! * evidence atom `a` with confidence `p` becomes a soft unit clause
//!   `(a)` with weight `ln(p/(1−p))`;
//! * every derived (hidden) atom gets a small closed-world prior `(¬a)`.
//!
//! Grounding is **semi-naive**, with one round loop: a cold ground's
//! round one matches every formula by its cold join, and every later
//! round — and every round of a delta — binds an atom the previous
//! round (or the delta) brought to life at some body position first.
//! Rule chains (`playsFor → worksFor → livesIn`) terminate in as many
//! rounds as the dependency depth, and each round's work follows the
//! new atoms, not the predicate extensions.
//!
//! This crate is the only code that grounds a constraint. The grounder
//! is violation-only — a constraint grounding is emitted only when its
//! consequent fails on the matched atoms — so the arena holds exactly
//! the groundings cutting-plane inference (RockIt's key trick) could
//! ever activate, and `tecore-mln`'s CPI picks its cuts from it.

#![forbid(unsafe_code)]

// The planner's conformance suite includes `tecore-testkit`'s
// grounding module by path, which names this crate by its package name.
#[cfg(test)]
extern crate self as tecore_ground;

pub mod atoms;
pub mod bindings;
pub mod clause;
pub mod compile;
pub mod component;
pub mod grounder;
pub mod incremental;
pub mod planner;
pub mod solver;

pub use atoms::{AtomId, AtomKind, AtomStore, GroundAtom, Posting};
pub use bindings::Bindings;
pub use clause::{ClauseId, ClauseOrigin, ClauseRef, ClauseStore, ClauseWeight, GroundClause, Lit};
pub use compile::{intern_constants, CompiledFormula, CompiledProgram};
pub use component::{ComponentIndex, ComponentView, Marginals, Partition, MAX_GRADED_ATOMS};
pub use grounder::{ground, GroundConfig, Grounding, GroundingStats};
pub use incremental::{ConstraintKey, DeltaChanges, DeltaStats};
pub use planner::FormulaPlan;
pub use solver::{evaluate_world, ComponentMode, MapSolver, MapState, SolveError, SolverCaps};
