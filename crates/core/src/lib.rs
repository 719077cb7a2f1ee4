//! # tecore-core
//!
//! TeCoRe proper: temporal conflict resolution in uncertain temporal
//! knowledge graphs (VLDB 2017).
//!
//! Given a uTKG `G`, temporal inference rules `F` and temporal
//! constraints `C`, TeCoRe computes `map(θ(G), F ∪ C)` — the **most
//! probable, expanded and conflict-free temporal KG** (paper §2/§3):
//!
//! 1. the [`translate`] module implements θ: it validates the program
//!    against the chosen backend's expressivity and grounds everything
//!    into a weighted clause program (`tecore-ground`);
//! 2. a backend solves MAP: MLN (exact / MaxWalkSAT / cutting-plane —
//!    `tecore-mln`) or PSL (consensus ADMM — `tecore-psl`);
//! 3. the [`pipeline`] interprets the MAP world: evidence atoms kept →
//!    the consistent subgraph, evidence atoms rejected → **conflicting
//!    facts**, hidden atoms accepted → **inferred facts** (graded by
//!    marginal confidence and filtered by the user's threshold);
//! 4. [`stats::DebugStats`] is the Figure-8 statistics screen.
//!
//! The public API is the versioned **engine → snapshot** model: an
//! [`engine::Engine`] owns the mutable graph + program and every
//! resolve returns a cheap `Arc`-shared, epoch-stamped
//! [`snapshot::Snapshot`] — an immutable view carrying the expanded
//! graph and temporal indexes, queried through the typed [`query`]
//! layer while the engine keeps mutating and re-resolving. The engine is
//! the one entry point: the demo's Web-UI flow (complete predicates,
//! validate a constraint, pick a reasoner by name from the
//! [`registry::SolverRegistry`], browse the result) is a handful of
//! library calls around it — `examples/constraint_editor.rs` walks it.
//!
//! ```
//! use tecore_core::prelude::*;
//! use tecore_kg::parser::parse_graph;
//! use tecore_logic::LogicProgram;
//!
//! let graph = parse_graph(
//!     "(CR, coach, Chelsea, [2000,2004]) 0.9\n\
//!      (CR, coach, Napoli, [2001,2003]) 0.6\n",
//! ).unwrap();
//! let program = LogicProgram::parse(
//!     "c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf",
//! ).unwrap();
//! let snapshot = Engine::new(graph, program).resolve().unwrap();
//! assert_eq!(snapshot.stats.conflicting_facts, 1); // Napoli removed
//! assert_eq!(snapshot.at(2002).predicate("coach").count(), 1); // Chelsea
//! ```

#![forbid(unsafe_code)]

pub mod advisor;
pub mod batch;
mod carry;
pub mod engine;
pub mod error;
pub mod explain;
pub mod pipeline;
pub mod query;
pub mod registry;
pub mod resolution;
pub mod snapshot;
pub mod stats;
pub mod translate;

pub use advisor::{suggest_constraints, AdvisorConfig, SuggestedConstraint};
pub use batch::{ApplyReport, EditBatch, EditOp, EditOutcome};
pub use engine::Engine;
pub use error::TecoreError;
pub use explain::{ConflictExplanation, Participant};
pub use pipeline::TecoreConfig;
pub use query::{QueryIter, TemporalQuery, TimelineEntry};
pub use registry::SolverRegistry;
pub use resolution::{InferredFact, RemovedFact, Resolution};
pub use snapshot::Snapshot;
pub use stats::DebugStats;
// The backend interface itself lives in `tecore-ground` (below the
// substrate crates); re-exported here because this is where users meet
// it.
pub use tecore_ground::{FormulaPlan, MapSolver, MapState, SolveError, SolverCaps};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::batch::{ApplyReport, EditBatch, EditOp, EditOutcome};
    pub use crate::engine::Engine;
    pub use crate::error::TecoreError;
    pub use crate::pipeline::TecoreConfig;
    pub use crate::query::{TemporalQuery, TimelineEntry};
    pub use crate::registry::SolverRegistry;
    pub use crate::resolution::Resolution;
    pub use crate::snapshot::Snapshot;
    pub use crate::stats::DebugStats;
    pub use tecore_ground::{ComponentMode, MapSolver, MapState, SolverCaps};
}
