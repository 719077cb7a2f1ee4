//! # tecore
//!
//! Facade crate for the TeCoRe system — a from-scratch Rust reproduction
//! of *"TeCoRe: Temporal Conflict Resolution in Knowledge Graphs"*
//! (Chekol, Pirrò, Schoenfisch, Stuckenschmidt; VLDB 2017).
//!
//! TeCoRe detects and repairs temporal conflicts in **uncertain temporal
//! knowledge graphs** (uTKGs): RDF-style facts carrying a validity
//! interval and a confidence score. Users provide weighted temporal
//! inference rules and temporal constraints over Allen's interval
//! relations; TeCoRe translates everything into a probabilistic-logic
//! program and computes the **most probable conflict-free KG** by MAP
//! inference, using either
//!
//! * an **MLN** backend (expressive; exact branch-and-bound /
//!   MaxWalkSAT / cutting-plane MaxSAT solvers), or
//! * a **PSL** backend (scalable; hinge-loss MRF solved by consensus
//!   ADMM).
//!
//! This crate re-exports the subsystem crates; most applications only
//! need [`tecore_core`] (the versioned `Engine` → `Snapshot` API with
//! its temporal query layer and the solver registry) and
//! [`tecore_datagen`] (synthetic workloads).
//!
//! ```
//! use tecore::prelude::*;
//!
//! // The paper's running example resolved and queried: who did CR
//! // coach in 2002? See `examples/quickstart.rs` and
//! // `examples/temporal_queries.rs`.
//! let graph = tecore_datagen::standard::ranieri_utkg();
//! let program = tecore_datagen::standard::paper_program();
//! let snapshot = Engine::new(graph, program).resolve().unwrap();
//! let coached = snapshot.at(2002).predicate("coach").objects();
//! assert_eq!(coached.len(), 1); // Chelsea (the Napoli clash is repaired)
//! ```

#![forbid(unsafe_code)]

pub use tecore_core;
pub use tecore_datagen;
pub use tecore_ground;
pub use tecore_kg;
pub use tecore_logic;
pub use tecore_mln;
pub use tecore_psl;
pub use tecore_server;
pub use tecore_temporal;
pub use tecore_wal;

/// Convenience re-exports for typical applications.
pub mod prelude {
    pub use tecore_core::prelude::*;
    pub use tecore_kg::{Dictionary, TemporalFact, UtkGraph};
    pub use tecore_logic::program::LogicProgram;
    pub use tecore_temporal::{AllenRelation, AllenSet, Interval, TimePoint};
}
