//! Test support for the conformance suites; a dev-dependency only.
//!
//! The paper defines the repaired KG as the MAP state of θ(G) ∪ C,
//! whichever path computes it. Two checks hold every path to that:
//! a carried snapshot equals a cold resolve of the surviving facts, and
//! a query equals a brute-force scan. The suites state them as
//! properties over what this crate holds once:
//!
//! - **Fixtures** ([`fixtures`]): the paper program, the two-formula
//!   `f1`/`c2` program, the clustered graph, the statement strategy
//!   ([`arb_insert`]), the backends; and ([`grounding`]) the compact
//!   [`Fact`] tuple with its generators, the random programs and the
//!   naive re-grounder the grounder is held against.
//! - **One edit script** ([`script`]): inserts, removes, upserts,
//!   same-batch churn and floods past the carry path's rebuild share,
//!   as batches, plus checkpoints.
//! - **One oracle** ([`oracle`]): [`cold`], [`assert_same`],
//!   [`assert_journaled`] and [`assert_queries_match_scan`].
//! - **The heuristic bends, in one place** ([`Expect::for_backend`]):
//!   a cost equal to or only never below the exact optimum, which
//!   backends grade, and the data a drawn script gives a heuristic
//!   backend ([`Script::within`]): statements apart, no floods where it
//!   solves the whole problem at once.
//!
//! The crate reads no environment and never depends on
//! `tecore-server`, whose simulator (a unit-test module) uses it.

pub mod fixtures;
pub mod grounding;
pub mod oracle;
pub mod script;

pub use fixtures::{
    arb_insert, clusters, config, engine, f1_c2, graph, insert, iv, paper_program, solver, Insert,
    Statement, BACKENDS,
};
pub use grounding::{arb_fact, arb_fact_in, spell, Fact};
pub use oracle::{
    arb_shape, assert_journaled, assert_queries_match_scan, assert_same, cold, cold_with,
    drawn_shapes, fingerprint, snapshot_of, Expect, Shape, Time,
};
pub use script::{arb_edit, arb_steps, Edit, Script};
