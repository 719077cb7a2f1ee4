//! # tecore-kg
//!
//! The **uncertain temporal knowledge graph (uTKG)** data model of TeCoRe
//! (VLDB 2017, §2 "Data Model").
//!
//! A uTKG is a set of RDF-style triples, each labelled with
//!
//! * a **temporal element** — a closed interval `[t_b, t_e]` over the
//!   discrete time domain, the fact's valid time, and
//! * a **confidence value** in `(0, 1]` — how likely the fact is to hold.
//!
//! ```text
//! (CR, coach, Chelsea, [2000,2004])  0.9
//! (CR, coach, Leicester, [2015,2017]) 0.7
//! ```
//!
//! This crate provides:
//!
//! * [`Dictionary`] — string interning for IRIs/literals, so the rest of
//!   the system works with dense `u32` symbols;
//! * [`TemporalFact`] — the quad + confidence record;
//! * [`UtkGraph`] — the fact store: a fact arena with tombstone
//!   deletion (conflict resolution removes facts), an epoch and a
//!   change log, and no table per key;
//! * [`FactMap`] — a dense fact id → id table from the first live
//!   fact on (the grounder's fact → atom table, a view's fact ids);
//! * [`Postings`] — start-sorted interval runs in one arena: the
//!   grounder's posting families and the [`GraphTemporalIndex`];
//! * a line-oriented **text format** ([`parser`], [`writer`]) used by the
//!   examples and test corpora;
//! * [`stats::GraphStats`] — the summary statistics displayed by the demo
//!   UI (Figure 8 of the paper).

#![forbid(unsafe_code)]

pub mod delta;
pub mod dict;
pub mod error;
pub mod event;
pub mod fact;
pub mod fact_map;
pub mod fxhash;
pub mod graph;
pub mod parser;
pub mod postings;
pub mod stats;
pub mod tindex;
pub mod writer;

pub use delta::{Delta, FactChange};
pub use dict::{Dictionary, Symbol};
pub use error::KgError;
pub use event::StreamEvent;
pub use fact::{Confidence, FactId, TemporalFact};
pub use fact_map::FactMap;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use graph::UtkGraph;
pub use postings::{overlapping, reaching, OverlapIter, Posting, Postings};
pub use stats::GraphStats;
pub use tindex::GraphTemporalIndex;
