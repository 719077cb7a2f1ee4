//! # tecore-temporal
//!
//! Discrete time points, closed intervals and Allen's interval algebra for
//! the TeCoRe temporal conflict-resolution system (VLDB 2017).
//!
//! The paper models validity time as "a discrete time domain T as a
//! linearly ordered finite sequence of time points" and attaches a closed
//! interval `[t_b, t_e]` to every fact. Temporal constraints are built
//! from **Allen's interval relations** (`before`, `overlaps`, `disjoint`,
//! ...), so this crate provides:
//!
//! * [`TimePoint`] — an integer time point (year, day, millisecond, ...);
//! * [`Interval`] — a closed, non-empty interval over time points;
//! * [`AllenRelation`] — the 13 basic Allen relations, with converse;
//! * [`AllenSet`] — sets of Allen relations (the "named" relations of the
//!   constraint language such as `disjoint` are proper relation sets);
//! * [`TemporalElement`] — a coalesced union of disjoint intervals.
//!
//! ## Discrete-interval convention
//!
//! Over a *discrete* domain with *closed* intervals the 13 relations only
//! partition interval pairs if adjacency is distinguished from sharing a
//! point. We follow the standard discretisation:
//!
//! * `a meets b`  ⇔ `a.end + 1 == b.start` (adjacent, nothing shared);
//! * `a before b` ⇔ `a.end + 1 <  b.start`;
//! * `a overlaps b` requires at least one shared time point.
//!
//! With this convention **exactly one** basic relation holds for every
//! ordered pair of intervals (see the property tests).
//!
//! ```
//! use tecore_temporal::{Interval, AllenRelation, AllenSet};
//!
//! let chelsea = Interval::new(2000, 2004).unwrap();
//! let napoli = Interval::new(2001, 2003).unwrap();
//! assert_eq!(AllenRelation::between(chelsea, napoli), AllenRelation::Contains);
//! // The paper's constraint c2 demands `disjoint(t, t')` for two coach
//! // spells of the same person — violated here:
//! assert!(!AllenSet::DISJOINT.holds(chelsea, napoli));
//! ```

#![forbid(unsafe_code)]

pub mod allen;
pub mod coalesce;
pub mod error;
pub mod interval;
pub mod point;
pub mod set;

pub use allen::AllenRelation;
pub use coalesce::TemporalElement;
pub use error::TemporalError;
pub use interval::Interval;
pub use point::TimePoint;
pub use set::AllenSet;
