//! # tecore-datagen
//!
//! Seeded synthetic workload generators reproducing the datasets of the
//! TeCoRe demonstration (paper §4):
//!
//! * **FootballDB** — temporal facts about football players
//!   (`playsFor`, `birthDate`, plus `coach` spells), scraped from
//!   footballdb.com in the paper. The original scrape is not available,
//!   so [`football`] generates a structurally equivalent uTKG: players
//!   with non-overlapping career spells and unique birth dates, then
//!   **injects labelled erroneous facts** (overlapping spells, duplicate
//!   birth dates, death-before-birth) at a configurable noise ratio —
//!   including the paper's "as many erroneous temporal facts as the
//!   correct ones" stress setting.
//! * **Wikidata** — the 6.3M-fact temporal slice with the paper's
//!   relation mix (`playsFor` > 4M, `memberOf` > 23K, `spouse` > 20K,
//!   `educatedAt` > 6K, `occupation` > 4.5K), scaled by a single knob
//!   ([`wikidata`]).
//! * **Stream** — a timestamped event stream over the Wikidata-like
//!   universe ([`stream`]): arrival-ordered `playsFor` assertions with
//!   bounded out-of-order jitter, injected duplicates and injected
//!   conflicts, for driving `tecore-stream` windows and the streaming
//!   benchmarks.
//! * **Skewed** — a synthetic Zipf-distributed predicate workload
//!   ([`skewed`]) with a configurable exponent; not from the paper but
//!   the stress scenario for join ordering (one dominant predicate,
//!   many tiny ones).
//!
//! Ground-truth labels make repair quality measurable: [`noise`]
//! computes precision/recall of conflict resolution against the
//! injected noise.
//!
//! [`standard`] holds the paper's literal fixtures: the Claudio Ranieri
//! uTKG of Figure 1 and the rule/constraint sets of Figures 4 and 6.

#![forbid(unsafe_code)]

pub mod config;
pub mod football;
pub mod noise;
pub mod skewed;
pub mod standard;
pub mod stream;
pub mod wikidata;

pub use config::{FootballConfig, SkewedConfig, StreamConfig, WikidataConfig};
pub use football::generate_football;
pub use noise::{repair_metrics, GeneratedKg, RepairMetrics};
pub use skewed::generate_skewed;
pub use stream::generate_stream;
pub use wikidata::generate_wikidata;
