//! # tecore-stream
//!
//! Windowed stream processing over TeCoRe: **continuous conflict
//! resolution** on a live stream of timestamped assertions.
//!
//! The paper resolves conflicts in a *static* uncertain temporal KG;
//! this crate closes the loop for the streaming setting using the
//! classic RSP decomposition:
//!
//! - **S2R** — a [`WindowSpec`] (sliding or tumbling, event-time,
//!   watermark-driven) turns the unbounded stream of
//!   [`tecore_kg::StreamEvent`]s into a sequence of finite graphs:
//!   at each window boundary the [`StreamSession`] admits entering
//!   events and expires facts that slid out, as **one**
//!   [`tecore_core::EditBatch`] (one netted delta, one WAL journal
//!   group).
//! - **R2R** — each boundary triggers a single
//!   `Engine::resolve_incremental`: the MAP resolution is recomputed
//!   only for the conflict components the slide dirtied, so
//!   steady-state slides cost a fraction of a cold solve
//!   ([`WindowStats::components_solved`] vs [`WindowStats::components`]).
//! - **R2S** — registered continuous queries ([`QuerySpec`] +
//!   [`WindowSink`]) are re-evaluated against every fired window's
//!   snapshot and their answers pushed back out as a result stream.
//!
//! The network face of this crate lives in `tecore-server` (`SUB` /
//! `UNSUB` / `FEED` verbs); the crate itself is runtime-free — the
//! caller's thread drives everything through [`StreamSession::push`].

#![forbid(unsafe_code)]

pub mod query;
pub mod session;
pub mod window;

pub use query::{QueryId, QuerySpec, TimeSpec, WindowResult, WindowSink};
pub use session::{StreamSession, StreamTotals, WindowFire, WindowStats};
pub use window::{StreamError, WindowSpec};
