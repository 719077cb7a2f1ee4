//! # tecore-wal
//!
//! Durability for TeCoRe's uncertain temporal knowledge graphs: a
//! segment-based **write-ahead log** of fact edits, plus checkpoints
//! and crash recovery.
//!
//! The in-memory [`tecore_kg::UtkGraph`] is already journal-shaped —
//! every insert/remove bumps a monotone epoch and lands in a change
//! log — so the WAL records exactly those edits, framed as
//! `[len][crc32][payload]` ([`frame`]), in append-only segment files:
//!
//! ```text
//! wal-00000000.log   sealed segment (fsynced in full)
//! wal-00000001.log   active segment (tail may be unsynced)
//! ckpt-…000042.kg    durable checkpoint at epoch 42
//! ```
//!
//! **Append** ([`Wal::log_insert`] / [`Wal::log_remove`]) happens
//! *before* the graph mutation; fsync cadence is a [`FsyncPolicy`]
//! (`Always`, `EveryN`), and [`Wal::flush`] forces one (the
//! server's `FLUSH` verb). **Checkpoints** ([`Wal::checkpoint`])
//! serialize the graph through [`tecore_kg::writer::write_checkpoint`]
//! — preserving arena slots, so post-checkpoint records replay by id —
//! then prune sealed segments. **Recovery** ([`Wal::open`]) loads the
//! newest parseable checkpoint, replays the log tail in epoch order,
//! and *truncates at the first torn or corrupt frame*: a crash mid-
//! append loses at most the unsynced suffix, never acknowledged-
//! durable state, and never replays garbage (every frame is CRC-32
//! checked and semantically validated).
//!
//! Any I/O failure **poisons** the log: writes are refused from then
//! on (the graph would otherwise run ahead of what recovery can
//! rebuild), while reads keep working — the serving layer uses this to
//! degrade to read-only instead of crashing.
//!
//! All I/O flows through the [`WalFile`]/[`WalStorage`] traits
//! ([`storage`]); [`FailStorage`] ([`failpoint`]) wraps the in-memory
//! backend and deterministically injects short writes, fsync errors
//! and crash points, which is how the crash-and-recover tests and the
//! server's simulator drive the log.

#![forbid(unsafe_code)]

pub mod crc;
pub mod failpoint;
pub mod frame;
pub mod storage;
pub mod wal;

pub use failpoint::{FailPlan, FailStorage};
pub use frame::{InsertRecord, Record};
pub use storage::{MemStorage, StdStorage, WalFile, WalStorage};
pub use wal::{FsyncPolicy, RecoveryReport, Wal, WalConfig, WalError, WalStats};
