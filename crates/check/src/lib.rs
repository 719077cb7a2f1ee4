//! # tecore-check — deterministic concurrency model checking
//!
//! A loom-style model checker for the concurrent protocols in this
//! workspace. It checks a litmus suite validating the checker itself
//! (`tests/litmus.rs`, always on) and, behind the `model-check`
//! feature, protocol models of the writer loop's journal-before-ACK /
//! fsync-before-FLUSH-ACK contract (`tests/writer_ack.rs`) and of WAL
//! poisoning under concurrent flush/checkpoint (`tests/wal_poison.rs`);
//! the server's `SnapshotCell` is a plain `std` `RwLock` and is not
//! modelled. Like the `crates/shims/*` stand-ins it is completely
//! offline: no dependencies beyond `std`.
//!
//! ## How it works
//!
//! A *model* is a closure using the instrumented primitives from
//! [`sync`], [`thread`] and [`hint`] instead of their `std` twins. The
//! [`Checker`] runs the closure many times; each run is one *execution*
//! under a controlled scheduler:
//!
//! * Model threads are real OS threads, but the scheduler's controller
//!   (a mutex + condvar) lets **exactly one** run at a time. Every
//!   instrumented operation — an atomic load/store, a lock acquire or
//!   release, a channel send/recv, `hint::spin_loop()` — is a *scheduling
//!   point*: the running thread stops, the scheduler picks who performs
//!   the next visible operation, and only that thread resumes.
//! * Each scheduling decision (and each weak-memory load candidate, see
//!   below) is a recorded *branch*. In exhaustive mode the checker
//!   explores branches by depth-first search over the decision tree:
//!   replay the recorded prefix, take the next untried alternative at the
//!   deepest branch, repeat until the tree is exhausted. In bounded mode
//!   it instead draws decisions from a seeded xorshift generator, so any
//!   failing execution is replayable from its reported seed.
//! * Atomics are modeled with **per-location store buffers** and
//!   per-thread *views* (vector clocks over locations): a load may read
//!   any store not yet obsolete under the thread's view, an `Acquire`
//!   load joins the release-view attached to the store it reads, a
//!   `Release` store attaches the writer's full view, and `Relaxed`
//!   stores attach nothing — so genuine release/acquire bugs (stale or
//!   torn publications) are observable outcomes, not just timing luck.
//! * Assertion failures, deadlocks (no runnable thread) and step-budget
//!   overruns are caught and reported with the **full interleaving
//!   trace** that produced them, ready to paste into a bug report.
//!
//! ## Writing a model
//!
//! ```
//! use tecore_check::sync::atomic::{AtomicU64, Ordering};
//! use tecore_check::{thread, Checker};
//!
//! let report = Checker::new("message-passing").run(|| {
//!     let data = std::sync::Arc::new(AtomicU64::new(0));
//!     let flag = std::sync::Arc::new(AtomicU64::new(0));
//!     let (d, f) = (data.clone(), flag.clone());
//!     let t = thread::spawn(move || {
//!         d.store(42, Ordering::Relaxed);
//!         f.store(1, Ordering::Release);
//!     });
//!     if flag.load(Ordering::Acquire) == 1 {
//!         assert_eq!(data.load(Ordering::Relaxed), 42);
//!     }
//!     t.join().unwrap();
//! });
//! report.assert_pass();
//! ```
//!
//! Replace `Ordering::Release`/`Acquire` with `Relaxed` above and the
//! checker finds the interleaving where the reader sees `flag == 1` but
//! stale `data == 0`, and prints it.
//!
//! ## Replaying a failure
//!
//! * Exhaustive mode is deterministic: re-running the same checker on the
//!   same model reproduces the failure immediately (the DFS stops at the
//!   first failing execution). [`Failure::schedule`] carries the exact
//!   decision sequence; feed it to [`Checker::replay`] to re-run *only*
//!   that interleaving, e.g. under a debugger.
//! * Bounded mode reports [`Failure::seed`]; `Checker::new(name)
//!   .random(seed, 1)` replays the failing execution.
//!
//! ## Mutation testing
//!
//! [`mutation::reorder`] marks a step that a test may deliberately
//! perform out of order ([`Checker::mutate`] or the
//! `TECORE_CHECK_MUTATE` environment variable). The protocol models
//! under `tests/` prove the checker's teeth this way: ACKing before
//! journaling, or forgetting to poison the log after a failed flush,
//! must make the model fail with a trace.

#![forbid(unsafe_code)]

pub mod hint;
pub mod mutation;
mod report;
mod sched;
pub mod sync;
pub mod thread;

pub use report::{Event, Failure, FailureKind, Report};
pub use sched::{note, Checker};

/// Run `f` under the exhaustive checker with default budgets and panic
/// (printing the interleaving trace) if any execution fails.
///
/// Shorthand for `Checker::new("model").check(f)`.
pub fn model<F: Fn()>(f: F) {
    Checker::new("model").check(f);
}
