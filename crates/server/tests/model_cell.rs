//! Model-checking the *real* `SnapshotCell` (not a protocol model):
//! under the `model-check` feature the cell's atomics, ring locks, and
//! spin hints route through `tecore-check`, so the checker schedules
//! every step of `load`/`publish` directly against the production
//! code.
//!
//! Invariants from `cell.rs`'s contract, checked on every explored
//! interleaving:
//! * loads always return a *published* snapshot (epoch is one of the
//!   snapshots handed to `publish`, never torn state);
//! * epochs observed by a single reader are monotone;
//! * the writer never blocks readers — every `load` completes without
//!   waiting on the publisher (a violation shows up as a truncated or
//!   deadlocked execution);
//! * the `reader_spins` / `publish_retries` observability counters
//!   (surfaced in `STATS`) stay live under the checker.
//!
//! With two slots, the second of the two publications below overwrites
//! the slot the initial snapshot was served from, so slot reuse — a
//! reader holding or about to take the lock of the slot the publisher
//! wants — is part of what is explored.
//!
//! The Release→Relaxed publish mutation is *not* killable through the
//! real cell: readers synchronize via the per-slot `RwLock` as well.
//! The seqlock publish edge on its own is modelled (and its mutation
//! killed) in `crates/check/tests/cell_publish.rs`.

#![cfg(feature = "model-check")]

use std::sync::Arc;

use tecore_check::{thread, Checker};
use tecore_core::pipeline::Engine;
use tecore_core::snapshot::Snapshot;
use tecore_kg::UtkGraph;
use tecore_logic::LogicProgram;
use tecore_server::SnapshotCell;
use tecore_temporal::Interval;

fn snapshot_at_epoch(n: u64) -> Arc<Snapshot> {
    let mut engine = Engine::new(UtkGraph::new(), LogicProgram::new());
    for i in 0..n {
        engine
            .insert_fact(
                "s",
                "p",
                &format!("o{i}"),
                Interval::new(0, 1).unwrap(),
                0.9,
            )
            .unwrap();
    }
    engine.resolve().unwrap()
}

#[test]
fn real_cell_publish_protocol_under_the_checker() {
    // Snapshots are plain data — build them once outside the model so
    // every explored interleaving spends its steps on the cell itself.
    let snaps: Vec<Arc<Snapshot>> = (0..=2).map(snapshot_at_epoch).collect();
    let published: Vec<u64> = snaps.iter().map(|s| s.epoch()).collect();

    let report = Checker::new("real-snapshot-cell")
        .random(0xCE11_0001, 400)
        .max_steps(4_000)
        .check(move || {
            let cell = Arc::new(SnapshotCell::new(Arc::clone(&snaps[0])));
            let w = {
                let cell = Arc::clone(&cell);
                let snaps = snaps.clone();
                thread::spawn_named("publisher", move || {
                    cell.publish(Arc::clone(&snaps[1]));
                    cell.publish(Arc::clone(&snaps[2]));
                })
            };
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let cell = Arc::clone(&cell);
                    let published = published.clone();
                    thread::spawn_named("reader", move || {
                        let mut last = 0u64;
                        for _ in 0..2 {
                            let epoch = cell.load().epoch();
                            assert!(
                                published.contains(&epoch),
                                "load returned an unpublished snapshot: epoch {epoch}"
                            );
                            assert!(epoch >= last, "epoch went backwards: {epoch} < {last}");
                            last = epoch;
                        }
                    })
                })
                .collect();
            w.join().unwrap();
            for r in readers {
                r.join().unwrap();
            }
            assert_eq!(cell.load().epoch(), *published.last().unwrap());
            assert_eq!(cell.publications(), 2);
            // Observability counters answer (they are plain std
            // atomics, deliberately invisible to the scheduler).
            let _ = cell.reader_spins() + cell.publish_retries();
        });
    assert!(
        report.truncated == 0,
        "a load spun unboundedly under some schedule ({} truncated)",
        report.truncated
    );
    assert!(report.interleavings > 100, "exploration too shallow");
}
