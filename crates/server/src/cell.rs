//! Snapshot publication.
//!
//! [`SnapshotCell`] hands [`Snapshot`]s from the single writer loop to
//! the reader pool through one `RwLock<Arc<Snapshot>>`. What the server
//! depends on:
//!
//! * **only published snapshots are loaded** — [`SnapshotCell::load`]
//!   clones the `Arc` under a read guard;
//! * **monotone epochs** — repeated loads see publications in order;
//! * **readers are not held up by the writer** — a guard is held for
//!   one pointer clone or swap, and the replaced snapshot is let go of
//!   *after* the write guard is released. Usually that costs one
//!   channel send: the engine asks the snapshot before its latest one
//!   home, to patch its view into the next (`tecore_core`'s `carry`
//!   module), and whoever drops the last `Arc` sends it. A snapshot the
//!   engine did not ask back (after a rebuild, or a publish that
//!   changed no fact) is torn down by its last holder — a whole
//!   resolved graph plus index, milliseconds.
//!
//! The cell keeps exactly one snapshot alive; an older one lives only
//! as long as the readers still holding its `Arc`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use tecore_core::snapshot::Snapshot;

/// The latest published `Arc<Snapshot>`, shared by one publisher and
/// any number of readers.
///
/// ```
/// # use tecore_core::Engine;
/// # use tecore_kg::UtkGraph;
/// # use tecore_logic::LogicProgram;
/// # use tecore_server::SnapshotCell;
/// let mut engine = Engine::new(UtkGraph::new(), LogicProgram::new());
/// let cell = SnapshotCell::new(engine.resolve().unwrap());
/// let snap = cell.load();
/// assert_eq!(snap.epoch(), cell.load().epoch());
/// ```
#[derive(Debug)]
pub struct SnapshotCell {
    current: RwLock<Arc<Snapshot>>,
    /// Statistic only: publishes no data, hence `Relaxed` throughout.
    publications: AtomicU64,
}

impl SnapshotCell {
    /// Creates a cell publishing `initial` as the current snapshot.
    pub fn new(initial: Arc<Snapshot>) -> Self {
        SnapshotCell {
            current: RwLock::new(initial),
            publications: AtomicU64::new(0),
        }
    }

    /// Loads the current snapshot: a read guard held for one
    /// `Arc::clone`.
    pub fn load(&self) -> Arc<Snapshot> {
        // A poisoned lock still guards a whole `Arc`: the only write is
        // one pointer swap.
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// The epoch of the current snapshot (convenience for stats).
    pub fn epoch(&self) -> u64 {
        self.load().epoch()
    }

    /// Number of publications since the cell was created.
    pub fn publications(&self) -> u64 {
        self.publications.load(Ordering::Relaxed)
    }

    /// Publishes `snapshot` as the new current snapshot.
    pub fn publish(&self, snapshot: Arc<Snapshot>) {
        let replaced = {
            let mut current = self.current.write().unwrap_or_else(PoisonError::into_inner);
            std::mem::replace(&mut *current, snapshot)
        };
        self.publications.fetch_add(1, Ordering::Relaxed);
        // Letting go of a snapshot nobody else holds sends its view
        // home or tears it down (milliseconds); no reader may wait on
        // either, so it happens outside the guard.
        drop(replaced);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use tecore_core::Engine;
    use tecore_kg::UtkGraph;
    use tecore_logic::LogicProgram;
    use tecore_temporal::Interval;

    fn snapshot_at_epoch(n: u64) -> Arc<Snapshot> {
        let mut engine = Engine::new(UtkGraph::new(), LogicProgram::new());
        let year = Interval::new(0, 1).unwrap();
        for i in 0..n {
            let object = format!("o{i}");
            engine.insert_fact("s", "p", &object, year, 0.9).unwrap();
        }
        engine.resolve().unwrap()
    }

    #[test]
    fn load_returns_the_published_snapshot() {
        let cell = SnapshotCell::new(snapshot_at_epoch(0));
        let before = cell.load();
        assert_eq!(before.epoch(), 0);
        cell.publish(snapshot_at_epoch(3));
        assert_eq!(cell.load().epoch(), 3);
        assert_eq!(cell.publications(), 1);
        // Publishing replaces what the cell points at, never what a
        // reader's `Arc` points at.
        assert_eq!(before.epoch(), 0);
    }

    /// The cell holds on to the current snapshot and nothing older: a
    /// snapshot is a whole resolved graph plus index.
    #[test]
    fn only_the_current_publication_stays_alive() {
        let first = snapshot_at_epoch(0);
        let mut handles = vec![Arc::downgrade(&first)];
        let cell = SnapshotCell::new(first);
        for n in 1..=6 {
            let snapshot = snapshot_at_epoch(n);
            handles.push(Arc::downgrade(&snapshot));
            cell.publish(snapshot);
            let alive: Vec<u64> = handles
                .iter()
                .filter_map(|w| w.upgrade().map(|s| s.epoch()))
                .collect();
            assert_eq!(alive, [n], "after {n} publications");
        }
    }

    /// Readers hammering `load` while a writer publishes must only ever
    /// observe coherent snapshots with monotonically non-decreasing
    /// epochs.
    #[test]
    fn concurrent_loads_see_monotone_epochs() {
        const PUBLISHES: u64 = 40;
        let cell = SnapshotCell::new(snapshot_at_epoch(0));
        let done = AtomicBool::new(false);
        // Pre-build the snapshots so the writer publishes at a pace
        // that actually races the readers.
        let snaps: Vec<Arc<Snapshot>> = (1..=PUBLISHES).map(snapshot_at_epoch).collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cell = &cell;
                let done = &done;
                scope.spawn(move || {
                    let mut last = 0u64;
                    while !done.load(Ordering::Relaxed) {
                        let epoch = cell.load().epoch();
                        assert!(epoch >= last, "epoch went backwards: {epoch} < {last}");
                        last = epoch;
                    }
                });
            }
            for snap in snaps {
                cell.publish(snap);
            }
            done.store(true, Ordering::Relaxed);
        });
        assert_eq!(cell.load().epoch(), PUBLISHES);
    }
}
