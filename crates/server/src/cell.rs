//! Lock-free snapshot publication.
//!
//! [`SnapshotCell`] is the hand-off point between the single writer
//! loop (which resolves and publishes new [`Snapshot`]s) and the
//! reader pool (which answers queries from the latest one). The
//! contract the server depends on:
//!
//! * **readers never block on the writer** — [`SnapshotCell::load`]
//!   performs a couple of atomic loads and one `try_read` on an
//!   uncontended slot; it never sleeps on a lock the writer holds;
//! * **no torn reads** — the `Arc<Snapshot>` a reader gets back is
//!   exactly the snapshot `current` pointed at, never a half-written
//!   slot;
//! * **monotone epochs** — the publication sequence only moves
//!   forward, so a reader that loads repeatedly observes non-decreasing
//!   snapshot epochs.
//!
//! # Design
//!
//! Two slots, each an `RwLock<Arc<Snapshot>>`, plus a packed `current`
//! word `(seq << SLOT_BITS) | slot` naming the live slot. Publishing
//! writes the *other* slot (readers are still served from the current
//! one, so they are undisturbed) and then advances `current` with a
//! release store. The cell therefore keeps exactly two snapshots
//! alive — the current one and the one before it — and a snapshot is
//! freed two publications after its own (once the readers still holding
//! it let go). Loading reads `current`, `try_read`s the named slot, and
//! **re-validates** `current` is unchanged before cloning out the
//! `Arc`:
//!
//! * if the `try_read` fails, the writer is mid-overwrite of that slot
//!   — which means `current` has already moved on (the writer only
//!   overwrites the slot that is *not* current), so the retry picks up
//!   the newer word and succeeds on the other slot;
//! * if the re-validation fails, `current` moved between the first
//!   load and the lock acquisition; retry. The monotone packed `seq`
//!   makes the check ABA-proof.
//!
//! On the steady state (readers arbitrarily frequent, publishes
//! comparatively rare) every load is one acquire load + one
//! uncontended `try_read` + one acquire load: no CAS loop, no writer
//! dependency, no allocation beyond the `Arc` refcount bump. This is
//! the seqlock-over-`Arc` variant the issue calls for, built without
//! `unsafe` (the whole workspace is `unsafe`-free and stays that way).
//!
//! A writer can stall behind a reader only if that reader still holds
//! a read guard on a slot one publication after it stopped being
//! current; guards here live for the duration of an `Arc::clone`, so in
//! practice the writer's `try_write` loop succeeds on the first spin.

use std::sync::atomic::AtomicU64 as StatAtomicU64;
use std::sync::Arc;

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{hint, Mutex, RwLock};

use tecore_core::snapshot::Snapshot;

/// Slot count: the current publication and the one the next publish
/// overwrites. Every further slot would pin one more whole snapshot
/// (graph, index, explanations) for no reader's benefit — a reader that
/// loses the race for a slot retries against the new `current` anyway.
const SLOTS: usize = 2;

/// Bits of the packed `current` word naming the slot.
const SLOT_BITS: u32 = SLOTS.trailing_zeros();

const SLOT_MASK: u64 = (SLOTS as u64) - 1;

/// An epoch-tagged publication cell over `Arc<Snapshot>`: wait-free
/// reads of the latest published snapshot, serialized writes.
///
/// ```
/// # use std::sync::Arc;
/// # use tecore_core::pipeline::Engine;
/// # use tecore_kg::UtkGraph;
/// # use tecore_logic::LogicProgram;
/// # use tecore_server::SnapshotCell;
/// let mut engine = Engine::new(UtkGraph::new(), LogicProgram::new());
/// let cell = SnapshotCell::new(engine.resolve().unwrap());
/// let snap = cell.load(); // never blocks on a publisher
/// assert_eq!(snap.epoch(), cell.load().epoch());
/// ```
#[derive(Debug)]
pub struct SnapshotCell {
    slots: [RwLock<Arc<Snapshot>>; SLOTS],
    /// `(seq << SLOT_BITS) | slot` — seq is a monotone publication
    /// counter, slot names the ring entry holding that publication.
    current: AtomicU64,
    /// Serializes publishers (the server has exactly one, but the type
    /// doesn't require it).
    publish_lock: Mutex<()>,
    /// Observability only (never part of the publication protocol):
    /// times a reader's `load` had to retry. Plain `std` atomics so the
    /// counters don't add scheduling points under `model-check`.
    reader_spins: StatAtomicU64,
    /// Observability only: times the publisher's `try_write` spun
    /// waiting out a straggling reader.
    publish_retries: StatAtomicU64,
}

impl SnapshotCell {
    /// Creates a cell publishing `initial` as the current snapshot.
    pub fn new(initial: Arc<Snapshot>) -> Self {
        SnapshotCell {
            // Every slot starts as a clone of the initial snapshot, so
            // a slot the `current` word names is *always* a coherent
            // publication — there is no "empty" state to guard.
            slots: std::array::from_fn(|_| RwLock::new(Arc::clone(&initial))),
            current: AtomicU64::new(0),
            publish_lock: Mutex::new(()),
            reader_spins: StatAtomicU64::new(0),
            publish_retries: StatAtomicU64::new(0),
        }
    }

    /// Loads the current snapshot. Never blocks on a publisher: the
    /// fallible paths (`try_read` miss, re-validation miss) only occur
    /// while a publication is moving `current` forward, and the retry
    /// then reads the *newer* publication.
    pub fn load(&self) -> Arc<Snapshot> {
        loop {
            // ordering: pairs with the release store in `publish` — a
            // reader that sees the new word sees the written slot.
            let cur = self.current.load(Ordering::Acquire);
            let slot = (cur & SLOT_MASK) as usize;
            if let Ok(guard) = self.slots[slot].try_read() {
                // The slot lock is held, so the writer cannot be
                // mid-overwrite; if `current` still names this slot,
                // the guarded Arc is exactly that publication.
                // ordering: re-validation load must observe at least
                // the word the first load saw (same-location coherence
                // keeps the packed seq ABA-proof).
                if self.current.load(Ordering::Acquire) == cur {
                    return Arc::clone(&guard);
                }
            }
            self.reader_spins
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            hint::spin_loop();
        }
    }

    /// The epoch of the current snapshot (convenience for stats).
    pub fn epoch(&self) -> u64 {
        self.load().epoch()
    }

    /// Number of publications since the cell was created.
    pub fn publications(&self) -> u64 {
        // ordering: pairs with the release store in `publish` so the
        // count reflects a fully published snapshot.
        self.current.load(Ordering::Acquire) >> SLOT_BITS
    }

    /// Times a reader's [`SnapshotCell::load`] retried (`try_read`
    /// miss or re-validation miss). Observability only; surfaced in
    /// the server's `STATS` reply.
    pub fn reader_spins(&self) -> u64 {
        self.reader_spins.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Times [`SnapshotCell::publish`] spun on `try_write` waiting out
    /// a straggling reader. Observability only; surfaced in `STATS`.
    pub fn publish_retries(&self) -> u64 {
        self.publish_retries
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Publishes `snapshot` as the new current snapshot.
    ///
    /// Writes the slot that is not current (readers keep loading the
    /// current one meanwhile), dropping the snapshot published before
    /// the current one, and advances `current` with a release store, so
    /// any reader that observes the new word also observes the fully
    /// written slot.
    pub fn publish(&self, snapshot: Arc<Snapshot>) {
        let _serialize = self
            .publish_lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let cur = self.current.load(Ordering::Relaxed);
        let seq = cur >> SLOT_BITS;
        let next_slot = ((cur & SLOT_MASK) as usize + 1) % SLOTS;
        // Readers only touch the slot `current` names; this one left
        // currency one publication ago, so the write lock is free
        // modulo a reader that raced `current` moving and is about to
        // fail its re-validation. Spin it out.
        let mut guard = loop {
            match self.slots[next_slot].try_write() {
                Ok(guard) => break guard,
                Err(_) => {
                    self.publish_retries
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    hint::spin_loop();
                }
            }
        };
        *guard = snapshot;
        drop(guard);
        // ordering: the publish edge — any reader that observes the
        // new word also observes the fully written slot. The
        // `cell.publish.release` mutation site weakens this to Relaxed
        // under the model checker to prove the checker has teeth.
        let publish = crate::sync::mutation_ordering("cell.publish.release", Ordering::Release);
        self.current
            .store(((seq + 1) << SLOT_BITS) | next_slot as u64, publish);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use tecore_core::pipeline::Engine;
    use tecore_kg::UtkGraph;
    use tecore_logic::LogicProgram;
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
    fn load_returns_the_published_snapshot() {
        let cell = SnapshotCell::new(snapshot_at_epoch(0));
        assert_eq!(cell.load().epoch(), 0);
        cell.publish(snapshot_at_epoch(3));
        assert_eq!(cell.load().epoch(), 3);
        assert_eq!(cell.publications(), 1);
    }

    #[test]
    fn publications_wrap_the_ring() {
        let cell = SnapshotCell::new(snapshot_at_epoch(0));
        for n in 1..=(2 * SLOTS as u64 + 3) {
            cell.publish(snapshot_at_epoch(n));
            assert_eq!(cell.load().epoch(), n);
        }
        assert_eq!(cell.publications(), 2 * SLOTS as u64 + 3);
    }

    /// The cell holds on to the current snapshot and the one before it,
    /// nothing older: a snapshot is a whole resolved graph plus index.
    #[test]
    fn only_the_last_two_publications_stay_alive() {
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
            assert_eq!(alive, [n - 1, n], "after {n} publications");
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
