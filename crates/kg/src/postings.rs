//! Start-sorted interval runs in one arena: the layout of the
//! grounder's posting families and of the resolved view's
//! [`GraphTemporalIndex`](crate::GraphTemporalIndex).
//!
//! A [`Postings`] family files [`Posting`]s under keys; the entries of
//! one key are its *run*, all runs share one arena, and a key maps to
//! `(offset, len, cap)`. Invariants, held by
//! `tests/postings_conformance.rs` here and in `tecore-ground`:
//!
//! * **run order** — a run is sorted by `(start, end, id)`, and every
//!   entry carries the running maximum of `end` over the run up to it,
//!   so the entries meeting a time window are found by one binary search
//!   and a scan that stops at the first later start ([`reaching`];
//!   [`overlapping`] walks the same entries latest start first);
//! * **capacity doubling** — a bulk build ([`Postings::bulk`]) lays the
//!   runs out back to back and tight, in key order. A
//!   [`Postings::patch`] that outgrows its run first moves the run to
//!   the tail of the arena with twice the capacity (or what the patch
//!   needs, if that is more), so a patch costs O(run + patch), never
//!   O(family), and under inserts alone `Σ cap ≤ 2 × entries`;
//! * **a tail run grows in place** — a full run that ends where the
//!   arena ends is grown where it is, by what the patch needs (the
//!   arena's own growth is amortised), and leaves nothing behind: a
//!   family of one run never has a hole;
//! * **dead-space bound** — the slots inside no run's capacity (what
//!   relocated runs, and runs a patch empties, leave behind) never
//!   outnumber the entries, and the arena never holds more than three
//!   slots per entry. The patch that would break either rewrites the
//!   arena without holes, every capacity cut to at most twice its run
//!   (amortised over the edits that made the dead space). A run a
//!   patch empties leaves the directory.

use std::hash::Hash;

use tecore_temporal::{Interval, TimePoint};

use crate::fxhash::FxHashMap;

/// One entry of a run: everything a probe reads about a candidate, so
/// it is judged without leaving the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting<I, T> {
    /// The entry's validity interval.
    pub interval: Interval,
    /// Largest `end` among the entries of the run up to and including
    /// this one (what lets a window probe skip the run's past).
    max_end: TimePoint,
    /// What the entry stands for: an atom, a fact.
    pub id: I,
    /// The column the run's key leaves open (`()` when there is none).
    pub third: T,
}

impl<I: Copy, T> Posting<I, T> {
    /// An entry; its running maximum is set when a run takes it in.
    pub fn new(interval: Interval, id: I, third: T) -> Self {
        Posting {
            interval,
            max_end: TimePoint::MIN,
            id,
            third,
        }
    }

    /// The run order: `(start, end, id)`.
    fn order(&self) -> (Interval, I) {
        (self.interval, self.id)
    }
}

/// The entries of `run` that can intersect the window `w`, plus the
/// ones between them that end before it, earliest start first: skips
/// the prefix no entry of which reaches `w` and stops at the first
/// entry starting after it.
pub fn reaching<I, T>(run: &[Posting<I, T>], w: Interval) -> impl Iterator<Item = &Posting<I, T>> {
    let from = run.partition_point(|e| e.max_end < w.start());
    run[from..]
        .iter()
        .take_while(move |e| e.interval.start() <= w.end())
}

/// The entries of `run` that intersect `window`, latest start first
/// (see [`OverlapIter`]).
pub fn overlapping<I, T>(run: &[Posting<I, T>], window: Interval) -> OverlapIter<'_, I, T> {
    OverlapIter {
        pos: run.partition_point(|e| e.interval.start() <= window.end()),
        run,
        from: window.start(),
    }
}

/// Zero-allocation iterator over the entries of a run intersecting a
/// window, latest start first: from the last entry starting inside the
/// window back to where no earlier entry can reach it.
#[derive(Debug, Clone)]
pub struct OverlapIter<'a, I, T> {
    run: &'a [Posting<I, T>],
    /// One past the next entry to visit (0 when done).
    pos: usize,
    /// The window's start.
    from: TimePoint,
}

impl<'a, I, T> Iterator for OverlapIter<'a, I, T> {
    type Item = &'a Posting<I, T>;

    fn next(&mut self) -> Option<&'a Posting<I, T>> {
        while self.pos > 0 {
            let e = &self.run[self.pos - 1];
            if e.max_end < self.from {
                // No earlier entry reaches the window either.
                break;
            }
            self.pos -= 1;
            if e.interval.end() >= self.from {
                return Some(e);
            }
        }
        None
    }
}

/// Where a run lives in its family's arena.
#[derive(Debug, Clone, Copy, Default)]
struct Run {
    offset: u32,
    len: u32,
    cap: u32,
}

impl Run {
    fn live(self) -> std::ops::Range<usize> {
        self.offset as usize..(self.offset + self.len) as usize
    }
}

fn slot(at: usize) -> u32 {
    u32::try_from(at).expect("posting arena overflow")
}

/// A family of runs in one arena, filed under keys of type `K`; see
/// the module docs for the invariants.
#[derive(Debug, Clone)]
pub struct Postings<K, I, T> {
    runs: FxHashMap<K, Run>,
    arena: Vec<Posting<I, T>>,
    /// Entries over all runs.
    entries: usize,
    /// Arena slots inside no run's capacity.
    holes: usize,
}

impl<K, I, T> Default for Postings<K, I, T> {
    fn default() -> Self {
        Postings {
            runs: FxHashMap::default(),
            arena: Vec::new(),
            entries: 0,
            holes: 0,
        }
    }
}

impl<K: Copy + Ord + Hash, I: Copy + Ord, T: Copy> Postings<K, I, T> {
    /// Files `keyed` in bulk: one sort, then the runs back to back,
    /// tight, in key order.
    pub fn bulk(mut keyed: Vec<(K, Posting<I, T>)>) -> Self {
        keyed.sort_unstable_by_key(|(key, e)| (*key, e.order()));
        Postings::from_sorted(keyed)
    }

    /// [`Postings::bulk`] of entries already grouped by key, each group
    /// in run order. They are collected into the arena in place (std
    /// reuses the allocation), so a build holds no second copy.
    pub fn from_sorted(keyed: Vec<(K, Posting<I, T>)>) -> Self {
        let runs: Vec<(K, usize)> = keyed
            .chunk_by(|a, b| a.0 == b.0)
            .map(|group| (group[0].0, group.len()))
            .collect();
        Postings::from_runs(keyed.into_iter().map(|(_, e)| e).collect(), runs)
    }

    /// The family whose arena is `arena` as it lies: runs back to back,
    /// each in run order, with the keys and lengths `runs` lists in
    /// arena order.
    pub fn from_runs(mut arena: Vec<Posting<I, T>>, runs: Vec<(K, usize)>) -> Self {
        let mut directory = FxHashMap::with_capacity_and_hasher(runs.len(), Default::default());
        let mut at = 0;
        for (key, len) in runs.into_iter().filter(|&(_, len)| len > 0) {
            repair(&mut arena[at..][..len], 0, usize::MAX);
            let (offset, len, cap) = (slot(at), slot(len), slot(len));
            directory.insert(key, Run { offset, len, cap });
            at += len as usize;
        }
        Postings {
            runs: directory,
            entries: arena.len(),
            arena,
            holes: 0,
        }
    }

    /// The run filed under `key` (empty when there is none).
    pub fn run(&self, key: K) -> &[Posting<I, T>] {
        self.runs
            .get(&key)
            .map_or(&[], |run| &self.arena[run.live()])
    }

    /// Every run with its key, in no particular order.
    pub fn runs(&self) -> impl Iterator<Item = (K, &[Posting<I, T>])> {
        self.runs
            .iter()
            .map(|(&key, run)| (key, &self.arena[run.live()]))
    }

    /// Takes `gone` out of the run of `key` and puts `new` in, in run
    /// order: one forward pass closes the removals' gaps, one backward
    /// merge opens the insertions' slots (neither moves an entry of the
    /// run's tail twice), and the running maximum is repaired from the
    /// first slot touched until it agrees with what is stored. Entries
    /// of `gone` that are not in the run (same interval and id) are
    /// ignored. A one-entry insert is this call with one `new` entry.
    pub fn patch(&mut self, key: K, gone: &mut [Posting<I, T>], new: &mut [Posting<I, T>]) {
        gone.sort_unstable_by_key(Posting::order);
        new.sort_unstable_by_key(Posting::order);
        let mut run = self.runs.get(&key).copied().unwrap_or_default();
        // The first slot touched, and the slot from which on the
        // entries are the ones they were, in the order they were.
        let (mut first, mut settled) = (usize::MAX, 0);

        // `slots[..write]` are final, `slots[read..]` not yet looked at.
        let slots = &mut self.arena[run.live()];
        let (mut read, mut write) = (0, 0);
        for g in gone.iter() {
            let at = read + slots[read..].partition_point(|e| e.order() < g.order());
            if slots.get(at).is_none_or(|e| e.order() != g.order()) {
                continue;
            }
            if write < read {
                slots.copy_within(read..at, write);
            }
            write += at - read;
            read = at + 1;
            (first, settled) = (first.min(write), write);
        }
        let len = slots.len();
        if write < read {
            slots.copy_within(read..len, write);
        }
        let kept = len - (read - write);

        if let Some(&filler) = new.first() {
            let needed = kept + new.len();
            if needed > run.cap as usize {
                let cap = if run.offset as usize + run.cap as usize == self.arena.len() {
                    needed
                } else {
                    let offset = self.arena.len();
                    self.arena
                        .extend_from_within(run.offset as usize..run.offset as usize + kept);
                    self.holes += run.cap as usize;
                    run.offset = slot(offset);
                    needed.max(2 * run.cap as usize).max(2)
                };
                run.cap = slot(cap);
                self.arena.resize(run.offset as usize + cap, filler);
            }
            let slots = &mut self.arena[run.offset as usize..][..needed];
            let last = slots[..kept].partition_point(|e| e.order() < new[new.len() - 1].order());
            let mut end = kept;
            for (j, e) in new.iter().enumerate().rev() {
                let at = slots[..end].partition_point(|x| x.order() < e.order());
                slots.copy_within(at..end, at + j + 1);
                slots[at + j] = *e;
                end = at;
            }
            (first, settled) = (first.min(end), settled.max(last) + new.len());
        }
        if first == usize::MAX {
            return;
        }
        run.len = slot(kept + new.len());
        self.entries = self.entries + new.len() - (len - kept);
        if run.len == 0 {
            self.runs.remove(&key);
            self.holes += run.cap as usize;
        } else {
            repair(&mut self.arena[run.live()], first, settled);
            self.runs.insert(key, run);
        }
        if self.holes > self.entries || self.arena.len() > 3 * self.entries {
            self.compact();
        }
    }

    /// `(entries, arena slots, dead slots)`: what the space bounds hold.
    pub fn space(&self) -> (usize, usize, usize) {
        (self.entries, self.arena.len(), self.holes)
    }

    /// Arena slots allocated, in use or not.
    pub fn capacity(&self) -> usize {
        self.arena.capacity()
    }

    /// Rewrites the arena without holes, runs in their present order,
    /// every capacity cut to at most twice its run.
    fn compact(&mut self) {
        let mut runs: Vec<&mut Run> = self.runs.values_mut().collect();
        runs.sort_unstable_by_key(|run| run.offset);
        let mut arena = Vec::with_capacity(2 * self.entries);
        for run in runs {
            let from = run.offset as usize;
            run.offset = slot(arena.len());
            run.cap = run.cap.min(run.len.saturating_mul(2));
            // Spare capacity comes along as it is: those slots are
            // never read.
            arena.extend_from_slice(&self.arena[from..][..run.cap as usize]);
        }
        self.arena = arena;
        self.holes = 0;
    }
}

/// Sets the running maximum of `end` over `run` from `first` on. Past
/// `settled` the entries are the ones they were, in the order they
/// were, so the pass stops where what it computes agrees with what is
/// stored.
fn repair<I, T>(run: &mut [Posting<I, T>], first: usize, settled: usize) {
    let mut running = first
        .checked_sub(1)
        .map_or(TimePoint::MIN, |p| run[p].max_end);
    for (at, e) in run.iter_mut().enumerate().skip(first) {
        running = running.max(e.interval.end());
        if at >= settled && e.max_end == running {
            return;
        }
        e.max_end = running;
    }
}

impl<K: Copy + Ord + Hash, I: Copy + Ord, T: Copy + PartialEq> PartialEq for Postings<K, I, T> {
    /// The same keys hold the same runs, wherever they lie in the arena.
    fn eq(&self, other: &Self) -> bool {
        let same = |&key: &K| self.run(key) == other.run(key);
        self.runs.len() == other.runs.len() && self.runs.keys().all(same)
    }
}

impl<K: Copy + Ord + Hash, I: Copy + Ord, T: Copy + Eq> Eq for Postings<K, I, T> {}
