//! Interval index for overlap queries.
//!
//! The grounder's joins are hash-based (subject/predicate/object), but
//! analytics — conflict pre-screening, the constraint advisor, graph
//! statistics — need *temporal* access paths: "which facts of predicate
//! p intersect this window?". [`IntervalIndex`] answers that in
//! `O(log n + answers)` using the classic sorted-by-start layout with a
//! running maximum of end points (a flattened static interval tree).
//!
//! The layout is flat but not frozen: [`IntervalIndex::patch`] (and
//! its one-entry forms `insert` / `remove`) edits the sorted array in
//! place — a few entries by binary search and one `memmove` of the tail
//! each, a batch in one merge pass ([`splice`] picks) — and repairs the
//! running maximum only as far as it changed, so a resolved view
//! carried from one snapshot to the next is patched, not rebuilt.

use tecore_temporal::{Interval, TimePoint};

use crate::dict::Symbol;
use crate::fact::{FactId, TemporalFact};
use crate::fxhash::FxHashMap;
use crate::graph::UtkGraph;

/// An index over `(FactId, Interval)` pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalIndex {
    /// Entries sorted by `(start, end, id)`.
    entries: Vec<(FactId, Interval)>,
    /// `max_end[i]` = max end point among `entries[..=i]`.
    max_end: Vec<TimePoint>,
}

impl IntervalIndex {
    /// Builds an index from arbitrary (id, interval) pairs.
    pub fn build<I: IntoIterator<Item = (FactId, Interval)>>(items: I) -> Self {
        let mut entries: Vec<(FactId, Interval)> = items.into_iter().collect();
        entries.sort_unstable_by_key(|&(id, iv)| sort_key(id, iv));
        let mut max_end = Vec::with_capacity(entries.len());
        let mut running = TimePoint::MIN;
        for (_, iv) in &entries {
            running = running.max(iv.end());
            max_end.push(running);
        }
        IntervalIndex { entries, max_end }
    }

    /// Adds one entry (see [`IntervalIndex::patch`]).
    pub fn insert(&mut self, id: FactId, interval: Interval) {
        self.patch(&mut [], &mut [(id, interval)]);
    }

    /// Removes one entry; a no-op when it is not indexed (see
    /// [`IntervalIndex::patch`]).
    pub fn remove(&mut self, id: FactId, interval: Interval) {
        self.patch(&mut [(id, interval)], &mut []);
    }

    /// Applies a batch of removals and insertions: positions come from
    /// binary searches, the sorted array and the running maxima take one
    /// [`splice`] each, and the maxima are recomputed from the first
    /// touched position until, past the last one, they agree with what
    /// is stored — from there on nothing the batch did can show.
    /// Removals of entries that are not indexed are ignored.
    pub fn patch(&mut self, remove: &mut [(FactId, Interval)], insert: &mut [(FactId, Interval)]) {
        let key = |&(id, iv): &(FactId, Interval)| sort_key(id, iv);
        remove.sort_unstable_by_key(key);
        insert.sort_unstable_by_key(key);
        let mut drop: Vec<usize> = remove
            .iter()
            .filter_map(|gone| self.entries.binary_search_by_key(&key(gone), key).ok())
            .collect();
        drop.dedup();
        let add: Vec<(usize, (FactId, Interval))> = insert
            .iter()
            .map(|new| (self.entries.partition_point(|e| key(e) < key(new)), *new))
            .collect();
        let first = drop.first().copied().into_iter();
        let Some(first) = first.chain(add.first().map(|a| a.0)).min() else {
            return;
        };
        // The entries from here on are the ones they were, one for one.
        let untouched = drop.last().map(|p| p + 1).max(add.last().map(|a| a.0));
        let untouched = self.entries.len() - untouched.unwrap_or(first);
        let placeholders = add.iter().map(|&(at, _)| (at, TimePoint::MIN)).collect();
        splice(&mut self.entries, &drop, add);
        splice(&mut self.max_end, &drop, placeholders);
        let settled = self.entries.len() - untouched;
        let mut running = first
            .checked_sub(1)
            .map_or(TimePoint::MIN, |p| self.max_end[p]);
        for at in first..self.entries.len() {
            running = running.max(self.entries[at].1.end());
            if at >= settled && self.max_end[at] == running {
                break;
            }
            self.max_end[at] = running;
        }
    }

    /// Number of indexed intervals.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The indexed `(id, interval)` entries, sorted by interval start.
    pub fn entries(&self) -> &[(FactId, Interval)] {
        &self.entries
    }

    /// All facts whose interval intersects `window` (descending start
    /// order — sort if you need another order).
    pub fn overlapping(&self, window: Interval) -> Vec<FactId> {
        self.iter_overlapping(window).collect()
    }

    /// Zero-allocation iterator over facts intersecting `window`, in
    /// descending start order.
    ///
    /// This is the hot access path of the snapshot query layer: a query
    /// holds the iterator on its stack and never materialises a
    /// `Vec<FactId>` of candidates.
    pub fn iter_overlapping(&self, window: Interval) -> OverlapIter<'_> {
        // Entries with start > window.end can never intersect: binary
        // search the upper bound, then walk backwards. The max_end
        // prefix lets iteration stop as soon as no earlier entry can
        // still reach the window.
        let hi = self
            .entries
            .partition_point(|(_, iv)| iv.start() <= window.end());
        OverlapIter {
            index: self,
            window_start: window.start(),
            pos: hi,
        }
    }

    /// Facts whose interval contains the time point (descending start
    /// order).
    pub fn stabbing(&self, t: TimePoint) -> Vec<FactId> {
        self.iter_stabbing(t).collect()
    }

    /// Zero-allocation iterator over facts whose interval contains `t`.
    pub fn iter_stabbing(&self, t: TimePoint) -> OverlapIter<'_> {
        self.iter_overlapping(Interval::at(t))
    }

    /// Counts pairwise-intersecting pairs among the indexed intervals —
    /// the quantity behind conflict-density estimates. `O(n log n + k)`.
    pub fn count_overlapping_pairs(&self) -> usize {
        // Sweep by start; active = intervals whose end >= current start.
        let mut count = 0usize;
        let mut active: Vec<TimePoint> = Vec::new(); // min-heap substitute
        for (_, iv) in &self.entries {
            active.retain(|&end| end >= iv.start());
            count += active.len();
            active.push(iv.end());
        }
        count
    }
}

/// One pass over a vector's tail handles an entry in about the time
/// `memmove` moves this many.
const PASS_COST: usize = 4;

/// Edits a vector by position: drops the entries at `drop` (ascending,
/// distinct) and inserts each `add` entry before the entry at its
/// position (ascending; equal positions keep their order; `len()`
/// appends). Every position is one of `items` as passed in.
///
/// A handful of edits in a long vector cost one `memmove` of the tail
/// behind each; a batch costs one pass from the first touched position
/// on. Which, is decided from how many entries each way would move.
pub fn splice<T>(items: &mut Vec<T>, drop: &[usize], mut add: Vec<(usize, T)>) {
    let first = drop.first().copied().into_iter();
    let Some(first) = first.chain(add.first().map(|a| a.0)).min() else {
        return;
    };
    let len = items.len();
    let shifted: usize = drop.iter().map(|at| len - at).sum::<usize>()
        + add.iter().map(|(at, _)| len - at).sum::<usize>()
        + add.len() * add.len();
    if shifted <= PASS_COST * (len - first + add.len()) {
        // Back to front, so the positions ahead stay what they were.
        let mut drop = drop.iter().rev().peekable();
        while let Some(&(at, _)) = add.last() {
            while let Some(gone) = drop.next_if(|&&gone| gone >= at) {
                items.remove(*gone);
            }
            let (at, new) = add.pop().expect("peeked above");
            items.insert(at, new);
        }
        for gone in drop {
            items.remove(*gone);
        }
        return;
    }
    let tail = items.split_off(first);
    let (mut drop, mut add) = (drop.iter().peekable(), add.into_iter().peekable());
    for (at, item) in (first..).zip(tail) {
        while let Some((_, new)) = add.next_if(|(to, _)| *to == at) {
            items.push(new);
        }
        if drop.next_if(|&&gone| gone == at).is_none() {
            items.push(item);
        }
    }
    items.extend(add.map(|(_, new)| new));
}

/// The total order of index entries: ties on the interval are broken
/// by id, so an index patched entry by entry equals one built in bulk.
fn sort_key(id: FactId, iv: Interval) -> (TimePoint, TimePoint, FactId) {
    (iv.start(), iv.end(), id)
}

/// Zero-allocation iterator over the facts of an [`IntervalIndex`]
/// intersecting a window (see [`IntervalIndex::iter_overlapping`]).
///
/// Yields in descending start order; terminates early through the
/// running-maximum-of-ends prefix.
#[derive(Debug, Clone)]
pub struct OverlapIter<'a> {
    index: &'a IntervalIndex,
    window_start: TimePoint,
    /// One past the next candidate position (walks downward; 0 = done).
    pos: usize,
}

impl Iterator for OverlapIter<'_> {
    type Item = FactId;

    fn next(&mut self) -> Option<FactId> {
        while self.pos > 0 {
            let i = self.pos - 1;
            if self.index.max_end[i] < self.window_start {
                // No earlier entry can reach the window either.
                self.pos = 0;
                return None;
            }
            self.pos -= 1;
            let (id, iv) = self.index.entries[i];
            if iv.end() >= self.window_start {
                return Some(id);
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.pos))
    }
}

/// Temporal secondary indexes over one graph: a global interval index
/// plus per-predicate and per-subject sub-indexes.
///
/// This is the read-side companion of [`UtkGraph`]'s hash indexes: the
/// hash indexes answer "facts with predicate p", these answer "facts
/// with predicate p *valid at time t / intersecting window w*" in
/// `O(log n + answers)` instead of a full predicate scan. Snapshots of
/// resolved KGs build one per materialised graph; all lookups are
/// `&self`, so any number of reader threads can share it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphTemporalIndex {
    all: IntervalIndex,
    by_predicate: FxHashMap<Symbol, IntervalIndex>,
    by_subject: FxHashMap<Symbol, IntervalIndex>,
}

impl GraphTemporalIndex {
    /// Builds the index set over every live fact of `graph`.
    pub fn build(graph: &UtkGraph) -> Self {
        let mut all = Vec::with_capacity(graph.len());
        let mut by_predicate: FxHashMap<Symbol, Vec<(FactId, Interval)>> = FxHashMap::default();
        let mut by_subject: FxHashMap<Symbol, Vec<(FactId, Interval)>> = FxHashMap::default();
        for (id, fact) in graph.iter() {
            all.push((id, fact.interval));
            by_predicate
                .entry(fact.predicate)
                .or_default()
                .push((id, fact.interval));
            by_subject
                .entry(fact.subject)
                .or_default()
                .push((id, fact.interval));
        }
        GraphTemporalIndex {
            all: IntervalIndex::build(all),
            by_predicate: by_predicate
                .into_iter()
                .map(|(p, items)| (p, IntervalIndex::build(items)))
                .collect(),
            by_subject: by_subject
                .into_iter()
                .map(|(s, items)| (s, IntervalIndex::build(items)))
                .collect(),
        }
    }

    /// Indexes one more fact (`id` is its id in the indexed graph).
    pub fn insert(&mut self, id: FactId, fact: &TemporalFact) {
        self.patch(&[], &[(id, *fact)]);
    }

    /// Drops one fact from every sub-index.
    pub fn remove(&mut self, id: FactId, fact: &TemporalFact) {
        self.patch(&[(id, *fact)], &[]);
    }

    /// Applies a batch of removed and added facts (with their ids in
    /// the indexed graph): the global index and every predicate and
    /// subject sub-index the batch names take one
    /// [`IntervalIndex::patch`] each. A sub-index left empty goes, as
    /// [`GraphTemporalIndex::build`] never creates one.
    pub fn patch(&mut self, removed: &[(FactId, TemporalFact)], added: &[(FactId, TemporalFact)]) {
        type Batch = (Vec<(FactId, Interval)>, Vec<(FactId, Interval)>);
        let mut all = Batch::default();
        let mut by_predicate: FxHashMap<Symbol, Batch> = FxHashMap::default();
        let mut by_subject: FxHashMap<Symbol, Batch> = FxHashMap::default();
        for (id, fact) in removed {
            let entry = (*id, fact.interval);
            all.0.push(entry);
            by_predicate
                .entry(fact.predicate)
                .or_default()
                .0
                .push(entry);
            by_subject.entry(fact.subject).or_default().0.push(entry);
        }
        for (id, fact) in added {
            let entry = (*id, fact.interval);
            all.1.push(entry);
            by_predicate
                .entry(fact.predicate)
                .or_default()
                .1
                .push(entry);
            by_subject.entry(fact.subject).or_default().1.push(entry);
        }
        self.all.patch(&mut all.0, &mut all.1);
        for (indexes, batches) in [
            (&mut self.by_predicate, by_predicate),
            (&mut self.by_subject, by_subject),
        ] {
            for (term, (mut gone, mut new)) in batches {
                let index = indexes.entry(term).or_default();
                index.patch(&mut gone, &mut new);
                if index.is_empty() {
                    indexes.remove(&term);
                }
            }
        }
    }

    /// The index over all facts.
    pub fn all(&self) -> &IntervalIndex {
        &self.all
    }

    /// The sub-index over facts with predicate `p` (`None` when no fact
    /// has that predicate).
    pub fn predicate(&self, p: Symbol) -> Option<&IntervalIndex> {
        self.by_predicate.get(&p)
    }

    /// The sub-index over facts with subject `s`.
    pub fn subject(&self, s: Symbol) -> Option<&IntervalIndex> {
        self.by_subject.get(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn iv(a: i64, b: i64) -> Interval {
        Interval::new(a, b).unwrap()
    }

    fn index(items: &[(u32, (i64, i64))]) -> IntervalIndex {
        IntervalIndex::build(items.iter().map(|&(id, (a, b))| (FactId(id), iv(a, b))))
    }

    #[test]
    fn overlap_queries() {
        let idx = index(&[
            (0, (2000, 2004)),
            (1, (2015, 2017)),
            (2, (2001, 2003)),
            (3, (1984, 1986)),
        ]);
        let mut hits = idx.overlapping(iv(2000, 2004));
        hits.sort();
        assert_eq!(hits, vec![FactId(0), FactId(2)]);
        assert_eq!(idx.overlapping(iv(1990, 1999)), Vec::<FactId>::new());
        let mut all = idx.overlapping(iv(1900, 2100));
        all.sort();
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn stabbing_query() {
        let idx = index(&[(0, (2000, 2004)), (1, (2003, 2010))]);
        let mut hits = idx.stabbing(TimePoint(2003));
        hits.sort();
        assert_eq!(hits, vec![FactId(0), FactId(1)]);
        assert_eq!(idx.stabbing(TimePoint(2011)), Vec::<FactId>::new());
    }

    #[test]
    fn pair_counting() {
        // (0,2) overlap; (0,1) don't; (1,2) don't.
        let idx = index(&[(0, (2000, 2004)), (1, (2015, 2017)), (2, (2001, 2003))]);
        assert_eq!(idx.count_overlapping_pairs(), 1);
        let none = index(&[(0, (1, 2)), (1, (4, 5)), (2, (7, 8))]);
        assert_eq!(none.count_overlapping_pairs(), 0);
        let all = index(&[(0, (1, 10)), (1, (2, 9)), (2, (3, 8))]);
        assert_eq!(all.count_overlapping_pairs(), 3);
    }

    #[test]
    fn empty_index() {
        let idx = IntervalIndex::build(std::iter::empty());
        assert!(idx.is_empty());
        assert!(idx.overlapping(iv(0, 10)).is_empty());
        assert_eq!(idx.count_overlapping_pairs(), 0);
    }

    fn arb_items() -> impl Strategy<Value = Vec<(u32, (i64, i64))>> {
        prop::collection::vec((0u32..1000, (-50i64..50, 0i64..20)), 0..60).prop_map(|v| {
            v.into_iter()
                .enumerate()
                .map(|(i, (_, (s, l)))| (i as u32, (s, s + l)))
                .collect()
        })
    }

    #[test]
    fn iterator_matches_collecting_api() {
        let idx = index(&[
            (0, (2000, 2004)),
            (1, (2015, 2017)),
            (2, (2001, 2003)),
            (3, (1984, 1986)),
        ]);
        let via_iter: Vec<FactId> = idx.iter_overlapping(iv(2000, 2004)).collect();
        assert_eq!(via_iter, idx.overlapping(iv(2000, 2004)));
        let via_stab: Vec<FactId> = idx.iter_stabbing(TimePoint(2016)).collect();
        assert_eq!(via_stab, vec![FactId(1)]);
        // Descending start order, early termination included.
        let all: Vec<FactId> = idx.iter_overlapping(iv(1900, 2100)).collect();
        assert_eq!(all, vec![FactId(1), FactId(2), FactId(0), FactId(3)]);
        assert_eq!(idx.iter_overlapping(iv(1990, 1999)).count(), 0);
    }

    #[test]
    fn graph_temporal_index_routes_by_predicate_and_subject() {
        let mut g = UtkGraph::new();
        g.insert("CR", "coach", "Chelsea", iv(2000, 2004), 0.9)
            .unwrap();
        g.insert("CR", "coach", "Leicester", iv(2015, 2017), 0.7)
            .unwrap();
        let dead = g
            .insert("CR", "playsFor", "Palermo", iv(1984, 1986), 0.5)
            .unwrap();
        g.insert("JT", "playsFor", "Chelsea", iv(1998, 2014), 0.8)
            .unwrap();
        g.remove(dead).unwrap();

        let idx = GraphTemporalIndex::build(&g);
        assert_eq!(idx.all().len(), 3, "tombstoned fact not indexed");
        let coach = g.dict().lookup("coach").unwrap();
        let plays = g.dict().lookup("playsFor").unwrap();
        let cr = g.dict().lookup("CR").unwrap();
        assert_eq!(idx.predicate(coach).unwrap().len(), 2);
        assert_eq!(
            idx.predicate(plays)
                .unwrap()
                .iter_stabbing(TimePoint(2000))
                .count(),
            1
        );
        assert_eq!(idx.subject(cr).unwrap().len(), 2);
        assert!(idx.predicate(Symbol(999)).is_none());
    }

    #[test]
    fn insert_and_remove_repair_the_running_maximum() {
        let mut idx = index(&[(0, (1, 3)), (1, (5, 6)), (2, (8, 9))]);
        idx.insert(FactId(3), iv(2, 20));
        assert_eq!(
            idx,
            index(&[(0, (1, 3)), (1, (5, 6)), (2, (8, 9)), (3, (2, 20))])
        );
        assert_eq!(idx.overlapping(iv(15, 16)), vec![FactId(3)]);
        idx.remove(FactId(3), iv(2, 20));
        assert_eq!(idx, index(&[(0, (1, 3)), (1, (5, 6)), (2, (8, 9))]));
        assert!(idx.overlapping(iv(15, 16)).is_empty());
        // Removing what is not there changes nothing.
        idx.remove(FactId(7), iv(5, 6));
        assert_eq!(idx.len(), 3);
    }

    /// Both ways `patch` can go — a couple of entries spliced into a
    /// long array, and a batch merged in one pass — against a bulk
    /// build, with intervals long enough to carry the running maximum
    /// to the end of the array and short ones that leave it alone.
    #[test]
    fn patch_equals_bulk_build_on_both_branches() {
        let mut items: Vec<(u32, (i64, i64))> = (0..400)
            .map(|i| {
                (
                    i,
                    (
                        i64::from(i % 97) * 3,
                        i64::from(i % 97) * 3 + i64::from(i % 5),
                    ),
                )
            })
            .collect();
        let mut idx = index(&items);
        let mut next = 400u32;
        for round in 0..40u32 {
            // One entry in, one out: spliced. Every fifth one outlasts
            // everything behind it.
            let gone = items.remove((round as usize * 37) % items.len());
            let start = i64::from(round * 7 % 290);
            let new = (next, (start, start + if round % 5 == 0 { 1000 } else { 2 }));
            next += 1;
            items.push(new);
            idx.patch(
                &mut [(FactId(gone.0), iv(gone.1 .0, gone.1 .1))],
                &mut [(FactId(new.0), iv(new.1 .0, new.1 .1))],
            );
            assert_eq!(idx, index(&items), "round {round}");
        }
        // A batch: a quarter of the entries out, as many in.
        let mut gone: Vec<(FactId, Interval)> = Vec::new();
        let mut new: Vec<(FactId, Interval)> = Vec::new();
        for k in 0..100usize {
            let (id, (a, b)) = items.remove((k * 3) % items.len());
            gone.push((FactId(id), iv(a, b)));
            let start = (k as i64 * 11) % 300;
            let entry = (next, (start, start + (k as i64 % 9)));
            next += 1;
            items.push(entry);
            new.push((FactId(entry.0), iv(entry.1 .0, entry.1 .1)));
        }
        idx.patch(&mut gone, &mut new);
        assert_eq!(idx, index(&items));
    }

    /// A random edit script over a small graph: `Some(fact)` inserts,
    /// `None` removes the oldest live fact.
    fn arb_edits() -> impl Strategy<Value = Vec<Option<(u8, u8, i64, i64)>>> {
        prop::collection::vec(
            prop::option::of((0u8..5, 0u8..3, -20i64..20, 0i64..8)),
            0..60,
        )
    }

    proptest! {
        /// Patching the index fact by fact lands on exactly the index a
        /// bulk build of the same graph produces — entries, their
        /// order, the running maxima, and which sub-indexes exist.
        #[test]
        fn patched_index_equals_bulk_build(edits in arb_edits()) {
            let mut g = UtkGraph::new();
            let mut patched = GraphTemporalIndex::build(&g);
            let mut live: std::collections::VecDeque<FactId> = Default::default();
            for edit in edits {
                match edit {
                    Some((s, p, start, len)) => {
                        let id = g
                            .insert(&format!("s{s}"), &format!("p{p}"), "o", iv(start, start + len), 0.9)
                            .unwrap();
                        patched.insert(id, g.fact(id).unwrap());
                        live.push_back(id);
                    }
                    None => {
                        if let Some(id) = live.pop_front() {
                            let fact = g.remove(id).unwrap();
                            patched.remove(id, &fact);
                        }
                    }
                }
                prop_assert_eq!(&patched, &GraphTemporalIndex::build(&g));
            }
            // And the whole script as one batch, from an empty index.
            let added: Vec<(FactId, TemporalFact)> = g.iter().map(|(id, f)| (id, *f)).collect();
            let gone: Vec<(FactId, TemporalFact)> = (0..g.arena_len() as u32)
                .map(FactId)
                .filter(|&id| !g.is_alive(id))
                .map(|id| (id, *g.arena_fact(id).unwrap()))
                .collect();
            let mut batched = GraphTemporalIndex::default();
            batched.patch(&[], &added);
            batched.patch(&[], &gone);
            batched.patch(&gone, &[]);
            prop_assert_eq!(&batched, &GraphTemporalIndex::build(&g));
        }

        /// `splice` against the obvious model; small batches in long
        /// vectors shift, the others take the pass.
        #[test]
        fn splice_matches_the_model(
            len in 0usize..60,
            drop in prop::collection::vec(0usize..60, 0..10),
            add in prop::collection::vec(0usize..61, 0..10),
        ) {
            let items: Vec<usize> = (0..len).collect();
            let mut drop: Vec<usize> = drop.into_iter().filter(|&at| at < len).collect();
            drop.sort_unstable();
            drop.dedup();
            let mut add: Vec<usize> = add.into_iter().map(|at| at.min(len)).collect();
            add.sort_unstable();
            let add: Vec<(usize, usize)> =
                add.into_iter().enumerate().map(|(n, at)| (at, 1000 + n)).collect();
            let mut model = Vec::new();
            for at in 0..=len {
                model.extend(add.iter().filter(|(to, _)| *to == at).map(|(_, new)| *new));
                if at < len && !drop.contains(&at) {
                    model.push(at);
                }
            }
            let mut spliced = items;
            splice(&mut spliced, &drop, add);
            prop_assert_eq!(spliced, model);
        }

        /// The index agrees with the naive scan on every window.
        #[test]
        fn matches_naive_scan(items in arb_items(), ws in -60i64..60, wl in 0i64..30) {
            let window = iv(ws, ws + wl);
            let idx = index(&items);
            let mut fast = idx.overlapping(window);
            fast.sort();
            let mut naive: Vec<FactId> = items
                .iter()
                .filter(|&&(_, (a, b))| iv(a, b).intersects(window))
                .map(|&(id, _)| FactId(id))
                .collect();
            naive.sort();
            prop_assert_eq!(fast, naive);
        }

        /// Pair counting agrees with the quadratic reference.
        #[test]
        fn pair_count_matches_naive(items in arb_items()) {
            let idx = index(&items);
            let mut naive = 0usize;
            for i in 0..items.len() {
                for j in (i + 1)..items.len() {
                    let (a, b) = (items[i].1, items[j].1);
                    if iv(a.0, a.1).intersects(iv(b.0, b.1)) {
                        naive += 1;
                    }
                }
            }
            prop_assert_eq!(idx.count_overlapping_pairs(), naive);
        }
    }
}
