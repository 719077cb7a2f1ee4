//! The temporal index of a resolved view.
//!
//! The snapshot query layer asks "which facts — of predicate p, of
//! subject s, or at all — intersect this window?", and "which facts of
//! subject s, or of predicate p, are there?". A [`GraphTemporalIndex`]
//! answers the first in `O(log n + answers)` per run and the second in
//! the run's length, from two families of start-sorted [`Postings`]
//! runs over one graph: one run per predicate, one per subject. A
//! window with no term walks every predicate run. A cold view builds
//! them from one sort; a view carried from one snapshot to the next is
//! patched ([`GraphTemporalIndex::patch`]), not rebuilt.

use crate::dict::Symbol;
use crate::fact::{FactId, TemporalFact};
use crate::fxhash::FxHashMap;
use crate::graph::UtkGraph;
use crate::postings::{Posting, Postings};

/// An entry of a [`GraphTemporalIndex`] run: a fact and its interval.
pub type Entry = Posting<FactId, ()>;

/// Temporal secondary indexes over one graph: one run per predicate and
/// one per subject — the only by-term index of a resolved view, for
/// "facts of subject s or predicate p, *valid at time t*" or at any
/// time. All lookups are `&self`, so any number of reader threads can
/// share it. Two indexes are equal when the same keys hold the same
/// runs, wherever the runs lie in their arenas.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphTemporalIndex {
    by_predicate: Postings<Symbol, FactId, ()>,
    by_subject: Postings<Symbol, FactId, ()>,
    /// The keys of `by_predicate`, ascending.
    predicates: Vec<Symbol>,
}

impl GraphTemporalIndex {
    /// Builds both families over every live fact of `graph` from one
    /// sort: the facts in run order, taken apart by a stable counting
    /// sort by symbol into the runs of each family (each still in run
    /// order, the runs in key order).
    pub fn build(graph: &UtkGraph) -> Self {
        let mut sorted: Vec<(Entry, [Symbol; 2])> = graph
            .iter()
            .map(|(id, f)| (Posting::new(f.interval, id, ()), [f.predicate, f.subject]))
            .collect();
        sorted.sort_unstable_by_key(|(e, _)| (e.interval, e.id));
        let [(by_predicate, predicates), (by_subject, _)] = [0, 1].map(|k| {
            let symbols = graph.dict().len();
            let mut at = vec![0usize; symbols + 1];
            for (_, keys) in &sorted {
                at[keys[k].index() + 1] += 1;
            }
            let runs: Vec<(Symbol, usize)> = (0..symbols)
                .filter(|&s| at[s + 1] > 0)
                .map(|s| (Symbol(s as u32), at[s + 1]))
                .collect();
            let run_keys = runs.iter().map(|&(s, _)| s).collect();
            for s in 1..symbols {
                at[s] += at[s - 1];
            }
            let mut arena: Vec<Entry> = sorted.iter().map(|&(e, _)| e).collect();
            for &(e, keys) in &sorted {
                arena[at[keys[k].index()]] = e;
                at[keys[k].index()] += 1;
            }
            (Postings::from_runs(arena, runs), run_keys)
        });
        GraphTemporalIndex {
            by_predicate,
            by_subject,
            predicates,
        }
    }

    /// Applies a batch of removed and added facts (with their ids in
    /// the indexed graph): every run the batch names takes one
    /// [`Postings::patch`].
    pub fn patch(&mut self, removed: &[(FactId, TemporalFact)], added: &[(FactId, TemporalFact)]) {
        patch_by(&mut self.by_predicate, |f| f.predicate, [removed, added]);
        patch_by(&mut self.by_subject, |f| f.subject, [removed, added]);
        for p in removed.iter().chain(added).map(|(_, f)| f.predicate) {
            let has_run = !self.predicate(p).is_empty();
            match self.predicates.binary_search(&p) {
                Ok(at) if !has_run => drop(self.predicates.remove(at)),
                Err(at) if has_run => self.predicates.insert(at, p),
                _ => {}
            }
        }
    }

    /// The run of the facts with predicate `p` (empty if there is none).
    pub fn predicate(&self, p: Symbol) -> &[Entry] {
        self.by_predicate.run(p)
    }

    /// The predicates that have a run, ascending.
    pub fn predicates(&self) -> &[Symbol] {
        &self.predicates
    }

    /// The run of the facts with subject `s`.
    pub fn subject(&self, s: Symbol) -> &[Entry] {
        self.by_subject.run(s)
    }
}

/// Patches a family filed under `key`, one run at a time.
fn patch_by(
    family: &mut Postings<Symbol, FactId, ()>,
    key: fn(&TemporalFact) -> Symbol,
    edits: [&[(FactId, TemporalFact)]; 2],
) {
    let mut runs: FxHashMap<Symbol, [Vec<Entry>; 2]> = FxHashMap::default();
    for (side, edits) in edits.into_iter().enumerate() {
        for (id, f) in edits {
            runs.entry(key(f)).or_default()[side].push(Posting::new(f.interval, *id, ()));
        }
    }
    for (key, [mut gone, mut new]) in runs {
        family.patch(key, &mut gone, &mut new);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postings::{overlapping, reaching};
    use proptest::prelude::*;
    use tecore_temporal::Interval;

    fn iv(a: i64, b: i64) -> Interval {
        Interval::new(a, b).unwrap()
    }

    fn spell(id: u32, (a, b): (i64, i64)) -> Entry {
        Posting::new(iv(a, b), FactId(id), ())
    }

    /// A family of one run over `items`: what every run of the index is.
    fn one_run(items: &[(u32, (i64, i64))]) -> Postings<(), FactId, ()> {
        Postings::bulk(items.iter().map(|&(id, at)| ((), spell(id, at))).collect())
    }

    fn ids<'a>(entries: impl Iterator<Item = &'a Entry>) -> Vec<FactId> {
        entries.map(|e| e.id).collect()
    }

    const SPELLS: [(u32, (i64, i64)); 4] = [
        (0, (2000, 2004)),
        (1, (2015, 2017)),
        (2, (2001, 2003)),
        (3, (1984, 1986)),
    ];

    #[test]
    fn overlap_queries() {
        let family = one_run(&SPELLS);
        let run = family.run(());
        let mut hits = ids(overlapping(run, iv(2000, 2004)));
        hits.sort();
        assert_eq!(hits, vec![FactId(0), FactId(2)]);
        assert_eq!(overlapping(run, iv(1990, 1999)).count(), 0);
        assert_eq!(overlapping(run, iv(1900, 2100)).count(), 4);
    }

    #[test]
    fn stabbing_query() {
        let family = one_run(&[(0, (2000, 2004)), (1, (2003, 2010))]);
        let run = family.run(());
        let mut hits = ids(overlapping(run, Interval::at(2003)));
        hits.sort();
        assert_eq!(hits, vec![FactId(0), FactId(1)]);
        assert_eq!(overlapping(run, Interval::at(2011)).count(), 0);
    }

    /// The entries of the predicate runs and of the subject runs: each
    /// family files every indexed fact once.
    fn totals(idx: &GraphTemporalIndex) -> [usize; 2] {
        [&idx.by_predicate, &idx.by_subject].map(|family| family.space().0)
    }

    #[test]
    fn empty_index() {
        let idx = GraphTemporalIndex::build(&UtkGraph::new());
        assert_eq!(totals(&idx), [0, 0]);
        assert!(idx.predicates().is_empty());
        assert_eq!(idx, GraphTemporalIndex::default());
    }

    fn arb_items() -> impl Strategy<Value = Vec<(u32, (i64, i64))>> {
        prop::collection::vec((0u32..1000, (-50i64..50, 0i64..20)), 0..60).prop_map(|v| {
            v.into_iter()
                .enumerate()
                .map(|(i, (_, (s, l)))| (i as u32, (s, s + l)))
                .collect()
        })
    }

    /// The descending-start iterator the query layer holds yields what
    /// the ascending probe the grounder uses admits, in reverse.
    #[test]
    fn iterator_matches_collecting_api() {
        let family = one_run(&SPELLS);
        let run = family.run(());
        let window = iv(2000, 2004);
        let mut probed = ids(reaching(run, window).filter(|e| e.interval.intersects(window)));
        probed.reverse();
        assert_eq!(ids(overlapping(run, window)), probed);
        assert_eq!(ids(overlapping(run, Interval::at(2016))), vec![FactId(1)]);
        // Descending start order, early termination included.
        let all = ids(overlapping(run, iv(1900, 2100)));
        assert_eq!(all, vec![FactId(1), FactId(2), FactId(0), FactId(3)]);
        assert_eq!(overlapping(run, iv(1990, 1999)).count(), 0);
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
        assert_eq!(totals(&idx), [3, 3], "tombstoned fact not indexed");
        let coach = g.dict().lookup("coach").unwrap();
        let plays = g.dict().lookup("playsFor").unwrap();
        let cr = g.dict().lookup("CR").unwrap();
        assert_eq!(idx.predicate(coach).len(), 2);
        assert_eq!(
            overlapping(idx.predicate(plays), Interval::at(2000)).count(),
            1
        );
        assert_eq!(idx.subject(cr).len(), 2);
        assert!(idx.predicate(Symbol(999)).is_empty());
        assert!(coach < plays);
        assert_eq!(idx.predicates(), [coach, plays]);
    }

    #[test]
    fn insert_and_remove_repair_the_running_maximum() {
        let mut family = one_run(&[(0, (1, 3)), (1, (5, 6)), (2, (8, 9))]);
        family.patch((), &mut [], &mut [spell(3, (2, 20))]);
        assert_eq!(
            family,
            one_run(&[(0, (1, 3)), (1, (5, 6)), (2, (8, 9)), (3, (2, 20))])
        );
        assert_eq!(ids(overlapping(family.run(()), iv(15, 16))), [FactId(3)]);
        family.patch((), &mut [spell(3, (2, 20))], &mut []);
        assert_eq!(family, one_run(&[(0, (1, 3)), (1, (5, 6)), (2, (8, 9))]));
        assert_eq!(overlapping(family.run(()), iv(15, 16)).count(), 0);
        // Removing what is not there changes nothing.
        family.patch((), &mut [spell(7, (5, 6))], &mut []);
        assert_eq!(family.run(()).len(), 3);
    }

    /// A run at the arena's tail, which grows in place, and one behind
    /// it, which relocates — each patched entry by entry and then with
    /// a batch — against a bulk build, with intervals long enough to
    /// carry the running maximum to the end of a run and short ones
    /// that leave it alone.
    #[test]
    fn patch_equals_bulk_build_on_both_branches() {
        let mut items: Vec<(bool, Entry)> = (0..400)
            .map(|i| {
                (
                    i % 2 == 0,
                    spell(i, (i64::from(i % 97) * 3, i64::from(i % 97 + i % 5) * 3)),
                )
            })
            .collect();
        let mut family = Postings::bulk(items.clone());
        for round in 0..40u32 {
            // One entry out, one in. Every fifth one outlasts everything
            // behind it.
            let (key, gone) = items.remove((round as usize * 37) % items.len());
            let start = i64::from(round * 7 % 290);
            let long = if round % 5 == 0 { 1000 } else { 2 };
            let new = (round % 2 == 0, spell(400 + round, (start, start + long)));
            items.push(new);
            family.patch(key, &mut [gone], &mut []);
            family.patch(new.0, &mut [], &mut [new.1]);
            assert_eq!(family, Postings::bulk(items.clone()), "round {round}");
        }
        // A batch per run: a third of its entries out, fifty in.
        for key in [false, true] {
            let leaves = |&(k, e): &(bool, Entry)| k == key && e.id.0 % 3 == 0;
            let mut gone: Vec<Entry> = items.iter().filter(|i| leaves(i)).map(|i| i.1).collect();
            items.retain(|i| !leaves(i));
            let mut new: Vec<Entry> = (0..50)
                .map(|k| {
                    spell(
                        1000 + u32::from(key) * 50 + k,
                        (i64::from(k * 11 % 300), 300),
                    )
                })
                .collect();
            items.extend(new.iter().map(|&e| (key, e)));
            family.patch(key, &mut gone, &mut new);
            assert_eq!(family, Postings::bulk(items.clone()), "batch on {key}");
        }
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
        /// order, the running maxima, and which runs exist.
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
                        patched.patch(&[], &[(id, *g.fact(id).unwrap())]);
                        live.push_back(id);
                    }
                    None => {
                        if let Some(id) = live.pop_front() {
                            let fact = g.remove(id).unwrap();
                            patched.patch(&[(id, fact)], &[]);
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

        /// A run agrees with the naive scan on every window.
        #[test]
        fn matches_naive_scan(items in arb_items(), ws in -60i64..60, wl in 0i64..30) {
            let window = iv(ws, ws + wl);
            let family = one_run(&items);
            let mut fast = ids(overlapping(family.run(()), window));
            fast.sort();
            let mut naive: Vec<FactId> = items
                .iter()
                .filter(|&&(_, (a, b))| iv(a, b).intersects(window))
                .map(|&(id, _)| FactId(id))
                .collect();
            naive.sort();
            prop_assert_eq!(fast, naive);
        }
    }
}
