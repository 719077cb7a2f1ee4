//! The uTKG store.

use crate::fxhash::FxHashSet;

use tecore_temporal::Interval;

use crate::delta::{Delta, FactChange};
use crate::dict::{Dictionary, Symbol};
use crate::error::KgError;
use crate::fact::{Confidence, FactId, TemporalFact};

/// An uncertain temporal knowledge graph.
///
/// Facts live in an append-only arena addressed by [`FactId`]; deletion
/// (conflict resolution removes noisy facts) tombstones the slot so ids
/// stay stable. The graph keeps no table per key: an insert is a push,
/// a removal clears a flag. Whoever reads by key builds the index for
/// it — the grounder its atom postings, a resolved view its
/// [`crate::GraphTemporalIndex`] — and the few by-term reads the graph
/// still answers itself ([`UtkGraph::facts_with_predicate`],
/// [`UtkGraph::statement_ids`], [`UtkGraph::predicates`]) walk the live
/// facts. Nor does it keep statistics; [`crate::GraphStats`] counts in
/// one walk when asked.
///
/// The graph also carries a monotonically increasing **epoch** (bumped
/// by every insert/remove) and a change log, so incremental consumers
/// can ask "what changed since epoch e?" ([`UtkGraph::since`], a net
/// [`Delta`]) instead of re-reading the whole graph, and drop the
/// history they have synced past ([`UtkGraph::truncate_log`]).
#[derive(Debug, Default, Clone)]
pub struct UtkGraph {
    dict: Dictionary,
    facts: Vec<TemporalFact>,
    alive: Vec<bool>,
    live_count: usize,
    /// The oldest live slot (`facts.len()` when none is): every slot
    /// below it is a tombstone, so walks over the live facts start
    /// here. Ids are never reused, so it only moves forward — a stream
    /// window's graph, whose arena is mostly expired facts, is walked
    /// in the size of its window.
    first_live: usize,
    /// Bumped on every mutation; `0` for a fresh graph.
    epoch: u64,
    /// Retained change log: `(epoch, change)` pairs, ascending.
    log: Vec<(u64, FactChange)>,
    /// Epoch the retained log starts after (changes at epochs
    /// `<= log_start` have been truncated away).
    log_start: u64,
}

impl UtkGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        UtkGraph::default()
    }

    /// Creates a graph with pre-allocated fact capacity.
    pub fn with_capacity(facts: usize) -> Self {
        UtkGraph {
            facts: Vec::with_capacity(facts),
            alive: Vec::with_capacity(facts),
            ..UtkGraph::default()
        }
    }

    /// The term dictionary.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// Mutable access to the dictionary (for pre-interning).
    pub fn dict_mut(&mut self) -> &mut Dictionary {
        &mut self.dict
    }

    /// Number of live facts.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// Is the graph empty?
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Total arena size including tombstones (== next fresh id).
    pub fn arena_len(&self) -> usize {
        self.facts.len()
    }

    /// Inserts a fact built from strings, interning as needed.
    pub fn insert(
        &mut self,
        subject: &str,
        predicate: &str,
        object: &str,
        interval: Interval,
        confidence: f64,
    ) -> Result<FactId, KgError> {
        let confidence = Confidence::new(confidence)?;
        let s = self.dict.intern(subject);
        let p = self.dict.intern(predicate);
        let o = self.dict.intern(object);
        Ok(self.insert_fact(TemporalFact::new(s, p, o, interval, confidence)))
    }

    /// Inserts a pre-built fact (symbols must come from this graph's
    /// dictionary).
    pub fn insert_fact(&mut self, fact: TemporalFact) -> FactId {
        let id = FactId(self.facts.len() as u32);
        self.facts.push(fact);
        self.alive.push(true);
        self.live_count += 1;
        self.epoch += 1;
        self.record(FactChange::Added(id));
        id
    }

    /// Retained-log bound: beyond this many entries the oldest half is
    /// dropped, so pure batch users (who never drain) pay O(1) memory
    /// per fact only transiently. Incremental consumers that sync more
    /// often than every `LOG_CAP / 2` edits never hit the cap; one that
    /// falls behind sees [`UtkGraph::since`] return `None` and rebuilds.
    const LOG_CAP: usize = 1 << 16;

    fn record(&mut self, change: FactChange) {
        self.log.push((self.epoch, change));
        if self.log.len() > Self::LOG_CAP {
            let drop = self.log.len() / 2;
            self.log_start = self.log[drop - 1].0;
            self.log.drain(..drop);
        }
    }

    /// Fetches a live fact.
    pub fn fact(&self, id: FactId) -> Option<&TemporalFact> {
        if *self.alive.get(id.index())? {
            self.facts.get(id.index())
        } else {
            None
        }
    }

    /// Is the fact still present?
    pub fn is_alive(&self, id: FactId) -> bool {
        self.alive.get(id.index()).copied().unwrap_or(false)
    }

    /// Tombstones a fact (used by conflict resolution).
    pub fn remove(&mut self, id: FactId) -> Result<TemporalFact, KgError> {
        match self.alive.get_mut(id.index()) {
            Some(slot) if *slot => {
                *slot = false;
                self.live_count -= 1;
                if id.index() == self.first_live {
                    self.first_live += self.alive[self.first_live..]
                        .iter()
                        .position(|&alive| alive)
                        .unwrap_or(self.alive.len() - self.first_live);
                }
                let fact = self.facts[id.index()];
                self.epoch += 1;
                self.record(FactChange::Removed(id));
                Ok(fact)
            }
            _ => Err(KgError::UnknownFact(id.0)),
        }
    }

    /// The fact stored in the arena slot, whether live or tombstoned.
    ///
    /// Tombstoning keeps the record, so incremental consumers can still
    /// read the confidence/interval of a fact named in a
    /// [`Delta::removed`] entry.
    pub fn arena_fact(&self, id: FactId) -> Option<&TemporalFact> {
        self.facts.get(id.index())
    }

    /// The graph's current epoch (`0` for a fresh graph; bumped by
    /// every insert and remove).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The net changes since `epoch`, or `None` when that part of the
    /// history has been truncated ([`UtkGraph::truncate_log`]) — the
    /// caller must then rebuild from the full graph.
    pub fn since(&self, epoch: u64) -> Option<Delta> {
        if epoch < self.log_start {
            return None;
        }
        let start = self.log.partition_point(|&(e, _)| e <= epoch);
        Some(Delta::from_changes(
            epoch,
            self.epoch,
            self.log[start..].iter().map(|&(_, c)| c),
        ))
    }

    /// Drops retained changes at epochs `<= epoch` (callers that have
    /// synced up to `epoch` bound the log's memory this way).
    pub fn truncate_log(&mut self, epoch: u64) {
        let epoch = epoch.min(self.epoch);
        if epoch <= self.log_start {
            return;
        }
        let keep_from = self.log.partition_point(|&(e, _)| e <= epoch);
        self.log.drain(..keep_from);
        self.log_start = epoch;
    }

    /// Iterates over `(FactId, &TemporalFact)` for all live facts, in
    /// id order, starting at the oldest live slot.
    pub fn iter(&self) -> impl Iterator<Item = (FactId, &TemporalFact)> {
        let first = self.first_live;
        self.facts[first..]
            .iter()
            .zip(&self.alive[first..])
            .zip(first..)
            .filter(|&((_, &alive), _)| alive)
            .map(|((f, _), i)| (FactId(i as u32), f))
    }

    /// Live facts with the given predicate, in id order. A walk over
    /// the live facts: O(live facts), whatever the predicate's share.
    pub fn facts_with_predicate(&self, p: Symbol) -> impl Iterator<Item = (FactId, &TemporalFact)> {
        self.iter().filter(move |(_, f)| f.predicate == p)
    }

    /// Ids of live facts asserting the statement `(subject, predicate,
    /// object)`, regardless of interval or confidence — the upsert
    /// target set. A walk over the live facts: O(live facts). Unknown
    /// terms yield an empty list (nothing to replace) without interning
    /// them, and without the walk.
    pub fn statement_ids(&self, subject: &str, predicate: &str, object: &str) -> Vec<FactId> {
        let (Some(s), Some(p), Some(o)) = (
            self.dict.lookup(subject),
            self.dict.lookup(predicate),
            self.dict.lookup(object),
        ) else {
            return Vec::new();
        };
        self.iter()
            .filter(|(_, f)| f.triple() == (s, p, o))
            .map(|(id, _)| id)
            .collect()
    }

    /// All distinct predicates with at least one live fact, sorted by
    /// name (for deterministic reporting and auto-completion). A walk
    /// over the live facts: O(live facts).
    pub fn predicates(&self) -> Vec<Symbol> {
        let preds: FxHashSet<Symbol> = self.iter().map(|(_, f)| f.predicate).collect();
        let mut preds: Vec<Symbol> = preds.into_iter().collect();
        preds.sort_unstable_by(|a, b| self.dict.resolve(*a).cmp(self.dict.resolve(*b)));
        preds
    }

    /// Rebuilds a graph from checkpoint data: live facts keyed by their
    /// original arena slot, the original arena length, and the epoch at
    /// which the checkpoint was taken.
    ///
    /// Slots absent from `entries` become tombstones (their fact bodies
    /// are gone — a placeholder fills the arena slot), so surviving ids
    /// keep their positions and the next insert is assigned
    /// `FactId(arena_len)` exactly as it would have been in the
    /// original graph. That id stability is what lets a write-ahead log
    /// replay `Remove(id)` / `Insert(id)` records recorded *after* the
    /// checkpoint against the restored graph.
    ///
    /// `entries` must be in ascending slot order with every slot below
    /// `arena_len`, and `epoch` must be at least `arena_len` (every
    /// insert bumps the epoch, so no real graph violates this).
    pub(crate) fn restore(
        arena_len: usize,
        epoch: u64,
        entries: impl IntoIterator<Item = (u32, crate::parser::RawFact)>,
    ) -> Result<UtkGraph, KgError> {
        if epoch < arena_len as u64 {
            return Err(KgError::Checkpoint(format!(
                "epoch {epoch} below arena length {arena_len}"
            )));
        }
        let mut g = UtkGraph::with_capacity(arena_len);
        for (slot, (s, p, o, interval, confidence)) in entries {
            let slot = slot as usize;
            if slot < g.facts.len() || slot >= arena_len {
                return Err(KgError::Checkpoint(format!(
                    "slot {slot} out of order or beyond arena length {arena_len}"
                )));
            }
            g.fill_tombstones(slot);
            let confidence = Confidence::new(confidence)?;
            let s = g.dict.intern(&s);
            let p = g.dict.intern(&p);
            let o = g.dict.intern(&o);
            g.insert_fact(TemporalFact::new(s, p, o, interval, confidence));
        }
        g.fill_tombstones(arena_len);
        g.first_live = g.alive.iter().position(|&alive| alive).unwrap_or(arena_len);
        g.epoch = epoch;
        g.log.clear();
        g.log_start = epoch;
        Ok(g)
    }

    /// Pads the arena with dead placeholder slots up to `upto`
    /// (restore-only: the placeholders are never live).
    fn fill_tombstones(&mut self, upto: usize) {
        if self.facts.len() >= upto {
            return;
        }
        let ghost = self.dict.intern("");
        let fact = TemporalFact::new(
            ghost,
            ghost,
            ghost,
            Interval::new(0, 0).expect("unit interval is valid"),
            Confidence::CERTAIN,
        );
        while self.facts.len() < upto {
            self.facts.push(fact);
            self.alive.push(false);
        }
    }

    /// Duplicates the graph, retaining only facts for which `keep` holds
    /// (it is asked once per live fact, in id order). Symbols remain
    /// valid (the dictionary is shared by clone), and the kept facts are
    /// renumbered densely in that order: the `k`-th fact kept is
    /// `FactId(k)` of the copy.
    ///
    /// The copy equals the graph that inserting the kept facts one by
    /// one into an empty graph over the same dictionary would give —
    /// facts, ids, epoch — but is a plain copy of the kept facts into
    /// an arena sized for the live ones. The work follows the live
    /// facts, not the arena: a graph that is mostly tombstones (a
    /// stream window's) copies as fast as its live part.
    ///
    /// The copy is a result, not an edit history: its change log starts
    /// empty at its own epoch, so [`UtkGraph::since`] on it answers
    /// `None` for anything earlier and building it records nothing.
    pub fn filtered(&self, mut keep: impl FnMut(FactId, &TemporalFact) -> bool) -> UtkGraph {
        let mut facts = Vec::with_capacity(self.live_count);
        facts.extend(self.iter().filter(|&(id, f)| keep(id, f)).map(|(_, f)| *f));
        let kept = facts.len();
        UtkGraph {
            dict: self.dict.clone(),
            alive: vec![true; kept],
            live_count: kept,
            first_live: 0,
            facts,
            epoch: kept as u64,
            log: Vec::new(),
            log_start: kept as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn iv(a: i64, b: i64) -> Interval {
        Interval::new(a, b).unwrap()
    }

    fn ranieri() -> UtkGraph {
        let mut g = UtkGraph::new();
        g.insert("CR", "coach", "Chelsea", iv(2000, 2004), 0.9)
            .unwrap();
        g.insert("CR", "coach", "Leicester", iv(2015, 2017), 0.7)
            .unwrap();
        g.insert("CR", "playsFor", "Palermo", iv(1984, 1986), 0.5)
            .unwrap();
        g.insert("CR", "birthDate", "1951", iv(1951, 2017), 1.0)
            .unwrap();
        g.insert("CR", "coach", "Napoli", iv(2001, 2003), 0.6)
            .unwrap();
        g
    }

    #[test]
    fn insert_and_query() {
        let g = ranieri();
        assert_eq!(g.len(), 5);
        let coach = g.dict().lookup("coach").unwrap();
        assert_eq!(g.facts_with_predicate(coach).count(), 3);
        assert_eq!(g.statement_ids("CR", "coach", "Chelsea"), [FactId(0)]);
        assert!(g.statement_ids("CR", "coach", "Roma").is_empty());
    }

    #[test]
    fn overlap_query_finds_napoli_clash() {
        let g = ranieri();
        let coach = g.dict().lookup("coach").unwrap();
        // Chelsea spell [2000,2004]: overlapping coach facts are Chelsea
        // itself and Napoli [2001,2003] — the paper's c2 clash — read off
        // the temporal index the query layer scans.
        let index = crate::GraphTemporalIndex::build(&g);
        let mut hits: Vec<&str> = crate::overlapping(index.predicate(coach), iv(2000, 2004))
            .map(|e| g.dict().resolve(g.fact(e.id).unwrap().object))
            .collect();
        hits.sort_unstable();
        assert_eq!(hits, vec!["Chelsea", "Napoli"]);
    }

    #[test]
    fn remove_tombstones() {
        let mut g = ranieri();
        let coach = g.dict().lookup("coach").unwrap();
        let napoli_id = g
            .facts_with_predicate(coach)
            .find(|(_, f)| g.dict().resolve(f.object) == "Napoli")
            .map(|(id, _)| id)
            .unwrap();
        let removed = g.remove(napoli_id).unwrap();
        assert_eq!(g.dict().resolve(removed.object), "Napoli");
        assert_eq!(g.len(), 4);
        assert!(!g.is_alive(napoli_id));
        assert!(g.fact(napoli_id).is_none());
        assert_eq!(g.facts_with_predicate(coach).count(), 2);
        // Double-remove is an error.
        assert!(g.remove(napoli_id).is_err());
        // Ids stay stable.
        assert_eq!(g.arena_len(), 5);
    }

    #[test]
    fn predicates_sorted() {
        let g = ranieri();
        let names: Vec<&str> = g
            .predicates()
            .iter()
            .map(|p| g.dict().resolve(*p))
            .collect();
        assert_eq!(names, vec!["birthDate", "coach", "playsFor"]);
    }

    #[test]
    fn filtered_keeps_subset() {
        let g = ranieri();
        let coach = g.dict().lookup("coach").unwrap();
        let only_coach = g.filtered(|_, f| f.predicate == coach);
        assert_eq!(only_coach.len(), 3);
        // Dictionary shared: symbol still resolves.
        assert_eq!(only_coach.dict().resolve(coach), "coach");
    }

    #[test]
    fn filtered_copy_has_no_history() {
        let g = ranieri();
        let copy = g.filtered(|_, _| true);
        assert_eq!(copy.len(), 5);
        assert!(copy.log.is_empty(), "building the copy records nothing");
        assert!(copy.since(0).is_none(), "no history before its own epoch");
        assert!(copy.since(copy.epoch()).unwrap().is_empty());
        // Edits after the copy are logged as usual.
        let mut copy = copy;
        let at = copy.epoch();
        copy.insert("CR", "coach", "Roma", iv(2019, 2021), 0.8)
            .unwrap();
        assert_eq!(copy.since(at).unwrap().added.len(), 1);
    }

    #[test]
    fn epoch_and_delta_log() {
        let mut g = ranieri();
        assert_eq!(g.epoch(), 5);
        // The full history from epoch 0 is all five inserts.
        let d = g.since(0).unwrap();
        assert_eq!(d.added.len(), 5);
        assert!(d.removed.is_empty());
        assert_eq!((d.from_epoch, d.to_epoch), (0, 5));

        // Take it and drop it, then edit: one remove + one insert.
        let taken = g.since(0).unwrap();
        g.truncate_log(taken.to_epoch);
        assert_eq!(taken.added.len(), 5);
        let coach = g.dict().lookup("coach").unwrap();
        let napoli_id = g
            .facts_with_predicate(coach)
            .find(|(_, f)| g.dict().resolve(f.object) == "Napoli")
            .map(|(id, _)| id)
            .unwrap();
        g.remove(napoli_id).unwrap();
        let new_id = g
            .insert("CR", "coach", "Roma", iv(2019, 2021), 0.8)
            .unwrap();
        let d = g.since(taken.to_epoch).unwrap();
        g.truncate_log(d.to_epoch);
        assert_eq!(d.added, vec![new_id]);
        assert_eq!(d.removed, vec![napoli_id]);
        assert_eq!(d.to_epoch, g.epoch());

        // History before the truncation is gone.
        assert!(g.since(0).is_none());
        assert!(g.since(g.epoch()).unwrap().is_empty());
        // The tombstoned fact record is still readable.
        assert_eq!(
            g.dict().resolve(g.arena_fact(napoli_id).unwrap().object),
            "Napoli"
        );
    }

    #[test]
    fn delta_nets_add_remove_within_window() {
        let mut g = UtkGraph::new();
        let epoch0 = g.epoch();
        let a = g.insert("a", "p", "b", iv(1, 2), 0.5).unwrap();
        let b = g.insert("a", "p", "c", iv(1, 2), 0.5).unwrap();
        g.remove(b).unwrap();
        let d = g.since(epoch0).unwrap();
        assert_eq!(d.added, vec![a]);
        assert!(d.removed.is_empty(), "insert+remove nets out: {d:?}");
    }

    #[test]
    fn change_log_memory_is_bounded() {
        // Batch users who never drain must not accumulate one log entry
        // per fact forever: past LOG_CAP the oldest half is dropped.
        let mut g = UtkGraph::new();
        for i in 0..(UtkGraph::LOG_CAP + 10) {
            g.insert("s", "p", &format!("o{i}"), iv(1, 2), 0.5).unwrap();
        }
        assert!(g.log.len() <= UtkGraph::LOG_CAP);
        assert!(g.since(0).is_none(), "pre-cap history dropped");
        // Recent history is still incrementally consumable.
        let recent = g.since(g.epoch() - 5).unwrap();
        assert_eq!(recent.added.len(), 5);
    }

    #[test]
    fn truncate_log_bounds_history() {
        let mut g = UtkGraph::new();
        g.insert("a", "p", "b", iv(1, 2), 0.5).unwrap();
        let mid = g.epoch();
        g.insert("a", "p", "c", iv(1, 2), 0.5).unwrap();
        g.truncate_log(mid);
        assert!(g.since(0).is_none());
        assert_eq!(g.since(mid).unwrap().added.len(), 1);
    }

    #[test]
    fn rejects_bad_confidence() {
        let mut g = UtkGraph::new();
        assert!(g.insert("a", "b", "c", iv(1, 2), 0.0).is_err());
        assert!(g.insert("a", "b", "c", iv(1, 2), 2.0).is_err());
    }

    proptest! {
        /// The bulk copy is the graph that inserting the kept facts one
        /// by one gives — whatever tombstones the source carries, and
        /// for keep-all and keep-none masks too.
        #[test]
        fn filtered_equals_reinsertion(
            facts in prop::collection::vec(
                (0u8..6, 0u8..4, 0u8..6, -20i64..20, 0i64..10, 1u8..=10),
                0..60
            ),
            removals in prop::collection::vec(0usize..60, 0..20),
            mask in prop::collection::vec(prop::bool::ANY, 1..60),
            mode in 0u8..4,
        ) {
            let mut g = UtkGraph::new();
            for (i, (s, p, o, start, len, conf)) in facts.iter().enumerate() {
                g.insert(
                    &format!("s{s}"),
                    &format!("p{p}"),
                    &format!("o{o}"),
                    iv(*start, *start + *len),
                    f64::from(*conf) / 10.0,
                ).unwrap();
                // Removals interleave with the inserts.
                if let Some(&r) = removals.get(i) {
                    let _ = g.remove(FactId(r as u32));
                }
            }
            // Keep all, keep none, or keep by the mask.
            let keep = |id: FactId| match mode {
                0 => true,
                1 => false,
                _ => mask[id.index() % mask.len()],
            };

            let mut asked = Vec::new();
            let copy = g.filtered(|id, _| {
                asked.push(id);
                keep(id)
            });
            let live: Vec<FactId> = g.iter().map(|(id, _)| id).collect();
            prop_assert_eq!(&asked, &live, "asked once per live fact, in id order");

            let mut reference = UtkGraph {
                dict: g.dict.clone(),
                ..UtkGraph::default()
            };
            for (id, f) in g.iter() {
                if keep(id) {
                    reference.insert_fact(*f);
                }
            }
            prop_assert_eq!(
                copy.iter().collect::<Vec<_>>(),
                reference.iter().collect::<Vec<_>>()
            );
            prop_assert_eq!(copy.len(), reference.len());
            prop_assert_eq!(copy.arena_len(), reference.arena_len());
            prop_assert_eq!(copy.epoch(), reference.epoch());
            prop_assert_eq!(copy.predicates(), reference.predicates());
            // A result, not an edit history.
            prop_assert!(copy.log.is_empty());
            prop_assert!(copy.since(copy.epoch()).unwrap().is_empty());
            if copy.epoch() > 0 {
                prop_assert!(copy.since(copy.epoch() - 1).is_none());
            }
        }

        /// Walks start at the oldest live slot. Under FIFO expiry (the
        /// oldest fact first, several at once), removals behind the
        /// oldest fact that leave it for last, and inserts after
        /// everything expired, `iter()` is a brute filter over the
        /// arena after every step, and its first id is the first live
        /// one — where `FactMap::spanning` and `AtomStore::from_graph`
        /// start their tables.
        #[test]
        fn iter_starts_at_the_first_live_slot(
            ops in prop::collection::vec((0u8..5, 0usize..8), 1..80),
        ) {
            let mut g = UtkGraph::new();
            for (step, (op, k)) in ops.into_iter().enumerate() {
                let live: Vec<FactId> = (0..g.arena_len() as u32)
                    .map(FactId)
                    .filter(|&id| g.is_alive(id))
                    .collect();
                match op {
                    // Insert (twice as likely as each removal kind).
                    0 | 1 => {
                        g.insert(&format!("s{k}"), "p", "o", iv(step as i64, step as i64 + 1), 0.5)
                            .unwrap();
                    }
                    // FIFO: the oldest live fact.
                    2 if !live.is_empty() => {
                        g.remove(live[0]).unwrap();
                    }
                    // Any live fact, the oldest included.
                    3 if !live.is_empty() => {
                        g.remove(live[k % live.len()]).unwrap();
                    }
                    // A slide: the `k` oldest live facts at once.
                    4 => {
                        for &id in live.iter().take(k) {
                            g.remove(id).unwrap();
                        }
                    }
                    _ => {}
                }
                let brute: Vec<(FactId, TemporalFact)> = (0..g.arena_len() as u32)
                    .map(FactId)
                    .filter(|&id| g.is_alive(id))
                    .map(|id| (id, *g.arena_fact(id).unwrap()))
                    .collect();
                let walked: Vec<(FactId, TemporalFact)> =
                    g.iter().map(|(id, f)| (id, *f)).collect();
                prop_assert_eq!(&walked, &brute);
                prop_assert_eq!(walked.len(), g.len());
                let first = brute.first().map_or(g.arena_len(), |(id, _)| id.index());
                prop_assert_eq!(g.first_live, first);
                prop_assert_eq!(g.iter().next().map(|(id, _)| id.index()), brute.first().map(|(id, _)| id.index()));
            }
        }
    }
}
