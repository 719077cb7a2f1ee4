//! Ground atoms and the interning atom store.

use tecore_kg::fxhash::FxHashMap;
use tecore_kg::{FactId, FactMap, Postings, Symbol, UtkGraph};
use tecore_temporal::Interval;

/// Identifier of a ground atom within one [`AtomStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AtomId(pub u32);

impl AtomId {
    /// Index into the store's atom table.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for AtomId {
    fn from(id: u32) -> Self {
        AtomId(id)
    }
}

impl From<AtomId> for u32 {
    fn from(id: AtomId) -> u32 {
        id.0
    }
}

/// How an atom is justified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomKind {
    /// Backed by one or more evidence facts of the uTKG; the combined
    /// weight and the fact ids are read through
    /// [`AtomStore::log_odds`] and [`AtomStore::facts`].
    Evidence,
    /// Introduced by a rule/inclusion-dependency head: a *hidden* atom
    /// whose truth the solver decides.
    Hidden,
}

impl AtomKind {
    /// Is this an evidence atom?
    pub fn is_evidence(self) -> bool {
        self == AtomKind::Evidence
    }
}

/// A ground quad atom `quad(s, p, o, [t_b, t_e])`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroundAtom {
    /// Subject symbol.
    pub subject: Symbol,
    /// Predicate symbol.
    pub predicate: Symbol,
    /// Object symbol.
    pub object: Symbol,
    /// Evidence or hidden.
    pub kind: AtomKind,
    /// Validity interval.
    pub interval: Interval,
}

// Two atoms to a cache line: a cold store build writes them back to
// back, and the evidence-only fields live in side tables.
const _: () = assert!(std::mem::size_of::<GroundAtom>() == 32);

/// One entry of a posting run: the atom's interval, the atom, and the
/// symbol the run's key leaves open — the object under `(subject,
/// predicate)`, the subject under `(predicate, object)` — so the join
/// judges a candidate without touching the atom table.
pub type Posting = tecore_kg::Posting<AtomId, Symbol>;

/// One family of posting runs: all `(subject, predicate)` runs, or all
/// `(predicate, object)` runs.
type Family = Postings<RunKey, AtomId, Symbol>;

/// The two symbols a run is filed under.
type RunKey = (Symbol, Symbol);

/// Interning store of ground atoms with the indexes the join engine
/// probes.
///
/// Atom ids are positional (they index solver assignment vectors), so
/// the incremental grounder never deletes atoms: an atom whose last
/// justification disappears is marked **dead** and skipped by the
/// binding search, and *revived* in place if a later delta re-asserts
/// the same ground statement. Indexes list dead atoms too.
///
/// # Postings
///
/// `by_pred` is a per-predicate id list in id order. The two keyed
/// families — `(subject, predicate)` and `(predicate, object)` — are
/// *covering* runs of [`Posting`]s in a [`tecore_kg::Postings`] arena
/// (whose docs state the invariants), so a join step judges a
/// candidate from the run alone and probes a window with
/// [`tecore_kg::reaching`]; `tests/postings_conformance.rs` holds the
/// runs against the atom table. Which families exist: `(subject,
/// predicate)` always — it is also how a statement finds its atom
/// ([`AtomStore::lookup`] searches the run; there is no statement →
/// atom map beside it); `(predicate, object)` in a store made by
/// [`AtomStore::new`], and in one made by [`AtomStore::from_graph`]
/// only once a join plan probes it
/// ([`AtomStore::ensure_predicate_object`]).
#[derive(Debug, Clone)]
pub struct AtomStore {
    atoms: Vec<GroundAtom>,
    alive: Vec<bool>,
    /// Combined evidence weight per atom (independent evidence adds in
    /// log-odds space); `0.0` for a hidden atom.
    log_odds: Vec<f64>,
    /// One contributing fact per atom, inline (`FactId(u32::MAX)` for
    /// a hidden atom)…
    first_fact: Vec<FactId>,
    /// …and the others, for the few statements asserted more than once.
    more_facts: FxHashMap<AtomId, Vec<FactId>>,
    dead_count: usize,
    evidence_count: usize,
    hidden_count: usize,
    by_pred: FxHashMap<Symbol, Vec<AtomId>>,
    by_sp: Family,
    by_po: Option<Family>,
}

const NO_FACT: FactId = FactId(u32::MAX);

impl Default for AtomStore {
    fn default() -> Self {
        AtomStore::new()
    }
}

impl AtomStore {
    /// Creates an empty store with every index family.
    pub fn new() -> Self {
        AtomStore {
            atoms: Vec::new(),
            alive: Vec::new(),
            log_odds: Vec::new(),
            first_fact: Vec::new(),
            more_facts: FxHashMap::default(),
            dead_count: 0,
            evidence_count: 0,
            hidden_count: 0,
            by_pred: FxHashMap::default(),
            by_sp: Family::default(),
            by_po: Some(Family::default()),
        }
    }

    /// The evidence atoms of `graph`, built in bulk. One sort of the
    /// facts by `(subject, predicate, interval, object, position)` puts
    /// the assertions of one statement side by side, earliest first;
    /// the facts then make their atoms in graph order (so atom ids
    /// follow first assertion, as interning one by one gives them),
    /// and the same sorted entries — one per statement — are the
    /// `(subject, predicate)` runs, laid out back to back. Only that
    /// family is built. Also returns the fact → atom table.
    pub fn from_graph(graph: &UtkGraph) -> (Self, FactMap<AtomId>) {
        let mut store = AtomStore {
            by_po: None,
            ..AtomStore::new()
        };
        let mut sorted: Vec<(RunKey, Interval, Symbol, u32)> = graph
            .iter()
            .zip(0..)
            .map(|((_, f), at)| ((f.subject, f.predicate), f.interval, f.object, at))
            .collect();
        sorted.sort_unstable();
        // For every fact (by position among the live ones), the
        // position of the earliest fact asserting the same statement.
        let mut earliest = vec![0u32; sorted.len()];
        for same in sorted.chunk_by(|a, b| (a.0, a.1, a.2) == (b.0, b.1, b.2)) {
            for assertion in same {
                earliest[assertion.3 as usize] = same[0].3;
            }
        }

        let n = graph.len();
        store.atoms.reserve(n);
        store.alive.reserve(n);
        store.log_odds.reserve(n);
        store.first_fact.reserve(n);
        let mut fact_atoms = FactMap::spanning(graph);
        let mut atom_at: Vec<AtomId> = Vec::with_capacity(n);
        for ((fid, fact), at) in graph.iter().zip(0..) {
            let log_odds = fact.confidence.log_odds();
            let id = if earliest[at] as usize == at {
                let atom = GroundAtom {
                    subject: fact.subject,
                    predicate: fact.predicate,
                    object: fact.object,
                    kind: AtomKind::Evidence,
                    interval: fact.interval,
                };
                store.push(atom, log_odds, fid)
            } else {
                let id = atom_at[earliest[at] as usize];
                store.attach_fact(id, log_odds, fid);
                id
            };
            atom_at.push(id);
            fact_atoms.set(fid, id);
        }

        for (atom, id) in store.atoms.iter().zip(0..) {
            let with_predicate = store.by_pred.entry(atom.predicate).or_default();
            with_predicate.push(AtomId(id));
        }
        // The `(subject, predicate)` runs, one entry per atom, straight
        // into an arena of the atoms' size.
        let mut arena: Vec<Posting> = Vec::with_capacity(store.len());
        let mut runs: Vec<(RunKey, usize)> = Vec::new();
        for &(key, interval, third, at) in &sorted {
            if earliest[at as usize] != at {
                continue;
            }
            match runs.last_mut() {
                Some((last, len)) if *last == key => *len += 1,
                _ => runs.push((key, 1)),
            }
            arena.push(Posting::new(interval, atom_at[at as usize], third));
        }
        // Statements of one key and interval came out in object order;
        // a run has them in id order.
        let mut at = 0;
        for &(_, len) in &runs {
            for tied in arena[at..at + len].chunk_by_mut(|a, b| a.interval == b.interval) {
                tied.sort_unstable_by_key(|e| e.id);
            }
            at += len;
        }
        store.by_sp = Family::from_runs(arena, runs);
        (store, fact_atoms)
    }

    /// Builds the `(predicate, object)` family if this store does not
    /// have it yet; from then on inserts maintain it.
    pub fn ensure_predicate_object(&mut self) {
        if self.by_po.is_some() {
            return;
        }
        let keyed = self
            .iter()
            .map(|(id, atom)| {
                let entry = Posting::new(atom.interval, id, atom.subject);
                ((atom.predicate, atom.object), entry)
            })
            .collect();
        self.by_po = Some(Family::bulk(keyed));
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// The atom for an id.
    #[inline]
    pub fn atom(&self, id: AtomId) -> &GroundAtom {
        &self.atoms[id.index()]
    }

    /// The combined evidence weight of an atom; `None` for a hidden one.
    pub fn log_odds(&self, id: AtomId) -> Option<f64> {
        self.atoms[id.index()]
            .kind
            .is_evidence()
            .then(|| self.log_odds[id.index()])
    }

    /// The facts asserting an evidence atom, in the order they were
    /// attached (usually one; none for a hidden atom).
    pub fn facts(&self, id: AtomId) -> impl Iterator<Item = FactId> + '_ {
        let first = Some(self.first_fact[id.index()]).filter(|&f| f != NO_FACT);
        let more = self.more_facts.get(&id).into_iter().flatten().copied();
        first.into_iter().chain(more)
    }

    /// Looks up an atom by its ground key: among the entries of its
    /// `(subject, predicate)` run that hold this interval.
    pub fn lookup(&self, s: Symbol, p: Symbol, o: Symbol, interval: Interval) -> Option<AtomId> {
        let run = self.with_subject_predicate(s, p);
        run[run.partition_point(|e| e.interval < interval)..]
            .iter()
            .take_while(|e| e.interval == interval)
            .find(|e| e.third == o)
            .map(|e| e.id)
    }

    /// Interns an evidence atom, merging confidence if the same ground
    /// statement was asserted more than once (independent evidence adds
    /// in log-odds space).
    pub fn intern_evidence(
        &mut self,
        s: Symbol,
        p: Symbol,
        o: Symbol,
        interval: Interval,
        log_odds: f64,
        fact: FactId,
    ) -> AtomId {
        let Some(id) = self.lookup(s, p, o, interval) else {
            let atom = GroundAtom {
                subject: s,
                predicate: p,
                object: o,
                kind: AtomKind::Evidence,
                interval,
            };
            let id = self.push(atom, log_odds, fact);
            self.index(id);
            return id;
        };
        if self.is_alive(id) && self.atoms[id.index()].kind.is_evidence() {
            self.attach_fact(id, log_odds, fact);
        } else {
            // A retracted atom re-asserted by new evidence comes back
            // to life in its old slot; a derived atom later confirmed
            // by evidence is upgraded to evidence.
            self.set_kind(id, AtomKind::Evidence);
            self.log_odds[id.index()] = log_odds;
            self.first_fact[id.index()] = fact;
        }
        id
    }

    /// Interns a hidden (derived) atom; returns `(id, was_new)` —
    /// `was_new` also covers a dead atom revived in place.
    pub fn intern_hidden(
        &mut self,
        s: Symbol,
        p: Symbol,
        o: Symbol,
        interval: Interval,
    ) -> (AtomId, bool) {
        let Some(id) = self.lookup(s, p, o, interval) else {
            let atom = GroundAtom {
                subject: s,
                predicate: p,
                object: o,
                kind: AtomKind::Hidden,
                interval,
            };
            let id = self.push(atom, 0.0, NO_FACT);
            self.index(id);
            return (id, true);
        };
        if self.is_alive(id) {
            return (id, false);
        }
        self.set_kind(id, AtomKind::Hidden);
        (id, true)
    }

    /// Appends a live atom to the tables (not to the indexes).
    fn push(&mut self, atom: GroundAtom, log_odds: f64, fact: FactId) -> AtomId {
        let id = AtomId(u32::try_from(self.atoms.len()).expect("atom store overflow"));
        *self.count_mut(atom.kind) += 1;
        self.atoms.push(atom);
        self.alive.push(true);
        self.log_odds.push(log_odds);
        self.first_fact.push(fact);
        id
    }

    /// One more fact asserting a live evidence atom.
    fn attach_fact(&mut self, id: AtomId, log_odds: f64, fact: FactId) {
        self.log_odds[id.index()] += log_odds;
        self.more_facts.entry(id).or_default().push(fact);
    }

    /// Enters a fresh atom into every index family this store keeps.
    fn index(&mut self, id: AtomId) {
        let atom = self.atoms[id.index()];
        self.by_pred.entry(atom.predicate).or_default().push(id);
        let entry = |third| [Posting::new(atom.interval, id, third)];
        self.by_sp.patch(
            (atom.subject, atom.predicate),
            &mut [],
            &mut entry(atom.object),
        );
        if let Some(by_po) = &mut self.by_po {
            by_po.patch(
                (atom.predicate, atom.object),
                &mut [],
                &mut entry(atom.subject),
            );
        }
    }

    /// Is the atom live (still justified by evidence or a derivation)?
    #[inline]
    pub fn is_alive(&self, id: AtomId) -> bool {
        self.alive.get(id.index()).copied().unwrap_or(false)
    }

    /// Number of dead (retracted) atoms.
    pub fn dead_count(&self) -> usize {
        self.dead_count
    }

    fn count_mut(&mut self, kind: AtomKind) -> &mut usize {
        match kind {
            AtomKind::Evidence => &mut self.evidence_count,
            AtomKind::Hidden => &mut self.hidden_count,
        }
    }

    /// Marks an atom dead. The id stays valid (assignment vectors keep
    /// their width); the binding search skips it. (Inside a
    /// [`Grounding`](crate::Grounding) only `apply_delta` may do this:
    /// it retracts the atom's clauses with it.)
    pub fn kill(&mut self, id: AtomId) {
        if std::mem::replace(&mut self.alive[id.index()], false) {
            self.dead_count += 1;
            *self.count_mut(self.atoms[id.index()].kind) -= 1;
        }
    }

    /// Makes a live atom `kind` — or revives a dead one as `kind` —
    /// with no facts attached.
    pub fn set_kind(&mut self, id: AtomId, kind: AtomKind) {
        if std::mem::replace(&mut self.alive[id.index()], true) {
            *self.count_mut(self.atoms[id.index()].kind) -= 1;
        } else {
            self.dead_count -= 1;
        }
        *self.count_mut(kind) += 1;
        self.atoms[id.index()].kind = kind;
        self.log_odds[id.index()] = 0.0;
        self.first_fact[id.index()] = NO_FACT;
        self.more_facts.remove(&id);
    }

    /// Detaches `fact` from an evidence atom; returns how many facts
    /// still assert it.
    pub(crate) fn detach_fact(&mut self, id: AtomId, fact: FactId) -> usize {
        let mut facts: Vec<FactId> = self.facts(id).filter(|&f| f != fact).collect();
        let remaining = facts.len();
        self.first_fact[id.index()] = if facts.is_empty() {
            NO_FACT
        } else {
            facts.remove(0)
        };
        if facts.is_empty() {
            self.more_facts.remove(&id);
        } else {
            self.more_facts.insert(id, facts);
        }
        remaining
    }

    /// Replaces the combined evidence weight of an atom.
    pub(crate) fn set_log_odds(&mut self, id: AtomId, log_odds: f64) {
        self.log_odds[id.index()] = log_odds;
    }

    /// Iterates over all atoms, dead ones included (ids are dense).
    pub fn iter(&self) -> impl Iterator<Item = (AtomId, &GroundAtom)> {
        self.atoms
            .iter()
            .enumerate()
            .map(|(i, a)| (AtomId(i as u32), a))
    }

    /// Iterates over live atoms only.
    pub fn iter_alive(&self) -> impl Iterator<Item = (AtomId, &GroundAtom)> {
        self.iter().filter(|(id, _)| self.alive[id.index()])
    }

    /// Atoms with the given predicate, in id order.
    pub fn with_predicate(&self, p: Symbol) -> &[AtomId] {
        self.by_pred.get(&p).map_or(&[], Vec::as_slice)
    }

    /// The posting run of a subject and predicate; `third` is the
    /// object.
    pub fn with_subject_predicate(&self, s: Symbol, p: Symbol) -> &[Posting] {
        self.by_sp.run((s, p))
    }

    /// The `(subject, predicate)` runs of predicate `p`, each with its
    /// subject, in no particular order.
    pub(crate) fn subject_predicate_runs(
        &self,
        p: Symbol,
    ) -> impl Iterator<Item = (Symbol, &[Posting])> {
        self.by_sp
            .runs()
            .filter_map(move |((s, q), run)| (q == p).then_some((s, run)))
    }

    /// The posting run of a predicate and object; `third` is the
    /// subject.
    ///
    /// # Panics
    ///
    /// Panics on a store that was built without the family and never
    /// asked for it ([`AtomStore::ensure_predicate_object`]).
    pub fn with_predicate_object(&self, p: Symbol, o: Symbol) -> &[Posting] {
        self.by_po
            .as_ref()
            .expect("a plan probing (predicate, object) asks for the family first")
            .run((p, o))
    }

    /// Number of live evidence atoms.
    pub fn evidence_count(&self) -> usize {
        self.evidence_count
    }

    /// Number of live hidden atoms.
    pub fn hidden_count(&self) -> usize {
        self.hidden_count
    }

    /// `(entries, arena slots, slots relocated runs left behind)` of
    /// each posting family this store keeps — what the arena invariants
    /// are stated over.
    pub fn posting_space(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        std::iter::once(&self.by_sp)
            .chain(&self.by_po)
            .map(Family::space)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: i64, b: i64) -> Interval {
        Interval::new(a, b).unwrap()
    }

    #[test]
    fn intern_evidence_merges_duplicates() {
        let mut store = AtomStore::new();
        let (s, p, o) = (Symbol(0), Symbol(1), Symbol(2));
        let a = store.intern_evidence(s, p, o, iv(1, 2), 1.0, FactId(0));
        let b = store.intern_evidence(s, p, o, iv(1, 2), 0.5, FactId(1));
        assert_eq!(a, b);
        assert_eq!(store.len(), 1);
        assert!(store.atom(a).kind.is_evidence());
        assert!((store.log_odds(a).unwrap() - 1.5).abs() < 1e-12);
        assert_eq!(store.facts(a).collect::<Vec<_>>(), [FactId(0), FactId(1)]);
        assert_eq!(store.with_subject_predicate(s, p).len(), 1, "one atom");
    }

    #[test]
    fn hidden_then_evidence_upgrade() {
        let mut store = AtomStore::new();
        let (s, p, o) = (Symbol(0), Symbol(1), Symbol(2));
        let (h, new) = store.intern_hidden(s, p, o, iv(1, 2));
        assert!(new);
        assert_eq!(store.log_odds(h), None);
        assert_eq!(store.facts(h).count(), 0);
        let (h2, new2) = store.intern_hidden(s, p, o, iv(1, 2));
        assert_eq!(h, h2);
        assert!(!new2);
        let e = store.intern_evidence(s, p, o, iv(1, 2), 2.0, FactId(7));
        assert_eq!(e, h);
        assert!(store.atom(e).kind.is_evidence());
        assert_eq!(store.evidence_count(), 1);
        assert_eq!(store.hidden_count(), 0);
    }

    #[test]
    fn distinct_intervals_distinct_atoms() {
        let mut store = AtomStore::new();
        let (s, p, o) = (Symbol(0), Symbol(1), Symbol(2));
        let a = store.intern_evidence(s, p, o, iv(1, 2), 1.0, FactId(0));
        let b = store.intern_evidence(s, p, o, iv(1, 3), 1.0, FactId(1));
        assert_ne!(a, b);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn indexes() {
        let mut store = AtomStore::new();
        let (s1, s2, p, o1, o2) = (Symbol(0), Symbol(1), Symbol(2), Symbol(3), Symbol(4));
        store.intern_evidence(s1, p, o1, iv(3, 4), 1.0, FactId(0));
        store.intern_evidence(s1, p, o2, iv(1, 2), 1.0, FactId(1));
        store.intern_evidence(s2, p, o1, iv(5, 6), 1.0, FactId(2));
        assert_eq!(store.with_predicate(p).len(), 3);
        // Runs are in start order and carry the third symbol.
        let run: Vec<_> = store
            .with_subject_predicate(s1, p)
            .iter()
            .map(|e| (e.id, e.third, e.interval))
            .collect();
        assert_eq!(run, [(AtomId(1), o2, iv(1, 2)), (AtomId(0), o1, iv(3, 4))]);
        let run: Vec<_> = store
            .with_predicate_object(p, o1)
            .iter()
            .map(|e| (e.id, e.third))
            .collect();
        assert_eq!(run, [(AtomId(0), s1), (AtomId(2), s2)]);
        assert!(store.with_predicate(Symbol(99)).is_empty());
        assert!(store.with_subject_predicate(s2, Symbol(99)).is_empty());
        assert_eq!(store.lookup(s1, p, o1, iv(3, 4)), Some(AtomId(0)));
        assert_eq!(store.lookup(s1, p, o1, iv(9, 9)), None);
    }

    /// The cold store's `(subject, predicate)` arena holds its entries
    /// and little more: no slack from a buffer grown by doubling.
    #[test]
    fn cold_subject_predicate_arena_is_sized_to_its_entries() {
        let mut graph = UtkGraph::new();
        let fact = |j: i64| {
            let p = if j % 3 == 0 { "p" } else { "q" };
            (
                format!("s{}", j % 97),
                p,
                format!("o{}", j % 13),
                iv(j, j + 3),
            )
        };
        for i in 0..1_000 {
            // Every fifth fact restates the one before it: one atom for
            // both.
            let (s, p, o, interval) = fact(if i % 5 == 4 { i - 1 } else { i });
            graph.insert(&s, p, &o, interval, 0.8).unwrap();
        }
        let (store, _) = AtomStore::from_graph(&graph);
        let (entries, slots, holes) = store.by_sp.space();
        assert_eq!((entries, slots, holes), (store.len(), store.len(), 0));
        assert!(
            store.by_sp.capacity() * 4 <= entries * 5,
            "capacity {} for {entries} entries",
            store.by_sp.capacity()
        );
    }

    #[test]
    fn detaching_facts_keeps_their_order_and_ends_at_none() {
        let mut store = AtomStore::new();
        let (s, p, o) = (Symbol(0), Symbol(1), Symbol(2));
        let a = store.intern_evidence(s, p, o, iv(1, 2), 1.0, FactId(3));
        store.intern_evidence(s, p, o, iv(1, 2), 1.0, FactId(5));
        store.intern_evidence(s, p, o, iv(1, 2), 1.0, FactId(8));
        assert_eq!(store.detach_fact(a, FactId(3)), 2);
        assert_eq!(store.facts(a).collect::<Vec<_>>(), [FactId(5), FactId(8)]);
        assert_eq!(store.detach_fact(a, FactId(8)), 1);
        assert_eq!(store.detach_fact(a, FactId(5)), 0);
        assert_eq!(store.facts(a).count(), 0);
    }
}
