//! Carrying a resolved result forward from one snapshot to the next.
//!
//! After an incremental solve the engine knows what changed since the
//! snapshot it published last: the facts inserted and removed
//! ([`UtkGraph::since`]), the atoms the deltas created, killed or moved
//! between evidence and hidden and the constraint groundings they
//! emitted or retracted ([`DeltaChanges`]), and the atoms whose value
//! differs between the previous MAP state and the new one (compared
//! over the components the solve touched). Everything a [`Resolution`]
//! holds is a function of those, so [`carry_forward`] derives the next
//! resolution and its resolved view (graphs, temporal index, result
//! lists — a [`View`]) from the previous one by difference, as a
//! [`ViewPatch`], instead of re-reading the whole graph the way
//! [`interpret`](crate::pipeline::interpret) does.
//!
//! The patch needs a view to land on that no reader holds, and the
//! engine keeps one in circulation: the snapshot it published *before*
//! its latest one — the [`Spare`] — sends its view home when its last
//! holder lets go ([`Snapshot::send_home`]), together with the patch
//! that separated it from the latest. Replayed, that patch makes the
//! spare a second copy of the latest view, entry for entry and id for
//! id; the new patch goes on top and the result is published. Nothing
//! is cloned and nothing torn down — a publish costs what its patches
//! name. Only when no spare comes home (the first publishes after a
//! cold resolve or a rebuild, a caller still holding it) is the latest
//! view copied flat instead, which is where the second buffer comes
//! from.
//!
//! Graph, grounding and view number their terms alike: the grounding
//! has no dictionary of its own, and a view's dictionary is a prefix of
//! the graph's — a copy of it when the view was read off the graph,
//! and caught up with the terms the graph interned since by every
//! patch. So facts cross into a view as they are, symbols and all.

use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tecore_ground::{AtomId, AtomKind, DeltaChanges, Grounding, MapState};
use tecore_kg::{
    Confidence, Delta, Dictionary, FactId, FactMap, FxHashSet, GraphTemporalIndex, Symbol,
    TemporalFact, UtkGraph,
};

use crate::engine::Moved;
use crate::explain::{ConflictExplanation, Conflicts};
use crate::pipeline::{confidence, inferred_fact, passes, solve_stats, TecoreConfig};
use crate::resolution::{InferredFact, RemovedFact, Resolution};
use crate::snapshot::Snapshot;
use crate::stats::DebugStats;

/// Rebuild instead of patching when what changed is more than this
/// fraction of the live facts: past it, re-reading the graph costs less
/// than the per-change look-ups and index patches.
const REBUILD_CHANGE_SHARE: usize = 8;

/// Rebuild instead of patching when tombstones would make up more than
/// this fraction of the view's arena (scans walk over them).
const REBUILD_TOMBSTONE_SHARE: usize = 4;

/// How the engine's ids map onto a published snapshot — what the next
/// snapshot needs besides the previous one to be derived from it.
#[derive(Debug, Clone, Default)]
pub(crate) struct ViewMaps {
    /// Engine fact id → id in the snapshot's `consistent` graph, for
    /// the facts that are kept.
    pub(crate) kept: FactMap<FactId>,
    /// The same for the expanded graph, once that is a graph of its own
    /// whose ids have drifted from `consistent`'s; empty while `kept`
    /// serves both (one shared graph, or a freshly built expansion,
    /// which numbers the kept facts alike).
    pub(crate) kept_expanded: FactMap<FactId>,
    /// The snapshot's inferred facts, by ascending atom —
    /// `inferred[i].fact` is `snapshot.inferred[i]`.
    pub(crate) inferred: Vec<Inferred>,
    /// Hidden atoms MAP accepted that fell below the threshold.
    pub(crate) thresholded: FxHashSet<AtomId>,
    /// Hidden atoms MAP accepted whose component was not graded.
    pub(crate) ungraded: FxHashSet<AtomId>,
    /// The snapshot's conflicts, keyed for patching.
    pub(crate) conflicts: Conflicts,
    /// The threshold the inferred facts were filtered with.
    pub(crate) threshold: f64,
}

/// One inferred fact of a snapshot: the hidden atom it stands for and
/// its id in the snapshot's expanded graph.
#[derive(Debug, Clone)]
pub(crate) struct Inferred {
    pub(crate) atom: AtomId,
    pub(crate) id: FactId,
    pub(crate) fact: Arc<InferredFact>,
}

impl ViewMaps {
    /// The inferred facts, as a resolution lists them.
    pub(crate) fn inferred_facts(&self) -> Vec<Arc<InferredFact>> {
        self.inferred.iter().map(|i| Arc::clone(&i.fact)).collect()
    }
}

/// Edits to a list by position: entries dropped and entries put in,
/// each before the entry then at its position (see [`splice`]).
/// Positions, not keys, so that the one patch serves a keyed list and
/// the plain list a resolution shows of it, on either buffer.
#[derive(Debug, Clone)]
pub(crate) struct ListPatch<T> {
    drop: Vec<usize>,
    add: Vec<(usize, T)>,
}

impl<T> Default for ListPatch<T> {
    fn default() -> Self {
        ListPatch {
            drop: Vec::new(),
            add: Vec::new(),
        }
    }
}

impl<T> ListPatch<T> {
    /// The patch that takes the entries keyed `drop` out of `items`
    /// (ascending by `key`; keys not listed are ignored) and puts `add`
    /// in.
    pub(crate) fn sorted<K: Ord>(
        items: &[T],
        key: impl Fn(&T) -> &K,
        drop: &[K],
        mut add: Vec<T>,
    ) -> Self {
        let mut gone: Vec<usize> = drop
            .iter()
            .filter_map(|k| items.binary_search_by(|item| key(item).cmp(k)).ok())
            .collect();
        gone.sort_unstable();
        gone.dedup();
        add.sort_by(|a, b| key(a).cmp(key(b)));
        let add = add
            .into_iter()
            .map(|new| (items.partition_point(|item| key(item) < key(&new)), new))
            .collect();
        ListPatch { drop: gone, add }
    }

    /// The same edits for a list that runs parallel to the patched one.
    pub(crate) fn map<U>(&self, f: impl Fn(&T) -> U) -> ListPatch<U> {
        ListPatch {
            drop: self.drop.clone(),
            add: self.add.iter().map(|(at, new)| (*at, f(new))).collect(),
        }
    }

    pub(crate) fn apply(&self, items: &mut Vec<T>)
    where
        T: Clone,
    {
        splice(items, &self.drop, self.add.clone());
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
fn splice<T>(items: &mut Vec<T>, drop: &[usize], mut add: Vec<(usize, T)>) {
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

/// What one publish did to a resolved graph: the graph's terms it
/// caught up with, in the graph's order, the facts it tombstoned and the
/// facts it appended, with their ids in that graph. Applied in this
/// order to two graphs that were equal, it leaves them equal — symbols,
/// ids, indexes, epoch.
#[derive(Debug, Clone, Default)]
pub(crate) struct GraphPatch {
    terms: Vec<Arc<str>>,
    gone: Vec<(FactId, TemporalFact)>,
    new: Vec<(FactId, TemporalFact)>,
}

impl GraphPatch {
    /// Appends to `view`'s dictionary, a prefix of `graph`'s, the terms
    /// it lacks, noting them: from then on `view` reads every symbol
    /// of `graph`.
    fn catch_up(&mut self, view: &mut UtkGraph, graph: &Dictionary) {
        for at in view.dict().len()..graph.len() {
            let term = graph.resolve_shared(Symbol(at as u32));
            let symbol = view.dict_mut().intern(&term);
            debug_assert_eq!(
                symbol.index(),
                at,
                "a view's terms are a prefix of the graph's"
            );
            self.terms.push(term);
        }
    }

    /// Lists `fact` (in `view`'s terms) as appended to `view`; returns
    /// the id it will have there.
    fn append(&mut self, view: &UtkGraph, fact: TemporalFact) -> FactId {
        let id = FactId((view.arena_len() + self.new.len()) as u32);
        self.new.push((id, fact));
        id
    }

    /// Lists the fact `view` holds under `id` as tombstoned.
    fn tombstone(&mut self, view: &UtkGraph, id: FactId) {
        let fact = view.fact(id).expect("a fact leaving the view is live");
        self.gone.push((id, *fact));
    }

    fn apply(&self, view: &mut UtkGraph) {
        for term in &self.terms {
            view.dict_mut().intern(term);
        }
        for (id, _) in &self.gone {
            view.remove(*id)
                .expect("listed off this graph, or its equal");
        }
        for (id, fact) in &self.new {
            let at = view.insert_fact(*fact);
            debug_assert_eq!(at, *id, "the two buffers number their facts alike");
        }
        // The view stays free of edit history.
        view.truncate_log(view.epoch());
    }
}

/// What one publish did to the resolved view.
#[derive(Debug, Clone, Default)]
pub(crate) struct ViewPatch {
    consistent: GraphPatch,
    /// The expanded graph's own patch, from the publish on at which it
    /// became a graph of its own.
    expanded: Option<GraphPatch>,
    removed: ListPatch<RemovedFact>,
    inferred: ListPatch<Arc<InferredFact>>,
    conflicts: ListPatch<Arc<ConflictExplanation>>,
}

/// The resolved view a snapshot is made of, owned: what a patch lands
/// on before the result is published.
#[derive(Debug)]
pub(crate) struct View {
    consistent: UtkGraph,
    /// `None` while nothing is inferred and `consistent` is the
    /// expanded graph too.
    expanded: Option<UtkGraph>,
    index: GraphTemporalIndex,
    removed: Vec<RemovedFact>,
    inferred: Vec<Arc<InferredFact>>,
    conflicts: Vec<Arc<ConflictExplanation>>,
    /// Facts copied into this view since it last came home.
    copied: usize,
}

impl View {
    /// Takes a dropped snapshot's parts back. `None` when they are not
    /// all there to take: the view was never built, or somebody else
    /// still holds one of the graphs.
    pub(crate) fn reclaim(
        resolution: Resolution,
        expanded: Option<Arc<UtkGraph>>,
        index: Option<GraphTemporalIndex>,
    ) -> Option<View> {
        let Resolution {
            consistent,
            removed,
            inferred,
            conflicts,
            ..
        } = resolution;
        let (expanded, index) = (expanded?, index?);
        let expanded = if Arc::ptr_eq(&consistent, &expanded) {
            drop(expanded); // the same graph, held twice
            None
        } else {
            Some(Arc::try_unwrap(expanded).ok()?)
        };
        Some(View {
            consistent: Arc::try_unwrap(consistent).ok()?,
            expanded,
            index,
            removed,
            inferred,
            conflicts,
            copied: 0,
        })
    }

    /// A flat copy of a snapshot's view.
    fn copy_of(snapshot: &Snapshot) -> View {
        let expanded = snapshot.expanded_shared();
        let split = !Arc::ptr_eq(&snapshot.consistent, expanded);
        View {
            consistent: UtkGraph::clone(&snapshot.consistent),
            expanded: split.then(|| UtkGraph::clone(expanded)),
            // A snapshot nobody queried (a cold one, built lazily) has
            // no index yet.
            index: match snapshot.built_index() {
                Some(index) => index.clone(),
                None => GraphTemporalIndex::build(expanded),
            },
            removed: snapshot.removed.clone(),
            inferred: snapshot.inferred.clone(),
            conflicts: snapshot.conflicts.clone(),
            copied: snapshot.consistent.len() + if split { expanded.len() } else { 0 },
        }
    }

    /// Makes the expanded graph a graph of its own, from now on.
    fn split(&mut self) {
        if self.expanded.is_none() {
            self.copied += self.consistent.len();
            self.expanded = Some(self.consistent.clone());
        }
    }

    fn apply(&mut self, patch: &ViewPatch) {
        let mut indexed = &patch.consistent;
        if let Some(expanded) = &patch.expanded {
            self.split();
            expanded.apply(self.expanded.as_mut().expect("split above"));
            indexed = expanded;
        }
        patch.consistent.apply(&mut self.consistent);
        self.index.patch(&indexed.gone, &indexed.new);
        patch.removed.apply(&mut self.removed);
        patch.inferred.apply(&mut self.inferred);
        patch.conflicts.apply(&mut self.conflicts);
    }
}

/// The view of the snapshot published before the latest one, on its
/// way home, and what the latest publish did to it.
#[derive(Debug)]
pub(crate) struct Spare {
    home: Receiver<View>,
    patch: ViewPatch,
}

/// What the engine has learnt about getting its spare back.
#[derive(Debug, Clone)]
pub(crate) struct Reclaim {
    /// What the last flat copy of the view took. Waiting longer than
    /// that for a spare somebody still holds costs more than the copy
    /// it saves; waiting less keeps a third view out of memory for as
    /// long as a reader needs to answer one query.
    copy_cost: Duration,
    /// Wait at all? Not after a wait ran out — a caller that keeps its
    /// snapshots must not pay it per publish — until a spare is found
    /// at home again.
    patient: bool,
}

impl Default for Reclaim {
    fn default() -> Self {
        Reclaim {
            copy_cost: Duration::ZERO,
            patient: true,
        }
    }
}

impl Spare {
    /// The spare, caught up with the latest view — if it is home, or
    /// gets there within the time a copy would take.
    fn caught_up(self, reclaim: &mut Reclaim) -> Option<View> {
        let arrived = if reclaim.patient {
            match self.home.recv_timeout(reclaim.copy_cost) {
                Ok(view) => Some(view),
                Err(RecvTimeoutError::Timeout) => {
                    reclaim.patient = false;
                    None
                }
                // Torn down where it was dropped: nothing to wait for.
                Err(RecvTimeoutError::Disconnected) => None,
            }
        } else {
            self.home.try_recv().ok()
        };
        let mut view = arrived?;
        reclaim.patient = true;
        view.apply(&self.patch);
        Some(view)
    }
}

/// The snapshot the incremental engine published last, with its maps
/// and the spare the next publish may land on.
#[derive(Debug)]
pub(crate) struct Carried {
    pub(crate) snapshot: Arc<Snapshot>,
    pub(crate) maps: ViewMaps,
    pub(crate) spare: Option<Spare>,
    pub(crate) reclaim: Reclaim,
}

impl Clone for Carried {
    /// A spare comes home to one engine: the clone starts without.
    fn clone(&self) -> Self {
        Carried {
            snapshot: Arc::clone(&self.snapshot),
            maps: self.maps.clone(),
            spare: None,
            reclaim: self.reclaim.clone(),
        }
    }
}

/// The next snapshot's parts: the resolution (statistics still missing
/// what only the engine knows), its expanded graph and index when they
/// are already built, and what the publish after it will start from.
pub(crate) struct Forwarded {
    pub(crate) resolution: Resolution,
    pub(crate) view: Option<(Arc<UtkGraph>, GraphTemporalIndex)>,
    pub(crate) maps: ViewMaps,
    pub(crate) spare: Option<Spare>,
    pub(crate) reclaim: Reclaim,
}

/// What the engine hands [`carry_forward`] about the resolve it just
/// ran.
pub(crate) struct Resolved<'a> {
    /// The graph, at the epoch the new snapshot will carry.
    pub(crate) graph: &'a UtkGraph,
    /// The grounding, synced to that epoch.
    pub(crate) grounding: &'a Grounding,
    /// The MAP state of this resolve.
    pub(crate) after: &'a MapState,
    /// Where it differs from the one the previous snapshot was read
    /// from.
    pub(crate) moved: Moved,
    /// Net fact changes since the previous snapshot's epoch.
    pub(crate) facts: &'a Delta,
    /// What the deltas since then did to the grounding.
    pub(crate) changes: DeltaChanges,
    pub(crate) config: &'a TecoreConfig,
}

/// Derives the next resolution and view from the previous snapshot and
/// what changed since. `None` means "build from scratch": the change is
/// too large a share of the graph, the view has collected too many
/// tombstones, or a setting the previous result depends on moved.
pub(crate) fn carry_forward(prev: Carried, now: Resolved<'_>) -> Option<Forwarded> {
    let Resolved {
        graph,
        grounding,
        after,
        moved,
        facts,
        changes,
        config,
    } = now;
    let Carried {
        snapshot: prev,
        mut maps,
        spare,
        mut reclaim,
    } = prev;
    if maps.threshold != config.threshold {
        return None;
    }

    // --- What changed: the delta's atoms (new atoms are among them)
    // and the atoms whose value moved. Soft values grade derived facts
    // only. ---
    let derived = |a: &AtomId| !grounding.store.atom(*a).kind.is_evidence();
    let mut atoms: Vec<AtomId> = changes.atoms.into_iter().collect();
    match moved {
        Moved::Atoms {
            flipped, regraded, ..
        } => {
            atoms.extend(flipped);
            atoms.extend(regraded.into_iter().filter(derived));
        }
        Moved::Anywhere(Some(before))
            if before.assignment.len() <= after.assignment.len()
                && before.soft_values.is_some() == after.soft_values.is_some() =>
        {
            atoms.extend(differing(&before.assignment, &after.assignment, bool::eq));
            if let (Some(old), Some(new)) = (&before.soft_values, &after.soft_values) {
                // By bits: an ungraded atom's NaN is its own equal.
                let same = |a: &f64, b: &f64| a.to_bits() == b.to_bits();
                atoms.extend(differing(old, new, same).filter(derived));
            }
        }
        Moved::Anywhere(_) => return None,
    }
    atoms.sort_unstable();
    atoms.dedup();
    if (atoms.len() + facts.len()) * REBUILD_CHANGE_SHARE > graph.len() {
        return None;
    }

    // --- Evidence: re-read every fact that came, went, or sits on an
    // atom whose value moved. ---
    let mut touched: Vec<FactId> = facts.added.iter().chain(&facts.removed).copied().collect();
    for &a in &atoms {
        touched.extend(grounding.store.facts(a));
    }
    touched.sort_unstable();
    touched.dedup();
    // Kept facts leaving / entering the view, and rejected facts
    // leaving / entering `removed`.
    let (mut leave, mut enter) = (Vec::new(), Vec::new());
    let (mut unreject, mut reject) = (Vec::new(), Vec::new());
    for f in touched {
        let was_kept = maps.kept.get(f).is_some();
        let was_rejected = prev.removed.binary_search_by_key(&f, |r| r.id).is_ok();
        let keep = graph.is_alive(f).then(|| {
            let atom = grounding.fact_atoms.get(f);
            after.assignment[atom.expect("a live fact has its atom").index()]
        });
        match (was_kept, keep) {
            (true, Some(true)) | (false, Some(false) | None) => {}
            (true, _) => leave.push(f),
            (false, Some(true)) => enter.push(f),
        }
        match (was_rejected, keep) {
            (true, Some(false)) | (false, Some(true) | None) => {}
            (true, _) => unreject.push(f),
            (false, Some(false)) => reject.push(f),
        }
    }

    // --- Derived facts: re-read every hidden atom that changed. ---
    // Atoms no longer inferred as they were, and the newly inferred.
    let mut gone: Vec<AtomId> = Vec::new();
    let mut come: Vec<Inferred> = Vec::new();
    for &atom in &atoms {
        let ground = grounding.store.atom(atom);
        let accepted = grounding.store.is_alive(atom)
            && matches!(ground.kind, AtomKind::Hidden)
            && after.assignment[atom.index()];
        let graded = accepted.then(|| confidence(after, atom));
        if graded == Some(None) {
            maps.ungraded.insert(atom);
        } else {
            maps.ungraded.remove(&atom);
        }
        let confidence = graded.map(|c| c.unwrap_or(1.0));
        let shown = confidence.filter(|&c| passes(c, config.threshold));
        if confidence.is_some() && shown.is_none() {
            maps.thresholded.insert(atom);
        } else {
            maps.thresholded.remove(&atom);
        }
        if let Ok(at) = maps.inferred.binary_search_by_key(&atom, |i| i.atom) {
            if shown == Some(maps.inferred[at].fact.confidence) {
                continue;
            }
            gone.push(atom);
        }
        if let Some(confidence) = shown {
            come.push(Inferred {
                atom,
                id: FactId(u32::MAX), // assigned when it enters the view
                fact: Arc::new(inferred_fact(graph.dict(), ground, confidence)),
            });
        }
    }

    let expanded_before = prev.expanded_shared();
    let tombstones = expanded_before.arena_len() - expanded_before.len() + leave.len() + gone.len();
    let arena = expanded_before.arena_len() + enter.len() + come.len();
    if tombstones * REBUILD_TOMBSTONE_SHARE > arena {
        return None;
    }

    // --- The buffer: the spare, caught up, or else a flat copy. With
    // nothing inferred, before or now, the consistent graph is the
    // expanded one too. ---
    let mut view = spare
        .and_then(|spare| spare.caught_up(&mut reclaim))
        .unwrap_or_else(|| {
            let start = Instant::now();
            let view = View::copy_of(&prev);
            reclaim.copy_cost = start.elapsed();
            view
        });
    let split = view.expanded.is_some() || !come.is_empty();
    if split {
        view.split();
        if maps.kept_expanded.is_empty() {
            maps.kept_expanded = maps.kept.clone();
        }
    }

    // --- The patch. Its parts are worked out against the buffer — its
    // dictionaries catch up with the graph's here — and then applied to
    // it the way they will be replayed on the other one. ---
    let mut patch = ViewPatch::default();
    patch
        .consistent
        .catch_up(&mut view.consistent, graph.dict());
    for f in &leave {
        let id = maps.kept.take(*f).expect("a leaving fact is mapped");
        patch.consistent.tombstone(&view.consistent, id);
    }
    for f in &enter {
        let fact = *graph.fact(*f).expect("an entering fact is live");
        maps.kept
            .set(*f, patch.consistent.append(&view.consistent, fact));
    }
    let reject = reject
        .into_iter()
        .map(|id| RemovedFact {
            id,
            fact: *graph.fact(id).expect("a rejected fact is live"),
        })
        .collect();
    patch.removed = ListPatch::sorted(&view.removed, |r| &r.id, &unreject, reject);
    if let Some(graph_of_its_own) = &mut view.expanded {
        let mut expanded = GraphPatch::default();
        expanded.catch_up(graph_of_its_own, graph.dict());
        for f in &leave {
            let id = maps.kept_expanded.take(*f);
            expanded.tombstone(graph_of_its_own, id.expect("a leaving fact is mapped"));
        }
        for atom in &gone {
            let at = maps.inferred.binary_search_by_key(atom, |i| i.atom);
            expanded.tombstone(
                graph_of_its_own,
                maps.inferred[at.expect("listed above")].id,
            );
        }
        for f in &enter {
            let fact = *graph.fact(*f).expect("an entering fact is live");
            maps.kept_expanded
                .set(*f, expanded.append(graph_of_its_own, fact));
        }
        for new in &mut come {
            let atom = grounding.store.atom(new.atom);
            let stated = TemporalFact::new(
                atom.subject,
                atom.predicate,
                atom.object,
                new.fact.interval,
                Confidence::new(new.fact.confidence.clamp(0.001, 1.0))
                    .expect("clamped confidence is valid"),
            );
            new.id = expanded.append(graph_of_its_own, stated);
        }
        patch.expanded = Some(expanded);
    }
    let inferred = ListPatch::sorted(&maps.inferred, |i| &i.atom, &gone, come);
    patch.inferred = inferred.map(|i| Arc::clone(&i.fact));
    inferred.apply(&mut maps.inferred);
    // Conflicts: only the groundings the deltas touched.
    patch.conflicts = maps
        .conflicts
        .apply(grounding, graph.dict(), changes.constraints);
    view.apply(&patch);

    let mut stats = DebugStats {
        total_facts: graph.len(),
        conflicting_facts: view.removed.len(),
        inferred_facts: maps.inferred.len(),
        thresholded_facts: maps.thresholded.len(),
        ungraded_facts: maps.ungraded.len(),
        per_constraint: maps.conflicts.per_constraint(),
        view_facts_copied: view.copied,
        ..DebugStats::default()
    };
    solve_stats(&mut stats, grounding, after, config);

    // --- The previous snapshot becomes the spare: it is asked home,
    // and this publish's patch waits there for it. Not after a publish
    // that changed no fact — an engine nobody edits keeps one view —
    // and not when it has no view built to send. ---
    let spare = (!facts.is_empty() && prev.built_index().is_some()).then(|| {
        let (home, arrivals) = mpsc::channel();
        prev.send_home(home);
        Spare {
            home: arrivals,
            patch,
        }
    });

    let View {
        consistent,
        expanded,
        index,
        removed,
        inferred,
        conflicts,
        ..
    } = view;
    let consistent = Arc::new(consistent);
    let expanded = expanded.map_or_else(|| Arc::clone(&consistent), Arc::new);
    Some(Forwarded {
        view: Some((expanded, index)),
        resolution: Resolution {
            consistent,
            removed,
            inferred,
            conflicts,
            stats,
        },
        maps,
        spare,
        reclaim,
    })
}

/// Positions at which two slices differ by `same`, up to the shorter
/// one's length, as atom ids.
fn differing<'a, T>(
    old: &'a [T],
    new: &'a [T],
    same: impl Fn(&T, &T) -> bool + 'a,
) -> impl Iterator<Item = AtomId> + 'a {
    old.iter()
        .zip(new)
        .enumerate()
        .filter(move |(_, (a, b))| !same(a, b))
        .map(|(i, _)| AtomId(i as u32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::thread;
    use tecore_kg::parser::parse_graph;

    proptest! {
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
    }

    /// A snapshot whose view is built, as the engine publishes them.
    fn published() -> Arc<Snapshot> {
        let graph = Arc::new(parse_graph("(CR, coach, Chelsea, [2000,2004]) 0.9\n").unwrap());
        let index = GraphTemporalIndex::build(&graph);
        let resolution = Resolution {
            consistent: Arc::clone(&graph),
            ..Resolution::default()
        };
        Arc::new(Snapshot::prebuilt(resolution, 1, graph, index))
    }

    fn spare_of(snapshot: &Snapshot) -> Spare {
        let (home, arrivals) = mpsc::channel();
        snapshot.send_home(home);
        Spare {
            home: arrivals,
            patch: ViewPatch::default(),
        }
    }

    /// A spare somebody still holds when the publish wants it is waited
    /// for, and the wait ends with the release — the budget here is a
    /// minute, the release comes once the wait was about to start.
    #[test]
    fn the_wait_for_a_held_spare_ends_with_its_release() {
        let snapshot = published();
        let spare = spare_of(&snapshot);
        let mut reclaim = Reclaim {
            copy_cost: Duration::from_secs(60),
            patient: true,
        };
        let (start, started) = mpsc::channel();
        let holder = thread::spawn(move || {
            started.recv().expect("the wait starts");
            drop(snapshot);
        });
        start.send(()).expect("the holder listens");
        let waited = Instant::now();
        let view = spare.caught_up(&mut reclaim).expect("woken by the release");
        assert!(waited.elapsed() < Duration::from_secs(30));
        holder.join().expect("the holder let go");
        assert_eq!(view.consistent.len(), 1);
        assert!(
            view.expanded.is_none(),
            "one graph, held twice, came home once"
        );
        assert!(reclaim.patient);
    }

    /// A wait that runs out is the last one until a spare is found at
    /// home again: a caller that keeps its snapshots pays it once.
    #[test]
    fn a_wait_that_runs_out_is_not_repeated() {
        let kept = published();
        let mut reclaim = Reclaim {
            copy_cost: Duration::from_millis(1),
            patient: true,
        };
        assert!(spare_of(&kept).caught_up(&mut reclaim).is_none());
        assert!(!reclaim.patient, "the wait ran out");
        // Not waited for now — a minute's budget would show.
        reclaim.copy_cost = Duration::from_secs(60);
        let still_kept = published();
        let waited = Instant::now();
        assert!(spare_of(&still_kept).caught_up(&mut reclaim).is_none());
        assert!(waited.elapsed() < Duration::from_secs(30));
        assert!(!reclaim.patient);
        // Found at home: worth waiting for again.
        let released = published();
        let spare = spare_of(&released);
        drop(released);
        assert!(spare.caught_up(&mut reclaim).is_some());
        assert!(reclaim.patient);
    }

    /// A graph of the snapshot still held elsewhere cannot come home;
    /// the channel closes instead and nobody waits.
    #[test]
    fn a_view_held_from_inside_is_torn_down_not_waited_for() {
        let snapshot = published();
        let inner = Arc::clone(&snapshot.consistent);
        let spare = spare_of(&snapshot);
        drop(snapshot);
        let mut reclaim = Reclaim {
            copy_cost: Duration::from_secs(60),
            patient: true,
        };
        let waited = Instant::now();
        assert!(spare.caught_up(&mut reclaim).is_none());
        assert!(waited.elapsed() < Duration::from_secs(30));
        assert!(reclaim.patient, "nothing ran out");
        assert_eq!(inner.len(), 1);
    }
}
