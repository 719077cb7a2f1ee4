//! Carrying a resolved result forward from one snapshot to the next.
//!
//! After an incremental solve the engine knows what changed since the
//! snapshot it published last: the facts inserted and removed
//! ([`UtkGraph::since`]), the atoms the deltas created, killed or moved
//! between evidence and hidden and the constraint groundings they
//! emitted or retracted ([`DeltaChanges`]), and the atoms whose value
//! differs between the previous MAP state and the new one (one linear
//! compare). Everything a [`Resolution`] holds is a function of those,
//! so [`carry_forward`] derives the next resolution from the previous
//! one by difference — and the resolved view (expanded graph + temporal
//! index) by one flat copy plus a patch — instead of re-reading the
//! whole graph the way [`interpret`](crate::pipeline::interpret) does.
//!
//! The three dictionaries involved number their terms independently
//! once they exist (the graph's, the grounding's, the view's), so facts
//! cross between them by string.

use std::sync::Arc;

use tecore_ground::{AtomId, AtomKind, DeltaChanges, Grounding, MapState};
use tecore_kg::{Delta, Dictionary, FactId, FxHashSet, GraphTemporalIndex, TemporalFact, UtkGraph};

use crate::explain::Conflicts;
use crate::pipeline::{inferred_fact, solve_stats, ConfidenceMode, TecoreConfig};
use crate::resolution::{InferredFact, RemovedFact, Resolution};
use crate::snapshot::Snapshot;
use crate::stats::DebugStats;
use crate::threshold;

/// Engine fact id → id in a resolved graph, for the facts that graph
/// holds. Dense, but only over the ids that can still occur: it starts
/// at the smallest id live when it was built (ids are never reused, so
/// everything below is gone for good), which keeps it the size of a
/// stream's window rather than of everything the stream ever admitted.
#[derive(Debug, Clone, Default)]
pub(crate) struct FactIds {
    first: usize,
    /// `ids[f - first]`, [`FactIds::ABSENT`] for facts not in the graph.
    ids: Vec<u32>,
}

impl FactIds {
    const ABSENT: u32 = u32::MAX;

    /// An empty map for the live facts of `graph`.
    pub(crate) fn spanning(graph: &UtkGraph) -> Self {
        let first = graph
            .iter()
            .next()
            .map_or(graph.arena_len(), |(id, _)| id.index());
        FactIds {
            first,
            ids: vec![Self::ABSENT; graph.arena_len() - first],
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    pub(crate) fn get(&self, fact: FactId) -> Option<FactId> {
        let id = *self.ids.get(fact.index().checked_sub(self.first)?)?;
        (id != Self::ABSENT).then_some(FactId(id))
    }

    /// Maps `fact` (at or past the map's first id) to `id`.
    pub(crate) fn set(&mut self, fact: FactId, id: FactId) {
        let at = fact.index() - self.first;
        if self.ids.len() <= at {
            self.ids.resize(at + 1, Self::ABSENT);
        }
        self.ids[at] = id.0;
    }

    /// Unmaps `fact`, returning the id it had.
    pub(crate) fn take(&mut self, fact: FactId) -> Option<FactId> {
        let id = self.get(fact)?;
        self.ids[fact.index() - self.first] = Self::ABSENT;
        Some(id)
    }
}

/// Rebuild instead of patching when what changed is more than this
/// fraction of the live facts: past it, re-reading the graph costs less
/// than the per-change look-ups, interning and hash-index updates.
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
    pub(crate) kept: FactIds,
    /// The same for the expanded graph, once that is a graph of its own
    /// whose ids have drifted from `consistent`'s; empty while `kept`
    /// serves both (one shared graph, or a freshly built expansion,
    /// which numbers the kept facts alike).
    pub(crate) kept_expanded: FactIds,
    /// The snapshot's inferred facts, by ascending atom —
    /// `inferred[i].fact` is `snapshot.inferred[i]`.
    pub(crate) inferred: Vec<Inferred>,
    /// Hidden atoms MAP accepted that fell below the threshold.
    pub(crate) thresholded: FxHashSet<AtomId>,
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

/// The snapshot the incremental engine published last, with its maps.
#[derive(Debug, Clone)]
pub(crate) struct Carried {
    pub(crate) snapshot: Arc<Snapshot>,
    pub(crate) maps: ViewMaps,
}

/// The next snapshot's parts: the resolution (statistics still missing
/// what only the engine knows) with its view already built.
pub(crate) struct Forwarded {
    pub(crate) resolution: Resolution,
    pub(crate) expanded: Arc<UtkGraph>,
    pub(crate) index: GraphTemporalIndex,
    pub(crate) maps: ViewMaps,
}

/// What the engine hands [`carry_forward`] about the resolve it just
/// ran.
pub(crate) struct Resolved<'a> {
    /// The graph, at the epoch the new snapshot will carry.
    pub(crate) graph: &'a UtkGraph,
    /// The grounding, synced to that epoch.
    pub(crate) grounding: &'a Grounding,
    /// The MAP state the previous snapshot was read from.
    pub(crate) before: &'a MapState,
    /// The MAP state of this resolve.
    pub(crate) after: &'a MapState,
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
        before,
        after,
        facts,
        changes,
        config,
    } = now;
    let Carried {
        snapshot: prev,
        mut maps,
    } = prev;
    // Sampled marginals are drawn over the whole grounding per resolve;
    // there is no previous value to carry.
    let graded_by_solver =
        after.soft_values.is_some() || matches!(config.confidence, ConfidenceMode::Constant);
    let comparable = before.assignment.len() <= after.assignment.len()
        && before.soft_values.is_some() == after.soft_values.is_some();
    if !graded_by_solver || !comparable || maps.threshold != config.threshold {
        return None;
    }

    // --- What changed. Atoms past the previous state's width are new,
    // and new atoms are among the delta's. ---
    let known = before.assignment.len();
    let mut atoms: Vec<AtomId> = changes.atoms.into_iter().collect();
    atoms.extend(differing(&before.assignment, &after.assignment[..known]));
    if let (Some(old), Some(new)) = (&before.soft_values, &after.soft_values) {
        // Soft values grade derived facts only.
        atoms.extend(
            differing(old, &new[..known]).filter(|&a| !grounding.store.atom(a).kind.is_evidence()),
        );
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
        if let AtomKind::Evidence { facts, .. } = &grounding.store.atom(a).kind {
            touched.extend(facts);
        }
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
        let keep = graph
            .is_alive(f)
            .then(|| after.assignment[grounding.fact_atoms[&f].index()]);
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
        let confidence = accepted.then(|| {
            after
                .soft_values
                .as_ref()
                .map_or(1.0, |m| m[atom.index()].clamp(0.0, 1.0))
        });
        let shown = confidence.filter(|&c| threshold::passes(c, config.threshold));
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
                fact: Arc::new(inferred_fact(grounding, ground, confidence)),
            });
        }
    }

    let expanded_before = prev.expanded_shared();
    let tombstones = expanded_before.arena_len() - expanded_before.len() + leave.len() + gone.len();
    let arena = expanded_before.arena_len() + enter.len() + come.len();
    if tombstones * REBUILD_TOMBSTONE_SHARE > arena {
        return None;
    }

    // --- Conflicts: only the groundings the deltas touched. ---
    if grounding.constraints_grounded_eagerly() {
        maps.conflicts.apply(grounding, changes.constraints);
    } else {
        maps.conflicts = Conflicts::of(grounding);
    }

    // --- The view: one flat copy, then the patch. With nothing
    // inferred, before or now, the consistent graph is the view. ---
    let split = !Arc::ptr_eq(&prev.consistent, expanded_before) || !come.is_empty();
    if split && maps.kept_expanded.is_empty() {
        maps.kept_expanded = maps.kept.clone();
    }
    let mut consistent = UtkGraph::clone(&prev.consistent);
    let mut indexed = patch_facts(&mut consistent, &mut maps.kept, graph, &leave, &enter);
    let mut removed = prev.removed.clone();
    let reject = reject
        .into_iter()
        .map(|id| {
            let fact = graph.fact(id).expect("a rejected fact is live");
            // `removed` reads against the consistent graph's dictionary.
            let fact = translated(fact, graph.dict(), consistent.dict_mut());
            RemovedFact { id, fact }
        })
        .collect();
    patch_sorted(&mut removed, |r| &r.id, unreject, reject);
    let consistent = Arc::new(consistent);
    let expanded = if split {
        let mut expanded = UtkGraph::clone(expanded_before);
        indexed = patch_facts(
            &mut expanded,
            &mut maps.kept_expanded,
            graph,
            &leave,
            &enter,
        );
        for atom in &gone {
            let at = maps.inferred.binary_search_by_key(atom, |i| i.atom);
            let id = maps.inferred[at.expect("listed above")].id;
            let fact = expanded.remove(id).expect("an inferred fact is live");
            indexed.0.push((id, fact));
        }
        for new in &mut come {
            new.id = expanded
                .insert(
                    &new.fact.subject,
                    &new.fact.predicate,
                    &new.fact.object,
                    new.fact.interval,
                    new.fact.confidence.clamp(0.001, 1.0),
                )
                .expect("clamped confidence is valid");
            indexed
                .1
                .push((new.id, *expanded.fact(new.id).expect("just inserted")));
        }
        expanded.truncate_log(expanded.epoch());
        Arc::new(expanded)
    } else {
        Arc::clone(&consistent)
    };
    patch_sorted(&mut maps.inferred, |i| &i.atom, gone, come);
    // A previous snapshot nobody queried (a cold one, built lazily) has
    // no index yet: building it only to copy it would cost both.
    let index = match prev.built_index() {
        Some(index) => {
            let mut index = index.clone();
            index.patch(&indexed.0, &indexed.1);
            index
        }
        None => GraphTemporalIndex::build(&expanded),
    };

    let mut stats = DebugStats {
        total_facts: graph.len(),
        conflicting_facts: removed.len(),
        inferred_facts: maps.inferred.len(),
        thresholded_facts: maps.thresholded.len(),
        per_constraint: maps.conflicts.per_constraint(grounding),
        ..DebugStats::default()
    };
    solve_stats(&mut stats, grounding, after, config);
    Some(Forwarded {
        resolution: Resolution {
            consistent,
            removed,
            inferred: maps.inferred_facts(),
            conflicts: maps.conflicts.list(),
            stats,
        },
        expanded,
        index,
        maps,
    })
}

/// Positions at which two equally long slices differ, as atom ids.
fn differing<'a, T: PartialEq>(old: &'a [T], new: &'a [T]) -> impl Iterator<Item = AtomId> + 'a {
    old.iter()
        .zip(new)
        .enumerate()
        .filter(|(_, (a, b))| a != b)
        .map(|(i, _)| AtomId(i as u32))
}

/// `fact` with its terms taken from `from` and interned into `into`.
fn translated(fact: &TemporalFact, from: &Dictionary, into: &mut Dictionary) -> TemporalFact {
    TemporalFact {
        subject: into.intern(from.resolve(fact.subject)),
        predicate: into.intern(from.resolve(fact.predicate)),
        object: into.intern(from.resolve(fact.object)),
        ..*fact
    }
}

/// Applies a batch of removals (by key) and insertions to a vector kept
/// ascending by `key`, in one pass each: dropping is a `retain`, adding
/// a stable sort of two sorted runs — a merge.
pub(crate) fn patch_sorted<T, K: Ord>(
    items: &mut Vec<T>,
    key: impl Fn(&T) -> &K,
    mut drop: Vec<K>,
    add: Vec<T>,
) {
    if !drop.is_empty() {
        drop.sort_unstable();
        items.retain(|item| drop.binary_search(key(item)).is_err());
    }
    if !add.is_empty() {
        items.extend(add);
        items.sort_by(|a, b| key(a).cmp(key(b)));
    }
}

/// The facts a view patch dropped and added, with their ids in the
/// view — what its index has to follow.
type Indexed = (Vec<(FactId, TemporalFact)>, Vec<(FactId, TemporalFact)>);

/// Tombstones the `leave` facts of `source` in `view` and appends its
/// `enter` facts, keeping the id map in step. The view stays free of
/// edit history.
fn patch_facts(
    view: &mut UtkGraph,
    ids: &mut FactIds,
    source: &UtkGraph,
    leave: &[FactId],
    enter: &[FactId],
) -> Indexed {
    let mut indexed = Indexed::default();
    for f in leave {
        let id = ids.take(*f).expect("a leaving fact is mapped");
        let fact = view.remove(id).expect("a kept fact is live in the view");
        indexed.0.push((id, fact));
    }
    for f in enter {
        let fact = source.fact(*f).expect("an entering fact is live");
        let fact = translated(fact, source.dict(), view.dict_mut());
        let id = view.insert_fact(fact);
        ids.set(*f, id);
        indexed.1.push((id, fact));
    }
    view.truncate_log(view.epoch());
    indexed
}
