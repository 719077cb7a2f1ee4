//! The temporal query layer over resolved snapshots.
//!
//! The paper's demo answers questions like *"who coached this club in
//! 2010?"* against the repaired KG. [`TemporalQuery`] is that read
//! surface as a typed builder: select by subject/predicate/object,
//! constrain time by point-in-time stabbing ([`TemporalQuery::at`]),
//! interval overlap ([`TemporalQuery::overlapping`]) or Allen-relation
//! filters ([`TemporalQuery::allen`]), project by confidence, then
//! execute as a lazy iterator, a coalesced per-entity timeline, or a
//! distinct-objects lookup.
//!
//! Queries compile to **index-backed scans** of the snapshot's
//! [`tecore_kg::GraphTemporalIndex`], whatever their shape, and walk the
//! whole arena only when nothing is bound: the planner takes the run
//! the query's shape names — a bound subject's run, else a bound
//! predicate's, each narrowed by the window when there is one, else
//! every predicate's run narrowed by the window — and streams
//! candidates through the zero-allocation [`OverlapIter`], which walks
//! a run latest start first and stops where no earlier entry reaches
//! the window, applying the exact residual filter per candidate. An
//! Allen filter is pre-compiled into a conservative *candidate window*
//! (e.g. `before [2000,2004]` only scans intervals intersecting
//! `(-∞, 1998]`), so even relation queries stay sub-linear.
//!
//! ```
//! use tecore_core::prelude::*;
//! use tecore_kg::parser::parse_graph;
//! use tecore_logic::LogicProgram;
//!
//! let graph = parse_graph(
//!     "(CR, coach, Chelsea, [2000,2004]) 0.9\n\
//!      (CR, coach, Napoli, [2001,2003]) 0.6\n\
//!      (CR, coach, Leicester, [2015,2017]) 0.7\n",
//! ).unwrap();
//! let program = LogicProgram::parse(
//!     "c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf",
//! ).unwrap();
//! let snapshot = Engine::new(graph, program).resolve().unwrap();
//!
//! // Who did CR coach in 2016? (Napoli lost the conflict and is gone.)
//! let at_2016 = snapshot.at(2016).subject("CR").predicate("coach").objects();
//! let names: Vec<&str> = at_2016
//!     .iter()
//!     .map(|&o| snapshot.expanded().dict().resolve(o))
//!     .collect();
//! assert_eq!(names, ["Leicester"]);
//! ```

use tecore_kg::tindex::Entry;
use tecore_kg::{
    overlapping, reaching, Dictionary, FactId, FxHashMap, GraphTemporalIndex, OverlapIter, Symbol,
    TemporalFact, UtkGraph,
};
use tecore_temporal::{AllenRelation, AllenSet, Interval, TemporalElement, TimePoint};

use crate::snapshot::Snapshot;

/// A term selector: anything, one interned symbol, or a term that does
/// not occur in the snapshot at all (matches nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum TermFilter {
    #[default]
    Any,
    Is(Symbol),
    /// The queried string is not in the snapshot's dictionary: the
    /// query is satisfiable by no fact (but stays a valid query).
    Unmatchable,
}

impl TermFilter {
    #[inline]
    fn admits(self, sym: Symbol) -> bool {
        match self {
            TermFilter::Any => true,
            TermFilter::Is(s) => s == sym,
            TermFilter::Unmatchable => false,
        }
    }
}

/// The temporal constraint of a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum TimeFilter {
    /// No temporal constraint.
    #[default]
    Any,
    /// The fact's interval must share at least one point with the
    /// window (stabbing is the degenerate `[t, t]` window).
    Window(Interval),
    /// The basic Allen relation between the fact's interval and the
    /// anchor must be a member of the set.
    Allen { set: AllenSet, anchor: Interval },
}

impl TimeFilter {
    #[inline]
    fn admits(self, iv: Interval) -> bool {
        match self {
            TimeFilter::Any => true,
            TimeFilter::Window(w) => iv.intersects(w),
            TimeFilter::Allen { set, anchor } => set.holds(iv, anchor),
        }
    }
}

/// One coalesced validity timeline: all the periods in which a
/// `(subject, predicate, object)` statement holds in the snapshot,
/// merged into a canonical [`TemporalElement`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEntry {
    /// Subject symbol (resolve against the snapshot's expanded dict).
    pub subject: Symbol,
    /// Predicate symbol.
    pub predicate: Symbol,
    /// Object symbol.
    pub object: Symbol,
    /// The coalesced validity periods.
    pub element: TemporalElement,
}

impl TimelineEntry {
    /// Renders the entry against a dictionary:
    /// `CR coach Chelsea {[2000,2004]}`.
    pub fn describe(&self, dict: &Dictionary) -> String {
        let mut out = String::new();
        self.write_describe(dict, &mut out)
            .expect("writing to a String never fails");
        out
    }

    /// [`TimelineEntry::describe`] into a caller-provided buffer, so a
    /// serving loop rendering many entries reuses one allocation.
    pub fn write_describe<W: std::fmt::Write>(
        &self,
        dict: &Dictionary,
        out: &mut W,
    ) -> std::fmt::Result {
        write!(
            out,
            "{} {} {} {}",
            dict.resolve(self.subject),
            dict.resolve(self.predicate),
            dict.resolve(self.object),
            self.element
        )
    }
}

/// A builder-style temporal query over one [`Snapshot`].
///
/// Construction is cheap (`Copy`-able filter state plus a snapshot
/// borrow); nothing is scanned until one of the executors
/// ([`TemporalQuery::iter`], [`TemporalQuery::matches`],
/// [`TemporalQuery::count`], [`TemporalQuery::objects`],
/// [`TemporalQuery::timeline`], [`TemporalQuery::coalesced_validity`])
/// runs.
#[derive(Debug, Clone, Copy)]
pub struct TemporalQuery<'a> {
    snapshot: &'a Snapshot,
    subject: TermFilter,
    predicate: TermFilter,
    object: TermFilter,
    time: TimeFilter,
    min_confidence: f64,
}

impl<'a> TemporalQuery<'a> {
    /// A fully unconstrained query (every fact of the expanded graph).
    pub fn new(snapshot: &'a Snapshot) -> Self {
        TemporalQuery {
            snapshot,
            subject: TermFilter::Any,
            predicate: TermFilter::Any,
            object: TermFilter::Any,
            time: TimeFilter::Any,
            min_confidence: 0.0,
        }
    }

    fn resolve_term(&self, term: &str) -> TermFilter {
        match self.snapshot.expanded().dict().lookup(term) {
            Some(sym) => TermFilter::Is(sym),
            None => TermFilter::Unmatchable,
        }
    }

    /// Restricts to facts with this subject (an unknown term matches
    /// nothing).
    #[must_use]
    pub fn subject(mut self, term: &str) -> Self {
        self.subject = self.resolve_term(term);
        self
    }

    /// Restricts to facts with this predicate.
    #[must_use]
    pub fn predicate(mut self, term: &str) -> Self {
        self.predicate = self.resolve_term(term);
        self
    }

    /// Restricts to facts with this object.
    #[must_use]
    pub fn object(mut self, term: &str) -> Self {
        self.object = self.resolve_term(term);
        self
    }

    /// Point-in-time stabbing: facts whose validity covers `t`.
    #[must_use]
    pub fn at(mut self, t: impl Into<TimePoint>) -> Self {
        self.time = TimeFilter::Window(Interval::at(t));
        self
    }

    /// Interval-overlap window: facts sharing at least one point with
    /// `window`.
    #[must_use]
    pub fn overlapping(mut self, window: Interval) -> Self {
        self.time = TimeFilter::Window(window);
        self
    }

    /// Allen filter: facts whose interval stands in the basic relation
    /// `rel` to `anchor` (e.g. `before` the anchor spell).
    #[must_use]
    pub fn allen(self, rel: AllenRelation, anchor: Interval) -> Self {
        self.allen_set(AllenSet::from_relation(rel), anchor)
    }

    /// Disjunctive Allen filter: the relation to `anchor` must be a
    /// member of `set` (e.g. [`AllenSet::DISJOINT`]).
    #[must_use]
    pub fn allen_set(mut self, set: AllenSet, anchor: Interval) -> Self {
        self.time = TimeFilter::Allen { set, anchor };
        self
    }

    /// Confidence-threshold projection: keep facts with confidence
    /// `>= min` (inferred facts carry their inference confidence in the
    /// expanded graph).
    #[must_use]
    pub fn min_confidence(mut self, min: f64) -> Self {
        self.min_confidence = min;
        self
    }

    /// Chooses the access path the query's shape names, by one rule
    /// tried in order: a bound subject walks its run of the interval
    /// index, narrowed by the window when there is one; otherwise a
    /// bound predicate walks its run the same way; otherwise a window
    /// walks every predicate run narrowed by it; otherwise the query
    /// scans the whole arena. Neither the object filter nor, once the
    /// subject is bound, the predicate picks a path: both are residual
    /// filters. The residual filter in [`QueryIter`] re-checks every
    /// constraint, so any candidate-superset path is exact; the plan
    /// only decides which candidates get examined.
    ///
    /// Every path but the full scan reads the snapshot's interval
    /// index, so a cold snapshot builds it on its first such query.
    fn plan(&self) -> PathChoice {
        let unmatchable = self.subject == TermFilter::Unmatchable
            || self.predicate == TermFilter::Unmatchable
            || self.object == TermFilter::Unmatchable;
        // The candidate window, when the time filter admits one.
        let window = match self.time {
            TimeFilter::Any => None,
            TimeFilter::Window(w) => Some(Some(w)),
            TimeFilter::Allen { set, anchor } => Some(set.candidate_window(anchor)),
        };
        if unmatchable || matches!(window, Some(None)) {
            return PathChoice::Empty;
        }
        let w = window.flatten();
        match (self.subject, self.predicate, w) {
            (TermFilter::Is(s), _, _) => PathChoice::Subject { s, w },
            (_, TermFilter::Is(p), _) => PathChoice::Predicate { p, w },
            (_, _, Some(w)) => PathChoice::PredicatesOverlap { w },
            (_, _, None) => PathChoice::FullScan,
        }
    }

    /// Renders the chosen access path as a human-readable one-liner —
    /// `EXPLAIN` for temporal queries. The count is the number of
    /// entries the path visits, not the result count (the residual
    /// filter narrows further).
    pub fn explain(&self) -> String {
        let graph = self.snapshot.expanded();
        let index = || self.snapshot.index();
        let visits = |run: &[Entry], w| reaching(run, w).count();
        let run = |family: &str, key: Symbol, entries: &[Entry], w: Option<Interval>| {
            let key = graph.dict().resolve(key);
            match w {
                Some(w) => format!(
                    "{family} interval sub-index ({key}) ∩ window {w}, ~{} candidates",
                    visits(entries, w)
                ),
                None => format!(
                    "{family} interval sub-index ({key}), ~{} candidates",
                    entries.len()
                ),
            }
        };
        match self.plan() {
            PathChoice::Empty => {
                "empty: unsatisfiable (unknown term or impossible Allen window)".to_string()
            }
            PathChoice::Subject { s, w } => run("subject", s, index().subject(s), w),
            PathChoice::Predicate { p, w } => run("predicate", p, index().predicate(p), w),
            PathChoice::PredicatesOverlap { w } => format!(
                "every predicate interval sub-index ({} runs) ∩ window {w}, ~{} candidates",
                index().predicates().len(),
                index()
                    .predicates()
                    .iter()
                    .map(|&p| visits(index().predicate(p), w))
                    .sum::<usize>()
            ),
            PathChoice::FullScan => {
                format!("full arena scan, ~{} candidates", graph.arena_len())
            }
        }
    }

    /// Compiles the query into its access path + residual filter and
    /// returns the lazy match iterator. The scan never allocates per
    /// candidate.
    pub fn iter(&self) -> QueryIter<'a> {
        let graph = self.snapshot.expanded();
        let index = || self.snapshot.index();
        let run = |entries: &'a [Entry], w| match w {
            Some(w) => Scan::Overlap(overlapping(entries, w)),
            None => Scan::Entries(entries.iter()),
        };
        let scan = match self.plan() {
            PathChoice::Empty => Scan::Empty,
            PathChoice::Subject { s, w } => run(index().subject(s), w),
            PathChoice::Predicate { p, w } => run(index().predicate(p), w),
            PathChoice::PredicatesOverlap { w } => {
                Scan::Runs(overlapping(&[], w), index().predicates().iter(), index(), w)
            }
            PathChoice::FullScan => Scan::Full(0..graph.arena_len() as u32),
        };
        QueryIter {
            graph,
            scan,
            subject: self.subject,
            predicate: self.predicate,
            object: self.object,
            time: self.time,
            min_confidence: self.min_confidence,
        }
    }

    /// All matches, materialised as `(id, fact)` pairs.
    pub fn matches(&self) -> Vec<(FactId, TemporalFact)> {
        self.iter().map(|(id, f)| (id, *f)).collect()
    }

    /// Number of matching facts.
    pub fn count(&self) -> usize {
        self.iter().count()
    }

    /// The distinct objects of the matching facts, sorted by symbol.
    /// This is the "who held this office in 2010" shape: constrain
    /// subject/predicate/time, read the objects.
    pub fn objects(&self) -> Vec<Symbol> {
        let mut out: Vec<Symbol> = self.iter().map(|(_, f)| f.object).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Per-statement coalesced timelines: matches grouped by
    /// `(subject, predicate, object)`, each group's intervals merged
    /// with [`TemporalElement::from_intervals`]. Sorted by first
    /// validity start, then by symbols — deterministic for display.
    pub fn timeline(&self) -> Vec<TimelineEntry> {
        let mut groups: FxHashMap<(Symbol, Symbol, Symbol), Vec<Interval>> = FxHashMap::default();
        for (_, fact) in self.iter() {
            groups.entry(fact.triple()).or_default().push(fact.interval);
        }
        let mut out: Vec<TimelineEntry> = groups
            .into_iter()
            .map(|((s, p, o), ivs)| TimelineEntry {
                subject: s,
                predicate: p,
                object: o,
                element: TemporalElement::from_intervals(ivs),
            })
            .collect();
        out.sort_by_key(|e| {
            (
                e.element.hull().map(|h| h.start()),
                e.subject,
                e.predicate,
                e.object,
            )
        });
        out
    }

    /// The union of all matching facts' validity periods as one
    /// coalesced element — "all periods in which CR coached *some*
    /// club".
    pub fn coalesced_validity(&self) -> TemporalElement {
        TemporalElement::from_intervals(self.iter().map(|(_, f)| f.interval))
    }
}

/// The access path a query's shape names. Every path yields a
/// candidate *superset* of the result; the residual filter keeps
/// execution exact.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PathChoice {
    /// Statically unsatisfiable (unknown term, impossible Allen window).
    Empty,
    /// The subject's interval sub-index, intersected with the window
    /// when there is one.
    Subject { s: Symbol, w: Option<Interval> },
    /// The predicate's interval sub-index, the same way.
    Predicate { p: Symbol, w: Option<Interval> },
    /// Every predicate's interval sub-index intersected with the
    /// window, in ascending predicate-symbol order, so what a `limit`
    /// keeps follows the snapshot's content, not where a patch left
    /// each run.
    PredicatesOverlap { w: Interval },
    /// Unconstrained arena walk (only when no filter names an index).
    FullScan,
}

/// The compiled access path of one query.
#[derive(Debug, Clone)]
enum Scan<'a> {
    /// Statically unsatisfiable (unknown term, impossible Allen window).
    Empty,
    /// Interval-index candidates intersecting the compiled window.
    Overlap(OverlapIter<'a, FactId, ()>),
    /// The same over several runs: the run under way, then the runs of
    /// the predicates still listed.
    Runs(
        OverlapIter<'a, FactId, ()>,
        std::slice::Iter<'a, Symbol>,
        &'a GraphTemporalIndex,
        Interval,
    ),
    /// A run of the interval index, whole (no window to narrow by).
    Entries(std::slice::Iter<'a, Entry>),
    /// Unconstrained arena walk (only when no filter names an index).
    Full(std::ops::Range<u32>),
}

/// Lazy iterator over query matches; yields `(FactId, &TemporalFact)`
/// into the snapshot's expanded graph.
#[derive(Debug, Clone)]
pub struct QueryIter<'a> {
    graph: &'a UtkGraph,
    scan: Scan<'a>,
    subject: TermFilter,
    predicate: TermFilter,
    object: TermFilter,
    time: TimeFilter,
    min_confidence: f64,
}

impl<'a> QueryIter<'a> {
    #[inline]
    fn admits(&self, fact: &TemporalFact) -> bool {
        self.subject.admits(fact.subject)
            && self.predicate.admits(fact.predicate)
            && self.object.admits(fact.object)
            && self.time.admits(fact.interval)
            && fact.confidence.value() >= self.min_confidence
    }
}

impl<'a> Iterator for QueryIter<'a> {
    type Item = (FactId, &'a TemporalFact);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let id = match &mut self.scan {
                Scan::Empty => return None,
                Scan::Overlap(iter) => iter.next()?.id,
                Scan::Runs(run, then, index, w) => next_in_runs(run, then, index, *w)?,
                Scan::Entries(iter) => iter.next()?.id,
                Scan::Full(range) => FactId(range.next()?),
            };
            if let Some(fact) = self.graph.fact(id) {
                if self.admits(fact) {
                    return Some((id, fact));
                }
            }
        }
    }
}

/// The next candidate of a [`Scan::Runs`] walk: from the run under way,
/// else from the first of the predicates still listed whose run meets
/// `w`. Out of line on purpose: inlined into [`QueryIter::next`], this
/// loop made the single-run scans a quarter slower.
#[inline(never)]
fn next_in_runs<'a>(
    run: &mut OverlapIter<'a, FactId, ()>,
    then: &mut std::slice::Iter<'a, Symbol>,
    index: &'a GraphTemporalIndex,
    w: Interval,
) -> Option<FactId> {
    loop {
        match run.next() {
            Some(e) => return Some(e.id),
            None => *run = overlapping(index.predicate(*then.next()?), w),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolution::{InferredFact, Resolution};
    use crate::stats::DebugStats;
    use tecore_kg::parser::parse_graph;

    fn iv(a: i64, b: i64) -> Interval {
        Interval::new(a, b).unwrap()
    }

    /// A snapshot built straight from a resolution (no solver run): the
    /// consistent Ranieri facts plus one inferred worksFor statement.
    fn snapshot() -> Snapshot {
        let graph = parse_graph(
            "(CR, coach, Chelsea, [2000,2004]) 0.9\n\
             (CR, coach, Leicester, [2015,2017]) 0.7\n\
             (CR, playsFor, Palermo, [1984,1986]) 0.5\n\
             (JT, playsFor, Chelsea, [1998,2014]) 0.8\n",
        )
        .unwrap();
        let resolution = Resolution {
            consistent: graph.into(),
            removed: Vec::new(),
            inferred: vec![std::sync::Arc::new(InferredFact {
                subject: "CR".into(),
                predicate: "worksFor".into(),
                object: "Palermo".into(),
                interval: iv(1984, 1986),
                confidence: 0.62,
            })],
            conflicts: Vec::new(),
            stats: DebugStats::default(),
        };
        Snapshot::from_resolution(resolution, 1)
    }

    #[test]
    fn stabbing_with_predicate_filter() {
        let snap = snapshot();
        let hits = snap.at(2016).predicate("coach").matches();
        assert_eq!(hits.len(), 1);
        let dict = snap.expanded().dict();
        assert_eq!(dict.resolve(hits[0].1.object), "Leicester");
    }

    #[test]
    fn window_and_subject() {
        let snap = snapshot();
        assert_eq!(
            snap.query()
                .subject("CR")
                .overlapping(iv(1980, 1999))
                .count(),
            2, // playsFor + inferred worksFor
        );
        assert_eq!(snap.query().subject("JT").count(), 1);
    }

    #[test]
    fn unknown_terms_match_nothing() {
        let snap = snapshot();
        assert_eq!(snap.query().subject("nobody").count(), 0);
        assert_eq!(snap.query().predicate("coach").object("Napoli").count(), 0);
    }

    #[test]
    fn allen_filters() {
        let snap = snapshot();
        // Spells strictly before the Leicester one, with a gap.
        let before = snap
            .query()
            .predicate("coach")
            .allen(AllenRelation::Before, iv(2015, 2017))
            .matches();
        assert_eq!(before.len(), 1);
        assert_eq!(
            snap.expanded().dict().resolve(before[0].1.object),
            "Chelsea"
        );
        // Disjoint from the Chelsea spell: everything but Chelsea
        // itself and JT's overlapping playsFor.
        assert_eq!(
            snap.query()
                .allen_set(AllenSet::DISJOINT, iv(2000, 2004))
                .count(),
            3
        );
    }

    #[test]
    fn confidence_projection() {
        let snap = snapshot();
        assert_eq!(snap.query().min_confidence(0.7).count(), 3);
        assert_eq!(snap.query().subject("CR").min_confidence(0.6).count(), 3);
    }

    #[test]
    fn objects_shape() {
        let snap = snapshot();
        let objs = snap.at(2002).predicate("coach").subject("CR").objects();
        let names: Vec<&str> = objs
            .iter()
            .map(|&o| snap.expanded().dict().resolve(o))
            .collect();
        assert_eq!(names, ["Chelsea"]);
    }

    #[test]
    fn timelines_coalesce() {
        let snap = snapshot();
        let spells = snap.query().subject("CR").predicate("coach").timeline();
        assert_eq!(spells.len(), 2);
        assert_eq!(
            spells[0].describe(snap.expanded().dict()),
            "CR coach Chelsea {[2000,2004]}"
        );
        let all = snap.query().subject("CR").coalesced_validity();
        assert_eq!(
            all.intervals(),
            &[iv(1984, 1986), iv(2000, 2004), iv(2015, 2017)]
        );
    }
}
