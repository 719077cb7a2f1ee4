//! Summary statistics over a uTKG.
//!
//! The demo UI's statistics screen (Figure 8 of the paper) reports the
//! total number of temporal facts, the number of conflicting statements
//! and dataset composition. [`GraphStats`] computes the graph-side part
//! of that report; the debugging-side part (conflicts found/removed)
//! lives in `tecore-core`.

use std::fmt;

use tecore_temporal::{Interval, TemporalElement};

use crate::dict::Symbol;
use crate::fact::TemporalFact;
use crate::fxhash::FxHashMap;
use crate::graph::UtkGraph;

/// A counted multiset over symbols: tracks how many times each symbol
/// occurs, so the distinct count stays exact under removals (a symbol
/// only stops being distinct when its last occurrence goes away).
#[derive(Debug, Default, Clone, PartialEq)]
struct CountedSet {
    counts: FxHashMap<Symbol, u32>,
}

impl CountedSet {
    #[inline]
    fn add(&mut self, s: Symbol) {
        *self.counts.entry(s).or_insert(0) += 1;
    }

    #[inline]
    fn remove(&mut self, s: Symbol) {
        if let Some(n) = self.counts.get_mut(&s) {
            *n -= 1;
            if *n == 0 {
                self.counts.remove(&s);
            }
        }
    }

    #[inline]
    fn distinct(&self) -> usize {
        self.counts.len()
    }
}

/// Live cardinalities of one predicate.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct PredicateCardinality {
    facts: usize,
    subjects: CountedSet,
    objects: CountedSet,
}

impl PredicateCardinality {
    /// Number of live facts with this predicate.
    pub fn facts(&self) -> usize {
        self.facts
    }

    /// Number of distinct subjects among those facts.
    pub fn distinct_subjects(&self) -> usize {
        self.subjects.distinct()
    }

    /// Number of distinct objects among those facts.
    pub fn distinct_objects(&self) -> usize {
        self.objects.distinct()
    }
}

/// Live cardinality statistics of a [`UtkGraph`], maintained
/// **incrementally** by every insert and remove — never recomputed by a
/// full-graph walk. The cost-based join planner in `tecore-ground`
/// reads its selectivity estimates here.
///
/// Cloning is cheap relative to the graph (one small map per
/// predicate), so a snapshot of the statistics can be taken without
/// copying any facts.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Cardinalities {
    total: usize,
    per_predicate: FxHashMap<Symbol, PredicateCardinality>,
}

impl Cardinalities {
    /// Total number of live facts.
    pub fn total_facts(&self) -> usize {
        self.total
    }

    /// Number of predicates with at least one live fact.
    pub fn predicate_count(&self) -> usize {
        self.per_predicate.len()
    }

    /// The cardinalities of one predicate, if it has live facts.
    pub fn predicate(&self, p: Symbol) -> Option<&PredicateCardinality> {
        self.per_predicate.get(&p)
    }

    /// Live fact count of one predicate (`0` when factless).
    pub fn predicate_facts(&self, p: Symbol) -> usize {
        self.per_predicate.get(&p).map_or(0, |c| c.facts)
    }

    /// Iterates `(predicate, cardinalities)` pairs — the symbol-keyed
    /// fast path for callers that only need counts (no string
    /// resolution, no sorting).
    pub fn per_predicate(&self) -> impl Iterator<Item = (Symbol, &PredicateCardinality)> {
        self.per_predicate.iter().map(|(&p, c)| (p, c))
    }

    /// Are there no live facts?
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Accounts for one inserted fact.
    pub(crate) fn add(&mut self, f: &TemporalFact) {
        self.total += 1;
        let per = self.per_predicate.entry(f.predicate).or_default();
        per.facts += 1;
        per.subjects.add(f.subject);
        per.objects.add(f.object);
    }

    /// Accounts for one removed (tombstoned) fact.
    pub(crate) fn retract(&mut self, f: &TemporalFact) {
        self.total -= 1;
        if let Some(per) = self.per_predicate.get_mut(&f.predicate) {
            per.facts -= 1;
            per.subjects.remove(f.subject);
            per.objects.remove(f.object);
            if per.facts == 0 {
                self.per_predicate.remove(&f.predicate);
            }
        }
    }
}

/// Aggregate statistics of a uTKG.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of live facts.
    pub fact_count: usize,
    /// Number of distinct predicates among live facts.
    pub predicate_count: usize,
    /// Number of distinct subjects among live facts.
    pub subject_count: usize,
    /// Number of distinct terms appearing as subject or object.
    pub entity_count: usize,
    /// Facts per predicate, sorted descending by count.
    pub per_predicate: Vec<(String, usize)>,
    /// Convex hull of all validity intervals, if any facts exist.
    pub time_hull: Option<Interval>,
    /// Mean confidence over live facts (0 if empty).
    pub mean_confidence: f64,
    /// Number of certain (confidence = 1) facts.
    pub certain_count: usize,
}

impl GraphStats {
    /// Computes statistics for the live facts of `graph`.
    ///
    /// Fact and predicate counts come straight from the graph's
    /// incrementally maintained [`Cardinalities`]; the walk below
    /// gathers what those don't track (subjects, entities, time hull,
    /// confidence).
    pub fn compute(graph: &UtkGraph) -> GraphStats {
        let cards = graph.cardinalities();
        let mut subjects: FxHashMap<Symbol, ()> = FxHashMap::default();
        let mut entities: FxHashMap<Symbol, ()> = FxHashMap::default();
        let mut hull = TemporalElement::empty();
        let mut conf_sum = 0.0;
        let mut certain = 0;
        for (_, f) in graph.iter() {
            subjects.insert(f.subject, ());
            entities.insert(f.subject, ());
            entities.insert(f.object, ());
            hull.insert(f.interval);
            conf_sum += f.confidence.value();
            if f.confidence.is_certain() {
                certain += 1;
            }
        }
        let n = cards.total_facts();
        let mut per_predicate: Vec<(String, usize)> = cards
            .per_predicate()
            .map(|(p, c)| (graph.dict().resolve(p).to_string(), c.facts()))
            .collect();
        per_predicate.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        GraphStats {
            fact_count: n,
            predicate_count: cards.predicate_count(),
            subject_count: subjects.len(),
            entity_count: entities.len(),
            per_predicate,
            time_hull: hull.hull(),
            mean_confidence: if n == 0 { 0.0 } else { conf_sum / n as f64 },
            certain_count: certain,
        }
    }
}

impl fmt::Display for GraphStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "temporal facts : {}", self.fact_count)?;
        writeln!(f, "predicates     : {}", self.predicate_count)?;
        writeln!(f, "subjects       : {}", self.subject_count)?;
        writeln!(f, "entities       : {}", self.entity_count)?;
        if let Some(hull) = self.time_hull {
            writeln!(f, "time span      : {hull}")?;
        }
        writeln!(f, "mean confidence: {:.3}", self.mean_confidence)?;
        writeln!(f, "certain facts  : {}", self.certain_count)?;
        writeln!(f, "facts per predicate:")?;
        for (p, c) in &self.per_predicate {
            writeln!(f, "  {p:<20} {c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_graph;

    fn ranieri() -> UtkGraph {
        parse_graph(
            "(CR, coach, Chelsea, [2000,2004]) 0.9\n\
             (CR, coach, Leicester, [2015,2017]) 0.7\n\
             (CR, playsFor, Palermo, [1984,1986]) 0.5\n\
             (CR, birthDate, 1951, [1951,2017]) 1.0\n\
             (CR, coach, Napoli, [2001,2003]) 0.6\n",
        )
        .unwrap()
    }

    #[test]
    fn counts() {
        let s = GraphStats::compute(&ranieri());
        assert_eq!(s.fact_count, 5);
        assert_eq!(s.predicate_count, 3);
        assert_eq!(s.subject_count, 1);
        // CR + Chelsea + Leicester + Palermo + 1951 + Napoli
        assert_eq!(s.entity_count, 6);
        assert_eq!(s.certain_count, 1);
        assert_eq!(s.per_predicate[0], ("coach".to_string(), 3));
        assert_eq!(s.time_hull, Some(Interval::new(1951, 2017).unwrap()));
        assert!((s.mean_confidence - (0.9 + 0.7 + 0.5 + 1.0 + 0.6) / 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph() {
        let s = GraphStats::compute(&UtkGraph::new());
        assert_eq!(s.fact_count, 0);
        assert_eq!(s.time_hull, None);
        assert_eq!(s.mean_confidence, 0.0);
    }

    #[test]
    fn stats_reflect_removal() {
        let mut g = ranieri();
        let coach = g.dict().lookup("coach").unwrap();
        let id = g
            .facts_with_predicate(coach)
            .next()
            .map(|(id, _)| id)
            .unwrap();
        g.remove(id).unwrap();
        let s = GraphStats::compute(&g);
        assert_eq!(s.fact_count, 4);
        assert_eq!(s.subject_count, 1);
        // A subject stops counting when its last fact goes.
        let jt = Interval::new(1998, 2014).unwrap();
        let id = g.insert("JT", "playsFor", "Chelsea", jt, 0.8).unwrap();
        assert_eq!(GraphStats::compute(&g).subject_count, 2);
        g.remove(id).unwrap();
        assert_eq!(GraphStats::compute(&g).subject_count, 1);
    }

    #[test]
    fn cardinalities_track_inserts() {
        let g = ranieri();
        let cards = g.cardinalities();
        assert_eq!(cards.total_facts(), 5);
        assert_eq!(cards.predicate_count(), 3);
        let coach = g.dict().lookup("coach").unwrap();
        let c = cards.predicate(coach).unwrap();
        assert_eq!(c.facts(), 3);
        assert_eq!(c.distinct_subjects(), 1);
        // Chelsea, Leicester, Napoli
        assert_eq!(c.distinct_objects(), 3);
    }

    #[test]
    fn cardinalities_track_removals_with_multiplicity() {
        let mut g = ranieri();
        let coach = g.dict().lookup("coach").unwrap();
        // Removing one of three coach facts keeps the subject distinct
        // (CR still appears in the remaining two).
        let id = g
            .facts_with_predicate(coach)
            .next()
            .map(|(id, _)| id)
            .unwrap();
        g.remove(id).unwrap();
        let c = g.cardinalities().predicate(coach).unwrap();
        assert_eq!(c.facts(), 2);
        assert_eq!(c.distinct_subjects(), 1);
        assert_eq!(g.cardinalities().total_facts(), 4);
        // Removing the rest drops the predicate entry entirely.
        let ids: Vec<_> = g.facts_with_predicate(coach).map(|(id, _)| id).collect();
        for id in ids {
            g.remove(id).unwrap();
        }
        assert!(g.cardinalities().predicate(coach).is_none());
        assert_eq!(g.cardinalities().predicate_facts(coach), 0);
        assert_eq!(g.cardinalities().predicate_count(), 2);
    }

    #[test]
    fn cardinalities_snapshot_is_independent() {
        let mut g = ranieri();
        let snap = g.cardinalities().clone();
        let coach = g.dict().lookup("coach").unwrap();
        let id = g
            .facts_with_predicate(coach)
            .next()
            .map(|(id, _)| id)
            .unwrap();
        g.remove(id).unwrap();
        assert_eq!(snap.total_facts(), 5);
        assert_eq!(g.cardinalities().total_facts(), 4);
    }

    #[test]
    fn display_renders() {
        let s = GraphStats::compute(&ranieri());
        let text = s.to_string();
        assert!(text.contains("temporal facts : 5"));
        assert!(text.contains("coach"));
    }
}
