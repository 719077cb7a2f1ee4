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
use crate::fxhash::FxHashMap;
use crate::graph::UtkGraph;

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
    /// Computes statistics for the live facts of `graph` in one walk.
    pub fn compute(graph: &UtkGraph) -> GraphStats {
        let mut facts_of: FxHashMap<Symbol, usize> = FxHashMap::default();
        let mut subjects: FxHashMap<Symbol, ()> = FxHashMap::default();
        let mut entities: FxHashMap<Symbol, ()> = FxHashMap::default();
        let mut hull = TemporalElement::empty();
        let mut conf_sum = 0.0;
        let mut certain = 0;
        for (_, f) in graph.iter() {
            *facts_of.entry(f.predicate).or_default() += 1;
            subjects.insert(f.subject, ());
            entities.insert(f.subject, ());
            entities.insert(f.object, ());
            hull.insert(f.interval);
            conf_sum += f.confidence.value();
            if f.confidence.is_certain() {
                certain += 1;
            }
        }
        let n = graph.len();
        let mut per_predicate: Vec<(String, usize)> = facts_of
            .iter()
            .map(|(&p, &c)| (graph.dict().resolve(p).to_string(), c))
            .collect();
        per_predicate.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        GraphStats {
            fact_count: n,
            predicate_count: per_predicate.len(),
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
        // A predicate stops counting when its last fact goes.
        let coach_ids: Vec<_> = g.facts_with_predicate(coach).map(|(id, _)| id).collect();
        for id in coach_ids {
            g.remove(id).unwrap();
        }
        let s = GraphStats::compute(&g);
        assert_eq!(s.predicate_count, 2);
        assert!(s.per_predicate.iter().all(|(p, _)| p != "coach"));
    }

    #[test]
    fn display_renders() {
        let s = GraphStats::compute(&ranieri());
        let text = s.to_string();
        assert!(text.contains("temporal facts : 5"));
        assert!(text.contains("coach"));
    }
}
