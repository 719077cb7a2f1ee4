//! The outcome of conflict resolution.

use std::sync::Arc;

use tecore_kg::{FactId, TemporalFact, UtkGraph};
use tecore_temporal::Interval;

use crate::explain::ConflictExplanation;
use crate::stats::DebugStats;

/// An evidence fact rejected by MAP inference — a **conflicting fact**
/// in the paper's terminology (Figure 8 counts these).
#[derive(Debug, Clone, PartialEq)]
pub struct RemovedFact {
    /// Original fact id in the input graph.
    pub id: FactId,
    /// The fact itself.
    pub fact: TemporalFact,
}

/// A derived fact accepted by MAP inference (made explicit by the
/// inference rules), graded by confidence.
#[derive(Debug, Clone, PartialEq)]
pub struct InferredFact {
    /// Subject term (resolved).
    pub subject: String,
    /// Predicate term (resolved).
    pub predicate: String,
    /// Object term (resolved).
    pub object: String,
    /// Validity interval.
    pub interval: Interval,
    /// Confidence: the PSL soft truth value, or on a discrete (MLN)
    /// backend the exact marginal `P(atom = 1)` over the fact's
    /// conflict component; `1.0` for a component too large to grade
    /// ([`DebugStats::ungraded_facts`]).
    pub confidence: f64,
}

impl std::fmt::Display for InferredFact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "({}, {}, {}, {}) {:.3}",
            self.subject, self.predicate, self.object, self.interval, self.confidence
        )
    }
}

/// The most probable conflict-free temporal KG plus the debugging
/// by-products the demo UI displays.
///
/// The graph, the inferred facts and the conflict explanations sit
/// behind [`Arc`]s: an incremental resolve carries the parts an edit
/// did not touch over from the previous resolution instead of copying
/// or re-rendering them. All of them read through the `Arc` as before.
///
/// The default is the resolution of nothing: an empty graph, no lists.
#[derive(Debug, Clone, Default)]
pub struct Resolution {
    /// The maximal consistent subgraph (evidence kept by MAP). A
    /// result, not an edit history: its change log is empty
    /// ([`UtkGraph::since`] has nothing before its own epoch) and its
    /// fact ids are its own — [`Resolution::removed`] is what carries
    /// ids of the input graph.
    pub consistent: Arc<UtkGraph>,
    /// Evidence facts removed (the conflicting statements), in
    /// ascending order of their id in the input graph.
    pub removed: Vec<RemovedFact>,
    /// Derived facts accepted by MAP, above the configured threshold.
    pub inferred: Vec<Arc<InferredFact>>,
    /// Why each conflict was detected: the violated constraint and its
    /// participating facts (independent of which side was removed).
    pub conflicts: Vec<Arc<ConflictExplanation>>,
    /// Statistics (Figure 8).
    pub stats: DebugStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inferred_fact_display() {
        let f = InferredFact {
            subject: "CR".into(),
            predicate: "worksFor".into(),
            object: "Palermo".into(),
            interval: Interval::new(1984, 1986).unwrap(),
            confidence: 0.912,
        };
        assert_eq!(f.to_string(), "(CR, worksFor, Palermo, [1984,1986]) 0.912");
    }
}
