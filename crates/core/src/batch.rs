//! The unified edit surface: [`EditBatch`] → [`Engine::apply`].
//!
//! [`EditBatch`] is the one builder every edit goes through (a single
//! edit is a one-op batch; the server writer loop and the stream
//! windows build larger ones): a group of
//! inserts, removes and upserts that [`Engine::apply`] validates and
//! applies **as one delta** — the ops land in consecutive epochs of the
//! graph's change log, so the next `resolve_incremental` sees them
//! netted into a single [`Delta`](tecore_kg::Delta), journaled as one
//! consecutive WAL entry group on a durable engine.
//!
//! Semantics are **sequential**: ops apply in builder order, each
//! against the graph state left by its predecessors, so
//! `apply(batch)` is observationally identical to applying the same
//! ops as one-op batches one at a time (the conformance tests pin this
//! on all four backends). A semantically invalid op (bad confidence,
//! unknown fact id) is [`EditOutcome::Rejected`] — nothing journaled,
//! nothing applied, later ops continue — matching a caller of one-op
//! batches that ignores a rejection and moves on. Only a
//! write-ahead-log failure aborts the batch: the failing op reports
//! [`EditOutcome::Failed`] and the rest [`EditOutcome::Skipped`],
//! leaving the applied prefix journaled and consistent.
//!
//! [`Engine::apply`]: crate::Engine::apply

use tecore_kg::{Confidence, FactId, KgError, TemporalFact, UtkGraph};
use tecore_temporal::Interval;

use crate::error::TecoreError;

/// One edit operation in an [`EditBatch`].
#[derive(Debug, Clone, PartialEq)]
pub enum EditOp {
    /// Insert a fact (interning terms as needed).
    Insert {
        /// Subject term.
        subject: String,
        /// Predicate term.
        predicate: String,
        /// Object term.
        object: String,
        /// Valid-time interval.
        interval: Interval,
        /// Confidence in `(0, 1]`.
        confidence: f64,
    },
    /// Tombstone a fact by id.
    Remove(FactId),
    /// Replace every live fact asserting the same `(subject,
    /// predicate, object)` statement — regardless of interval or
    /// confidence — with this one. With no live match it degenerates
    /// to an insert.
    Upsert {
        /// Subject term.
        subject: String,
        /// Predicate term.
        predicate: String,
        /// Object term.
        object: String,
        /// Valid-time interval.
        interval: Interval,
        /// Confidence in `(0, 1]`.
        confidence: f64,
    },
}

/// A builder grouping edits for one [`Engine::apply`] call.
///
/// ```
/// use tecore_core::prelude::*;
/// use tecore_kg::parser::parse_graph;
/// use tecore_logic::LogicProgram;
/// use tecore_temporal::Interval;
///
/// let graph = parse_graph("(CR, coach, Chelsea, [2000,2004]) 0.9\n").unwrap();
/// let program = LogicProgram::parse(
///     "c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf",
/// ).unwrap();
/// let mut engine = Engine::new(graph, program);
/// let iv = |a, b| Interval::new(a, b).unwrap();
/// let report = engine.apply(
///     &EditBatch::new()
///         .insert("CR", "coach", "Leicester", iv(2015, 2017), 0.7)
///         .upsert("CR", "coach", "Chelsea", iv(2000, 2003), 0.95),
/// );
/// assert_eq!(report.applied(), 2);
/// let snapshot = engine.resolve_incremental().unwrap();
/// assert_eq!(snapshot.stats.conflicting_facts, 0);
/// ```
///
/// [`Engine::apply`]: crate::Engine::apply
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EditBatch {
    ops: Vec<EditOp>,
}

impl EditBatch {
    /// An empty batch.
    pub fn new() -> Self {
        EditBatch::default()
    }

    /// Appends an insert.
    #[must_use]
    pub fn insert(
        mut self,
        subject: impl Into<String>,
        predicate: impl Into<String>,
        object: impl Into<String>,
        interval: Interval,
        confidence: f64,
    ) -> Self {
        self.ops.push(EditOp::Insert {
            subject: subject.into(),
            predicate: predicate.into(),
            object: object.into(),
            interval,
            confidence,
        });
        self
    }

    /// Appends a removal.
    #[must_use]
    pub fn remove(mut self, id: FactId) -> Self {
        self.ops.push(EditOp::Remove(id));
        self
    }

    /// Appends an upsert (replace all live facts with the same
    /// statement, then insert). Finding the facts to replace
    /// ([`UtkGraph::statement_ids`](tecore_kg::UtkGraph::statement_ids))
    /// scans the live facts: an upsert costs O(graph) when it applies.
    #[must_use]
    pub fn upsert(
        mut self,
        subject: impl Into<String>,
        predicate: impl Into<String>,
        object: impl Into<String>,
        interval: Interval,
        confidence: f64,
    ) -> Self {
        self.ops.push(EditOp::Upsert {
            subject: subject.into(),
            predicate: predicate.into(),
            object: object.into(),
            interval,
            confidence,
        });
        self
    }

    /// Appends a pre-built op (the non-builder entry, used by queue
    /// drains that already hold `EditOp`s).
    pub fn push(&mut self, op: EditOp) {
        self.ops.push(op);
    }

    /// The ops in application order.
    pub fn ops(&self) -> &[EditOp] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// What happened to one op of an applied batch (index-aligned with
/// [`EditBatch::ops`]).
#[derive(Debug)]
pub enum EditOutcome {
    /// The insert landed under this id.
    Inserted(FactId),
    /// The removal tombstoned this fact.
    Removed(TemporalFact),
    /// The upsert tombstoned `removed` facts and inserted `id`.
    Upserted {
        /// Facts replaced (possibly none).
        removed: Vec<TemporalFact>,
        /// Id of the inserted replacement.
        id: FactId,
    },
    /// Semantic rejection (invalid confidence, unknown/dead fact id):
    /// nothing journaled, nothing applied; later ops still ran.
    Rejected(TecoreError),
    /// The write-ahead log refused the op before it touched the graph;
    /// the engine should be treated as read-only and every later op in
    /// the batch is [`EditOutcome::Skipped`].
    Failed(TecoreError),
    /// Not attempted because an earlier op [`EditOutcome::Failed`].
    Skipped,
}

impl EditOutcome {
    /// Graph mutations this outcome performed (an upsert counts its
    /// removals and its insert).
    fn changes(&self) -> u64 {
        match self {
            EditOutcome::Inserted(_) | EditOutcome::Removed(_) => 1,
            EditOutcome::Upserted { removed, .. } => removed.len() as u64 + 1,
            EditOutcome::Rejected(_) | EditOutcome::Failed(_) | EditOutcome::Skipped => 0,
        }
    }
}

/// Per-op outcomes of one [`Engine::apply`](crate::Engine::apply).
#[derive(Debug, Default)]
pub struct ApplyReport {
    /// One outcome per batch op, in order.
    pub outcomes: Vec<EditOutcome>,
}

impl ApplyReport {
    /// Ops that applied (inserted, removed, or upserted).
    pub fn applied(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    EditOutcome::Inserted(_)
                        | EditOutcome::Removed(_)
                        | EditOutcome::Upserted { .. }
                )
            })
            .count()
    }

    /// Total graph mutations across the batch (upserts count each
    /// replaced fact plus the insert) — the delta's gross size.
    pub fn changes(&self) -> u64 {
        self.outcomes.iter().map(EditOutcome::changes).sum()
    }

    /// Ids minted by inserts and upserts, in op order.
    pub fn inserted_ids(&self) -> impl Iterator<Item = FactId> + '_ {
        self.outcomes.iter().filter_map(|o| match o {
            EditOutcome::Inserted(id) | EditOutcome::Upserted { id, .. } => Some(*id),
            _ => None,
        })
    }

    /// Did the write-ahead log fail mid-batch?
    pub fn wal_failed(&self) -> bool {
        self.outcomes
            .iter()
            .any(|o| matches!(o, EditOutcome::Failed(_)))
    }

    /// The first rejection or failure, if any.
    pub fn first_error(&self) -> Option<&TecoreError> {
        self.outcomes.iter().find_map(|o| match o {
            EditOutcome::Rejected(e) | EditOutcome::Failed(e) => Some(e),
            _ => None,
        })
    }

    /// Strict view: `Ok(self)` when every op applied, otherwise the
    /// first rejection/failure as an error (for callers that treat a
    /// partially honoured batch as a unit failure).
    pub fn into_result(mut self) -> Result<ApplyReport, TecoreError> {
        let bad = self
            .outcomes
            .iter()
            .position(|o| matches!(o, EditOutcome::Rejected(_) | EditOutcome::Failed(_)));
        match bad {
            None => Ok(self),
            Some(i) => match self.outcomes.swap_remove(i) {
                EditOutcome::Rejected(e) | EditOutcome::Failed(e) => Err(e),
                _ => unreachable!("position() matched Rejected/Failed"),
            },
        }
    }
}

/// An op that passed semantic validation against a concrete graph
/// state and is guaranteed to execute (upsert targets resolved to
/// concrete ids). On a durable engine this is the unit that gets
/// journaled — the log never records an op the graph would reject.
#[derive(Debug)]
pub(crate) enum PlannedOp<'a> {
    Insert {
        subject: &'a str,
        predicate: &'a str,
        object: &'a str,
        interval: Interval,
        confidence: f64,
    },
    Remove(FactId),
    Upsert {
        doomed: Vec<FactId>,
        subject: &'a str,
        predicate: &'a str,
        object: &'a str,
        interval: Interval,
        confidence: f64,
    },
}

/// Validates one op against the current graph state. No mutation.
pub(crate) fn plan_op<'a>(graph: &UtkGraph, op: &'a EditOp) -> Result<PlannedOp<'a>, TecoreError> {
    match op {
        EditOp::Insert {
            subject,
            predicate,
            object,
            interval,
            confidence,
        } => {
            Confidence::new(*confidence)?;
            Ok(PlannedOp::Insert {
                subject,
                predicate,
                object,
                interval: *interval,
                confidence: *confidence,
            })
        }
        EditOp::Remove(id) => {
            if !graph.is_alive(*id) {
                return Err(KgError::UnknownFact(id.0).into());
            }
            Ok(PlannedOp::Remove(*id))
        }
        EditOp::Upsert {
            subject,
            predicate,
            object,
            interval,
            confidence,
        } => {
            Confidence::new(*confidence)?;
            Ok(PlannedOp::Upsert {
                doomed: graph.statement_ids(subject, predicate, object),
                subject,
                predicate,
                object,
                interval: *interval,
                confidence: *confidence,
            })
        }
    }
}

/// Executes a planned (pre-validated) op. Infallible by construction:
/// the plan resolved against exactly this graph state.
pub(crate) fn execute_op(graph: &mut UtkGraph, planned: PlannedOp<'_>) -> EditOutcome {
    match planned {
        PlannedOp::Insert {
            subject,
            predicate,
            object,
            interval,
            confidence,
        } => {
            let id = graph
                .insert(subject, predicate, object, interval, confidence)
                .expect("confidence validated by plan_op");
            EditOutcome::Inserted(id)
        }
        PlannedOp::Remove(id) => {
            let fact = graph.remove(id).expect("liveness validated by plan_op");
            EditOutcome::Removed(fact)
        }
        PlannedOp::Upsert {
            doomed,
            subject,
            predicate,
            object,
            interval,
            confidence,
        } => {
            let removed: Vec<TemporalFact> = doomed
                .into_iter()
                .map(|id| graph.remove(id).expect("doomed ids live at plan time"))
                .collect();
            let id = graph
                .insert(subject, predicate, object, interval, confidence)
                .expect("confidence validated by plan_op");
            EditOutcome::Upserted { removed, id }
        }
    }
}

/// Applies a batch to a bare (non-journaled) graph with the same
/// sequential semantics as [`Engine::apply`](crate::Engine::apply):
/// the reference that tests modelling batch application without an
/// engine compare it against.
pub fn apply_to_graph(graph: &mut UtkGraph, batch: &EditBatch) -> ApplyReport {
    let mut report = ApplyReport {
        outcomes: Vec::with_capacity(batch.len()),
    };
    for op in batch.ops() {
        let outcome = match plan_op(graph, op) {
            Ok(planned) => execute_op(graph, planned),
            Err(e) => EditOutcome::Rejected(e),
        };
        report.outcomes.push(outcome);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use tecore_kg::parser::parse_graph;

    fn iv(a: i64, b: i64) -> Interval {
        Interval::new(a, b).unwrap()
    }

    #[test]
    fn builder_orders_ops() {
        let batch = EditBatch::new()
            .insert("a", "p", "b", iv(1, 2), 0.5)
            .remove(FactId(0))
            .upsert("a", "p", "c", iv(3, 4), 0.6);
        assert_eq!(batch.len(), 3);
        assert!(matches!(batch.ops()[0], EditOp::Insert { .. }));
        assert!(matches!(batch.ops()[1], EditOp::Remove(FactId(0))));
        assert!(matches!(batch.ops()[2], EditOp::Upsert { .. }));
    }

    #[test]
    fn apply_to_graph_sequential_semantics() {
        let mut graph = parse_graph("(CR, coach, Chelsea, [2000,2004]) 0.9\n").unwrap();
        // Remove sees the id the insert just minted: sequential.
        let batch = EditBatch::new()
            .insert("CR", "coach", "Napoli", iv(2001, 2003), 0.6)
            .remove(FactId(1));
        let report = apply_to_graph(&mut graph, &batch);
        assert_eq!(report.applied(), 2);
        assert_eq!(report.changes(), 2);
        assert_eq!(graph.len(), 1);
        assert_eq!(report.inserted_ids().collect::<Vec<_>>(), vec![FactId(1)]);
    }

    #[test]
    fn upsert_replaces_every_statement_match() {
        let mut graph = parse_graph(
            "(CR, coach, Chelsea, [2000,2004]) 0.9\n\
             (CR, coach, Chelsea, [2010,2011]) 0.4\n\
             (CR, coach, Leicester, [2015,2017]) 0.7\n",
        )
        .unwrap();
        let report = apply_to_graph(
            &mut graph,
            &EditBatch::new().upsert("CR", "coach", "Chelsea", iv(2000, 2003), 0.95),
        );
        let EditOutcome::Upserted { removed, id } = &report.outcomes[0] else {
            panic!("expected upsert outcome: {report:?}");
        };
        assert_eq!(removed.len(), 2, "both Chelsea spells replaced");
        assert_eq!(*id, FactId(3));
        assert_eq!(graph.len(), 2); // Leicester + new Chelsea
        assert_eq!(report.changes(), 3);
    }

    #[test]
    fn upsert_without_match_is_an_insert() {
        let mut graph = parse_graph("(CR, coach, Chelsea, [2000,2004]) 0.9\n").unwrap();
        let report = apply_to_graph(
            &mut graph,
            &EditBatch::new().upsert("CR", "coach", "Napoli", iv(2001, 2003), 0.6),
        );
        let EditOutcome::Upserted { removed, .. } = &report.outcomes[0] else {
            panic!("expected upsert outcome");
        };
        assert!(removed.is_empty());
        assert_eq!(graph.len(), 2);
    }

    #[test]
    fn rejected_op_skips_nothing_else() {
        let mut graph = parse_graph("(CR, coach, Chelsea, [2000,2004]) 0.9\n").unwrap();
        let batch = EditBatch::new()
            .insert("CR", "coach", "Bad", iv(1, 2), 1.5) // invalid confidence
            .remove(FactId(99)) // unknown id
            .insert("CR", "coach", "Napoli", iv(2001, 2003), 0.6);
        let report = apply_to_graph(&mut graph, &batch);
        assert!(matches!(report.outcomes[0], EditOutcome::Rejected(_)));
        assert!(matches!(report.outcomes[1], EditOutcome::Rejected(_)));
        assert!(matches!(report.outcomes[2], EditOutcome::Inserted(_)));
        assert_eq!(report.applied(), 1);
        assert!(report.first_error().is_some());
        assert!(!report.wal_failed());
        assert!(report.into_result().is_err());
    }
}
