//! Query descriptions: one spec, borrowed on the wire, owned by a
//! subscription, compiled onto each snapshot.
//!
//! [`tecore_core::TemporalQuery`] borrows one snapshot, so a query that
//! must be described before a snapshot is at hand — parsed off a
//! request line, or re-run on every window fire — needs a description
//! of its own. [`QuerySpec`] is that description: the six selectors
//! (subject / predicate / object / time / confidence / limit), generic
//! over how it holds its terms. The `tecore-server` wire parser fills a
//! `QuerySpec<&str>` that borrows every term from the request line, so
//! parsing allocates nothing; `SUB` copies it into the owned
//! `QuerySpec` (`QuerySpec<String>`) a subscription keeps past the
//! line. Either one reaches the index only through
//! [`QuerySpec::compile`].
//!
//! Continuous queries are the R2S half of the classic S2R/R2R/R2S
//! streaming decomposition: the relation produced per window is
//! projected back into a stream of [`WindowResult`]s pushed at
//! registered [`WindowSink`]s.

use std::sync::Arc;

use tecore_core::{Snapshot, TemporalQuery};
use tecore_kg::{FactId, TemporalFact};
use tecore_temporal::{AllenRelation, Interval};

/// Handle of one registered continuous query (unique per session).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

/// The temporal constraint of a query description (the snapshot
/// query's time filters, held as data).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TimeSpec {
    /// No temporal constraint.
    #[default]
    Any,
    /// Point-in-time stabbing: validity must cover `t`.
    At(i64),
    /// Interval overlap: validity must intersect the window.
    Over(Interval),
    /// Allen filter: validity must stand in `rel` to the anchor.
    Allen(AllenRelation, Interval),
}

/// A snapshot-independent query description; `S` holds its terms
/// (`String` when owned, `&str` when borrowed from a request line).
///
/// Build with the same builder verbs as [`TemporalQuery`], then
/// [`compile`](QuerySpec::compile) against a snapshot. Unknown terms
/// match nothing (exactly like the snapshot query).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QuerySpec<S = String> {
    /// `s=` — restrict to facts with this subject.
    pub subject: Option<S>,
    /// `p=` — restrict to facts with this predicate.
    pub predicate: Option<S>,
    /// `o=` — restrict to facts with this object.
    pub object: Option<S>,
    /// `at=` / `over=` / `allen=` — the temporal constraint.
    pub time: TimeSpec,
    /// `minconf=` — keep facts with confidence `>= min`.
    pub min_confidence: Option<f64>,
    /// `limit=` — cap on the facts materialised or rendered (the total
    /// match count is still reported).
    pub limit: Option<usize>,
}

impl QuerySpec {
    /// A fully unconstrained owned spec (matches every fact).
    pub fn new() -> Self {
        Self::default()
    }
}

impl<S> QuerySpec<S> {
    /// Restricts to facts with this subject.
    #[must_use]
    pub fn subject(mut self, term: impl Into<S>) -> Self {
        self.subject = Some(term.into());
        self
    }

    /// Restricts to facts with this predicate.
    #[must_use]
    pub fn predicate(mut self, term: impl Into<S>) -> Self {
        self.predicate = Some(term.into());
        self
    }

    /// Restricts to facts with this object.
    #[must_use]
    pub fn object(mut self, term: impl Into<S>) -> Self {
        self.object = Some(term.into());
        self
    }

    /// Point-in-time stabbing: facts whose validity covers `t`.
    #[must_use]
    pub fn at(mut self, t: i64) -> Self {
        self.time = TimeSpec::At(t);
        self
    }

    /// Interval-overlap window on fact validity.
    #[must_use]
    pub fn overlapping(mut self, window: Interval) -> Self {
        self.time = TimeSpec::Over(window);
        self
    }

    /// Allen filter on fact validity against an anchor interval.
    #[must_use]
    pub fn allen(mut self, rel: AllenRelation, anchor: Interval) -> Self {
        self.time = TimeSpec::Allen(rel, anchor);
        self
    }

    /// Keep facts with confidence `>= min`.
    #[must_use]
    pub fn min_confidence(mut self, min: f64) -> Self {
        self.min_confidence = Some(min);
        self
    }

    /// Cap the number of facts materialised into each
    /// [`WindowResult::matches`] (the total match count is still
    /// reported). `None` (the default) materialises everything.
    #[must_use]
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }
}

impl<S: AsRef<str>> QuerySpec<S> {
    /// Compiles the spec onto one snapshot's typed query layer — the
    /// one mapping from a description to [`TemporalQuery`].
    pub fn compile<'a>(&self, snapshot: &'a Snapshot) -> TemporalQuery<'a> {
        let mut q = snapshot.query();
        if let Some(s) = &self.subject {
            q = q.subject(s.as_ref());
        }
        if let Some(p) = &self.predicate {
            q = q.predicate(p.as_ref());
        }
        if let Some(o) = &self.object {
            q = q.object(o.as_ref());
        }
        q = match self.time {
            TimeSpec::Any => q,
            TimeSpec::At(t) => q.at(t),
            TimeSpec::Over(w) => q.overlapping(w),
            TimeSpec::Allen(rel, anchor) => q.allen(rel, anchor),
        };
        if let Some(min) = self.min_confidence {
            q = q.min_confidence(min);
        }
        q
    }

    /// Evaluates the spec against a snapshot, honouring the limit.
    pub fn evaluate(&self, snapshot: &Arc<Snapshot>, start: i64, end: i64) -> WindowResult {
        let q = self.compile(snapshot);
        let total = q.count();
        let limit = self.limit.unwrap_or(usize::MAX);
        let matches = q.iter().take(limit).map(|(id, f)| (id, *f)).collect();
        WindowResult {
            start,
            end,
            epoch: snapshot.epoch(),
            total,
            matches,
            snapshot: Arc::clone(snapshot),
        }
    }
}

/// One continuous-query answer: the spec's matches against the
/// resolved state of a single window.
#[derive(Debug, Clone)]
pub struct WindowResult {
    /// Window start (inclusive, event time).
    pub start: i64,
    /// Window end (exclusive, event time).
    pub end: i64,
    /// Epoch of the snapshot the answer was computed on.
    pub epoch: u64,
    /// Full match count (unaffected by the spec's limit).
    pub total: usize,
    /// Materialised matches, capped by the spec's limit.
    pub matches: Vec<(FactId, TemporalFact)>,
    /// The window's snapshot, for follow-up queries or rendering
    /// symbols via `snapshot.expanded().dict()`.
    pub snapshot: Arc<Snapshot>,
}

/// Delivery target for continuous-query answers.
///
/// Implemented for any `FnMut(QueryId, &WindowResult) + Send` closure;
/// implement manually to push at channels, sockets or files.
pub trait WindowSink: Send {
    /// Called once per fired window per registered query.
    fn deliver(&mut self, query: QueryId, result: &WindowResult);
}

impl<F: FnMut(QueryId, &WindowResult) + Send> WindowSink for F {
    fn deliver(&mut self, query: QueryId, result: &WindowResult) {
        self(query, result)
    }
}

/// A registered continuous query: spec + sink under one id.
pub(crate) struct ContinuousQuery {
    pub(crate) id: QueryId,
    pub(crate) spec: QuerySpec,
    pub(crate) sink: Box<dyn WindowSink>,
}

impl std::fmt::Debug for ContinuousQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContinuousQuery")
            .field("id", &self.id)
            .field("spec", &self.spec)
            .finish_non_exhaustive()
    }
}
