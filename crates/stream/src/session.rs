//! The streaming driver: watermark-ordered window firing over an
//! incremental [`Engine`].
//!
//! [`StreamSession`] owns an engine and admits timestamped
//! [`StreamEvent`]s against a [`WindowSpec`]. Events buffer until the
//! **watermark** (highest event time seen minus the allowed lateness)
//! passes a window boundary; then the boundary *fires*: events entering
//! the window are admitted to the graph, facts that have slid out are
//! expired, and both ride a single [`EditBatch`] so the engine sees one
//! netted delta and one incremental re-solve per slide. Because
//! expiring a fact is just a remove-fact delta, the engine's
//! component-wise dirty tracking confines each re-solve to the
//! conflict components the slide actually touched — steady-state slides
//! re-solve a small fraction of the graph (see
//! [`WindowStats::components_solved`]).
//!
//! ## Semantics (mirrored by the conformance test model)
//!
//! - Window boundaries are the multiples of `slide`; the window ending
//!   at `W` covers event times `[W - width, W)`.
//! - The watermark is `max_event_time_seen - lateness` (monotone).
//! - A boundary `W` fires once the watermark reaches it; fired
//!   boundaries are strictly increasing.
//! - An event is **late** (dropped, counted) iff it arrives with
//!   `t < start of the next unfired window`; anything newer is
//!   buffered and admitted at the next fire even if it is behind the
//!   watermark (that is what lateness buys).
//! - An event identical to a buffered or live one (same time, triple,
//!   validity and confidence) is a **duplicate** (dropped, counted).
//!   An event's identity is forgotten when it expires (the same event
//!   pushed after that is late).
//! - A boundary that would neither admit nor expire anything is
//!   *skipped* (counted, no re-solve, no query evaluation) — silent
//!   stream gaps cost nothing.
//!
//! ## Terms as symbols
//!
//! A push that is not late interns the event's three terms into the
//! engine graph's dictionary once. The duplicate keys are those
//! symbols; expiry and admission work in fact ids and keys, and the
//! event's own strings move into the admitting [`EditBatch`] — no term
//! is copied or hashed as a string after the push. Terms are numbered
//! in arrival order (a buffered event's before its fact exists), so a
//! graph recovered from a write-ahead log, which interns in insert
//! order, may number them differently: the keys live only in the
//! session, and a session over a recovered engine starts empty.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use tecore_core::{EditBatch, Engine, Snapshot};
use tecore_kg::{Confidence, FactId, FxHashSet, StreamEvent, Symbol};

use crate::query::{ContinuousQuery, QueryId, QuerySpec, WindowSink};
use crate::window::{StreamError, WindowSpec};

/// Duplicate-suppression key: the full event identity, its terms as
/// the engine graph's symbols (confidence compared bitwise).
type EventKey = (i64, Symbol, Symbol, Symbol, i64, i64, u64);

/// Per-fire statistics: what one window boundary cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowStats {
    /// Window start (inclusive, event time).
    pub start: i64,
    /// Window end (exclusive, event time) — the fired boundary.
    pub end: i64,
    /// Events admitted into the graph at this fire.
    pub admitted: usize,
    /// Stream facts expired (slid out) at this fire.
    pub expired: usize,
    /// Late events dropped since the previous fire.
    pub late_dropped: u64,
    /// Duplicate events dropped since the previous fire.
    pub duplicates_dropped: u64,
    /// Conflict components in the grounding at this fire.
    pub components: usize,
    /// Components actually re-solved (dirty) — steady-state slides
    /// keep this well below `components`.
    pub components_solved: usize,
    /// Wall-clock cost of the incremental re-solve, microseconds.
    pub resolve_micros: u64,
    /// How far the watermark had advanced past this boundary when it
    /// fired (event-time units; 0 = fired exactly on time).
    pub lag: i64,
    /// Epoch of the published snapshot.
    pub epoch: u64,
}

/// One fired window: its statistics plus the resolved snapshot.
#[derive(Debug, Clone)]
pub struct WindowFire {
    /// What the fire admitted, expired and cost.
    pub stats: WindowStats,
    /// The conflict-free state over exactly the in-window stream facts
    /// (plus any facts edited through the engine out of band).
    pub snapshot: Arc<Snapshot>,
}

/// Cumulative counters across the life of a [`StreamSession`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamTotals {
    /// Boundaries that fired (admitted or expired something).
    pub windows_fired: u64,
    /// Boundaries skipped because they had no work.
    pub windows_skipped: u64,
    /// Events admitted into the graph.
    pub events_admitted: u64,
    /// Stream facts expired out of the graph.
    pub events_expired: u64,
    /// Late events dropped.
    pub late_dropped: u64,
    /// Duplicate events dropped.
    pub duplicates_dropped: u64,
    /// Lag of the most recent fire (event-time units).
    pub last_lag: i64,
}

/// Watermark-driven windowed streaming over an incremental engine.
///
/// ```
/// use tecore_core::prelude::*;
/// use tecore_kg::{StreamEvent, UtkGraph};
/// use tecore_logic::LogicProgram;
/// use tecore_stream::{StreamSession, WindowSpec};
/// use tecore_temporal::Interval;
///
/// let program = LogicProgram::parse(
///     "c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf",
/// ).unwrap();
/// let engine = Engine::new(UtkGraph::new(), program);
/// let mut stream = StreamSession::new(engine, WindowSpec::tumbling(10).unwrap());
///
/// let spell = Interval::new(2000, 2004).unwrap();
/// let clash = Interval::new(2001, 2003).unwrap();
/// stream.push(StreamEvent::new(1, "CR", "coach", "Chelsea", spell, 0.9)).unwrap();
/// stream.push(StreamEvent::new(3, "CR", "coach", "Napoli", clash, 0.6)).unwrap();
/// // Watermark reaches the [0,10) boundary: both events are admitted,
/// // one conflict resolved.
/// let fires = stream.advance_watermark(10).unwrap();
/// assert_eq!(fires.len(), 1);
/// assert_eq!(fires[0].stats.admitted, 2);
/// assert_eq!(fires[0].snapshot.stats.conflicting_facts, 1);
/// ```
pub struct StreamSession {
    engine: Engine,
    spec: WindowSpec,
    lateness: i64,
    /// Highest event time observed (watermark = this − lateness).
    max_seen: Option<i64>,
    /// The last fired (or skipped) boundary; next due is `+ slide`.
    fired_through: Option<i64>,
    /// Buffered events not yet admitted, keyed by event time; each
    /// keeps its terms until they move into the admitting batch.
    pending: BTreeMap<i64, Vec<(StreamEvent, EventKey)>>,
    pending_len: usize,
    /// Stream-admitted live facts, keyed by event time (for expiry).
    live: BTreeMap<i64, Vec<(FactId, EventKey)>>,
    /// Duplicate suppression over pending + live events.
    seen: FxHashSet<EventKey>,
    queries: Vec<ContinuousQuery>,
    next_query: u64,
    totals: StreamTotals,
    late_since_fire: u64,
    dups_since_fire: u64,
}

impl std::fmt::Debug for StreamSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSession")
            .field("spec", &self.spec)
            .field("lateness", &self.lateness)
            .field("max_seen", &self.max_seen)
            .field("fired_through", &self.fired_through)
            .field("pending", &self.pending_len)
            .field("live", &self.live.values().map(Vec::len).sum::<usize>())
            .field("queries", &self.queries.len())
            .field("totals", &self.totals)
            .finish_non_exhaustive()
    }
}

impl StreamSession {
    /// Wraps an engine with zero allowed lateness (watermark = highest
    /// event time seen).
    pub fn new(engine: Engine, window: WindowSpec) -> Self {
        Self::with_lateness(engine, window, 0)
    }

    /// Wraps an engine, tolerating events up to `lateness` time points
    /// behind the stream head (negative values clamp to 0).
    pub fn with_lateness(engine: Engine, window: WindowSpec, lateness: i64) -> Self {
        StreamSession {
            engine,
            spec: window,
            lateness: lateness.max(0),
            max_seen: None,
            fired_through: None,
            pending: BTreeMap::new(),
            pending_len: 0,
            live: BTreeMap::new(),
            seen: FxHashSet::default(),
            queries: Vec::new(),
            next_query: 0,
            totals: StreamTotals::default(),
            late_since_fire: 0,
            dups_since_fire: 0,
        }
    }

    /// The window shape driving this session.
    #[inline]
    pub fn window(&self) -> WindowSpec {
        self.spec
    }

    /// Allowed lateness in event-time units.
    #[inline]
    pub fn lateness(&self) -> i64 {
        self.lateness
    }

    /// Current watermark, if any event (or explicit advance) has been
    /// observed.
    #[inline]
    pub fn watermark(&self) -> Option<i64> {
        self.max_seen.map(|m| m - self.lateness)
    }

    /// Events buffered but not yet admitted.
    #[inline]
    pub fn pending_events(&self) -> usize {
        self.pending_len
    }

    /// Stream facts currently live in the graph.
    #[inline]
    pub fn live_facts(&self) -> usize {
        self.live.values().map(Vec::len).sum()
    }

    /// Cumulative counters.
    #[inline]
    pub fn totals(&self) -> &StreamTotals {
        &self.totals
    }

    /// Read access to the wrapped engine.
    #[inline]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable access to the wrapped engine, for out-of-band edits
    /// (e.g. static background facts) between window fires. Removing a
    /// stream-admitted fact out of band is safe: expiry re-checks
    /// liveness.
    #[inline]
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Registers a continuous query: `spec` is re-evaluated on every
    /// fired window and the answer pushed at `sink`.
    pub fn register_query(&mut self, spec: QuerySpec, sink: impl WindowSink + 'static) -> QueryId {
        let id = QueryId(self.next_query);
        self.next_query += 1;
        self.queries.push(ContinuousQuery {
            id,
            spec,
            sink: Box::new(sink),
        });
        id
    }

    /// Unregisters a continuous query; `false` if the id is unknown.
    pub fn unregister_query(&mut self, id: QueryId) -> bool {
        let before = self.queries.len();
        self.queries.retain(|q| q.id != id);
        self.queries.len() != before
    }

    /// Offers one event to the stream. Returns the windows (possibly
    /// none) fired by the watermark advance it caused. Late and
    /// duplicate events are dropped and counted, not errors; an event
    /// with an invalid confidence is rejected immediately.
    pub fn push(&mut self, event: StreamEvent) -> Result<Vec<WindowFire>, StreamError> {
        Confidence::new(event.confidence).map_err(tecore_core::TecoreError::from)?;
        // Late: behind the start of the next unfired window.
        if let Some(fired) = self.fired_through {
            if event.time < self.spec.start_of(fired + self.spec.slide()) {
                self.late_since_fire += 1;
                self.totals.late_dropped += 1;
                return Ok(Vec::new());
            }
        }
        let engine = &mut self.engine;
        let key = (
            event.time,
            engine.intern(&event.subject),
            engine.intern(&event.predicate),
            engine.intern(&event.object),
            event.interval.start().value(),
            event.interval.end().value(),
            event.confidence.to_bits(),
        );
        if !self.seen.insert(key) {
            self.dups_since_fire += 1;
            self.totals.duplicates_dropped += 1;
            return Ok(Vec::new());
        }
        self.max_seen = Some(self.max_seen.map_or(event.time, |m| m.max(event.time)));
        self.pending
            .entry(event.time)
            .or_default()
            .push((event, key));
        self.pending_len += 1;
        self.fire_due()
    }

    /// Advances the watermark to at least `to - lateness` without an
    /// event (a punctuation / heartbeat), firing any windows that
    /// become due. Watermarks are monotone: an older `to` is a no-op.
    pub fn advance_watermark(&mut self, to: i64) -> Result<Vec<WindowFire>, StreamError> {
        self.max_seen = Some(self.max_seen.map_or(to, |m| m.max(to)));
        self.fire_due()
    }

    /// Flushes the stream: fires every boundary needed to admit all
    /// buffered events and expire all live stream facts, regardless of
    /// the watermark. The engine ends on an empty stream state.
    pub fn drain(&mut self) -> Result<Vec<WindowFire>, StreamError> {
        let mut fires = Vec::new();
        while !self.pending.is_empty() || !self.live.is_empty() {
            let next = self.next_boundary();
            let Some(next) = next else { break };
            self.max_seen = Some(self.max_seen.map_or(0, |m| m.max(next + self.lateness)));
            fires.extend(self.fire_due()?);
        }
        Ok(fires)
    }

    /// The next boundary that could fire, or `None` when the stream has
    /// never seen an event.
    fn next_boundary(&self) -> Option<i64> {
        match self.fired_through {
            Some(f) => Some(f + self.spec.slide()),
            None => {
                let (&earliest, _) = self.pending.iter().next()?;
                Some(self.spec.first_end_after(earliest))
            }
        }
    }

    /// Fires (or skips) every boundary at or behind the watermark.
    fn fire_due(&mut self) -> Result<Vec<WindowFire>, StreamError> {
        let mut fires = Vec::new();
        let Some(max) = self.max_seen else {
            return Ok(fires);
        };
        let watermark = max - self.lateness;
        while let Some(end) = self.next_boundary() {
            if end > watermark {
                break;
            }
            let start = self.spec.start_of(end);
            let admits = self.pending.range(..end).next().is_some();
            let expires = self.live.range(..start).next().is_some();
            if !admits && !expires {
                // Nothing to do at this boundary: fast-forward.
                self.fired_through = Some(end);
                self.totals.windows_skipped += 1;
                continue;
            }
            let fire = self.fire(end, watermark)?;
            fires.push(fire);
        }
        Ok(fires)
    }

    /// Fires the boundary `end`: admit pending events in
    /// `[end - width, end)`, expire live facts behind `end - width`,
    /// apply both as one batch, re-solve incrementally, evaluate
    /// continuous queries.
    fn fire(&mut self, end: i64, watermark: i64) -> Result<WindowFire, StreamError> {
        let start = self.spec.start_of(end);

        // One batch → one netted delta → one journal group → one
        // incremental re-solve.
        let mut batch = EditBatch::new();

        // Expiries: live stream facts that slid out of the window,
        // releasing their keys. Re-check liveness — an out-of-band edit
        // may already have removed the fact.
        let later = self.live.split_off(&start);
        let mut expired = 0;
        for (id, key) in std::mem::replace(&mut self.live, later)
            .into_values()
            .flatten()
        {
            if self.engine.graph().is_alive(id) {
                batch = batch.remove(id);
                expired += 1;
            }
            self.seen.remove(&key);
        }

        // Admissions: every buffered event behind the boundary, its
        // terms moved into the batch. (Events behind `start` cannot
        // exist here: they would have been admitted by an earlier fire
        // or dropped as late.)
        let later = self.pending.split_off(&end);
        let admit = std::mem::replace(&mut self.pending, later);
        let mut keys = Vec::new();
        for (ev, key) in admit.into_values().flatten() {
            batch = batch.insert(
                ev.subject,
                ev.predicate,
                ev.object,
                ev.interval,
                ev.confidence,
            );
            keys.push(key);
        }
        self.pending_len -= keys.len();
        let report = self.engine.apply(&batch);
        if report.wal_failed() {
            return match report.into_result() {
                Err(e) => Err(StreamError::Engine(e)),
                Ok(_) => Err(StreamError::Engine(tecore_core::TecoreError::Session(
                    "batch reported WAL failure without an error outcome".into(),
                ))),
            };
        }
        // Confidence was validated at push and expiries were
        // liveness-checked, so every op applied.
        debug_assert_eq!(report.inserted_ids().count(), keys.len());
        let admitted = keys.len();
        for (id, key) in report.inserted_ids().zip(keys) {
            self.live.entry(key.0).or_default().push((id, key));
        }

        let t0 = Instant::now();
        let snapshot = self.engine.resolve_incremental()?;
        let resolve_micros = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);

        self.fired_through = Some(end);
        let stats = WindowStats {
            start,
            end,
            admitted,
            expired,
            late_dropped: std::mem::take(&mut self.late_since_fire),
            duplicates_dropped: std::mem::take(&mut self.dups_since_fire),
            components: snapshot.stats.components,
            components_solved: snapshot.stats.components_solved,
            resolve_micros,
            lag: watermark - end,
            epoch: snapshot.epoch(),
        };
        self.totals.windows_fired += 1;
        self.totals.events_admitted += admitted as u64;
        self.totals.events_expired += expired as u64;
        self.totals.last_lag = stats.lag;

        for cq in &mut self.queries {
            let result = cq.spec.evaluate(&snapshot, start, end);
            cq.sink.deliver(cq.id, &result);
        }

        Ok(WindowFire { stats, snapshot })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tecore_kg::UtkGraph;
    use tecore_logic::LogicProgram;
    use tecore_temporal::Interval;

    fn event(t: i64, object: &str) -> StreamEvent {
        let spell = Interval::new(2000, 2004).unwrap();
        StreamEvent::new(t, "CR", "coach", object, spell, 0.9)
    }

    /// The session holds one key per buffered or live event and drops
    /// it when the event expires — also when the fact was removed out
    /// of band first — so its key set is the size of its window.
    #[test]
    fn keys_are_released_at_expiry() {
        let program = LogicProgram::parse(
            "c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf",
        )
        .unwrap();
        let engine = Engine::new(UtkGraph::new(), program);
        let mut session = StreamSession::new(engine, WindowSpec::tumbling(10).unwrap());
        session.push(event(1, "Chelsea")).unwrap();
        session.push(event(2, "Napoli")).unwrap();
        session.push(event(2, "Napoli")).unwrap();
        assert_eq!(session.seen.len(), 2, "a duplicate adds no key");
        session.advance_watermark(10).unwrap();
        assert_eq!(session.seen.len(), 2, "admitted events keep theirs");

        let napoli = session
            .engine()
            .graph()
            .statement_ids("CR", "coach", "Napoli")[0];
        let batch = EditBatch::new().remove(napoli);
        session.engine_mut().apply(&batch).into_result().unwrap();
        session.push(event(12, "Roma")).unwrap();
        session.advance_watermark(20).unwrap();
        assert_eq!(session.seen.len(), 1, "both expired keys released");
        session.drain().unwrap();
        assert!(session.seen.is_empty());
        // The terms were interned once, into the engine graph.
        let dict = session.engine().graph().dict();
        assert!(["CR", "coach", "Chelsea", "Napoli", "Roma"]
            .iter()
            .all(|t| dict.lookup(t).is_some()));
    }
}
