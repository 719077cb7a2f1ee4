//! Window conformance: a [`StreamSession`] is checked against an
//! independently-written model of the window semantics. At every fired
//! boundary, the session's live graph must hold exactly the model's
//! in-window events, and the session's *incrementally* maintained
//! resolution must equal a cold engine resolving exactly those events
//! from scratch — on all four MAP backends.
//!
//! Directed tests pin the watermark edge cases (late drop, admission
//! within the allowed lateness, monotonicity) and the incremental
//! promise itself: steady-state slides re-solve only dirty components.

use proptest::prelude::*;
use tecore_core::{EditBatch, Engine, SolverRegistry, TecoreConfig};
use tecore_kg::{StreamEvent, UtkGraph};
use tecore_logic::LogicProgram;
use tecore_stream::{StreamSession, WindowFire, WindowSpec};
use tecore_temporal::Interval;

const PROGRAM: &str = "\
    c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf";

fn program() -> LogicProgram {
    LogicProgram::parse(PROGRAM).unwrap()
}

/// The four registered backends.
const BACKENDS: [&str; 4] = ["mln-exact", "mln-walksat", "mln-cpi", "psl-admm"];

fn engine_config(backend: &str) -> TecoreConfig {
    TecoreConfig {
        backend: SolverRegistry::with_default_backends()
            .resolve(backend)
            .unwrap(),
        ..TecoreConfig::default()
    }
}

fn engine_for(backend: &str) -> Engine {
    Engine::with_config(UtkGraph::new(), program(), engine_config(backend))
}

/// The independent window model: the same S2R semantics written as
/// plain list manipulation, no engine, no batching, no arena.
struct Model {
    width: i64,
    slide: i64,
    lateness: i64,
    max_seen: Option<i64>,
    fired_through: Option<i64>,
    pending: Vec<StreamEvent>,
    live: Vec<StreamEvent>,
    seen: Vec<(StreamEvent, u32)>,
    late_dropped: u64,
    duplicates_dropped: u64,
}

/// One model fire: the boundary and the exact in-window event set.
struct ModelFire {
    start: i64,
    end: i64,
    in_window: Vec<StreamEvent>,
}

impl Model {
    fn new(width: i64, slide: i64, lateness: i64) -> Model {
        Model {
            width,
            slide,
            lateness,
            max_seen: None,
            fired_through: None,
            pending: Vec::new(),
            live: Vec::new(),
            seen: Vec::new(),
            late_dropped: 0,
            duplicates_dropped: 0,
        }
    }

    fn first_end_after(&self, t: i64) -> i64 {
        t.div_euclid(self.slide) * self.slide + self.slide
    }

    fn next_boundary(&self) -> Option<i64> {
        match self.fired_through {
            Some(end) => Some(end + self.slide),
            None => {
                let earliest = self.pending.iter().map(|e| e.time).min()?;
                Some(self.first_end_after(earliest))
            }
        }
    }

    fn push(&mut self, event: StreamEvent) -> Vec<ModelFire> {
        if let Some(fired) = self.fired_through {
            if event.time < fired + self.slide - self.width {
                self.late_dropped += 1;
                return Vec::new();
            }
        }
        if self.seen.iter().any(|(e, n)| *n > 0 && *e == event) {
            self.duplicates_dropped += 1;
            return Vec::new();
        }
        match self.seen.iter_mut().find(|(e, _)| *e == event) {
            Some(entry) => entry.1 += 1,
            None => self.seen.push((event.clone(), 1)),
        }
        self.max_seen = Some(self.max_seen.unwrap_or(i64::MIN).max(event.time));
        self.pending.push(event);
        self.fire_due()
    }

    fn fire_due(&mut self) -> Vec<ModelFire> {
        let mut fires = Vec::new();
        let Some(max) = self.max_seen else {
            return fires;
        };
        let watermark = max - self.lateness;
        while let Some(end) = self.next_boundary() {
            if end > watermark {
                break;
            }
            let start = end - self.width;
            let admits = self.pending.iter().any(|e| e.time < end);
            let expires = self.live.iter().any(|e| e.time < start);
            self.fired_through = Some(end);
            if !admits && !expires {
                continue;
            }
            for expired in self.live.iter().filter(|e| e.time < start) {
                if let Some(pos) = self.seen.iter().position(|(e, _)| e == expired) {
                    self.seen[pos].1 = self.seen[pos].1.saturating_sub(1);
                    if self.seen[pos].1 == 0 {
                        self.seen.remove(pos);
                    }
                }
            }
            self.live.retain(|e| e.time >= start);
            let (admit, still_pending): (Vec<_>, Vec<_>) =
                self.pending.drain(..).partition(|e| e.time < end);
            self.pending = still_pending;
            self.live.extend(admit);
            fires.push(ModelFire {
                start,
                end,
                in_window: self.live.clone(),
            });
        }
        fires
    }

    fn drain(&mut self) -> Vec<ModelFire> {
        let mut fires = Vec::new();
        while !self.pending.is_empty() || !self.live.is_empty() {
            let next = self.next_boundary().expect("pending or live is non-empty");
            self.max_seen = Some(self.max_seen.unwrap_or(i64::MIN).max(next + self.lateness));
            fires.extend(self.fire_due());
        }
        fires
    }
}

/// Sorted display lines of a graph's live facts (ids excluded — the
/// session arena and a cold graph mint different ids).
fn live_lines(graph: &UtkGraph) -> Vec<String> {
    let mut lines: Vec<String> = graph
        .iter()
        .map(|(_, f)| f.display(graph.dict()).to_string())
        .collect();
    lines.sort();
    lines
}

/// Checks one session fire against the model's fire at the same
/// boundary: identical window, identical evidence (reconstructed from
/// the fire's snapshot as surviving + removed facts), and a resolution
/// equal to a cold engine over exactly the in-window events.
fn check_fire(backend: &str, got: &WindowFire, want: &ModelFire) {
    assert_eq!(got.stats.start, want.start, "window start");
    assert_eq!(got.stats.end, want.end, "window end");

    let mut cold_graph = UtkGraph::new();
    for ev in &want.in_window {
        cold_graph
            .insert(
                &ev.subject,
                &ev.predicate,
                &ev.object,
                ev.interval,
                ev.confidence,
            )
            .unwrap();
    }
    let resolution = got.snapshot.resolution();
    let dict = got.snapshot.expanded().dict();
    let mut evidence: Vec<String> = resolution
        .consistent
        .iter()
        .map(|(_, f)| f.display(resolution.consistent.dict()).to_string())
        .collect();
    evidence.extend(
        resolution
            .removed
            .iter()
            .map(|r| r.fact.display(dict).to_string()),
    );
    evidence.sort();
    assert_eq!(
        evidence,
        live_lines(&cold_graph),
        "window evidence diverged from the model at {}..{}",
        want.start,
        want.end
    );

    let mut cold = Engine::with_config(cold_graph, program(), engine_config(backend));
    let cold_snapshot = cold.resolve().unwrap();
    assert_eq!(
        got.snapshot.stats.conflicting_facts, cold_snapshot.stats.conflicting_facts,
        "conflict count diverged on {} at window {}..{}",
        backend, want.start, want.end
    );
    let cost_gap = (got.snapshot.stats.cost - cold_snapshot.stats.cost).abs();
    assert!(
        cost_gap <= 1e-6,
        "MAP cost diverged on {} at window {}..{}: incremental {} vs cold {}",
        backend,
        want.start,
        want.end,
        got.snapshot.stats.cost,
        cold_snapshot.stats.cost
    );
}

/// One symbolic event: time, person, club, confidence step. All spells
/// share one interval, so same-person different-club pairs conflict.
fn arb_event() -> impl Strategy<Value = (i64, u8, u8, u8)> {
    (0i64..60, 0u8..3, 0u8..3, 1u8..=100)
}

fn event(spec: &(i64, u8, u8, u8)) -> StreamEvent {
    let (t, s, o, c) = *spec;
    StreamEvent::new(
        t,
        format!("person{s}"),
        "coach",
        format!("club{o}"),
        Interval::new(2000, 2010).unwrap(),
        f64::from(c) / 100.0,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The model-conformance property on every backend: feed a random
    /// event sequence through session and model in lockstep, check
    /// every fire, then drain both and check the tail fires too.
    #[test]
    fn session_matches_model_on_all_backends(
        specs in prop::collection::vec(arb_event(), 1..36),
        window_sel in 0u8..3,
        lateness in 0i64..6,
    ) {
        let (width, slide) = [(10i64, 10i64), (10, 5), (20, 5)][window_sel as usize];
        let events: Vec<StreamEvent> = specs.iter().map(event).collect();
        for backend in BACKENDS {
            let spec = WindowSpec::sliding(width, slide).unwrap();
            let mut session = StreamSession::with_lateness(engine_for(backend), spec, lateness);
            let mut model = Model::new(width, slide, lateness);
            let mut last_watermark = None;

            for ev in &events {
                let got = session.push(ev.clone()).unwrap();
                let want = model.push(ev.clone());
                prop_assert_eq!(got.len(), want.len(), "fire count diverged");
                for (g, w) in got.iter().zip(&want) {
                    check_fire(backend, g, w);
                }
                // After the push, the session's live graph must hold
                // exactly the model's current in-window population.
                let mut current: Vec<String> = Vec::new();
                {
                    let mut g = UtkGraph::new();
                    for ev in &model.live {
                        g.insert(&ev.subject, &ev.predicate, &ev.object, ev.interval, ev.confidence)
                            .unwrap();
                    }
                    current.extend(live_lines(&g));
                }
                prop_assert_eq!(
                    live_lines(session.engine().graph()),
                    current,
                    "live graph diverged after push"
                );
                // Watermark monotonicity, regardless of event order.
                prop_assert!(session.watermark() >= last_watermark);
                last_watermark = session.watermark();
            }

            let got = session.drain().unwrap();
            let want = model.drain();
            prop_assert_eq!(got.len(), want.len(), "drain fire count diverged");
            for (g, w) in got.iter().zip(&want) {
                check_fire(backend, g, w);
            }
            prop_assert_eq!(session.pending_events(), 0);
            prop_assert_eq!(session.live_facts(), 0);
            prop_assert_eq!(
                session.totals().late_dropped, model.late_dropped,
                "late-drop count diverged"
            );
            prop_assert_eq!(
                session.totals().duplicates_dropped, model.duplicates_dropped,
                "duplicate count diverged"
            );
        }
    }
}

fn tumbling_session(lateness: i64) -> StreamSession {
    StreamSession::with_lateness(
        engine_for("mln-exact"),
        WindowSpec::tumbling(10).unwrap(),
        lateness,
    )
}

fn simple(t: i64, s: &str) -> StreamEvent {
    StreamEvent::new(
        t,
        s,
        "coach",
        "club",
        Interval::new(2000, 2004).unwrap(),
        0.9,
    )
}

/// An event behind the last fired boundary's window start is dropped,
/// counted, and never reaches the graph.
#[test]
fn late_event_is_dropped() {
    let mut session = tumbling_session(0);
    assert!(session.push(simple(5, "a")).unwrap().is_empty());
    let fires = session.push(simple(12, "b")).unwrap();
    assert_eq!(fires.len(), 1, "watermark 12 fires [0,10)");
    assert_eq!(fires[0].stats.admitted, 1);

    // t=7 now precedes the next window's start (10): late, dropped.
    assert!(session.push(simple(7, "late")).unwrap().is_empty());
    assert_eq!(session.totals().late_dropped, 1);
    assert_eq!(session.totals().events_admitted, 1);
    assert_eq!(session.live_facts(), 1, "only the in-flight b event");
}

/// With allowed lateness, the same out-of-order event is admitted: the
/// watermark lags the stream head, holding the boundary open.
#[test]
fn event_within_lateness_is_admitted() {
    let mut session = tumbling_session(5);
    assert!(session.push(simple(5, "a")).unwrap().is_empty());
    // Head 12, watermark 7: boundary 10 not yet due.
    assert!(session.push(simple(12, "b")).unwrap().is_empty());
    // Out of order but ahead of the watermark: admitted.
    assert!(session.push(simple(8, "c")).unwrap().is_empty());
    // Head 18, watermark 13 ≥ 10: [0,10) fires with a AND c.
    let fires = session.push(simple(18, "d")).unwrap();
    assert_eq!(fires.len(), 1);
    assert_eq!(fires[0].stats.admitted, 2);
    assert_eq!(session.totals().late_dropped, 0);
}

/// The watermark never regresses, whatever order events arrive in.
#[test]
fn watermark_is_monotone() {
    let mut session = tumbling_session(3);
    let times = [9i64, 4, 17, 2, 30, 11, 29];
    let mut last = None;
    for (i, t) in times.into_iter().enumerate() {
        let _ = session.push(simple(t, &format!("s{i}"))).unwrap();
        assert!(session.watermark() >= last, "watermark regressed at t={t}");
        last = session.watermark();
    }
    assert_eq!(session.watermark(), Some(30 - 3));
}

/// The incremental promise: on a steady-state slide where most of the
/// window's population persists, the engine re-solves only the dirty
/// components — strictly fewer than the component total.
#[test]
fn steady_state_slides_resolve_only_dirty_components() {
    let spec = WindowSpec::sliding(30, 10).unwrap();
    let mut session = StreamSession::with_lateness(engine_for("mln-exact"), spec, 0);

    // One isolated conflict pair per decade bucket: persons never share
    // facts across buckets, so each bucket is its own component and a
    // slide only dirties the expiring and the arriving buckets.
    let mut steady_state_checked = false;
    for bucket in 0..8i64 {
        let t = bucket * 10 + 1;
        let person = format!("person{bucket}");
        let mk = |club: &str| {
            StreamEvent::new(
                t,
                person.as_str(),
                "coach",
                club,
                Interval::new(2000, 2004).unwrap(),
                0.8,
            )
        };
        let mut fires = session.push(mk("red")).unwrap();
        fires.extend(session.push(mk("blue")).unwrap());
        for fire in &fires {
            // Steady state = a full-width window with carried-over
            // population (3 buckets in-window, 1 arriving, ≤1 leaving).
            if fire.stats.start > 0 {
                assert!(
                    fire.stats.components_solved < fire.stats.components,
                    "slide {}..{} re-solved all {} components",
                    fire.stats.start,
                    fire.stats.end,
                    fire.stats.components
                );
                steady_state_checked = true;
            }
        }
    }
    assert!(steady_state_checked, "no steady-state slide fired");
}

fn spell(t: i64, s: &str, p: &str, o: &str, (a, b): (i64, i64), confidence: f64) -> StreamEvent {
    StreamEvent::new(t, s, p, o, Interval::new(a, b).unwrap(), confidence)
}

/// Duplicate suppression compares the whole identity, terms by symbol
/// and confidence bit for bit: an event that differs from another in
/// one term, one interval bound or the last bit of its confidence is
/// its own event, and both are admitted.
#[test]
fn twins_differing_in_one_field_are_both_admitted() {
    let base = spell(1, "CR", "coach", "Chelsea", (2000, 2004), 0.9);
    let nudged = f64::from_bits(0.9f64.to_bits() ^ 1);
    let twins = [
        spell(1, "CR2", "coach", "Chelsea", (2000, 2004), 0.9),
        spell(1, "CR", "manages", "Chelsea", (2000, 2004), 0.9),
        spell(1, "CR", "coach", "Chelsea2", (2000, 2004), 0.9),
        spell(1, "CR", "coach", "Chelsea", (1999, 2004), 0.9),
        spell(1, "CR", "coach", "Chelsea", (2000, 2005), 0.9),
        spell(1, "CR", "coach", "Chelsea", (2000, 2004), nudged),
    ];
    let mut session = tumbling_session(0);
    session.push(base.clone()).unwrap();
    for twin in &twins {
        assert!(session.push(twin.clone()).unwrap().is_empty());
    }
    // The exact base again is the one duplicate.
    session.push(base).unwrap();
    let fires = session.advance_watermark(10).unwrap();
    assert_eq!(fires.len(), 1);
    assert_eq!(fires[0].stats.admitted, 1 + twins.len());
    assert_eq!(fires[0].stats.duplicates_dropped, 1);
    assert_eq!(session.engine().graph().len(), 1 + twins.len());
}

/// An event pushed again while its twin is buffered or live is a
/// duplicate. Once the twin has expired, the same event is behind the
/// window — late, not a duplicate: the session forgot the twin's key
/// when it expired it.
#[test]
fn a_twin_is_a_duplicate_while_live_and_late_once_expired() {
    let spec = WindowSpec::sliding(20, 10).unwrap();
    let mut session = StreamSession::with_lateness(engine_for("mln-exact"), spec, 0);
    let e = spell(5, "CR", "coach", "Chelsea", (2000, 2004), 0.9);
    session.push(e.clone()).unwrap();
    session.push(e.clone()).unwrap(); // buffered twin
    assert_eq!(session.totals().duplicates_dropped, 1);
    let fires = session.advance_watermark(10).unwrap();
    assert_eq!(fires[0].stats.admitted, 1);
    session.push(e.clone()).unwrap(); // live twin
    assert_eq!(session.totals().duplicates_dropped, 2);
    assert_eq!(session.totals().late_dropped, 0);

    // [0,20) keeps it; [10,30) expires it.
    let fires = session.advance_watermark(30).unwrap();
    assert_eq!(fires.iter().map(|f| f.stats.expired).sum::<usize>(), 1);
    assert_eq!(session.live_facts(), 0);
    session.push(e).unwrap();
    assert_eq!(session.totals().duplicates_dropped, 2);
    assert_eq!(session.totals().late_dropped, 1);
}

/// A stream fact removed out of band through `engine_mut()` is skipped
/// at expiry (not removed twice), and its slot in the live window goes
/// like any other.
#[test]
fn a_fact_removed_out_of_band_expires_quietly() {
    let mut session = tumbling_session(0);
    session
        .push(spell(1, "CR", "coach", "Chelsea", (2000, 2004), 0.9))
        .unwrap();
    session
        .push(spell(2, "CR", "coach", "Napoli", (2001, 2003), 0.6))
        .unwrap();
    session.advance_watermark(10).unwrap();
    let napoli = session
        .engine()
        .graph()
        .statement_ids("CR", "coach", "Napoli")[0];
    let batch = EditBatch::new().remove(napoli);
    session.engine_mut().apply(&batch).into_result().unwrap();
    session
        .push(spell(12, "CR", "coach", "Roma", (2019, 2021), 0.8))
        .unwrap();

    let fires = session.advance_watermark(20).unwrap();
    assert_eq!(fires.len(), 1);
    assert_eq!(fires[0].stats.expired, 1, "only Chelsea was still live");
    assert_eq!(fires[0].stats.admitted, 1);
    assert_eq!(session.live_facts(), 1);
    assert_eq!(live_lines(session.engine().graph()).len(), 1);
}

/// A window that replaces its whole population every slide leaves the
/// grounding mostly dead atoms; past half, the engine re-grounds from
/// scratch to compact it, and every snapshot after says how often.
#[test]
fn sliding_session_snapshots_count_compaction_regrounds() {
    let mut session = tumbling_session(0);
    let mut counts = Vec::new();
    for window in 0..6i64 {
        for i in 0..100 {
            let t = window * 10 + i % 10;
            session
                .push(spell(
                    t,
                    &format!("p{window}_{i}"),
                    "coach",
                    "club",
                    (2000, 2004),
                    0.9,
                ))
                .unwrap();
        }
        for fire in session.advance_watermark(window * 10 + 10).unwrap() {
            counts.push(fire.snapshot.stats.compaction_regrounds);
        }
    }
    assert_eq!(counts.len(), 6);
    assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
    // Window 3 holds 100 live of 300 atoms, window 5 likewise again.
    assert_eq!(counts, vec![0, 0, 1, 1, 2, 2]);
    let stats = &session.engine().latest().unwrap().stats;
    assert!(stats.to_string().contains("compact regrounds  : 2"));
}

/// An unregistered query hears nothing more, the others keep hearing
/// every fire, and an id unregisters once.
#[test]
fn unregistered_query_receives_no_further_results() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use tecore_stream::{QueryId, QuerySpec, WindowResult};

    let mut session = tumbling_session(0);
    let counter = || {
        let count = Arc::new(AtomicUsize::new(0));
        let sink = Arc::clone(&count);
        let sink = move |_: QueryId, _: &WindowResult| {
            sink.fetch_add(1, Ordering::Relaxed);
        };
        (count, sink)
    };
    let (dropped_count, dropped_sink) = counter();
    let (kept_count, kept_sink) = counter();
    let dropped = session.register_query(QuerySpec::new().predicate("coach"), dropped_sink);
    session.register_query(QuerySpec::new().predicate("coach"), kept_sink);
    // Fires window `window` with one fresh fact in it.
    let fire = |session: &mut StreamSession, window: i64| {
        let club = format!("club{window}");
        let event = spell(window * 10 + 1, "CR", "coach", &club, (2000, 2004), 0.9);
        session.push(event).unwrap();
        session.advance_watermark(window * 10 + 10).unwrap().len()
    };

    assert_eq!(fire(&mut session, 0), 1);
    assert_eq!(dropped_count.load(Ordering::Relaxed), 1);
    assert_eq!(kept_count.load(Ordering::Relaxed), 1);

    assert!(session.unregister_query(dropped));
    assert_eq!(fire(&mut session, 1) + fire(&mut session, 2), 2);
    assert_eq!(
        dropped_count.load(Ordering::Relaxed),
        1,
        "no result after unregistering"
    );
    assert_eq!(
        kept_count.load(Ordering::Relaxed),
        3,
        "the other query keeps receiving"
    );

    assert!(!session.unregister_query(dropped), "an id unregisters once");
    assert!(!session.unregister_query(QueryId(99)), "unknown id");
}
