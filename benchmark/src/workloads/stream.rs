//! `stream_slide_w20k`: the generated event stream pushed in process
//! through a sliding window of ≈20k live facts (slide = width / 4) with
//! one continuous query registered. The operation is a push that fires
//! a window boundary; throughput is events ingested per second.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tecore_core::{EditBatch, Engine, Snapshot};
use tecore_datagen::{generate_stream, StreamConfig};
use tecore_kg::{FactId, StreamEvent, UtkGraph};
use tecore_logic::LogicProgram;
use tecore_stream::{QueryId, QuerySpec, StreamSession, WindowFire, WindowResult, WindowSpec};

use super::probe;
use crate::oracle::{event_meta, statement_hash, EventMeta, WindowModel};
use crate::procfs;
use crate::run::{
    engine_config, f1_of, fill_end_to_end, set_trace_overhead, timed_setups, Ctx, Outcome, Phase,
};
use crate::stats::median;
use crate::trace::Tracer;

/// The disjointness constraint of the streamed relation.
const PROGRAM: &str = "\
    c1: quad(x, playsFor, y, t) ^ quad(x, playsFor, z, t') ^ y != z \
        -> disjoint(t, t') w = inf";

/// Window width and slide in event-time units; live facts ≈ rate × width.
const WIDTH: i64 = 200;
const SLIDE: i64 = WIDTH / 4;
/// Allowed lateness: above the generator's jitter, so no event is late
/// and the window model below is exact.
const JITTER: i64 = 3;
const LATENESS: i64 = JITTER + 1;
/// Boundaries a set-up fires before the window counts as full.
const FILL_FIRES: usize = 6;
/// Fires discarded before the measured phase.
const WARMUP_FIRES: usize = 12;
/// `repair_f1` is taken over every [`F1_EVERY`]-th of the first
/// [`F1_FIRES`] measured fires — ten windows that share no event, the
/// same ten for a seed however long the phase runs.
const F1_FIRES: usize = 40;
const F1_EVERY: usize = (WIDTH / SLIDE) as usize;
/// The session's graph keeps every fact it was ever fed, so memory grows
/// with the events ingested and `VmHWM` at exit would follow the run's
/// speed. `peak_rss_mb` is read once this many events of the measured
/// phase are in (1/20 of it in a smoke run; at exit when the phase ends
/// before that).
const RSS_EVENTS: usize = 1_000_000;
/// Events one call of the generator makes (1/20 of it in a smoke run):
/// twenty per person, so that a person's spells of one chunk have left
/// the window long before the next chunk starts them over.
const CHUNK_EVENTS: usize = 100_000;

/// The event stream, generated a chunk at a time so that the engine,
/// not the load generator, sets `peak_rss_mb`. What the oracles need of
/// an event outlives it: its time in the window model, its noise label
/// until no window can hold it any more.
struct Feed {
    /// The next chunk's configuration (seed and start time move on).
    next: StreamConfig,
    pending: VecDeque<StreamEvent>,
    meta: Vec<EventMeta>,
    model: WindowModel,
    /// Order-sensitive fingerprint of the first chunk.
    fingerprint: u64,
    generated: u64,
    generate_ms: f64,
}

impl Feed {
    fn new(ctx: &Ctx) -> Feed {
        let mut feed = Feed {
            next: StreamConfig {
                events: ctx.scaled(CHUNK_EVENTS),
                people: ctx.scaled(5_000),
                clubs: 200,
                rate: if ctx.smoke { 5.0 } else { 100.0 },
                jitter: JITTER,
                duplicate_ratio: 0.02,
                conflict_ratio: 0.10,
                start_time: 0,
                seed: ctx.seed,
            },
            pending: VecDeque::new(),
            meta: Vec::new(),
            model: WindowModel::default(),
            fingerprint: 0,
            generated: 0,
            generate_ms: 0.0,
        };
        feed.generate();
        feed.fingerprint = feed
            .meta
            .iter()
            .fold(0, |h, m| (h ^ m.ident).rotate_left(1));
        feed
    }

    fn generate(&mut self) {
        let t0 = Instant::now();
        let chunk = generate_stream(&self.next);
        let meta = event_meta(&chunk);
        self.model.extend(&meta);
        self.next.seed = self.next.seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        self.next.start_time = meta.iter().map(|m| m.time).max().map_or(0, |t| t + 1);
        self.generated += chunk.len() as u64;
        self.meta.extend(meta);
        self.pending.extend(chunk);
        self.generate_ms += t0.elapsed().as_secs_f64() * 1e3;
    }

    /// Generates the next chunk once less than a quarter of one is left
    /// (five slides' worth), forgetting what lies before `window_start`.
    /// Called between operations, outside their timers.
    fn top_up(&mut self, window_start: i64) {
        if self.pending.len() < self.next.events / 4 {
            self.model.forget_before(window_start);
            self.meta.retain(|m| m.time >= window_start);
            self.generate();
        }
    }
}

fn continuous_query() -> QuerySpec {
    QuerySpec::new().predicate("playsFor").limit(10)
}

/// A fresh session over an empty graph with the continuous query
/// registered; `delivered` counts the answers pushed at its sink.
fn new_session(delivered: &Arc<AtomicU64>) -> StreamSession {
    let program = LogicProgram::parse(PROGRAM).expect("static program parses");
    let engine = Engine::with_config(UtkGraph::new(), program, engine_config("mln-walksat"));
    let window = WindowSpec::sliding(WIDTH, SLIDE).expect("slide divides width");
    let mut session = StreamSession::with_lateness(engine, window, LATENESS);
    let delivered = Arc::clone(delivered);
    session.register_query(continuous_query(), move |_: QueryId, _: &WindowResult| {
        // ordering: a statistic, read after the session is done.
        delivered.fetch_add(1, Ordering::Relaxed);
    });
    session
}

/// Compares one fire with the independent window model.
fn check_fire(fire: &WindowFire, model: &WindowModel) -> Result<(), String> {
    let (start, end) = (fire.stats.start, fire.stats.end);
    let expected = model.live(start, end);
    let live = fire.snapshot.stats.total_facts;
    if end - start != WIDTH {
        Err(format!("window [{start},{end}) is not {WIDTH} wide"))
    } else if live != expected {
        Err(format!(
            "window [{start},{end}) holds {live} live facts, the model says {expected}"
        ))
    } else {
        Ok(())
    }
}

/// Noise labels and removed facts of the sampled windows, for one
/// `repair_metrics` F1 over all of them.
#[derive(Default)]
struct RepairTally {
    labels: Vec<bool>,
    removed: Vec<FactId>,
}

impl RepairTally {
    /// Adds a fired window: its snapshot's facts labelled by the
    /// crafted-conflict labels of the events inside it.
    fn add(&mut self, fire: &WindowFire, meta: &[EventMeta]) {
        let window = fire.stats.start..fire.stats.end;
        let noise: HashMap<u64, bool> = meta
            .iter()
            .filter(|m| window.contains(&m.time))
            .map(|m| (m.statement, m.noise))
            .collect();
        let snapshot: &Snapshot = &fire.snapshot;
        let dict = snapshot.consistent.dict();
        let label = |f: &tecore_kg::TemporalFact| {
            let key = statement_hash(dict.resolve(f.subject), dict.resolve(f.object), f.interval);
            noise.get(&key).copied().unwrap_or(false)
        };
        // Removed facts first, kept facts after: ids in label order.
        let first = self.labels.len() as u32;
        self.removed
            .extend((0..snapshot.removed.len() as u32).map(|i| FactId(first + i)));
        self.labels.extend(
            snapshot
                .removed
                .iter()
                .map(|r| label(&r.fact))
                .chain(snapshot.consistent.iter().map(|(_, f)| label(f))),
        );
    }

    fn f1(self) -> f64 {
        f1_of(self.labels, &self.removed)
    }
}

/// One operation: push events until one fires a boundary. Returns the
/// firing push's start, the events pushed, and the fires — `None` when
/// the feed ran dry, which topping it up between operations prevents.
fn step(
    session: &mut StreamSession,
    feed: &mut Feed,
    mut push_ns: Option<&mut Vec<f64>>,
) -> Option<(Instant, u64, Result<Vec<WindowFire>, String>)> {
    let mut pushed = 0u64;
    loop {
        let event = feed.pending.pop_front()?;
        pushed += 1;
        let t0 = Instant::now();
        match session.push(event) {
            Ok(fires) if fires.is_empty() => {
                if let Some(log) = push_ns.as_deref_mut() {
                    log.push(t0.elapsed().as_nanos() as f64);
                }
            }
            Ok(fires) => return Some((t0, pushed, Ok(fires))),
            Err(e) => return Some((t0, pushed, Err(e.to_string()))),
        }
    }
}

/// Runs `stream_slide_w20k`.
pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut feed = Feed::new(ctx);
    out.notes
        .push(("inputs_fnv", format!("{:016x}", feed.fingerprint)));

    // Set-up: a fresh session fed the stream's head until the window is
    // full. Every repetition reads the same prefix of the first chunk.
    let delivered = Arc::new(AtomicU64::new(0));
    let ((mut session, consumed), setup) = timed_setups(
        tracer,
        |_, tracer| {
            delivered.store(0, Ordering::Relaxed);
            let mut session = tracer.span("stream.session_new", || new_session(&delivered));
            let mut fired = 0;
            let mut consumed = 0;
            for event in &feed.pending {
                consumed += 1;
                fired += session.push(event.clone()).map_or(0, |f| f.len());
                if fired >= FILL_FIRES {
                    break;
                }
            }
            (session, consumed)
        },
        drop,
    );
    feed.pending.drain(..consumed);
    let mut fires_seen = delivered.load(Ordering::Relaxed);
    // Start of the last window fired: no later window reaches before it.
    let mut window_start = i64::MIN;

    for _ in 0..WARMUP_FIRES {
        feed.top_up(window_start);
        if let Some((_, _, Ok(fires))) = step(&mut session, &mut feed, None) {
            fires_seen += fires.len() as u64;
            window_start = fires.last().map_or(window_start, |f| f.stats.start);
        }
    }

    let mut phase = Phase::begin(ctx.seconds, F1_FIRES);
    let mut tally = RepairTally::default();
    let mut push_ns = Vec::new();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut admitted, mut expired, mut resolve_ms, mut eval_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut pushed_total = 0u64;
    while phase.running() {
        let op = phase.ops();
        // The traced run times every push of every other operation (and
        // spans its fire), so tracing overhead is a paired comparison.
        let traced = tracer.enabled() && op % 2 == 1;
        tracer.set_op(op as u64);
        phase.outside(|| feed.top_up(window_start));
        let id = tracer.enter_if(traced, "stream.op");
        let stepped = step(&mut session, &mut feed, traced.then_some(&mut push_ns));
        tracer.exit(id);
        let Some((t0, pushed, result)) = stepped else {
            out.fail(format!("fire {op}: the feed ran dry"));
            break;
        };
        // Events between two fires are work too: the operation's units.
        let ms = phase.record(t0, pushed);
        let rss_due = ctx.scaled(RSS_EVENTS) as u64;
        if pushed_total < rss_due && pushed_total + pushed >= rss_due {
            if let Some(mb) = procfs::peak_rss_mb() {
                out.values.set("peak_rss_mb", mb);
            }
        }
        pushed_total += pushed;
        if traced {
            &mut traced_ms
        } else {
            &mut plain_ms
        }
        .push(ms);
        out.attempted += 1;
        match result {
            Err(e) => out.fail(format!("fire {op}: push failed: {e}")),
            Ok(fires) => {
                fires_seen += fires.len() as u64;
                if let Some(why) = fires.iter().find_map(|f| check_fire(f, &feed.model).err()) {
                    out.fail(format!("fire {op}: {why}"));
                }
                if let Some(fire) = fires.last() {
                    window_start = fire.stats.start;
                    if op < F1_FIRES && op.is_multiple_of(F1_EVERY) {
                        phase.outside(|| tally.add(fire, &feed.meta));
                    }
                }
                for fire in &fires {
                    admitted.push(fire.stats.admitted as f64);
                    expired.push(fire.stats.expired as f64);
                    resolve_ms.push(fire.stats.resolve_micros as f64 / 1e3);
                    if traced {
                        // What the session's sink costs per fire, re-enacted.
                        let t0 = Instant::now();
                        std::hint::black_box(continuous_query().evaluate(
                            &fire.snapshot,
                            fire.stats.start,
                            fire.stats.end,
                        ));
                        eval_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    }
                }
            }
        }
    }
    let summary = phase.finish();
    if fires_seen != delivered.load(Ordering::Relaxed) {
        out.fail(format!(
            "{fires_seen} windows fired, the continuous query was answered {} times",
            delivered.load(Ordering::Relaxed)
        ));
    }
    fill_end_to_end(&mut out, &setup, &summary, tally.f1());
    out.values.set("datagen.generate_ms", feed.generate_ms);
    out.notes.push((
        "events",
        format!("{pushed_total} measured of {} generated", feed.generated),
    ));

    if tracer.enabled() {
        let totals = *session.totals();
        let offered = (totals.events_admitted + totals.duplicates_dropped + totals.late_dropped)
            .max(1) as f64;
        out.values.set("stream.push_ns", median(&push_ns));
        out.values.set("stream.fire_ms", summary.op_p50_ms);
        out.values.set("stream.slide_p99_ms", summary.op_p99_ms);
        out.values
            .set("stream.admitted_per_fire", median(&admitted));
        out.values.set("stream.expired_per_fire", median(&expired));
        out.values.set(
            "stream.dedup_drop_share",
            totals.duplicates_dropped as f64 / offered,
        );
        out.values.set(
            "stream.late_drop_share",
            totals.late_dropped as f64 / offered,
        );
        out.values.set("stream.query_eval_us", median(&eval_us));
        out.values.set(
            "logic.parse_us",
            median(&tracer.durations_ms("stream.session_new")) * 1e3,
        );
        set_trace_overhead(&mut out, &plain_ms, &traced_ms);
        // Per-stage cost of a slide, on the session's own engine now that
        // the stream is done with it: admit a slide's worth of events as
        // one batch, then retract them as one batch, three times over.
        feed.top_up(window_start);
        let slide_events: Vec<StreamEvent> = feed
            .pending
            .drain(..(median(&admitted) as usize).clamp(1, feed.pending.len()))
            .collect();
        let engine = session.engine_mut();
        // Ids are arena positions, minted in batch order; removes mint none.
        let first = engine.graph().arena_len() as u32;
        let per_slide = slide_events.len() as u32;
        let mut batches = Vec::with_capacity(6);
        for cycle in 0..3 {
            let (mut admit, mut retract) = (EditBatch::new(), EditBatch::new());
            for (i, e) in slide_events.iter().enumerate() {
                admit = admit.insert(
                    e.subject.as_str(),
                    e.predicate.as_str(),
                    e.object.as_str(),
                    e.interval,
                    e.confidence,
                );
                retract = retract.remove(FactId(first + cycle * per_slide + i as u32));
            }
            batches.extend([admit, retract]);
        }
        probe::incremental_probe(engine, &batches, tracer, &mut out);
        probe::grounding_probe(engine, tracer, &mut out);
        // The session's own resolves are the better sample of this one.
        out.values.set("core.resolve_incr_ms", median(&resolve_ms));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WORKLOADS;

    fn feed(seed: u64) -> Feed {
        Feed::new(&Ctx {
            workload: &WORKLOADS[5],
            seed,
            seconds: 1.0,
            trace: false,
            smoke: true,
            out_dir: std::path::PathBuf::new(),
        })
    }

    #[test]
    fn event_list_is_a_function_of_the_seed() {
        assert_eq!(feed(1).fingerprint, feed(1).fingerprint);
        assert_ne!(feed(1).fingerprint, feed(2).fingerprint);
    }

    #[test]
    fn chunks_follow_one_another_in_time_and_old_labels_are_forgotten() {
        let mut feed = feed(3);
        let chunk = feed.pending.len();
        let first_end = feed.next.start_time;
        assert!(feed.pending.iter().all(|e| e.time < first_end));
        feed.top_up(0);
        assert_eq!(feed.pending.len(), chunk, "three quarters are left");
        feed.pending.drain(..chunk * 4 / 5);
        feed.top_up(first_end / 2);
        assert_eq!(feed.generated as usize, 2 * chunk);
        assert!(feed
            .pending
            .iter()
            .skip(chunk / 5)
            .all(|e| e.time >= first_end));
        assert!(feed.meta.iter().all(|m| m.time >= first_end / 2));
        assert_eq!(feed.model.live(0, first_end / 2), 0);
        assert!(feed.model.live(first_end / 2, first_end) > 0);
    }
}
