//! Streaming-window throughput — events/sec and per-slide latency
//! across window widths.
//!
//! Drives the datagen event stream (out-of-order arrivals, injected
//! duplicates and conflicts) through a [`StreamSession`] at three
//! window widths (1s tumbling, 10s/5s sliding, 60s/20s sliding) and
//! measures:
//!
//! * **events/sec** — end-to-end ingest rate, windowing + dedup +
//!   batched admission/expiry + incremental re-solve included;
//! * **per-slide p50/p99** — the wall-clock cost of the pushes that
//!   fired a boundary (admit + expire as one `EditBatch`, dirty-
//!   component re-solve, continuous-query evaluation).
//!
//! Wider windows carry more live facts per slide but expire
//! proportionally fewer per boundary; the per-slide tail is where the
//! incremental promise shows up — it tracks the *delta*, not the
//! window population.
//!
//! `width_60s/engine_slide` is the same 60s/20s slides without the
//! session: the admit/expire batches are computed up front from the
//! event list and applied to a bare [`Engine`] (`apply` +
//! `resolve_incremental`, timed per batch), each right after the push
//! that fired it in the session, so that both sides of a slide see the
//! host alike. Over `slide_latency` it gives what the session's own
//! bookkeeping costs a slide.
//!
//! Not a criterion closed loop (the stream is consumed once, in
//! order), but it honours the same environment contract:
//! `TECORE_BENCH_SMOKE=1` shrinks the stream to CI scale and the
//! report lands in `TECORE_BENCH_DIR` as `BENCH_stream_windows.json`,
//! gated by `tools/bench_check` like every other baseline.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use tecore_bench::harness;
use tecore_core::{EditBatch, EditOp, Engine, TecoreConfig};
use tecore_datagen::{generate_stream, StreamConfig};
use tecore_kg::{FactId, StreamEvent, UtkGraph};
use tecore_logic::LogicProgram;
use tecore_stream::{StreamSession, WindowSpec};

const PROGRAM: &str = "\
    c1: quad(x, playsFor, y, t) ^ quad(x, playsFor, z, t') ^ y != z \
        -> disjoint(t, t') w = inf";

fn smoke_mode() -> bool {
    std::env::var("TECORE_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

struct WidthRun {
    label: &'static str,
    events: usize,
    elapsed_ns: u64,
    slide_ns: Vec<u64>,
    /// The same slides on a bare engine (empty when not measured).
    engine_ns: Vec<u64>,
    windows_fired: u64,
    admitted: u64,
    expired: u64,
}

impl WidthRun {
    fn events_per_sec(&self) -> u64 {
        (self.events as f64 / (self.elapsed_ns as f64 / 1e9).max(1e-9)) as u64
    }

    fn percentile(&self, p: f64) -> u64 {
        percentile(&self.slide_ns, p)
    }
}

/// The `p`-th percentile of sorted times (nearest rank).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    let n = sorted.len();
    if n == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * (n - 1) as f64).round() as usize;
    sorted[rank.min(n - 1)]
}

/// Allowed lateness of every session in this bench.
const LATENESS: i64 = 4;

fn engine() -> Engine {
    Engine::with_config(
        UtkGraph::new(),
        LogicProgram::parse(PROGRAM).expect("program parses"),
        TecoreConfig {
            backend: harness::solver("mln-walksat"),
            ..TecoreConfig::default()
        },
    )
}

/// Feeds the whole stream through one session configuration, timing
/// every push that fired at least one boundary. `batches`, when not
/// empty, are that session's slides (see [`slide_batches`]): each is
/// applied to a bare engine and timed after the push that fired it.
fn run_width(
    label: &'static str,
    spec: WindowSpec,
    events: &[StreamEvent],
    batches: &[EditBatch],
) -> WidthRun {
    let mut session = StreamSession::with_lateness(engine(), spec, LATENESS);
    let mut bare = engine();
    let mut batches = batches.iter();

    let mut slide_ns = Vec::new();
    let mut engine_ns = Vec::new();
    let start = Instant::now();
    for event in events {
        let t0 = Instant::now();
        let fires = session.push(event.clone()).expect("stream push");
        if !fires.is_empty() {
            // A push that crossed k boundaries did k slides' work;
            // attribute the cost evenly so percentiles stay per-slide.
            let each = t0.elapsed().as_nanos() as u64 / fires.len() as u64;
            slide_ns.extend(std::iter::repeat_n(each, fires.len()));
        }
        for batch in batches.by_ref().take(fires.len()) {
            let t0 = Instant::now();
            let report = bare.apply(batch);
            assert_eq!(report.applied(), batch.len(), "every op applies");
            bare.resolve_incremental().expect("resolve");
            engine_ns.push(t0.elapsed().as_nanos() as u64);
        }
    }
    let elapsed_ns = start.elapsed().as_nanos() as u64 - engine_ns.iter().sum::<u64>();
    let totals = session.totals();
    assert!(totals.windows_fired > 0, "{label}: no windows fired");
    assert!(totals.events_admitted > 0, "{label}: nothing admitted");
    assert!(batches.next().is_none(), "{label}: more batches than fires");

    slide_ns.sort_unstable();
    engine_ns.sort_unstable();
    WidthRun {
        label,
        events: events.len(),
        elapsed_ns,
        slide_ns,
        engine_ns,
        windows_fired: totals.windows_fired,
        admitted: totals.events_admitted,
        expired: totals.events_expired,
    }
}

type Key = (i64, String, String, String, i64, i64, u64);

/// The batches a session over a fresh engine fires for `events`, from
/// the window semantics alone: late and duplicate events dropped,
/// boundaries without work skipped, and each fire's expiries (by the
/// ids the engine mints in admission order) ahead of its admissions.
fn slide_batches(spec: WindowSpec, events: &[StreamEvent]) -> Vec<EditBatch> {
    let mut batches = Vec::new();
    let mut seen: HashSet<Key> = HashSet::new();
    let mut pending: BTreeMap<i64, Vec<(&StreamEvent, Key)>> = BTreeMap::new();
    let mut live: BTreeMap<i64, Vec<(FactId, Key)>> = BTreeMap::new();
    let (mut max_seen, mut fired_through) = (i64::MIN, None);
    let mut next_id = 0;
    for ev in events {
        if fired_through.is_some_and(|f| ev.time < spec.start_of(f + spec.slide())) {
            continue;
        }
        let key = (
            ev.time,
            ev.subject.clone(),
            ev.predicate.clone(),
            ev.object.clone(),
            ev.interval.start().value(),
            ev.interval.end().value(),
            ev.confidence.to_bits(),
        );
        if !seen.insert(key.clone()) {
            continue;
        }
        max_seen = max_seen.max(ev.time);
        pending.entry(ev.time).or_default().push((ev, key));
        loop {
            let end = match fired_through {
                Some(f) => f + spec.slide(),
                None => spec.first_end_after(*pending.keys().next().expect("just pushed")),
            };
            if end > max_seen - LATENESS {
                break;
            }
            fired_through = Some(end);
            let later = live.split_off(&spec.start_of(end));
            let expire = std::mem::replace(&mut live, later);
            let later = pending.split_off(&end);
            let admit = std::mem::replace(&mut pending, later);
            if expire.is_empty() && admit.is_empty() {
                continue;
            }
            let mut batch = EditBatch::new();
            for (id, key) in expire.into_values().flatten() {
                batch = batch.remove(id);
                seen.remove(&key);
            }
            for (ev, key) in admit.into_values().flatten() {
                batch = batch.insert(
                    ev.subject.as_str(),
                    ev.predicate.as_str(),
                    ev.object.as_str(),
                    ev.interval,
                    ev.confidence,
                );
                live.entry(ev.time)
                    .or_default()
                    .push((FactId(next_id), key));
                next_id += 1;
            }
            batches.push(batch);
        }
    }
    batches
}

fn report_entry(out: &mut String, run: &WidthRun) {
    use std::fmt::Write;
    write!(
        out,
        "  {{\"name\": \"stream_windows/{label}/slide_latency\", \"median_ns\": {p50}, \
         \"min_ns\": {min}, \"max_ns\": {max}, \"stddev_ns\": 0, \"samples\": {n}, \
         \"p50_ns\": {p50}, \"p99_ns\": {p99}, \"eps\": {eps}}},\n  \
         {{\"name\": \"stream_windows/{label}/elapsed\", \"median_ns\": {el}, \
         \"min_ns\": {el}, \"max_ns\": {el}, \"stddev_ns\": 0, \"samples\": 1}}",
        label = run.label,
        p50 = run.percentile(50.0),
        p99 = run.percentile(99.0),
        min = run.slide_ns.first().copied().unwrap_or(0),
        max = run.slide_ns.last().copied().unwrap_or(0),
        n = run.slide_ns.len(),
        eps = run.events_per_sec(),
        el = run.elapsed_ns,
    )
    .expect("writing to a String never fails");
    if let (Some(min), Some(max)) = (run.engine_ns.first(), run.engine_ns.last()) {
        write!(
            out,
            ",\n  {{\"name\": \"stream_windows/{label}/engine_slide\", \"median_ns\": {p50}, \
             \"min_ns\": {min}, \"max_ns\": {max}, \"stddev_ns\": 0, \"samples\": {n}}}",
            label = run.label,
            p50 = percentile(&run.engine_ns, 50.0),
            n = run.engine_ns.len(),
        )
        .expect("writing to a String never fails");
    }
}

fn main() {
    let smoke = smoke_mode();
    // Smoke mode shrinks the stream for the narrow windows only: the
    // 60s/20s window fires once per 1k events, and the ratio CI takes
    // of its p50 needs its 29 slides, not three.
    let stream_events = 30_000;
    let narrow_events = if smoke { 3_000 } else { stream_events };
    let config = StreamConfig {
        events: stream_events,
        people: 200,
        clubs: 25,
        rate: 50.0,
        jitter: 3,
        duplicate_ratio: 0.02,
        conflict_ratio: 0.10,
        ..StreamConfig::default()
    };
    let events = generate_stream(&config);

    let widths: [(&'static str, i64, i64); 3] = [
        ("width_1s", 1, 1),
        ("width_10s", 10, 5),
        ("width_60s", 60, 20),
    ];
    let runs: Vec<WidthRun> = widths
        .iter()
        .map(|&(label, width, slide)| {
            let spec = WindowSpec::sliding(width, slide).expect("valid window");
            // The widest window's slides run on a bare engine too.
            let (events, batches) = match label {
                "width_60s" => (&events[..], slide_batches(spec, &events)),
                _ => (&events[..narrow_events], Vec::new()),
            };
            let run = run_width(label, spec, events, &batches);
            let ops = |remove: bool| {
                let op_is = |op: &&EditOp| matches!(op, EditOp::Remove(_)) == remove;
                batches
                    .iter()
                    .flat_map(EditBatch::ops)
                    .filter(op_is)
                    .count() as u64
            };
            if !batches.is_empty() {
                assert_eq!(
                    (batches.len() as u64, ops(false), ops(true)),
                    (run.windows_fired, run.admitted, run.expired),
                    "{label}: the batches are the session's"
                );
            }
            run
        })
        .collect();

    for run in &runs {
        println!(
            "bench: stream_windows/{:<9} {:>8} events/s  slide p50 {:>9}ns  p99 {:>9}ns  \
             ({} windows, {} admitted, {} expired)",
            run.label,
            run.events_per_sec(),
            run.percentile(50.0),
            run.percentile(99.0),
            run.windows_fired,
            run.admitted,
            run.expired,
        );
        if !run.engine_ns.is_empty() {
            println!(
                "bench: stream_windows/{}/engine_slide  slide p50 {:>9}ns  (bare engine)",
                run.label,
                percentile(&run.engine_ns, 50.0),
            );
        }
    }

    let mut results = String::new();
    for (i, run) in runs.iter().enumerate() {
        if i > 0 {
            results.push_str(",\n");
        }
        report_entry(&mut results, run);
    }
    let report = format!("{{\"bench\": \"stream_windows\", \"results\": [\n{results}\n]}}\n");
    let dir = std::env::var("TECORE_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join("BENCH_stream_windows.json");
    std::fs::write(&path, report).expect("write report");
    println!("bench: wrote {}", path.display());
}
