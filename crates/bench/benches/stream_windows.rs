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
//! Not a criterion closed loop (the stream is consumed once, in
//! order), but it honours the same environment contract:
//! `TECORE_BENCH_SMOKE=1` shrinks the stream to CI scale and the
//! report lands in `TECORE_BENCH_DIR` as `BENCH_stream_windows.json`,
//! gated by `tools/bench_check` like every other baseline.

use std::time::Instant;

use tecore_bench::harness;
use tecore_core::{Engine, TecoreConfig};
use tecore_datagen::{generate_stream, StreamConfig};
use tecore_kg::UtkGraph;
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
    windows_fired: u64,
    admitted: u64,
    expired: u64,
}

impl WidthRun {
    fn events_per_sec(&self) -> u64 {
        (self.events as f64 / (self.elapsed_ns as f64 / 1e9).max(1e-9)) as u64
    }

    fn percentile(&self, p: f64) -> u64 {
        let n = self.slide_ns.len();
        if n == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * (n - 1) as f64).round() as usize;
        self.slide_ns[rank.min(n - 1)]
    }
}

/// Feeds the whole stream through one session configuration, timing
/// every push that fired at least one boundary.
fn run_width(
    label: &'static str,
    width: i64,
    slide: i64,
    events: &[tecore_kg::StreamEvent],
) -> WidthRun {
    let engine = Engine::with_config(
        UtkGraph::new(),
        LogicProgram::parse(PROGRAM).expect("program parses"),
        TecoreConfig {
            backend: harness::solver("mln-walksat"),
            ..TecoreConfig::default()
        },
    );
    let spec = WindowSpec::sliding(width, slide).expect("valid window");
    let mut session = StreamSession::with_lateness(engine, spec, 4);

    let mut slide_ns = Vec::new();
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
    }
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    let totals = session.totals();
    assert!(totals.windows_fired > 0, "{label}: no windows fired");
    assert!(totals.events_admitted > 0, "{label}: nothing admitted");

    slide_ns.sort_unstable();
    WidthRun {
        label,
        events: events.len(),
        elapsed_ns,
        slide_ns,
        windows_fired: totals.windows_fired,
        admitted: totals.events_admitted,
        expired: totals.events_expired,
    }
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
}

fn main() {
    let smoke = smoke_mode();
    let stream_events = if smoke { 3_000 } else { 30_000 };
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
        .map(|&(label, width, slide)| run_width(label, width, slide, &events))
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
