//! Windowed streaming: continuous conflict resolution over an event
//! feed.
//!
//! Generates a timestamped `playsFor` event stream (out-of-order within
//! a jitter bound, with injected duplicates and conflicts), feeds it
//! through a sliding event-time window, and lets the watermark drive
//! continuous resolution: every slide admits the new events, expires
//! the ones that slid out, re-solves *incrementally* (only the dirty
//! components), and re-evaluates a registered continuous query against
//! the fresh snapshot.
//!
//! Run with: `cargo run --release --example stream_feed`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tecore_core::{Engine, TecoreConfig};
use tecore_datagen::{generate_stream, StreamConfig};
use tecore_kg::UtkGraph;
use tecore_logic::LogicProgram;
use tecore_mln::BranchAndBound;
use tecore_stream::{QuerySpec, StreamSession, WindowSpec};

fn main() {
    let config = StreamConfig {
        events: 6_000,
        people: 120,
        clubs: 20,
        rate: 40.0,
        jitter: 3,
        duplicate_ratio: 0.03,
        conflict_ratio: 0.12,
        ..StreamConfig::default()
    };
    let events = generate_stream(&config);
    println!(
        "generated {} events over ~{}s of event time",
        events.len(),
        events.last().map(|e| e.time).unwrap_or(0)
    );

    let program = LogicProgram::parse(
        "c1: quad(x, playsFor, y, t) ^ quad(x, playsFor, z, t') ^ y != z \
             -> disjoint(t, t') w = inf",
    )
    .expect("program parses");
    let engine = Engine::with_config(
        UtkGraph::new(),
        program,
        TecoreConfig {
            backend: Arc::new(BranchAndBound::new()),
            ..TecoreConfig::default()
        },
    );

    // 30s of event time wide, sliding every 10s, tolerating 5s of
    // out-of-order arrival.
    let spec = WindowSpec::sliding(30, 10).expect("valid window");
    let mut session = StreamSession::with_lateness(engine, spec, 5);

    // R2S: a continuous query re-evaluated on every slide.
    let matches_seen = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&matches_seen);
    session.register_query(
        QuerySpec::new().predicate("playsFor").min_confidence(0.8),
        move |_id, result: &tecore_stream::WindowResult| {
            counter.fetch_add(result.total as u64, Ordering::Relaxed);
        },
    );

    println!("window width=30 slide=10 lateness=5\n");
    println!(
        "{:>12}  {:>7} {:>7} {:>6} {:>10} {:>10} {:>9}",
        "window", "admit", "expire", "late", "components", "solved", "resolve"
    );
    let mut fires = 0usize;
    for event in events {
        for fire in session.push(event).expect("stream push") {
            fires += 1;
            // Print every 5th window to keep the log readable.
            if fires.is_multiple_of(5) {
                let s = &fire.stats;
                println!(
                    "{:>5}..{:<5}  {:>7} {:>7} {:>6} {:>10} {:>10} {:>6}µs",
                    s.start,
                    s.end,
                    s.admitted,
                    s.expired,
                    s.late_dropped,
                    s.components,
                    s.components_solved,
                    s.resolve_micros
                );
            }
        }
    }
    for fire in session.drain().expect("drain") {
        fires += 1;
        let s = &fire.stats;
        println!(
            "{:>5}..{:<5}  {:>7} {:>7} {:>6} {:>10} {:>10} {:>6}µs  (drain)",
            s.start,
            s.end,
            s.admitted,
            s.expired,
            s.late_dropped,
            s.components,
            s.components_solved,
            s.resolve_micros
        );
    }

    let totals = session.totals();
    println!("\n== totals ==");
    println!("  windows fired:      {}", totals.windows_fired);
    println!("  windows skipped:    {}", totals.windows_skipped);
    println!("  events admitted:    {}", totals.events_admitted);
    println!("  events expired:     {}", totals.events_expired);
    println!("  late dropped:       {}", totals.late_dropped);
    println!("  duplicates dropped: {}", totals.duplicates_dropped);
    println!(
        "  continuous-query matches delivered: {}",
        matches_seen.load(Ordering::Relaxed)
    );
    assert_eq!(fires, totals.windows_fired as usize);
    assert!(totals.events_admitted > 0, "stream admitted nothing");
}
