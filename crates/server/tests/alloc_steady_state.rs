//! Proves the steady-state query path allocates nothing.
//!
//! The serving loop's contract is that once a connection's buffers
//! have reached their working sizes, answering `Q`/`COUNT` requests
//! performs **zero heap allocations**: parsing borrows from the
//! request line, the snapshot hand-off is an `Arc` refcount bump, the
//! scan is the lazy [`tecore_core::query::QueryIter`], and results
//! render through `write_fact` into the reused response buffer.
//!
//! A counting global allocator makes that contract a test. This is
//! one of the two `unsafe` blocks in the workspace (the other counts
//! a cold grounding's allocations, `tests/ground_allocations.rs`), each
//! confined to its test binary:
//! `GlobalAlloc` is an `unsafe trait`, and the impl below just
//! forwards to [`System`] while bumping a counter.
//!
//! This file intentionally holds a single `#[test]`: the allocation
//! counter is process-global, and a sibling test running concurrently
//! would pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tecore_core::Engine;
use tecore_kg::UtkGraph;
use tecore_logic::LogicProgram;
use tecore_server::proto::{self, Request};
use tecore_server::SnapshotCell;
use tecore_temporal::Interval;

/// Forwards to the system allocator, counting allocation calls.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation verbatim to `System`, which
// upholds the `GlobalAlloc` contract; the counter bump has no effect
// on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_queries_do_not_allocate() {
    let mut graph = UtkGraph::new();
    for i in 0..200 {
        graph
            .insert(
                &format!("player/{i}"),
                "playsFor",
                &format!("club/{}", i % 11),
                Interval::new(1990 + (i as i64 % 20), 1995 + (i as i64 % 20)).unwrap(),
                0.5 + 0.001 * (i as f64 % 500.0),
            )
            .unwrap();
    }
    let mut engine = Engine::new(graph, LogicProgram::new());
    let cell = SnapshotCell::new(engine.resolve().unwrap());

    // The request mix a serving thread answers all day. `OBJECTS` and
    // `TIMELINE` materialise sorted/coalesced result sets and are
    // deliberately absent: they are documented to allocate.
    let requests = [
        "COUNT p=playsFor",
        "COUNT s=player/7 at=1999",
        "Q s=player/3",
        "Q p=playsFor o=club/5 over=1991..1993 limit=4",
        "Q p=playsFor minconf=0.6 limit=8",
        "COUNT o=club/2 over=2000..2005",
    ];

    let mut out = String::new();
    let run_mix = |out: &mut String| {
        for request in requests {
            let snapshot = cell.load();
            let Ok(Request::Query(kind, clauses)) = proto::parse(request) else {
                panic!("request failed to parse: {request}");
            };
            out.clear();
            proto::answer_query(&snapshot, kind, &clauses, out).unwrap();
            assert!(out.starts_with("OK epoch="), "bad response: {out}");
        }
    };

    // Warm-up: grows `out` to its working size and builds the
    // snapshot's lazy expanded-graph/interval-index state — the costs
    // a connection pays once, not per request.
    for _ in 0..3 {
        run_mix(&mut out);
    }

    let before = allocations();
    for _ in 0..100 {
        run_mix(&mut out);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state query path allocated {} times over 600 requests",
        after - before
    );

    // Sanity: the counter is actually live (publishing a fresh
    // snapshot allocates plenty).
    engine
        .insert_fact(
            "player/0",
            "playsFor",
            "club/new",
            Interval::new(2016, 2019).unwrap(),
            0.9,
        )
        .unwrap();
    cell.publish(engine.resolve_incremental().unwrap());
    assert!(allocations() > after, "counting allocator inactive");
    drop(Arc::clone(&cell.load()));
}
