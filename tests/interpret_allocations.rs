//! A cold view allocates per *structure*, not per fact or per word.
//!
//! Interpreting a MAP state has two pieces that scale with the graph:
//! describing the detected conflicts and building the consistent graph.
//! An explanation is kept as terms — the dictionary's own allocations,
//! an interval, a probability — so describing a conflict costs its key,
//! its participant list and the shared box, where rendering it to
//! `String`s took fourteen allocations. The consistent graph is a plain
//! copy of the kept facts (`UtkGraph::filtered`): the graph keeps no
//! table per key, so the copy costs its arena, its liveness flags and
//! the dictionary's clone, where copying a list per index key took one
//! allocation per key and inserting the kept facts one by one also
//! paid for every list and table growing.
//!
//! Counted with a forwarding global allocator, like
//! `tests/ground_allocations.rs`: this file holds a single `#[test]`
//! because the counter is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use tecore_core::explain::explain_conflicts;
use tecore_datagen::standard::wikidata_program;
use tecore_datagen::{generate_wikidata, WikidataConfig};
use tecore_ground::{ground, intern_constants};

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

fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn a_cold_view_allocates_per_structure() {
    let mut graph = generate_wikidata(&WikidataConfig {
        total_facts: 25_000,
        noise_ratio: 0.1,
        seed: 1,
    })
    .graph;
    let program = wikidata_program();
    intern_constants(&program, graph.dict_mut());
    let grounding = ground(&graph, &program).expect("grounds");

    // Measured: 7 340 allocations for 2 441 conflicts (3.0 each: the
    // clause key, the participant list, the shared box); rendered
    // eagerly they took 34 188 (14.0).
    let (explanations, allocations) = counted(|| explain_conflicts(&grounding, graph.dict()));
    let conflicts = explanations.len() as u64;
    assert!(conflicts > 2_000, "{conflicts}");
    assert!(
        allocations <= 4 * conflicts,
        "{allocations} allocations for {conflicts} conflicts"
    );

    // Measured: 4 allocations for 26 150 facts (the arena, the flags,
    // the dictionary's two tables); with a list per index key it took
    // 13 340, and fact-by-fact insertion 16 560. Twice the measurement:
    // a table per key coming back fails it.
    let (copy, allocations) = counted(|| graph.filtered(|_, _| true));
    assert_eq!(copy.len(), graph.len());
    assert!(
        allocations <= 8,
        "{allocations} allocations for {} facts",
        graph.len()
    );
}
