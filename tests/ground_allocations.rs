//! A cold `ground()` allocates per *structure*, not per atom.
//!
//! The atom store is a handful of flat tables and two posting arenas
//! built in bulk, an atom's evidence lives in side tables, and the join
//! keeps its undo information in the plan. A clause's literals are
//! built in one reused buffer, and the shipped constraints' duplicates
//! are dropped by comparing neighbours, so no match allocates — where a
//! literal vector per match took 0.30 blocks a fact, and the
//! hash-of-`Vec` postings, the per-atom fact lists and the
//! per-candidate undo logs more than three.
//!
//! Counted with a forwarding global allocator, like
//! `crates/server/tests/alloc_steady_state.rs`: this file holds a
//! single `#[test]` because the counter is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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

#[test]
fn cold_grounding_allocates_less_than_once_per_fact() {
    let mut graph = generate_wikidata(&WikidataConfig {
        total_facts: 25_000,
        noise_ratio: 0.1,
        seed: 1,
    })
    .graph;
    let program = wikidata_program();
    intern_constants(&program, graph.dict_mut());

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let g = ground(&graph, &program).expect("grounds");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    // Measured: 3 079 allocations for 26 150 facts (0.12 a fact) and
    // 2 441 matches. A literal vector per match took 7 963 (0.30, when
    // each pair was matched twice: 4 882 matches); the hash-of-`Vec`
    // store 127 521 (4.88). One vector per match coming back would
    // cross the bound.
    let facts = graph.len() as u64;
    assert!(g.stats.formula_clauses > 1_000, "{}", g.stats);
    assert!(
        allocations * 5 <= facts,
        "{allocations} allocations for {facts} facts ({} matches)",
        g.stats.body_matches
    );
}
