//! Postings conformance: the atom store's covering, start-sorted
//! posting runs against the obvious definition. After any interleaving
//! of interning, kills and revivals — with pools small enough that runs
//! fill up and relocate — every run must equal the brute-force filter
//! of the atom table in `(start, end, id)` order, a window probe must
//! lose no entry its Allen relation admits, the arenas must keep their
//! space bounds, and the live-atom counters must equal a scan.

use proptest::prelude::*;
use tecore_ground::{AtomId, AtomKind, AtomStore, Posting};
use tecore_kg::{reaching, FactId, Symbol, UtkGraph};
use tecore_temporal::{AllenSet, Interval};

const SUBJECTS: u32 = 3;
const PREDICATES: u32 = 2;
const OBJECTS: u32 = 3;

/// `(op, s, p, o, start, len)`: op 0–3 interns evidence, 4 interns a
/// hidden atom, 5 kills and 6 revives the atom `start`-th from the top.
type Op = (u8, u32, u32, u32, i64, i64);

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (
            0u8..7,
            0..SUBJECTS,
            0..PREDICATES,
            0..OBJECTS,
            0i64..12,
            0i64..4,
        ),
        0..60,
    )
}

/// `(relation bits, anchor start, anchor length)`.
fn arb_probes() -> impl Strategy<Value = Vec<(u16, i64, i64)>> {
    prop::collection::vec((0u16..(1 << 13), -1i64..14, 0i64..5), 1..6)
}

fn iv(start: i64, len: i64) -> Interval {
    Interval::new(start, start + len).unwrap()
}

fn apply(store: &mut AtomStore, next_fact: &mut u32, op: Op) {
    let (kind, s, p, o, start, len) = op;
    // Objects live above the subjects, predicates above both.
    let (s, p, o) = (Symbol(s), Symbol(100 + p), Symbol(10 + o));
    let target = AtomId((start as usize % store.len().max(1)) as u32);
    match kind {
        0..=3 => {
            store.intern_evidence(s, p, o, iv(start, len), 0.4, FactId(*next_fact));
            *next_fact += 1;
        }
        4 => {
            store.intern_hidden(s, p, o, iv(start, len));
        }
        5 if !store.is_empty() => store.kill(target),
        6 if !store.is_empty() && !store.is_alive(target) => {
            store.set_kind(target, AtomKind::Hidden);
        }
        _ => {}
    }
}

/// What a run must hold, read off the atom table.
fn brute_force(
    store: &AtomStore,
    belongs: impl Fn(Symbol, Symbol, Symbol) -> Option<Symbol>,
) -> Vec<(Interval, AtomId, Symbol)> {
    let mut expected: Vec<(Interval, AtomId, Symbol)> = store
        .iter()
        .filter_map(|(id, a)| {
            belongs(a.subject, a.predicate, a.object).map(|third| (a.interval, id, third))
        })
        .collect();
    expected.sort_unstable();
    expected
}

fn entries(run: &[Posting]) -> Vec<(Interval, AtomId, Symbol)> {
    run.iter().map(|e| (e.interval, e.id, e.third)).collect()
}

/// A window probe loses nothing: what `relation` admits among the
/// entries `reaching` yields is what it admits in the whole run.
fn assert_probes(run: &[Posting], probes: &[(u16, i64, i64)]) {
    for &(bits, start, len) in probes {
        let (relation, anchor) = (AllenSet::from_bits(bits), iv(start, len));
        let admitted = |e: &&Posting| relation.holds(e.interval, anchor);
        let expected: Vec<AtomId> = run.iter().filter(admitted).map(|e| e.id).collect();
        match relation.candidate_window(anchor) {
            None => assert!(expected.is_empty(), "{relation} {anchor}: no window"),
            Some(window) => {
                let probed: Vec<AtomId> = reaching(run, window)
                    .filter(admitted)
                    .map(|e| e.id)
                    .collect();
                assert_eq!(probed, expected, "{relation} {anchor} via {window}");
                let visited = reaching(run, window).count();
                let first_after = run.partition_point(|e| e.interval.start() <= window.end());
                assert!(visited <= first_after, "stops at the first later start");
            }
        }
    }
}

fn assert_store(store: &AtomStore, with_po: bool, probes: &[(u16, i64, i64)]) {
    for p in (0..PREDICATES).map(|p| Symbol(100 + p)) {
        let ids: Vec<AtomId> = brute_force(store, |_, q, _| (q == p).then_some(p))
            .into_iter()
            .map(|(_, id, _)| id)
            .collect();
        let mut by_id = ids.clone();
        by_id.sort_unstable();
        assert_eq!(store.with_predicate(p), by_id);
        for s in (0..SUBJECTS).map(Symbol) {
            let run = store.with_subject_predicate(s, p);
            let expected = brute_force(store, |a, q, o| (a == s && q == p).then_some(o));
            assert_eq!(entries(run), expected, "(s, p) run of {s:?} {p:?}");
            assert_probes(run, probes);
        }
        for o in (0..OBJECTS).map(|o| Symbol(10 + o)).filter(|_| with_po) {
            let run = store.with_predicate_object(p, o);
            let expected = brute_force(store, |s, q, b| (q == p && b == o).then_some(s));
            assert_eq!(entries(run), expected, "(p, o) run of {p:?} {o:?}");
            assert_probes(run, probes);
        }
    }
    for (entries, slots, holes) in store.posting_space() {
        assert_eq!(entries, store.len(), "an entry per atom and family");
        assert!(holes <= entries, "{holes} dead slots for {entries} entries");
        assert!(slots - holes <= 2 * entries, "capacity at most doubles");
    }
    let live = |kind| store.iter_alive().filter(|(_, a)| a.kind == kind).count();
    assert_eq!(store.evidence_count(), live(AtomKind::Evidence));
    assert_eq!(store.hidden_count(), live(AtomKind::Hidden));
    assert_eq!(store.dead_count(), store.len() - store.iter_alive().count());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A store grown edit by edit keeps every invariant after every
    /// edit.
    #[test]
    fn incremental_store_matches_brute_force(ops in arb_ops(), probes in arb_probes()) {
        let mut store = AtomStore::new();
        let mut next_fact = 0;
        for op in ops {
            apply(&mut store, &mut next_fact, op);
            assert_store(&store, true, &probes);
        }
    }

    /// A store built in bulk from a graph is the store interning the
    /// same facts one by one would be, gains the `(p, o)` family on
    /// demand, and keeps every invariant under the edits that follow
    /// (each first insert into a tight run relocates it).
    #[test]
    fn bulk_store_matches_brute_force(
        facts in arb_ops(),
        ops in arb_ops(),
        probes in arb_probes(),
    ) {
        let mut graph = UtkGraph::new();
        for (_, s, p, o, start, len) in facts {
            graph
                .insert(&format!("s{s}"), &format!("p{p}"), &format!("o{o}"), iv(start, len), 0.7)
                .unwrap();
        }
        let (bulk, fact_atoms) = AtomStore::from_graph(&graph);
        let mut one_by_one = AtomStore::new();
        for (fid, f) in graph.iter() {
            let id = one_by_one.intern_evidence(
                f.subject, f.predicate, f.object, f.interval, f.confidence.log_odds(), fid,
            );
            assert_eq!(fact_atoms.get(fid), Some(id));
        }
        assert_eq!(bulk.len(), one_by_one.len());
        for (id, atom) in bulk.iter() {
            assert_eq!(atom, one_by_one.atom(id));
            assert_eq!(bulk.log_odds(id), one_by_one.log_odds(id));
            assert!(bulk.facts(id).eq(one_by_one.facts(id)));
            let (s, p, o) = (atom.subject, atom.predicate, atom.object);
            assert_eq!(
                entries(bulk.with_subject_predicate(s, p)),
                entries(one_by_one.with_subject_predicate(s, p))
            );
            assert_eq!(bulk.with_predicate(p), one_by_one.with_predicate(p));
            let mut with_po = bulk.clone();
            with_po.ensure_predicate_object();
            assert_eq!(
                entries(with_po.with_predicate_object(p, o)),
                entries(one_by_one.with_predicate_object(p, o))
            );
        }

        // The graph's symbols are not the pools'; from here on the
        // pools' runs are checked on a store with only `(s, p)`, then
        // with both.
        for with_po in [false, true] {
            let mut store = bulk.clone();
            if with_po {
                store.ensure_predicate_object();
            }
            let mut next_fact = graph.arena_len() as u32;
            for &op in &ops {
                apply(&mut store, &mut next_fact, op);
                assert_store(&store, with_po, &probes);
            }
        }
    }
}

#[test]
fn a_long_run_relocates_and_the_arena_is_rewritten_in_time() {
    // One key, 300 inserts in descending start order: the run doubles
    // its way up (2, 4, … 512), every insert shifts the whole run, and
    // the slots left behind (2 + 4 + … + 256) would outnumber the
    // entries more than once without the rewrite.
    let mut store = AtomStore::new();
    let (s, p) = (Symbol(0), Symbol(100));
    for i in 0..300u32 {
        let start = i64::from(300 - i);
        store.intern_evidence(s, p, Symbol(10 + i), iv(start, 2), 0.1, FactId(i));
        for (entries, slots, holes) in store.posting_space() {
            assert!(holes <= entries && slots <= 3 * entries.max(1));
        }
    }
    let run = store.with_subject_predicate(s, p);
    assert_eq!(run.len(), 300);
    assert!(run.windows(2).all(|w| w[0].interval < w[1].interval));
    // [100,102] … [110,112] share a point with [102,110].
    let hits = reaching(run, iv(102, 8)).filter(|e| e.interval.intersects(iv(102, 8)));
    assert_eq!(hits.count(), 11);
    assert!(reaching(run, iv(102, 8)).count() <= 13, "not the whole run");
}
