//! Query-layer conformance: every `TemporalQuery` operator must agree
//! with a brute-force scan over the snapshot's facts
//! (`tecore_testkit::assert_queries_match_scan`: every term filter,
//! stabbing, window overlap, each of the thirteen Allen relations, the
//! disjoint / intersects / full Allen sets and confidence floors), its
//! timelines with coalescing by hand, and snapshots must stay stable
//! under concurrent engine mutation.

use std::sync::Arc;

use proptest::prelude::*;
use tecore::prelude::*;
use tecore_core::Snapshot;
use tecore_temporal::TemporalElement;
use tecore_testkit::{
    arb_fact_in, arb_shape, assert_queries_match_scan, snapshot_of, Fact, Shape, Time,
};

/// Up to fifty compact facts: small symbol spaces force index
/// collisions and shared (s, p, o) statements worth coalescing; starts
/// on both sides of zero and spells up to eleven long reach across many
/// run starts, and confidences run from 0.1 to 1.0.
fn arb_facts() -> impl Strategy<Value = Vec<Fact>> {
    prop::collection::vec(arb_fact_in(-30..30, 0..12, 1..11), 0..50)
}

/// Four query shapes with the time filter `time` draws.
fn shapes(time: impl Strategy<Value = Time>) -> impl Strategy<Value = Vec<Shape>> {
    let shape = (arb_shape(), time).prop_map(|(shape, time)| Shape { time, ..shape });
    prop::collection::vec(shape, 4..5)
}

fn assert_match(facts: &[Fact], shapes: &[Shape]) {
    assert_queries_match_scan(&snapshot_of(facts), shapes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Stabbing queries, with and without term filters.
    #[test]
    fn stab_matches_brute_force(facts in arb_facts(), shapes in shapes((-8i8..80).prop_map(Time::At))) {
        assert_match(&facts, &shapes);
    }

    /// Window-overlap queries.
    #[test]
    fn overlap_matches_brute_force(
        facts in arb_facts(),
        shapes in shapes((-8i8..80, 0u8..20).prop_map(|(a, len)| Time::Over(a, len))),
    ) {
        assert_match(&facts, &shapes);
    }

    /// Every basic Allen relation, and the disjoint / intersects / full
    /// sets.
    #[test]
    fn allen_matches_brute_force(
        facts in arb_facts(),
        shapes in shapes((0u8..16, -8i8..80, 0u8..15).prop_map(|(k, a, len)| match k {
            0..=12 => Time::Allen(k, a, len),
            _ => Time::AllenSet(k - 13, a, len),
        })),
    ) {
        assert_match(&facts, &shapes);
    }

    /// Purely symbolic queries (no time filter), through the whole
    /// runs of the interval index.
    #[test]
    fn symbolic_matches_brute_force(facts in arb_facts(), shapes in shapes(Just(Time::Any))) {
        assert_match(&facts, &shapes);
    }

    /// Timeline coalescing equals grouping matches by triple and
    /// feeding each group to `TemporalElement::from_intervals`; the
    /// blanket coalesced validity equals the union over all matches.
    #[test]
    fn timeline_matches_brute_force(facts in arb_facts(), s in 0u8..7) {
        let snap = snapshot_of(&facts);
        let subj = format!("subj{s}");
        let q = snap.query().subject(&subj);

        let mut groups: Vec<((String, String, String), Vec<Interval>)> = Vec::new();
        let dict = snap.expanded().dict();
        for (_, f) in q.iter() {
            let key = (
                dict.resolve(f.subject).to_string(),
                dict.resolve(f.predicate).to_string(),
                dict.resolve(f.object).to_string(),
            );
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, ivs)) => ivs.push(f.interval),
                None => groups.push((key, vec![f.interval])),
            }
        }

        let timeline = q.timeline();
        prop_assert_eq!(timeline.len(), groups.len());
        for entry in &timeline {
            let key = (
                dict.resolve(entry.subject).to_string(),
                dict.resolve(entry.predicate).to_string(),
                dict.resolve(entry.object).to_string(),
            );
            let (_, ivs) = groups.iter().find(|(k, _)| *k == key).expect("group exists");
            prop_assert_eq!(
                &entry.element,
                &TemporalElement::from_intervals(ivs.iter().copied())
            );
        }
        // Sorted by first validity start.
        for pair in timeline.windows(2) {
            let a = pair[0].element.hull().map(|h| h.start());
            let b = pair[1].element.hull().map(|h| h.start());
            prop_assert!(a <= b);
        }

        let expected_union =
            TemporalElement::from_intervals(q.iter().map(|(_, f)| f.interval));
        prop_assert_eq!(q.coalesced_validity(), expected_union);
    }
}

/// Readers holding an old snapshot must see byte-stable results while
/// the engine that produced it keeps mutating and re-resolving.
#[test]
fn readers_unaffected_by_engine_mutation() {
    let graph = tecore_datagen::standard::ranieri_utkg();
    let program = tecore_datagen::standard::paper_program();
    let mut engine = Engine::new(graph, program);
    let snapshot: Arc<Snapshot> = engine.resolve_incremental().unwrap();

    // The reference answers, computed before any mutation.
    let coach_2016: Vec<String> = snapshot
        .at(2016)
        .predicate("coach")
        .objects()
        .iter()
        .map(|&o| snapshot.expanded().dict().resolve(o).to_string())
        .collect();
    let timeline_len = snapshot.query().subject("CR").timeline().len();
    let epoch = snapshot.epoch();

    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let snap = Arc::clone(&snapshot);
                let expected_objects = coach_2016.clone();
                scope.spawn(move || {
                    for round in 0..200 {
                        let objects: Vec<String> = snap
                            .at(2016)
                            .predicate("coach")
                            .objects()
                            .iter()
                            .map(|&o| snap.expanded().dict().resolve(o).to_string())
                            .collect();
                        assert_eq!(objects, expected_objects, "round {round}");
                        assert_eq!(
                            snap.query().subject("CR").timeline().len(),
                            timeline_len,
                            "round {round}"
                        );
                        assert_eq!(snap.epoch(), epoch);
                    }
                })
            })
            .collect();

        // Meanwhile the writer keeps editing and re-resolving.
        for i in 0..12 {
            let spell = Interval::new(2016 + i, 2018 + i).unwrap();
            let club = format!("Club{i}");
            let id = tecore_testkit::insert(&mut engine, "CR", "coach", &club, spell, 0.95);
            let newer = engine.resolve_incremental().unwrap();
            assert!(newer.epoch() > epoch, "snapshots are versioned forward");
            let batch = EditBatch::new().remove(id);
            engine.apply(&batch).into_result().unwrap();
        }

        for reader in readers {
            reader.join().unwrap();
        }
    });

    // The engine's final snapshot reflects the final (restored) graph.
    let last = engine.resolve_incremental().unwrap();
    assert_eq!(last.stats.conflicting_facts, 1);
}
