//! Query-layer conformance: every `TemporalQuery` operator must agree
//! with a brute-force scan over the snapshot's facts, and snapshots
//! must stay stable under concurrent engine mutation.

use std::sync::Arc;

use proptest::prelude::*;
use tecore::prelude::*;
use tecore_core::resolution::InferredFact;
use tecore_core::{DebugStats, Resolution, Snapshot};
use tecore_kg::{FactId, UtkGraph};
use tecore_temporal::{AllenSet, TemporalElement};

fn iv(a: i64, b: i64) -> Interval {
    Interval::new(a, b).unwrap()
}

/// A raw generated fact: small symbol spaces force index collisions and
/// shared (s, p, o) statements worth coalescing.
#[derive(Debug, Clone)]
struct RawFact {
    s: u8,
    p: u8,
    o: u8,
    start: i64,
    len: i64,
    conf: u8,
}

fn arb_facts() -> impl Strategy<Value = Vec<RawFact>> {
    prop::collection::vec(
        (0u8..5, 0u8..4, 0u8..5, -30i64..30, 0i64..12, 1u8..=10).prop_map(
            |(s, p, o, start, len, conf)| RawFact {
                s,
                p,
                o,
                start,
                len,
                conf,
            },
        ),
        0..50,
    )
}

/// Builds a snapshot straight from a resolution: a consistent graph of
/// the generated facts, the last few doubling as "inferred" statements
/// so the expanded graph mixes both sources.
fn snapshot_from(facts: &[RawFact]) -> Snapshot {
    let split = facts.len() - facts.len() / 4;
    let (evidence, inferred_raw) = facts.split_at(split);
    let mut graph = UtkGraph::new();
    for f in evidence {
        graph
            .insert(
                &format!("s{}", f.s),
                &format!("p{}", f.p),
                &format!("o{}", f.o),
                iv(f.start, f.start + f.len),
                f64::from(f.conf) / 10.0,
            )
            .unwrap();
    }
    let inferred = inferred_raw
        .iter()
        .map(|f| {
            std::sync::Arc::new(InferredFact {
                subject: format!("s{}", f.s),
                predicate: format!("p{}", f.p),
                object: format!("o{}", f.o),
                interval: iv(f.start, f.start + f.len),
                confidence: f64::from(f.conf) / 10.0,
            })
        })
        .collect();
    Snapshot::from_resolution(
        Resolution {
            consistent: graph.into(),
            removed: Vec::new(),
            inferred,
            conflicts: Vec::new(),
            stats: DebugStats::default(),
        },
        0,
    )
}

/// The reference implementation: an unindexed scan over every expanded
/// fact with the query's semantics applied literally.
#[allow(clippy::too_many_arguments)]
fn brute_force(
    snap: &Snapshot,
    subject: Option<&str>,
    predicate: Option<&str>,
    object: Option<&str>,
    time: Option<TimeCheck>,
    min_conf: f64,
) -> Vec<FactId> {
    let graph = snap.expanded();
    let dict = graph.dict();
    let mut out: Vec<FactId> = graph
        .iter()
        .filter(|(_, f)| subject.is_none_or(|s| dict.resolve(f.subject) == s))
        .filter(|(_, f)| predicate.is_none_or(|p| dict.resolve(f.predicate) == p))
        .filter(|(_, f)| object.is_none_or(|o| dict.resolve(f.object) == o))
        .filter(|(_, f)| match time {
            None => true,
            Some(TimeCheck::Window(w)) => f.interval.intersects(w),
            Some(TimeCheck::Allen(set, anchor)) => set.holds(f.interval, anchor),
        })
        .filter(|(_, f)| f.confidence.value() >= min_conf)
        .map(|(id, _)| id)
        .collect();
    out.sort();
    out
}

#[derive(Debug, Clone, Copy)]
enum TimeCheck {
    Window(Interval),
    Allen(AllenSet, Interval),
}

fn sorted_ids(query: &TemporalQuery<'_>) -> Vec<FactId> {
    let mut ids: Vec<FactId> = query.iter().map(|(id, _)| id).collect();
    ids.sort();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Stabbing queries (with and without term filters) match the scan.
    #[test]
    fn stab_matches_brute_force(
        facts in arb_facts(),
        t in -40i64..40,
        p in 0u8..5,
        s in 0u8..6,
    ) {
        let snap = snapshot_from(&facts);
        let w = Interval::at(t);

        let plain = snap.at(t);
        prop_assert_eq!(
            sorted_ids(&plain),
            brute_force(&snap, None, None, None, Some(TimeCheck::Window(w)), 0.0)
        );

        let pred = format!("p{p}");
        let by_pred = snap.at(t).predicate(&pred);
        prop_assert_eq!(
            sorted_ids(&by_pred),
            brute_force(&snap, None, Some(&pred), None, Some(TimeCheck::Window(w)), 0.0)
        );

        // s5 never occurs: exercises the unmatchable-term path too.
        let subj = format!("s{s}");
        let by_subj = snap.at(t).subject(&subj);
        prop_assert_eq!(
            sorted_ids(&by_subj),
            brute_force(&snap, Some(&subj), None, None, Some(TimeCheck::Window(w)), 0.0)
        );

        // Subject + predicate + time: the planner picks the smaller of
        // the two sub-indexes; the answer must not depend on which.
        let both = snap.at(t).subject(&subj).predicate(&pred);
        prop_assert_eq!(
            sorted_ids(&both),
            brute_force(&snap, Some(&subj), Some(&pred), None, Some(TimeCheck::Window(w)), 0.0)
        );
    }

    /// Window-overlap queries with confidence projection match the scan.
    #[test]
    fn overlap_matches_brute_force(
        facts in arb_facts(),
        ws in -40i64..40,
        wl in 0i64..20,
        p in 0u8..4,
        o in 0u8..5,
        conf_bar in 0u8..=10,
    ) {
        let snap = snapshot_from(&facts);
        let w = iv(ws, ws + wl);
        let min_conf = f64::from(conf_bar) / 10.0;

        let q = snap.query().overlapping(w).min_confidence(min_conf);
        prop_assert_eq!(
            sorted_ids(&q),
            brute_force(&snap, None, None, None, Some(TimeCheck::Window(w)), min_conf)
        );

        let pred = format!("p{p}");
        let obj = format!("o{o}");
        let q = snap
            .query()
            .predicate(&pred)
            .object(&obj)
            .overlapping(w);
        prop_assert_eq!(
            sorted_ids(&q),
            brute_force(&snap, None, Some(&pred), Some(&obj), Some(TimeCheck::Window(w)), 0.0)
        );
    }

    /// Every basic Allen relation (and the disjoint/intersects unions)
    /// filters exactly like the definition applied fact by fact.
    #[test]
    fn allen_matches_brute_force(
        facts in arb_facts(),
        anchor_start in -35i64..35,
        anchor_len in 0i64..15,
        rel_idx in 0usize..13,
        p in 0u8..4,
    ) {
        let snap = snapshot_from(&facts);
        let anchor = iv(anchor_start, anchor_start + anchor_len);
        let rel = AllenRelation::from_index(rel_idx).unwrap();

        let single = snap.query().allen(rel, anchor);
        prop_assert_eq!(
            sorted_ids(&single),
            brute_force(
                &snap, None, None, None,
                Some(TimeCheck::Allen(AllenSet::from_relation(rel), anchor)), 0.0
            )
        );

        let pred = format!("p{p}");
        for set in [AllenSet::DISJOINT, AllenSet::INTERSECTS, AllenSet::FULL] {
            let q = snap.query().predicate(&pred).allen_set(set, anchor);
            prop_assert_eq!(
                sorted_ids(&q),
                brute_force(&snap, None, Some(&pred), None, Some(TimeCheck::Allen(set, anchor)), 0.0)
            );
        }
    }

    /// Purely symbolic queries (no time filter) match the scan through
    /// the whole runs of the interval index.
    #[test]
    fn symbolic_matches_brute_force(facts in arb_facts(), s in 0u8..5, p in 0u8..4) {
        let snap = snapshot_from(&facts);
        let subj = format!("s{s}");
        let pred = format!("p{p}");
        let q = snap.query().subject(&subj).predicate(&pred);
        prop_assert_eq!(
            sorted_ids(&q),
            brute_force(&snap, Some(&subj), Some(&pred), None, None, 0.0)
        );
        let q = snap.query().subject(&subj);
        prop_assert_eq!(
            sorted_ids(&q),
            brute_force(&snap, Some(&subj), None, None, None, 0.0)
        );
        prop_assert_eq!(
            sorted_ids(&snap.query()),
            brute_force(&snap, None, None, None, None, 0.0)
        );
    }

    /// Timeline coalescing equals grouping matches by triple and
    /// feeding each group to `TemporalElement::from_intervals`; the
    /// blanket coalesced validity equals the union over all matches.
    #[test]
    fn timeline_matches_brute_force(facts in arb_facts(), s in 0u8..5) {
        let snap = snapshot_from(&facts);
        let subj = format!("s{s}");
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
            let id = engine
                .insert_fact(
                    "CR",
                    "coach",
                    &format!("Club{i}"),
                    Interval::new(2016 + i, 2018 + i).unwrap(),
                    0.95,
                )
                .unwrap();
            let newer = engine.resolve_incremental().unwrap();
            assert!(newer.epoch() > epoch, "snapshots are versioned forward");
            engine.remove_fact(id).unwrap();
        }

        for reader in readers {
            reader.join().unwrap();
        }
    });

    // The engine's final snapshot reflects the final (restored) graph.
    let last = engine.resolve_incremental().unwrap();
    assert_eq!(last.stats.conflicting_facts, 1);
}
