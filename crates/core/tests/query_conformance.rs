//! Query-planner conformance: whatever access path the query's shape
//! names, a [`TemporalQuery`] must return exactly the facts a
//! brute-force scan over the expanded graph returns. The plan only
//! decides how many candidates get examined; the residual filter keeps
//! every path exact.

use proptest::prelude::*;
use tecore_core::resolution::{InferredFact, Resolution};
use tecore_core::{DebugStats, Engine, Snapshot, SolverRegistry, TecoreConfig};
use tecore_ground::ComponentMode;
use tecore_kg::{FactId, UtkGraph};
use tecore_logic::LogicProgram;
use tecore_temporal::{AllenRelation, AllenSet, Interval};

/// A compact fact: `(subject, predicate, object, start, len,
/// confidence-step)`.
type Fact = (u8, u8, u8, i8, i8, u8);

/// A compact fact's terms, interval and confidence.
fn spell((s, p, o, start, len, conf): Fact) -> ([String; 3], Interval, f64) {
    let iv = Interval::new(i64::from(start), i64::from(start) + i64::from(len)).unwrap();
    let terms = [format!("subj{s}"), format!("pred{p}"), format!("obj{o}")];
    (terms, iv, 0.5 + f64::from(conf) * 0.09)
}

/// Builds a snapshot from compact facts, routing a slice of them
/// through the inferred-facts channel so the expanded graph mixes
/// evidence and inferred statements.
fn build_snapshot(facts: &[Fact]) -> Snapshot {
    let mut graph = UtkGraph::new();
    let mut inferred = Vec::new();
    for (i, &fact) in facts.iter().enumerate() {
        let ([subject, predicate, object], interval, confidence) = spell(fact);
        if i % 5 == 4 {
            inferred.push(std::sync::Arc::new(InferredFact {
                subject,
                predicate,
                object,
                interval,
                confidence,
            }));
        } else {
            graph
                .insert(&subject, &predicate, &object, interval, confidence)
                .unwrap();
        }
    }
    let resolution = Resolution {
        consistent: graph.into(),
        removed: Vec::new(),
        inferred,
        conflicts: Vec::new(),
        stats: DebugStats::default(),
    };
    Snapshot::from_resolution(resolution, 1)
}

/// One random query shape: optional term filters (sometimes naming a
/// term absent from the snapshot), one of the four time-filter kinds,
/// and an optional confidence floor.
#[derive(Debug, Clone)]
struct QueryShape {
    subject: Option<u8>,
    predicate: Option<u8>,
    object: Option<u8>,
    /// 0 = none, 1 = at, 2 = overlapping, 3 = allen, 4 = allen-set.
    time_kind: u8,
    time_a: i8,
    time_b: i8,
    allen: u8,
    min_conf: bool,
}

fn arb_shape() -> impl Strategy<Value = QueryShape> {
    (
        prop::option::of(0u8..7),
        prop::option::of(0u8..5),
        prop::option::of(0u8..6),
        0u8..5,
        0i8..20,
        0i8..6,
        0u8..6,
        prop::bool::ANY,
    )
        .prop_map(
            |(subject, predicate, object, time_kind, time_a, time_b, allen, min_conf)| QueryShape {
                subject,
                predicate,
                object,
                time_kind,
                time_a,
                time_b,
                allen,
                min_conf,
            },
        )
}

const ALLEN_POOL: [AllenRelation; 6] = [
    AllenRelation::Before,
    AllenRelation::After,
    AllenRelation::During,
    AllenRelation::Contains,
    AllenRelation::Overlaps,
    AllenRelation::Equals,
];

fn run_conformance(facts: &[Fact], shape: &QueryShape) {
    assert_matches_brute_force(&build_snapshot(facts), shape);
}

/// The query `shape` describes, run on `snap`, returns exactly what a
/// walk over the whole arena of its expanded graph admits.
fn assert_matches_brute_force(snap: &Snapshot, shape: &QueryShape) {
    let graph = snap.expanded();

    // Build the query through the public API. Index 6 (subjects) / 4
    // (predicates) / 5 (objects) never occurs in `build_snapshot`'s
    // pools, so those filters exercise the unmatchable path.
    let mut q = snap.query();
    if let Some(s) = shape.subject {
        q = q.subject(&format!("subj{s}"));
    }
    if let Some(p) = shape.predicate {
        q = q.predicate(&format!("pred{p}"));
    }
    if let Some(o) = shape.object {
        q = q.object(&format!("obj{o}"));
    }
    let window = Interval::new(
        i64::from(shape.time_a),
        i64::from(shape.time_a) + i64::from(shape.time_b),
    )
    .unwrap();
    let rel = ALLEN_POOL[shape.allen as usize];
    match shape.time_kind {
        1 => q = q.at(i64::from(shape.time_a)),
        2 => q = q.overlapping(window),
        3 => q = q.allen(rel, window),
        4 => q = q.allen_set(AllenSet::DISJOINT, window),
        _ => {}
    }
    if shape.min_conf {
        q = q.min_confidence(0.6);
    }

    // Brute force: walk the whole arena, re-apply every filter by hand.
    let dict = graph.dict();
    let admits_term = |filter: Option<u8>, prefix: &str, sym| match filter {
        None => true,
        Some(i) => dict.lookup(&format!("{prefix}{i}")) == Some(sym),
    };
    let mut expected: Vec<FactId> = Vec::new();
    for raw in 0..graph.arena_len() as u32 {
        let id = FactId(raw);
        let Some(fact) = graph.fact(id) else {
            continue;
        };
        let time_ok = match shape.time_kind {
            1 => fact
                .interval
                .intersects(Interval::at(i64::from(shape.time_a))),
            2 => fact.interval.intersects(window),
            3 => AllenSet::from_relation(rel).holds(fact.interval, window),
            4 => AllenSet::DISJOINT.holds(fact.interval, window),
            _ => true,
        };
        if admits_term(shape.subject, "subj", fact.subject)
            && admits_term(shape.predicate, "pred", fact.predicate)
            && admits_term(shape.object, "obj", fact.object)
            && time_ok
            && (!shape.min_conf || fact.confidence.value() >= 0.6)
        {
            expected.push(id);
        }
    }

    let mut got: Vec<FactId> = q.iter().map(|(id, _)| id).collect();
    got.sort_unstable_by_key(|id| id.0);
    expected.sort_unstable_by_key(|id| id.0);
    assert_eq!(
        got,
        expected,
        "planned path diverged from brute force\nshape: {shape:?}\nplan: {}",
        q.explain()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any query shape over any snapshot returns exactly the brute-force
    /// result set, whatever access path the planner picked.
    #[test]
    fn planned_query_matches_brute_force(
        facts in prop::collection::vec((0u8..6, 0u8..4, 0u8..5, 0i8..20, 0i8..5, 0u8..5), 0..40),
        shape in arb_shape(),
    ) {
        run_conformance(&facts, &shape);
    }

    /// The same on views `resolve_incremental` carried forward: each
    /// step removes a live `pred0` fact (never in a conflict, so always
    /// in the view) or inserts one, and the patched view keeps the
    /// removed ones as tombstones. Every shape is also asked with its
    /// subject and predicate both bound, with and without its window.
    #[test]
    fn carried_view_queries_match_brute_force(
        facts in prop::collection::vec((0u8..6, 0u8..4, 0u8..5, 0i8..20, 0i8..5, 0u8..5), 40..64),
        steps in prop::collection::vec(
            (0usize..64, prop::option::of((0u8..6, 0u8..4, 0u8..5, 0i8..20, 0i8..5, 0u8..5))),
            1..5,
        ),
        shapes in prop::collection::vec(arb_shape(), 1..6),
    ) {
        let mut graph = UtkGraph::new();
        for &fact in &facts {
            let ([s, p, o], iv, confidence) = spell(fact);
            graph.insert(&s, &p, &o, iv, confidence).unwrap();
        }
        // Solved component by component, exactly: a removed `pred0`
        // fact, in no component, moves no atom, so the view is patched.
        let config = TecoreConfig {
            backend: SolverRegistry::with_default_backends().resolve("mln-exact").unwrap(),
            component_mode: ComponentMode::Components,
            ..TecoreConfig::default()
        };
        let mut engine = Engine::with_config(graph, carry_program(), config);
        engine.resolve_incremental().unwrap();
        for (step, &(pick, insert_fact)) in steps.iter().enumerate() {
            match insert_fact {
                // The first step always removes, so every view below
                // holds a tombstone.
                Some(fact) if step > 0 => {
                    let ([s, p, o], iv, confidence) = spell(fact);
                    engine.insert_fact(&s, &p, &o, iv, confidence).unwrap();
                }
                _ => {
                    let pred0 = engine.graph().dict().lookup("pred0");
                    let live: Vec<FactId> = engine
                        .graph()
                        .iter()
                        .filter(|(_, f)| Some(f.predicate) == pred0)
                        .map(|(id, _)| id)
                        .collect();
                    if !live.is_empty() {
                        engine.remove_fact(live[pick % live.len()]).unwrap();
                    }
                }
            }
            let snap = engine.resolve_incremental().unwrap();
            let view = snap.expanded();
            prop_assert!(view.arena_len() > view.len(), "a carried view, with tombstones");
            for shape in &shapes {
                assert_matches_brute_force(&snap, shape);
                let bound = QueryShape {
                    subject: Some(shape.subject.unwrap_or(0)),
                    predicate: Some(shape.predicate.unwrap_or(0)),
                    ..shape.clone()
                };
                assert_matches_brute_force(&snap, &bound);
                assert_matches_brute_force(&snap, &QueryShape { time_kind: 0, ..bound });
            }
        }
    }
}

/// `pred3` spells of one subject must not overlap, and every `pred2`
/// fact implies a `pred1` one: the carried views drop facts and gain
/// inferred ones.
fn carry_program() -> LogicProgram {
    LogicProgram::parse(
        "c: quad(x, pred3, y, t) ^ quad(x, pred3, z, t') ^ y != z -> disjoint(t, t') w = inf\n\
         f: quad(x, pred2, y, t) -> quad(x, pred1, y, t) w = 2.5\n",
    )
    .unwrap()
}

#[test]
fn explain_names_the_chosen_path() {
    // subj0: pred0 [1,4], pred0 [10,12], pred1 [5,6]; subj1: pred0
    // [2,4], pred1 [20,25] (inferred); subj2: pred0 [7,7].
    let snap = build_snapshot(&[
        (0, 0, 0, 1, 3, 4),
        (0, 0, 1, 10, 2, 3),
        (0, 1, 0, 5, 1, 2),
        (1, 0, 0, 2, 2, 1),
        (1, 1, 1, 20, 5, 0),
        (2, 0, 2, 7, 0, 5),
    ]);
    let iv = |a, b| Interval::new(a, b).unwrap();
    let q = || snap.query();
    // One query per shape: the path it names and the entries it visits.
    let cases = [
        // Both terms bound: the subject's run, the predicate a residual
        // filter. subj0's run is [1,4] [5,6] [10,12]; at 3 its walk
        // stops at the first start after 3.
        (
            q().subject("subj0").predicate("pred0"),
            "subject interval sub-index (subj0), ~3 candidates",
        ),
        (
            q().subject("subj0").predicate("pred0").at(3),
            "subject interval sub-index (subj0) ∩ window [3,3], ~1 candidates",
        ),
        // pred0's run [1,4] [2,4] [7,7] [10,12]: the walk stops at the
        // first start after 8.
        (
            q().predicate("pred0").overlapping(iv(3, 8)),
            "predicate interval sub-index (pred0) ∩ window [3,8], ~3 candidates",
        ),
        (
            q().predicate("pred0"),
            "predicate interval sub-index (pred0), ~4 candidates",
        ),
        // subj0's run [1,4] [5,6] [10,12]: [1,4] ends before 5.
        (
            q().subject("subj0").overlapping(iv(5, 9)),
            "subject interval sub-index (subj0) ∩ window [5,9], ~1 candidates",
        ),
        (
            q().subject("subj1"),
            "subject interval sub-index (subj1), ~2 candidates",
        ),
        // The object filter never picks a path: a window alone walks
        // every predicate run. pred0's [1,4] [2,4] reach [3,6] and its
        // walk stops at [7,7]; pred1's [5,6] does and [20,25] stops it.
        (
            q().object("obj0").overlapping(iv(3, 6)),
            "every predicate interval sub-index (2 runs) ∩ window [3,6], ~3 candidates",
        ),
        (q().object("obj1"), "full arena scan, ~6 candidates"),
        (
            q().subject("nobody"),
            "empty: unsatisfiable (unknown term or impossible Allen window)",
        ),
    ];
    for (query, expected) in cases {
        assert_eq!(query.explain(), expected);
    }
}

/// A window alone visits at most its answers plus one entry per
/// predicate run, however long another predicate's spells are: pred0
/// holds one spell over all time, pred1 a hundred one-point spells. A
/// single run of every fact ordered by start would carry pred0's end as
/// its running maximum past all of pred1's spells and visit every one
/// that starts before the window ends.
#[test]
fn window_alone_visits_its_answers_plus_one_entry_per_run() {
    let mut facts = vec![(0, 0, 0, 0, 120, 0)];
    facts.extend((0..100).map(|i| (i, 1, 0, i as i8, 0, 0)));
    let snap = build_snapshot(&facts);
    for t in [50, 98, 99, 110] {
        let query = snap.query().at(t);
        let explain = query.explain();
        let visited: usize = explain
            .rsplit_once('~')
            .and_then(|(_, n)| n.strip_suffix(" candidates")?.parse().ok())
            .unwrap_or_else(|| panic!("no candidate count in {explain:?}"));
        let answers = query.count();
        assert!(
            explain.starts_with("every predicate interval sub-index (2 runs)"),
            "{explain}"
        );
        assert!(
            visited <= answers + 2,
            "at {t}: {explain}, {answers} answers"
        );
    }
}
