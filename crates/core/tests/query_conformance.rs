//! Query-planner conformance: whatever access path the query's shape
//! names, a [`TemporalQuery`](tecore_core::TemporalQuery) must return
//! exactly the facts a brute-force scan over the expanded graph returns
//! (`tecore_testkit::assert_queries_match_scan`, over its query shapes
//! and compact facts). The plan only decides how many candidates get
//! examined; the residual filter keeps every path exact.

use proptest::prelude::*;
use tecore_core::{EditBatch, Engine, TecoreConfig};
use tecore_ground::ComponentMode;
use tecore_kg::{FactId, UtkGraph};
use tecore_logic::LogicProgram;
use tecore_temporal::Interval;
use tecore_testkit::grounding::insert_fact;
use tecore_testkit::{
    arb_fact, arb_shape, assert_queries_match_scan, config, snapshot_of, Shape, Time,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any query shape over any snapshot returns exactly the brute-force
    /// result set, whatever access path the planner picked.
    #[test]
    fn planned_query_matches_brute_force(
        facts in prop::collection::vec(arb_fact(), 0..40),
        shape in arb_shape(),
    ) {
        assert_queries_match_scan(&snapshot_of(&facts), &[shape]);
    }

    /// The same on views `resolve_incremental` carried forward: each
    /// step removes a live `pred0` fact (never in a conflict, so always
    /// in the view) or inserts one, and the patched view keeps the
    /// removed ones as tombstones. Every shape is also asked with its
    /// subject and predicate both bound, with and without its window.
    #[test]
    fn carried_view_queries_match_brute_force(
        facts in prop::collection::vec(arb_fact(), 40..64),
        steps in prop::collection::vec((0usize..64, prop::option::of(arb_fact())), 1..5),
        shapes in prop::collection::vec(arb_shape(), 1..6),
    ) {
        let mut graph = UtkGraph::new();
        for &fact in &facts {
            insert_fact(&mut graph, fact);
        }
        // Solved component by component, exactly: a removed `pred0`
        // fact, in no component, moves no atom, so the view is patched.
        let config = TecoreConfig {
            component_mode: ComponentMode::Components,
            ..config("mln-exact")
        };
        let mut engine = Engine::with_config(graph, carry_program(), config);
        engine.resolve_incremental().unwrap();
        for (step, &(pick, insert)) in steps.iter().enumerate() {
            match insert {
                // The first step always removes, so every view below
                // holds a tombstone.
                Some(fact) if step > 0 => {
                    let ([s, p, o], iv, confidence) = tecore_testkit::spell(fact);
                    tecore_testkit::insert(&mut engine, &s, &p, &o, iv, confidence);
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
                        let batch = EditBatch::new().remove(live[pick % live.len()]);
                        engine.apply(&batch).into_result().unwrap();
                    }
                }
            }
            let snap = engine.resolve_incremental().unwrap();
            let view = snap.expanded();
            prop_assert!(view.arena_len() > view.len(), "a carried view, with tombstones");
            let all: Vec<Shape> = shapes
                .iter()
                .flat_map(|&shape| {
                    let bound = Shape {
                        subject: Some(shape.subject.unwrap_or(0)),
                        predicate: Some(shape.predicate.unwrap_or(0)),
                        ..shape
                    };
                    [shape, bound, Shape { time: Time::Any, ..bound }]
                })
                .collect();
            assert_queries_match_scan(&snap, &all);
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
    let snap = snapshot_of(&[
        (0, 0, 0, 1, 3, 9),
        (0, 0, 1, 10, 2, 8),
        (0, 1, 0, 5, 1, 7),
        (1, 0, 0, 2, 2, 6),
        (1, 1, 1, 20, 5, 5),
        (2, 0, 2, 7, 0, 10),
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
    let mut facts = vec![(0, 0, 0, 0, 120, 5)];
    facts.extend((0..100).map(|i| (i, 1, 0, i as i8, 0, 5)));
    let snap = snapshot_of(&facts);
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
