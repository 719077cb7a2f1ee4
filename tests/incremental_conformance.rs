//! Incremental-engine conformance: for **every registered backend**,
//! any edit script over the five-fact cluster (a clash, a derivation,
//! bystanders) and the `f1`/`c2` program, followed by
//! `resolve_incremental`, must land on what a cold resolve computes
//! over the surviving graph — `tecore_testkit`'s script and oracle
//! (`assert_same`), under `Engine::new`'s `Auto` component mode. A
//! drawn script runs within what its backend is held to
//! (`Script::within`: no floods where a cold `Auto` solve is monolithic
//! and not exact, heuristic backends' statements apart); the directed
//! sequences and the named repros run as written.
//!
//! This is the oracle contract of the incremental refactor: the
//! delta-maintained grounding (retraction cascades, revived atoms,
//! demoted evidence, re-run binding search) and the warm-started
//! solvers are pure optimisations — never allowed to change the
//! repair, the surviving KG, or the derived facts.

use proptest::prelude::*;
use tecore_core::Engine;
use tecore_testkit::{
    arb_steps, assert_journaled, assert_same, clusters, cold, config, f1_c2, graph, insert, Edit,
    Expect, Script, BACKENDS,
};

/// Runs the steps through each of `backends`, resolving after each and
/// holding the result to the cold oracle and the engine's graph to what
/// its log recovers. `drawn` steps run within what
/// each backend is held to (`Script::within`), fixed ones as written.
fn check_sequence(steps: &[Vec<Edit>], backends: &[&str], drawn: bool) {
    for &name in backends {
        let (mut engine, log) = tecore_testkit::engine(graph(&clusters(1)), f1_c2(), config(name));
        // Prime the incremental cache before the edits start.
        engine.resolve_incremental().expect("prime");
        let mut script = match drawn {
            true => Script::within(Expect::for_backend(engine.config())),
            false => Script::default(),
        };
        for (i, edits) in steps.iter().enumerate() {
            script.apply(&mut engine, edits);
            let warm = engine.resolve_incremental().expect("incremental resolve");
            let what = format!("{name}, step {i} {edits:?}");
            assert_same(&what, &warm, &cold(&engine));
            assert_journaled(&what, &engine, &log);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random edit sequences on three subjects (the first the
    /// cluster's own); conformance checked after every step, on all
    /// four backends.
    #[test]
    fn random_delta_sequences_match_cold_resolve(steps in arb_steps(3, 1..4, 1..7)) {
        check_sequence(&steps, &BACKENDS, true);
    }
}

/// A directed sequence covering the delicate transitions: duplicate
/// merge, unmerge, full removal with cascade, re-insert (atom revival).
#[test]
fn directed_merge_revive_cascade_sequence() {
    let steps = [
        // Duplicates of the cluster's playing spell → evidence merge.
        Edit::insert(0, 1, 0, 1980, 3, 10),
        Edit::insert(0, 1, 0, 1980, 3, 20),
        // A clash on coach.
        Edit::insert(1, 0, 1, 2000, 5, 30),
        Edit::insert(1, 0, 2, 2002, 5, 5),
        // Churn: remove a few facts (indices arbitrary but fixed).
        Edit::Remove(3),
        Edit::Remove(0),
        Edit::Remove(5),
        // Re-insert the same playsFor statement → atom revival.
        Edit::insert(0, 1, 0, 1980, 3, 15),
    ];
    check_sequence(&steps.map(|edit| vec![edit]), &BACKENDS, false);
}

/// `random_delta_sequences_match_cold_resolve`'s case 3 with floods on
/// every backend: under `Engine::new`'s defaults (`mln-cpi`, `Auto`) the
/// flood's step leaves the warm snapshot with a `worksFor` the cold one
/// lacks. A cold `Auto` solve on a backend that is not exact goes
/// monolithic, and CPI's inner solve of the 40-odd atoms is WalkSAT;
/// `mln-walksat` misses there too, `mln-exact` and `psl-admm` agree.
fn flood_under_auto() -> [Vec<Edit>; 2] {
    [
        vec![
            Edit::insert(1, 2, 5, 1989, 0, 16),
            Edit::upsert(148, 2006, 1, 6),
            Edit::upsert(298, 1989, 1, 16),
            Edit::insert(1, 0, 4, 1990, 0, 18),
            Edit::insert(2, 2, 6, 2010, 3, 10),
        ],
        vec![
            Edit::Flood(231),
            Edit::insert(2, 2, 5, 1998, 4, 26),
            Edit::insert(1, 0, 2, 1987, 5, 9),
            Edit::insert(1, 2, 3, 2008, 5, 13),
            Edit::Checkpoint,
            Edit::insert(0, 1, 5, 1997, 3, 35),
        ],
    ]
}

#[test]
fn a_flood_under_auto_on_mln_exact_and_psl_admm() {
    check_sequence(&flood_under_auto(), &["mln-exact", "psl-admm"], false);
}

#[test]
#[ignore = "warm ≠ cold on heuristic backends: ROADMAP item 1"]
fn a_flood_under_auto_on_mln_cpi_and_mln_walksat() {
    check_sequence(&flood_under_auto(), &["mln-cpi", "mln-walksat"], false);
}

/// Work, not time: a one-fact delta binds its new atom first and joins
/// outwards from it, so on a 20k-fact graph whose dominant predicate
/// holds ~12k atoms it looks at the new atom (once per formula and body
/// position) and that subject's few facts — not at the predicate's
/// extension, which a scan per formula and position would walk (~2 ×
/// 12k candidates).
#[test]
fn one_fact_delta_examines_a_handful_of_candidates() {
    use tecore_datagen::standard::wikidata_program;
    use tecore_datagen::{generate_wikidata, WikidataConfig};

    let generated = generate_wikidata(&WikidataConfig {
        total_facts: 20_000,
        noise_ratio: 0.1,
        seed: 0x7ec0_2017,
    });
    let graph = generated.graph;
    let plays = graph.dict().lookup("playsFor").expect("generated");
    assert!(graph.facts_with_predicate(plays).count() > 10_000);
    let (_, spell) = graph.facts_with_predicate(plays).next().expect("non-empty");
    let (subject, interval) = (
        graph.dict().resolve(spell.subject).to_string(),
        spell.interval,
    );

    let mut engine = Engine::with_config(graph, wikidata_program(), config("mln-walksat"));
    let primed = engine.resolve_incremental().expect("prime");
    // A second club over the same years: one new atom, one new clash.
    insert(
        &mut engine,
        &subject,
        "playsFor",
        "QRivalClub",
        interval,
        0.61,
    );
    let delta = engine.graph().since(primed.epoch()).expect("log retained");
    let stats = engine.apply_delta(&delta).expect("cached grounding");
    assert_eq!((stats.facts_added, stats.atoms_created), (1, 1));
    assert!(
        stats.clauses_emitted >= 2,
        "evidence unit + clash: {stats:?}"
    );
    // The new atom six times (three formulas, two positions), and at
    // either position of `wPlays` the one spell of the subject's run
    // that shares its years — 14 before the run was probed with the
    // window, when the subject's other spells and the atom itself
    // were tried too.
    assert!(
        stats.candidates_examined <= 8,
        "a one-fact delta examined {} candidates",
        stats.candidates_examined
    );
}

/// The default backend's publish follows the edit too: after a one-fact
/// edit the explanations of the conflicts it did not touch are the very
/// `Arc`s the previous snapshot lists (patched, not re-rendered), and
/// the per-constraint counts are a cold resolve's.
#[test]
fn cpi_edit_shares_untouched_explanations_with_the_previous_snapshot() {
    use std::sync::Arc;
    use tecore_datagen::standard::wikidata_program;
    use tecore_datagen::{generate_wikidata, WikidataConfig};

    let graph = generate_wikidata(&WikidataConfig {
        total_facts: 2_000,
        noise_ratio: 0.1,
        seed: 0x7ec0_2017,
    })
    .graph;
    let plays = graph.dict().lookup("playsFor").expect("generated");
    let (_, spell) = graph.facts_with_predicate(plays).next().expect("non-empty");
    let (subject, interval) = (
        graph.dict().resolve(spell.subject).to_string(),
        spell.interval,
    );

    let config = config("mln-cpi");
    let mut engine = Engine::with_config(graph, wikidata_program(), config.clone());
    engine.resolve_incremental().expect("prime");
    // The first warm solve moves the cold, monolithic state onto the
    // component path; the snapshots compared are the two after it.
    let before = engine.resolve_incremental().expect("settle");
    assert!(before.conflicts.len() > 10, "{}", before.conflicts.len());
    // A second club over the same years: one new clash.
    insert(
        &mut engine,
        &subject,
        "playsFor",
        "QRivalClub",
        interval,
        0.61,
    );
    let after = engine.resolve_incremental().expect("incremental");

    let shared = after
        .conflicts
        .iter()
        .filter(|e| before.conflicts.iter().any(|b| Arc::ptr_eq(b, e)))
        .count();
    assert!(after.conflicts.len() > before.conflicts.len());
    assert_eq!(
        shared,
        before.conflicts.len(),
        "every untouched explanation is shared"
    );
    let cold = Engine::with_config(engine.graph().clone(), wikidata_program(), config)
        .resolve()
        .expect("cold resolve");
    assert_eq!(after.stats.per_constraint, cold.stats.per_constraint);
}

/// Removing every fact must leave an empty, conflict-free resolution —
/// and the engine must survive resolving an empty graph.
#[test]
fn drain_the_graph_completely() {
    for name in BACKENDS {
        let (mut engine, _) = tecore_testkit::engine(graph(&clusters(1)), f1_c2(), config(name));
        engine.resolve_incremental().expect("prime");
        let all: Vec<Edit> = (0..engine.graph().len()).map(Edit::Remove).collect();
        Script::default().apply(&mut engine, &all);
        let r = engine.resolve_incremental().expect("empty resolve");
        assert_eq!(r.consistent.len(), 0, "{name}");
        assert_eq!(r.removed.len(), 0, "{name}");
        assert!(r.inferred.is_empty(), "{name}");
        assert!(r.stats.feasible, "{name}");
    }
}
