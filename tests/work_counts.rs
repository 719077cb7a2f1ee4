//! A work ledger: exact counts of what the grounder, the partition pass
//! and the publish path do on two seeded 25k-fact inputs, held by count
//! rather than by the clock.
//!
//! The inputs are the seeded Wikidata graph `tests/ground_allocations.rs`
//! grounds (`noise_ratio` 0.1, seed 1) and a FootballDB graph of the
//! same size, each under the program the benchmarks run it with. For
//! each this file pins a cold `ground()` — candidates examined, body
//! matches, formula clauses, atoms, clauses — then a cold `mln-exact`
//! resolve and one clashing insert through `resolve_incremental`:
//! components, components solved and atoms the partition pass visited,
//! and the view facts that publish copied.
//!
//! A change that moves a count does more (or less) work than it did:
//! the pin moves with it, and the change says why.

use tecore_core::{Engine, SolverRegistry, TecoreConfig};
use tecore_datagen::standard::{football_program, wikidata_program};
use tecore_datagen::{generate_football, generate_wikidata, FootballConfig, WikidataConfig};
use tecore_ground::{ground, intern_constants};
use tecore_kg::UtkGraph;
use tecore_logic::LogicProgram;

/// A cold ground: candidates examined, body matches, formula clauses,
/// atoms, clauses.
type GroundCounts = [usize; 5];

/// A resolve: components, components solved, atoms the partition pass
/// visited, view facts the publish copied.
type SolveCounts = [usize; 4];

fn wikidata() -> UtkGraph {
    generate_wikidata(&WikidataConfig {
        total_facts: 25_000,
        noise_ratio: 0.1,
        seed: 1,
    })
    .graph
}

fn football() -> UtkGraph {
    generate_football(&FootballConfig::with_target_facts(25_000, 0.1, 1)).graph
}

fn cold_ground(mut graph: UtkGraph, program: &LogicProgram) -> GroundCounts {
    intern_constants(program, graph.dict_mut());
    let g = ground(&graph, program).expect("grounds");
    let s = &g.stats;
    [
        s.candidates_examined,
        s.body_matches,
        s.formula_clauses,
        g.num_atoms(),
        g.clauses.len(),
    ]
}

/// A cold `mln-exact` resolve, then a second `playsFor` spell of the
/// first player, at a club of its own over the same years. The cold
/// resolve solves every component; the insert solves the two-atom one
/// it makes. Its publish copies the whole view: the cold snapshot left
/// no spare to patch.
fn cold_then_clash(graph: UtkGraph, program: LogicProgram) -> [SolveCounts; 2] {
    let config = TecoreConfig {
        backend: SolverRegistry::with_default_backends()
            .resolve("mln-exact")
            .expect("registered"),
        ..TecoreConfig::default()
    };
    let mut engine = Engine::with_config(graph, program, config);
    let counts = |engine: &mut Engine| {
        let s = engine
            .resolve_incremental()
            .expect("resolves")
            .stats
            .clone();
        [
            s.components,
            s.components_solved,
            s.partition_atoms_visited,
            s.view_facts_copied,
        ]
    };
    let cold = counts(&mut engine);
    let dict = engine.graph().dict();
    let plays = dict.lookup("playsFor").expect("a playsFor fact");
    let (_, spell) = (engine.graph().iter())
        .find(|(_, f)| f.predicate == plays)
        .expect("a playsFor fact");
    let (player, spell) = (dict.resolve(spell.subject).to_string(), spell.interval);
    tecore_testkit::insert(&mut engine, &player, "playsFor", "ClashClub", spell, 0.5);
    [cold, counts(&mut engine)]
}

#[test]
fn wikidata_work() {
    assert_eq!(
        cold_ground(wikidata(), &wikidata_program()),
        [11_951, 2_441, 2_441, 22_722, 25_163]
    );
    assert_eq!(
        cold_then_clash(wikidata(), wikidata_program()),
        [[20_455, 20_455, 22_722, 23_876], [20_455, 1, 2, 23_876]]
    );
}

#[test]
fn football_work() {
    assert_eq!(
        cold_ground(football(), &football_program()),
        [16_036, 2_642, 2_642, 24_986, 27_628]
    );
    assert_eq!(
        cold_then_clash(football(), football_program()),
        [[22_574, 22_574, 24_986, 22_721], [22_574, 1, 2, 22_721]]
    );
}
