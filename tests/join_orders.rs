//! The join orders the shipped programs and the `join_planning` bench
//! program are grounded with. Any order grounds the same arena, so a
//! planner edit that flips one shows up only as work — in the
//! benchmarks' timings, long after the edit. These tests name it.

use tecore_datagen::skewed::{generate_skewed, PLANNING_PROGRAM};
use tecore_datagen::standard::{football_program, wikidata_program};
use tecore_datagen::{
    generate_football, generate_wikidata, FootballConfig, SkewedConfig, WikidataConfig,
};
use tecore_ground::{ground, intern_constants, GroundConfig, Grounding};
use tecore_kg::UtkGraph;
use tecore_logic::LogicProgram;

/// The seed the end-to-end benchmark generates its inputs with.
const SEED: u64 = 0x7ec0_2017;

/// `(name, cold order, seeded orders)` of every formula.
type Orders = Vec<(String, Vec<usize>, Vec<Vec<usize>>)>;

/// `program` grounded against `graph`, its constants — the marker
/// predicates of [`PLANNING_PROGRAM`] have no facts — interned first.
fn orders(graph: &mut UtkGraph, program: &LogicProgram) -> (Orders, Grounding) {
    intern_constants(program, graph.dict_mut());
    let g = ground(graph, program, &GroundConfig::default()).expect("grounds");
    let orders = g
        .program
        .formulas
        .iter()
        .map(|cf| {
            let seeded = cf.seeded.iter().map(|plan| plan.order()).collect();
            (cf.name.clone().unwrap_or_default(), cf.cold.order(), seeded)
        })
        .collect();
    (orders, g)
}

/// Every formula of a two-atom program: its cold order, and both
/// seeded orders from their own position.
fn pairs(cold: &[(&str, [usize; 2])]) -> Orders {
    cold.iter()
        .map(|(name, order)| {
            (
                name.to_string(),
                order.to_vec(),
                vec![vec![0, 1], vec![1, 0]],
            )
        })
        .collect()
}

#[test]
fn football_program_joins_from_the_shorter_list() {
    let mut generated = generate_football(&FootballConfig::with_target_facts(20_000, 0.0883, SEED));
    let (orders, g) = orders(&mut generated.graph, &football_program());
    // cLife starts at `deathDate`: fewer atoms than `birthDate`.
    assert_eq!(
        orders,
        pairs(&[
            ("cSpell", [0, 1]),
            ("cCoach", [0, 1]),
            ("cBirth", [0, 1]),
            ("cLife", [1, 0]),
        ])
    );
    assert_eq!(g.plans[3].join_order, vec![1, 0], "reported as grounded");
}

#[test]
fn wikidata_program_joins_in_source_order() {
    let mut generated = generate_wikidata(&WikidataConfig {
        total_facts: 20_000,
        noise_ratio: 0.1,
        seed: SEED,
    });
    let (orders, _) = orders(&mut generated.graph, &wikidata_program());
    assert_eq!(
        orders,
        pairs(&[("wSpouse", [0, 1]), ("wPlays", [0, 1]), ("wBirth", [0, 1])])
    );
}

#[test]
fn planning_program_joins_from_its_empty_or_tail_predicate() {
    let mut graph = generate_skewed(&SkewedConfig {
        total_facts: 10_000,
        seed: 0x10_AD,
        ..SkewedConfig::default()
    });
    let program = LogicProgram::parse(PLANNING_PROGRAM).expect("valid program");
    let (orders, _) = orders(&mut graph, &program);
    let cold: Vec<(&str, &[usize])> = orders
        .iter()
        .map(|(name, cold, _)| (name.as_str(), cold.as_slice()))
        .collect();
    assert_eq!(
        cold,
        [
            ("c1", &[4, 3, 2, 1, 0][..]),
            ("c2", &[3, 2, 1, 0]),
            ("c3", &[3, 2, 1, 0]),
            ("c4", &[2, 1, 0]),
            ("c5", &[1, 0]),
        ]
    );
}
