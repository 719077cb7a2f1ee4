//! Round trips across the persistence boundary: a generated uTKG that
//! is serialised, re-parsed and debugged must behave exactly like the
//! original in-memory graph.

use proptest::prelude::*;

use tecore_core::{Engine, TecoreConfig};
use tecore_datagen::config::FootballConfig;
use tecore_datagen::football::generate_football;
use tecore_datagen::standard::football_program;
use tecore_kg::parser::parse_graph;
use tecore_kg::writer::write_graph;

#[test]
fn generated_graph_roundtrips() {
    let generated = generate_football(&FootballConfig {
        players: 300,
        noise_ratio: 0.2,
        seed: 99,
        ..FootballConfig::default()
    });
    let text = write_graph(&generated.graph);
    let reparsed = parse_graph(&text).unwrap();
    assert_eq!(reparsed.len(), generated.graph.len());

    // Conflict resolution is invariant under the round trip.
    let config = TecoreConfig::default();
    let original = Engine::with_config(generated.graph.clone(), football_program(), config.clone())
        .resolve()
        .unwrap();
    let roundtripped = Engine::with_config(reparsed, football_program(), config)
        .resolve()
        .unwrap();
    assert_eq!(
        original.stats.conflicting_facts,
        roundtripped.stats.conflicting_facts
    );
    assert!((original.stats.cost - roundtripped.stats.cost).abs() < 1e-6);

    // The removed statements are the same (modulo fact ids).
    let mut removed_a: Vec<String> = original
        .removed
        .iter()
        .map(|f| f.fact.display(original.consistent.dict()).to_string())
        .collect();
    let mut removed_b: Vec<String> = roundtripped
        .removed
        .iter()
        .map(|f| f.fact.display(roundtripped.consistent.dict()).to_string())
        .collect();
    removed_a.sort();
    removed_b.sort();
    assert_eq!(removed_a, removed_b);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Round-trip invariance holds for arbitrary seeds and noise levels.
    #[test]
    fn roundtrip_any_seed(seed in 0u64..1000, noise in 0u32..=60) {
        let generated = generate_football(&FootballConfig {
            players: 60,
            noise_ratio: f64::from(noise) / 100.0,
            seed,
            ..FootballConfig::default()
        });
        let text = write_graph(&generated.graph);
        let reparsed = parse_graph(&text).unwrap();
        prop_assert_eq!(reparsed.len(), generated.graph.len());
        let mut a: Vec<String> = generated
            .graph
            .iter()
            .map(|(_, f)| f.display(generated.graph.dict()).to_string())
            .collect();
        let mut b: Vec<String> = reparsed
            .iter()
            .map(|(_, f)| f.display(reparsed.dict()).to_string())
            .collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }
}
