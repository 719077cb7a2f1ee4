//! Shared workload construction for the experiment benches.

use std::sync::Arc;

use tecore_core::registry::SolverRegistry;
use tecore_core::snapshot::Snapshot;
use tecore_core::{Engine, MapSolver, TecoreConfig};
use tecore_datagen::config::{FootballConfig, WikidataConfig};
use tecore_datagen::football::generate_football;
use tecore_datagen::noise::GeneratedKg;
use tecore_datagen::wikidata::generate_wikidata;
use tecore_logic::LogicProgram;

/// FootballDB workload of approximately `total_facts` facts at the
/// paper-calibrated conflict share (≈8.1%).
pub fn football(total_facts: usize) -> GeneratedKg {
    generate_football(&FootballConfig::with_target_facts(
        total_facts,
        0.0883,
        0x7ec0_2017,
    ))
}

/// FootballDB workload at an explicit noise ratio (E4).
pub fn football_noisy(total_facts: usize, noise_ratio: f64) -> GeneratedKg {
    let correct = total_facts as f64 / (1.0 + noise_ratio);
    let players = (correct / FootballConfig::FACTS_PER_PLAYER)
        .round()
        .max(1.0) as usize;
    generate_football(&FootballConfig {
        players,
        noise_ratio,
        seed: 0xE4,
        ..FootballConfig::default()
    })
}

/// Wikidata workload of `total_facts` facts (E6).
pub fn wikidata(total_facts: usize) -> GeneratedKg {
    generate_wikidata(&WikidataConfig {
        total_facts,
        noise_ratio: 0.05,
        seed: 0xE6,
    })
}

/// Runs the full pipeline with a backend over a prepared workload,
/// returning the resolved snapshot (which dereferences to the
/// resolution).
pub fn resolve(
    generated: &GeneratedKg,
    program: &LogicProgram,
    backend: Arc<dyn MapSolver>,
) -> Arc<Snapshot> {
    let config = TecoreConfig {
        backend,
        ..TecoreConfig::default()
    };
    Engine::with_config(generated.graph.clone(), program.clone(), config)
        .resolve()
        .expect("benchmark workload resolves")
}

/// Resolves a backend by registry name (default-configured seed
/// substrates), so bench matrices can be driven by name lists. Resolve
/// once outside the measured loop and pass the cheap-to-clone `Arc` to
/// [`resolve`].
pub fn solver(name: &str) -> Arc<dyn MapSolver> {
    SolverRegistry::with_default_backends()
        .resolve(name)
        .expect("benchmark backend name registered")
}
