//! Automatic constraint suggestion — the paper's §4 research goal
//! ("automatic derivation or suggestion of constraints and inference
//! rules") implemented as a data-driven advisor.
//!
//! The advisor profiles a noisy FootballDB-like uTKG, proposes
//! constraints from the paper's three classes with supporting evidence,
//! and the accepted suggestions then drive a debugging run whose repair
//! quality is scored against the generator's ground truth — no
//! hand-written constraints involved.
//!
//! The example asserts what it prints on its seed: the advisor finds
//! the generator's planted coaching and playing-spell disjointness
//! (`auto_disjoint_coach`, `auto_disjoint_playsFor`), and the repair
//! it runs with them is feasible.
//!
//! Run with: `cargo run --release --example constraint_advisor`

use tecore_core::advisor::{suggest_constraints, suggest_order, AdvisorConfig};
use tecore_core::Engine;
use tecore_datagen::config::FootballConfig;
use tecore_datagen::football::generate_football;
use tecore_datagen::noise::repair_metrics;
use tecore_logic::pretty::format_formula;
use tecore_logic::LogicProgram;

fn main() {
    let generated = generate_football(&FootballConfig {
        players: 2_000,
        noise_ratio: 0.15,
        seed: 0xAD01,
        ..FootballConfig::default()
    });
    println!(
        "profiling a {}-fact uTKG ({} injected errors)...\n",
        generated.graph.len(),
        generated.noisy_facts
    );

    let config = AdvisorConfig::default();
    let mut suggestions = suggest_constraints(&generated.graph, &config);
    if let Some(order) = suggest_order(&generated.graph, "birthDate", "deathDate", &config) {
        suggestions.push(order);
    }

    println!("== suggested constraints ==");
    let mut program = LogicProgram::new();
    for s in &suggestions {
        println!("  {}", format_formula(&s.formula));
        println!(
            "    rationale: {} (violation rate {:.1}%, support {})",
            s.rationale,
            s.violation_rate * 100.0,
            s.support
        );
        program.push(s.formula.clone());
    }
    for planted in ["auto_disjoint_coach", "auto_disjoint_playsFor"] {
        assert!(
            suggestions
                .iter()
                .any(|s| s.formula.name.as_deref() == Some(planted)),
            "the advisor suggests {planted}"
        );
    }

    println!("\n== debugging with the suggested constraints only ==");
    let resolution = Engine::new(generated.graph.clone(), program)
        .resolve()
        .expect("suggested constraints are valid");
    println!("{}", resolution.stats);
    assert!(
        resolution.stats.feasible,
        "the suggested repair is feasible"
    );
    let removed: Vec<_> = resolution.removed.iter().map(|r| r.id).collect();
    println!(
        "repair quality vs ground truth: {}",
        repair_metrics(&generated, &removed)
    );
}
