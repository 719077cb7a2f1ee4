//! Noise-robustness — experiment E4.
//!
//! The paper (§1): "TeCoRe has been successfully tested in a highly
//! noisy setting where there are as many erroneous temporal facts as the
//! correct ones." This example sweeps the noise ratio up to that 1:1
//! setting and reports repair precision/recall against the generator's
//! ground-truth labels, for both backends.
//!
//! Run with: `cargo run --release --example noisy_repair`

use tecore_core::{Backend, Engine, TecoreConfig};
use tecore_datagen::config::FootballConfig;
use tecore_datagen::football::generate_football;
use tecore_datagen::noise::repair_metrics;
use tecore_datagen::standard::football_program;

fn main() {
    let program = football_program();
    println!("noise ratio sweep on FootballDB (≈8k facts each, seed fixed)\n");
    println!(
        "{:<8} {:<12} {:>10} {:>10} {:>10} {:>10}",
        "ratio", "backend", "precision", "recall", "f1", "removed"
    );
    for ratio in [0.1, 0.25, 0.5, 1.0] {
        let config = FootballConfig {
            players: 1_200,
            noise_ratio: ratio,
            seed: 0xE4,
            ..FootballConfig::default()
        };
        let generated = generate_football(&config);
        for backend in [Backend::default(), Backend::default_psl()] {
            let name = backend.name();
            let tc = TecoreConfig {
                backend: backend.into(),
                ..TecoreConfig::default()
            };
            let resolution = Engine::with_config(generated.graph.clone(), program.clone(), tc)
                .resolve()
                .expect("resolves");
            let removed: Vec<_> = resolution.removed.iter().map(|r| r.id).collect();
            let m = repair_metrics(&generated, &removed);
            println!(
                "{:<8} {:<12} {:>10.3} {:>10.3} {:>10.3} {:>10}",
                ratio,
                name,
                m.precision(),
                m.recall(),
                m.f1(),
                removed.len()
            );
        }
    }
    println!(
        "\nAt the paper's 1:1 stress setting the repair should stay \
         well above chance (precision ≫ noise share)."
    );
}
