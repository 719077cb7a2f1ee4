//! Repair quality on labelled noisy workloads (experiment E4 at test
//! scale): the paper claims TeCoRe works "in a highly noisy setting
//! where there are as many erroneous temporal facts as the correct
//! ones". These tests pin quantitative floors so regressions in the
//! solvers or the translator show up as failures.

use tecore_core::{Engine, SolverRegistry, TecoreConfig};
use tecore_datagen::config::FootballConfig;
use tecore_datagen::football::generate_football;
use tecore_datagen::noise::{repair_metrics, RepairMetrics};
use tecore_datagen::standard::football_program;

fn config(backend: &str) -> TecoreConfig {
    TecoreConfig {
        backend: SolverRegistry::with_default_backends()
            .resolve(backend)
            .expect("registered backend"),
        ..TecoreConfig::default()
    }
}

fn run_repair(noise_ratio: f64, backend: &str, seed: u64) -> RepairMetrics {
    let generated = generate_football(&FootballConfig {
        players: 400,
        noise_ratio,
        seed,
        ..FootballConfig::default()
    });
    let r = Engine::with_config(generated.graph.clone(), football_program(), config(backend))
        .resolve()
        .expect("resolves");
    assert!(r.stats.feasible);
    let removed: Vec<_> = r.removed.iter().map(|x| x.id).collect();
    repair_metrics(&generated, &removed)
}

#[test]
fn mln_repair_beats_chance_at_low_noise() {
    let m = run_repair(0.15, "mln-cpi", 41);
    // Noise share is ~13%; removing at random would score ~0.13
    // precision. Demand a wide margin.
    assert!(m.precision() > 0.7, "{m}");
    assert!(m.recall() > 0.7, "{m}");
}

#[test]
fn mln_repair_survives_one_to_one_noise() {
    let m = run_repair(1.0, "mln-cpi", 42);
    assert!(m.precision() > 0.7, "{m}");
    assert!(m.recall() > 0.7, "{m}");
}

#[test]
fn psl_repair_survives_one_to_one_noise() {
    let m = run_repair(1.0, "psl-admm", 42);
    assert!(m.precision() > 0.7, "{m}");
    assert!(m.recall() > 0.7, "{m}");
}

#[test]
fn backends_agree_on_clean_graphs() {
    let generated = generate_football(&FootballConfig {
        players: 200,
        noise_ratio: 0.0,
        seed: 43,
        ..FootballConfig::default()
    });
    for name in ["mln-cpi", "psl-admm"] {
        let r = Engine::with_config(generated.graph.clone(), football_program(), config(name))
            .resolve()
            .unwrap();
        assert_eq!(
            r.removed.len(),
            0,
            "{name} removed facts from a conflict-free graph"
        );
    }
}

#[test]
fn determinism_across_runs() {
    let a = run_repair(0.5, "mln-cpi", 44);
    let b = run_repair(0.5, "mln-cpi", 44);
    assert_eq!(a, b, "same seed, same repair");
}
