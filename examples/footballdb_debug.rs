//! FootballDB debugging session — experiments E2 and E3.
//!
//! Generates the FootballDB-like uTKG, runs conflict resolution with
//! both reasoners and prints the Figure-8 statistics screen plus the
//! nRockIt-vs-nPSL timing comparison from §3 of the paper
//! ("the running times ... for nRockIt and nPSL is 12,181ms and
//! 6,129ms" — absolute numbers differ on modern hardware and a
//! different substrate; the *shape* to verify is that PSL is roughly
//! 2× faster and both find the same conflicts).
//!
//! Run with:
//! `cargo run --release --example footballdb_debug [total_facts]`
//! `cargo run --release --example footballdb_debug -- --paper-scale`
//! (the paper scale generates 243,157 facts and takes a while).

use std::time::Instant;

use tecore_core::{Backend, Engine, TecoreConfig};
use tecore_datagen::config::FootballConfig;
use tecore_datagen::football::generate_football;
use tecore_datagen::noise::repair_metrics;
use tecore_datagen::standard::football_program;
use tecore_kg::GraphStats;

fn main() {
    let arg = std::env::args().nth(1);
    let config = match arg.as_deref() {
        Some("--paper-scale") => FootballConfig::paper_scale(),
        Some(n) => FootballConfig::with_target_facts(
            n.parse()
                .expect("usage: footballdb_debug [total_facts|--paper-scale]"),
            0.0883,
            0x7ec0_2017,
        ),
        None => FootballConfig::with_target_facts(30_000, 0.0883, 0x7ec0_2017),
    };

    println!(
        "generating FootballDB-like uTKG ({} players)...",
        config.players
    );
    let t = Instant::now();
    let generated = generate_football(&config);
    println!(
        "generated {} facts ({} correct, {} noisy) in {:?}\n",
        generated.graph.len(),
        generated.correct_facts,
        generated.noisy_facts,
        t.elapsed()
    );
    println!("{}", GraphStats::compute(&generated.graph));

    let program = football_program();
    let mut timings = Vec::new();
    for backend in [Backend::default(), Backend::default_psl()] {
        let name = backend.name();
        println!("== debugging with {name} ==");
        let config = TecoreConfig {
            backend: backend.into(),
            ..TecoreConfig::default()
        };
        let resolution = Engine::with_config(generated.graph.clone(), program.clone(), config)
            .resolve()
            .expect("football program is valid for both backends");
        println!("{}", resolution.stats);
        let removed_ids: Vec<_> = resolution.removed.iter().map(|r| r.id).collect();
        let metrics = repair_metrics(&generated, &removed_ids);
        println!("repair quality vs ground truth: {metrics}\n");
        timings.push((name, resolution.stats.total_time()));
    }

    println!("== E3: MAP inference running times (paper: nRockIt 12,181ms vs nPSL 6,129ms) ==");
    for (name, time) in &timings {
        println!("  {name:<12} {time:?}");
    }
    if let [(_, mln), (_, psl)] = timings.as_slice() {
        println!(
            "  speedup: PSL is {:.2}x faster (paper reports ≈1.99x)",
            mln.as_secs_f64() / psl.as_secs_f64().max(1e-9)
        );
    }
}
