//! Wikidata-scale inference — experiment E6.
//!
//! §4 of the paper demos TeCoRe on a 6.3M-fact temporal slice of
//! Wikidata and motivates offering PSL next to the MLN reasoner:
//! "MLN solvers do not scale well ... Thus we also offer the
//! possibility to use PSL, which trades expressiveness for scalability."
//!
//! This example sweeps graph sizes and reports grounding + solve time
//! per backend. The expected shape: PSL stays near-linear; the exact MLN
//! path is only run on the small sizes (it exists to show *why* CPI and
//! PSL are needed).
//!
//! Run with: `cargo run --release --example wikidata_scale [max_facts]`
//! (default sweep tops out at 200k facts; pass 6300000 for the full
//! paper scale if you have a few minutes).

use std::time::Instant;

use tecore_core::{Backend, Engine, TecoreConfig};
use tecore_datagen::config::WikidataConfig;
use tecore_datagen::standard::wikidata_program;
use tecore_datagen::wikidata::generate_wikidata;

fn main() {
    let max: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("usage: wikidata_scale [max_facts]"))
        .unwrap_or(200_000);
    let sizes: Vec<usize> = [10_000usize, 50_000, 200_000, 1_000_000, 6_300_000]
        .into_iter()
        .filter(|&s| s <= max)
        .collect();

    let program = wikidata_program();
    println!(
        "{:<12} {:<12} {:>12} {:>12} {:>12} {:>10}",
        "facts", "backend", "ground", "solve", "total", "conflicts"
    );
    for &size in &sizes {
        let config = WikidataConfig {
            total_facts: size,
            noise_ratio: 0.05,
            seed: 0xE6,
        };
        let t = Instant::now();
        let generated = generate_wikidata(&config);
        let gen_time = t.elapsed();
        for backend in [Backend::default(), Backend::default_psl()] {
            let name = backend.name();
            let tc = TecoreConfig {
                backend: backend.into(),
                ..TecoreConfig::default()
            };
            let resolution = Engine::with_config(generated.graph.clone(), program.clone(), tc)
                .resolve()
                .expect("resolves");
            println!(
                "{:<12} {:<12} {:>12?} {:>12?} {:>12?} {:>10}",
                size,
                name,
                resolution.stats.grounding_time,
                resolution.stats.solve_time,
                resolution.stats.total_time(),
                resolution.stats.conflicting_facts
            );
        }
        println!("  (generation itself: {gen_time:?})");
    }
}
