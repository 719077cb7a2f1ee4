//! Quickstart: the paper's running example, end to end.
//!
//! Reproduces §3 of the paper: the Claudio Ranieri uTKG of Figure 1,
//! the inference rules of Figure 4 and the constraints of Figure 6 are
//! fed through MAP inference; the expected output is Figure 7 — fact (5)
//! `(CR, coach, Napoli, [2001,2003]) 0.6` is removed because it clashes
//! with fact (1) under constraint c2 and has the inferior weight. The
//! one derived fact, `worksFor(CR, Palermo, [1984,1986])`, is graded by
//! default: its exact marginal on the MLN backend, its soft truth value
//! on PSL. The example asserts both, so it fails if grading regresses.
//!
//! Run with: `cargo run --release --example quickstart`

use tecore_core::{Engine, SolverRegistry, TecoreConfig};
use tecore_datagen::standard::{paper_program, ranieri_utkg};

fn main() {
    let graph = ranieri_utkg();
    let program = paper_program();

    println!("== Input uTKG G (Figure 1) ==");
    for (_, fact) in graph.iter() {
        println!("  {}", fact.display(graph.dict()));
    }
    println!("\n== Rules F and constraints C (Figures 4 & 6) ==");
    for f in program.formulas() {
        println!("  {}", tecore_logic::pretty::format_formula(f));
    }

    let registry = SolverRegistry::with_default_backends();
    for name in ["mln-cpi", "psl-admm"] {
        let config = TecoreConfig {
            backend: registry.resolve(name).expect("registered backend"),
            ..TecoreConfig::default()
        };
        let resolution = Engine::with_config(graph.clone(), program.clone(), config)
            .resolve()
            .expect("running example resolves");

        println!("\n== map(θ(G), F ∪ C) with {name} ==");
        println!("consistent subgraph (Figure 7):");
        for (_, fact) in resolution.consistent.iter() {
            println!("  {}", fact.display(resolution.consistent.dict()));
        }
        println!("removed (conflicting) facts:");
        for removed in &resolution.removed {
            println!("  {}", removed.fact.display(resolution.consistent.dict()));
        }
        println!("inferred facts (implicit knowledge made explicit):");
        for inferred in &resolution.inferred {
            println!("  {inferred}");
        }
        println!("\n{}", resolution.stats);

        let [worksfor] = &resolution.inferred[..] else {
            panic!("{name}: one derived fact, got {:?}", resolution.inferred);
        };
        let graded = match name {
            // P(worksFor(CR, Palermo) = 1) over its component's worlds.
            "mln-cpi" => (worksfor.confidence - 0.657_594_642_314_038_3).abs() < 1e-12,
            _ => worksfor.confidence > 0.9,
        };
        assert!(graded, "{name}: {worksfor} is not graded as it should be");
    }
}
