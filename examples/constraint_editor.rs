//! The constraints editor flow (Figures 3 and 5), headless.
//!
//! The demo's Web UI lets the audience select a uTKG, build constraints
//! with predicate auto-completion, pick a reasoner and inspect the
//! result statistics. Each step is one library call: completions come
//! from a `CompletionEngine` seeded with the graph's predicates, the
//! editor parses, checks and re-renders each formula, the reasoner is
//! picked by name from the `SolverRegistry`, and an `Engine` runs it.
//!
//! The example asserts what it prints — `co` completes to `coach`
//! first, the unsafe-head formula is rejected, four backends are
//! listed, and `mln-exact` removes exactly the Napoli fact — so it
//! fails when any step of the flow changes.
//!
//! Run with: `cargo run --release --example constraint_editor`

use tecore_core::{Engine, SolverRegistry, TecoreConfig};
use tecore_datagen::standard::ranieri_utkg;
use tecore_kg::GraphStats;
use tecore_logic::parser::parse_formula;
use tecore_logic::pretty::format_formula;
use tecore_logic::suggest::CompletionEngine;
use tecore_logic::validate::check_formula;
use tecore_logic::LogicProgram;

/// The editor's "add" button: parse, validate, and render the
/// canonical form it displays.
fn add_formula(program: &mut LogicProgram, source: &str) -> Result<String, String> {
    let formula = parse_formula(source).map_err(|e| e.to_string())?;
    check_formula(&formula).map_err(|e| e.to_string())?;
    let rendered = format_formula(&formula);
    program.push(formula);
    Ok(rendered)
}

fn main() {
    let graph = ranieri_utkg();
    println!("== selected graph: ranieri (Figure 1) ==");
    println!("{}", GraphStats::compute(&graph));

    // Figure 5: predicate auto-completion while typing a constraint.
    println!("== auto-completion ==");
    let predicates = graph
        .predicates()
        .into_iter()
        .map(|p| graph.dict().resolve(p));
    let completion = CompletionEngine::with_predicates(predicates);
    for partial in ["co", "birth", "dis", "bef"] {
        let texts = completion.complete_texts(partial, 4);
        println!("  `{partial}` → {texts:?}");
        if partial == "co" {
            assert_eq!(texts[0], "coach", "`co` completes to `coach` first");
        }
    }

    // The editor validates input and explains what is wrong.
    println!("\n== validation ==");
    let mut program = LogicProgram::new();
    let bad = "quad(x, coach, y, t) -> quad(x, coach, z2, t) w = 1.0";
    let error = add_formula(&mut program, bad).expect_err("unsafe head variable is rejected");
    println!("  rejected `{bad}`:\n    {error}");
    assert!(error.contains("unsafe"), "{error}");
    assert!(program.is_empty());

    // Build the paper's program interactively.
    println!("\n== registered formulas ==");
    for src in [
        "f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5",
        "c1: quad(x, birthDate, y, t) ^ quad(x, deathDate, z, t') -> before(t, t') w = inf",
        "c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf",
        "c3: quad(x, bornIn, y, t) ^ quad(x, bornIn, z, t') ^ overlap(t, t') -> y = z w = inf",
    ] {
        let rendered = add_formula(&mut program, src).expect("paper formula is valid");
        println!("  + {rendered}");
    }

    // Pick a reasoner by name (the demo's backend dropdown).
    println!("\n== available backends ==");
    let registry = SolverRegistry::with_default_backends();
    let names: Vec<&str> = registry.names().collect();
    for name in &names {
        println!("  {name}");
    }
    assert_eq!(names, ["mln-cpi", "mln-exact", "mln-walksat", "psl-admm"]);
    let config = TecoreConfig {
        backend: registry.resolve("mln-exact").expect("registered"),
        ..TecoreConfig::default()
    };

    // Run and browse, like the results screen of Figure 8.
    let resolution = Engine::with_config(graph, program, config)
        .resolve()
        .expect("resolves");
    println!("\n{}", resolution.stats);
    let dict = resolution.consistent.dict();
    println!("consistent statements:");
    for (_, fact) in resolution.consistent.iter() {
        println!("  {}", fact.display(dict));
    }
    println!("conflicting statements:");
    for removed in &resolution.removed {
        println!("  {}", removed.fact.display(dict));
    }
    let removed: Vec<&str> = resolution
        .removed
        .iter()
        .map(|r| dict.resolve(r.fact.object))
        .collect();
    assert_eq!(removed, ["Napoli"], "mln-exact removes exactly Napoli");
    println!("\nwhy:");
    for conflict in &resolution.conflicts {
        print!("{conflict}");
    }
}
