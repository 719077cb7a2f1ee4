//! Streaming updates: interactive edits through the incremental engine.
//!
//! The paper demonstrates TeCoRe as an *interactive* system — the user
//! edits the uTKG and re-runs the reasoner. This example drives that
//! loop through `Engine::insert_fact` → `Engine::resolve_incremental`:
//! the first resolve grounds from scratch and primes the engine; every
//! later resolve consumes only the delta (the incremental grounder
//! retracts/emits just the touched clauses) and warm-starts the solver
//! from the previous MAP state.
//!
//! Run with: `cargo run --release --example streaming_session`

use tecore_core::{Engine, SolverRegistry, TecoreConfig};
use tecore_datagen::standard::ranieri_utkg;
use tecore_logic::LogicProgram;
use tecore_temporal::Interval;

fn main() {
    let program = LogicProgram::parse(
        "f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5\n\
         c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z \
             -> disjoint(t, t') w = inf\n",
    )
    .expect("program parses");
    let config = TecoreConfig {
        backend: SolverRegistry::with_default_backends()
            .resolve("mln-walksat")
            .expect("registered"),
        ..TecoreConfig::default()
    };
    let mut engine = Engine::with_config(ranieri_utkg(), program, config);

    // 1. Prime the incremental engine (cold ground + cold solve).
    let r = engine.resolve_incremental().expect("resolves");
    println!("== initial resolve ==");
    report(&r);

    // 2. Streaming edit: a strong Roma spell that clashes with the
    //    Leicester one. Only the delta is re-ground; WalkSAT restarts
    //    from the previous MAP assignment.
    let roma = engine
        .insert_fact(
            "CR",
            "coach",
            "Roma",
            Interval::new(2016, 2018).expect("valid"),
            0.95,
        )
        .expect("insert");
    let r = engine.resolve_incremental().expect("resolves");
    println!("\n== after insert (CR, coach, Roma, [2016,2018]) 0.95 ==");
    report(&r);

    // 3. Undo the edit: the engine unwinds the delta and lands back on
    //    the original repair.
    engine.remove_fact(roma).expect("remove");
    let r = engine.resolve_incremental().expect("resolves");
    println!("\n== after removing the Roma fact again ==");
    report(&r);
}

fn report(r: &tecore_core::Resolution) {
    println!(
        "  conflicting facts: {} | inferred: {} | ground time {:?} | solve time {:?}",
        r.stats.conflicting_facts,
        r.stats.inferred_facts,
        r.stats.grounding_time,
        r.stats.solve_time
    );
    for removed in &r.removed {
        println!("  removed: {}", removed.fact.display(r.consistent.dict()));
    }
    for inferred in &r.inferred {
        println!("  inferred: {inferred}");
    }
}
