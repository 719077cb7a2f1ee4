//! ADMM's work follows the blocks of the problem, not its size times
//! the slowest block.
//!
//! A TeCoRe grounding is mostly independent conflict blocks of a few
//! factors. With one stopping rule for the whole factor graph every
//! factor iterates until the slowest block is done; block by block,
//! the local steps taken are a small share of `max_iterations ×
//! n_factors`. No clock: the counters are the solver's own.

use tecore_core::translate::translate;
use tecore_datagen::standard::football_program;
use tecore_datagen::{generate_football, FootballConfig};
use tecore_ground::{intern_constants, GroundConfig, SolverCaps};
use tecore_psl::{AdmmConfig, AdmmSolver, HlMrf, PslConfig};

#[test]
fn factor_updates_follow_the_blocks() {
    let mut graph = generate_football(&FootballConfig::with_target_facts(20_000, 0.0883, 1)).graph;
    let program = football_program();
    intern_constants(&program, graph.dict_mut());
    let grounding = translate(
        &graph,
        &program,
        &SolverCaps::psl(),
        &GroundConfig::default(),
    )
    .expect("the football program grounds");
    let mrf = HlMrf::from_grounding(&grounding, &PslConfig::default());
    let config = AdmmConfig::default();
    let result = AdmmSolver::new(config.clone()).solve(&mrf);

    assert_eq!(result.blocks, mrf.n_blocks());
    assert!(
        result.blocks * 2 > mrf.n_factors(),
        "{} blocks over {} factors: the input should be mostly small blocks",
        result.blocks,
        mrf.n_factors()
    );
    let one_rule = (config.max_iterations * mrf.n_factors()) as f64;
    assert!(
        result.factor_updates as f64 <= 0.05 * one_rule,
        "{} factor updates, {:.4} of max_iterations × n_factors",
        result.factor_updates,
        result.factor_updates as f64 / one_rule
    );
    assert!(
        result.blocks_capped * 100 <= result.blocks,
        "{} of {} blocks ran to the cap",
        result.blocks_capped,
        result.blocks
    );
    assert_eq!(result.converged, result.blocks_capped == 0);
    assert!(result.iterations <= config.max_iterations);
}
