//! Every solver's default trajectory, pinned bit for bit on two fixed
//! inputs: the paper's running example and a small generated Wikidata
//! graph.
//!
//! The solvers run at one parameterisation; these numbers are what it
//! does. A change to a constant the search reads (WalkSAT's noise,
//! seed or stall cutoff, CPI's round cap or exact threshold, ADMM's ρ,
//! iteration cap or tolerance) moves a flip count, an iteration count
//! or a cost bit here.

use tecore_core::translate::translate;
use tecore_datagen::standard::{paper_program, ranieri_utkg, wikidata_program};
use tecore_datagen::{generate_wikidata, WikidataConfig};
use tecore_ground::{intern_constants, GroundConfig, Grounding, MapSolver, SolverCaps};
use tecore_kg::UtkGraph;
use tecore_logic::LogicProgram;
use tecore_mln::{BranchAndBound, CpiSolver, MaxWalkSat, SatProblem};
use tecore_psl::{AdmmConfig, AdmmSolver, HlMrf, PslConfig};

fn grounded(mut graph: UtkGraph, program: &LogicProgram) -> Grounding {
    intern_constants(program, graph.dict_mut());
    let caps = SolverCaps::mln();
    translate(&graph, program, &caps, &GroundConfig::default()).expect("grounds")
}

fn running_example() -> Grounding {
    grounded(ranieri_utkg(), &paper_program())
}

fn wikidata() -> Grounding {
    wikidata_of(2_000)
}

fn wikidata_of(total_facts: usize) -> Grounding {
    let generated = generate_wikidata(&WikidataConfig {
        total_facts,
        noise_ratio: 0.1,
        seed: 1,
    });
    grounded(generated.graph, &wikidata_program())
}

/// The assignment as a bit string, for compact pinning.
fn bits(assignment: &[bool]) -> String {
    assignment
        .iter()
        .map(|&b| if b { '1' } else { '0' })
        .collect()
}

/// FNV-1a over an assignment, for pinning a long one.
fn digest(assignment: &[bool]) -> u64 {
    assignment.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn walksat_default_trajectory() {
    // (input, flips of the whole-problem solve, its cost, the cost and
    // assignment of the size-budgeted `MapSolver` solve). A cost is
    // that of the world returned: the bits CPI, B&B and ADMM reach.
    let pinned = [
        (
            running_example(),
            400_000,
            0x3fdd_2657_1ff2_cb7c,
            0x3fdd_2657_1ff2_cb7c,
            0x70ac_49e9_67ad_55ce,
        ),
        (
            wikidata(),
            55_181,
            0x4051_a239_8f9d_0aa2,
            0x4051_a239_8f9d_0aa2,
            0x2395_c252_856f_784c,
        ),
    ];
    for (g, flips, cost, sized_cost, sized_digest) in pinned {
        let whole = MaxWalkSat::default().solve(&SatProblem::from_grounding(&g));
        assert_eq!((whole.stats.steps, whole.cost.to_bits()), (flips, cost));
        let sized = MapSolver::solve(&MaxWalkSat::default(), g.num_atoms(), &g.clauses, None)
            .expect("walksat solves");
        assert_eq!(
            (sized.cost.to_bits(), digest(&sized.assignment)),
            (sized_cost, sized_digest)
        );
    }
}

#[test]
fn cpi_default_trajectory() {
    // (input, rounds, active clauses, cost, assignment)
    let pinned = [
        (
            running_example(),
            2,
            8,
            0x3fdd_2657_1ff2_cb7c,
            0x70ac_49e9_67ad_55ce,
        ),
        (
            wikidata(),
            2,
            1_950,
            0x4051_a239_8f9d_0aa2,
            0x2395_c252_856f_784c,
        ),
    ];
    for (g, rounds, active, cost, assignment) in pinned {
        let r = CpiSolver::default().solve_lazy(&g);
        assert_eq!(
            (r.stats.rounds, r.stats.active_clauses, r.cost.to_bits()),
            (rounds, active, cost)
        );
        assert_eq!(digest(&r.assignment), assignment);
    }
}

#[test]
fn admm_default_trajectory() {
    // (input, slowest block's iterations, factor updates, objective)
    let pinned = [
        (running_example(), 16, 76, 0x3fdd_2657_1ff2_cb7c),
        (wikidata(), 196, 10_205, 0x4051_6d0a_1df3_39f8),
    ];
    for (g, iterations, updates, objective) in pinned {
        let mrf = HlMrf::from_grounding(&g, &PslConfig::default());
        let r = AdmmSolver::new(AdmmConfig::default()).solve(&mrf);
        assert_eq!(
            (r.iterations, r.factor_updates, r.objective.to_bits()),
            (iterations, updates, objective)
        );
    }
}

#[test]
fn bnb_default_trajectory() {
    let g = running_example();
    let r = BranchAndBound::new().solve(&SatProblem::from_grounding(&g));
    assert_eq!(
        (r.cost.to_bits(), bits(&r.assignment).as_str()),
        (0x3fdd_2657_1ff2_cb7c, "111101")
    );
    // Exact search is exponential: a smaller graph than the others'.
    let g = wikidata_of(200);
    let r = BranchAndBound::new().solve(&SatProblem::from_grounding(&g));
    assert_eq!(
        (r.cost.to_bits(), digest(&r.assignment)),
        (0x401f_2107_3eaf_b536, 0xb30e_595d_1df0_13e6)
    );
}
