//! The TeCoRe translator θ.
//!
//! "The translator parses data, inference rules, and temporal
//! constraints, and transforms those into the specific syntax of the
//! chosen solver. Special care is taken to verify that the input adheres
//! to the expressivity of the solver." (paper §2.1)
//!
//! Concretely: validate every formula against the backend's declared
//! [`SolverCaps`], then ground (`tecore-ground`). Every backend gets
//! the same grounding — rules, evidence, priors and every violated
//! constraint grounding; what a solver does with the arena (cutting
//! planes, components) is its own business. The translator never
//! inspects *which* backend it serves — only the fragment the backend
//! declared it accepts.

use tecore_ground::{ground, GroundConfig, Grounding, SolverCaps};
use tecore_kg::UtkGraph;
use tecore_logic::validate::check_expressivity;
use tecore_logic::LogicProgram;

use crate::error::TecoreError;

/// Translates a (graph, program) pair for a backend with `caps`. The
/// graph's dictionary must hold the program's constants
/// ([`tecore_ground::intern_constants`]; `Engine` interns them).
pub fn translate(
    graph: &UtkGraph,
    program: &LogicProgram,
    caps: &SolverCaps,
    config: &GroundConfig,
) -> Result<Grounding, TecoreError> {
    for f in program.formulas() {
        check_expressivity(f, caps.expressivity)?;
    }
    Ok(ground(graph, program, config)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tecore_kg::parser::parse_graph;

    #[test]
    fn psl_expressivity_enforced() {
        let graph = parse_graph("(a, rel, b, [1,2]) 0.9\n").unwrap();
        // Numeric consequent: fine for MLN, rejected for PSL.
        let program = LogicProgram::parse("quad(x, rel, y, t) -> t - t < 1").unwrap();
        assert!(translate(
            &graph,
            &program,
            &SolverCaps::mln(),
            &GroundConfig::default()
        )
        .is_ok());
        let err = translate(
            &graph,
            &program,
            &SolverCaps::psl(),
            &GroundConfig::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("PSL"));
    }

    #[test]
    fn caps_do_not_steer_the_grounding() {
        let graph = parse_graph("(a, coach, b, [1,5]) 0.9\n(a, coach, c, [2,4]) 0.5\n").unwrap();
        let program = LogicProgram::parse(
            "c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf",
        )
        .unwrap();
        // The clash is in the arena whichever backend asked — the
        // cutting-plane one included.
        let cpi_caps = crate::TecoreConfig::default().backend.caps();
        for caps in [SolverCaps::mln(), SolverCaps::psl(), cpi_caps] {
            let g = translate(&graph, &program, &caps, &GroundConfig::default()).unwrap();
            assert_eq!(g.stats.formula_clauses, 1);
        }
    }
}
