//! The PSL substrate as a pluggable [`MapSolver`] backend.

use tecore_ground::{
    evaluate_world, ComponentView, Grounding, MapSolver, MapState, SolveError, SolveOpts,
    SolverCaps,
};

use crate::admm::AdmmConfig;
use crate::hlmrf::PslConfig;

/// The nPSL backend: HL-MRF construction + consensus ADMM + rounding,
/// exposed through the backend-agnostic `MapSolver` interface.
///
/// The discrete cost reported in the [`MapState`] is the violated soft
/// weight of the *rounded* world under the common clause semantics, so
/// it is directly comparable with the MLN backends' costs; the solver's
/// soft truth values are passed through for confidence grading.
#[derive(Debug, Clone, Default)]
pub struct PslAdmm {
    /// HL-MRF construction options.
    pub psl: PslConfig,
    /// ADMM parameters.
    pub admm: AdmmConfig,
}

impl PslAdmm {
    /// A backend with the given configs.
    pub fn new(psl: PslConfig, admm: AdmmConfig) -> Self {
        PslAdmm { psl, admm }
    }
}

impl MapSolver for PslAdmm {
    fn name(&self) -> &str {
        "psl-admm"
    }

    fn caps(&self) -> SolverCaps {
        SolverCaps {
            warm_start: true,
            components: true,
            ..SolverCaps::psl()
        }
    }

    fn solve(&self, grounding: &Grounding, opts: &SolveOpts<'_>) -> Result<MapState, SolveError> {
        Ok(self.solve_clauses(grounding.num_atoms(), &grounding.clauses, opts))
    }

    fn solve_component(
        &self,
        view: &ComponentView<'_>,
        opts: &SolveOpts<'_>,
    ) -> Result<MapState, SolveError> {
        let store = view.to_store();
        Ok(self.solve_clauses(view.num_atoms(), &store, opts))
    }
}

impl PslAdmm {
    /// The shared clause-arena solve: HL-MRF build + warm ADMM +
    /// rounding + discrete scoring, identical for the whole grounding
    /// and a component sub-store (whose atom ids are already local).
    /// The solver treats the arena's independent blocks one by one, so
    /// a component gets the same soft values here as it gets inside
    /// the whole grounding.
    fn solve_clauses(
        &self,
        n_vars: usize,
        clauses: &tecore_ground::ClauseStore,
        opts: &SolveOpts<'_>,
    ) -> MapState {
        // Warm-start ADMM from the previous solve's soft truth values;
        // a discrete-only previous state still helps (0/1 corners are
        // valid consensus seeds).
        let warm_discrete: Vec<f64>;
        let warm: Option<&[f64]> = match opts.warm_start {
            Some(state) => match &state.soft_values {
                Some(values) => Some(values.as_slice()),
                None => {
                    warm_discrete = state
                        .assignment
                        .iter()
                        .map(|&b| if b { 1.0 } else { 0.0 })
                        .collect();
                    Some(warm_discrete.as_slice())
                }
            },
            None => None,
        };
        let result = crate::solve_store(n_vars, clauses, &self.psl, &self.admm, warm);
        let (cost, hard_violations) = evaluate_world(clauses, &result.assignment);
        MapState {
            assignment: result.assignment,
            cost,
            feasible: hard_violations == 0,
            active_clauses: clauses.len(),
            soft_values: Some(result.values),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caps_and_name() {
        let backend = PslAdmm::default();
        assert_eq!(backend.name(), "psl-admm");
        assert!(backend.caps().soft_values);
    }
}
