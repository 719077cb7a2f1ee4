//! The PSL substrate as a pluggable [`MapSolver`] backend.

use tecore_ground::{evaluate_world, ClauseStore, MapSolver, MapState, SolveError, SolverCaps};

use crate::admm::{AdmmConfig, AdmmSolver};
use crate::hlmrf::{HlMrf, PslConfig};
use crate::rounding::round_assignment;

/// The nPSL backend: HL-MRF construction + consensus ADMM + rounding,
/// exposed through the backend-agnostic `MapSolver` interface.
///
/// The discrete cost reported in the [`MapState`] is the violated soft
/// weight of the *rounded* world under the common clause semantics, so
/// it is directly comparable with the MLN backends' costs; the solver's
/// soft truth values are passed through for confidence grading.
#[derive(Debug, Clone, Default)]
pub struct PslAdmm {
    /// ADMM parameters.
    pub admm: AdmmConfig,
}

impl PslAdmm {
    /// A backend with the given ADMM parameters.
    pub fn new(admm: AdmmConfig) -> Self {
        PslAdmm { admm }
    }
}

impl MapSolver for PslAdmm {
    fn name(&self) -> &str {
        "psl-admm"
    }

    fn caps(&self) -> SolverCaps {
        SolverCaps::psl()
    }

    /// HL-MRF build + warm ADMM + rounding + discrete scoring. The
    /// solver treats the arena's independent blocks one by one, so a
    /// component gets the same soft values alone as inside the whole
    /// grounding.
    fn solve(
        &self,
        atoms: usize,
        clauses: &ClauseStore,
        warm: Option<&MapState>,
    ) -> Result<MapState, SolveError> {
        // Warm-start ADMM from the previous solve's soft truth values;
        // a discrete-only previous state still helps (0/1 corners are
        // valid consensus seeds).
        let warm_discrete: Vec<f64>;
        let warm: Option<&[f64]> = match warm {
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
        let mrf = HlMrf::from_store(atoms, clauses, &PslConfig::default());
        let result = AdmmSolver::new(self.admm.clone()).solve_warm(&mrf, warm);
        let (assignment, _) = round_assignment(&mrf, &result.values);
        let (cost, hard_violations) = evaluate_world(clauses, &assignment);
        Ok(MapState {
            assignment,
            cost,
            feasible: hard_violations == 0,
            soft_values: Some(result.values),
        })
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
