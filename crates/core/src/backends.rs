//! Backend **specifications** and their construction into live solvers.
//!
//! [`Backend`] is the user-facing configuration DSL: a closed set of
//! named, configured presets matching the paper's two reasoners and
//! their solver modes. It is *only* a description — the pipeline never
//! matches on it. Construction into a runnable [`SolverHandle`] happens
//! here, once, via `From<Backend>`; everything downstream (pipeline,
//! [`crate::registry::SolverRegistry`], benches) works with the open
//! `dyn MapSolver` interface, so a backend outside this enum, wrapped
//! with [`SolverHandle::new`], is a first-class citizen.

use std::ops::Deref;
use std::sync::Arc;

use tecore_ground::MapSolver;
use tecore_mln::{BranchAndBound, CpiConfig, CpiSolver, MaxWalkSat, WalkSatConfig};
use tecore_psl::{AdmmConfig, PslAdmm};

/// Which reasoner computes the MAP state (paper §2.1: nRockIt vs nPSL).
///
/// A convenience spec for the four in-tree substrates; convert with
/// `SolverHandle::from` (or `.into()`) to obtain the runnable solver.
#[derive(Debug, Clone)]
pub enum Backend {
    /// MLN with the exact branch & bound solver.
    MlnExact,
    /// MLN with MaxWalkSAT over the whole grounding.
    MlnWalkSat(WalkSatConfig),
    /// MLN with cutting-plane inference (constraint groundings
    /// activated only when an incumbent violates them) — the nRockIt
    /// configuration.
    MlnCuttingPlane(CpiConfig),
    /// PSL solved by consensus ADMM — the nPSL configuration.
    PslAdmm(AdmmConfig),
}

impl Backend {
    /// Short identifier used in statistics output and registry lookup.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::MlnExact => "mln-exact",
            Backend::MlnWalkSat(_) => "mln-walksat",
            Backend::MlnCuttingPlane(_) => "mln-cpi",
            Backend::PslAdmm(_) => "psl-admm",
        }
    }

    /// The default PSL backend.
    pub fn default_psl() -> Backend {
        Backend::PslAdmm(AdmmConfig::default())
    }
}

impl Default for Backend {
    /// The paper's default reasoner is the MLN one; cutting-plane
    /// inference is its scalable configuration.
    fn default() -> Self {
        Backend::MlnCuttingPlane(CpiConfig::default())
    }
}

/// A shared, cloneable handle to a MAP solver.
///
/// This is what [`crate::TecoreConfig`] stores and what the
/// [`crate::registry::SolverRegistry`] hands out. It derefs to
/// `dyn MapSolver`, so `handle.name()`, `handle.caps()` and
/// `handle.solve(..)` all work directly.
#[derive(Debug, Clone)]
pub struct SolverHandle(Arc<dyn MapSolver>);

impl SolverHandle {
    /// Wraps a concrete solver.
    pub fn new(solver: impl MapSolver + 'static) -> Self {
        SolverHandle(Arc::new(solver))
    }

    /// The underlying shared solver.
    pub fn as_arc(&self) -> &Arc<dyn MapSolver> {
        &self.0
    }
}

impl Deref for SolverHandle {
    type Target = dyn MapSolver;

    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

impl Default for SolverHandle {
    fn default() -> Self {
        Backend::default().into()
    }
}

impl From<Backend> for SolverHandle {
    /// The single place where the closed [`Backend`] spec meets the
    /// open solver interface.
    fn from(backend: Backend) -> Self {
        match backend {
            Backend::MlnExact => SolverHandle::new(BranchAndBound::new()),
            Backend::MlnWalkSat(config) => SolverHandle::new(MaxWalkSat::new(config)),
            Backend::MlnCuttingPlane(config) => SolverHandle::new(CpiSolver::new(config)),
            Backend::PslAdmm(config) => SolverHandle::new(PslAdmm::new(config)),
        }
    }
}

impl From<Arc<dyn MapSolver>> for SolverHandle {
    fn from(solver: Arc<dyn MapSolver>) -> Self {
        SolverHandle(solver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_names_match_solver_names() {
        for backend in [
            Backend::MlnExact,
            Backend::MlnWalkSat(WalkSatConfig::default()),
            Backend::MlnCuttingPlane(CpiConfig::default()),
            Backend::default_psl(),
        ] {
            let name = backend.name();
            let handle = SolverHandle::from(backend);
            assert_eq!(handle.name(), name);
        }
    }

    #[test]
    fn default_backend_is_cpi() {
        assert_eq!(SolverHandle::default().name(), "mln-cpi");
    }

    #[test]
    fn handle_is_cheaply_cloneable() {
        let a = SolverHandle::default();
        let b = a.clone();
        assert!(Arc::ptr_eq(a.as_arc(), b.as_arc()));
    }
}
