//! The **solver registry**: name → solver resolution.
//!
//! The four seed substrates (`mln-exact`, `mln-walksat`, `mln-cpi`,
//! `psl-admm`) under their default configurations, selectable by name —
//! the demo's backend dropdown (`examples/constraint_editor.rs`), the
//! bench harness and the conformance tests all resolve through it. A
//! backend outside the four implements `tecore_ground::MapSolver` and
//! goes straight into [`TecoreConfig::backend`](crate::TecoreConfig) as
//! an `Arc<dyn MapSolver>`; nothing in `pipeline.rs` needs to change.

use std::collections::BTreeMap;
use std::sync::Arc;

use tecore_ground::MapSolver;
use tecore_mln::{BranchAndBound, CpiSolver, MaxWalkSat};
use tecore_psl::PslAdmm;

use crate::error::TecoreError;

/// A name-indexed collection of MAP solver backends.
#[derive(Debug, Clone)]
pub struct SolverRegistry {
    entries: BTreeMap<String, Arc<dyn MapSolver>>,
}

impl SolverRegistry {
    /// A registry holding the four seed substrates under default
    /// configuration.
    pub fn with_default_backends() -> Self {
        let solvers: [Arc<dyn MapSolver>; 4] = [
            Arc::new(BranchAndBound::new()),
            Arc::new(MaxWalkSat::default()),
            Arc::new(CpiSolver::default()),
            Arc::new(PslAdmm),
        ];
        let entries = solvers
            .into_iter()
            .map(|solver| (solver.name().to_string(), solver))
            .collect();
        SolverRegistry { entries }
    }

    /// Resolves a backend by name, with a did-you-mean error listing
    /// the registered names.
    pub fn resolve(&self, name: &str) -> Result<Arc<dyn MapSolver>, TecoreError> {
        self.entries.get(name).cloned().ok_or_else(|| {
            TecoreError::Session(format!(
                "unknown backend `{name}` (registered: {})",
                self.names().collect::<Vec<_>>().join(", ")
            ))
        })
    }

    /// Registered backend names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_backends_present() {
        let registry = SolverRegistry::with_default_backends();
        let names: Vec<&str> = registry.names().collect();
        assert_eq!(
            names,
            vec!["mln-cpi", "mln-exact", "mln-walksat", "psl-admm"]
        );
    }

    #[test]
    fn resolve_known_and_unknown() {
        let registry = SolverRegistry::with_default_backends();
        assert_eq!(registry.resolve("psl-admm").unwrap().name(), "psl-admm");
        let err = registry.resolve("nope").unwrap_err();
        let message = err.to_string();
        assert!(message.contains("unknown backend `nope`"), "{message}");
        assert!(message.contains("mln-exact"), "{message}");
    }
}
