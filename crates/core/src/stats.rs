//! Debugging statistics — the Figure 8 "result statistics" screen.

use std::fmt;
use std::time::Duration;

use tecore_ground::FormulaPlan;

/// Statistics of one conflict-resolution run.
///
/// The demo displays "the maximal consistent subset of the utkg, and
/// statistics (e.g., number of noisy facts removed) about the debugging
/// process"; Figure 8 shows total facts and the number of conflicting
/// facts (19,734 out of 243,157 on the FootballDB uTKG).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DebugStats {
    /// Facts in the input uTKG.
    pub total_facts: usize,
    /// Evidence facts rejected by MAP inference (conflicting facts).
    pub conflicting_facts: usize,
    /// Derived facts accepted (after thresholding).
    pub inferred_facts: usize,
    /// Derived facts dropped by the confidence threshold.
    pub thresholded_facts: usize,
    /// Accepted derived facts that read their MAP value, `1.0`, for a
    /// confidence because a discrete backend's solve could not grade
    /// their conflict component by its exact marginals: it has more
    /// than [`MAX_GRADED_ATOMS`](tecore_ground::MAX_GRADED_ATOMS)
    /// atoms, or no world that satisfies its hard clauses.
    pub ungraded_facts: usize,
    /// Ground atoms (solver variables).
    pub atoms: usize,
    /// Live ground clauses in the grounding, whichever backend solved
    /// them (a cutting-plane solve's active set is its own statistic:
    /// `tecore_mln::CpiSolver::solve_lazy`).
    pub clauses: usize,
    /// Conflict components the solve driver partitioned the ground
    /// problem into; `0` means the solve ran monolithically: the mode
    /// forced it, [`ComponentMode::Auto`] saw a cold solve on a
    /// non-exact backend or one big component, or the arena held an
    /// empty clause.
    ///
    /// [`ComponentMode::Auto`]: tecore_ground::ComponentMode::Auto
    pub components: usize,
    /// Components actually (re-)solved in this resolve; the remainder
    /// were clean and their cached per-component states were spliced.
    /// Equals `components` on a cold solve.
    pub components_solved: usize,
    /// Atoms the component partition pass visited: every atom in a
    /// clause on a full pass (a cold component-wise solve, the first
    /// warm one), on a dirty-only pass the members of the components
    /// the delta touched plus the flagged atoms left in no clause —
    /// whatever the size of the graph. `0` when nothing was
    /// partitioned.
    pub partition_atoms_visited: usize,
    /// View facts this resolve wrote to have a buffer for its result:
    /// `0` when an incremental publish patched the spare view it got
    /// back, the view's size when it had to copy the previous view (the
    /// first publishes after a cold resolve or a rebuild, or a spare
    /// still held elsewhere) or built one from the graph.
    pub view_facts_copied: usize,
    /// Times this engine re-grounded from scratch to compact its
    /// grounding, once dead atoms (facts retracted since the last cold
    /// grounding) made up more than half of it (cumulative over the
    /// engine's lifetime, whichever resolve reports it).
    /// The resolve after each one solves every component again.
    pub compaction_regrounds: u64,
    /// Violated-constraint groundings observed per constraint name.
    pub per_constraint: Vec<(String, usize)>,
    /// Backend identifier (`"mln-exact"`, `"mln-cpi"`, `"psl-admm"`,
    /// ...) — the [`MapSolver::name`](tecore_ground::MapSolver::name)
    /// of whatever solver ran, including registry-added ones.
    pub backend: String,
    /// Did the solver satisfy all hard constraints?
    pub feasible: bool,
    /// Final MAP cost (violated soft weight).
    pub cost: f64,
    /// Grounding wall-clock time: the cold grounding's on a batch
    /// resolve (and on the incremental resolve that grounds cold), else
    /// the total of the deltas applied since the previous incremental
    /// resolve — including those a caller applied itself through
    /// [`Engine::apply_delta`](crate::engine::Engine::apply_delta).
    pub grounding_time: Duration,
    /// Solver wall-clock time.
    pub solve_time: Duration,
    /// The join plan grounding used per formula: the cold join's order
    /// and the matches observed over every round, cold and incremental.
    pub plans: Vec<FormulaPlan>,
}

impl DebugStats {
    /// Fraction of facts flagged as conflicting.
    pub fn conflict_ratio(&self) -> f64 {
        if self.total_facts == 0 {
            0.0
        } else {
            self.conflicting_facts as f64 / self.total_facts as f64
        }
    }

    /// Total wall-clock time (grounding + solving) — the quantity the
    /// paper reports for the nRockIt/nPSL comparison.
    pub fn total_time(&self) -> Duration {
        self.grounding_time + self.solve_time
    }
}

impl fmt::Display for DebugStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== TeCoRe result statistics ==")?;
        writeln!(f, "backend            : {}", self.backend)?;
        writeln!(f, "temporal facts     : {}", self.total_facts)?;
        writeln!(
            f,
            "conflicting facts  : {} ({:.2}%)",
            self.conflicting_facts,
            self.conflict_ratio() * 100.0
        )?;
        writeln!(f, "inferred facts     : {}", self.inferred_facts)?;
        if self.thresholded_facts > 0 {
            writeln!(f, "below threshold    : {}", self.thresholded_facts)?;
        }
        if self.ungraded_facts > 0 {
            writeln!(f, "ungraded (MAP 1.0) : {}", self.ungraded_facts)?;
        }
        writeln!(f, "ground atoms       : {}", self.atoms)?;
        writeln!(f, "ground clauses     : {}", self.clauses)?;
        if self.components > 0 {
            writeln!(
                f,
                "components         : {} ({} solved, {} spliced)",
                self.components,
                self.components_solved,
                self.components - self.components_solved
            )?;
        }
        if self.compaction_regrounds > 0 {
            writeln!(f, "compact regrounds  : {}", self.compaction_regrounds)?;
        }
        writeln!(f, "feasible           : {}", self.feasible)?;
        writeln!(f, "map cost           : {:.4}", self.cost)?;
        writeln!(f, "grounding time     : {:?}", self.grounding_time)?;
        writeln!(f, "solve time         : {:?}", self.solve_time)?;
        if !self.per_constraint.is_empty() {
            writeln!(f, "violations by constraint:")?;
            for (name, count) in &self.per_constraint {
                writeln!(f, "  {name:<16} {count}")?;
            }
        }
        if !self.plans.is_empty() {
            writeln!(f, "join plans:")?;
            for plan in &self.plans {
                let name = plan
                    .name
                    .clone()
                    .unwrap_or_else(|| format!("#{}", plan.formula));
                writeln!(
                    f,
                    "  {name:<16} order {:?} (actual {})",
                    plan.join_order, plan.actual_matches
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_and_total_time() {
        let s = DebugStats {
            total_facts: 243_157,
            conflicting_facts: 19_734,
            grounding_time: Duration::from_millis(100),
            solve_time: Duration::from_millis(150),
            ..DebugStats::default()
        };
        assert!((s.conflict_ratio() - 0.08115).abs() < 1e-4);
        assert_eq!(s.total_time(), Duration::from_millis(250));
        assert_eq!(DebugStats::default().conflict_ratio(), 0.0);
    }

    #[test]
    fn display_contains_key_rows() {
        let s = DebugStats {
            total_facts: 5,
            conflicting_facts: 1,
            inferred_facts: 1,
            ungraded_facts: 1,
            backend: "mln-exact".to_string(),
            feasible: true,
            per_constraint: vec![("c2".into(), 1)],
            plans: vec![FormulaPlan {
                formula: 0,
                name: Some("f1".into()),
                join_order: vec![1, 0],
                actual_matches: 2,
            }],
            ..DebugStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("temporal facts     : 5"));
        assert!(text.contains("conflicting facts  : 1"));
        assert!(text.contains("ungraded (MAP 1.0) : 1"));
        assert!(text.contains("c2"));
        assert!(text.contains("mln-exact"));
        assert!(text.contains("join plans:"));
        assert!(text.contains("f1"));
        assert!(text.contains("[1, 0] (actual 2)"));
    }
}
