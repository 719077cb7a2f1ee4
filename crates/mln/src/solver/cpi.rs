//! Cutting-plane inference (CPI) — RockIt's MAP loop, as an active-set
//! method over the grounded arena.
//!
//! A constraint like the paper's c2 is quadratic in the facts per
//! subject, and a solver that carries every grounding of it through
//! every step pays for couplings that never bind. CPI instead:
//!
//! 1. solves a relaxed problem holding everything except the *cut
//!    candidates* — the violated-constraint groundings, i.e. formula
//!    clauses without a positive literal;
//! 2. picks the candidates **violated by the current solution**;
//! 3. activates them as cutting planes and re-solves;
//! 4. stops when no candidate is newly violated.
//!
//! The candidates are read off the arena, not searched for: the
//! grounder (`tecore-ground`) is violation-only — it emits a constraint
//! grounding only where the consequent fails on the matched atoms — so
//! the arena holds exactly the clauses CPI could ever activate, and the
//! repository has one implementation of the constraint join. What stays
//! lazy is the solver's view: a grounding whose body MAP rejects anyway
//! (say, one over a hidden atom the relaxed problem leaves false) is
//! never activated.

use std::time::Instant;

use tecore_ground::{ClauseId, ClauseOrigin, ClauseRef, ClauseStore, Grounding};

use crate::problem::{MapResult, SatProblem, SolveStats};
use crate::solver::bnb::BranchAndBound;
use crate::solver::walksat::{MaxWalkSat, WalkSatConfig};

/// CPI configuration.
#[derive(Debug, Clone)]
pub struct CpiConfig {
    /// Maximum CPI rounds before giving up (returns the best incumbent).
    pub max_rounds: u32,
    /// Inner solver: exact below this variable count, MaxWalkSAT above.
    pub exact_below: usize,
    /// Inner MaxWalkSAT configuration.
    pub walksat: WalkSatConfig,
}

impl Default for CpiConfig {
    fn default() -> Self {
        CpiConfig {
            max_rounds: 50,
            exact_below: 24,
            walksat: WalkSatConfig::default(),
        }
    }
}

/// The cutting-plane solver.
#[derive(Debug, Clone, Default)]
pub struct CpiSolver {
    config: CpiConfig,
}

/// Is `clause` a constraint grounding CPI may hold back — a formula
/// clause "you cannot keep all of these" with nothing to derive? (The
/// predicate conflict explanation reads conflicts off the arena with.)
fn is_cut_candidate(clause: &ClauseRef<'_>) -> bool {
    matches!(clause.origin, ClauseOrigin::Formula(_)) && clause.lits.iter().all(|l| !l.positive)
}

impl CpiSolver {
    /// Creates a solver.
    pub fn new(config: CpiConfig) -> Self {
        CpiSolver { config }
    }

    /// Solves MAP over a grounding. "Lazy" is what the solver does, not
    /// the grounder: every constraint grounding is already in the arena,
    /// and this **activates lazily** — only the groundings an incumbent
    /// violates ever enter the problem the inner solver sees.
    pub fn solve_lazy(&self, grounding: &Grounding) -> MapResult {
        self.solve_clauses(grounding.num_atoms(), &grounding.clauses)
    }

    /// The cutting-plane loop over a clause arena — the whole grounding
    /// or a component sub-store (whose atom ids are already local).
    fn solve_clauses(&self, n_atoms: usize, clauses: &ClauseStore) -> MapResult {
        let start = Instant::now();
        let mut active = ClauseStore::with_capacity(clauses.len(), clauses.len());
        let mut candidates: Vec<ClauseId> = Vec::new();
        for clause in clauses.iter() {
            if is_cut_candidate(&clause) {
                candidates.push(clause.id);
            } else {
                active.push_lits(clause.lits, clause.weight, clause.origin);
            }
        }

        let mut rounds = 0u32;
        let mut result = self.inner_solve(n_atoms, &active);
        let mut steps = result.stats.steps;
        loop {
            rounds += 1;
            if rounds > self.config.max_rounds {
                break;
            }
            let waiting = candidates.len();
            candidates.retain(|&id| {
                let clause = clauses.get(id);
                let holds = clause.satisfied_by(&result.assignment);
                if !holds {
                    active.push_lits(clause.lits, clause.weight, clause.origin);
                }
                holds
            });
            if candidates.len() == waiting {
                break;
            }
            result = self.inner_solve(n_atoms, &active);
            steps += result.stats.steps;
        }

        // Cost and feasibility are the whole arena's: equal to the
        // active set's when the loop converged (a waiting candidate is
        // a satisfied clause), and still true when it hit the round cap.
        let (cost, hard_violations) = tecore_ground::evaluate_world(clauses, &result.assignment);
        MapResult {
            assignment: result.assignment,
            cost,
            feasible: hard_violations == 0,
            stats: SolveStats {
                steps,
                rounds,
                active_clauses: active.len(),
                elapsed: start.elapsed(),
            },
        }
    }

    fn inner_solve(&self, n_vars: usize, clauses: &ClauseStore) -> MapResult {
        let problem = SatProblem::from_store(n_vars, clauses);
        if n_vars <= self.config.exact_below {
            BranchAndBound::new().solve(&problem)
        } else {
            MaxWalkSat::new(self.config.walksat.clone()).solve(&problem)
        }
    }
}

impl tecore_ground::MapSolver for CpiSolver {
    fn name(&self) -> &str {
        "mln-cpi"
    }

    fn caps(&self) -> tecore_ground::SolverCaps {
        tecore_ground::SolverCaps::mln()
    }

    /// The cutting-plane loop. CPI rebuilds its active set on every
    /// solve, so a warm state is ignored.
    fn solve(
        &self,
        atoms: usize,
        clauses: &ClauseStore,
        _warm: Option<&tecore_ground::MapState>,
    ) -> Result<tecore_ground::MapState, tecore_ground::SolveError> {
        Ok(self.solve_clauses(atoms, clauses).into_map_state())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tecore_ground::{ground, intern_constants, GroundConfig};
    use tecore_kg::parser::parse_graph;
    use tecore_kg::UtkGraph;
    use tecore_logic::LogicProgram;

    const RANIERI: &str = "\
        (CR, coach, Chelsea, [2000,2004]) 0.9\n\
        (CR, coach, Leicester, [2015,2017]) 0.7\n\
        (CR, playsFor, Palermo, [1984,1986]) 0.5\n\
        (CR, birthDate, 1951, [1951,2017]) 1.0\n\
        (CR, coach, Napoli, [2001,2003]) 0.6\n";

    const PROGRAM: &str = "\
        f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5\n\
        c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf\n";

    const C2: &str =
        "c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf";

    fn grounded(facts: &str, program: &str) -> (UtkGraph, Grounding) {
        let mut graph = parse_graph(facts).unwrap();
        let program = LogicProgram::parse(program).unwrap();
        intern_constants(&program, graph.dict_mut());
        let g = ground(&graph, &program, &GroundConfig::default()).unwrap();
        (graph, g)
    }

    fn atom_with_object(graph: &UtkGraph, g: &Grounding, object: &str) -> usize {
        let object = graph.dict().lookup(object).unwrap();
        let (id, _) = g.store.iter().find(|(_, a)| a.object == object).unwrap();
        id.index()
    }

    #[test]
    fn lazy_matches_eager_on_running_example() {
        let (graph, g) = grounded(RANIERI, PROGRAM);
        let lazy = CpiSolver::new(CpiConfig::default()).solve_lazy(&g);
        let eager = BranchAndBound::new().solve(&SatProblem::from_grounding(&g));

        assert!(lazy.feasible && eager.feasible);
        assert!(
            (lazy.cost - eager.cost).abs() < 1e-9,
            "lazy {} vs eager {}",
            lazy.cost,
            eager.cost
        );
        // Napoli removed in both.
        let napoli = atom_with_object(&graph, &g, "Napoli");
        assert!(!lazy.assignment[napoli]);
        assert!(!eager.assignment[napoli]);
    }

    #[test]
    fn active_set_smaller_than_eager() {
        // Many coaches with exactly one clash: the relaxed problem is
        // the evidence units alone, and the one cut is the clashing
        // pair. (It is also the arena's only constraint grounding; a
        // final active set strictly inside the arena is the last test's
        // case.)
        let mut text = String::new();
        for i in 0..30 {
            // Disjoint spells: no conflicts among these.
            text.push_str(&format!(
                "(p{i}, coach, club{i}, [{}, {}]) 0.9\n",
                2000 + i * 3,
                2001 + i * 3
            ));
        }
        // One clash.
        text.push_str("(p0, coach, other, [2000,2001]) 0.6\n");
        let (graph, g) = grounded(&text, C2);
        let r = CpiSolver::new(CpiConfig::default()).solve_lazy(&g);
        assert!(r.feasible);
        // Active set: 31 evidence units + 1 cutting plane.
        assert_eq!(r.stats.active_clauses, 32);
        // The lower-confidence clashing fact is removed.
        assert!(!r.assignment[atom_with_object(&graph, &g, "other")]);
    }

    #[test]
    fn converges_on_conflict_free_graph() {
        let (_, g) = grounded("(a, coach, b, [1,2]) 0.9\n(a, coach, c, [5,6]) 0.9\n", C2);
        let r = CpiSolver::new(CpiConfig::default()).solve_lazy(&g);
        assert!(r.feasible);
        assert_eq!(r.cost, 0.0);
        assert_eq!(r.stats.rounds, 1, "one verification round, no cuts");
        assert!(r.assignment.iter().all(|&v| v));
    }

    #[test]
    fn grounding_over_a_rejected_hidden_atom_is_never_activated() {
        // The rule is weaker than the closed-world prior, so MAP leaves
        // worksFor(a, b) false; the constraint grounding that pairs it
        // with the coaching spell is in the arena and stays a candidate.
        let (_, g) = grounded(
            "(a, playsFor, b, [1,5]) 0.9\n(a, coach, c, [2,4]) 0.8\n",
            "f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 0.01\n\
             c: quad(x, worksFor, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf\n",
        );
        assert_eq!(g.clauses.iter().filter(is_cut_candidate).count(), 1);
        let lazy = CpiSolver::new(CpiConfig::default()).solve_lazy(&g);
        assert_eq!(lazy.stats.rounds, 1);
        assert_eq!(lazy.stats.active_clauses, g.clauses.len() - 1);
        let exact = BranchAndBound::new().solve(&SatProblem::from_grounding(&g));
        assert_eq!(lazy.assignment, exact.assignment);
        assert!((lazy.cost - exact.cost).abs() < 1e-9);
        assert!(lazy.feasible && exact.feasible);
    }
}
