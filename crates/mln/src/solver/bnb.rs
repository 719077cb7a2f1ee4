//! Exact branch & bound for weighted partial MaxSAT.
//!
//! Depth-first search over partial assignments with
//!
//! * **unit propagation** on hard clauses (a hard clause with one
//!   unassigned literal and no satisfied literal forces that literal);
//! * **cost lower bound** = weight of soft clauses already fully
//!   falsified; branches are pruned against the incumbent;
//! * **variable order**: most-constrained first (highest total weight of
//!   clauses the variable occurs in), decided once up front;
//! * **value order**: the phase suggested by the variable's unit soft
//!   clauses (evidence direction) first.
//!
//! Exponential in the worst case — intended for small instances and as
//! the exactness oracle for the stochastic solvers (the test-suite
//! cross-checks it against brute force). There is no node budget: the
//! search always runs to the optimum, so the backend is `exact`.

use std::time::Instant;

use crate::problem::{MapResult, SatProblem, SolveStats};

/// Exact solver.
#[derive(Debug, Clone, Default)]
pub struct BranchAndBound;

impl BranchAndBound {
    /// Creates a solver.
    pub fn new() -> Self {
        BranchAndBound
    }

    /// Solves the problem exactly.
    pub fn solve(&self, problem: &SatProblem<'_>) -> MapResult {
        let start = Instant::now();
        let n = problem.n_vars;

        // Dense clause snapshot: `bound` and `propagate` run once per
        // search node, so they iterate a flat (lits, raw weight) table
        // instead of re-filtering the arena's slot table every time.
        let clauses: Vec<(&[tecore_ground::Lit], f64)> = problem
            .iter()
            .map(|c| (c.lits, problem.weight(c.id)))
            .collect();

        // Static variable order: descending total incident weight.
        let mut incident = vec![0.0f64; n];
        for &(lits, w) in &clauses {
            let w = if w.is_infinite() { 1e6 } else { w };
            for l in lits {
                incident[l.atom.index()] += w;
            }
        }
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| {
            incident[b as usize]
                .partial_cmp(&incident[a as usize])
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        // Preferred phase from unit soft clauses.
        let mut phase = vec![false; n];
        let mut phase_weight = vec![0.0f64; n];
        for &(lits, w) in &clauses {
            if let (&[l], false) = (lits, w.is_infinite()) {
                let v = l.atom.index();
                if w > phase_weight[v] {
                    phase_weight[v] = w;
                    phase[v] = l.positive;
                }
            }
        }

        let mut search = Search {
            clauses: &clauses,
            order: &order,
            phase: &phase,
            assigned: vec![None; n],
            best_cost: f64::INFINITY,
            best: vec![false; n],
            found: false,
            nodes: 0,
        };
        search.descend(0, 0.0);

        let (cost, feasible) = if search.found {
            (search.best_cost, true)
        } else {
            // No feasible completion (the hard clauses are UNSAT):
            // report the phase assignment.
            let fallback: Vec<bool> = phase.clone();
            let (c, h) = problem.evaluate(&fallback);
            search.best = fallback;
            (c, h == 0)
        };
        MapResult {
            assignment: search.best,
            cost,
            feasible,
            stats: SolveStats {
                steps: search.nodes,
                rounds: 0,
                active_clauses: problem.len(),
                elapsed: start.elapsed(),
            },
        }
    }
}

struct Search<'a> {
    /// Dense (lits, raw weight) snapshot of the live clauses.
    clauses: &'a [(&'a [tecore_ground::Lit], f64)],
    order: &'a [u32],
    phase: &'a [bool],
    assigned: Vec<Option<bool>>,
    best_cost: f64,
    best: Vec<bool>,
    found: bool,
    nodes: u64,
}

impl Search<'_> {
    /// Cost of soft clauses already fully falsified, plus hard-clause
    /// feasibility: returns `None` if some hard clause is already
    /// falsified under the partial assignment.
    fn bound(&self) -> Option<f64> {
        let mut cost = 0.0;
        for &(lits, w) in self.clauses {
            let mut satisfied = false;
            let mut open = false;
            for l in lits {
                match self.assigned[l.atom.index()] {
                    Some(v) if l.satisfied_by(v) => {
                        satisfied = true;
                        break;
                    }
                    Some(_) => {}
                    None => open = true,
                }
            }
            if !satisfied && !open {
                if w.is_infinite() {
                    return None;
                }
                cost += w;
            }
        }
        Some(cost)
    }

    /// Hard-clause unit propagation; returns the trail of forced
    /// assignments, or `None` on conflict.
    fn propagate(&mut self) -> Option<Vec<u32>> {
        let mut trail: Vec<u32> = Vec::new();
        loop {
            let mut changed = false;
            for &(lits, w) in self.clauses {
                if !w.is_infinite() {
                    continue;
                }
                let mut satisfied = false;
                let mut unassigned = None;
                let mut open_count = 0;
                for l in lits {
                    match self.assigned[l.atom.index()] {
                        Some(v) if l.satisfied_by(v) => {
                            satisfied = true;
                            break;
                        }
                        Some(_) => {}
                        None => {
                            open_count += 1;
                            unassigned = Some(*l);
                        }
                    }
                }
                if satisfied {
                    continue;
                }
                match (open_count, unassigned) {
                    (0, _) => {
                        // Conflict: undo the trail.
                        for &v in &trail {
                            self.assigned[v as usize] = None;
                        }
                        return None;
                    }
                    (1, Some(l)) => {
                        self.assigned[l.atom.index()] = Some(l.positive);
                        trail.push(l.atom.0);
                        changed = true;
                    }
                    _ => {}
                }
            }
            if !changed {
                return Some(trail);
            }
        }
    }

    fn descend(&mut self, depth: usize, _parent_bound: f64) {
        self.nodes += 1;
        let Some(bound) = self.bound() else {
            return; // hard conflict
        };
        if bound >= self.best_cost {
            return; // cannot improve
        }
        // Find next unassigned variable in static order.
        let mut next = None;
        for &v in self.order {
            if self.assigned[v as usize].is_none() {
                next = Some(v);
                break;
            }
        }
        let _ = depth;
        let Some(v) = next else {
            // Complete assignment: bound is the exact cost.
            self.best_cost = bound;
            self.found = true;
            for (i, a) in self.assigned.iter().enumerate() {
                self.best[i] = a.unwrap_or(false);
            }
            return;
        };
        let first = self.phase[v as usize];
        for value in [first, !first] {
            self.assigned[v as usize] = Some(value);
            if let Some(trail) = self.propagate() {
                self.descend(depth + 1, bound);
                for t in trail {
                    self.assigned[t as usize] = None;
                }
            }
            self.assigned[v as usize] = None;
        }
    }
}

/// Brute-force reference solver (tests only): enumerates all `2^n`
/// assignments. Public so integration tests and other crates' oracles
/// can reuse it; panics above 20 variables.
pub fn brute_force(problem: &SatProblem<'_>) -> MapResult {
    assert!(problem.n_vars <= 20, "brute force beyond 2^20 is a bug");
    let start = Instant::now();
    let n = problem.n_vars;
    let mut best_cost = f64::INFINITY;
    let mut best = vec![false; n];
    let mut found = false;
    for mask in 0u64..(1u64 << n) {
        let assignment: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
        let (cost, hard) = problem.evaluate(&assignment);
        if hard == 0 && cost < best_cost {
            best_cost = cost;
            best = assignment;
            found = true;
        }
    }
    MapResult {
        assignment: best,
        cost: if found { best_cost } else { f64::INFINITY },
        feasible: found,
        stats: SolveStats {
            steps: 1 << n,
            rounds: 0,
            active_clauses: problem.len(),
            elapsed: start.elapsed(),
        },
    }
}

impl tecore_ground::MapSolver for BranchAndBound {
    fn name(&self) -> &str {
        "mln-exact"
    }

    fn caps(&self) -> tecore_ground::SolverCaps {
        tecore_ground::SolverCaps {
            exact: true,
            ..tecore_ground::SolverCaps::mln()
        }
    }

    fn solve(
        &self,
        atoms: usize,
        clauses: &tecore_ground::ClauseStore,
        // Exact search has nothing to gain from a warm start (the
        // optimum is recomputed either way).
        _warm: Option<&tecore_ground::MapState>,
    ) -> Result<tecore_ground::MapState, tecore_ground::SolveError> {
        let problem = SatProblem::from_store(atoms, clauses);
        Ok(self.solve(&problem).into_map_state())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tecore_ground::{AtomId, ClauseOrigin, ClauseWeight, GroundClause, Lit};

    fn soft(lits: Vec<Lit>, w: f64) -> GroundClause {
        GroundClause::new(lits, ClauseWeight::Soft(w), ClauseOrigin::Evidence).unwrap()
    }

    fn hard(lits: Vec<Lit>) -> GroundClause {
        GroundClause::new(lits, ClauseWeight::Hard, ClauseOrigin::Formula(0)).unwrap()
    }

    #[test]
    fn paper_conflict_shape() {
        // Two evidence atoms (Chelsea w=2.197, Napoli w=0.405) and the
        // hard clash ¬chelsea ∨ ¬napoli: MAP keeps Chelsea.
        let clauses = vec![
            soft(vec![Lit::pos(AtomId(0))], 2.197),
            soft(vec![Lit::pos(AtomId(1))], 0.405),
            hard(vec![Lit::neg(AtomId(0)), Lit::neg(AtomId(1))]),
        ];
        let p = SatProblem::from_clauses(2, &clauses);
        let r = BranchAndBound::new().solve(&p);
        assert!(r.feasible);
        assert!(r.assignment[0], "Chelsea kept");
        assert!(!r.assignment[1], "Napoli removed");
        assert!((r.cost - 0.405).abs() < 1e-9);
    }

    #[test]
    fn unsat_hard_reports_infeasible() {
        let clauses = vec![
            hard(vec![Lit::pos(AtomId(0))]),
            hard(vec![Lit::neg(AtomId(0))]),
        ];
        let p = SatProblem::from_clauses(1, &clauses);
        let r = BranchAndBound::new().solve(&p);
        assert!(!r.feasible);
    }

    #[test]
    fn propagation_chains() {
        // x0 → x1 → x2 hard chain plus evidence for x0.
        let clauses = vec![
            soft(vec![Lit::pos(AtomId(0))], 5.0),
            hard(vec![Lit::neg(AtomId(0)), Lit::pos(AtomId(1))]),
            hard(vec![Lit::neg(AtomId(1)), Lit::pos(AtomId(2))]),
            soft(vec![Lit::neg(AtomId(2))], 1.0),
        ];
        let p = SatProblem::from_clauses(3, &clauses);
        let r = BranchAndBound::new().solve(&p);
        assert!(r.feasible);
        assert_eq!(r.assignment, vec![true, true, true]);
        assert!((r.cost - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_problem() {
        let p = SatProblem::from_clauses(0, &[]);
        let r = BranchAndBound::new().solve(&p);
        assert!(r.feasible);
        assert_eq!(r.cost, 0.0);
    }

    fn arb_problem() -> impl Strategy<Value = SatProblem<'static>> {
        let lit = (0u32..6, prop::bool::ANY).prop_map(|(a, pos)| Lit {
            atom: AtomId(a),
            positive: pos,
        });
        let clause = (
            prop::collection::vec(lit, 1..4),
            prop::option::of(1u32..100),
        );
        prop::collection::vec(clause, 1..14).prop_map(|cs| {
            let ground: Vec<GroundClause> = cs
                .into_iter()
                .filter_map(|(lits, soft_w)| {
                    let w = match soft_w {
                        Some(w) => ClauseWeight::Soft(f64::from(w) / 10.0),
                        None => ClauseWeight::Hard,
                    };
                    GroundClause::new(lits, w, ClauseOrigin::Evidence)
                })
                .collect();
            SatProblem::from_clauses(6, &ground)
        })
    }

    proptest! {
        /// B&B matches brute force exactly (cost and feasibility).
        #[test]
        fn matches_brute_force(p in arb_problem()) {
            let exact = BranchAndBound::new().solve(&p);
            let reference = brute_force(&p);
            prop_assert_eq!(exact.feasible, reference.feasible);
            if reference.feasible {
                prop_assert!((exact.cost - reference.cost).abs() < 1e-9,
                    "bnb {} vs brute {}", exact.cost, reference.cost);
                // And the reported assignment really has that cost.
                let (cost, hard) = p.evaluate(&exact.assignment);
                prop_assert_eq!(hard, 0);
                prop_assert!((cost - exact.cost).abs() < 1e-9);
            }
        }
    }
}
