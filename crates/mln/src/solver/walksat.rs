//! MaxWalkSAT: stochastic local search for weighted partial MaxSAT
//! (Kautz, Selman & Jiang 1996 — the solver classically paired with
//! MLN MAP inference).
//!
//! The hot path is O(1)-incremental and allocation-free:
//!
//! * a CSR **occurrence index** maps each variable to its clauses with
//!   the literal's polarity packed into the entry's sign bit, so no
//!   step ever re-scans a clause's literal list to find the variable;
//! * per-clause **make/break state** is read off the satisfied-literal
//!   counts plus a cached *critical literal* (the XOR of satisfied
//!   literal ids — when `sat_count == 1` it *is* the sole satisfying
//!   variable), making `State::flip_delta` a pure array walk;
//! * restarts **reuse the search buffers**: `State::reinit` perturbs
//!   the previous assignment in place through the incremental flip
//!   machinery, touching only the clauses of perturbed variables
//!   instead of reallocating five vectors and rescanning every clause.
//!
//! Hard clauses are prioritised (a random unsatisfied hard clause is
//! repaired before soft cost is optimised), and the best *feasible*
//! assignment seen across restarts is returned.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::problem::{MapResult, SatProblem, SolveStats};

/// MaxWalkSAT configuration.
#[derive(Debug, Clone)]
pub struct WalkSatConfig {
    /// Maximum flips per restart.
    pub max_flips: u64,
    /// Number of restarts.
    pub restarts: u32,
    /// Probability of a random (noise) move instead of a greedy one.
    pub noise: f64,
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
    /// Flips without progress (no new best feasible cost and no
    /// reduction of the restart's hard-violation floor) before the
    /// restart gives up early; `None` always runs the full
    /// [`WalkSatConfig::max_flips`]. On a conflicted KG the optimal
    /// soft cost is positive, so without a stall cutoff every restart
    /// burns its whole flip budget churning on soft clauses it can
    /// never satisfy.
    ///
    /// The default (10 000) trades a little search thoroughness for a
    /// large wall-clock win: a restart stuck on a plateau moves on to
    /// the next perturbation instead of grinding. Instances that need
    /// very long non-improving walks to escape hard-violation plateaus
    /// should set `None` (the pre-cutoff behaviour) or a larger budget.
    pub max_stall: Option<u64>,
}

impl WalkSatConfig {
    /// These budgets scaled to an instance of `atoms` atoms and
    /// `clauses` clauses, never above the configured ones. The defaults
    /// assume whole-KG instances; a conflict component is usually tens
    /// of clauses, and spending the global stall/flip allowance on each
    /// of thousands of them — or on a five-fact graph — is waste: a few
    /// multiples of the instance size is ample for a local-conflict
    /// neighbourhood, and small instances need fewer perturbation
    /// restarts to cover their basin. From `atoms + clauses` ≥ 6 242
    /// and `clauses` > 64 on, the defaults come back unchanged.
    fn for_size(&self, atoms: usize, clauses: usize) -> WalkSatConfig {
        let size = (atoms + clauses) as u64;
        WalkSatConfig {
            max_flips: self.max_flips.min(16 * size + 128),
            max_stall: Some((4 * size + 32).min(self.max_stall.unwrap_or(u64::MAX))),
            restarts: if clauses <= 64 {
                self.restarts.min(2)
            } else {
                self.restarts
            },
            ..self.clone()
        }
    }
}

impl Default for WalkSatConfig {
    fn default() -> Self {
        WalkSatConfig {
            max_flips: 100_000,
            restarts: 4,
            noise: 0.2,
            seed: 0x7EC0_4E5E,
            max_stall: Some(10_000),
        }
    }
}

/// The MaxWalkSAT solver.
#[derive(Debug, Clone, Default)]
pub struct MaxWalkSat {
    config: WalkSatConfig,
}

impl MaxWalkSat {
    /// Creates a solver with the given configuration.
    pub fn new(config: WalkSatConfig) -> Self {
        MaxWalkSat { config }
    }

    /// Runs the search from the evidence-phase initialisation.
    pub fn solve(&self, problem: &SatProblem<'_>) -> MapResult {
        self.solve_seeded(problem, None)
    }

    /// Runs the search, optionally warm-starting from a previous
    /// assignment: the search begins at `warm` (truncated or padded
    /// with the evidence phase when the variable count changed) instead
    /// of the cold evidence phase. A warm start also skips the
    /// perturbation restarts — their purpose is to escape a bad
    /// initialisation, and the warm state *is* the good initialisation;
    /// on a small delta the previous MAP state is near-optimal and the
    /// single descent converges in a handful of flips.
    pub fn solve_seeded(&self, problem: &SatProblem<'_>, warm: Option<&[bool]>) -> MapResult {
        let start = Instant::now();
        let n = problem.n_vars;
        let mut rng = StdRng::seed_from_u64(self.config.seed);

        if n == 0 {
            return MapResult {
                assignment: Vec::new(),
                cost: 0.0,
                feasible: true,
                stats: SolveStats {
                    active_clauses: problem.len(),
                    elapsed: start.elapsed(),
                    ..SolveStats::default()
                },
            };
        }

        let occ = OccIndex::build(n, problem);
        // Evidence phase for initialisation.
        let mut phase = vec![false; n];
        let mut phase_w = vec![0.0f64; n];
        for c in problem.iter() {
            if let (&[lit], Some(w)) = (c.lits, c.weight.soft()) {
                if w > phase_w[lit.atom.index()] {
                    phase_w[lit.atom.index()] = w;
                    phase[lit.atom.index()] = lit.positive;
                }
            }
        }
        // A warm start overrides the phase where it has an opinion;
        // variables beyond its horizon keep the evidence phase.
        if let Some(warm) = warm {
            for (v, &value) in warm.iter().take(n).enumerate() {
                phase[v] = value;
            }
        }

        let mut best_cost = f64::INFINITY;
        let mut best_feasible = false;
        let mut best: Vec<bool> = phase.clone();
        let mut best_infeasible_key = (usize::MAX, f64::INFINITY);
        let mut total_flips: u64 = 0;
        let restarts = if warm.is_some() {
            1
        } else {
            self.config.restarts.max(1)
        };
        let stall_limit = self.config.max_stall.unwrap_or(u64::MAX);

        // One State for the whole solve: the first restart starts from
        // the (warm-overridden) phase; later ones rewind to a fresh
        // perturbation of the phase *in place* (buffers reused, only
        // the clauses of variables that actually change are rescanned).
        let mut state = State::init(problem, phase.clone());
        for restart in 0..restarts {
            if restart > 0 {
                state.reinit(problem, &occ, &mut rng, 0.12, &phase);
            }
            if state.is_feasible() && state.soft_cost < best_cost {
                best_cost = state.soft_cost;
                best_feasible = true;
                best.copy_from_slice(&state.assignment);
            }
            // Progress tracking for the stall cutoff: fewest violated
            // hard clauses seen this restart, and flips since any
            // progress (feasibility progress or a new global best).
            let mut hard_floor = state.unsat_hard.len();
            let mut stall: u64 = 0;
            for _ in 0..self.config.max_flips {
                if state.unsat_hard.is_empty() && state.unsat_soft.is_empty() {
                    break; // perfect assignment
                }
                if stall >= stall_limit {
                    break; // no progress in a while: restart or stop
                }
                stall += 1;
                total_flips += 1;
                // Pick an unsatisfied clause: hard first.
                let ci = if !state.unsat_hard.is_empty() {
                    state.unsat_hard[rng.random_range(0..state.unsat_hard.len())]
                } else {
                    state.unsat_soft[rng.random_range(0..state.unsat_soft.len())]
                };
                let lits = problem.lits(ci);
                let var = if rng.random_bool(self.config.noise) {
                    lits[rng.random_range(0..lits.len())].atom.index()
                } else {
                    // Greedy: flip the literal with the best cost delta.
                    let mut best_var = lits[0].atom.index();
                    let mut best_delta = f64::INFINITY;
                    for l in lits {
                        let d = state.flip_delta(problem, &occ, l.atom.index());
                        if d < best_delta {
                            best_delta = d;
                            best_var = l.atom.index();
                        }
                    }
                    best_var
                };
                state.flip(problem, &occ, var);
                if state.unsat_hard.len() < hard_floor {
                    hard_floor = state.unsat_hard.len();
                    stall = 0;
                }
                if state.is_feasible() && state.soft_cost < best_cost {
                    best_cost = state.soft_cost;
                    best_feasible = true;
                    best.copy_from_slice(&state.assignment);
                    stall = 0;
                    if best_cost <= 0.0 {
                        break;
                    }
                }
            }
            // Keep the least-bad infeasible state if nothing feasible yet
            // (fewest violated hard clauses, then soft cost).
            if !best_feasible {
                let key = (state.unsat_hard.len(), state.soft_cost);
                if key < best_infeasible_key {
                    best_infeasible_key = key;
                    best.copy_from_slice(&state.assignment);
                    best_cost = state.soft_cost;
                }
            }
        }

        MapResult {
            assignment: best,
            cost: best_cost,
            feasible: best_feasible,
            stats: SolveStats {
                steps: total_flips,
                rounds: restarts,
                active_clauses: problem.len(),
                elapsed: start.elapsed(),
            },
        }
    }
}

/// Weight a hard clause contributes to greedy move deltas: large enough
/// that repairing hard violations always dominates soft cost.
const HARD_W: f64 = 1e7;

/// CSR occurrence index: `entries[offsets[v]..offsets[v+1]]` are the
/// clauses containing variable `v`, each entry packing the clause id
/// with the literal's polarity in the low bit (`(ci << 1) | positive`).
/// The polarity bit is what lets [`State::flip`] update satisfied
/// counts without re-scanning the clause's literal list per step.
struct OccIndex {
    offsets: Vec<u32>,
    entries: Vec<u32>,
}

impl OccIndex {
    fn build(n: usize, problem: &SatProblem<'_>) -> OccIndex {
        let mut offsets = vec![0u32; n + 1];
        for c in problem.iter() {
            for l in c.lits {
                offsets[l.atom.index() + 1] += 1;
            }
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut entries = vec![0u32; offsets[n] as usize];
        let mut cursor = offsets.clone();
        for c in problem.iter() {
            for l in c.lits {
                let v = l.atom.index();
                entries[cursor[v] as usize] = (c.id << 1) | u32::from(l.positive);
                cursor[v] += 1;
            }
        }
        OccIndex { offsets, entries }
    }

    #[inline]
    fn of(&self, var: usize) -> &[u32] {
        &self.entries[self.offsets[var] as usize..self.offsets[var + 1] as usize]
    }
}

/// Incremental search state. Per-clause arrays are indexed by clause
/// *slot* id (sized by [`SatProblem::num_slots`]); tombstoned slots
/// never enter the occurrence index, so they are never touched.
struct State {
    assignment: Vec<bool>,
    /// Satisfied-literal count per clause.
    sat_count: Vec<u32>,
    /// XOR of the variable ids of the clause's satisfied literals —
    /// when `sat_count == 1` this *is* the critical variable, so break
    /// detection needs no clause scan.
    crit: Vec<u32>,
    /// Unsatisfied hard clause ids (dense, with position map).
    unsat_hard: Vec<u32>,
    hard_pos: Vec<u32>,
    /// Unsatisfied soft clause ids.
    unsat_soft: Vec<u32>,
    soft_pos: Vec<u32>,
    soft_cost: f64,
}

const NOT_PRESENT: u32 = u32::MAX;

impl State {
    /// Full initialisation: one scan over every live clause. Runs once
    /// per solve — restarts go through [`State::reinit`].
    fn init(problem: &SatProblem<'_>, assignment: Vec<bool>) -> State {
        let m = problem.num_slots();
        let mut state = State {
            assignment,
            sat_count: vec![0; m],
            crit: vec![0; m],
            unsat_hard: Vec::new(),
            hard_pos: vec![NOT_PRESENT; m],
            unsat_soft: Vec::new(),
            soft_pos: vec![NOT_PRESENT; m],
            soft_cost: 0.0,
        };
        for c in problem.iter() {
            let mut sat = 0u32;
            let mut crit = 0u32;
            for l in c.lits {
                if l.satisfied_by(state.assignment[l.atom.index()]) {
                    sat += 1;
                    crit ^= l.atom.0;
                }
            }
            state.sat_count[c.id as usize] = sat;
            state.crit[c.id as usize] = crit;
            if sat == 0 {
                state.mark_unsat(problem, c.id);
            }
        }
        state
    }

    /// Restart re-initialisation: moves the state to a fresh
    /// perturbation of `phase` (each variable inverted with probability
    /// `p`) **in place**, driving the incremental flip machinery for
    /// exactly the variables whose value changes. Buffers are reused
    /// and only the clauses of changed variables are rescanned —
    /// `State::init`'s five allocations and full clause scan happen
    /// once per solve, not once per restart.
    fn reinit(
        &mut self,
        problem: &SatProblem<'_>,
        occ: &OccIndex,
        rng: &mut StdRng,
        p: f64,
        phase: &[bool],
    ) {
        for (v, &phase_value) in phase.iter().enumerate() {
            let target = phase_value != rng.random_bool(p);
            if self.assignment[v] != target {
                self.flip(problem, occ, v);
            }
        }
        // A full `init` enumerates unsatisfied clauses in clause order;
        // restore that order here (the carried-over lists are churned
        // by swap_removes), so the restart's random clause picks walk
        // the same distribution a fresh initialisation would — and the
        // search trajectory is identical to a from-scratch restart.
        self.unsat_hard.sort_unstable();
        for (i, &ci) in self.unsat_hard.iter().enumerate() {
            self.hard_pos[ci as usize] = i as u32;
        }
        self.unsat_soft.sort_unstable();
        for (i, &ci) in self.unsat_soft.iter().enumerate() {
            self.soft_pos[ci as usize] = i as u32;
        }
    }

    fn is_feasible(&self) -> bool {
        self.unsat_hard.is_empty()
    }

    fn mark_unsat(&mut self, problem: &SatProblem<'_>, ci: u32) {
        if problem.is_hard(ci) {
            self.hard_pos[ci as usize] = self.unsat_hard.len() as u32;
            self.unsat_hard.push(ci);
        } else {
            self.soft_pos[ci as usize] = self.unsat_soft.len() as u32;
            self.unsat_soft.push(ci);
            self.soft_cost += problem.weight(ci);
        }
    }

    fn mark_sat(&mut self, problem: &SatProblem<'_>, ci: u32) {
        if problem.is_hard(ci) {
            let pos = self.hard_pos[ci as usize];
            let last = *self.unsat_hard.last().expect("non-empty on mark_sat");
            self.unsat_hard.swap_remove(pos as usize);
            if last != ci {
                self.hard_pos[last as usize] = pos;
            }
            self.hard_pos[ci as usize] = NOT_PRESENT;
        } else {
            let pos = self.soft_pos[ci as usize];
            let last = *self.unsat_soft.last().expect("non-empty on mark_sat");
            self.unsat_soft.swap_remove(pos as usize);
            if last != ci {
                self.soft_pos[last as usize] = pos;
            }
            self.soft_pos[ci as usize] = NOT_PRESENT;
            self.soft_cost -= problem.weight(ci);
        }
    }

    /// Soft-cost delta of flipping `var`, with hard clauses weighted at
    /// [`HARD_W`] so greedy moves repair hard violations first.
    ///
    /// Pure array walk over the occurrence entries: a clause with
    /// `sat_count == 0` has every literal false, so the flip *makes* it
    /// unconditionally; a clause *breaks* iff `var` is its cached
    /// critical literal. No clause literal list is scanned.
    fn flip_delta(&self, problem: &SatProblem<'_>, occ: &OccIndex, var: usize) -> f64 {
        let mut delta = 0.0;
        for &e in occ.of(var) {
            let ci = (e >> 1) as usize;
            let sat = self.sat_count[ci];
            if sat == 0 {
                let w = problem.weight(ci as u32);
                delta -= if w.is_infinite() { HARD_W } else { w };
            } else if sat == 1 && self.crit[ci] == var as u32 {
                let w = problem.weight(ci as u32);
                delta += if w.is_infinite() { HARD_W } else { w };
            }
        }
        delta
    }

    fn flip(&mut self, problem: &SatProblem<'_>, occ: &OccIndex, var: usize) {
        let new_value = !self.assignment[var];
        self.assignment[var] = new_value;
        let var_id = var as u32;
        for &e in occ.of(var) {
            let ci = e >> 1;
            let satisfied_now = ((e & 1) != 0) == new_value;
            let slot = ci as usize;
            self.crit[slot] ^= var_id;
            if satisfied_now {
                self.sat_count[slot] += 1;
                if self.sat_count[slot] == 1 {
                    self.mark_sat(problem, ci);
                }
            } else {
                self.sat_count[slot] -= 1;
                if self.sat_count[slot] == 0 {
                    self.mark_unsat(problem, ci);
                }
            }
        }
    }
}

impl tecore_ground::MapSolver for MaxWalkSat {
    fn name(&self) -> &str {
        "mln-walksat"
    }

    fn caps(&self) -> tecore_ground::SolverCaps {
        tecore_ground::SolverCaps::mln()
    }

    /// Runs the search with budgets sized to the instance (see
    /// `WalkSatConfig::for_size`), starting from the warm assignment
    /// when there is one.
    fn solve(
        &self,
        atoms: usize,
        clauses: &tecore_ground::ClauseStore,
        warm: Option<&tecore_ground::MapState>,
    ) -> Result<tecore_ground::MapState, tecore_ground::SolveError> {
        let config = self.config.for_size(atoms, clauses.len());
        let warm = warm.map(|s| s.assignment.as_slice());
        let problem = SatProblem::from_store(atoms, clauses);
        Ok(MaxWalkSat::new(config)
            .solve_seeded(&problem, warm)
            .into_map_state())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::bnb::{brute_force, BranchAndBound};
    use proptest::prelude::*;
    use tecore_ground::{AtomId, ClauseOrigin, ClauseWeight, GroundClause, Lit};

    fn soft(lits: Vec<Lit>, w: f64) -> GroundClause {
        GroundClause::new(lits, ClauseWeight::Soft(w), ClauseOrigin::Evidence).unwrap()
    }

    fn hard(lits: Vec<Lit>) -> GroundClause {
        GroundClause::new(lits, ClauseWeight::Hard, ClauseOrigin::Formula(0)).unwrap()
    }

    #[test]
    fn solves_paper_conflict() {
        let clauses = vec![
            soft(vec![Lit::pos(AtomId(0))], 2.197),
            soft(vec![Lit::pos(AtomId(1))], 0.405),
            hard(vec![Lit::neg(AtomId(0)), Lit::neg(AtomId(1))]),
        ];
        let p = SatProblem::from_clauses(2, &clauses);
        let r = MaxWalkSat::new(WalkSatConfig::default()).solve(&p);
        assert!(r.feasible);
        assert!(r.assignment[0]);
        assert!(!r.assignment[1]);
        assert!((r.cost - 0.405).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let clauses = vec![
            soft(vec![Lit::pos(AtomId(0)), Lit::neg(AtomId(1))], 1.0),
            soft(vec![Lit::pos(AtomId(1)), Lit::neg(AtomId(2))], 2.0),
            hard(vec![Lit::neg(AtomId(0)), Lit::neg(AtomId(2))]),
        ];
        let p = SatProblem::from_clauses(3, &clauses);
        let cfg = WalkSatConfig {
            seed: 42,
            ..WalkSatConfig::default()
        };
        let a = MaxWalkSat::new(cfg.clone()).solve(&p);
        let b = MaxWalkSat::new(cfg).solve(&p);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn empty_problem() {
        let p = SatProblem::from_clauses(0, &[]);
        let r = MaxWalkSat::new(WalkSatConfig::default()).solve(&p);
        assert!(r.feasible);
        assert_eq!(r.cost, 0.0);
    }

    /// With the flip budget zeroed out, only the starting point counts —
    /// proving the warm start genuinely seeds the search rather than
    /// being dropped on the floor.
    #[test]
    fn warm_start_seeds_the_initial_assignment() {
        let clauses = vec![
            soft(vec![Lit::pos(AtomId(0))], 2.197),
            soft(vec![Lit::pos(AtomId(1))], 0.405),
            hard(vec![Lit::neg(AtomId(0)), Lit::neg(AtomId(1))]),
        ];
        let p = SatProblem::from_clauses(2, &clauses);
        let frozen = WalkSatConfig {
            max_flips: 0,
            restarts: 1,
            ..WalkSatConfig::default()
        };
        // Cold: the evidence phase sets both atoms true → hard clause
        // violated, nothing can move.
        let cold = MaxWalkSat::new(frozen.clone()).solve(&p);
        assert!(!cold.feasible);
        // Warm from the optimum: immediately feasible at optimal cost.
        let warm = MaxWalkSat::new(frozen).solve_seeded(&p, Some(&[true, false]));
        assert!(warm.feasible);
        assert!((warm.cost - 0.405).abs() < 1e-9);
        assert_eq!(warm.assignment, vec![true, false]);
    }

    /// A warm start shorter than the problem (new atoms appended by a
    /// delta) pads with the evidence phase.
    #[test]
    fn short_warm_start_pads_with_phase() {
        let clauses = vec![
            soft(vec![Lit::neg(AtomId(0))], 1.0),
            soft(vec![Lit::pos(AtomId(1))], 1.0),
        ];
        let p = SatProblem::from_clauses(2, &clauses);
        let frozen = WalkSatConfig {
            max_flips: 0,
            restarts: 1,
            ..WalkSatConfig::default()
        };
        // Warm only covers atom 0 (kept true against its evidence);
        // atom 1 falls back to its evidence phase (true).
        let r = MaxWalkSat::new(frozen).solve_seeded(&p, Some(&[true]));
        assert_eq!(r.assignment, vec![true, true]);
    }

    #[test]
    fn matches_exact_on_moderate_instance() {
        // A chain of implications with conflicting evidence: 12 vars.
        let mut clauses = Vec::new();
        for i in 0..12u32 {
            clauses.push(soft(
                vec![Lit::pos(AtomId(i))],
                1.0 + f64::from(i % 3) * 0.7,
            ));
        }
        for i in 0..11u32 {
            clauses.push(hard(vec![Lit::neg(AtomId(i)), Lit::neg(AtomId(i + 1))]));
        }
        let p = SatProblem::from_clauses(12, &clauses);
        let exact = BranchAndBound::new().solve(&p);
        let walk = MaxWalkSat::new(WalkSatConfig::default()).solve(&p);
        assert!(walk.feasible);
        assert!(
            (walk.cost - exact.cost).abs() < 1e-9,
            "walksat {} vs exact {}",
            walk.cost,
            exact.cost
        );
    }

    /// The one `MapSolver::solve` sizes its budgets to the instance: a
    /// whole-KG instance runs the configured budgets unchanged — so its
    /// search is the inherent solver's, flip for flip — and a ten-clause
    /// one a few multiples of its size.
    #[test]
    fn budgets_follow_the_instance_size() {
        let defaults = WalkSatConfig::default();
        let large = defaults.for_size(400_000, 800_000);
        assert_eq!(
            (large.max_flips, large.max_stall, large.restarts),
            (defaults.max_flips, defaults.max_stall, defaults.restarts)
        );
        // The smallest instance that keeps every default budget.
        let edge = defaults.for_size(6_242 - 65, 65);
        assert_eq!(
            (edge.max_flips, edge.max_stall, edge.restarts),
            (defaults.max_flips, defaults.max_stall, defaults.restarts)
        );
        let small = defaults.for_size(6, 10);
        assert_eq!(
            (small.max_flips, small.max_stall, small.restarts),
            (16 * 16 + 128, Some(4 * 16 + 32), 2)
        );
        assert_eq!((small.noise, small.seed), (defaults.noise, defaults.seed));
    }

    fn arb_problem() -> impl Strategy<Value = SatProblem<'static>> {
        let lit = (0u32..8, prop::bool::ANY).prop_map(|(a, pos)| Lit {
            atom: AtomId(a),
            positive: pos,
        });
        let clause = (
            prop::collection::vec(lit, 1..4),
            prop::option::of(1u32..100),
        );
        prop::collection::vec(clause, 1..16).prop_map(|cs| {
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
            SatProblem::from_clauses(8, &ground)
        })
    }

    /// Hard-capped cost of an assignment (the quantity `flip_delta`
    /// predicts the change of).
    fn capped_cost(p: &SatProblem<'_>, a: &[bool]) -> f64 {
        let (soft, hardv) = p.evaluate(a);
        soft + HARD_W * hardv as f64
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// WalkSAT never reports infeasible when the instance is feasible,
        /// never reports a cost below the optimum, and its reported cost
        /// matches its reported assignment.
        #[test]
        fn sound_vs_brute_force(p in arb_problem()) {
            let reference = brute_force(&p);
            let walk = MaxWalkSat::new(WalkSatConfig {
                max_flips: 20_000,
                restarts: 3,
                ..WalkSatConfig::default()
            }).solve(&p);
            let (cost, hardv) = p.evaluate(&walk.assignment);
            if walk.feasible {
                prop_assert_eq!(hardv, 0);
                prop_assert!((cost - walk.cost).abs() < 1e-9);
            }
            if reference.feasible {
                prop_assert!(walk.feasible, "missed a feasible solution");
                prop_assert!(walk.cost >= reference.cost - 1e-9);
            } else {
                prop_assert!(!walk.feasible);
            }
        }

        /// The O(1) incremental flip path agrees with brute-force cost
        /// recomputation on random states: `flip_delta` predicts the
        /// exact hard-capped cost change of every flip, and the
        /// maintained `soft_cost` / unsat lists stay consistent with a
        /// full evaluation after it.
        #[test]
        fn flip_delta_matches_brute_force(
            p in arb_problem(),
            flips in prop::collection::vec(0usize..8, 1..24),
        ) {
            let occ = OccIndex::build(p.n_vars, &p);
            let mut state = State::init(&p, vec![false; p.n_vars]);
            for v in flips {
                let predicted = state.flip_delta(&p, &occ, v);
                let before = capped_cost(&p, &state.assignment);
                state.flip(&p, &occ, v);
                let after = capped_cost(&p, &state.assignment);
                prop_assert!(
                    (predicted - (after - before)).abs() < 1e-6,
                    "flip_delta {} vs recomputed {}", predicted, after - before
                );
                let (soft, hardv) = p.evaluate(&state.assignment);
                prop_assert!((state.soft_cost - soft).abs() < 1e-9);
                prop_assert_eq!(state.unsat_hard.len(), hardv);
            }
        }
    }
}
