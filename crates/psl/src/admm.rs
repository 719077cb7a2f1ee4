//! Consensus ADMM for HL-MRF MAP inference (Bach et al. 2015, §4).
//!
//! Every potential and every hard constraint owns local copies of its
//! variables; a consensus variable vector ties them together:
//!
//! 1. **local step** — each potential solves a tiny prox problem in
//!    closed form (linear hinge, below); each hard
//!    constraint projects onto its halfspace;
//! 2. **consensus step** — every global variable becomes the average of
//!    its local copies (+ duals), clamped to `[0, 1]`;
//! 3. **dual step** — multipliers accumulate the disagreement.
//!
//! The three steps run **block by block** over the MRF's block index
//! (the connected components of the factor graph, see
//! [`crate::hlmrf`]): no factor couples two blocks, so each is a
//! problem of its own and is iterated to *its own* stopping point —
//! primal and dual residuals of the block's slots and variables below
//! tolerance (the standard Boyd et al. criteria, the primal one scaled
//! by the root of the block's factor count), or the iteration cap. A
//! TeCoRe grounding is a few hundred thousand blocks of one to a dozen
//! factors; nearly all stop within a handful of iterations, and the few
//! near-tied ones that run to the cap no longer hold the others there.
//! A problem of one block runs the plain global loop, step for step.
//!
//! The solver runs at one parameterisation: ρ, the iteration cap and
//! the tolerance are constants ([`MAX_ITERATIONS`] is exported for the
//! tests that bound work by it), and [`AdmmConfig`] is empty.

use std::time::{Duration, Instant};

use crate::hlmrf::HlMrf;

/// Penalty parameter ρ.
const RHO: f64 = 1.0;

/// Maximum iterations of any one block.
pub const MAX_ITERATIONS: usize = 300;

/// Residual tolerance, applied to each block's own residuals.
const TOLERANCE: f64 = 1e-3;

/// ADMM options — none: ρ, the iteration cap and the tolerance are
/// the constants above. The type stays so that [`AdmmSolver::new`]
/// keeps its signature: `AdmmConfig::default()` is the one value.
#[derive(Debug, Clone, Default)]
pub struct AdmmConfig {}

/// Result of a PSL MAP solve.
#[derive(Debug, Clone)]
pub struct PslResult {
    /// Soft truth values in `[0, 1]`.
    pub values: Vec<f64>,
    /// Final convex objective value.
    pub objective: f64,
    /// Iterations of the block that needed the most.
    pub iterations: usize,
    /// Did every block's residuals converge before the iteration cap?
    pub converged: bool,
    /// Independent blocks of the factor graph.
    pub blocks: usize,
    /// Blocks that stopped on the iteration cap instead of converging.
    pub blocks_capped: usize,
    /// Local steps taken, summed over blocks (iterations × factors):
    /// the work done, where `iterations × n_factors` is what one
    /// stopping rule for the whole problem would have cost.
    pub factor_updates: u64,
    /// Wall-clock time.
    pub elapsed: Duration,
}

/// The consensus-ADMM solver.
#[derive(Debug, Clone, Default)]
pub struct AdmmSolver;

impl AdmmSolver {
    /// Creates a solver.
    pub fn new(_config: AdmmConfig) -> Self {
        AdmmSolver
    }

    /// Minimises the HL-MRF objective over the `[0,1]` box subject to
    /// the hard constraints, from the cold `0.5` initialisation.
    pub fn solve(&self, mrf: &HlMrf) -> PslResult {
        self.solve_warm(mrf, None)
    }

    /// Like [`AdmmSolver::solve`], but seeds the consensus vector (and
    /// every factor's local copies) from `warm` — typically the soft
    /// truth values of a previous solve over a slightly different
    /// factor graph. Variables beyond `warm`'s length start at the cold
    /// `0.5`; duals restart at zero (they are tied to the factor set,
    /// which may have changed). Near an optimum the primal residual is
    /// already small, so iterations drop sharply.
    pub fn solve_warm(&self, mrf: &HlMrf, warm: Option<&[f64]>) -> PslResult {
        let start = Instant::now();
        let n = mrf.n_vars;
        if n == 0 || mrf.n_factors() == 0 {
            let values = vec![0.0; n];
            return PslResult {
                objective: mrf.objective(&values),
                values,
                iterations: 0,
                converged: true,
                blocks: 0,
                blocks_capped: 0,
                factor_updates: 0,
                elapsed: start.elapsed(),
            };
        }

        // The factor layout is the MRF's own CSR (one contiguous slot
        // per (factor, local variable), coefficient norms precomputed)
        // — built once at construction, consumed in place here.
        let slot_var = mrf.slot_vars();
        // Consensus vector, warm-started where a previous solution has
        // an opinion, and per-variable degree (number of factors).
        let mut x = vec![0.5f64; n];
        if let Some(warm) = warm {
            for (v, &value) in warm.iter().take(n).enumerate() {
                x[v] = value.clamp(0.0, 1.0);
            }
        }
        let mut duals = vec![0.0f64; slot_var.len()];
        let mut locals = vec![0.0f64; slot_var.len()];
        let mut degree = vec![0u32; n];
        for &v in slot_var {
            degree[v as usize] += 1;
        }
        // The block's consensus values of the previous iteration.
        let largest = (0..mrf.n_blocks()).map(|b| mrf.block_vars(b).len()).max();
        let mut previous = vec![0.0f64; largest.unwrap_or(0)];

        let mut iterations = 0;
        let mut blocks_capped = 0;
        let mut factor_updates = 0u64;
        for b in 0..mrf.n_blocks() {
            let factors = mrf.block_factors(b);
            let vars = mrf.block_vars(b);
            let scale = (factors.len() as f64).sqrt();
            let mut block_iterations = 0;
            let mut converged = false;
            while !converged && block_iterations < MAX_ITERATIONS {
                block_iterations += 1;
                // 1. Local prox / projection steps (in place over the slots).
                for &k in factors {
                    let k = k as usize;
                    let (lo, hi) = mrf.slot_range(k);
                    let factor = mrf.factor(k);
                    let local = &mut locals[lo..hi];
                    let dual = &duals[lo..hi];
                    // anchor_i = x[var_i] - dual_i, written into `local`.
                    for i in 0..local.len() {
                        local[i] = x[factor.vars[i] as usize] - dual[i];
                    }
                    if mrf.is_potential(k) {
                        prox_hinge_inplace(
                            factor.coeffs,
                            factor.constant,
                            mrf.weight(k),
                            mrf.norm2(k),
                            local,
                        );
                    } else {
                        project_halfspace_inplace(
                            factor.coeffs,
                            factor.constant,
                            mrf.norm2(k),
                            local,
                        );
                    }
                }
                // 2. Consensus: average local + dual per variable, clamp.
                // The sums are gathered in `x` itself, the values they
                // replace set aside for the dual residual.
                for (old, &v) in previous.iter_mut().zip(vars) {
                    *old = std::mem::replace(&mut x[v as usize], 0.0);
                }
                for &k in factors {
                    let (lo, hi) = mrf.slot_range(k as usize);
                    for i in lo..hi {
                        x[slot_var[i] as usize] += locals[i] + duals[i];
                    }
                }
                let mut dual_sq = 0.0;
                for (&old, &v) in previous.iter().zip(vars) {
                    let v = v as usize;
                    let new = (x[v] / f64::from(degree[v])).clamp(0.0, 1.0);
                    let d = new - old;
                    dual_sq += d * d;
                    x[v] = new;
                }
                // 3. Dual update + primal residual.
                let mut primal_sq = 0.0;
                for &k in factors {
                    let (lo, hi) = mrf.slot_range(k as usize);
                    for i in lo..hi {
                        let r = locals[i] - x[slot_var[i] as usize];
                        duals[i] += r;
                        primal_sq += r * r;
                    }
                }
                converged =
                    primal_sq.sqrt() / scale < TOLERANCE && RHO * dual_sq.sqrt() < TOLERANCE;
            }
            iterations = iterations.max(block_iterations);
            blocks_capped += usize::from(!converged);
            factor_updates += (block_iterations * factors.len()) as u64;
        }

        PslResult {
            objective: mrf.objective(&x),
            values: x,
            iterations,
            converged: blocks_capped == 0,
            blocks: mrf.n_blocks(),
            blocks_capped,
            factor_updates,
            elapsed: start.elapsed(),
        }
    }
}

/// Closed-form prox of `w·max(0, c + aᵀy) + (ρ/2)‖y − v‖²`,
/// operating in place: `y` holds the anchor `v` on entry and the
/// minimiser on exit.
#[inline]
fn prox_hinge_inplace(a: &[f64], constant: f64, weight: f64, a_norm2: f64, y: &mut [f64]) {
    if a_norm2 == 0.0 {
        return;
    }
    let d_v = constant + dot(a, y);
    if d_v <= 0.0 {
        return; // anchor already in the flat region
    }
    // Step into the linear region...
    let step = weight / RHO;
    if d_v - step * a_norm2 >= 0.0 {
        for (yi, &ai) in y.iter_mut().zip(a) {
            *yi -= step * ai;
        }
        return;
    }
    // ...or land on the kink hyperplane c + aᵀy = 0.
    let shift = d_v / a_norm2;
    for (yi, &ai) in y.iter_mut().zip(a) {
        *yi -= shift * ai;
    }
}

/// In-place projection onto the halfspace `c + aᵀy ≤ 0`.
#[inline]
fn project_halfspace_inplace(a: &[f64], constant: f64, a_norm2: f64, y: &mut [f64]) {
    if a_norm2 == 0.0 {
        return;
    }
    let viol = constant + dot(a, y);
    if viol <= 0.0 {
        return;
    }
    let shift = viol / a_norm2;
    for (yi, &ai) in y.iter_mut().zip(a) {
        *yi -= shift * ai;
    }
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hlmrf::PslConfig;
    use tecore_ground::{AtomId, ClauseOrigin, ClauseWeight, GroundClause, Lit};

    fn soft(lits: Vec<Lit>, w: f64) -> GroundClause {
        GroundClause::new(lits, ClauseWeight::Soft(w), ClauseOrigin::Evidence).unwrap()
    }

    fn hard(lits: Vec<Lit>) -> GroundClause {
        GroundClause::new(lits, ClauseWeight::Hard, ClauseOrigin::Formula(0)).unwrap()
    }

    fn solve(clauses: &[GroundClause], n: usize) -> PslResult {
        let mrf = HlMrf::from_clauses(n, clauses, &PslConfig::default());
        AdmmSolver::new(AdmmConfig::default()).solve(&mrf)
    }

    #[test]
    fn evidence_pulls_to_one() {
        let r = solve(&[soft(vec![Lit::pos(AtomId(0))], 3.0)], 1);
        assert!(r.converged);
        assert!(r.values[0] > 0.95, "{}", r.values[0]);
    }

    #[test]
    fn negative_evidence_pulls_to_zero() {
        let r = solve(&[soft(vec![Lit::neg(AtomId(0))], 3.0)], 1);
        assert!(r.values[0] < 0.05, "{}", r.values[0]);
    }

    #[test]
    fn paper_conflict_keeps_stronger_fact() {
        // Chelsea (w 2.197) vs Napoli (w 0.405) under hard ¬a ∨ ¬b.
        let r = solve(
            &[
                soft(vec![Lit::pos(AtomId(0))], 2.197),
                soft(vec![Lit::pos(AtomId(1))], 0.405),
                hard(vec![Lit::neg(AtomId(0)), Lit::neg(AtomId(1))]),
            ],
            2,
        );
        assert_eq!((r.blocks, r.iterations), (1, 8), "as the global loop");
        assert!(r.values[0] > 0.8, "chelsea {}", r.values[0]);
        assert!(r.values[1] < 0.2, "napoli {}", r.values[1]);
        // The hard constraint holds in the relaxation.
        assert!(r.values[0] + r.values[1] <= 1.0 + 1e-3);
    }

    #[test]
    fn hard_constraint_respected_in_relaxation() {
        // Equal strong evidence on both sides: LP mass splits around
        // a + b = 1 (any split is optimal; the constraint must hold).
        let r = solve(
            &[
                soft(vec![Lit::pos(AtomId(0))], 4.0),
                soft(vec![Lit::pos(AtomId(1))], 4.0),
                hard(vec![Lit::neg(AtomId(0)), Lit::neg(AtomId(1))]),
            ],
            2,
        );
        assert!(r.values[0] + r.values[1] <= 1.0 + 1e-2, "{:?}", r.values);
    }

    #[test]
    fn implication_propagates() {
        // Evidence a; hard a → b: b must rise to ≥ a.
        let r = solve(
            &[
                soft(vec![Lit::pos(AtomId(0))], 3.0),
                hard(vec![Lit::neg(AtomId(0)), Lit::pos(AtomId(1))]),
            ],
            2,
        );
        assert_eq!((r.blocks, r.iterations), (1, 5), "as the global loop");
        assert!(r.values[0] > 0.9);
        assert!(r.values[1] >= r.values[0] - 1e-2, "{:?}", r.values);
    }

    #[test]
    fn objective_not_worse_than_naive_points() {
        let clauses = [
            soft(vec![Lit::pos(AtomId(0))], 1.5),
            soft(vec![Lit::neg(AtomId(0)), Lit::pos(AtomId(1))], 2.0),
            soft(vec![Lit::neg(AtomId(1))], 0.5),
        ];
        let mrf = HlMrf::from_clauses(2, &clauses, &PslConfig::default());
        let r = AdmmSolver::new(AdmmConfig::default()).solve(&mrf);
        for probe in [
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![0.5, 0.5],
        ] {
            assert!(
                r.objective <= mrf.objective(&probe) + 1e-3,
                "ADMM {} worse than probe {:?} = {}",
                r.objective,
                probe,
                mrf.objective(&probe)
            );
        }
    }

    #[test]
    fn empty_problem() {
        let mrf = HlMrf::from_clauses(0, &[], &PslConfig::default());
        let r = AdmmSolver::new(AdmmConfig::default()).solve(&mrf);
        assert!(r.converged);
        assert_eq!(r.values.len(), 0);
    }

    /// Warm-starting must genuinely seed the consensus vector: when the
    /// previous solution satisfies every potential (the common case
    /// after a small delta — the optimum sits in the flat region), the
    /// warm re-solve converges almost immediately, while the cold 0.5
    /// start needs many iterations to walk the variables out to their
    /// extremes.
    #[test]
    fn warm_start_from_optimum_converges_faster() {
        let mut clauses = vec![hard(vec![Lit::neg(AtomId(0)), Lit::pos(AtomId(1))])];
        for v in 0..8u32 {
            clauses.push(soft(
                if v % 2 == 0 {
                    vec![Lit::pos(AtomId(v))]
                } else {
                    vec![Lit::pos(AtomId(v)), Lit::neg(AtomId(v - 1))]
                },
                2.0 + f64::from(v) * 0.3,
            ));
        }
        let mrf = HlMrf::from_clauses(8, &clauses, &PslConfig::default());
        let solver = AdmmSolver::new(AdmmConfig::default());
        let cold = solver.solve(&mrf);
        assert!(cold.converged);
        // Seed from the fully-satisfying world rather than cold's
        // tolerance-fuzzy endpoint: every potential is flat there.
        let warm = solver.solve_warm(&mrf, Some(&[1.0; 8]));
        assert!(warm.converged);
        assert!(
            warm.iterations < cold.iterations,
            "warm {} vs cold {} iterations",
            warm.iterations,
            cold.iterations
        );
        assert!((warm.objective - cold.objective).abs() < 1e-2);
    }

    #[test]
    fn values_stay_in_box() {
        let clauses = [
            soft(vec![Lit::pos(AtomId(0))], 50.0),
            soft(vec![Lit::neg(AtomId(1))], 50.0),
            hard(vec![Lit::neg(AtomId(0)), Lit::pos(AtomId(2))]),
        ];
        let mrf = HlMrf::from_clauses(3, &clauses, &PslConfig::default());
        let r = AdmmSolver::new(AdmmConfig::default()).solve(&mrf);
        for v in &r.values {
            assert!((-1e-9..=1.0 + 1e-9).contains(v), "{v}");
        }
    }
}
