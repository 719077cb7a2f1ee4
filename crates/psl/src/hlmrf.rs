//! Hinge-loss Markov random fields from ground clauses.
//!
//! The MRF itself is stored **CSR-flat**: all factor terms (variable
//! ids and coefficients) live in two contiguous buffers with one offset
//! table over them, potentials first, hard constraints after. The
//! structure is built in a single pass per factor class straight from
//! the grounding's [`ClauseStore`] arena — no per-clause `Vec<(var,
//! coeff)>` intermediates — and ADMM consumes the same arrays in place
//! (see [`crate::admm`]), so the per-iteration hot loops never chase a
//! per-factor heap allocation.
//!
//! Beside the factors sits the **block index**: the connected
//! components of the factor graph (variables joined through the factors
//! that mention them), read off the arena by the grounder's component
//! walk ([`Partition::of`]). The convex program is separable over them —
//! no term couples two blocks — so ADMM and the rounding repair both run
//! block by block ([`HlMrf::block_factors`] / [`HlMrf::block_vars`]).

use tecore_ground::{ClauseStore, ClauseWeight, GroundClause, Grounding, Lit, Partition};

/// PSL construction options — none at present. Every hinge is linear
/// (`w·max(0, d)`), which keeps a block a plain LP. The type stays so
/// that [`HlMrf::from_grounding`] keeps its signature:
/// `PslConfig::default()` is the one value.
#[derive(Debug, Clone, Default)]
pub struct PslConfig {}

/// A weighted hinge potential `w · max(0, constant + Σ coeff·x)`.
///
/// The Łukasiewicz "distance to satisfaction" of a clause
/// `l₁ ∨ … ∨ lₖ` is `max(0, 1 − Σ truth(lᵢ))` with `truth(a) = x_a` and
/// `truth(¬a) = 1 − x_a`; expanding gives `constant = 1 − #negative`
/// and coefficients `−1` (positive literal) / `+1` (negative literal).
///
/// Standalone value type (construction, tests, external callers); the
/// [`HlMrf`] stores the same data flattened.
#[derive(Debug, Clone, PartialEq)]
pub struct HingePotential {
    /// Sparse linear term: `(variable, coefficient)`.
    pub terms: Vec<(u32, f64)>,
    /// Constant offset.
    pub constant: f64,
    /// Weight `w > 0`.
    pub weight: f64,
}

impl HingePotential {
    /// Builds the potential of a soft clause.
    pub fn from_clause(lits: &[Lit], weight: f64) -> HingePotential {
        let (terms, constant) = clause_linear_form(lits);
        HingePotential {
            terms,
            constant,
            weight,
        }
    }

    /// `max(0, constant + Σ coeff·x)` — the distance to satisfaction.
    pub fn distance(&self, x: &[f64]) -> f64 {
        let mut d = self.constant;
        for &(v, c) in &self.terms {
            d += c * x[v as usize];
        }
        d.max(0.0)
    }

    /// The potential's contribution to the MAP objective.
    pub fn value(&self, x: &[f64]) -> f64 {
        self.weight * self.distance(x)
    }
}

/// A hard linear constraint `constant + Σ coeff·x ≤ 0` (from a hard
/// clause: distance to satisfaction must be zero).
#[derive(Debug, Clone, PartialEq)]
pub struct LinearConstraint {
    /// Sparse linear term.
    pub terms: Vec<(u32, f64)>,
    /// Constant offset.
    pub constant: f64,
}

impl LinearConstraint {
    /// Builds the constraint of a hard clause.
    pub fn from_clause(lits: &[Lit]) -> LinearConstraint {
        let (terms, constant) = clause_linear_form(lits);
        LinearConstraint { terms, constant }
    }

    /// Signed violation `constant + Σ coeff·x` (≤ 0 means satisfied).
    pub fn violation(&self, x: &[f64]) -> f64 {
        let mut d = self.constant;
        for &(v, c) in &self.terms {
            d += c * x[v as usize];
        }
        d
    }

    /// Is the constraint satisfied (within `tol`)?
    pub fn satisfied(&self, x: &[f64], tol: f64) -> bool {
        self.violation(x) <= tol
    }
}

fn clause_linear_form(lits: &[Lit]) -> (Vec<(u32, f64)>, f64) {
    let mut constant = 1.0;
    let mut terms = Vec::with_capacity(lits.len());
    for l in lits {
        if l.positive {
            terms.push((l.atom.0, -1.0));
        } else {
            constant -= 1.0;
            terms.push((l.atom.0, 1.0));
        }
    }
    (terms, constant)
}

/// A borrowed view of one factor's sparse linear form.
#[derive(Debug, Clone, Copy)]
pub struct FactorView<'a> {
    /// Variable ids.
    pub vars: &'a [u32],
    /// Matching coefficients.
    pub coeffs: &'a [f64],
    /// Constant offset.
    pub constant: f64,
}

impl FactorView<'_> {
    /// Signed violation / pre-hinge distance `constant + Σ coeff·x`.
    pub fn violation(&self, x: &[f64]) -> f64 {
        let mut d = self.constant;
        for (&v, &c) in self.vars.iter().zip(self.coeffs) {
            d += c * x[v as usize];
        }
        d
    }
}

/// A hinge-loss MRF: the convex program
/// `min Σ potentials  s.t.  constraints, x ∈ [0,1]ⁿ`, stored CSR-flat.
///
/// Factors `0..n_potentials` are weighted hinges, the rest are hard
/// linear constraints; `offsets` delimits each factor's slice of the
/// shared `vars`/`coeffs` buffers. `norm2` (the squared coefficient
/// norm every prox/projection step divides by) is precomputed once at
/// construction.
///
/// `block_*` is the block index, two CSR tables over the same block
/// numbering: the factor ids and the variable ids of each connected
/// component of the factor graph, ascending inside a block (so a
/// block's potentials still precede its constraints). A variable no
/// factor mentions, and a factor without terms, belong to no block.
#[derive(Debug, Clone, Default)]
pub struct HlMrf {
    /// Number of variables (ground atoms).
    pub n_vars: usize,
    n_potentials: usize,
    offsets: Vec<u32>,
    vars: Vec<u32>,
    coeffs: Vec<f64>,
    /// Per-factor constant offset.
    constants: Vec<f64>,
    /// Per-factor weight (constraints carry `0.0`, unused).
    weights: Vec<f64>,
    /// Per-factor squared coefficient norm.
    norm2: Vec<f64>,
    block_factor_offsets: Vec<u32>,
    block_factors: Vec<u32>,
    block_var_offsets: Vec<u32>,
    block_vars: Vec<u32>,
}

impl HlMrf {
    /// Builds the HL-MRF of a grounding (soft clauses → hinges, hard
    /// clauses → linear constraints) directly from its clause arena.
    pub fn from_grounding(grounding: &Grounding, config: &PslConfig) -> HlMrf {
        HlMrf::from_store(grounding.num_atoms(), &grounding.clauses, config)
    }

    /// Builds from a clause store: one pass for the soft clauses, one
    /// for the hard ones, so potentials precede constraints in the
    /// factor order without any intermediate factor objects; then the
    /// block index from the store's components.
    pub fn from_store(n_vars: usize, store: &ClauseStore, _config: &PslConfig) -> HlMrf {
        // The arena's literal buffer also holds retracted regions, so
        // the live literal count takes a pass of its own; with it every
        // buffer is allocated once at its final size.
        let factors = store.len();
        let terms = store.iter().map(|c| c.lits.len()).sum();
        let mut mrf = HlMrf {
            n_vars,
            offsets: Vec::with_capacity(factors + 1),
            vars: Vec::with_capacity(terms),
            coeffs: Vec::with_capacity(terms),
            constants: Vec::with_capacity(factors),
            weights: Vec::with_capacity(factors),
            norm2: Vec::with_capacity(factors),
            ..HlMrf::default()
        };
        // The factor each clause slot became, for the block index.
        let mut factor_of = vec![0u32; store.num_slots()];
        mrf.offsets.push(0);
        for c in store.iter() {
            if let ClauseWeight::Soft(w) = c.weight {
                factor_of[c.id as usize] = mrf.constants.len() as u32;
                mrf.push_factor(c.lits, w);
            }
        }
        mrf.n_potentials = mrf.constants.len();
        for c in store.iter() {
            if c.weight.is_hard() {
                factor_of[c.id as usize] = mrf.constants.len() as u32;
                mrf.push_factor(c.lits, 0.0);
            }
        }
        mrf.read_blocks(&Partition::of(store, n_vars), &factor_of);
        mrf
    }

    /// Builds from raw clauses (tests and small call sites).
    pub fn from_clauses(n_vars: usize, clauses: &[GroundClause], config: &PslConfig) -> HlMrf {
        HlMrf::from_store(n_vars, &ClauseStore::from_ground_clauses(clauses), config)
    }

    /// Appends one clause's linear form to the CSR buffers.
    fn push_factor(&mut self, lits: &[Lit], weight: f64) {
        let mut constant = 1.0;
        for l in lits {
            if l.positive {
                self.vars.push(l.atom.0);
                self.coeffs.push(-1.0);
            } else {
                constant -= 1.0;
                self.vars.push(l.atom.0);
                self.coeffs.push(1.0);
            }
        }
        // Clause coefficients are all ±1, so ‖a‖² is the arity.
        self.norm2.push(lits.len() as f64);
        self.constants.push(constant);
        self.weights.push(weight);
        self.offsets.push(self.vars.len() as u32);
    }

    /// Copies the block index out of the store's components, clause
    /// ids turned into factor ids. A component's clauses ascend by slot,
    /// and so do the factor ids of its soft clauses and those of its
    /// hard ones; sorting the row puts the potentials first.
    fn read_blocks(&mut self, blocks: &Partition, factor_of: &[u32]) {
        self.block_var_offsets = Vec::with_capacity(blocks.len() + 1);
        self.block_factor_offsets = Vec::with_capacity(blocks.len() + 1);
        self.block_vars = Vec::with_capacity(self.n_vars);
        self.block_factors = Vec::with_capacity(self.n_factors());
        self.block_var_offsets.push(0);
        self.block_factor_offsets.push(0);
        for b in 0..blocks.len() {
            self.block_vars.extend(blocks.atoms(b).iter().map(|a| a.0));
            self.block_var_offsets.push(self.block_vars.len() as u32);
            let from = self.block_factors.len();
            let factors = blocks.clause_ids(b).iter().map(|&c| factor_of[c as usize]);
            self.block_factors.extend(factors);
            self.block_factors[from..].sort_unstable();
            self.block_factor_offsets
                .push(self.block_factors.len() as u32);
        }
    }

    /// Number of blocks: connected components of the factor graph that
    /// hold at least one factor.
    pub fn n_blocks(&self) -> usize {
        self.block_factor_offsets.len().saturating_sub(1)
    }

    /// The factor ids of block `b`, ascending (potentials first).
    #[inline]
    pub fn block_factors(&self, b: usize) -> &[u32] {
        let (lo, hi) = (
            self.block_factor_offsets[b],
            self.block_factor_offsets[b + 1],
        );
        &self.block_factors[lo as usize..hi as usize]
    }

    /// The variable ids of block `b`, ascending.
    #[inline]
    pub fn block_vars(&self, b: usize) -> &[u32] {
        let (lo, hi) = (self.block_var_offsets[b], self.block_var_offsets[b + 1]);
        &self.block_vars[lo as usize..hi as usize]
    }

    /// Total number of factors (potentials + constraints).
    pub fn n_factors(&self) -> usize {
        self.constants.len()
    }

    /// Number of hinge potentials (factors `0..n_potentials`).
    pub fn n_potentials(&self) -> usize {
        self.n_potentials
    }

    /// Number of hard constraints.
    pub fn n_constraints(&self) -> usize {
        self.constants.len() - self.n_potentials
    }

    /// Is factor `k` a weighted hinge (vs a hard constraint)?
    #[inline]
    pub fn is_potential(&self, k: usize) -> bool {
        k < self.n_potentials
    }

    /// Factor `k`'s term range in the shared slot buffers.
    #[inline]
    pub fn slot_range(&self, k: usize) -> (usize, usize) {
        (self.offsets[k] as usize, self.offsets[k + 1] as usize)
    }

    /// Factor `k`'s sparse linear form.
    #[inline]
    pub fn factor(&self, k: usize) -> FactorView<'_> {
        let (lo, hi) = self.slot_range(k);
        FactorView {
            vars: &self.vars[lo..hi],
            coeffs: &self.coeffs[lo..hi],
            constant: self.constants[k],
        }
    }

    /// The `i`-th hard constraint's linear form.
    #[inline]
    pub fn constraint(&self, i: usize) -> FactorView<'_> {
        self.factor(self.n_potentials + i)
    }

    /// Factor `k`'s weight (meaningful for potentials only).
    #[inline]
    pub fn weight(&self, k: usize) -> f64 {
        self.weights[k]
    }

    /// Factor `k`'s squared coefficient norm.
    #[inline]
    pub fn norm2(&self, k: usize) -> f64 {
        self.norm2[k]
    }

    /// The variable ids of every factor slot, flattened (ADMM sizes
    /// its local/dual buffers off this).
    pub fn slot_vars(&self) -> &[u32] {
        &self.vars
    }

    /// Objective value at `x`.
    pub fn objective(&self, x: &[f64]) -> f64 {
        let mut total = 0.0;
        for k in 0..self.n_potentials {
            total += self.weights[k] * self.factor(k).violation(x).max(0.0);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tecore_ground::{AtomId, ClauseOrigin};

    fn lit(a: u32, pos: bool) -> Lit {
        if pos {
            Lit::pos(AtomId(a))
        } else {
            Lit::neg(AtomId(a))
        }
    }

    #[test]
    fn lukasiewicz_of_positive_unit() {
        // (a) → max(0, 1 − a): distance 1 at a=0, 0 at a=1.
        let p = HingePotential::from_clause(&[lit(0, true)], 2.0);
        assert!((p.distance(&[0.0]) - 1.0).abs() < 1e-12);
        assert!((p.distance(&[1.0])).abs() < 1e-12);
        assert!((p.value(&[0.25]) - 2.0 * 0.75).abs() < 1e-12);
    }

    #[test]
    fn lukasiewicz_of_binary_clash() {
        // (¬a ∨ ¬b) → max(0, a + b − 1).
        let p = HingePotential::from_clause(&[lit(0, false), lit(1, false)], 1.0);
        assert!((p.distance(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!(p.distance(&[0.5, 0.5]).abs() < 1e-12);
        assert!(p.distance(&[0.0, 1.0]).abs() < 1e-12);
    }

    #[test]
    fn implication_clause() {
        // ¬a ∨ b (a → b): distance max(0, a − b).
        let p = HingePotential::from_clause(&[lit(0, false), lit(1, true)], 1.0);
        assert!((p.distance(&[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!(p.distance(&[1.0, 1.0]).abs() < 1e-12);
        assert!(p.distance(&[0.3, 0.3]).abs() < 1e-12);
    }

    #[test]
    fn hard_clause_to_constraint() {
        let c = LinearConstraint::from_clause(&[lit(0, false), lit(1, false)]);
        // a + b − 1 ≤ 0.
        assert!(c.satisfied(&[0.5, 0.5], 1e-9));
        assert!(!c.satisfied(&[0.9, 0.9], 1e-9));
        assert!((c.violation(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_clauses_partitions() {
        let clauses = vec![
            GroundClause::new(
                vec![lit(0, true)],
                ClauseWeight::Soft(1.0),
                ClauseOrigin::Evidence,
            )
            .unwrap(),
            GroundClause::new(
                vec![lit(0, false), lit(1, false)],
                ClauseWeight::Hard,
                ClauseOrigin::Formula(0),
            )
            .unwrap(),
        ];
        let mrf = HlMrf::from_clauses(2, &clauses, &PslConfig::default());
        assert_eq!(mrf.n_potentials(), 1);
        assert_eq!(mrf.n_constraints(), 1);
        assert!((mrf.objective(&[0.0, 0.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn csr_matches_value_types() {
        // The flattened factor forms agree with the standalone
        // HingePotential / LinearConstraint construction.
        let clauses = vec![
            GroundClause::new(
                vec![lit(0, false), lit(2, true)],
                ClauseWeight::Soft(1.5),
                ClauseOrigin::Evidence,
            )
            .unwrap(),
            GroundClause::new(
                vec![lit(1, false), lit(2, false)],
                ClauseWeight::Hard,
                ClauseOrigin::Formula(0),
            )
            .unwrap(),
        ];
        let mrf = HlMrf::from_clauses(3, &clauses, &PslConfig::default());
        let x = [0.25, 0.5, 0.75];
        let hinge = HingePotential::from_clause(&clauses[0].lits, 1.5);
        assert!((mrf.factor(0).violation(&x).max(0.0) - hinge.distance(&x)).abs() < 1e-12);
        assert!((mrf.objective(&x) - hinge.value(&x)).abs() < 1e-12);
        let cons = LinearConstraint::from_clause(&clauses[1].lits);
        assert!((mrf.constraint(0).violation(&x) - cons.violation(&x)).abs() < 1e-12);
        assert_eq!(mrf.norm2(0), 2.0);
        assert_eq!(mrf.slot_vars().len(), 4);
    }

    #[test]
    fn block_index_is_the_connected_components() {
        let soft = |lits: Vec<Lit>| {
            GroundClause::new(lits, ClauseWeight::Soft(1.0), ClauseOrigin::Evidence).unwrap()
        };
        let hard = |lits: Vec<Lit>| {
            GroundClause::new(lits, ClauseWeight::Hard, ClauseOrigin::Formula(0)).unwrap()
        };
        // Variables 1–5–3 chain up only through the last clause, which
        // joins two sets that already exist; 0 and 6 appear nowhere.
        let clauses = vec![
            hard(vec![lit(5, false), lit(1, false)]), // factor 4
            soft(vec![lit(4, true)]),                 // factor 0
            soft(vec![lit(3, true)]),                 // factor 1
            hard(vec![lit(2, false), lit(4, true)]),  // factor 5
            soft(vec![lit(1, true)]),                 // factor 2
            soft(vec![lit(7, true)]),                 // factor 3
            hard(vec![lit(3, false), lit(5, false)]), // factor 6
        ];
        let mrf = HlMrf::from_clauses(8, &clauses, &PslConfig::default());
        // Blocks are numbered by their first clause in the arena;
        // inside one, ids ascend, so potentials precede constraints.
        assert_eq!(mrf.n_blocks(), 3);
        assert_eq!(mrf.block_vars(0), [1, 3, 5]);
        assert_eq!(mrf.block_factors(0), [1, 2, 4, 6]);
        assert_eq!(mrf.block_vars(1), [2, 4]);
        assert_eq!(mrf.block_factors(1), [0, 5]);
        assert_eq!(mrf.block_vars(2), [7]);
        assert_eq!(mrf.block_factors(2), [3]);

        let empty = HlMrf::from_clauses(3, &[], &PslConfig::default());
        assert_eq!(empty.n_blocks(), 0);
    }

    /// A clause without literals makes the arena unpartitionable for
    /// the solve driver, but to the MRF it is a factor in no block: the
    /// other blocks and what ADMM and the rounding make of them are
    /// those of the arena without it.
    #[test]
    fn an_empty_clause_is_in_no_block() {
        let clauses = [
            (vec![lit(0, true)], ClauseWeight::Soft(2.0)),
            (vec![lit(0, false), lit(1, false)], ClauseWeight::Hard),
            (vec![lit(1, true)], ClauseWeight::Soft(0.5)),
            (vec![lit(2, true), lit(3, false)], ClauseWeight::Soft(1.0)),
        ];
        let build = |with_empty: bool| {
            let mut store = ClauseStore::new();
            for (at, (lits, weight)) in clauses.iter().enumerate() {
                if with_empty && at == 1 {
                    store.push_lits(&[], ClauseWeight::Soft(1.5), ClauseOrigin::Evidence);
                    store.push_lits(&[], ClauseWeight::Hard, ClauseOrigin::Formula(0));
                }
                store.push_lits(lits, *weight, ClauseOrigin::Evidence);
            }
            HlMrf::from_store(5, &store, &PslConfig::default())
        };
        let (with, without) = (build(true), build(false));
        assert_eq!(with.n_factors(), without.n_factors() + 2);
        assert_eq!(with.n_blocks(), 2);
        assert_eq!(without.n_blocks(), 2);
        for b in 0..2 {
            assert_eq!(with.block_vars(b), without.block_vars(b));
            let forms = |mrf: &HlMrf| -> Vec<(Vec<u32>, f64, bool)> {
                mrf.block_factors(b)
                    .iter()
                    .map(|&k| {
                        let f = mrf.factor(k as usize);
                        (f.vars.to_vec(), f.constant, mrf.is_potential(k as usize))
                    })
                    .collect()
            };
            assert_eq!(forms(&with), forms(&without));
        }
        let solver = crate::AdmmSolver::new(crate::AdmmConfig::default());
        let (a, b) = (solver.solve(&with), solver.solve(&without));
        assert_eq!(a.values, b.values);
        assert_eq!(
            (a.iterations, a.factor_updates),
            (b.iterations, b.factor_updates)
        );
        assert_eq!(
            crate::round_assignment(&with, &a.values),
            crate::round_assignment(&without, &b.values)
        );
    }
}
