//! Discretisation of the PSL relaxation back to a boolean world.
//!
//! PSL's MAP state is continuous; TeCoRe must report a discrete
//! conflict-free KG. Rounding thresholds at `0.5`, then runs a bounded
//! greedy repair on any hard clause the rounding broke: within a
//! violated clause, flip the literal whose soft value sits closest to
//! the decision boundary (the least-confident commitment). On the
//! conflict structures TeCoRe produces (pairwise clashes), thresholding
//! is almost always already feasible; the repair is a safety net.
//!
//! A flip can only break constraints that share a variable with it —
//! constraints of its own block of the MRF's block index — so the
//! repair runs block by block, each with a budget from its own
//! constraint count: the work follows the blocks that need repairing,
//! and one block that cannot be repaired does not stop the others.

use crate::hlmrf::{FactorView, HlMrf};

/// Rounds soft values to booleans and repairs hard-clause violations.
/// Returns `(assignment, feasible)`.
pub fn round_assignment(mrf: &HlMrf, values: &[f64]) -> (Vec<bool>, bool) {
    let mut assignment: Vec<bool> = values.iter().map(|&v| v > 0.5).collect();
    let mut feasible = true;
    for b in 0..mrf.n_blocks() {
        let factors = mrf.block_factors(b);
        // Ascending factor ids: the block's constraints are its tail.
        let constraints = &factors[factors.partition_point(|&k| mrf.is_potential(k as usize))..];
        feasible &= repair_block(mrf, constraints, values, &mut assignment);
    }
    (assignment, feasible)
}

/// Bounded greedy repair of one block: while a constraint is violated,
/// take the lowest-numbered one and flip its least-confident literal
/// that un-violates it. Returns whether the block ends feasible.
fn repair_block(mrf: &HlMrf, constraints: &[u32], values: &[f64], assignment: &mut [bool]) -> bool {
    let first_violated = |assignment: &[bool]| {
        constraints
            .iter()
            .map(|&k| mrf.factor(k as usize))
            .find(|c| violated(c, assignment))
    };
    let max_repairs = constraints.len() * 4 + 16;
    for _ in 0..max_repairs {
        let Some(c) = first_violated(assignment) else {
            return true;
        };
        let mut best: Option<(f64, usize, bool)> = None; // (confidence margin, var, new value)
        for (&v, &coeff) in c.vars.iter().zip(c.coeffs) {
            let v = v as usize;
            // A positive coefficient means the constraint relaxes when
            // x_v decreases (and vice versa).
            let desired = coeff < 0.0;
            if assignment[v] == desired {
                continue;
            }
            let margin = (values[v] - 0.5).abs();
            if best.is_none_or(|(m, _, _)| margin < m) {
                best = Some((margin, v, desired));
            }
        }
        match best {
            Some((_, v, desired)) => assignment[v] = desired,
            None => return false, // cannot repair this clause
        }
    }
    first_violated(assignment).is_none()
}

/// Is the constraint violated in the boolean world `assignment`?
fn violated(c: &FactorView<'_>, assignment: &[bool]) -> bool {
    let mut d = c.constant;
    for (&v, &coeff) in c.vars.iter().zip(c.coeffs) {
        if assignment[v as usize] {
            d += coeff;
        }
    }
    d > 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hlmrf::PslConfig;
    use tecore_ground::{AtomId, ClauseOrigin, ClauseWeight, GroundClause, Lit};

    fn hard(lits: Vec<Lit>) -> GroundClause {
        GroundClause::new(lits, ClauseWeight::Hard, ClauseOrigin::Formula(0)).unwrap()
    }

    /// The repair as one loop over the whole problem — every time, the
    /// lowest-numbered violated constraint of all — which the
    /// block-by-block repair must reproduce on every feasible input.
    fn round_globally(mrf: &HlMrf, values: &[f64]) -> (Vec<bool>, bool) {
        let mut assignment: Vec<bool> = values.iter().map(|&v| v > 0.5).collect();
        let first_violated = |assignment: &[bool]| {
            (0..mrf.n_constraints())
                .map(|i| mrf.constraint(i))
                .find(|c| violated(c, assignment))
        };
        for _ in 0..mrf.n_constraints() * 4 + 16 {
            let Some(c) = first_violated(&assignment) else {
                return (assignment, true);
            };
            let flip = c
                .vars
                .iter()
                .zip(c.coeffs)
                .map(|(&v, &coeff)| (v as usize, coeff < 0.0))
                .filter(|&(v, desired)| assignment[v] != desired)
                .min_by(|a, b| {
                    let margin = |v: usize| (values[v] - 0.5).abs();
                    margin(a.0).total_cmp(&margin(b.0))
                });
            match flip {
                Some((v, desired)) => assignment[v] = desired,
                None => break,
            }
        }
        let feasible = first_violated(&assignment).is_none();
        (assignment, feasible)
    }

    /// [`round_assignment`], checked against the global loop.
    fn round(mrf: &HlMrf, values: &[f64]) -> (Vec<bool>, bool) {
        let by_block = round_assignment(mrf, values);
        assert_eq!(by_block, round_globally(mrf, values));
        by_block
    }

    #[test]
    fn clean_threshold() {
        let mrf = HlMrf::from_clauses(2, &[], &PslConfig::default());
        let (a, feasible) = round(&mrf, &[0.9, 0.1]);
        assert_eq!(a, vec![true, false]);
        assert!(feasible);
    }

    #[test]
    fn repairs_pairwise_clash() {
        // Both above 0.5 but hard ¬a ∨ ¬b: the one closer to 0.5 flips.
        let mrf = HlMrf::from_clauses(
            2,
            &[hard(vec![Lit::neg(AtomId(0)), Lit::neg(AtomId(1))])],
            &PslConfig::default(),
        );
        let (a, feasible) = round(&mrf, &[0.9, 0.6]);
        assert!(feasible);
        assert_eq!(a, vec![true, false]);
    }

    #[test]
    fn repairs_positive_requirement() {
        // Hard (a ∨ b) with both low: one must be raised to true.
        let mrf = HlMrf::from_clauses(
            2,
            &[hard(vec![Lit::pos(AtomId(0)), Lit::pos(AtomId(1))])],
            &PslConfig::default(),
        );
        let (a, feasible) = round(&mrf, &[0.2, 0.45]);
        assert!(feasible);
        assert!(a[1], "the closer-to-threshold literal flips up");
        assert!(!a[0]);
    }

    #[test]
    fn chain_repair() {
        // a true, hard a→b, b at 0.4: repair must raise b.
        let mrf = HlMrf::from_clauses(
            2,
            &[hard(vec![Lit::neg(AtomId(0)), Lit::pos(AtomId(1))])],
            &PslConfig::default(),
        );
        let (a, feasible) = round(&mrf, &[0.95, 0.4]);
        assert!(feasible);
        assert!(a[0] && a[1]);
    }

    #[test]
    fn infeasible_reported() {
        // (a) and (¬a): impossible.
        let mrf = HlMrf::from_clauses(
            1,
            &[
                hard(vec![Lit::pos(AtomId(0))]),
                hard(vec![Lit::neg(AtomId(0))]),
            ],
            &PslConfig::default(),
        );
        let (_, feasible) = round(&mrf, &[0.5]);
        assert!(!feasible);
    }

    #[test]
    fn blocks_with_interleaved_constraints_repair_independently() {
        // Two chains a→b→c over disjoint variables whose constraints
        // alternate by index (block 1, block 2, block 1, block 2).
        // Lifting b of the first chain breaks its second constraint,
        // but the lowest violated one is then the other chain's: the
        // global loop repairs block 1, block 2, block 1.
        let imp = |a: u32, b: u32| hard(vec![Lit::neg(AtomId(a)), Lit::pos(AtomId(b))]);
        let mrf = HlMrf::from_clauses(
            6,
            &[imp(0, 2), imp(1, 3), imp(2, 4), imp(3, 5)],
            &PslConfig::default(),
        );
        assert_eq!(mrf.n_blocks(), 2);
        assert_eq!(mrf.block_factors(0), [0, 2]);
        assert_eq!(mrf.block_factors(1), [1, 3]);
        let (a, feasible) = round(&mrf, &[0.9, 0.55, 0.4, 0.1, 0.45, 0.3]);
        assert!(feasible);
        // Block 1 lifts b then c; block 2 drops its barely-true a.
        assert_eq!(a, vec![true, false, true, false, true, false]);
    }
}
