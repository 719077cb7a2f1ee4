//! A block solved inside a big problem ≡ the block solved alone.
//!
//! ADMM and the rounding repair run block by block over the HL-MRF's
//! block index. Nothing couples two blocks, so what either does to one
//! block must not depend on which other blocks share the arrays: over
//! random unions of small blocks, with variable ids and clause order
//! interleaved across blocks, the union's solution restricted to a
//! block is the solution of that block's clauses alone, and the
//! union's counters are the blocks' counters put together.

use proptest::prelude::*;
use tecore_ground::{AtomId, ClauseOrigin, ClauseWeight, GroundClause, Lit};
use tecore_psl::{round_assignment, AdmmConfig, AdmmSolver, HlMrf, PslConfig, PslResult};

/// One variable of a block: evidence weight, shuffle key of its
/// evidence clause, shuffle key of its global id, warm-start value.
type VarSpec = (f64, u32, u32, f64);
/// One clause between two variables of a block: kind (hard clash,
/// hard implication, soft clash), the two local variables (taken
/// modulo the block's size), soft weight, shuffle key.
type RelationSpec = (u8, u8, u8, f64, u32);
type BlockSpec = (Vec<VarSpec>, Vec<RelationSpec>);

fn arb_blocks() -> impl Strategy<Value = Vec<BlockSpec>> {
    let var = (0.2f64..4.0, 0u32..u32::MAX, 0u32..u32::MAX, 0.0f64..1.0);
    let relation = (0u8..3, 0u8..4, 0u8..4, 0.2f64..4.0, 0u32..u32::MAX);
    prop::collection::vec(
        (
            prop::collection::vec(var, 1..5),
            prop::collection::vec(relation, 0..5),
        ),
        1..41,
    )
}

/// One clause of the union: its shuffle key, the block it belongs to,
/// and its literals as `(block-local variable, positive)`.
struct BlockClause {
    key: u32,
    block: usize,
    lits: Vec<(u32, bool)>,
    weight: ClauseWeight,
}

/// The union as the solver sees it, and what is needed to cut one
/// block back out of it.
struct Union {
    /// Per block, its global variable ids in ascending order: position
    /// = the id the variable has when the block stands alone.
    vars: Vec<Vec<u32>>,
    /// Every clause, in union order.
    clauses: Vec<BlockClause>,
    /// A warm-start value per global variable.
    warm: Vec<f64>,
}

fn build(blocks: &[BlockSpec]) -> Union {
    // Global ids: all variables sorted by their key, so the blocks'
    // id ranges interleave; a block's local order is the ascending
    // order of its global ids, as in a component sub-store.
    let mut keyed: Vec<(u32, usize, usize)> = Vec::new();
    for (b, (vars, _)) in blocks.iter().enumerate() {
        for (i, var) in vars.iter().enumerate() {
            keyed.push((var.2, b, i));
        }
    }
    keyed.sort();
    let mut vars = vec![Vec::new(); blocks.len()];
    // (block, spec position) → block-local id
    let mut local = vec![[0u32; 4]; blocks.len()];
    let mut warm = Vec::with_capacity(keyed.len());
    for (global, &(_, b, i)) in keyed.iter().enumerate() {
        local[b][i] = vars[b].len() as u32;
        vars[b].push(global as u32);
        warm.push(blocks[b].0[i].3);
    }
    let mut clauses = Vec::new();
    for (block, (specs, relations)) in blocks.iter().enumerate() {
        let local = &local[block];
        for (i, &(weight, key, _, _)) in specs.iter().enumerate() {
            clauses.push(BlockClause {
                key,
                block,
                lits: vec![(local[i], true)],
                weight: ClauseWeight::Soft(weight),
            });
        }
        for &(kind, x, y, weight, key) in relations {
            let (x, y) = (usize::from(x) % specs.len(), usize::from(y) % specs.len());
            if x == y {
                continue;
            }
            let (x, y) = (local[x], local[y]);
            let (lits, weight) = match kind {
                0 => (vec![(x, false), (y, false)], ClauseWeight::Hard),
                1 => (vec![(x, false), (y, true)], ClauseWeight::Hard),
                _ => (vec![(x, false), (y, false)], ClauseWeight::Soft(weight)),
            };
            clauses.push(BlockClause {
                key,
                block,
                lits,
                weight,
            });
        }
    }
    clauses.sort_by_key(|c| c.key);
    Union {
        vars,
        clauses,
        warm,
    }
}

/// The clause over the variable ids `id` gives its local variables.
fn ground(clause: &BlockClause, id: impl Fn(u32) -> u32) -> GroundClause {
    let lits = clause
        .lits
        .iter()
        .map(|&(v, positive)| {
            if positive {
                Lit::pos(AtomId(id(v)))
            } else {
                Lit::neg(AtomId(id(v)))
            }
        })
        .collect();
    GroundClause::new(lits, clause.weight, ClauseOrigin::Evidence).expect("no tautology")
}

fn solve(mrf: &HlMrf, warm: Option<&[f64]>) -> (PslResult, Vec<bool>, bool) {
    let result = AdmmSolver::new(AdmmConfig::default()).solve_warm(mrf, warm);
    let (assignment, feasible) = round_assignment(mrf, &result.values);
    (result, assignment, feasible)
}

fn check(union: &Union, warm: bool) {
    let n: usize = union.vars.iter().map(Vec::len).sum();
    let all: Vec<GroundClause> = union
        .clauses
        .iter()
        .map(|c| ground(c, |v| union.vars[c.block][v as usize]))
        .collect();
    let mrf = HlMrf::from_clauses(n, &all, &PslConfig::default());
    let (whole, assignment, feasible) = solve(&mrf, warm.then_some(&union.warm[..]));

    let (mut iterations, mut updates, mut blocks, mut capped) = (0, 0, 0, 0);
    let mut all_feasible = true;
    for (b, vars) in union.vars.iter().enumerate() {
        let own: Vec<GroundClause> = union
            .clauses
            .iter()
            .filter(|c| c.block == b)
            .map(|c| ground(c, |v| v))
            .collect();
        let own_warm: Vec<f64> = vars.iter().map(|&v| union.warm[v as usize]).collect();
        let alone = HlMrf::from_clauses(vars.len(), &own, &PslConfig::default());
        let (part, part_assignment, part_feasible) = solve(&alone, warm.then_some(&own_warm[..]));
        for (local, &global) in vars.iter().enumerate() {
            let (inside, outside) = (whole.values[global as usize], part.values[local]);
            assert!(
                (inside - outside).abs() <= 1e-12,
                "block {b} variable {local}: {inside} in the union, {outside} alone"
            );
            assert_eq!(
                assignment[global as usize], part_assignment[local],
                "block {b} variable {local}: rounding differs"
            );
        }
        iterations = iterations.max(part.iterations);
        updates += part.factor_updates;
        blocks += part.blocks;
        capped += part.blocks_capped;
        all_feasible &= part_feasible;
        assert_eq!(part.converged, part.blocks_capped == 0);
    }
    assert_eq!(whole.iterations, iterations, "iterations = slowest block");
    assert_eq!(
        whole.factor_updates, updates,
        "factor updates = blocks' sum"
    );
    assert_eq!(whole.blocks, blocks);
    assert_eq!(whole.blocks_capped, capped);
    assert_eq!(whole.converged, capped == 0, "converged = every block did");
    assert_eq!(feasible, all_feasible);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn block_in_union_equals_block_alone(blocks in arb_blocks()) {
        let union = build(&blocks);
        check(&union, false);
        check(&union, true);
    }
}
