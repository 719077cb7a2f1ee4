//! Planner conformance: join order must be invisible in the
//! grounding's *results*. For any graph and any program, grounding
//! under the planner's orders and under their reversals must produce
//! the same *arena* — the same atoms under the same ids, the same
//! clauses with the same literals under the same ids — and observe
//! the same number of matches: planning moves work, never answers.

#[path = "../../../testkit/src/grounding.rs"]
mod grounding;

use grounding::{
    arb_atom, arb_dense_facts, arb_facts, arb_formula, arb_join_program, build_graph, program_text,
};
use proptest::prelude::*;
use tecore_kg::UtkGraph;
use tecore_logic::LogicProgram;

use crate::compile::{CompiledProgram, JoinPlan};
use crate::grounder::ground_with;
use crate::{ground, AtomStore, ClauseOrigin};

/// The planner's orders, each reversed after its first step when
/// seeded (a delta rule binds its position first) and whole when
/// cold.
fn reversed(compiled: &mut CompiledProgram, store: &AtomStore) {
    super::plan(compiled, store);
    for cf in &mut compiled.formulas {
        let mut order = cf.cold.order();
        order.reverse();
        cf.cold = JoinPlan::new(&cf.body, &cf.checks, &order);
        for plan in &mut cf.seeded {
            let mut order = plan.order();
            order[1..].reverse();
            *plan = JoinPlan::new(&cf.body, &cf.checks, &order);
        }
    }
}

/// Grounds `src` against `graph` (its constants interned there first)
/// under the planner's orders and under their reversals, and asserts the
/// arenas and match counts agree.
fn assert_conformant(graph: &mut UtkGraph, src: &str) {
    let program = LogicProgram::parse(src).unwrap();
    crate::intern_constants(&program, graph.dict_mut());
    let graph = &*graph;
    let planned = ground(graph, &program).unwrap();
    let reversed = ground_with(graph, &program, reversed).unwrap();
    // Matches are emitted in body-position order whatever order they
    // were found in, so hidden atoms and clauses get the same ids.
    assert!(
        planned.store.iter().eq(reversed.store.iter()),
        "atom ids must not depend on join order (program: {src})"
    );
    assert_eq!(
        planned.clauses, reversed.clauses,
        "the clause arena must not depend on join order (program: {src})"
    );
    // Complete body matches are join-order-invariant too, per formula.
    for (p, r) in planned.plans.iter().zip(&reversed.plans) {
        assert_eq!(
            p.actual_matches, r.actual_matches,
            "match count drifted for formula {} (program: {src})",
            p.formula
        );
    }
}

/// A fixed program exercising rule chains (derived predicates have no
/// atoms when the joins are planned), join conditions and a hard
/// constraint.
const CHAIN_PROGRAM: &str = "\
    f1: quad(x, pred0, y, t) -> quad(x, derivedA, y, t) w = 2.5\n\
    f2: quad(x, derivedA, y, t) ^ quad(y, pred1, z, t2) -> quad(x, derivedB, z, t2) w = 1.5\n\
    c1: quad(x, pred2, y, t) ^ quad(x, pred2, z, t2) ^ y != z -> disjoint(t, t2) w = inf\n";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random graphs, fixed chained program: planned ≡ reversed.
    #[test]
    fn chain_program_is_plan_invariant(facts in arb_facts()) {
        assert_conformant(&mut build_graph(&facts), CHAIN_PROGRAM);
    }

    /// Random graphs AND random constraint bodies (1–3 atoms, mixed
    /// constants/variables, hard or soft): planned ≡ reversed.
    #[test]
    fn random_bodies_are_plan_invariant(
        facts in arb_facts(),
        body in prop::collection::vec(arb_atom(), 1..4),
        hard in prop::bool::ANY,
    ) {
        let weight = if hard { "inf" } else { "0.75" };
        let src = format!("{} -> false w = {weight}", body.join(" ^ "));
        assert_conformant(&mut build_graph(&facts), &src);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random graphs and whole random programs — rule chains, Allen
    /// and entity conditions, every kind of consequent, so windows and
    /// the violated-consequent check land on different steps under the
    /// two orders: planned ≡ reversed.
    #[test]
    fn random_programs_are_plan_invariant(
        facts in arb_facts(),
        formulas in prop::collection::vec(arb_formula(), 1..4),
    ) {
        assert_conformant(&mut build_graph(&facts), &program_text(&formulas));
    }

    /// Where the two orders really part ways (`grounding::join_program`),
    /// over dense facts, so that the many groundings are found in a
    /// different order: without the canonical emission order four cases
    /// in ten end in different arenas.
    #[test]
    fn two_sided_joins_are_plan_invariant(
        facts in arb_dense_facts(),
        src in arb_join_program(),
    ) {
        assert_conformant(&mut build_graph(&facts), &src);
    }
}

#[test]
fn empty_predicate_body_grounds_identically() {
    // "ghost" has no facts: the planner starts there, the reversed
    // order does not — either way, zero formula clauses.
    let mut graph = build_graph(&[(0, 0, 0, 1, 3, 9), (1, 0, 1, 2, 2, 8), (2, 1, 0, 5, 1, 7)]);
    let src = "quad(x, pred0, y, t) ^ quad(y, ghost, z, t2) -> false w = inf";
    assert_conformant(&mut graph, src);
    let program = LogicProgram::parse(src).unwrap();
    let g = ground(&graph, &program).unwrap();
    assert!(
        !g.clauses
            .iter()
            .any(|c| matches!(c.origin, ClauseOrigin::Formula(_))),
        "empty predicate prunes every body match"
    );
    assert_eq!(g.plans[0].actual_matches, 0);
}

#[test]
fn all_constant_body_grounds_identically() {
    let mut graph = build_graph(&[(0, 0, 0, 1, 5, 9), (1, 1, 1, 2, 4, 8)]);
    // No variables anywhere: every permutation checks the same two
    // point lookups.
    assert_conformant(
        &mut graph,
        "quad(subj0, pred0, obj0, [1,6]) ^ quad(subj1, pred1, obj1, [2,6]) -> false w = inf",
    );
}

#[test]
fn cross_product_body_grounds_identically() {
    // No shared variables: the full cross product of both extensions.
    let mut graph = build_graph(&[
        (0, 0, 0, 1, 3, 9),
        (1, 0, 1, 2, 2, 8),
        (2, 1, 0, 5, 1, 7),
        (3, 1, 2, 6, 2, 6),
    ]);
    let src = "quad(a, pred0, b, t) ^ quad(c, pred1, d, t2) -> false w = inf";
    assert_conformant(&mut graph, src);
    let program = LogicProgram::parse(src).unwrap();
    let g = ground(&graph, &program).unwrap();
    assert_eq!(g.plans[0].actual_matches, 4, "2 × 2 cross product");
}
