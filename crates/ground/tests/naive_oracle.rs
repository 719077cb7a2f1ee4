//! The grounding oracle: a deliberately naive re-grounder (nested loops
//! over all atoms, every condition evaluated on complete groundings and
//! the consequent last — `tecore_testkit::grounding::naive_ground`) against the planned,
//! windowed, semi-naive one. Cold `ground()` and
//! `apply_delta` after any edit sequence must produce the oracle's
//! formula clauses and its evidence / hidden atoms, on random programs
//! with Allen and entity conditions in bodies and denial, temporal,
//! entity and deriving consequents.

use proptest::prelude::*;
use tecore_ground::{ground, intern_constants, CompiledProgram};
use tecore_kg::FactId;
use tecore_logic::LogicProgram;
use tecore_testkit::grounding::{
    arb_dense_facts, arb_facts, arb_formula, arb_join_program, build_graph, insert_fact,
    naive_ground, program_text, summary,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cold_grounding_equals_the_naive_loop(
        sparse in arb_facts(),
        dense in arb_dense_facts(),
        formulas in prop::collection::vec(arb_formula(), 1..4),
    ) {
        let src = program_text(&formulas);
        let program = LogicProgram::parse(&src).unwrap();
        for facts in [sparse, dense] {
            let mut graph = build_graph(&facts);
            intern_constants(&program, graph.dict_mut());
            let expected = naive_ground(&graph, &program);
            let g = ground(&graph, &program).unwrap();
            prop_assert_eq!(&summary(&g, graph.dict()), &expected, "on\n{}", src);
        }
    }

    /// The shipped constraints' shape, every variation of it, cold and
    /// under deltas that add to and take from a dense graph.
    #[test]
    fn two_sided_joins_equal_the_naive_loop(
        facts in arb_dense_facts(),
        more in arb_dense_facts(),
        src in arb_join_program(),
    ) {
        let mut graph = build_graph(&facts);
        let program = LogicProgram::parse(&src).unwrap();
        intern_constants(&program, graph.dict_mut());
        let mut g = ground(&graph, &program).unwrap();
        prop_assert_eq!(&summary(&g, graph.dict()), &naive_ground(&graph, &program), "cold on\n{}", src);
        for (i, batch) in more.chunks(4).take(3).enumerate() {
            for &fact in batch {
                insert_fact(&mut graph, fact);
            }
            let live: Vec<FactId> = graph.iter().map(|(id, _)| id).collect();
            graph.remove(live[(i * 7) % live.len()]).unwrap();
            let delta = graph.since(g.epoch()).expect("history retained");
            g.apply_delta(&graph, &delta);
            prop_assert_eq!(&summary(&g, graph.dict()), &naive_ground(&graph, &program), "delta on\n{}", src);
        }
    }

    /// Three batches of edits — inserts, and removals of whatever is
    /// live — each applied as one delta to a grounding that started
    /// cold on the first facts.
    #[test]
    fn delta_grounding_equals_the_naive_loop(
        facts in arb_dense_facts(),
        batches in prop::collection::vec(
            prop::collection::vec((arb_facts(), 0usize..64), 0..2),
            3..4,
        ),
        formulas in prop::collection::vec(arb_formula(), 1..4),
    ) {
        let mut graph = build_graph(&facts);
        let src = program_text(&formulas);
        let program = LogicProgram::parse(&src).unwrap();
        intern_constants(&program, graph.dict_mut());
        let mut g = ground(&graph, &program).unwrap();
        for batch in batches {
            for (inserts, remove) in batch {
                for fact in inserts.into_iter().take(3) {
                    insert_fact(&mut graph, fact);
                }
                let live: Vec<FactId> = graph.iter().map(|(id, _)| id).collect();
                if !live.is_empty() {
                    graph.remove(live[remove % live.len()]).unwrap();
                }
            }
            let delta = graph.since(g.epoch()).expect("history retained");
            g.apply_delta(&graph, &delta);
            prop_assert_eq!(&summary(&g, graph.dict()), &naive_ground(&graph, &program), "on\n{}", src);
        }
    }
}

#[test]
fn the_generator_reaches_every_consequent_kind_and_windows() {
    // Not a property of the grounder: guards the suite itself against
    // a generator that quietly stops producing what it is there for.
    let mut rng = proptest::test_rng("generator coverage");
    let (mut temporal, mut entity, mut deriving, mut denial, mut allen_body) = (0, 0, 0, 0, 0);
    for _ in 0..400 {
        let text = tecore_testkit::grounding::formula_text(
            0,
            &Strategy::generate(&arb_formula(), &mut rng),
        );
        let program = LogicProgram::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        use tecore_logic::formula::Consequent;
        let f = &program.formulas()[0];
        match f.consequent {
            Consequent::Temporal(_) => temporal += 1,
            Consequent::EntityCmp { .. } => entity += 1,
            Consequent::Quad(_) => deriving += 1,
            Consequent::False => denial += 1,
            Consequent::Numeric(_) => {}
        }
        let in_body = |c: &tecore_logic::atom::Condition| {
            matches!(c, tecore_logic::atom::Condition::Temporal(_))
        };
        allen_body += usize::from(f.conditions.iter().any(in_body));
    }
    for (what, n) in [
        ("temporal consequents", temporal),
        ("entity consequents", entity),
        ("deriving consequents", deriving),
        ("denials", denial),
        ("Allen conditions in bodies", allen_body),
    ] {
        assert!(n >= 30, "only {n} {what} in 400 draws");
    }

    // The two-sided joins: self-joins over one predicate, and among
    // them the symmetric ones round one sweeps and the asymmetric ones
    // it joins.
    let (mut same_predicate, mut swept) = (0, 0);
    for _ in 0..400 {
        let text = Strategy::generate(&arb_join_program(), &mut rng);
        let program = LogicProgram::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        let body = &program.formulas()[0].body;
        if body[0].predicate != body[1].predicate {
            continue;
        }
        same_predicate += 1;
        let mut dict = tecore_kg::Dictionary::new();
        intern_constants(&program, &mut dict);
        let compiled = CompiledProgram::compile(&program, &dict).unwrap();
        swept += usize::from(compiled.formulas[0].symmetric);
    }
    for (what, n) in [
        ("symmetric self-joins", swept),
        ("asymmetric self-joins", same_predicate - swept),
    ] {
        assert!(n >= 20, "only {n} {what} in 400 join programs");
    }
}
