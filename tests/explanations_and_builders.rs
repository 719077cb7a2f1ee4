//! Integration tests for conflict explanations and the programmatic
//! constraint builders (the editor's click-path), end to end.

use tecore_core::explain::explain_conflicts;
use tecore_core::{Engine, SolverRegistry, TecoreConfig};
use tecore_datagen::standard::{paper_program, ranieri_utkg};
use tecore_ground::{ground, intern_constants, GroundConfig};
use tecore_logic::builder;
use tecore_logic::formula::Weight;
use tecore_logic::LogicProgram;
use tecore_temporal::{AllenRelation, AllenSet};

/// The running example's conflict comes with a full explanation naming
/// c2 and both participating facts — on every backend.
#[test]
fn running_example_explained() {
    let registry = SolverRegistry::with_default_backends();
    for name in ["mln-exact", "mln-cpi", "psl-admm"] {
        let config = TecoreConfig {
            backend: registry.resolve(name).unwrap(),
            ..TecoreConfig::default()
        };
        let r = Engine::with_config(ranieri_utkg(), paper_program(), config)
            .resolve()
            .unwrap();
        assert_eq!(r.conflicts.len(), 1, "{name}");
        let e = &r.conflicts[0];
        assert_eq!(&*e.constraint, "c2", "{name}");
        let clubs: Vec<&str> = e.participants.iter().map(|p| &*p.object).collect();
        assert_eq!(clubs, ["Chelsea", "Napoli"], "{name}");
        // Explanation is display-ready.
        assert!(e.to_string().contains("constraint c2 violated by:"));
    }
}

/// An explanation is kept as terms and renders, whenever it is read,
/// the text it always did: evidence with its confidence to two
/// decimals, a derived fact as `(derived)`, an unnamed constraint as
/// `formula#i` — also once the grounding it was read off is gone.
#[test]
fn explanations_render_the_text_they_did() {
    let mut program = paper_program();
    // Unnamed, and violated by a fact that f1 derives.
    program.extend(
        LogicProgram::parse(
            "quad(x, worksFor, y, t) ^ quad(x, coach, z, t') ^ before(t, t') -> false w = inf",
        )
        .unwrap(),
    );
    let unnamed = program.formulas().len() - 1;
    let mut graph = ranieri_utkg();
    intern_constants(&program, graph.dict_mut());
    let grounding = ground(&graph, &program, &GroundConfig::default()).unwrap();
    let explanations = explain_conflicts(&grounding, graph.dict());
    drop(grounding);

    let rendered: Vec<String> = explanations.iter().map(ToString::to_string).collect();
    let golden = [
        "constraint c2 violated by:\n  \
         (CR, coach, Chelsea, [2000,2004]) 0.90\n  \
         (CR, coach, Napoli, [2001,2003]) 0.60\n"
            .to_string(),
        format!(
            "constraint formula#{unnamed} violated by:\n  \
             (CR, coach, Chelsea, [2000,2004]) 0.90\n  \
             (CR, worksFor, Palermo, [1984,1986]) (derived)\n"
        ),
        format!(
            "constraint formula#{unnamed} violated by:\n  \
             (CR, coach, Leicester, [2015,2017]) 0.70\n  \
             (CR, worksFor, Palermo, [1984,1986]) (derived)\n"
        ),
        format!(
            "constraint formula#{unnamed} violated by:\n  \
             (CR, coach, Napoli, [2001,2003]) 0.60\n  \
             (CR, worksFor, Palermo, [1984,1986]) (derived)\n"
        ),
    ];
    assert_eq!(rendered, golden);
}

/// A program built entirely through the builder API behaves identically
/// to the parsed paper program on the running example.
#[test]
fn builder_program_equivalent_to_parsed() {
    let mut built = LogicProgram::new();
    built.push(builder::inclusion(
        "f1",
        "playsFor",
        "worksFor",
        Weight::Soft(2.5),
    ));
    built.push(builder::temporal_order(
        "c1",
        "birthDate",
        "deathDate",
        AllenSet::from_relation(AllenRelation::Before),
    ));
    built.push(builder::disjointness("c2", "coach"));
    built.push(builder::functional("c3", "bornIn"));
    built.validate().unwrap();

    let r = Engine::new(ranieri_utkg(), built).resolve().unwrap();
    assert_eq!(r.stats.conflicting_facts, 1);
    assert_eq!(
        r.consistent.dict().resolve(r.removed[0].fact.object),
        "Napoli"
    );
    assert_eq!(r.inferred.len(), 1);
    assert_eq!(r.inferred[0].predicate, "worksFor");
}

/// Explanations enumerate *all* conflicts of the input, not just the
/// removed side: a three-way clash yields three pairwise explanations.
#[test]
fn three_way_clash_fully_enumerated() {
    let mut graph = tecore_kg::UtkGraph::new();
    for (club, conf) in [("A", 0.9), ("B", 0.6), ("C", 0.5)] {
        graph
            .insert(
                "p",
                "coach",
                club,
                tecore_temporal::Interval::new(2000, 2005).unwrap(),
                conf,
            )
            .unwrap();
    }
    let mut program = LogicProgram::new();
    program.push(builder::disjointness("c2", "coach"));
    let r = Engine::new(graph, program).resolve().unwrap();
    // Pairwise violations: AB, AC, BC.
    assert_eq!(r.conflicts.len(), 3);
    // MAP keeps only the strongest spell.
    assert_eq!(r.consistent.len(), 1);
    assert_eq!(r.removed.len(), 2);
    assert_eq!(r.stats.per_constraint, vec![("c2".to_string(), 3)]);
}
