//! Integration tests for conflict explanations and the programmatic
//! constraint builders (the editor's click-path), end to end.

use tecore_core::{Backend, Engine, TecoreConfig};
use tecore_datagen::standard::{paper_program, ranieri_utkg};
use tecore_logic::builder;
use tecore_logic::formula::Weight;
use tecore_logic::LogicProgram;
use tecore_temporal::{AllenRelation, AllenSet};

/// The running example's conflict comes with a full explanation naming
/// c2 and both participating facts — on every backend.
#[test]
fn running_example_explained() {
    for backend in [
        Backend::MlnExact,
        Backend::default(),
        Backend::default_psl(),
    ] {
        let name = backend.name();
        let config = TecoreConfig {
            backend: backend.into(),
            ..TecoreConfig::default()
        };
        let r = Engine::with_config(ranieri_utkg(), paper_program(), config)
            .resolve()
            .unwrap();
        assert_eq!(r.conflicts.len(), 1, "{name}");
        let e = &r.conflicts[0];
        assert_eq!(e.constraint, "c2", "{name}");
        assert_eq!(e.participants.len(), 2, "{name}");
        let joined = e.participants.join(" | ");
        assert!(joined.contains("Chelsea"), "{name}: {joined}");
        assert!(joined.contains("Napoli"), "{name}: {joined}");
        // Explanation is display-ready.
        assert!(e.to_string().contains("constraint c2 violated by:"));
    }
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
