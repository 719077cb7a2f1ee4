//! End-to-end integration tests: the paper's running example through
//! the public facade, on every backend.

use std::sync::Arc;
use tecore::prelude::*;

use tecore_core::pipeline::{ConfidenceMode, TecoreConfig};
use tecore_datagen::standard::{paper_constraints, paper_program, paper_rules, ranieri_utkg};
use tecore_temporal::Interval as Iv;

/// The registered backends, the discrete ones first.
const BACKENDS: [&str; 4] = ["mln-exact", "mln-walksat", "mln-cpi", "psl-admm"];

fn solver(name: &str) -> Arc<dyn MapSolver> {
    SolverRegistry::with_default_backends()
        .resolve(name)
        .unwrap()
}

/// Figure 7: facts (1)-(4) kept, fact (5) removed, worksFor derived.
#[test]
fn figure_7_on_every_backend() {
    for name in BACKENDS {
        let config = TecoreConfig {
            backend: solver(name),
            ..TecoreConfig::default()
        };
        let r = Engine::with_config(ranieri_utkg(), paper_program(), config)
            .resolve()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(r.stats.feasible, "{name}");
        assert_eq!(r.consistent.len(), 4, "{name}");
        assert_eq!(r.removed.len(), 1, "{name}");
        assert_eq!(
            r.consistent.dict().resolve(r.removed[0].fact.object),
            "Napoli",
            "{name}"
        );
        assert_eq!(
            r.removed[0].fact.interval,
            Iv::new(2001, 2003).unwrap(),
            "{name}"
        );
        // Figure 7 keeps exactly the other four statements.
        let kept: Vec<String> = r
            .consistent
            .iter()
            .map(|(_, f)| r.consistent.dict().resolve(f.object).to_string())
            .collect();
        for obj in ["Chelsea", "Leicester", "Palermo", "1951"] {
            assert!(kept.contains(&obj.to_string()), "{name}: missing {obj}");
        }
        // Inference expanded the KG (f1).
        assert_eq!(r.inferred.len(), 1, "{name}");
        assert_eq!(r.inferred[0].predicate, "worksFor", "{name}");
        assert_eq!(
            r.inferred[0].interval,
            Iv::new(1984, 1986).unwrap(),
            "{name}"
        );
    }
}

/// Rules alone derive but never remove; constraints alone remove but
/// never derive.
#[test]
fn rules_and_constraints_separate_roles() {
    let rules_only = Engine::new(ranieri_utkg(), paper_rules())
        .resolve()
        .unwrap();
    assert_eq!(rules_only.removed.len(), 0);
    assert_eq!(rules_only.inferred.len(), 1);

    let constraints_only = Engine::new(ranieri_utkg(), paper_constraints())
        .resolve()
        .unwrap();
    assert_eq!(constraints_only.removed.len(), 1);
    assert_eq!(constraints_only.inferred.len(), 0);
}

/// The rule chain f1 → f2 works through the facade with a locatedIn
/// fact present (deriving livesIn over the intersection).
#[test]
fn rule_chain_derives_lives_in() {
    let mut graph = ranieri_utkg();
    graph
        .insert(
            "Palermo",
            "locatedIn",
            "Sicily",
            Iv::new(1900, 2020).unwrap(),
            0.95,
        )
        .unwrap();
    let r = Engine::new(graph, paper_program()).resolve().unwrap();
    let lives_in: Vec<_> = r
        .inferred
        .iter()
        .filter(|f| f.predicate == "livesIn")
        .collect();
    assert_eq!(lives_in.len(), 1);
    assert_eq!(lives_in[0].object, "Sicily");
    assert_eq!(lives_in[0].interval, Iv::new(1984, 1986).unwrap());
}

/// f3 fires for a teenager: a player whose playsFor starts less than 20
/// years after birth becomes a TeenPlayer.
#[test]
fn teen_player_rule_fires() {
    let mut graph = UtkGraph::new();
    graph
        .insert("Kid", "playsFor", "Ajax", Iv::new(2010, 2012).unwrap(), 0.8)
        .unwrap();
    graph
        .insert(
            "Kid",
            "birthDate",
            "1994",
            Iv::new(1994, 2017).unwrap(),
            0.9,
        )
        .unwrap();
    let r = Engine::new(graph, paper_rules()).resolve().unwrap();
    assert!(
        r.inferred.iter().any(|f| f.object == "TeenPlayer"),
        "16-year-old must be classified: {:?}",
        r.inferred
    );

    // Ranieri (33 at Palermo) must NOT be a teen player.
    let r = Engine::new(ranieri_utkg(), paper_rules())
        .resolve()
        .unwrap();
    assert!(!r.inferred.iter().any(|f| f.object == "TeenPlayer"));
}

/// `P(worksFor(CR, Palermo) = 1)`: its component's four worlds weighed
/// by hand (`playsFor` at 0.5 → unit weight 0.2, f1 at 2.5, the hidden
/// prior at 0.05).
const RUNNING_EXAMPLE_MARGINAL: f64 = 0.657_594_642_314_038_3;

fn graded(backend: &str, threshold: f64) -> TecoreConfig {
    TecoreConfig {
        backend: solver(backend),
        confidence: ConfidenceMode::Marginal,
        threshold,
        ..TecoreConfig::default()
    }
}

/// Exact confidences are the same on every discrete backend and usable
/// for thresholding: the derived fact survives τ = 0.65 and not 0.66.
#[test]
fn marginal_confidence_thresholding() {
    for name in &BACKENDS[..3] {
        for (threshold, kept) in [(0.5, 1), (0.65, 1), (0.66, 0)] {
            let config = graded(name, threshold);
            let r = Engine::with_config(ranieri_utkg(), paper_program(), config)
                .resolve()
                .unwrap();
            assert_eq!(r.inferred.len(), kept, "{name} at {threshold}");
            assert_eq!(r.stats.thresholded_facts, 1 - kept);
            for fact in &r.inferred {
                assert!((fact.confidence - RUNNING_EXAMPLE_MARGINAL).abs() < 1e-12);
            }
        }
    }
}

/// Seventeen pairwise clashing coach spells of CR and the `worksFor`
/// each derives make one 34-atom component, above `MAX_GRADED_ATOMS`:
/// its accepted derived fact reads the MAP value and is counted. AV's
/// two-atom component reads its exact marginal: `coach` at 0.8 (unit
/// weight ln 4), f at 1.0 and the prior at 0.05.
#[test]
fn a_component_above_the_bound_reads_its_map_value() {
    let mut graph = tecore_kg::UtkGraph::new();
    for i in 0..17 {
        let spell = Iv::new(2000 + i64::from(i), 2020).unwrap();
        let confidence = 0.6 + 0.02 * f64::from(i);
        graph
            .insert("CR", "coach", &format!("Club{i}"), spell, confidence)
            .unwrap();
    }
    graph
        .insert("AV", "coach", "Roma", Iv::new(2000, 2004).unwrap(), 0.8)
        .unwrap();
    let program = LogicProgram::parse(
        "f: quad(x, coach, y, t) -> quad(x, worksFor, y, t) w = 1.0\n\
         c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf",
    )
    .unwrap();
    tecore_ground::intern_constants(&program, graph.dict_mut());
    let g = tecore_ground::ground(&graph, &program, &Default::default()).unwrap();
    let p = tecore_ground::Partition::of(&g.clauses, g.num_atoms());
    assert_eq!((p.len(), p.atoms(0).len()), (2, 34));
    let w = |cost: f64| (-cost).exp();
    let unit = 4f64.ln();
    let av = (w(unit + 0.05) + w(0.05)) / (w(unit) + w(unit + 0.05) + w(1.0) + w(0.05));
    for name in &BACKENDS[..3] {
        let r = Engine::with_config(graph.clone(), program.clone(), graded(name, 0.0))
            .resolve()
            .unwrap();
        let read = |subject: &str| -> Vec<f64> {
            let facts = r.inferred.iter().filter(|f| f.subject == subject);
            facts.map(|f| f.confidence).collect()
        };
        assert_eq!(
            read("CR"),
            [1.0],
            "{name}: one spell kept and graded by MAP"
        );
        assert_eq!(r.stats.ungraded_facts, 1, "{name}");
        assert!(
            matches!(read("AV")[..], [c] if (c - av).abs() < 1e-12),
            "{name}"
        );
    }
}

/// The expanded graph round-trips through the text format.
#[test]
fn expanded_graph_roundtrip() {
    let r = Engine::new(ranieri_utkg(), paper_program())
        .resolve()
        .unwrap();
    let expanded = r.expanded(); // materialised once on the snapshot
    assert_eq!(expanded.len(), 5);
    let text = tecore_kg::writer::write_graph(expanded);
    let reparsed = tecore_kg::parser::parse_graph(&text).unwrap();
    assert_eq!(reparsed.len(), expanded.len());
}

/// A second conflicting pair (bornIn, constraint c3) resolves in the
/// same run as the coach clash.
#[test]
fn multiple_constraint_classes_in_one_run() {
    let mut graph = ranieri_utkg();
    graph
        .insert("CR", "bornIn", "Rome", Iv::new(1951, 2017).unwrap(), 0.95)
        .unwrap();
    graph
        .insert("CR", "bornIn", "Naples", Iv::new(1951, 2017).unwrap(), 0.4)
        .unwrap();
    let r = Engine::new(graph, paper_program()).resolve().unwrap();
    assert!(r.stats.feasible);
    assert_eq!(r.removed.len(), 2, "{:?}", r.removed);
    let removed_objs: Vec<&str> = r
        .removed
        .iter()
        .map(|f| r.consistent.dict().resolve(f.fact.object))
        .collect();
    assert!(removed_objs.contains(&"Napoli"));
    assert!(removed_objs.contains(&"Naples"), "weaker bornIn loses");
    // Both constraints show up in the statistics.
    let names: Vec<&str> = r
        .stats
        .per_constraint
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    assert!(names.contains(&"c2"));
    assert!(names.contains(&"c3"));
}
