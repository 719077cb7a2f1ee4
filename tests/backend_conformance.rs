//! Backend conformance: every solver registered in the default
//! [`SolverRegistry`] must resolve the paper's running example
//! (Figures 1, 4, 6 → Figure 7) to the **same conflict-free KG**.
//!
//! This is the contract a new `MapSolver` implementation signs up to by
//! registering: whatever its substrate (discrete MaxSAT, convex
//! relaxation, ...), on the Ranieri uTKG it must
//!
//! * be feasible,
//! * remove exactly fact (5) `(CR, coach, Napoli, [2001,2003])`,
//! * keep facts (1)–(4) verbatim,
//! * derive exactly `worksFor(CR, Palermo, [1984,1986])`, with a
//!   confidence within tolerance of 1 for PSL-style soft backends and
//!   the exact marginal of its component for discrete ones.

use tecore_core::registry::SolverRegistry;
use tecore_core::{Engine, TecoreConfig};
use tecore_datagen::standard::{paper_program, ranieri_utkg};

/// Kept facts rendered canonically (sorted display strings).
fn canonical_facts(graph: &tecore_kg::UtkGraph) -> Vec<String> {
    let mut facts: Vec<String> = graph
        .iter()
        .map(|(_, f)| f.display(graph.dict()).to_string())
        .collect();
    facts.sort();
    facts
}

#[test]
fn all_registered_backends_agree_on_running_example() {
    let registry = SolverRegistry::with_default_backends();
    let names: Vec<String> = registry.names().map(str::to_string).collect();
    assert_eq!(names.len(), 4, "four seed substrates registered");

    let mut reference: Option<Vec<String>> = None;
    for name in &names {
        let backend = registry.resolve(name).expect("registered");
        let soft = backend.caps().soft_values;
        let config = TecoreConfig {
            backend,
            ..TecoreConfig::default()
        };
        let r = Engine::with_config(ranieri_utkg(), paper_program(), config)
            .resolve()
            .unwrap_or_else(|e| panic!("{name}: {e}"));

        assert!(r.stats.feasible, "{name}: hard constraints satisfied");
        assert_eq!(r.stats.backend, *name);
        assert_eq!(r.stats.conflicting_facts, 1, "{name}: Napoli removed");
        assert_eq!(
            r.consistent.dict().resolve(r.removed[0].fact.object),
            "Napoli",
            "{name}"
        );
        assert_eq!(r.inferred.len(), 1, "{name}: one derived fact");
        let inferred = &r.inferred[0];
        assert_eq!(
            (
                inferred.subject.as_str(),
                inferred.predicate.as_str(),
                inferred.object.as_str(),
            ),
            ("CR", "worksFor", "Palermo"),
            "{name}"
        );
        // Discrete backends report the exact marginal of the derived
        // fact's component; PSL reports a soft truth value near 1.
        if soft {
            assert!(
                inferred.confidence > 0.9,
                "{name}: soft confidence {} within tolerance of 1",
                inferred.confidence
            );
        } else {
            let marginal = 0.657_594_642_314_038_3;
            assert!(
                (inferred.confidence - marginal).abs() < 1e-12,
                "{name}: {}",
                inferred.confidence
            );
        }

        // The surviving KG is identical across substrates.
        let kept = canonical_facts(&r.consistent);
        assert_eq!(kept.len(), 4, "{name}");
        match &reference {
            None => reference = Some(kept),
            Some(expected) => assert_eq!(&kept, expected, "{name} disagrees"),
        }
    }
}
