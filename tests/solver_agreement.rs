//! Cross-solver oracles: all four backends must agree on small random
//! conflict-resolution instances.
//!
//! * the exact MLN solver is the ground truth;
//! * CPI must reach the same objective (it is exact-preserving when the
//!   inner solver is exact — instances here stay under its exact
//!   threshold);
//! * MaxWalkSAT must find a feasible world, never better than optimal;
//! * PSL's rounded world must satisfy all hard constraints and remove a
//!   conflict-covering set.

use proptest::prelude::*;

use tecore_core::{Engine, SolverRegistry, TecoreConfig};
use tecore_kg::UtkGraph;
use tecore_logic::LogicProgram;
use tecore_temporal::Interval;
use tecore_testkit::Expect;

const PROGRAM: &str = "\
    cSpell: quad(x, playsFor, y, t) ^ quad(x, playsFor, z, t') ^ y != z \
        -> disjoint(t, t') w = inf\n\
    cBirth: quad(x, birthDate, y, t) ^ quad(x, birthDate, z, t') ^ overlap(t, t') \
        -> y = z w = inf\n";

/// A small random uTKG: a handful of players with possibly-overlapping
/// spells and duplicate birth dates.
fn arb_graph() -> impl Strategy<Value = UtkGraph> {
    let fact = (
        0u8..3,          // player
        0u8..4,          // club
        1970i64..1990,   // start
        0i64..6,         // len
        1u32..=99,       // confidence (%)
        prop::bool::ANY, // playsFor vs birthDate
    );
    prop::collection::vec(fact, 1..12).prop_map(|facts| {
        let mut g = UtkGraph::new();
        for (player, club, start, len, conf, is_spell) in facts {
            let subject = format!("p{player}");
            let conf = f64::from(conf) / 100.0;
            if is_spell {
                g.insert(
                    &subject,
                    "playsFor",
                    &format!("c{club}"),
                    Interval::new(start, start + len).unwrap(),
                    conf,
                )
                .unwrap();
            } else {
                g.insert(
                    &subject,
                    "birthDate",
                    &format!("{start}"),
                    Interval::new(start, 2017).unwrap(),
                    conf,
                )
                .unwrap();
            }
        }
        g
    })
}

fn run(graph: &UtkGraph, backend: &str) -> std::sync::Arc<tecore_core::Snapshot> {
    let config = TecoreConfig {
        backend: SolverRegistry::with_default_backends()
            .resolve(backend)
            .expect("registered backend"),
        ..TecoreConfig::default()
    };
    Engine::with_config(graph.clone(), LogicProgram::parse(PROGRAM).unwrap(), config)
        .resolve()
        .expect("resolves")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exact_and_cpi_same_objective(graph in arb_graph()) {
        let exact = run(&graph, "mln-exact");
        let cpi = run(&graph, "mln-cpi");
        prop_assert!(exact.stats.feasible);
        prop_assert!(cpi.stats.feasible);
        prop_assert!(
            (exact.stats.cost - cpi.stats.cost).abs() < 1e-6,
            "exact {} vs cpi {}", exact.stats.cost, cpi.stats.cost
        );
        // Same number of removals under equal tie-free costs.
        prop_assert_eq!(exact.removed.len(), cpi.removed.len());
    }

    #[test]
    fn walksat_feasible_never_below_exact(graph in arb_graph()) {
        let exact = run(&graph, "mln-exact");
        let walk = run(&graph, "mln-walksat");
        prop_assert!(walk.stats.feasible);
        let expect = Expect::for_backend(&tecore_testkit::config("mln-walksat"));
        expect.assert_cost("mln-walksat", walk.stats.cost, exact.stats.cost);
    }

    #[test]
    fn psl_feasible_and_conflict_covering(graph in arb_graph()) {
        let psl = run(&graph, "psl-admm");
        // Rounded PSL world satisfies every hard constraint.
        prop_assert!(psl.stats.feasible, "rounded PSL world violates hard clauses");
        // The surviving KG must be conflict-free: re-running on the
        // consistent subgraph finds nothing to remove.
        let again = run(&psl.consistent, "mln-exact");
        prop_assert_eq!(again.removed.len(), 0, "PSL repair left conflicts behind");
    }

    #[test]
    fn consistent_subgraph_is_stable(graph in arb_graph()) {
        // Idempotence: resolving the resolved graph changes nothing.
        let first = run(&graph, "mln-exact");
        let second = run(&first.consistent, "mln-exact");
        prop_assert_eq!(second.removed.len(), 0);
        prop_assert_eq!(second.consistent.len(), first.consistent.len());
    }
}
