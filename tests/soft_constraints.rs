//! Soft (uncertain) constraints — §2: "we introduce a set of
//! constraints that become hard (deterministic) or soft (uncertain)
//! formulas in MLNs and PSL".
//!
//! A soft constraint may be violated at a cost: MAP inference weighs the
//! violation weight against the evidence weights of the facts it would
//! have to delete. These tests pin the crossover behaviour on both
//! backends.

use tecore_core::{Engine, SolverRegistry, TecoreConfig};
use tecore_kg::parser::parse_graph;
use tecore_kg::UtkGraph;
use tecore_logic::LogicProgram;

fn clash_graph() -> UtkGraph {
    parse_graph(
        "(CR, coach, Chelsea, [2000,2004]) 0.9\n\
         (CR, coach, Napoli, [2001,2003]) 0.88\n",
    )
    .unwrap()
}

fn soft_c2(weight: f64) -> LogicProgram {
    LogicProgram::parse(&format!(
        "c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = {weight}"
    ))
    .unwrap()
}

fn resolve(
    graph: UtkGraph,
    program: LogicProgram,
    backend: &str,
) -> std::sync::Arc<tecore_core::Snapshot> {
    let config = TecoreConfig {
        backend: SolverRegistry::with_default_backends()
            .resolve(backend)
            .unwrap(),
        ..TecoreConfig::default()
    };
    Engine::with_config(graph, program, config)
        .resolve()
        .unwrap()
}

/// A weak soft constraint is cheaper to violate than deleting either
/// strongly-supported fact: both facts survive.
#[test]
fn weak_soft_constraint_tolerates_the_clash() {
    for name in ["mln-exact", "mln-cpi"] {
        // Violation costs 0.5; deleting Napoli would cost
        // log-odds(0.88) ≈ 1.99. Keeping both is optimal.
        let r = resolve(clash_graph(), soft_c2(0.5), name);
        assert_eq!(r.removed.len(), 0, "{name}: weak constraint must yield");
        assert!(r.stats.feasible, "{name}");
        // The conflict is still *reported* (it exists in the input).
        assert_eq!(r.conflicts.len(), 1, "{name}");
        assert!(r.stats.cost > 0.0, "{name}: violation cost is paid");
    }
}

/// A strong soft constraint behaves like the hard one: the weaker fact
/// goes.
#[test]
fn strong_soft_constraint_removes_weaker_fact() {
    for name in ["mln-exact", "mln-cpi"] {
        // Violation costs 10 ≫ deleting Napoli (≈1.99).
        let r = resolve(clash_graph(), soft_c2(10.0), name);
        assert_eq!(r.removed.len(), 1, "{name}");
        assert_eq!(
            r.consistent.dict().resolve(r.removed[0].fact.object),
            "Napoli",
            "{name}"
        );
    }
}

/// The exact crossover: with violation weight between the two facts'
/// evidence weights, MAP deletes exactly the cheaper fact rather than
/// both or neither.
#[test]
fn crossover_deletes_only_the_cheaper_fact() {
    // Evidence weights: Chelsea ln(0.9/0.1) ≈ 2.197, Napoli
    // ln(0.88/0.12) ≈ 1.992. Violation weight 3.0 > both, so one
    // deletion (the cheaper) is optimal; deleting both would be worse.
    let r = resolve(clash_graph(), soft_c2(3.0), "mln-exact");
    assert_eq!(r.removed.len(), 1);
    assert_eq!(r.consistent.len(), 1);
    assert!(
        (r.stats.cost - 1.992).abs() < 0.02,
        "cost should be Napoli's evidence weight, got {}",
        r.stats.cost
    );
}

/// Soft constraints are PSL-expressible too: the hinge weight plays the
/// violation cost role.
#[test]
fn psl_soft_constraint_direction() {
    let weak = resolve(clash_graph(), soft_c2(0.5), "psl-admm");
    let strong = resolve(clash_graph(), soft_c2(10.0), "psl-admm");
    assert!(weak.removed.len() <= strong.removed.len());
    assert_eq!(strong.removed.len(), 1);
    assert_eq!(
        strong
            .consistent
            .dict()
            .resolve(strong.removed[0].fact.object),
        "Napoli"
    );
}

/// Mixed hard and soft constraints in one program: the hard one is
/// enforced unconditionally, the soft one only when cheap.
#[test]
fn mixed_hard_and_soft() {
    let mut graph = clash_graph();
    graph
        .insert(
            "CR",
            "bornIn",
            "Rome",
            tecore_temporal::Interval::new(1951, 2017).unwrap(),
            0.95,
        )
        .unwrap();
    graph
        .insert(
            "CR",
            "bornIn",
            "Naples",
            tecore_temporal::Interval::new(1951, 2017).unwrap(),
            0.9,
        )
        .unwrap();
    let program = LogicProgram::parse(
        // Soft coach-disjointness (cheap to violate) + hard bornIn
        // uniqueness.
        "c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = 0.5\n\
         c3: quad(x, bornIn, y, t) ^ quad(x, bornIn, z, t') ^ overlap(t, t') -> y = z w = inf\n",
    )
    .unwrap();
    let r = resolve(graph, program, "mln-exact");
    assert!(r.stats.feasible);
    // Only the hard constraint forces a removal (the weaker bornIn).
    assert_eq!(r.removed.len(), 1, "{:?}", r.removed);
    assert_eq!(
        r.consistent.dict().resolve(r.removed[0].fact.object),
        "Naples"
    );
}
