//! Semantics of the translation `map(θ(G), F ∪ C)` at the integration
//! level: inclusion dependencies, interval expressions in heads,
//! numerical conditions at their boundaries, and evidence merging.

use tecore_core::Engine;
use tecore_ground::ground;
use tecore_kg::parser::parse_graph;
use tecore_logic::LogicProgram;
use tecore_temporal::Interval;

/// A hard inclusion dependency forces its head atom true whenever the
/// body holds — the derived fact appears even against the closed-world
/// prior.
#[test]
fn inclusion_dependency_forces_derivation() {
    let graph = parse_graph("(a, playsFor, b, [1,5]) 0.9\n").unwrap();
    let program =
        LogicProgram::parse("quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = inf").unwrap();
    let r = Engine::new(graph, program).resolve().unwrap();
    assert!(r.stats.feasible);
    assert_eq!(r.inferred.len(), 1);
    assert_eq!(r.inferred[0].predicate, "worksFor");
}

/// Head interval expressions: `t ∩ t'` produces the exact intersection,
/// and groundings with empty intersections derive nothing.
#[test]
fn head_intersection_expression() {
    let graph = parse_graph(
        "(a, worksFor, acme, [2000,2010]) 0.9\n\
         (acme, locatedIn, Rome, [2005,2020]) 0.9\n\
         (b, worksFor, acme, [1990,1995]) 0.9\n", // disjoint from locatedIn
    )
    .unwrap();
    let program = LogicProgram::parse(
        "quad(x, worksFor, y, t) ^ quad(y, locatedIn, z, t') ^ overlap(t, t') \
         -> quad(x, livesIn, z, t ∩ t') w = 2.0",
    )
    .unwrap();
    let r = Engine::new(graph, program).resolve().unwrap();
    let lives: Vec<_> = r
        .inferred
        .iter()
        .filter(|f| f.predicate == "livesIn")
        .collect();
    assert_eq!(lives.len(), 1, "only the overlapping pair derives");
    assert_eq!(lives[0].subject, "a");
    assert_eq!(lives[0].interval, Interval::new(2005, 2010).unwrap());
}

/// Numerical conditions at the boundary: `t - t' < 20` is strict.
#[test]
fn numeric_condition_strict_boundary() {
    let graph = parse_graph(
        "(kid, playsFor, ajax, [2014,2016]) 0.9\n\
         (kid, birthDate, 1995, [1995,2017]) 0.9\n\
         (adult, playsFor, ajax, [2015,2016]) 0.9\n\
         (adult, birthDate, 1995, [1995,2017]) 0.9\n",
    )
    .unwrap();
    // kid starts at exactly 19 (< 20 holds); adult starts at exactly 20
    // (< 20 fails).
    let program = LogicProgram::parse(
        "quad(x, playsFor, y, t) ^ quad(x, birthDate, z, t') ^ t - t' < 20 \
         -> quad(x, type, TeenPlayer) w = 2.9",
    )
    .unwrap();
    let r = Engine::new(graph, program).resolve().unwrap();
    let teens: Vec<&str> = r
        .inferred
        .iter()
        .filter(|f| f.object == "TeenPlayer")
        .map(|f| f.subject.as_str())
        .collect();
    assert_eq!(teens, vec!["kid"]);
}

/// Duplicate statements merge into one atom whose evidence accumulates:
/// two independent 0.7-confidence extractions beat a single 0.8 rival.
#[test]
fn duplicate_evidence_accumulates() {
    let graph = parse_graph(
        "(p, coach, A, [2000,2004]) 0.7\n\
         (p, coach, A, [2000,2004]) 0.7\n\
         (p, coach, B, [2001,2003]) 0.8\n",
    )
    .unwrap();
    let program = LogicProgram::parse(
        "c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf",
    )
    .unwrap();
    let r = Engine::new(graph, program).resolve().unwrap();
    // Combined log-odds for A: 2 × 0.847 = 1.69 > B's 1.386: B loses,
    // and both A facts survive (they are one atom).
    assert_eq!(r.consistent.len(), 2);
    let removed_obj = r.consistent.dict().resolve(r.removed[0].fact.object);
    assert_eq!(removed_obj, "B");
}

/// Self-join constraints never pair a fact with itself: a single coach
/// spell triggers nothing even though `y != z` is its only guard.
#[test]
fn no_spurious_self_conflicts() {
    let graph = parse_graph("(p, coach, A, [2000,2004]) 0.9\n").unwrap();
    let program = LogicProgram::parse(
        "c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf",
    )
    .unwrap();
    let r = Engine::new(graph, program).resolve().unwrap();
    assert_eq!(r.removed.len(), 0);
    assert_eq!(r.conflicts.len(), 0);
}

/// Deleted (tombstoned) facts do not participate in grounding.
#[test]
fn tombstoned_facts_invisible_to_grounding() {
    let mut graph = parse_graph(
        "(p, coach, A, [2000,2004]) 0.9\n\
         (p, coach, B, [2001,2003]) 0.6\n",
    )
    .unwrap();
    let coach = graph.dict().lookup("coach").unwrap();
    let b_id = graph
        .facts_with_predicate(coach)
        .find(|(_, f)| graph.dict().resolve(f.object) == "B")
        .map(|(id, _)| id)
        .unwrap();
    graph.remove(b_id).unwrap();

    let program = LogicProgram::parse(
        "c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf",
    )
    .unwrap();
    let g = ground(&graph, &program).unwrap();
    assert_eq!(g.stats.evidence_atoms, 1);
    assert_eq!(g.stats.formula_clauses, 0);
}

/// Work, not time: on hub-heavy data a c2-shaped constraint finds the
/// second atom by probing the subject's start-sorted run with the
/// window of the first, so the candidates it examines follow what it
/// emits — not the square of every hub's run, which is what
/// enumerating same-subject pairs and testing `disjoint` last costs.
#[test]
fn hub_constraint_examines_what_it_emits_not_all_pairs() {
    use std::collections::HashMap;
    use tecore_datagen::config::SkewedConfig;
    use tecore_datagen::skewed::generate_skewed;

    let graph = generate_skewed(&SkewedConfig {
        total_facts: 20_000,
        predicates: 2,
        entity_skew: 1.1,
        ..SkewedConfig::default()
    });
    let program = LogicProgram::parse(
        "c2: quad(x, rel0, y, t) ^ quad(x, rel0, z, t') ^ y != z -> disjoint(t, t') w = inf",
    )
    .unwrap();
    let g = ground(&graph, &program).unwrap();

    let rel0 = graph.dict().lookup("rel0").unwrap();
    let outer = g.store.with_predicate(rel0).len();
    let mut runs: HashMap<_, usize> = HashMap::new();
    for &id in g.store.with_predicate(rel0) {
        *runs.entry(g.store.atom(id).subject).or_default() += 1;
    }
    let all_pairs: usize = runs.values().map(|n| n * n).sum();
    let hub = runs.values().copied().max().unwrap();
    assert!(hub > 500, "the data has hubs: longest run {hub}");

    let (examined, matches) = (g.stats.candidates_examined, g.stats.body_matches);
    assert!(
        matches > 0 && g.stats.formula_clauses == matches,
        "each clashing pair is found once, by the sweep of its run"
    );
    // Measured: 603 649 candidates for 13 730 outer atoms and 573 354
    // matches, against 6 559 048 same-subject pairs (1 534 203 and
    // 1 146 708 while each pair was found from both sides).
    assert!(
        examined <= 2 * (outer + matches),
        "{examined} candidates for {outer} outer atoms and {matches} matches"
    );
    assert!(
        all_pairs >= 4 * examined,
        "all pairs would be {all_pairs}, examined {examined}"
    );
}
