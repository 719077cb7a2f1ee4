//! Component-solving conformance: the conflict-component partition
//! must be a *true partition* of the live clauses, component-wise MAP
//! resolution must agree with the monolithic path on **every
//! registered backend**, and the incremental engine must re-solve only
//! the components a delta dirtied while still matching the cold
//! oracle.
//!
//! This is the contract that makes the component driver a pure
//! optimisation: clauses only interact through shared atoms, so
//! per-component optima compose into the global optimum — never a
//! different repair, surviving KG, or derived-fact set.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use tecore_core::registry::SolverRegistry;
use tecore_core::resolution::Resolution;
use tecore_core::{Engine, TecoreConfig};
use tecore_ground::{
    evaluate_world, ground, AtomId, ClauseId, ClauseStore, ComponentMode, GroundConfig, MapSolver,
    MapState, Partition, SolveError, SolverCaps,
};
use tecore_kg::{FactId, UtkGraph};
use tecore_logic::LogicProgram;
use tecore_temporal::Interval;

/// A rule (hidden-atom derivation) plus a disjointness constraint
/// (conflict clauses), so components mix evidence units, priors,
/// derivations and clashes.
fn program() -> LogicProgram {
    LogicProgram::parse(
        "f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5\n\
         c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf\n",
    )
    .expect("static program parses")
}

/// One scripted fact: subject cluster, relation kind, object, interval,
/// confidence step. Distinct subjects yield distinct conflict
/// components (the c2 constraint only couples facts sharing a
/// subject).
type FactSpec = (u8, bool, u8, i64, i64, u8);

fn arb_facts() -> impl Strategy<Value = Vec<FactSpec>> {
    prop::collection::vec(
        (
            0u8..4,
            prop::bool::ANY,
            0u8..4,
            1990i64..2020,
            0i64..6,
            0u8..40,
        ),
        1..14,
    )
}

/// The graph `facts` describe, with [`program`]'s constants interned.
fn build_graph(facts: &[FactSpec]) -> UtkGraph {
    let mut graph = UtkGraph::new();
    tecore_ground::intern_constants(&program(), graph.dict_mut());
    for (serial, (subject, relation, object, start, len, conf_step)) in facts.iter().enumerate() {
        // Distinct, irregular confidences keep MAP optima unique, so
        // heuristic and exact backends agree on the repair.
        let conf = 0.52 + f64::from(*conf_step) * 0.011 + (serial % 7) as f64 * 0.0013;
        let relation = if *relation { "coach" } else { "playsFor" };
        graph
            .insert(
                &format!("s{subject}"),
                relation,
                &format!("o{object}"),
                Interval::new(*start, *start + *len).expect("len >= 0"),
                conf,
            )
            .expect("valid insert");
    }
    graph
}

/// The comparable essence of a resolution: sorted kept / removed /
/// inferred facts.
fn canonical(r: &Resolution) -> (Vec<String>, Vec<String>, Vec<String>) {
    let dict = r.consistent.dict();
    let mut kept: Vec<String> = r
        .consistent
        .iter()
        .map(|(_, f)| f.display(dict).to_string())
        .collect();
    kept.sort();
    let mut removed: Vec<String> = r
        .removed
        .iter()
        .map(|rf| rf.fact.display(dict).to_string())
        .collect();
    removed.sort();
    let mut inferred: Vec<String> = r
        .inferred
        .iter()
        .map(|f| {
            format!(
                "({}, {}, {}, {})",
                f.subject, f.predicate, f.object, f.interval
            )
        })
        .collect();
    inferred.sort();
    (kept, removed, inferred)
}

fn config_with_mode(registry: &SolverRegistry, name: &str, mode: ComponentMode) -> TecoreConfig {
    TecoreConfig {
        backend: registry.resolve(name).expect("registered backend"),
        component_mode: mode,
        ..TecoreConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The partition is a true partition of the live clauses: every
    /// live clause lands in exactly one component, every literal of a
    /// component's clause names one of that component's atoms (no
    /// cross-component sharing), member lists are disjoint, and local
    /// ids are the dense ascending order of the member atoms.
    #[test]
    fn partition_is_a_true_partition(facts in arb_facts()) {
        let graph = build_graph(&facts);
        let mut grounding = ground(&graph, &program(), &GroundConfig::default())
            .expect("grounds");
        let partition = grounding.partition_components();
        prop_assert!(!partition.is_unpartitionable());

        let live: HashSet<u32> = grounding.clauses.iter().map(|c| c.id).collect();
        let mut clause_seen: HashSet<u32> = HashSet::new();
        let mut atom_seen: HashSet<u32> = HashSet::new();
        for comp in 0..partition.len() {
            let members: HashSet<u32> =
                partition.atoms(comp).iter().map(|a| a.0).collect();
            prop_assert!(!members.is_empty(), "component without atoms");
            for &atom in &members {
                prop_assert!(atom_seen.insert(atom), "atom in two components");
            }
            // Local ids are dense and ascend with global ids.
            let view = partition.view(&grounding.clauses, comp);
            for (local, &atom) in partition.atoms(comp).iter().enumerate() {
                prop_assert_eq!(view.local(atom) as usize, local);
                prop_assert_eq!(view.global(local as u32), atom);
            }
            for &ci in partition.clause_ids(comp) {
                prop_assert!(live.contains(&ci), "dead clause in partition");
                prop_assert!(clause_seen.insert(ci), "clause in two components");
                for lit in grounding.clauses.lits(ci) {
                    prop_assert!(
                        members.contains(&lit.atom.0),
                        "clause literal outside its component"
                    );
                }
            }
        }
        prop_assert_eq!(
            clause_seen.len(),
            live.len(),
            "every live clause in exactly one component"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Component-wise resolve ≡ monolithic resolve over random KGs, on
    /// all four backends: same repair, same surviving and derived
    /// facts, same MAP cost and feasibility.
    #[test]
    fn component_resolve_matches_monolithic_on_all_backends(facts in arb_facts()) {
        let registry = SolverRegistry::with_default_backends();
        let names: Vec<String> = registry.names().map(str::to_string).collect();
        prop_assert_eq!(names.len(), 4, "all four substrates under test");
        let graph = build_graph(&facts);
        for name in &names {
            let by_components = Engine::with_config(
                graph.clone(),
                program(),
                config_with_mode(&registry, name, ComponentMode::Components),
            )
            .resolve()
            .expect("component resolve");
            let monolithic = Engine::with_config(
                graph.clone(),
                program(),
                config_with_mode(&registry, name, ComponentMode::Monolithic),
            )
            .resolve()
            .expect("monolithic resolve");
            prop_assert_eq!(
                canonical(by_components.resolution()),
                canonical(monolithic.resolution()),
                "{}: repairs diverge",
                name
            );
            prop_assert_eq!(
                by_components.stats.feasible,
                monolithic.stats.feasible,
                "{}: feasibility diverges",
                name
            );
            prop_assert!(
                (by_components.stats.cost - monolithic.stats.cost).abs() < 1e-6,
                "{}: cost {} vs {}",
                name,
                by_components.stats.cost,
                monolithic.stats.cost
            );
            prop_assert_eq!(
                monolithic.stats.components, 0,
                "{}: monolithic mode must not partition", name
            );
        }
    }
}

/// One scripted edit (mirrors the incremental-conformance suite).
#[derive(Debug, Clone)]
enum Op {
    Insert(FactSpec),
    Remove { index: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    (
        0u8..5,
        (
            0u8..4,
            prop::bool::ANY,
            0u8..4,
            1990i64..2020,
            0i64..6,
            0u8..40,
        ),
        0usize..64,
    )
        .prop_map(|(kind, spec, index)| {
            if kind < 3 {
                Op::Insert(spec)
            } else {
                Op::Remove { index }
            }
        })
}

fn apply_op(engine: &mut Engine, op: &Op, serial: &mut u32) {
    match op {
        Op::Insert((subject, relation, object, start, len, conf_step)) => {
            *serial += 1;
            let conf = 0.52 + f64::from(*conf_step) * 0.011 + f64::from(*serial % 7) * 0.0013;
            let relation = if *relation { "coach" } else { "playsFor" };
            engine
                .insert_fact(
                    &format!("s{subject}"),
                    relation,
                    &format!("o{object}"),
                    Interval::new(*start, *start + *len).expect("len >= 0"),
                    conf,
                )
                .expect("valid insert");
        }
        Op::Remove { index } => {
            let live: Vec<FactId> = engine.graph().iter().map(|(id, _)| id).collect();
            if live.is_empty() {
                return;
            }
            engine
                .remove_fact(live[index % live.len()])
                .expect("live fact removes");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random insert/remove sequences through the *component-wise*
    /// incremental engine: at every checkpoint the result equals a cold
    /// monolithic resolve of the final graph, and the engine never
    /// re-solves more components than the partition holds (the dirty
    /// set bounds the work).
    #[test]
    fn incremental_component_sequences_match_cold_resolve(
        base in arb_facts(),
        ops in prop::collection::vec(arb_op(), 1..12),
    ) {
        let registry = SolverRegistry::with_default_backends();
        for name in ["mln-exact", "mln-walksat", "mln-cpi", "psl-admm"] {
            let graph = build_graph(&base);
            let mut engine = Engine::with_config(
                graph,
                program(),
                config_with_mode(&registry, name, ComponentMode::Components),
            );
            engine.resolve_incremental().expect("prime");
            let mut serial = 0u32;
            for (i, op) in ops.iter().enumerate() {
                apply_op(&mut engine, op, &mut serial);
                if (i + 1) % 4 != 0 && i + 1 != ops.len() {
                    continue;
                }
                let incremental = engine.resolve_incremental().expect("incremental");
                prop_assert!(
                    incremental.stats.components_solved <= incremental.stats.components.max(1),
                    "{}: solved {} of {} components",
                    name,
                    incremental.stats.components_solved,
                    incremental.stats.components
                );
                let cold = Engine::with_config(
                    engine.graph().clone(),
                    program(),
                    config_with_mode(&registry, name, ComponentMode::Monolithic),
                )
                .resolve()
                .expect("cold oracle");
                prop_assert_eq!(
                    canonical(incremental.resolution()),
                    canonical(cold.resolution()),
                    "{}: incremental component resolve diverges from cold",
                    name
                );
                prop_assert!(
                    (incremental.stats.cost - cold.stats.cost).abs() < 1e-6,
                    "{}: cost {} vs cold {}",
                    name,
                    incremental.stats.cost,
                    cold.stats.cost
                );
            }
        }
    }
}

/// One scripted edit against a bare graph, as [`apply_op`] makes it
/// against an engine.
fn apply_op_to_graph(graph: &mut UtkGraph, op: &Op, serial: &mut u32) {
    match op {
        Op::Insert((subject, relation, object, start, len, conf_step)) => {
            *serial += 1;
            let conf = 0.52 + f64::from(*conf_step) * 0.011 + f64::from(*serial % 7) * 0.0013;
            let relation = if *relation { "coach" } else { "playsFor" };
            graph
                .insert(
                    &format!("s{subject}"),
                    relation,
                    &format!("o{object}"),
                    Interval::new(*start, *start + *len).expect("len >= 0"),
                    conf,
                )
                .expect("valid insert");
        }
        Op::Remove { index } => {
            let live: Vec<FactId> = graph.iter().map(|(id, _)| id).collect();
            if !live.is_empty() {
                graph
                    .remove(live[index % live.len()])
                    .expect("live fact removes");
            }
        }
    }
}

/// A partition's components as `(atoms, clause ids)` rows, all of them
/// or the dirty ones.
fn rows(partition: &Partition, only_dirty: bool) -> Vec<(Vec<AtomId>, Vec<ClauseId>)> {
    (0..partition.len())
        .filter(|&i| !only_dirty || partition.is_dirty(i))
        .map(|i| {
            (
                partition.atoms(i).to_vec(),
                partition.clause_ids(i).to_vec(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whatever deltas emitted, retracted and churned: the dirty-only
    /// pass returns exactly the components a fresh full pass marks
    /// dirty — same atoms, same clause ids, same order —, the labels in
    /// use number the components of the full pass, and after the dirty
    /// components are "solved" (every member atom may move, nothing
    /// else does) the ledger's totals are `evaluate_world`'s over the
    /// whole arena.
    #[test]
    fn dirty_pass_and_ledger_match_full_pass_and_whole_arena(
        base in arb_facts(),
        steps in prop::collection::vec(
            (prop::collection::vec(arb_op(), 0..4), prop::bool::ANY),
            1..10,
        ),
        seed in 1u64..u64::MAX,
    ) {
        let config = GroundConfig::default();
        let mut graph = build_graph(&base);
        let mut grounding = ground(&graph, &program(), &config).expect("grounds");
        let mut world: Vec<bool> = Vec::new();
        let mut bits = seed;
        let mut serial = 0u32;
        // The first round has no edits: a fresh index, everything dirty.
        let rounds = std::iter::once((&[][..], false))
            .chain(steps.iter().map(|(ops, churn)| (ops.as_slice(), *churn)));
        for (round, (ops, churn)) in rounds.enumerate() {
            for op in ops {
                apply_op_to_graph(&mut graph, op, &mut serial);
            }
            let first = graph.iter().next().map(|(_, fact)| *fact);
            if let (true, Some(fact)) = (churn, first) {
                // Re-state a live fact and take it back: nets to
                // nothing, but aliased a live atom on the way.
                let id = graph.insert_fact(fact);
                graph.remove(id).expect("just inserted");
            }
            let delta = graph.since(grounding.epoch()).expect("log retained");
            grounding.apply_delta(&graph, &delta, &config);

            // Flagged atoms the delta left in no clause (killed ones):
            // the dirty pass looks at each once and finds nothing.
            let in_a_clause: HashSet<u32> = grounding
                .clauses
                .iter()
                .flat_map(|c| c.lits.iter().map(|l| l.atom.0))
                .collect();
            let stranded = grounding.component_index().map_or(0, |index| {
                (0..grounding.num_atoms() as u32)
                    .filter(|a| index.is_atom_dirty(AtomId(*a)) && !in_a_clause.contains(a))
                    .count()
            });
            let mut reference = grounding.clone();
            let full = reference.partition_components();
            let dirty = grounding.partition_dirty_components();
            prop_assert!(!full.is_unpartitionable());
            prop_assert_eq!(rows(&dirty, false), rows(&full, true), "round {}", round);
            prop_assert_eq!(dirty.dirty_count(), dirty.len());
            let index = grounding.component_index().expect("partitioned");
            prop_assert_eq!(index.component_count(), full.len(), "round {}", round);
            let members: usize = (0..dirty.len()).map(|i| dirty.atoms(i).len()).sum();
            prop_assert_eq!(dirty.atoms_visited(), members + stranded, "round {}", round);

            world.resize(grounding.num_atoms(), false);
            for i in 0..dirty.len() {
                for atom in dirty.atoms(i) {
                    bits ^= bits << 13;
                    bits ^= bits >> 7;
                    bits ^= bits << 17;
                    world[atom.index()] = bits & 1 == 1;
                }
            }
            let (cost, hard) = grounding.commit_components(&dirty, &world);
            let (expected_cost, expected_hard) = evaluate_world(&grounding.clauses, &world);
            prop_assert_eq!(hard, expected_hard, "round {}", round);
            prop_assert!(
                (cost - expected_cost).abs() <= 1e-9 * expected_cost.abs().max(1.0),
                "round {}: ledger {} vs arena {}",
                round,
                cost,
                expected_cost
            );
            prop_assert!(!grounding.component_index().expect("kept").any_dirty());
        }
    }
}

/// Six independent subject clusters, each with its own coach clash.
fn clustered_graph() -> UtkGraph {
    let mut graph = UtkGraph::new();
    for s in 0..6 {
        graph
            .insert(
                &format!("p{s}"),
                "coach",
                &format!("a{s}"),
                Interval::new(2000, 2006).unwrap(),
                0.9 - f64::from(s) * 0.01,
            )
            .unwrap();
        graph
            .insert(
                &format!("p{s}"),
                "coach",
                &format!("b{s}"),
                Interval::new(2002, 2004).unwrap(),
                0.6 + f64::from(s) * 0.01,
            )
            .unwrap();
    }
    graph
}

/// After a localised edit, only the touched components are re-solved;
/// the clean majority is spliced from the cached state — and the
/// result still matches the cold oracle.
#[test]
fn only_dirty_components_are_resolved_on_deltas() {
    let registry = SolverRegistry::with_default_backends();
    let mut engine = Engine::with_config(
        clustered_graph(),
        program(),
        config_with_mode(&registry, "mln-walksat", ComponentMode::Components),
    );
    let primed = engine.resolve_incremental().expect("prime");
    assert!(
        primed.stats.components >= 6,
        "six clusters partition into at least six components, got {}",
        primed.stats.components
    );
    assert_eq!(
        primed.stats.components_solved, primed.stats.components,
        "cold prime solves everything"
    );

    // A third coach spell for cluster 0 dirties exactly that cluster.
    engine
        .insert_fact(
            "p0",
            "coach",
            "c0",
            Interval::new(2001, 2003).unwrap(),
            0.71,
        )
        .expect("insert");
    let after_edit = engine.resolve_incremental().expect("incremental");
    assert!(
        after_edit.stats.components_solved < after_edit.stats.components,
        "a local edit must not re-solve every component ({} of {})",
        after_edit.stats.components_solved,
        after_edit.stats.components
    );
    assert!(
        after_edit.stats.components_solved >= 1,
        "the touched component re-solves"
    );
    let cold = Engine::with_config(
        engine.graph().clone(),
        program(),
        config_with_mode(&registry, "mln-walksat", ComponentMode::Monolithic),
    )
    .resolve()
    .expect("cold oracle");
    assert_eq!(
        canonical(after_edit.resolution()),
        canonical(cold.resolution())
    );

    // An empty delta re-solves nothing at all.
    let noop = engine.resolve_incremental().expect("noop resolve");
    assert_eq!(noop.stats.components_solved, 0, "clean components splice");
    assert_eq!(canonical(noop.resolution()), canonical(cold.resolution()));
}

/// The `Delta::churned` bookkeeping end to end: a fact inserted and
/// removed again before the next resolve nets out of the delta, but
/// because its statement aliased a live atom, that atom's component is
/// conservatively re-solved instead of splicing possibly-stale cached
/// state. (Before `Delta::churned` existed this resolve spliced every
/// component — `components_solved` was 0.)
#[test]
fn same_batch_churn_dirties_the_aliased_component() {
    let registry = SolverRegistry::with_default_backends();
    let mut engine = Engine::with_config(
        clustered_graph(),
        program(),
        config_with_mode(&registry, "mln-walksat", ComponentMode::Components),
    );
    let primed = engine.resolve_incremental().expect("prime");
    let total = primed.stats.components;

    // Re-assert cluster 3's existing statement, then retract it again:
    // the net delta is empty, but the statement revived a live atom.
    let id = engine
        .insert_fact(
            "p3",
            "coach",
            "a3",
            Interval::new(2000, 2006).unwrap(),
            0.87,
        )
        .expect("insert");
    engine.remove_fact(id).expect("remove");
    let after_churn = engine.resolve_incremental().expect("churn resolve");
    assert_eq!(
        after_churn.stats.components, total,
        "structure unchanged by net-zero churn"
    );
    assert_eq!(
        after_churn.stats.components_solved, 1,
        "exactly the aliased statement's component re-solves"
    );
    let cold = Engine::with_config(
        engine.graph().clone(),
        program(),
        config_with_mode(&registry, "mln-walksat", ComponentMode::Monolithic),
    )
    .resolve()
    .expect("cold oracle");
    assert_eq!(
        canonical(after_churn.resolution()),
        canonical(cold.resolution())
    );
}

/// `Auto` mode on a single-component problem falls back to one
/// monolithic solve (and reports it as such).
#[test]
fn auto_mode_falls_back_on_single_component() {
    let registry = SolverRegistry::with_default_backends();
    let mut graph = UtkGraph::new();
    graph
        .insert("x", "coach", "a", Interval::new(2000, 2005).unwrap(), 0.9)
        .unwrap();
    graph
        .insert("x", "coach", "b", Interval::new(2001, 2004).unwrap(), 0.6)
        .unwrap();
    let snapshot = Engine::with_config(
        graph,
        LogicProgram::parse(
            "c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf",
        )
        .unwrap(),
        config_with_mode(&registry, "mln-walksat", ComponentMode::Auto),
    )
    .resolve()
    .expect("resolve");
    // One clash + two evidence units = one component: Auto solves it
    // monolithically and the stats say so.
    assert_eq!(snapshot.stats.components, 0);
    assert_eq!(snapshot.stats.conflicting_facts, 1);
}

/// `psl-admm`, recording the soft truth values of every solve it is
/// handed — the whole grounding or one component — in call order.
#[derive(Debug)]
struct RecordingPsl {
    inner: tecore_psl::PslAdmm,
    soft: Arc<Mutex<Vec<Vec<f64>>>>,
}

impl MapSolver for RecordingPsl {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn caps(&self) -> SolverCaps {
        self.inner.caps()
    }

    fn solve(
        &self,
        atoms: usize,
        clauses: &ClauseStore,
        warm: Option<&MapState>,
    ) -> Result<MapState, SolveError> {
        let state = self.inner.solve(atoms, clauses, warm)?;
        let values = state.soft_values.clone().expect("psl grades every atom");
        self.soft.lock().expect("single-threaded test").push(values);
        Ok(state)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On `psl-admm` a cold monolithic resolve and a cold
    /// component-wise resolve agree on the *soft truth values*, not
    /// merely on the repair they round to: the solver iterates each
    /// independent block of the whole arena exactly as it iterates the
    /// same block handed over as a component sub-store.
    #[test]
    fn psl_soft_values_agree_across_component_modes(facts in arb_facts()) {
        let graph = build_graph(&facts);
        let soft_values = |mode: ComponentMode| {
            let soft = Arc::new(Mutex::new(Vec::new()));
            let solver = RecordingPsl {
                inner: tecore_psl::PslAdmm::default(),
                soft: Arc::clone(&soft),
            };
            let snapshot = Engine::with_config(
                graph.clone(),
                program(),
                TecoreConfig {
                    backend: Arc::new(solver),
                    component_mode: mode,
                    ..TecoreConfig::default()
                },
            )
            .resolve()
            .expect("resolve");
            let recorded = soft.lock().expect("single-threaded test").clone();
            (recorded, snapshot.stats.components)
        };
        let (monolithic, no_components) = soft_values(ComponentMode::Monolithic);
        let (by_components, components) = soft_values(ComponentMode::Components);
        prop_assert_eq!(no_components, 0);
        prop_assert_eq!(monolithic.len(), 1);
        // The driver solves the components of a cold full pass in order.
        let mut grounding = ground(&graph, &program(), &GroundConfig::default()).expect("grounds");
        let partition = grounding.partition_components();
        prop_assert!(components > 0);
        prop_assert_eq!(by_components.len(), partition.len());
        // Every atom of a component is an atom of the whole grounding.
        for (comp, values) in by_components.iter().enumerate() {
            for (&atom, value) in partition.atoms(comp).iter().zip(values) {
                let whole = monolithic[0][atom.index()];
                prop_assert!(
                    (value - whole).abs() <= 1e-12,
                    "atom {:?}: {} by components, {} monolithic", atom, value, whole
                );
            }
        }
    }
}
