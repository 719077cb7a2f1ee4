//! Component-solving conformance: the conflict-component partition
//! must be a *true partition* of the live clauses, component-wise MAP
//! resolution must agree with the monolithic path on **every
//! registered backend**, and the incremental engine must re-solve only
//! the components a delta dirtied while still matching the cold
//! oracle. The graphs are random statements on four subjects
//! (`tecore_testkit::arb_insert`) under the `f1`/`c2` program, the
//! edits its script (drawn ones within what each backend's monolithic
//! solve is held to, `Script::within`), the comparisons its oracle
//! (`assert_same`).
//!
//! This is the contract that makes the component driver a pure
//! optimisation: clauses only interact through shared atoms, so
//! per-component optima compose into the global optimum — never a
//! different repair, surviving KG, or derived-fact set.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use tecore_core::batch::apply_to_graph;
use tecore_core::{EditBatch, Engine, TecoreConfig};
use tecore_ground::ComponentMode::{self, Components, Monolithic};
use tecore_ground::{
    evaluate_world, ground, AtomId, ClauseId, ClauseStore, MapSolver, MapState, Partition,
    SolveError, SolverCaps,
};
use tecore_kg::UtkGraph;
use tecore_logic::LogicProgram;
use tecore_temporal::Interval;
use tecore_testkit::{
    arb_insert, arb_steps, assert_journaled, assert_same, clusters, cold, cold_with, config, f1_c2,
    graph, insert, Edit, Expect, Insert, Script, Statement, BACKENDS,
};

/// One to thirteen statements on four subjects: distinct subjects
/// yield distinct conflict components (`c2` only couples facts sharing
/// a subject).
fn arb_clusters() -> impl Strategy<Value = Vec<Insert>> {
    prop::collection::vec(arb_insert(4), 1..14)
}

fn drawn_graph(inserts: &[Insert]) -> UtkGraph {
    let statements: Vec<Statement> = (inserts.iter().zip(0..))
        .map(|(insert, serial)| insert.statement(serial))
        .collect();
    graph(&statements)
}

/// The drawn graph, with [`f1_c2`]'s constants interned.
fn interned(inserts: &[Insert]) -> UtkGraph {
    let mut graph = drawn_graph(inserts);
    tecore_ground::intern_constants(&f1_c2(), graph.dict_mut());
    graph
}

fn with_mode(name: &str, component_mode: ComponentMode) -> TecoreConfig {
    TecoreConfig {
        component_mode,
        ..config(name)
    }
}

fn walksat(mode: ComponentMode) -> TecoreConfig {
    with_mode("mln-walksat", mode)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The partition is a true partition of the live clauses: every
    /// live clause lands in exactly one component, every literal of a
    /// component's clause names one of that component's atoms (no
    /// cross-component sharing), member lists are disjoint, and local
    /// ids are the dense ascending order of the member atoms.
    #[test]
    fn partition_is_a_true_partition(base in arb_clusters()) {
        let graph = interned(&base);
        let mut grounding = ground(&graph, &f1_c2()).expect("grounds");
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
    fn component_resolve_matches_monolithic_on_all_backends(base in arb_clusters()) {
        let engine = Engine::with_config(drawn_graph(&base), f1_c2(), config("mln-exact"));
        for name in BACKENDS {
            let monolithic = cold_with(&engine, with_mode(name, Monolithic));
            let by_components = cold_with(&engine, with_mode(name, Components));
            assert_same(name, &by_components, &monolithic);
            prop_assert_eq!(monolithic.stats.components, 0, "{}: monolithic mode must not partition", name);
        }
    }
}

/// Edit scripts through the *component-wise* incremental engine on each
/// of `backends`: after every step the result equals a cold resolve of
/// the surviving graph, that one equals a cold monolithic resolve, and
/// the engine never re-solves more components than the partition holds
/// (the dirty set bounds the work), and the engine's log recovers its
/// graph. `drawn` steps run within what the
/// monolithic solve is held to (`Script::within`), fixed ones as
/// written.
fn check_component_sequence(base: &[Insert], steps: &[Vec<Edit>], backends: &[&str], drawn: bool) {
    for &name in backends {
        let config = with_mode(name, Components);
        let (mut engine, log) = tecore_testkit::engine(drawn_graph(base), f1_c2(), config);
        engine.resolve_incremental().expect("prime");
        let mut script = match drawn {
            true => Script::within(Expect::for_backend(&with_mode(name, Monolithic))),
            false => Script::default(),
        };
        for (i, edits) in steps.iter().enumerate() {
            script.apply(&mut engine, edits);
            let incremental = engine.resolve_incremental().expect("incremental");
            let stats = &incremental.stats;
            let (solved, components) = (stats.components_solved, stats.components);
            assert!(
                solved <= components.max(1),
                "{name}: solved {solved} of {components} components"
            );
            let what = format!("{name}, step {i} {edits:?}");
            let by_components = cold(&engine);
            assert_same(&what, &incremental, &by_components);
            let monolithic = cold_with(&engine, with_mode(name, Monolithic));
            assert_same(&format!("{what}, monolithic"), &by_components, &monolithic);
            assert_journaled(&what, &engine, &log);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn incremental_component_sequences_match_cold_resolve(
        base in arb_clusters(),
        steps in arb_steps(4, 1..4, 1..5),
    ) {
        check_component_sequence(&base, &steps, &BACKENDS, true);
    }
}

/// `incremental_component_sequences_match_cold_resolve`'s case 3 with
/// floods on every backend: after the flood a monolithic `mln-walksat`
/// solve of the 50-odd atoms derives otherwise than the component-wise
/// one. The other three backends agree.
fn a_flood_beside_four_subjects() -> (Vec<Insert>, [Vec<Edit>; 2]) {
    let insert = |subject, relation, object, start, len, conf_step| Insert {
        subject,
        relation,
        object,
        start,
        len,
        conf_step,
    };
    let base = vec![
        insert(0, 0, 6, 2000, 0, 20),
        insert(0, 1, 2, 2007, 3, 15),
        insert(0, 0, 5, 1996, 2, 17),
        insert(2, 2, 4, 1975, 1, 13),
        insert(0, 2, 5, 1991, 2, 33),
    ];
    let upsert = Edit::upsert(194, 1983, 0, 23);
    (
        base,
        [vec![upsert, Edit::Remove(377)], vec![Edit::Flood(209)]],
    )
}

#[test]
fn a_flood_beside_four_subjects_off_mln_walksat() {
    let (base, steps) = a_flood_beside_four_subjects();
    let agreeing = ["mln-cpi", "mln-exact", "psl-admm"];
    check_component_sequence(&base, &steps, &agreeing, false);
}

#[test]
#[ignore = "warm ≠ cold on heuristic backends: ROADMAP item 1"]
fn a_flood_beside_four_subjects_on_mln_walksat() {
    let (base, steps) = a_flood_beside_four_subjects();
    check_component_sequence(&base, &steps, &["mln-walksat"], false);
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

    /// Whatever the script's batches emitted, retracted and churned
    /// (checkpoints have no part here): the dirty-only
    /// pass returns exactly the components a fresh full pass marks
    /// dirty — same atoms, same clause ids, same order —, the labels in
    /// use number the components of the full pass, and after the dirty
    /// components are "solved" (every member atom may move, nothing
    /// else does) the ledger's totals are `evaluate_world`'s over the
    /// whole arena.
    #[test]
    fn dirty_pass_and_ledger_match_full_pass_and_whole_arena(
        base in arb_clusters(),
        steps in arb_steps(4, 1..10, 0..4),
        seed in 1u64..u64::MAX,
    ) {
        let mut graph = interned(&base);
        let mut grounding = ground(&graph, &f1_c2()).expect("grounds");
        let mut world: Vec<bool> = Vec::new();
        let mut bits = seed;
        let mut script = Script::default();
        // The first round has no edits: a fresh index, everything dirty.
        let rounds = std::iter::once(&[][..]).chain(steps.iter().map(Vec::as_slice));
        for (round, edits) in rounds.enumerate() {
            // Churn re-states live facts and takes them back: nets to
            // nothing, but aliases a live atom on the way.
            let batch = script.batch(&graph, edits);
            apply_to_graph(&mut graph, &batch);
            let delta = graph.since(grounding.epoch()).expect("log retained");
            grounding.apply_delta(&graph, &delta);

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
    let mut engine = Engine::with_config(clustered_graph(), f1_c2(), walksat(Components));
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
    let spell = Interval::new(2001, 2003).unwrap();
    insert(&mut engine, "p0", "coach", "c0", spell, 0.71);
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
    let cold = cold_with(&engine, walksat(Monolithic));
    assert_same("after the edit", &after_edit, &cold);

    // An empty delta re-solves nothing at all.
    let noop = engine.resolve_incremental().expect("noop resolve");
    assert_eq!(noop.stats.components_solved, 0, "clean components splice");
    assert_same("after no edit", &noop, &cold);
}

/// The `Delta::churned` bookkeeping end to end: a fact inserted and
/// removed again before the next resolve nets out of the delta, but
/// because its statement aliased a live atom, that atom's component is
/// conservatively re-solved instead of splicing possibly-stale cached
/// state. (Before `Delta::churned` existed this resolve spliced every
/// component — `components_solved` was 0.)
#[test]
fn same_batch_churn_dirties_the_aliased_component() {
    let mut engine = Engine::with_config(clustered_graph(), f1_c2(), walksat(Components));
    let primed = engine.resolve_incremental().expect("prime");
    let total = primed.stats.components;

    // Re-assert cluster 3's existing statement, then retract it again:
    // the net delta is empty, but the statement revived a live atom.
    let spell = Interval::new(2000, 2006).unwrap();
    let id = insert(&mut engine, "p3", "coach", "a3", spell, 0.87);
    let batch = EditBatch::new().remove(id);
    engine.apply(&batch).into_result().expect("remove");
    let after_churn = engine.resolve_incremental().expect("churn resolve");
    assert_eq!(
        after_churn.stats.components, total,
        "structure unchanged by net-zero churn"
    );
    assert_eq!(
        after_churn.stats.components_solved, 1,
        "exactly the aliased statement's component re-solves"
    );
    let cold = cold_with(&engine, walksat(Monolithic));
    assert_same("after the churn", &after_churn, &cold);
}

/// `Auto` mode on a single-component problem falls back to one
/// monolithic solve (and reports it as such).
#[test]
fn auto_mode_falls_back_on_single_component() {
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
        walksat(ComponentMode::Auto),
    )
    .resolve()
    .expect("resolve");
    // One clash + two evidence units = one component: Auto solves it
    // monolithically and the stats say so.
    assert_eq!(snapshot.stats.components, 0);
    assert_eq!(snapshot.stats.conflicting_facts, 1);
}

/// Removing a fact no clause names (a `birthDate`, which neither
/// formula reads) dirties no component: the first warm resolve after a
/// cold one solves none.
fn components_solved_after_a_clause_free_removal(name: &str) -> usize {
    let mut engine = Engine::with_config(graph(&clusters(40)), f1_c2(), config(name));
    engine.resolve_incremental().expect("cold");
    let born = engine
        .graph()
        .dict()
        .lookup("birthDate")
        .expect("the clusters have birth dates");
    let n = (engine.graph().iter().position(|(_, f)| f.predicate == born)).expect("a birth date");
    Script::default().apply(&mut engine, &[Edit::Remove(n)]);
    engine
        .resolve_incremental()
        .expect("warm")
        .stats
        .components_solved
}

#[test]
fn a_clause_free_removal_solves_no_component_on_mln_exact() {
    assert_eq!(
        components_solved_after_a_clause_free_removal("mln-exact"),
        0
    );
}

/// On the default backend a cold `Auto` solve goes monolithic and drops
/// the component index, so the first warm pass re-solves every
/// component (ROADMAP item 1: every MLN solve partitions).
#[test]
#[ignore = "a cold Auto solve on a heuristic backend drops the component index: ROADMAP item 1"]
fn a_clause_free_removal_solves_no_component_on_the_default_backend() {
    let name = tecore_core::TecoreConfig::default()
        .backend
        .name()
        .to_string();
    assert_eq!(components_solved_after_a_clause_free_removal(&name), 0);
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
    fn psl_soft_values_agree_across_component_modes(base in arb_clusters()) {
        let graph = interned(&base);
        let soft_values = |mode: ComponentMode| {
            let soft = Arc::new(Mutex::new(Vec::new()));
            let solver = RecordingPsl {
                inner: tecore_psl::PslAdmm,
                soft: Arc::clone(&soft),
            };
            let snapshot = Engine::with_config(
                graph.clone(),
                f1_c2(),
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
        let mut grounding = ground(&graph, &f1_c2()).expect("grounds");
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
