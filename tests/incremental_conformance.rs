//! Incremental-engine conformance: for **every registered backend**,
//! any random sequence of insert/remove deltas followed by
//! `resolve_incremental` must land on exactly the result a cold
//! `resolve` computes over the final graph.
//!
//! This is the oracle contract of the incremental refactor: the
//! delta-maintained grounding (retraction cascades, revived atoms,
//! demoted evidence, re-run binding search) and the warm-started
//! solvers are pure optimisations — never allowed to change the
//! repair, the surviving KG, or the derived facts.

use proptest::prelude::*;
use tecore_core::registry::SolverRegistry;
use tecore_core::resolution::Resolution;
use tecore_core::{Engine, TecoreConfig};
use tecore_kg::{FactId, UtkGraph};
use tecore_logic::LogicProgram;
use tecore_temporal::Interval;

/// Rules + constraints engaging every incremental code path: a rule
/// (hidden-atom derivation and cascade retraction) and a disjointness
/// constraint (conflict clauses over the edited relation).
fn program() -> LogicProgram {
    LogicProgram::parse(
        "f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5\n\
         c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf\n",
    )
    .expect("static program parses")
}

/// Base graph: one clash, one derivation, some bystanders.
fn base_graph() -> UtkGraph {
    tecore_kg::parser::parse_graph(
        "(CR, coach, Chelsea, [2000,2004]) 0.91\n\
         (CR, coach, Leicester, [2015,2017]) 0.72\n\
         (CR, coach, Napoli, [2001,2003]) 0.63\n\
         (CR, playsFor, Palermo, [1984,1986]) 0.54\n\
         (BM, coach, Bayern, [2008,2012]) 0.85\n",
    )
    .expect("static graph parses")
}

/// One scripted edit.
#[derive(Debug, Clone)]
enum Op {
    /// Insert `(s{subject}, <relation>, o{object}, [start, start+len])`
    /// with a distinct confidence.
    Insert {
        subject: u8,
        relation: bool, // true = coach (constrained), false = playsFor (rule body)
        object: u8,
        start: i64,
        len: i64,
        conf_step: u8,
    },
    /// Remove the `index`-th live fact (mod live count); no-op on an
    /// empty graph.
    Remove { index: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    // kind 0..=2 → insert (60%), 3..=4 → remove (40%).
    (
        0u8..5,
        (0u8..3, prop::bool::ANY, 0u8..4),
        (1990i64..2020, 0i64..6, 0u8..40),
        0usize..64,
    )
        .prop_map(
            |(kind, (subject, relation, object), (start, len, conf_step), index)| {
                if kind < 3 {
                    Op::Insert {
                        subject,
                        relation,
                        object,
                        start,
                        len,
                        conf_step,
                    }
                } else {
                    Op::Remove { index }
                }
            },
        )
}

/// Applies one op to an engine (tracking inserted ids so removals hit
/// real facts).
fn apply_op(engine: &mut Engine, op: &Op, serial: &mut u32) {
    match op {
        Op::Insert {
            subject,
            relation,
            object,
            start,
            len,
            conf_step,
        } => {
            // Distinct, irregular confidences keep MAP optima unique, so
            // heuristic and exact backends agree on the repair.
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
            let id = live[index % live.len()];
            engine.remove_fact(id).expect("live fact removes");
        }
    }
}

/// The comparable essence of a resolution: sorted kept / removed /
/// inferred facts (inferred without confidence — heuristically graded
/// values are compared separately with a tolerance).
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

fn assert_conformant(backend_name: &str, incremental: &Resolution, cold: &Resolution) {
    assert_eq!(
        canonical(incremental),
        canonical(cold),
        "{backend_name}: incremental and cold resolutions diverge"
    );
    assert_eq!(
        incremental.stats.feasible, cold.stats.feasible,
        "{backend_name}: feasibility diverges"
    );
    assert!(
        (incremental.stats.cost - cold.stats.cost).abs() < 1e-6,
        "{backend_name}: cost {} vs cold {}",
        incremental.stats.cost,
        cold.stats.cost
    );
    // Soft confidences may differ within solver tolerance; the facts
    // themselves (compared above) must not.
    for (a, b) in incremental.inferred.iter().zip(&cold.inferred) {
        assert!(
            (a.confidence - b.confidence).abs() < 0.05,
            "{backend_name}: confidence {} vs {}",
            a.confidence,
            b.confidence
        );
    }
}

/// Runs one op sequence through every registered backend, checking the
/// incremental result against the cold oracle at every checkpoint.
fn check_sequence(ops: &[Op], checkpoint_every: usize) {
    let registry = SolverRegistry::with_default_backends();
    let names: Vec<String> = registry.names().map(str::to_string).collect();
    assert_eq!(names.len(), 4, "all four substrates under test");
    for name in &names {
        let config = TecoreConfig {
            backend: registry.resolve(name).expect("registered"),
            ..TecoreConfig::default()
        };
        let mut engine = Engine::with_config(base_graph(), program(), config.clone());
        // Prime the incremental cache before the edits start.
        engine.resolve_incremental().expect("prime");
        let mut serial = 0u32;
        for (i, op) in ops.iter().enumerate() {
            apply_op(&mut engine, op, &mut serial);
            let at_checkpoint = (i + 1) % checkpoint_every == 0 || i + 1 == ops.len();
            if !at_checkpoint {
                continue;
            }
            let incremental = engine.resolve_incremental().expect("incremental resolve");
            let cold = Engine::with_config(engine.graph().clone(), program(), config.clone())
                .resolve()
                .expect("cold resolve");
            assert_conformant(name, &incremental, &cold);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random insert/remove sequences; conformance checked mid-stream
    /// and at the end, on all four backends.
    #[test]
    fn random_delta_sequences_match_cold_resolve(
        ops in prop::collection::vec(arb_op(), 1..18),
    ) {
        check_sequence(&ops, 6);
    }
}

/// A directed sequence covering the delicate transitions: duplicate
/// merge, unmerge, full removal with cascade, re-insert (atom revival).
#[test]
fn directed_merge_revive_cascade_sequence() {
    let ops = vec![
        // Duplicate of the Palermo spell → evidence merge.
        Op::Insert {
            subject: 0,
            relation: false,
            object: 0,
            start: 1999,
            len: 3,
            conf_step: 10,
        },
        Op::Insert {
            subject: 0,
            relation: false,
            object: 0,
            start: 1999,
            len: 3,
            conf_step: 20,
        },
        // Clash on coach.
        Op::Insert {
            subject: 1,
            relation: true,
            object: 1,
            start: 2000,
            len: 5,
            conf_step: 30,
        },
        Op::Insert {
            subject: 1,
            relation: true,
            object: 2,
            start: 2002,
            len: 5,
            conf_step: 5,
        },
        // Churn: remove a few facts (indices arbitrary but fixed).
        Op::Remove { index: 3 },
        Op::Remove { index: 0 },
        Op::Remove { index: 5 },
        // Re-insert the same playsFor statement → atom revival.
        Op::Insert {
            subject: 0,
            relation: false,
            object: 0,
            start: 1999,
            len: 3,
            conf_step: 15,
        },
    ];
    check_sequence(&ops, 1);
}

/// A truncated change log must force the incremental path onto its
/// full-reground fallback — and that fallback must (a) produce exactly
/// the cold-resolve result and (b) be *counted*, not silent: the
/// resolution's `fallback_regrounds` stat records it.
#[test]
fn truncated_log_fallback_matches_cold_resolve_and_is_counted() {
    let registry = SolverRegistry::with_default_backends();
    for name in ["mln-exact", "mln-walksat", "mln-cpi", "psl-admm"] {
        let config = TecoreConfig {
            backend: registry.resolve(name).expect("registered"),
            ..TecoreConfig::default()
        };
        let mut engine = Engine::with_config(base_graph(), program(), config.clone());
        let primed = engine.resolve_incremental().expect("prime");
        assert_eq!(primed.stats.fallback_regrounds, 0, "{name}");

        // Edits the cached grounding never hears about: the log is
        // truncated past the cached epoch before the next resolve.
        let mut serial = 0u32;
        apply_op(
            &mut engine,
            &Op::Insert {
                subject: 2,
                relation: true,
                object: 3,
                start: 2001,
                len: 4,
                conf_step: 12,
            },
            &mut serial,
        );
        apply_op(&mut engine, &Op::Remove { index: 1 }, &mut serial);
        let epoch = engine.graph().epoch();
        engine.graph_mut().truncate_log(epoch);

        let incremental = engine.resolve_incremental().expect("fallback resolve");
        let cold = Engine::with_config(engine.graph().clone(), program(), config.clone())
            .resolve()
            .expect("cold resolve");
        assert_conformant(name, &incremental, &cold);
        assert_eq!(
            incremental.stats.fallback_regrounds, 1,
            "{name}: the silent reground must be counted"
        );
        assert_eq!(engine.fallback_regrounds(), 1, "{name}");

        // The next (clean) incremental resolve still reports the
        // cumulative count without bumping it.
        let clean = engine.resolve_incremental().expect("clean resolve");
        assert_eq!(clean.stats.fallback_regrounds, 1, "{name}");
    }
}

/// Work, not time: a one-fact delta binds its new atom first and joins
/// outwards from it, so on a 20k-fact graph whose dominant predicate
/// holds ~12k atoms it looks at the new atom (once per formula and body
/// position) and that subject's few facts — not at the predicate's
/// extension, which a scan per formula and position would walk (~2 ×
/// 12k candidates).
#[test]
fn one_fact_delta_examines_a_handful_of_candidates() {
    use tecore_datagen::standard::wikidata_program;
    use tecore_datagen::{generate_wikidata, WikidataConfig};

    let generated = generate_wikidata(&WikidataConfig {
        total_facts: 20_000,
        noise_ratio: 0.1,
        seed: 0x7ec0_2017,
    });
    let graph = generated.graph;
    let plays = graph.dict().lookup("playsFor").expect("generated");
    assert!(graph.facts_with_predicate(plays).count() > 10_000);
    let (_, spell) = graph.facts_with_predicate(plays).next().expect("non-empty");
    let (subject, interval) = (
        graph.dict().resolve(spell.subject).to_string(),
        spell.interval,
    );

    let registry = SolverRegistry::with_default_backends();
    let config = TecoreConfig {
        backend: registry.resolve("mln-walksat").expect("registered"),
        ..TecoreConfig::default()
    };
    let mut engine = Engine::with_config(graph, wikidata_program(), config);
    let primed = engine.resolve_incremental().expect("prime");
    // A second club over the same years: one new atom, one new clash.
    engine
        .insert_fact(&subject, "playsFor", "QRivalClub", interval, 0.61)
        .expect("valid insert");
    let delta = engine.graph().since(primed.epoch()).expect("log retained");
    let stats = engine.apply_delta(&delta).expect("cached grounding");
    assert_eq!((stats.facts_added, stats.atoms_created), (1, 1));
    assert!(
        stats.clauses_emitted >= 2,
        "evidence unit + clash: {stats:?}"
    );
    // The new atom six times (three formulas, two positions), and at
    // either position of `wPlays` the one spell of the subject's run
    // that shares its years — 14 before the run was probed with the
    // window, when the subject's other spells and the atom itself
    // were tried too.
    assert!(
        stats.candidates_examined <= 8,
        "a one-fact delta examined {} candidates",
        stats.candidates_examined
    );
}

/// The default backend's publish follows the edit too: after a one-fact
/// edit the explanations of the conflicts it did not touch are the very
/// `Arc`s the previous snapshot lists (patched, not re-rendered), and
/// the per-constraint counts are a cold resolve's.
#[test]
fn cpi_edit_shares_untouched_explanations_with_the_previous_snapshot() {
    use std::sync::Arc;
    use tecore_datagen::standard::wikidata_program;
    use tecore_datagen::{generate_wikidata, WikidataConfig};

    let graph = generate_wikidata(&WikidataConfig {
        total_facts: 2_000,
        noise_ratio: 0.1,
        seed: 0x7ec0_2017,
    })
    .graph;
    let plays = graph.dict().lookup("playsFor").expect("generated");
    let (_, spell) = graph.facts_with_predicate(plays).next().expect("non-empty");
    let (subject, interval) = (
        graph.dict().resolve(spell.subject).to_string(),
        spell.interval,
    );

    let registry = SolverRegistry::with_default_backends();
    let config = TecoreConfig {
        backend: registry.resolve("mln-cpi").expect("registered"),
        ..TecoreConfig::default()
    };
    let mut engine = Engine::with_config(graph, wikidata_program(), config.clone());
    engine.resolve_incremental().expect("prime");
    // The first warm solve moves the cold, monolithic state onto the
    // component path; the snapshots compared are the two after it.
    let before = engine.resolve_incremental().expect("settle");
    assert!(before.conflicts.len() > 10, "{}", before.conflicts.len());
    // A second club over the same years: one new clash.
    engine
        .insert_fact(&subject, "playsFor", "QRivalClub", interval, 0.61)
        .expect("valid insert");
    let after = engine.resolve_incremental().expect("incremental");

    let shared = after
        .conflicts
        .iter()
        .filter(|e| before.conflicts.iter().any(|b| Arc::ptr_eq(b, e)))
        .count();
    assert!(after.conflicts.len() > before.conflicts.len());
    assert_eq!(
        shared,
        before.conflicts.len(),
        "every untouched explanation is shared"
    );
    let cold = Engine::with_config(engine.graph().clone(), wikidata_program(), config)
        .resolve()
        .expect("cold resolve");
    assert_eq!(after.stats.per_constraint, cold.stats.per_constraint);
}

/// Removing every fact must leave an empty, conflict-free resolution —
/// and the engine must survive resolving an empty graph.
#[test]
fn drain_the_graph_completely() {
    let registry = SolverRegistry::with_default_backends();
    for name in ["mln-exact", "mln-walksat", "mln-cpi", "psl-admm"] {
        let config = TecoreConfig {
            backend: registry.resolve(name).expect("registered"),
            ..TecoreConfig::default()
        };
        let mut engine = Engine::with_config(base_graph(), program(), config);
        engine.resolve_incremental().expect("prime");
        let ids: Vec<FactId> = engine.graph().iter().map(|(id, _)| id).collect();
        for id in ids {
            engine.remove_fact(id).expect("live fact");
        }
        let r = engine.resolve_incremental().expect("empty resolve");
        assert_eq!(r.consistent.len(), 0, "{name}");
        assert_eq!(r.removed.len(), 0, "{name}");
        assert!(r.inferred.is_empty(), "{name}");
        assert!(r.stats.feasible, "{name}");
    }
}
