//! Carried-forward snapshots ≡ cold snapshots.
//!
//! `Engine::resolve_incremental` derives each snapshot from the one
//! before it: facts that came and went, atoms whose value moved and
//! constraint groundings the deltas touched patch the previous
//! resolution, and the resolved view (expanded graph + temporal index)
//! is the previous one copied and patched. This suite drives random
//! `EditBatch` sequences — inserts, removes, upserts, net-zero churn,
//! and batches large enough to cross the rebuild threshold — through
//! every backend, and after every batch compares the carried-forward
//! snapshot with `Snapshot::from_resolution(engine.resolve_raw()?,
//! epoch)`, its index with a bulk build over its expanded graph, and
//! its index-backed queries with a brute-force scan of that graph.
//! The paper program is used so that inferred facts appear, change and
//! disappear along the way (two graphs to patch, not one).
//!
//! Every sequence runs twice, once per source the engine has for the
//! buffer a patch lands on: with each snapshot dropped before the next
//! publish, so that the spare view comes home and is reused, and with
//! every snapshot kept, so that each publish copies the latest one.
//! The work counters at the end hold the publish path to what the
//! edit names, by count rather than by the clock.
//!
//! The three MLN backends run every sequence once more with derived
//! facts graded by their exact marginals (`ConfidenceMode::Marginal`):
//! the carried confidences must be the cold ones, and the repair and
//! the steps carried forward those of the ungraded run.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

use proptest::prelude::*;
use tecore_core::translate::translate;
use tecore_core::{
    ConfidenceMode, ConflictExplanation, EditBatch, Engine, MapSolver, Participant, Snapshot,
    SolverRegistry, TecoreConfig,
};
use tecore_datagen::standard::{paper_program, ranieri_utkg, wikidata_program};
use tecore_datagen::{generate_wikidata, WikidataConfig};
use tecore_ground::{ComponentMode, GroundConfig};
use tecore_kg::{FactId, GraphTemporalIndex, TemporalFact, UtkGraph};
use tecore_temporal::Interval;

const SUBJECTS: u32 = 40;

fn iv(start: i64, len: i64) -> Interval {
    Interval::new(start, start + len).expect("len >= 0")
}

/// ~160 facts over forty independent subjects: two coaching spells each
/// (every fourth subject has a third one clashing with the first), one
/// playing spell (f1 derives `worksFor`), and birth dates for a third
/// of them (f3 derives `TeenPlayer` for the early starters). Subjects
/// share no atom, so the ground problem falls into small components,
/// and confidences are distinct and irregular: every backend, warm or
/// cold, lands on the same repair.
fn base_graph() -> UtkGraph {
    let mut g = UtkGraph::new();
    let mut n = 0u32;
    let mut conf = |base: f64| {
        n += 1;
        base + f64::from(n % 13) * 0.0071 + f64::from(n % 5) * 0.0013
    };
    for i in 0..SUBJECTS {
        let s = format!("p{i}");
        let k = i64::from(i);
        g.insert(
            &s,
            "coach",
            &format!("club{}", i % 7),
            iv(2000 + k % 5, 4),
            conf(0.8),
        )
        .unwrap();
        g.insert(
            &s,
            "coach",
            &format!("club{}", (i + 3) % 7),
            iv(2010, 3),
            conf(0.7),
        )
        .unwrap();
        if i % 4 == 0 {
            g.insert(
                &s,
                "coach",
                &format!("club{}", (i + 1) % 7),
                iv(2001 + k % 5, 2),
                conf(0.55),
            )
            .unwrap();
        }
        g.insert(
            &s,
            "playsFor",
            &format!("club{}", i % 5),
            iv(1980 + k % 9, 3),
            conf(0.75),
        )
        .unwrap();
        if i % 3 == 0 {
            g.insert(
                &s,
                "birthDate",
                &format!("{}", 1965 + i % 4),
                iv(1965 + k % 4, 50),
                conf(0.9),
            )
            .unwrap();
        }
    }
    g
}

/// One scripted edit; a step of the sequence is a batch of these.
#[derive(Debug, Clone)]
enum Op {
    Insert {
        subject: u32,
        relation: u8,
        object: u32,
        start: i64,
        len: i64,
        conf_step: u8,
    },
    /// Remove the `index`-th live fact.
    Remove { index: usize },
    /// Re-time the `index`-th live fact's statement.
    Upsert {
        index: usize,
        start: i64,
        len: i64,
        conf_step: u8,
    },
    /// Insert a fact and remove it again inside the same batch.
    Churn { subject: u32, object: u32 },
    /// Forty inserts at once, each on a subject of its own: more than
    /// an eighth of the graph.
    Flood { seed: u32 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    (
        0u8..12,
        (0u32..SUBJECTS + 4, 0u8..3, 0u32..7),
        (1975i64..2015, 0i64..6, 0u8..40),
        0usize..512,
    )
        .prop_map(
            |(kind, (subject, relation, object), (start, len, conf_step), index)| match kind {
                0..=4 => Op::Insert {
                    subject,
                    relation,
                    object,
                    start,
                    len,
                    conf_step,
                },
                5..=7 => Op::Remove { index },
                8..=9 => Op::Upsert {
                    index,
                    start,
                    len,
                    conf_step,
                },
                10 => Op::Churn { subject, object },
                _ => Op::Flood { seed: index as u32 },
            },
        )
}

const RELATIONS: [&str; 3] = ["coach", "playsFor", "birthDate"];

/// Turns one step's ops into a batch against the engine's current
/// graph. `serial` keeps confidences distinct across the run.
fn batch_of(engine: &Engine, ops: &[Op], serial: &mut u32) -> EditBatch {
    let graph = engine.graph();
    let live: Vec<(FactId, TemporalFact)> = graph.iter().map(|(id, f)| (id, *f)).collect();
    let mut conf = |step: u8| {
        *serial += 1;
        0.52 + f64::from(step) * 0.011 + f64::from(*serial % 7) * 0.0013
    };
    let mut batch = EditBatch::new();
    // Ids the batch's own inserts will be given, for the churn pairs.
    let mut next_id = graph.arena_len() as u32;
    let mut gone: Vec<FactId> = Vec::new();
    for op in ops {
        match *op {
            Op::Insert {
                subject,
                relation,
                object,
                start,
                len,
                conf_step,
            } => {
                batch = batch.insert(
                    format!("p{subject}"),
                    RELATIONS[usize::from(relation)],
                    format!("club{object}"),
                    iv(start, len),
                    conf(conf_step),
                );
                next_id += 1;
            }
            Op::Remove { index } if !live.is_empty() => {
                let id = live[index % live.len()].0;
                if !gone.contains(&id) {
                    gone.push(id);
                    batch = batch.remove(id);
                }
            }
            Op::Upsert {
                index,
                start,
                len,
                conf_step,
            } if !live.is_empty() => {
                let (id, f) = live[index % live.len()];
                if gone.contains(&id) {
                    continue;
                }
                // An upsert replaces every fact of the statement.
                let dict = graph.dict();
                let (s, p, o) = (
                    dict.resolve(f.subject),
                    dict.resolve(f.predicate),
                    dict.resolve(f.object),
                );
                if graph
                    .statement_ids(s, p, o)
                    .iter()
                    .any(|d| gone.contains(d))
                {
                    continue;
                }
                gone.extend(graph.statement_ids(s, p, o));
                batch = batch.upsert(s, p, o, iv(start, len), conf(conf_step));
                next_id += 1;
            }
            Op::Churn { subject, object } => {
                batch = batch
                    .insert(
                        format!("p{subject}"),
                        "coach",
                        format!("club{object}"),
                        iv(1990, 1),
                        conf(3),
                    )
                    .remove(FactId(next_id));
                next_id += 1;
            }
            Op::Flood { seed } => {
                for j in 0..40u32 {
                    let k = seed.wrapping_mul(31).wrapping_add(j * 7);
                    batch = batch.insert(
                        format!("q{seed}_{j}"),
                        RELATIONS[(k % 3) as usize],
                        format!("club{}", k % 7),
                        iv(1976 + i64::from(k % 35), i64::from(k % 5)),
                        conf((k % 40) as u8),
                    );
                    next_id += 1;
                }
            }
            Op::Remove { .. } | Op::Upsert { .. } => {}
        }
    }
    batch
}

fn rendered(graph: &UtkGraph) -> Vec<String> {
    let mut out: Vec<String> = graph
        .iter()
        .map(|(_, f)| f.display(graph.dict()).to_string())
        .collect();
    out.sort();
    out
}

fn rendered_conflicts(s: &Snapshot) -> Vec<(String, Vec<String>)> {
    let mut out: Vec<(String, Vec<String>)> = s
        .conflicts
        .iter()
        .map(|c| {
            let mut participants: Vec<String> =
                c.participants.iter().map(ToString::to_string).collect();
            participants.sort();
            (c.constraint.to_string(), participants)
        })
        .collect();
    out.sort();
    out
}

/// The conflicts as the typed values they are, in rendered order (the
/// order of [`rendered_conflicts`]: a carried list and a cold one name
/// their atoms differently, so the list order is not comparable).
fn typed_conflicts(s: &Snapshot) -> Vec<ConflictExplanation> {
    let rendered = |p: &Participant| p.to_string();
    let mut out: Vec<ConflictExplanation> = s
        .conflicts
        .iter()
        .map(|c| {
            let mut c = ConflictExplanation::clone(c);
            c.participants.sort_by_key(rendered);
            c
        })
        .collect();
    out.sort_by_key(|c| {
        (
            c.constraint.to_string(),
            c.participants.iter().map(rendered).collect::<Vec<_>>(),
        )
    });
    out
}

fn rendered_inferred(s: &Snapshot) -> Vec<String> {
    graded(s).into_iter().map(|(fact, _)| fact).collect()
}

/// The inferred facts with their confidences, by statement.
fn graded(s: &Snapshot) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = s
        .inferred
        .iter()
        .map(|f| {
            let (s, p, o, t) = (&f.subject, &f.predicate, &f.object, f.interval);
            (format!("({s}, {p}, {o}, {t})"), f.confidence)
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// `(s, p, o, interval)` of every fact, sorted — the graph without the
/// confidences.
fn statements(graph: &UtkGraph) -> Vec<String> {
    let dict = graph.dict();
    let mut out: Vec<String> = graph
        .iter()
        .map(|(_, f)| {
            format!(
                "({}, {}, {}, {})",
                dict.resolve(f.subject),
                dict.resolve(f.predicate),
                dict.resolve(f.object),
                f.interval
            )
        })
        .collect();
    out.sort();
    out
}

/// The carried-forward snapshot against the cold one.
fn assert_equivalent(what: &str, carried: &Snapshot, cold: &Snapshot) {
    // What no solver decides: the conflicts of the keep-everything
    // world and the size of the input.
    assert_eq!(
        rendered_conflicts(carried),
        rendered_conflicts(cold),
        "{what}: conflicts"
    );
    assert_eq!(
        typed_conflicts(carried),
        typed_conflicts(cold),
        "{what}: conflicts, as values"
    );
    let (a, b) = (&carried.stats, &cold.stats);
    assert_eq!(a.total_facts, b.total_facts, "{what}: total_facts");
    assert_eq!(a.per_constraint, b.per_constraint, "{what}: per_constraint");
    // What must hold of any snapshot: the counts describe the lists,
    // the removed facts are in input-id order, and the expanded graph
    // is the consistent one plus the inferred facts.
    assert_eq!(a.conflicting_facts, carried.removed.len(), "{what}");
    assert_eq!(a.inferred_facts, carried.inferred.len(), "{what}");
    assert!(
        carried.removed.windows(2).all(|w| w[0].id < w[1].id),
        "{what}: removed ascending"
    );
    assert_eq!(
        carried.consistent.len() + carried.removed.len(),
        a.total_facts,
        "{what}: kept + removed = input"
    );
    let mut expected = statements(&carried.consistent);
    expected.extend(rendered_inferred(carried));
    expected.sort();
    assert_eq!(
        statements(carried.expanded()),
        expected,
        "{what}: expanded = consistent + inferred"
    );
    // The repair: a cold solve and a warm one find the same (see
    // [`backends`]).
    let removed = |s: &Snapshot| -> Vec<(FactId, String)> {
        s.removed
            .iter()
            .map(|r| (r.id, r.fact.display(s.consistent.dict()).to_string()))
            .collect()
    };
    assert_eq!(removed(carried), removed(cold), "{what}: removed");
    assert_eq!(
        rendered(&carried.consistent),
        rendered(&cold.consistent),
        "{what}: consistent"
    );
    // Soft confidences differ within solver tolerance between a warm
    // and a cold solve; inferred facts are compared without them.
    assert_eq!(
        rendered_inferred(carried),
        rendered_inferred(cold),
        "{what}: inferred"
    );
    assert_eq!(
        statements(carried.expanded()),
        statements(cold.expanded()),
        "{what}: expanded"
    );
    assert_eq!(
        a.conflicting_facts, b.conflicting_facts,
        "{what}: conflicting_facts"
    );
    assert_eq!(a.inferred_facts, b.inferred_facts, "{what}: inferred_facts");
}

/// One numbering: every symbol of the snapshot's consistent and
/// expanded graphs reads there as it reads in the engine graph's
/// dictionary, each removed fact is the graph's own, symbols and all,
/// and no view's dictionary runs past the graph's. The steps bring
/// terms the graph has not seen (subjects past the base graph's, and a
/// flood's), and the paper program derives `worksFor`, `type` and
/// `TeenPlayer`, which no input fact states.
fn assert_one_numbering(what: &str, snapshot: &Snapshot, graph: &UtkGraph) {
    let terms = graph.dict();
    for (name, view) in [
        ("consistent", &*snapshot.consistent),
        ("expanded", snapshot.expanded()),
    ] {
        let dict = view.dict();
        assert!(
            dict.len() <= terms.len(),
            "{what}: the {name} graph has {} terms, the engine's {}",
            dict.len(),
            terms.len()
        );
        for (id, f) in view.iter() {
            for symbol in [f.subject, f.predicate, f.object] {
                assert_eq!(
                    dict.resolve(symbol),
                    terms.resolve(symbol),
                    "{what}: {name} fact {id:?}"
                );
            }
        }
    }
    for r in &snapshot.removed {
        assert_eq!(
            graph.fact(r.id),
            Some(&r.fact),
            "{what}: removed {:?}",
            r.id
        );
    }
}

/// 32 queries (at / over, with and without subject and predicate)
/// through the snapshot's index against a scan of its expanded graph.
fn assert_queries_match_scan(what: &str, snapshot: &Snapshot, seed: u32) {
    let graph = snapshot.expanded();
    let dict = graph.dict();
    let mut state = seed.wrapping_mul(2_654_435_761).wrapping_add(1);
    let mut next = |n: u32| {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        (state >> 8) % n
    };
    for _ in 0..32 {
        let subject = (next(3) > 0).then(|| format!("p{}", next(SUBJECTS + 4)));
        let predicate = (next(3) > 0)
            .then(|| ["coach", "playsFor", "worksFor", "livesIn", "type"][next(5) as usize]);
        let start = 1975 + i64::from(next(45));
        let window = if next(2) == 0 {
            iv(start, 0)
        } else {
            iv(start, i64::from(next(8)))
        };
        let mut query = snapshot.query().overlapping(window);
        if let Some(s) = &subject {
            query = query.subject(s);
        }
        if let Some(p) = predicate {
            query = query.predicate(p);
        }
        let mut indexed: Vec<String> = query
            .iter()
            .map(|(_, f)| f.display(dict).to_string())
            .collect();
        indexed.sort();
        let mut scanned: Vec<String> = graph
            .iter()
            .filter(|(_, f)| {
                f.interval.intersects(window)
                    && subject
                        .as_deref()
                        .is_none_or(|s| dict.resolve(f.subject) == s)
                    && predicate.is_none_or(|p| dict.resolve(f.predicate) == p)
            })
            .map(|(_, f)| f.display(dict).to_string())
            .collect();
        scanned.sort();
        assert_eq!(
            indexed, scanned,
            "{what}: {subject:?} {predicate:?} over {window}"
        );
    }
}

/// The four substrates, MLN ones first. Solved component by component
/// (a component is one subject's handful of atoms), a cold solve and a
/// warm one find the same repair on every one of them.
const BACKENDS: [&str; 4] = ["mln-exact", "mln-walksat", "mln-cpi", "psl-admm"];

fn solver(name: &str) -> Arc<dyn MapSolver> {
    SolverRegistry::with_default_backends()
        .resolve(name)
        .expect("registered backend")
}

/// What the engine's callers do with the snapshots they are handed.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Hold {
    /// Drop each before the next publish: the spare view is reused.
    Latest,
    /// Keep them all: every publish copies the latest view.
    All,
}

/// What one step published, to compare two runs of the same steps by:
/// the view facts its publish copied (the whole view on a rebuild,
/// nothing when it was carried onto the spare), the kept facts and the
/// inferred ones.
type Published = (usize, Vec<String>, Vec<String>);

/// Runs the steps on each of `backends` under `hold`, grading derived
/// facts by `confidence`; returns, per backend, what each step
/// published.
fn check_sequence_holding(
    steps: &[Vec<Op>],
    hold: Hold,
    backends: &[&'static str],
    confidence: ConfidenceMode,
) -> Vec<(&'static str, Vec<Published>)> {
    let mut published = Vec::new();
    for &name in backends {
        let config = TecoreConfig {
            backend: solver(name),
            component_mode: ComponentMode::Components,
            confidence,
            ..TecoreConfig::default()
        };
        let mut engine = Engine::with_config(base_graph(), paper_program(), config);
        let mut held = vec![engine.resolve_incremental().expect("prime")];
        let mut serial = 0u32;
        let mut run = Vec::new();
        for (i, ops) in steps.iter().enumerate() {
            if hold == Hold::Latest {
                held.clear();
            }
            let batch = batch_of(&engine, ops, &mut serial);
            engine.apply(&batch).into_result().expect("valid batch");
            let carried = engine.resolve_incremental().expect("incremental");
            let cold = Snapshot::from_resolution(
                engine.resolve_raw().expect("cold"),
                engine.graph().epoch(),
            );
            let what = format!("{name}, {hold:?}, {confidence:?}, step {i} {ops:?}");
            assert_eq!(carried.epoch(), cold.epoch(), "{what}");
            assert_equivalent(&what, &carried, &cold);
            assert_one_numbering(&what, &carried, engine.graph());
            assert_one_numbering(&format!("{what}, cold"), &cold, engine.graph());
            if confidence == ConfidenceMode::Marginal {
                let (a, b) = (graded(&carried), graded(&cold));
                let same = a.iter().zip(&b).all(|(a, b)| (a.1 - b.1).abs() <= 1e-12);
                assert!(same, "{what}: confidences {a:?}, cold {b:?}");
                let ungraded = |s: &Snapshot| s.stats.ungraded_facts;
                assert_eq!(ungraded(&carried), ungraded(&cold), "{what}");
            }
            assert_eq!(
                carried.index(),
                &GraphTemporalIndex::build(carried.expanded()),
                "{what}: the index is the index of the expanded graph"
            );
            assert_queries_match_scan(&what, &carried, serial + i as u32);
            run.push((
                carried.stats.view_facts_copied,
                rendered(&carried.consistent),
                rendered_inferred(&carried),
            ));
            held.push(carried);
        }
        published.push((name, run));
    }
    published
}

/// Both ways, and graded on the MLN backends; returns what the
/// publishes copied while each snapshot was let go in time.
fn check_sequence(steps: &[Vec<Op>]) -> Vec<(&'static str, Vec<usize>)> {
    let constant = ConfidenceMode::Constant;
    let reusing = check_sequence_holding(steps, Hold::Latest, &BACKENDS, constant);
    for (name, run) in check_sequence_holding(steps, Hold::All, &BACKENDS, constant) {
        let copied: Vec<usize> = run.iter().map(|p| p.0).collect();
        assert!(
            copied.iter().all(|&facts| facts > 0),
            "{name}: no spare comes home while every snapshot is held: {copied:?}"
        );
    }
    // Grading decides nothing: the same repair, carried forward (and
    // copied) at the same steps.
    let mln = &BACKENDS[..3];
    let marginal_runs = check_sequence_holding(steps, Hold::Latest, mln, ConfidenceMode::Marginal);
    for ((name, marginal), (_, ungraded)) in marginal_runs.iter().zip(&reusing) {
        assert_eq!(marginal, ungraded, "{name}: Marginal against Constant");
    }
    let copied = |run: &[Published]| run.iter().map(|p| p.0).collect();
    reusing
        .iter()
        .map(|(name, run)| (*name, copied(run)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn carried_forward_snapshots_equal_cold_ones(
        steps in prop::collection::vec(prop::collection::vec(arb_op(), 1..4), 1..10),
    ) {
        check_sequence(&steps);
    }
}

/// The transitions the random walk may take a while to find, in one
/// directed run: the first inferred fact splits the view from the
/// consistent graph, a duplicate statement re-words a conflict without
/// touching its clause, a flood takes the rebuild branch, and removals
/// shrink everything back.
#[test]
fn directed_split_reword_flood_sequence() {
    let steps = vec![
        // Remove every playsFor fact's support of one subject, then
        // bring it back: inferred facts go and come.
        vec![Op::Remove { index: 8 }],
        vec![Op::Insert {
            subject: 0,
            relation: 1,
            object: 0,
            start: 1980,
            len: 3,
            conf_step: 9,
        }],
        // Same statement as a clashing coach fact: merges into its atom
        // and changes how the conflict reads.
        vec![Op::Insert {
            subject: 0,
            relation: 0,
            object: 1,
            start: 2001,
            len: 2,
            conf_step: 30,
        }],
        vec![Op::Churn {
            subject: 3,
            object: 2,
        }],
        vec![Op::Flood { seed: 7 }],
        vec![
            Op::Upsert {
                index: 20,
                start: 2002,
                len: 4,
                conf_step: 11,
            },
            Op::Remove { index: 100 },
        ],
        vec![Op::Remove { index: 3 }, Op::Remove { index: 60 }],
    ];
    // With each snapshot let go in time, a publish copies a view only
    // to have a second buffer at all: twice after the cold resolve (its
    // snapshot has no index to come home with), once after the flood's
    // rebuild. The churn step changes no fact and still lands on the
    // spare. (An exact solve moves only the atoms an edit bears on; a
    // stochastic or soft-valued one may cross the rebuild threshold
    // elsewhere.)
    for (name, copied) in check_sequence(&steps) {
        if name == "mln-exact" {
            let reused: Vec<bool> = copied.iter().map(|&facts| facts == 0).collect();
            assert_eq!(
                reused,
                [false, false, true, true, false, false, true],
                "{copied:?}"
            );
        }
    }
}

/// A conflict is described again when one of its facts reads
/// differently: re-asserting a clashing fact at another confidence goes
/// through the carry path, and the one explanation that names it shows
/// the new value — as a number and as text — while every other
/// explanation is the value the previous snapshot shares.
#[test]
fn a_reasserted_fact_redescribes_its_conflict() {
    let config = TecoreConfig {
        backend: solver("mln-exact"),
        ..TecoreConfig::default()
    };
    let mut engine = Engine::with_config(base_graph(), paper_program(), config.clone());
    engine.resolve_incremental().expect("prime");
    let before = engine.resolve_incremental().expect("settle");
    // p0's short spell at club1 clashes with its first one.
    let names = |c: &ConflictExplanation| {
        c.participants
            .iter()
            .any(|p| &*p.subject == "p0" && &*p.object == "club1")
    };
    assert_eq!(before.conflicts.iter().filter(|c| names(c)).count(), 1);

    let ids = engine.graph().statement_ids("p0", "coach", "club1");
    let [id] = ids[..] else {
        panic!("one fact asserts the spell: {ids:?}");
    };
    let spell = engine.remove_fact(id).expect("live");
    engine
        .insert_fact("p0", "coach", "club1", spell.interval, 0.93)
        .expect("valid insert");
    let after = engine.resolve_incremental().expect("incremental");

    let (shared, described): (Vec<_>, Vec<_>) = after
        .conflicts
        .iter()
        .partition(|c| before.conflicts.iter().any(|b| Arc::ptr_eq(b, c)));
    assert_eq!(
        shared.len(),
        before.conflicts.len() - 1,
        "carried, not rebuilt"
    );
    let [conflict] = described[..] else {
        panic!("one explanation is described again: {described:?}");
    };
    let spell = conflict
        .participants
        .iter()
        .find(|p| &*p.object == "club1")
        .expect("names the spell");
    assert!((spell.confidence.expect("evidence") - 0.93).abs() < 1e-12);
    assert_eq!(spell.to_string(), "(p0, coach, club1, [2001,2003]) 0.93");

    let cold = Engine::with_config(engine.graph().clone(), paper_program(), config)
        .resolve()
        .expect("cold resolve");
    assert_eq!(typed_conflicts(&after), typed_conflicts(&cold));
    assert_eq!(rendered_conflicts(&after), rendered_conflicts(&cold));
}

/// A caller that unwraps the spare into its resolution keeps the
/// resolution; the view does not come home without it, and the next
/// publish copies the latest one instead of patching a gutted spare.
#[test]
fn unwrapping_the_spare_sends_no_view_home() {
    let mut graph = ranieri_utkg();
    for i in 0..300 {
        graph
            .insert(
                &format!("q{i}"),
                "playsFor",
                &format!("club{}", i % 11),
                iv(1990 + i % 20, 2),
                0.6 + (i % 7) as f64 * 0.05,
            )
            .unwrap();
    }
    let config = TecoreConfig {
        backend: solver("mln-exact"),
        ..TecoreConfig::default()
    };
    let mut engine = Engine::with_config(graph, paper_program(), config);
    let first = engine.resolve_incremental().expect("cold");
    first.index();
    engine
        .insert_fact("q0", "coach", "club3", iv(2005, 2), 0.8)
        .expect("valid insert");
    let second = engine.resolve_incremental().expect("incremental");
    let resolution = Arc::try_unwrap(first)
        .expect("the engine moved on")
        .into_resolution();
    assert!(!resolution.inferred.is_empty(), "the view is split");
    assert!(!resolution.consistent.is_empty(), "the caller keeps it");

    let kept = second.consistent.dict().lookup("coach").expect("interned");
    let (_, spell) = second
        .consistent
        .facts_with_predicate(kept)
        .next()
        .expect("a kept coach fact");
    let dict = second.consistent.dict();
    let ids = engine.graph().statement_ids(
        dict.resolve(spell.subject),
        "coach",
        dict.resolve(spell.object),
    );
    engine.remove_fact(ids[0]).expect("live");
    let last = engine.resolve_incremental().expect("incremental");
    assert!(last.stats.view_facts_copied > 0, "no spare came home");
    let cold = Snapshot::from_resolution(engine.resolve_raw().expect("cold"), last.epoch());
    assert_equivalent("after the unwrap", &last, &cold);
}

// --- Work counters: what a publish touches, counted, not timed. ---

/// A primed `mln-walksat` engine over the generated Wikidata mix.
fn wikidata_engine(facts: usize) -> Engine {
    let generated = generate_wikidata(&WikidataConfig {
        total_facts: facts,
        noise_ratio: 0.1,
        seed: 1,
    });
    let config = TecoreConfig {
        backend: solver("mln-walksat"),
        ..TecoreConfig::default()
    };
    let mut engine = Engine::with_config(generated.graph, wikidata_program(), config);
    engine.resolve_incremental().expect("prime");
    engine
}

/// Inserts a `playsFor` spell that contradicts the `n`-th existing one.
fn insert_clash(engine: &mut Engine, n: usize) -> FactId {
    let graph = engine.graph();
    let plays = graph.dict().lookup("playsFor").expect("the mix has spells");
    let spells = graph.facts_with_predicate(plays).count();
    let (_, spell) = graph
        .facts_with_predicate(plays)
        .nth(n * 97 % spells)
        .expect("within the count");
    let (subject, interval) = (
        graph.dict().resolve(spell.subject).to_string(),
        spell.interval,
    );
    engine
        .insert_fact(
            &subject,
            "playsFor",
            &format!("Elsewhere{n}"),
            interval,
            0.4,
        )
        .expect("valid insert")
}

/// The first publishes after a cold resolve copy the view (the cold
/// snapshot has no index to come home with; its successor is the first
/// that can be a spare). From the third on the engine is warm.
fn warm_up(engine: &mut Engine) {
    for n in 0..2 {
        insert_clash(engine, 1000 + n);
        let warm = engine.resolve_incremental().expect("warm-up");
        assert!(warm.stats.view_facts_copied > 0, "warm-up {n} copies");
    }
}

#[test]
fn a_one_fact_edit_copies_nothing_and_walks_its_component_only() {
    let mut engine = wikidata_engine(20_000);
    warm_up(&mut engine);
    let id = insert_clash(&mut engine, 3);
    let snapshot = engine.resolve_incremental().expect("incremental");
    assert_eq!(snapshot.stats.view_facts_copied, 0, "the spare is reused");
    assert_eq!(snapshot.stats.components_solved, 1);
    // What the pass should have walked: the new fact's component, as a
    // full pass over a cold grounding of the same graph finds it.
    let config = engine.config();
    let mut cold = translate(
        engine.graph(),
        engine.program(),
        &config.backend.caps(),
        &GroundConfig::default(),
    )
    .expect("grounds");
    let partition = cold.partition_components();
    let component = partition
        .component_of(cold.fact_atoms.get(id).expect("live fact"))
        .expect("the fact's atom has its evidence clause");
    let members = partition.atoms(component).len();
    assert!(members >= 2, "the new spell clashes with the old one");
    assert_eq!(snapshot.stats.partition_atoms_visited, members);
    assert_eq!(
        snapshot.stats.components,
        partition.len(),
        "the labels in use are the components there are"
    );
}

#[test]
fn a_fresh_subject_insert_costs_the_same_walk_at_any_size() {
    let visited: Vec<usize> = [5_000, 20_000]
        .into_iter()
        .map(|facts| {
            let mut engine = wikidata_engine(facts);
            warm_up(&mut engine);
            // The serving workload's marker: it joins nothing.
            engine
                .insert_fact("QB7", "memberOf", "Mark7", iv(2000, 1), 0.9)
                .expect("valid insert");
            let snapshot = engine.resolve_incremental().expect("incremental");
            assert_eq!(snapshot.stats.view_facts_copied, 0, "at {facts} facts");
            snapshot.stats.partition_atoms_visited
        })
        .collect();
    assert_eq!(visited, [1, 1]);
}

/// Two snapshots of two engines that were fed the same edits: the same
/// result, fact id for fact id and index entry for index entry —
/// whichever buffer each engine's publish landed on.
fn assert_same_view(what: &str, a: &Snapshot, b: &Snapshot) {
    assert_eq!(a.epoch(), b.epoch(), "{what}");
    assert_eq!(a.removed, b.removed, "{what}: removed");
    assert_eq!(a.conflicts, b.conflicts, "{what}: conflicts");
    let facts = |s: &Snapshot| -> Vec<(FactId, String)> {
        let graph = s.expanded();
        graph
            .iter()
            .map(|(id, f)| (id, f.display(graph.dict()).to_string()))
            .collect()
    };
    assert_eq!(facts(a), facts(b), "{what}: expanded, by id");
    assert_eq!(a.index(), b.index(), "{what}: index");
    assert_eq!(
        a.index(),
        &GraphTemporalIndex::build(a.expanded()),
        "{what}: the index is the index of the expanded graph"
    );
}

#[test]
fn holding_a_snapshot_across_publishes_copies_the_view_once() {
    let mut reusing = wikidata_engine(20_000);
    let mut holding = wikidata_engine(20_000);
    let mut held: Option<Arc<Snapshot>> = None;
    let mut copied = Vec::new();
    for n in 0..6 {
        insert_clash(&mut reusing, n);
        insert_clash(&mut holding, n);
        let view_before = holding.latest().expect("primed").expanded().len();
        let reference = reusing.resolve_incremental().expect("incremental");
        let snapshot = holding.resolve_incremental().expect("incremental");
        assert_same_view(&format!("publish {n}"), &snapshot, &reference);
        copied.push(snapshot.stats.view_facts_copied);
        match n {
            // Held while it is the latest, and on while it is the spare
            // publish 4 is waiting for.
            2 => held = Some(snapshot),
            4 => {
                assert_eq!(copied[4], view_before, "the whole view, once");
                held = None;
            }
            _ => {}
        }
    }
    assert!(held.is_none());
    assert!(copied[0] > 0 && copied[1] > 0, "{copied:?}");
    assert_eq!(copied[2..4], [0, 0], "{copied:?}");
    assert_eq!(copied[5], 0, "a spare is home again: {copied:?}");
}

/// The spare is held by another thread when the publish that wants it
/// starts, and let go while that publish runs. Whether the engine gets
/// it back in time (woken by the release) or gives up and copies, the
/// snapshot is the one an undisturbed engine publishes, and the publish
/// after it finds a spare at home again.
#[test]
fn a_spare_released_during_the_publish_is_waited_for_or_copied() {
    let mut reference = wikidata_engine(20_000);
    let mut engine = wikidata_engine(20_000);
    warm_up(&mut reference);
    warm_up(&mut engine);
    let spare = engine.latest().expect("primed");
    for n in 0..3 {
        insert_clash(&mut reference, n);
        insert_clash(&mut engine, n);
        let expected = reference.resolve_incremental().expect("incremental");
        let view_before = engine.latest().expect("primed").expanded().len();
        let snapshot = match n {
            1 => {
                // `spare` is the snapshot before the latest by now.
                let (start, started) = mpsc::channel();
                let spare = Arc::clone(&spare);
                let holder = thread::spawn(move || {
                    started.recv().expect("the publish starts");
                    drop(spare);
                });
                start.send(()).expect("the holder listens");
                let snapshot = engine.resolve_incremental().expect("incremental");
                holder.join().expect("the holder let go");
                let copied = snapshot.stats.view_facts_copied;
                assert!(copied == 0 || copied == view_before, "copied {copied}");
                snapshot
            }
            _ => engine.resolve_incremental().expect("incremental"),
        };
        assert_same_view(&format!("publish {n}"), &snapshot, &expected);
        if n == 2 {
            assert_eq!(snapshot.stats.view_facts_copied, 0);
        }
    }
}
