//! The one oracle. A resolved snapshot equals what a fresh engine
//! resolves cold from the surviving facts ([`cold`], [`assert_same`]),
//! the graph a durable engine's log recovers is the engine's
//! ([`assert_journaled`]), and a query equals a brute-force walk of the
//! snapshot's expanded graph ([`assert_queries_match_scan`]).

use std::sync::Arc;

use proptest::prelude::*;
use tecore_core::{
    ConflictExplanation, DebugStats, Engine, InferredFact, Participant, Resolution, Snapshot,
    TecoreConfig,
};
use tecore_ground::ComponentMode;
use tecore_kg::{FactId, GraphTemporalIndex, Symbol, TemporalFact, UtkGraph};
use tecore_temporal::{AllenRelation, AllenSet, Interval};
use tecore_wal::{MemStorage, Wal, WalConfig};

use crate::grounding::{spell, Fact};

/// What a fresh engine over the surviving graph resolves from scratch,
/// under `engine`'s program and configuration, stamped with the graph's
/// epoch.
pub fn cold(engine: &Engine) -> Arc<Snapshot> {
    cold_with(engine, engine.config().clone())
}

/// [`cold`] under another configuration.
pub fn cold_with(engine: &Engine, config: TecoreConfig) -> Arc<Snapshot> {
    let graph = engine.graph().clone();
    let mut fresh = Engine::with_config(graph, engine.program().clone(), config);
    fresh.resolve().expect("a cold resolve")
}

/// Order-insensitive digest of a graph's state: its epoch, its arena
/// length and every live fact with its id.
pub fn fingerprint(graph: &UtkGraph) -> (u64, usize, Vec<String>) {
    let mut facts: Vec<String> = graph
        .iter()
        .map(|(id, f)| format!("{} {}", id.0, f.display(graph.dict())))
        .collect();
    facts.sort();
    (graph.epoch(), graph.arena_len(), facts)
}

/// Every edit reached the log: recovery from `log`, the bytes of
/// `engine`'s write-ahead log, rebuilds the engine's graph, ids and
/// epoch included. Recovery reads the shared bytes; besides syncing
/// the tail segment it writes nothing to a log without faults.
pub fn assert_journaled(what: &str, engine: &Engine, log: &MemStorage) {
    let (_, recovered) =
        Wal::open_with(Box::new(log.clone()), WalConfig::default()).expect("the log reopens");
    assert_eq!(
        fingerprint(&recovered),
        fingerprint(engine.graph()),
        "{what}: the recovered graph"
    );
}

/// What a backend is held to: every place a check or a drawn script
/// bends for the heuristic solves. Once every MLN backend is exact
/// (ROADMAP item 1), this is where the bends go.
///
/// A carried snapshot equals a cold one on every backend, heuristic
/// ones included ([`assert_same`]); what bends is the data a drawn
/// script gives a backend ([`Script::within`](crate::Script::within)),
/// so that a heuristic finds the one optimum warm and cold alike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expect {
    /// Finds the optimum of every problem the suites make: `mln-exact`,
    /// and `mln-cpi` where it solves by components (its inner solve is
    /// branch and bound below 24 atoms; a cold `Auto` solve hands it the
    /// whole problem, where its inner solve is WalkSAT). A heuristic's
    /// cost is only never below `mln-exact`'s ([`Expect::assert_cost`]).
    pub exact: bool,
    /// Heuristic even on a component of a handful of atoms
    /// (`mln-walksat`, `psl-admm`): a drawn script gives each of its
    /// statements a subject of its own, so that no edit makes a clash.
    pub apart: bool,
    /// Finds the optimum of a problem a 40-fact flood makes: exact, or
    /// solving by components. Elsewhere a drawn script leaves floods
    /// out.
    pub floods: bool,
}

impl Expect {
    /// What `config`'s backend, in its component mode, is held to.
    pub fn for_backend(config: &TecoreConfig) -> Expect {
        let name = config.backend.name();
        let by_components = config.component_mode == ComponentMode::Components;
        let exact = name == "mln-exact" || name == "mln-cpi" && by_components;
        Expect {
            exact,
            apart: name == "mln-walksat" || name == "psl-admm",
            floods: exact || by_components,
        }
    }

    /// `cost` against `mln-exact`'s optimum of the same problem.
    pub fn assert_cost(&self, what: &str, cost: f64, optimum: f64) {
        if self.exact {
            assert!(
                (cost - optimum).abs() < 1e-6,
                "{what}: cost {cost}, optimum {optimum}"
            );
        } else {
            assert!(
                cost >= optimum - 1e-9,
                "{what}: cost {cost} below the optimum {optimum}"
            );
        }
    }
}

/// `(s, p, o, interval)` of every fact, sorted: a graph without ids or
/// confidences.
fn statements(graph: &UtkGraph) -> Vec<String> {
    let dict = graph.dict();
    let mut out: Vec<String> = graph
        .iter()
        .map(|(_, f)| {
            let [s, p, o] = [f.subject, f.predicate, f.object].map(|t| dict.resolve(t));
            format!("({s}, {p}, {o}, {})", f.interval)
        })
        .collect();
    out.sort();
    out
}

/// Every fact with its confidence, sorted.
fn rendered(graph: &UtkGraph) -> Vec<String> {
    let mut out: Vec<String> = (graph.iter())
        .map(|(_, f)| f.display(graph.dict()).to_string())
        .collect();
    out.sort();
    out
}

/// The inferred facts by statement, with their confidences.
fn graded(s: &Snapshot) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = (s.inferred.iter())
        .map(|f| {
            let statement = format!(
                "({}, {}, {}, {})",
                f.subject, f.predicate, f.object, f.interval
            );
            (statement, f.confidence)
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// The conflicts as values, each participant list and the list itself
/// in rendered order (two snapshots may list them in another order).
fn conflicts(s: &Snapshot) -> Vec<ConflictExplanation> {
    let rendered = |p: &Participant| p.to_string();
    let mut out: Vec<ConflictExplanation> = (s.conflicts.iter())
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

/// What a snapshot must be of itself: its counts describe its lists,
/// removed facts ascend by id, kept + removed is the input, the
/// expanded graph is the consistent one plus the inferred facts, and
/// its index is a bulk build over that graph.
fn assert_whole(what: &str, s: &Snapshot) {
    let stats = &s.stats;
    assert_eq!(
        stats.conflicting_facts,
        s.removed.len(),
        "{what}: conflicting_facts"
    );
    assert_eq!(
        stats.inferred_facts,
        s.inferred.len(),
        "{what}: inferred_facts"
    );
    assert!(
        s.removed.windows(2).all(|w| w[0].id < w[1].id),
        "{what}: removed ascending"
    );
    let input = s.consistent.len() + s.removed.len();
    assert_eq!(input, stats.total_facts, "{what}: kept + removed = input");
    let mut expected = statements(&s.consistent);
    expected.extend(graded(s).into_iter().map(|(statement, _)| statement));
    expected.sort();
    assert_eq!(
        statements(s.expanded()),
        expected,
        "{what}: expanded = consistent + inferred"
    );
    let bulk = GraphTemporalIndex::build(s.expanded());
    assert_eq!(
        s.index(),
        &bulk,
        "{what}: the index is the expanded graph's"
    );
}

/// `carried` against `cold`: the same input, conflicts, repair, derived
/// facts and confidences, MAP cost and feasibility, in one numbering.
pub fn assert_same(what: &str, carried: &Snapshot, cold: &Snapshot) {
    assert_same_input(what, carried, cold);
    let (a, b) = (&carried.stats, &cold.stats);
    assert_eq!(carried.removed, cold.removed, "{what}: removed");
    assert_eq!(
        rendered(&carried.consistent),
        rendered(&cold.consistent),
        "{what}: consistent"
    );
    let (ours, theirs) = (graded(carried), graded(cold));
    let statement = |g: &[(String, f64)]| g.iter().map(|(s, _)| s.clone()).collect::<Vec<_>>();
    assert_eq!(statement(&ours), statement(&theirs), "{what}: inferred");
    let same = ours
        .iter()
        .zip(&theirs)
        .all(|(x, y)| (x.1 - y.1).abs() <= 1e-12);
    assert!(same, "{what}: confidences {ours:?}, cold {theirs:?}");
    assert_eq!(a.ungraded_facts, b.ungraded_facts, "{what}: ungraded_facts");
    assert_eq!(a.feasible, b.feasible, "{what}: feasibility");
    assert!(
        (a.cost - b.cost).abs() < 1e-6,
        "{what}: cost {} vs cold {}",
        a.cost,
        b.cost
    );
}

/// What no solver decides: `carried` whole, the same epoch, input
/// and conflicts of the keep-everything world, in one numbering. Every
/// symbol of `carried`'s graphs reads as it reads in the graph `cold`
/// was resolved from, and no view's dictionary runs past that graph's.
fn assert_same_input(what: &str, carried: &Snapshot, cold: &Snapshot) {
    assert_whole(what, carried);
    assert_eq!(carried.epoch(), cold.epoch(), "{what}: epoch");
    let (a, b) = (&carried.stats, &cold.stats);
    assert_eq!(a.total_facts, b.total_facts, "{what}: total_facts");
    assert_eq!(a.per_constraint, b.per_constraint, "{what}: per_constraint");
    assert_eq!(conflicts(carried), conflicts(cold), "{what}: conflicts");
    let terms = cold.consistent.dict();
    for (name, view) in [
        ("consistent", &*carried.consistent),
        ("expanded", carried.expanded()),
    ] {
        let dict = view.dict();
        assert!(
            dict.len() <= terms.len(),
            "{what}: the {name} graph has {} terms of {}",
            dict.len(),
            terms.len()
        );
        for (id, f) in view.iter() {
            for symbol in [f.subject, f.predicate, f.object] {
                let read = dict.resolve(symbol);
                assert_eq!(read, terms.resolve(symbol), "{what}: {name} fact {id:?}");
            }
        }
    }
}

/// A snapshot straight from compact facts: every fifth one goes
/// through the inferred channel, so the expanded graph mixes evidence
/// and inferred statements.
pub fn snapshot_of(facts: &[Fact]) -> Snapshot {
    let mut graph = UtkGraph::new();
    let mut inferred = Vec::new();
    for (i, &fact) in facts.iter().enumerate() {
        let ([subject, predicate, object], interval, confidence) = spell(fact);
        if i % 5 == 4 {
            let fact = InferredFact {
                subject,
                predicate,
                object,
                interval,
                confidence,
            };
            inferred.push(Arc::new(fact));
        } else {
            graph
                .insert(&subject, &predicate, &object, interval, confidence)
                .unwrap();
        }
    }
    let resolution = Resolution {
        consistent: graph.into(),
        removed: Vec::new(),
        inferred,
        conflicts: Vec::new(),
        stats: DebugStats::default(),
    };
    Snapshot::from_resolution(resolution, 1)
}

/// A time filter; times are offsets from the earliest start in the
/// snapshot's arena.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Time {
    Any,
    At(i8),
    /// `[a, a + len]`.
    Over(i8, u8),
    /// One of the thirteen relations against `[a, a + len]`.
    Allen(u8, i8, u8),
    /// `DISJOINT`, `INTERSECTS` or `FULL` against `[a, a + len]`.
    AllenSet(u8, i8, u8),
}

/// One query shape. A term is the `n`-th of the snapshot's subjects,
/// predicates or objects in sorted order, tombstoned facts' included,
/// or, for `n` past the last, a term the snapshot does not know.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    pub subject: Option<u8>,
    pub predicate: Option<u8>,
    pub object: Option<u8>,
    pub time: Time,
    /// A confidence floor of `n` tenths.
    pub min_conf: Option<u8>,
}

pub fn arb_shape() -> impl Strategy<Value = Shape> {
    let term = || prop::option::of(0u8..8);
    let time = (0u8..5, 0u8..13, -4i8..60, 0u8..10).prop_map(|(kind, k, a, len)| match kind {
        0 => Time::Any,
        1 => Time::At(a),
        2 => Time::Over(a, len),
        3 => Time::Allen(k, a, len),
        _ => Time::AllenSet(k % 3, a, len),
    });
    (term(), term(), term(), time, prop::option::of(0u8..11)).prop_map(
        |(subject, predicate, object, time, min_conf)| Shape {
            subject,
            predicate,
            object,
            time,
            min_conf,
        },
    )
}

/// Each of `shapes` on `snap` returns exactly the facts, and as many, as
/// a walk over its expanded graph's whole arena admits.
pub fn assert_queries_match_scan(snap: &Snapshot, shapes: &[Shape]) {
    let graph = snap.expanded();
    let dict = graph.dict();
    let arena: Vec<&TemporalFact> = (0..graph.arena_len() as u32)
        .filter_map(|raw| graph.arena_fact(FactId(raw)))
        .collect();
    let pool = |of: fn(&TemporalFact) -> Symbol| {
        let mut pool: Vec<&str> = arena.iter().map(|f| dict.resolve(of(f))).collect();
        pool.sort_unstable();
        pool.dedup();
        pool
    };
    let pools = [
        pool(|f| f.subject),
        pool(|f| f.predicate),
        pool(|f| f.object),
    ];
    let origin = arena
        .iter()
        .map(|f| f.interval.start().value())
        .min()
        .unwrap_or(0);
    let window = |a: i8, len: u8| {
        let start = origin + i64::from(a);
        Interval::new(start, start + i64::from(len)).expect("len >= 0")
    };
    let allen = |k: u8| AllenRelation::from_index(usize::from(k)).expect("0..13");
    let sets = [AllenSet::DISJOINT, AllenSet::INTERSECTS, AllenSet::FULL];
    for shape in shapes {
        let [subject, predicate, object] = [shape.subject, shape.predicate, shape.object]
            .into_iter()
            .zip(&pools)
            .map(|(pick, pool)| pick.map(|n| *pool.get(usize::from(n)).unwrap_or(&"nobody")))
            .collect::<Vec<_>>()
            .try_into()
            .expect("three slots");
        let admits_time = |iv: Interval| match shape.time {
            Time::Any => true,
            Time::At(a) => iv.intersects(window(a, 0)),
            Time::Over(a, len) => iv.intersects(window(a, len)),
            Time::Allen(k, a, len) => AllenSet::from_relation(allen(k)).holds(iv, window(a, len)),
            Time::AllenSet(k, a, len) => sets[usize::from(k)].holds(iv, window(a, len)),
        };
        let min_conf = shape.min_conf.map(|n| f64::from(n) / 10.0);

        let mut q = snap.query();
        if let Some(s) = subject {
            q = q.subject(s);
        }
        if let Some(p) = predicate {
            q = q.predicate(p);
        }
        if let Some(o) = object {
            q = q.object(o);
        }
        q = match shape.time {
            Time::Any => q,
            Time::At(a) => q.at(window(a, 0).start()),
            Time::Over(a, len) => q.overlapping(window(a, len)),
            Time::Allen(k, a, len) => q.allen(allen(k), window(a, len)),
            Time::AllenSet(k, a, len) => q.allen_set(sets[usize::from(k)], window(a, len)),
        };
        if let Some(min) = min_conf {
            q = q.min_confidence(min);
        }

        let admits =
            |filter: Option<&str>, symbol| filter.is_none_or(|t| dict.resolve(symbol) == t);
        let expected: Vec<FactId> = (0..graph.arena_len() as u32)
            .map(FactId)
            .filter(|&id| {
                graph.fact(id).is_some_and(|f| {
                    admits(subject, f.subject)
                        && admits(predicate, f.predicate)
                        && admits(object, f.object)
                        && admits_time(f.interval)
                        && min_conf.is_none_or(|min| f.confidence.value() >= min)
                })
            })
            .collect();
        let mut got: Vec<FactId> = q.iter().map(|(id, _)| id).collect();
        got.sort_unstable();
        assert_eq!(
            got,
            expected,
            "the planned path diverged from the scan\nshape: {shape:?}\nplan: {}",
            q.explain()
        );
        assert_eq!(q.count(), expected.len(), "count, {shape:?}");
    }
}

/// `n` shapes drawn from `seed`.
pub fn drawn_shapes(seed: u64, n: usize) -> Vec<Shape> {
    let mut rng = proptest::test_rng(&format!("shapes {seed}"));
    let shapes = arb_shape();
    (0..n).map(|_| shapes.generate(&mut rng)).collect()
}
