//! What the engine suites run on: the two programs, the clustered graph,
//! the statement a script inserts and its strategy, and the backends.

use std::sync::Arc;

use proptest::prelude::*;
use tecore_core::{EditBatch, Engine, MapSolver, SolverRegistry, TecoreConfig};
use tecore_kg::{FactId, UtkGraph};
use tecore_logic::LogicProgram;
use tecore_temporal::Interval;
use tecore_wal::{MemStorage, Wal, WalConfig};

pub use tecore_datagen::standard::paper_program;

/// `f1` derives a hidden `worksFor` from every `playsFor`; `c2` makes
/// the coaching spells of one subject disjoint. Components mix
/// evidence units, priors, derivations and clashes, and a delta
/// exercises cascade retraction and atom revival.
pub fn f1_c2() -> LogicProgram {
    LogicProgram::parse(
        "f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5\n\
         c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf\n",
    )
    .expect("static program parses")
}

pub const RELATIONS: [&str; 3] = ["coach", "playsFor", "birthDate"];

/// `(subject, predicate, object, interval, confidence)`.
pub type Statement = (String, String, String, Interval, f64);

pub fn iv(start: i64, len: i64) -> Interval {
    Interval::new(start, start + len).expect("len >= 0")
}

/// Distinct and irregular across a run (by `serial`), so that a MAP
/// state is unique and exact and heuristic backends can agree on it.
pub fn confidence(step: u8, serial: u32) -> f64 {
    0.52 + f64::from(step) * 0.011 + f64::from(serial % 7) * 0.0013
}

/// One statement: `(p{subject}, RELATIONS[relation], club{object},
/// [start, start + len])`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Insert {
    pub subject: u32,
    pub relation: u8,
    pub object: u32,
    pub start: i64,
    pub len: i64,
    pub conf_step: u8,
}

impl Insert {
    /// The statement, its confidence made distinct by `serial`.
    pub fn statement(&self, serial: u32) -> Statement {
        (
            format!("p{}", self.subject),
            RELATIONS[usize::from(self.relation)].to_string(),
            format!("club{}", self.object),
            iv(self.start, self.len),
            confidence(self.conf_step, serial),
        )
    }
}

/// A statement on one of `subjects` subjects, over seven clubs and the
/// years 1975–2020.
pub fn arb_insert(subjects: u32) -> impl Strategy<Value = Insert> {
    (
        0..subjects,
        0u8..3,
        0u32..7,
        1975i64..2015,
        0i64..6,
        0u8..40,
    )
        .prop_map(
            |(subject, relation, object, start, len, conf_step)| Insert {
                subject,
                relation,
                object,
                start,
                len,
                conf_step,
            },
        )
}

/// `subjects` clusters of statements: two coaching spells a subject
/// (every fourth has a third one clashing with the first), a playing
/// spell (`f1` derives `worksFor`) and a birth date for every third (the
/// paper program's `f3` derives `TeenPlayer` for the early starters).
/// Subjects share no atom, so the ground problem falls into small
/// components. One cluster is five facts: a clash, a derivation and
/// bystanders.
pub fn clusters(subjects: u32) -> Vec<Statement> {
    let mut out = Vec::new();
    let mut push = |i: u32, relation: usize, object: String, start: i64, len: i64, base: f64| {
        let n = out.len() as u32 + 1;
        let confidence = base + f64::from(n % 13) * 0.0071 + f64::from(n % 5) * 0.0013;
        let predicate = RELATIONS[relation].to_string();
        out.push((
            format!("p{i}"),
            predicate,
            object,
            iv(start, len),
            confidence,
        ));
    };
    for i in 0..subjects {
        let (k, club) = (i64::from(i), |c: u32| format!("club{}", c % 7));
        push(i, 0, club(i), 2000 + k % 5, 4, 0.8);
        push(i, 0, club(i + 3), 2010, 3, 0.7);
        if i % 4 == 0 {
            push(i, 0, club(i + 1), 2001 + k % 5, 2, 0.55);
        }
        push(i, 1, format!("club{}", i % 5), 1980 + k % 9, 3, 0.75);
        if i % 3 == 0 {
            push(i, 2, format!("{}", 1965 + i % 4), 1965 + k % 4, 50, 0.9);
        }
    }
    out
}

pub fn graph(statements: &[Statement]) -> UtkGraph {
    let mut graph = UtkGraph::new();
    for (s, p, o, interval, confidence) in statements {
        graph
            .insert(s, p, o, *interval, *confidence)
            .expect("valid insert");
    }
    graph
}

/// The registered backends: the two that are exact on components this
/// small (`mln-cpi` solves them by branch and bound), then the two
/// heuristic ones.
pub const BACKENDS: [&str; 4] = ["mln-cpi", "mln-exact", "mln-walksat", "psl-admm"];

pub fn solver(name: &str) -> Arc<dyn MapSolver> {
    SolverRegistry::with_default_backends()
        .resolve(name)
        .expect("registered backend")
}

/// The default configuration on backend `name`.
pub fn config(name: &str) -> TecoreConfig {
    TecoreConfig {
        backend: solver(name),
        ..TecoreConfig::default()
    }
}

/// An engine whose edits are journaled to an in-memory log, so that a
/// script's checkpoint writes one, and a handle on that log's bytes
/// ([`assert_journaled`](crate::assert_journaled) recovers from it).
pub fn engine(
    graph: UtkGraph,
    program: LogicProgram,
    config: TecoreConfig,
) -> (Engine, MemStorage) {
    let log = MemStorage::new();
    let (wal, _) =
        Wal::open_with(Box::new(log.clone()), WalConfig::default()).expect("an empty log opens");
    let mut engine = Engine::with_config(graph, program, config);
    engine.attach_wal(wal).expect("the base graph checkpoints");
    (engine, log)
}

/// Inserts one statement through a one-op [`EditBatch`]; returns the id
/// it minted.
pub fn insert(
    engine: &mut Engine,
    subject: &str,
    predicate: &str,
    object: &str,
    interval: Interval,
    confidence: f64,
) -> FactId {
    let batch = EditBatch::new().insert(subject, predicate, object, interval, confidence);
    let report = engine.apply(&batch).into_result();
    let id = report.expect("a valid insert").inserted_ids().next();
    id.expect("one insert")
}
