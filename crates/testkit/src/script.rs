//! The one edit script: what a step of a conformance run does to the
//! engine. A step is a list of [`Edit`]s; its data edits go in as one
//! [`EditBatch`], its checkpoints follow it. What an edit
//! means ("the 17th live fact") is read off the graph when it runs, so
//! any prefix of a script is itself a script.
//!
//! A fixed input runs as written ([`Script::default`]); a drawn one
//! runs [`Script::within`] what its backend is held to.

use std::ops::Range;

use proptest::prelude::*;
use tecore_core::{EditBatch, Engine};
use tecore_kg::{FactId, TemporalFact, UtkGraph};

use crate::fixtures::{arb_insert, confidence, iv, Insert};
use crate::oracle::Expect;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Edit {
    Insert(Insert),
    /// Remove the `n`-th live fact.
    Remove(usize),
    /// Re-time the `n`-th live fact's statement to `[start, start +
    /// len]` (an upsert replaces every fact of the statement).
    Upsert {
        n: usize,
        start: i64,
        len: i64,
        conf_step: u8,
    },
    /// Insert a fact and remove it again inside the batch: a fresh
    /// coaching spell of `p{n % 44}` at `club{n % 7}` for `n` below
    /// [`CHURN_RESTATES`], else the `n`-th live fact's statement again
    /// (it aliases a live atom).
    Churn(usize),
    /// [`FLOOD`] inserts, each on a subject of its own: past the share
    /// of the graph (an eighth) at which the carry path rebuilds the
    /// view instead of patching it, on graphs of up to 320 facts.
    Flood(u32),
    /// Checkpoint the engine's log.
    Checkpoint,
}

impl Edit {
    /// [`Edit::Insert`] of `(p{subject}, RELATIONS[relation],
    /// club{object}, [start, start + len])`.
    pub fn insert(
        subject: u32,
        relation: u8,
        object: u32,
        start: i64,
        len: i64,
        conf_step: u8,
    ) -> Edit {
        Edit::Insert(Insert {
            subject,
            relation,
            object,
            start,
            len,
            conf_step,
        })
    }

    /// [`Edit::Upsert`] of the `n`-th live fact's statement.
    pub fn upsert(n: usize, start: i64, len: i64, conf_step: u8) -> Edit {
        Edit::Upsert {
            n,
            start,
            len,
            conf_step,
        }
    }
}

/// A churn at or above this restates a live fact.
pub const CHURN_RESTATES: usize = 256;
/// The inserts of one flood.
pub const FLOOD: u32 = 40;
/// Where a statement kept apart finds its subject: past every subject
/// a strategy draws.
const APART: u32 = 1000;

/// One edit on `subjects` subjects; inserts are the most common,
/// checkpoints the rarest.
pub fn arb_edit(subjects: u32) -> impl Strategy<Value = Edit> {
    (0u8..20, arb_insert(subjects), 0usize..512).prop_map(|(kind, insert, n)| match kind {
        0..=7 => Edit::Insert(insert),
        8..=11 => Edit::Remove(n),
        12..=13 => Edit::Upsert {
            n,
            start: insert.start,
            len: insert.len,
            conf_step: insert.conf_step,
        },
        14 => Edit::Churn(n),
        15 => Edit::Flood(n as u32),
        16 => Edit::Checkpoint,
        _ => Edit::Insert(insert),
    })
}

/// `steps` steps of `edits` edits each.
pub fn arb_steps(
    subjects: u32,
    steps: Range<usize>,
    edits: Range<usize>,
) -> impl Strategy<Value = Vec<Vec<Edit>>> {
    prop::collection::vec(prop::collection::vec(arb_edit(subjects), edits), steps)
}

/// Runs steps; `serial` keeps confidences distinct across a run.
#[derive(Debug, Clone, Default)]
pub struct Script {
    serial: u32,
    /// What the backend is held to, for a drawn script.
    within: Option<Expect>,
}

impl Script {
    /// A drawn script on a backend held to `expect`: where
    /// [`Expect::apart`], an insert goes on a subject of its own and an
    /// upsert keeps its statement's interval (a re-assertion at another
    /// confidence); where not [`Expect::floods`], a flood is left out.
    pub fn within(expect: Expect) -> Script {
        Script {
            serial: 0,
            within: Some(expect),
        }
    }

    fn apart(&self) -> bool {
        self.within.is_some_and(|e| e.apart)
    }

    fn floods(&self) -> bool {
        self.within.is_none_or(|e| e.floods)
    }

    fn next(&mut self) -> u32 {
        self.serial += 1;
        self.serial
    }

    /// Applies one step to `engine`: the data edits as one batch, then
    /// the checkpoints.
    pub fn apply(&mut self, engine: &mut Engine, edits: &[Edit]) {
        let batch = self.batch(engine.graph(), edits);
        engine.apply(&batch).into_result().expect("valid batch");
        for edit in edits {
            if *edit == Edit::Checkpoint {
                engine.checkpoint().expect("the log checkpoints");
            }
        }
    }

    /// The data edits of one step as a batch against `graph`.
    pub fn batch(&mut self, graph: &UtkGraph, edits: &[Edit]) -> EditBatch {
        let live: Vec<(FactId, TemporalFact)> = graph.iter().map(|(id, f)| (id, *f)).collect();
        let pick = |n: usize| (!live.is_empty()).then(|| live[n % live.len()]);
        let terms = |f: &TemporalFact| {
            let dict = graph.dict();
            let [s, p, o] = [f.subject, f.predicate, f.object].map(|t| dict.resolve(t).to_string());
            (s, p, o)
        };
        let mut batch = EditBatch::new();
        // Ids the batch's own inserts will be given, for the churn pairs.
        let mut next_id = graph.arena_len() as u32;
        let mut gone: Vec<FactId> = Vec::new();
        for edit in edits {
            match *edit {
                Edit::Insert(mut insert) => {
                    let serial = self.next();
                    if self.apart() {
                        insert.subject = APART + serial;
                    }
                    let (s, p, o, interval, confidence) = insert.statement(serial);
                    batch = batch.insert(s, p, o, interval, confidence);
                    next_id += 1;
                }
                Edit::Remove(n) => {
                    if let Some((id, _)) = pick(n).filter(|(id, _)| !gone.contains(id)) {
                        gone.push(id);
                        batch = batch.remove(id);
                    }
                }
                Edit::Upsert {
                    n,
                    start,
                    len,
                    conf_step,
                } => {
                    let Some((_, f)) = pick(n) else { continue };
                    let (s, p, o) = terms(&f);
                    let ids = graph.statement_ids(&s, &p, &o);
                    if ids.iter().any(|id| gone.contains(id)) {
                        continue;
                    }
                    gone.extend(ids);
                    let interval = match self.apart() {
                        true => f.interval,
                        false => iv(start, len),
                    };
                    let confidence = confidence(conf_step, self.next());
                    batch = batch.upsert(s, p, o, interval, confidence);
                    next_id += 1;
                }
                Edit::Churn(n) => {
                    let (s, p, o, interval) = match pick(n).filter(|_| n >= CHURN_RESTATES) {
                        Some((_, f)) => {
                            let (s, p, o) = terms(&f);
                            (s, p, o, f.interval)
                        }
                        None => {
                            let (s, o) = (format!("p{}", n % 44), format!("club{}", n % 7));
                            (s, "coach".into(), o, iv(1990, 1))
                        }
                    };
                    let confidence = confidence(3, self.next());
                    batch = batch.insert(s, p, o, interval, confidence);
                    batch = batch.remove(FactId(next_id));
                    next_id += 1;
                }
                Edit::Flood(_) if !self.floods() => {}
                Edit::Flood(seed) => {
                    for j in 0..FLOOD {
                        let k = seed.wrapping_mul(31).wrapping_add(j * 7);
                        let insert = Insert {
                            subject: 0,
                            relation: (k % 3) as u8,
                            object: k % 7,
                            start: 1976 + i64::from(k % 35),
                            len: i64::from(k % 5),
                            conf_step: (k % 40) as u8,
                        };
                        let (_, p, o, interval, confidence) = insert.statement(self.next());
                        batch = batch.insert(format!("q{seed}_{j}"), p, o, interval, confidence);
                        next_id += 1;
                    }
                }
                Edit::Checkpoint => {}
            }
        }
        batch
    }
}
