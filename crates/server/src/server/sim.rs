//! Whole-system deterministic simulation over the real writer tick.
//!
//! A *step* is one scripted event against a served, durable engine: a
//! tick of per-fact edits (each with its ack channel, optionally closed
//! by a `FLUSH`), a tick of `FEED`s, a lone `FLUSH`, an act on the
//! engine beside the writer (a backend switch, a change log cut off)
//! followed by an edit, a forced checkpoint, a process kill or a power
//! cut. Every message goes through [`writer_tick`] — the function the
//! run loop and the shutdown drain call — from a `VecDeque` where the
//! socket-fed channel was; the engine is booted by [`boot`] over a real
//! [`Wal`] on [`MemStorage`], plain or inside a stream session. No
//! threads, sockets or sleeps: a script is a pure function of its seed,
//! and what a step means ("the 17th live fact") is read off the graph
//! when it runs, so any prefix of a script is itself a script.
//!
//! After every step [`Sim::check`] holds the system to (a) published ≡
//! cold over the surviving graph, (b) index-backed queries ≡ a scan,
//! (c) epochs monotone and durable ≤ published, (d) what a kill or a
//! power cut leaves recovers every edit it was promised to, as a prefix
//! with no hole, (e) nothing answers `Ok` after a failure and nothing
//! fails in an incarnation whose restart installed no fault, (f)
//! `ServerStats` ≡ the simulator's ledger. README "Correctness tooling"
//! says what each catches, and how to replay the seed a failure prints.

#![cfg(test)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::mpsc::{self, Receiver};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tecore_core::prelude::ComponentMode;
use tecore_core::{SolverRegistry, TecoreConfig};
use tecore_datagen::standard::paper_program;
use tecore_kg::{FactId, TemporalFact, UtkGraph};
use tecore_stream::StreamTotals;
use tecore_temporal::Interval;
use tecore_wal::{FailPlan, FailStorage, FsyncPolicy, MemStorage, Wal, WalConfig, WalStorage};

use super::*;

/// The two that are exact on components this small (`mln-cpi` solves
/// them by branch and bound), then the two heuristic ones.
const BACKENDS: [&str; 4] = ["mln-cpi", "mln-exact", "mln-walksat", "psl-admm"];
const HEURISTIC: usize = 2;
const RELATIONS: [&str; 3] = ["coach", "playsFor", "birthDate"];
/// Subjects of the base graph, and of the script's statements.
const SUBJECTS: u32 = 10;
const SPREAD: u32 = 44;
/// Past this many live facts a scripted insert runs as a removal, so
/// that a long episode stays the size the time budget assumes.
const CROWDED: usize = 70;
const EPISODE: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Host {
    Plain,
    Stream,
}

/// `(subject, predicate, object, interval, confidence)`. Confidences
/// are distinct and irregular (the generator of
/// `tests/carry_conformance.rs`), so a MAP state is unique.
type Statement = (String, String, String, Interval, f64);

fn insert((subject, predicate, object, interval, confidence): Statement) -> EditOp {
    EditOp::Insert {
        subject,
        predicate,
        object,
        interval,
        confidence,
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Statement),
    /// Remove the `index`-th live fact (twice in a burst: the second is
    /// rejected and still ACKed).
    Remove(usize),
    /// Assert the `index`-th live fact again at another confidence.
    Reassert(usize, f64),
    /// Remove an id the graph never minted.
    RemoveUnknown,
}

/// A fault of the log device at its `n`-th append or fsync after the
/// restart that installs it.
#[derive(Debug, Clone, Copy)]
enum Fault {
    FailAppend(u64),
    ShortWrite(u64),
    FailSync(u64),
    TearAppend(u64),
}

#[derive(Debug, Clone)]
enum Step {
    /// One tick of edits, closed by a `FLUSH` or not.
    Burst(Vec<Op>, bool),
    /// `(event time, statement)` offers; times run ahead of the
    /// watermark, behind it (late) or repeat (duplicates).
    Feed(Vec<(i64, Statement)>),
    Flush,
    /// `Engine::reconfigure` onto another backend (or back), then an edit.
    Reconfigure(usize, Statement),
    /// An edit beside the writer and a change log cut off behind it,
    /// then an edit through the writer: its resolve must re-ground.
    Truncate(Statement, Statement),
    Checkpoint,
    /// Reopen over everything written.
    Kill(Option<Fault>),
    /// Reopen over what was synced.
    PowerCut(Option<Fault>),
}

struct Script {
    rng: StdRng,
    serial: u32,
    clock: i64,
    last_event: Option<(i64, Statement)>,
    /// On a heuristic backend every scripted statement gets a subject
    /// of its own (ROADMAP item 2 has the two seeds behind this).
    apart: bool,
}

impl Script {
    fn statement(&mut self) -> Statement {
        self.serial += 1;
        let step = f64::from(self.rng.random_range(0..40u32));
        let subject = match self.apart {
            true => SPREAD + self.serial,
            false => self.rng.random_range(0..SPREAD),
        };
        let predicate = RELATIONS[self.rng.random_range(0..3)].to_string();
        let object = format!("club{}", self.rng.random_range(0..6));
        let start = self.rng.random_range(1975..2015);
        let interval = Interval::new(start, start + self.rng.random_range(0..6));
        let confidence = 0.52 + step * 0.011 + f64::from(self.serial % 1000) * 0.00001;
        let (subject, interval) = (format!("p{subject}"), interval.expect("ordered"));
        (subject, predicate, object, interval, confidence)
    }

    fn op(&mut self) -> Op {
        match self.rng.random_range(0..12) {
            0..=5 => Op::Insert(self.statement()),
            6..=8 => Op::Remove(self.rng.random_range(0..512)),
            9..=10 => Op::Reassert(self.rng.random_range(0..512), self.statement().4),
            _ => Op::RemoveUnknown,
        }
    }

    fn event(&mut self) -> (i64, Statement) {
        if self.last_event.is_some() && self.rng.random_bool(0.1) {
            return self.last_event.clone().expect("checked");
        }
        self.clock += self.rng.random_range(0..3);
        let late = self.rng.random_range(1..9) * i64::from(self.rng.random_bool(0.15));
        self.last_event = Some((self.clock - late, self.statement()));
        self.last_event.clone().expect("just set")
    }

    fn fault(&mut self) -> Option<Fault> {
        let n = self.rng.random_range(1..40);
        match self.rng.random_range(0..8) {
            0 => Some(Fault::FailAppend(n)),
            1 => Some(Fault::ShortWrite(n)),
            2 => Some(Fault::FailSync(n.div_ceil(4))),
            3 => Some(Fault::TearAppend(n)),
            _ => None,
        }
    }

    /// The base graph of `tests/carry_conformance.rs` at `SUBJECTS`
    /// scale, as one burst: two coaching spells a subject (every fourth
    /// has a third clashing with the first), a playing spell, and birth
    /// dates for a third of them.
    fn base() -> Step {
        let mut ops = Vec::new();
        let mut push = |i: u32, relation: usize, object: u32, start: i64, len: i64, base: f64| {
            let n = ops.len() as u32 + 1;
            let confidence = base + f64::from(n % 13) * 0.0071 + f64::from(n % 5) * 0.0013;
            let interval = Interval::new(start, start + len).expect("ordered");
            let (subject, object) = (format!("p{i}"), format!("club{object}"));
            let predicate = RELATIONS[relation].to_string();
            let statement = (subject, predicate, object, interval, confidence);
            ops.push(Op::Insert(statement));
        };
        for i in 0..SUBJECTS {
            let k = i64::from(i);
            push(i, 0, i % 7, 2000 + k % 5, 4, 0.8);
            push(i, 0, (i + 3) % 7, 2010, 3, 0.7);
            if i % 4 == 0 {
                push(i, 0, (i + 1) % 7, 2001 + k % 5, 2, 0.55);
            }
            push(i, 1, i % 5, 1980 + k % 9, 3, 0.75);
            if i % 3 == 0 {
                push(i, 2, i % 4, 1965 + k % 4, 50, 0.9);
            }
        }
        Step::Burst(ops, true)
    }

    fn step(&mut self, host: Host) -> Step {
        let some = self.rng.random_range(1..5);
        // Dense subjects stay on the exact backends.
        let backends = if self.apart { 4 } else { HEURISTIC };
        match self.rng.random_range(0..100) {
            0..=19 if host == Host::Stream => Step::Feed((0..some).map(|_| self.event()).collect()),
            0..=1 => Step::Feed(vec![self.event()]),
            20..=26 => Step::Flush,
            27..=31 => Step::Reconfigure(self.rng.random_range(0..backends), self.statement()),
            32..=36 => Step::Truncate(self.statement(), self.statement()),
            37..=41 => Step::Checkpoint,
            42..=46 => Step::Kill(self.fault()),
            47..=51 => Step::PowerCut(self.fault()),
            _ => Step::Burst(
                (0..some).map(|_| self.op()).collect(),
                self.rng.random_bool(0.2),
            ),
        }
    }
}

fn script(seed: u64, backend: usize, host: Host, steps: usize) -> Vec<Step> {
    let mut script = Script {
        rng: StdRng::seed_from_u64(seed),
        serial: 0,
        clock: 0,
        last_event: None,
        apart: backend >= HEURISTIC,
    };
    std::iter::once(Script::base())
        .chain(std::iter::repeat_with(|| script.step(host)))
        .take(steps)
        .collect()
}

/// Small segments and an early checkpoint threshold: an episode rolls
/// segments, syncs by count and checkpoints by size many times over.
fn wal_config() -> WalConfig {
    WalConfig {
        fsync: FsyncPolicy::EveryN(5),
        segment_bytes: 700,
        checkpoint_bytes: 2500,
    }
}

fn engine_config(backend: usize) -> TecoreConfig {
    let registry = SolverRegistry::with_default_backends();
    TecoreConfig {
        backend: registry.resolve(BACKENDS[backend]).expect("registered"),
        component_mode: ComponentMode::Components,
        ..TecoreConfig::default()
    }
}

/// Every byte written, synced or not: what a process kill leaves.
fn written(mem: &MemStorage) -> MemStorage {
    let copy = MemStorage::new();
    for name in mem.list().expect("lists") {
        let mut file = copy.create(&name).expect("creates");
        let bytes = mem.read(&name).expect("reads");
        file.append(&bytes).expect("appends");
    }
    copy
}

fn facts(graph: &UtkGraph) -> Vec<String> {
    let show = |(id, f): (FactId, &TemporalFact)| format!("{} {}", id.0, f.display(graph.dict()));
    graph.iter().map(show).collect()
}

/// What a snapshot decided, as sorted text: kept, removed, inferred
/// (without their soft confidences) and conflicts.
fn decided(s: &Snapshot) -> [Vec<String>; 4] {
    let dict = s.consistent.dict();
    let kept = (s.consistent.iter()).map(|(_, f)| f.display(dict).to_string());
    let removed = (s.removed.iter()).map(|r| format!("{} {}", r.id.0, r.fact.display(dict)));
    let inferred = (s.inferred.iter())
        .map(|f| format!("{} {} {} {}", f.subject, f.predicate, f.object, f.interval));
    let conflicts = s.conflicts.iter().map(|c| {
        let mut who: Vec<String> = c.participants.iter().map(ToString::to_string).collect();
        who.sort();
        format!("{} {who:?}", c.constraint)
    });
    let lists: [Vec<String>; 4] = [
        kept.collect(),
        removed.collect(),
        inferred.collect(),
        conflicts.collect(),
    ];
    lists.map(|mut list| {
        list.sort();
        list
    })
}

/// Asserts that `old` is a state `new` went through: nothing `old`
/// removed lives in `new`, and what lives in both reads the same.
/// Together with the epoch chain recovery enforces, that is a prefix of
/// the edit order with no hole.
fn assert_lineage(what: &str, old: &UtkGraph, new: &UtkGraph) {
    assert!(old.arena_len() <= new.arena_len(), "{what}: arena");
    for id in (0..old.arena_len() as u32).map(FactId) {
        let show = |g: &UtkGraph| g.fact(id).map(|f| f.display(g.dict()).to_string());
        match (show(old), show(new)) {
            (Some(a), Some(b)) => assert_eq!(a, b, "{what}: fact {}", id.0),
            (None, Some(b)) => panic!("{what}: {b} is gone from the older state"),
            _ => {}
        }
    }
    if old.epoch() == new.epoch() {
        assert_eq!(facts(old), facts(new), "{what}");
    }
}

/// What the simulator knows of one incarnation of the process.
#[derive(Default)]
struct Life {
    /// Did the restart that began it install a fault? Nothing may fail
    /// in an incarnation that has none.
    fault: bool,
    /// Has anything failed, and has the writer said so?
    faulted: bool,
    refused: bool,
    /// Edits made beside the writer that no tick got to publish.
    beside: u64,
    /// The epoch the last `Ok` `FLUSH` (or recovery) covers.
    flushed: u64,
    /// The published epoch last seen; the publish count (a) last ran at.
    published: u64,
    verified: Option<u64>,
    /// The ledger: what `ServerStats` must read, and whether the writer
    /// refreshed the log gauges in this step.
    edits: u64,
    publishes: u64,
    gauged: bool,
}

struct Sim {
    on: (usize, Host),
    mem: MemStorage,
    host: EngineHost,
    ctx: WriterCtx,
    /// Draws the queries of (b).
    rng: StdRng,
    life: Life,
}

impl Sim {
    /// A process start: recover the log, boot the writer's state. The
    /// flag says whether the log runs on the faulty device.
    fn open(
        mem: &MemStorage,
        fault: Option<Fault>,
        on: (usize, Host),
    ) -> (EngineHost, WriterCtx, bool) {
        let storage: Box<dyn WalStorage> = match fault {
            None => Box::new(mem.clone()),
            Some(fault) => {
                let plan = FailPlan::new();
                let plan = match fault {
                    Fault::FailAppend(n) => plan.fail_append_at(n),
                    Fault::ShortWrite(n) => plan.short_write_at(n),
                    Fault::FailSync(n) => plan.fail_sync_at(n),
                    Fault::TearAppend(n) => plan.tear_append_at(n),
                };
                Box::new(FailStorage::new(mem.clone(), plan))
            }
        };
        let ((wal, graph), fault) = match Wal::open_with(storage, wal_config()) {
            Ok(opened) => (opened, fault.is_some()),
            // A device that dies under recovery is replaced by one that works.
            Err(_) => {
                let opened = Wal::open_with(Box::new(mem.clone()), wal_config());
                (opened.expect("the log opens"), false)
            }
        };
        let engine = Engine::durable(graph, paper_program(), engine_config(on.0), wal);
        let stream = (on.1 == Host::Stream).then(|| StreamServing {
            window: WindowSpec::sliding(12, 4).expect("valid"),
            lateness: 2,
        });
        let config = ServerConfig {
            stream,
            ..ServerConfig::default()
        };
        let (host, ctx) = boot(engine, &config).expect("boots");
        (host, ctx, fault)
    }

    /// A fresh process over an empty log, with no fault installed.
    fn new(seed: u64, on: (usize, Host)) -> Sim {
        let mem = MemStorage::new();
        let (host, ctx, _) = Sim::open(&mem, None, on);
        Sim {
            on,
            mem,
            host,
            ctx,
            rng: StdRng::seed_from_u64(!seed),
            life: Life::default(),
        }
    }

    /// A restart over `mem`: the recovered graph is held to (d) against
    /// the graph that was being served, then a new incarnation begins.
    fn restart(&mut self, mem: MemStorage, fault: Option<Fault>, cut: bool) {
        let (host, ctx, fault) = Sim::open(&mem, fault, self.on);
        self.assert_recovered(host.engine().graph(), cut);
        let epoch = ctx.cell.load().epoch();
        let kept = cut || self.life.faulted || epoch >= self.life.published;
        assert!(kept, "(c) a kill took the published epoch back to {epoch}");
        (self.mem, self.host, self.ctx, self.life) = (mem, host, ctx, Life::default());
        (self.life.fault, self.life.flushed, self.life.published) = (fault, epoch, epoch);
    }

    fn graph(&self) -> &UtkGraph {
        self.host.engine().graph()
    }

    fn totals(&self) -> StreamTotals {
        match &self.host {
            EngineHost::Stream(session) => *session.totals(),
            EngineHost::Plain(_) => StreamTotals::default(),
        }
    }

    /// (e): an answer of the writer. After the first failure none is
    /// `Ok`; in an incarnation with no fault none fails.
    fn answered<T>(&mut self, what: &str, answer: &Receiver<Result<T, &'static str>>) -> bool {
        match answer.try_recv().expect("the writer answers every message") {
            Ok(_) => assert!(!self.life.faulted, "(e) {what} answered Ok after a failure"),
            Err(reason) => {
                let fault = self.life.fault;
                assert!(fault, "(e) {what} failed with no fault installed: {reason}");
                (self.life.faulted, self.life.refused) = (true, true);
                return false;
            }
        }
        true
    }

    fn flush_answered(&mut self, answer: &Receiver<Result<u64, &'static str>>) {
        if self.answered("FLUSH", answer) {
            self.life.flushed = self.graph().epoch();
        }
        self.life.gauged = true;
    }

    /// The log failed under an act the simulator took beside the
    /// writer: it does what the writer does when its own checkpoint
    /// fails, so that the writer knows.
    fn failed_beside_the_writer(&mut self) {
        let fault = self.life.fault;
        assert!(fault, "the log failed with no fault installed");
        self.ctx.stats.read_only.store(true, Relaxed);
        self.life.faulted = true;
    }

    /// One real writer tick over `msgs`, in order.
    fn tick(&mut self, msgs: Vec<WriterMsg>) {
        let mut queue = VecDeque::from(msgs);
        while let Some(first) = queue.pop_front() {
            writer_tick(&mut self.host, &self.ctx, first, || queue.pop_front());
        }
    }

    /// A tick of per-fact edits, then what their ACKs promise: the
    /// graph is the graph before plus exactly the `Ok`-ACKed edits.
    fn burst(&mut self, ops: &[Op], flush: bool) {
        let graph = self.graph();
        let live: Vec<FactId> = graph.iter().map(|(id, _)| id).collect();
        let unknown = FactId(graph.arena_len() as u32 + 9);
        let pick = |i: usize| *live.get(i % live.len().max(1)).unwrap_or(&unknown);
        let term = |symbol| graph.dict().resolve(symbol).to_string();
        let edit = |op: &Op| match op {
            Op::Insert(statement) if live.len() <= CROWDED => insert(statement.clone()),
            Op::Insert(statement) => EditOp::Remove(pick(statement.3.start().value() as usize)),
            Op::Remove(index) => EditOp::Remove(pick(*index)),
            Op::Reassert(index, confidence) => match graph.fact(pick(*index)) {
                Some(f) => {
                    let (s, p, o) = (term(f.subject), term(f.predicate), term(f.object));
                    insert((s, p, o, f.interval, *confidence))
                }
                None => EditOp::Remove(unknown),
            },
            Op::RemoveUnknown => EditOp::Remove(unknown),
        };
        let edits: Vec<EditOp> = ops.iter().map(edit).collect();
        let mut expect = graph.clone();
        let mut acks = Vec::new();
        let mut msgs: Vec<WriterMsg> = (edits.iter().cloned())
            .map(|edit| {
                let (tx, rx) = mpsc::sync_channel(1);
                acks.push(rx);
                WriterMsg::Edit(edit, Some(tx))
            })
            .collect();
        let (tx, flushed) = mpsc::sync_channel(1);
        if flush {
            msgs.push(WriterMsg::Flush(tx));
        }
        self.tick(msgs);

        let mut applied = 0;
        for (edit, ack) in edits.iter().zip(&acks) {
            if !self.answered("an edit", ack) {
                continue;
            }
            // A rejected edit (a dead or unknown id) is ACKed and
            // changes nothing, here as there.
            applied += u64::from(match edit {
                EditOp::Insert {
                    subject: s,
                    predicate: p,
                    object: o,
                    interval,
                    confidence,
                } => expect.insert(s, p, o, *interval, *confidence).is_ok(),
                EditOp::Remove(id) => expect.remove(*id).is_ok(),
                EditOp::Upsert { .. } => unreachable!("the script makes no upserts"),
            });
        }
        assert_eq!(
            (facts(self.graph()), self.graph().epoch()),
            (facts(&expect), expect.epoch()),
            "(d) the graph is not the graph before plus the Ok-ACKed edits"
        );
        self.life.edits += applied;
        self.life.publishes += u64::from(applied > 0);
        self.life.gauged |= applied > 0;
        if flush {
            self.flush_answered(&flushed);
        }
    }

    /// A tick of `FEED`s. What the windows admit and expire is the
    /// session's to say (`window_conformance` holds it to a model); the
    /// simulator holds the server's counters to the session's.
    fn feed(&mut self, events: &[(i64, Statement)]) {
        let (before, epoch) = (self.totals(), self.graph().epoch());
        let mut acks = Vec::new();
        let msgs = (events.iter().cloned())
            .map(|(time, (s, p, o, interval, confidence))| {
                let (tx, rx) = mpsc::sync_channel(1);
                acks.push(rx);
                let event = StreamEvent::new(time, s, p, o, interval, confidence);
                WriterMsg::Feed(event, Some(tx))
            })
            .collect();
        self.tick(msgs);
        for ack in &acks {
            if self.on.1 == Host::Stream {
                self.answered("a feed", ack);
            } else {
                assert_eq!(ack.try_recv(), Ok(Err("not a streaming server")));
            }
        }
        let after = self.totals();
        let fired = after.windows_fired - before.windows_fired;
        // Past the windows that fired whole, the graph moves by the
        // prefix of a batch the log refused the rest of; the writer
        // publishes that too.
        let whole = (after.events_admitted - before.events_admitted)
            + (after.events_expired - before.events_expired);
        let torn = self.graph().epoch() - epoch - whole;
        assert!(torn == 0 || self.life.refused, "{torn} stray edits");
        self.life.publishes += fired + u64::from(torn > 0);
        self.life.gauged |= fired > 0;
        if self.life.refused {
            // A push that fires one window whole and fails in the next
            // hands the writer the error alone (ROADMAP item 2): the
            // first window is published as part of the last state, and
            // counted by nobody.
            let seen = self.ctx.stats.publishes.load(Relaxed);
            let bound = seen..=seen + fired;
            assert!(bound.contains(&self.life.publishes), "(f) publishes");
            self.life.publishes = seen;
        }
    }

    fn step(&mut self, step: &Step) {
        match step {
            Step::Burst(ops, flush) => self.burst(ops, *flush),
            Step::Feed(events) => self.feed(events),
            Step::Flush => {
                let (tx, flushed) = mpsc::sync_channel(1);
                self.tick(vec![WriterMsg::Flush(tx)]);
                self.flush_answered(&flushed);
            }
            Step::Reconfigure(backend, then) => {
                let engine = self.host.engine_mut();
                let home = engine.config().backend.name() == BACKENDS[self.on.0];
                let next = if home { *backend } else { self.on.0 };
                engine.reconfigure(paper_program(), engine_config(next));
                self.burst(&[Op::Insert(then.clone())], false);
            }
            Step::Truncate((s, p, o, interval, confidence), then) => {
                let engine = self.host.engine_mut();
                let aside = engine.insert_fact(s, p, o, *interval, *confidence);
                engine.graph_mut().truncate_log(u64::MAX);
                let regrounds = engine.fallback_regrounds() + 1;
                if aside.is_err() {
                    self.failed_beside_the_writer();
                }
                let edits = self.life.edits;
                self.burst(&[Op::Insert(then.clone())], false);
                if self.life.edits == edits {
                    // The log refused the edit whose tick would have
                    // published the one beside the writer.
                    self.life.beside += u64::from(aside.is_ok());
                } else if aside.is_ok() {
                    let regrounded = self.host.engine().fallback_regrounds();
                    assert_eq!(regrounded, regrounds, "a cut-off log forces a re-ground");
                }
            }
            Step::Checkpoint => {
                if self.host.engine_mut().checkpoint().is_err() {
                    self.failed_beside_the_writer();
                }
            }
            Step::Kill(fault) => self.restart(self.mem.clone(), *fault, false),
            Step::PowerCut(fault) => self.restart(self.mem.crash_view(), *fault, true),
        }
    }

    /// (d) for a graph recovered from everything written (`cut` false)
    /// or from the synced bytes (`cut` true).
    fn assert_recovered(&self, recovered: &UtkGraph, cut: bool) {
        let (graph, epoch) = (self.graph(), recovered.epoch());
        let durable = self.ctx.stats.durable_epoch.load(Relaxed);
        let floor = match cut {
            true => self.life.flushed.max(durable),
            false => graph.epoch(),
        };
        assert!(epoch >= floor, "(d) cut={cut}: {epoch} < promised {floor}");
        if epoch <= graph.epoch() {
            return assert_lineage("(d) recovered", recovered, graph);
        }
        // The one edit a failing fsync leaves journaled and refused.
        let one_refused = self.life.faulted && epoch == graph.epoch() + 1;
        assert!(
            one_refused,
            "(d) the log, at {epoch}, is ahead of the graph"
        );
        assert_lineage("(d) recovered past the refusal", graph, recovered);
    }

    fn check(&mut self) {
        let engine = self.host.engine();
        let (graph, stats) = (engine.graph(), &self.ctx.stats);
        let published = self.ctx.cell.load();
        let (epoch, durable) = (published.epoch(), stats.durable_epoch.load(Relaxed));
        let (totals, life) = (self.totals(), &mut self.life);

        // (c)
        let before = std::mem::replace(&mut life.published, epoch);
        assert!(epoch >= before, "(c) the published epoch went back");
        let ahead = durable <= epoch + life.beside;
        assert!(ahead, "(c) durable {durable} is ahead of published {epoch}");

        // (a) — unless nothing was published since it last held.
        let publishes = stats.publishes.load(Relaxed);
        let of_graph = epoch + life.beside == graph.epoch();
        assert!(
            of_graph,
            "(a) published {epoch} is not of the surviving graph"
        );
        if life.verified != Some(publishes) && life.beside == 0 {
            let (program, config) = (engine.program().clone(), engine.config().clone());
            let cold = Engine::with_config(graph.clone(), program, config).resolve();
            let (backend, cold) = (
                engine.config().backend.name(),
                cold.expect("a cold resolve"),
            );
            let (ours, cold) = (decided(&published), decided(&cold));
            let only = |a: &[Vec<String>; 4], b: &[Vec<String>; 4]| -> Vec<String> {
                let new = |x: &&String| !b.iter().flatten().any(|y| y == *x);
                a.iter().flatten().filter(new).cloned().collect()
            };
            let (left, right) = (only(&ours, &cold), only(&cold, &ours));
            assert!(
                ours == cold,
                "(a) {backend}: published {left:?}, cold {right:?}"
            );
            life.verified = Some(publishes);
        }

        // (b)
        let (view, rng) = (published.expanded(), &mut self.rng);
        let term = |symbol| view.dict().resolve(symbol);
        for _ in 0..4 {
            let subject = format!("p{}", rng.random_range(0..SPREAD));
            let subject = rng.random_bool(0.6).then_some(subject.as_str());
            let predicate = ["coach", "playsFor", "worksFor", "birthDate", "type"];
            let predicate = predicate[rng.random_range(0..5)];
            let predicate = rng.random_bool(0.6).then_some(predicate);
            let start = rng.random_range(1970..2020);
            let len = rng.random_range(0..8) * rng.random_range(0..2);
            let window = Interval::new(start, start + len).expect("ordered");
            let mut query = published.query().overlapping(window);
            if let Some(s) = subject {
                query = query.subject(s);
            }
            if let Some(p) = predicate {
                query = query.predicate(p);
            }
            let show = |(_, f): (FactId, &TemporalFact)| f.display(view.dict()).to_string();
            let mut indexed: Vec<String> = query.iter().map(show).collect();
            let mut scanned: Vec<String> = (view.iter())
                .filter(|(_, f)| f.interval.intersects(window))
                .filter(|(_, f)| subject.is_none_or(|s| term(f.subject) == s))
                .filter(|(_, f)| predicate.is_none_or(|p| term(f.predicate) == p))
                .map(show)
                .collect();
            indexed.sort();
            scanned.sort();
            assert_eq!(indexed, scanned, "(b) {subject:?} {predicate:?} {window}");
        }
        drop(published);

        // (f)
        assert_eq!(stats.edits_applied.load(Relaxed), life.edits, "(f) edits");
        assert_eq!(publishes, life.publishes, "(f) publishes");
        let streamed = [
            (&stats.stream_windows, totals.windows_fired),
            (&stats.stream_events_admitted, totals.events_admitted),
            (&stats.stream_events_expired, totals.events_expired),
        ];
        for (seen, told) in streamed.map(|(seen, told)| (seen.load(Relaxed), told)) {
            // (Less for the windows of a refused push: see `feed`.)
            let counted = seen == told || life.refused && seen < told;
            assert!(counted, "(f) stream counters: {seen} of {told}");
        }
        let read_only = stats.read_only.load(Relaxed);
        assert!(read_only || !life.refused, "(f) refused and not read-only");
        assert!(life.fault || !read_only, "(f) read-only with no fault");
        life.faulted |= read_only;
        if std::mem::take(&mut life.gauged) && !life.faulted {
            let log = engine.wal_stats().expect("durable");
            let gauges = [
                (&stats.wal_bytes, log.bytes),
                (&stats.wal_segments, log.segments),
                (&stats.last_checkpoint_epoch, log.last_checkpoint_epoch),
                (&stats.durable_epoch, log.durable_epoch),
            ];
            let read = gauges
                .iter()
                .all(|(seen, told)| seen.load(Relaxed) == *told);
            assert!(read, "(f) log gauges are not {log:?}");
        }

        // (d)
        for (cut, disk) in [(false, written(&self.mem)), (true, self.mem.crash_view())] {
            let recovered = Wal::open_with(Box::new(disk), wal_config());
            self.assert_recovered(&recovered.expect("(d) the log recovers").1, cut);
        }
    }
}

/// Runs the first `steps` steps of the script of `seed`. A failed
/// invariant prints the seed, the shortest failing prefix and the call
/// that replays it, and returns the length of that prefix.
fn run(seed: u64, backend: usize, host: Host, steps: usize) -> Result<(), usize> {
    let script = script(seed, backend, host, steps);
    let mut done = 0;
    catch_unwind(AssertUnwindSafe(|| {
        let mut sim = Sim::new(seed, (backend, host));
        for step in &script {
            sim.step(step);
            sim.check();
            done += 1;
        }
    }))
    .map_err(|_| {
        let name = BACKENDS[backend];
        eprintln!("sim: seed {seed:#x} on {name} / {host:?} fails at step {done} of:");
        for (i, step) in script[..=done].iter().enumerate() {
            let step = format!("{step:?}")
                .replace("Interval { start: TimePoint(", "[")
                .replace("), end: TimePoint(", ",")
                .replace(") }", "]");
            eprintln!("  {i:3}: {step}");
        }
        eprintln!(
            "sim: replay with `run({seed:#x}, {backend}, Host::{host:?}, {})`",
            done + 1
        );
        done + 1
    })
}

/// Episodes of [`EPISODE`] steps on one backend, both hosts a seed.
fn episodes(backend: usize, seeds: std::ops::Range<u64>) {
    for seed in seeds {
        for host in [Host::Plain, Host::Stream] {
            assert_eq!(run(seed, backend, host, EPISODE), Ok(()));
        }
    }
}

macro_rules! profiles {
    ($($backend:literal $quick:ident $long:ident;)*) => {$(
        /// 2 000 steps, inside the tier-1 time budget.
        #[test]
        fn $quick() {
            episodes($backend, 0..10);
        }

        /// 50 000 steps.
        #[test]
        #[ignore = "long: cargo test -p tecore-server -- --ignored sim"]
        fn $long() {
            episodes($backend, 1000..1250);
        }
    )*};
}

profiles! {
    0 quick_mln_cpi long_mln_cpi;
    1 quick_mln_exact long_mln_exact;
    2 quick_mln_walksat long_mln_walksat;
    3 quick_psl_admm long_psl_admm;
}

/// Each seeded bug, armed, must make some episode fail. The bugs are
/// compiled into debug builds only.
#[cfg(debug_assertions)]
#[test]
#[ignore = "long: cargo test -p tecore-server -- --ignored sim"]
fn seeded_bugs_are_killed() {
    for site in [
        "server.ack_before_journal",
        "server.flush_ack_before_fsync",
        "wal.flush.forget_poison",
    ] {
        tecore_wal::failpoint::arm(Some(site));
        let killed = (0..400u64).find_map(|seed| {
            let host = [Host::Plain, Host::Stream][(seed % 2) as usize];
            run(seed, (seed % 4) as usize, host, EPISODE).err()
        });
        tecore_wal::failpoint::arm(None);
        assert!(killed.is_some(), "400 episodes pass with `{site}` armed");
    }
}

/// Recovery called the tail it had just replayed durable without ever
/// syncing it: after a kill, `FLUSH` answered `Ok` for bytes a power
/// cut then lost.
#[test]
fn a_flush_after_a_kill_covers_the_replayed_tail() {
    assert_eq!(run(0x0, 0, Host::Plain, 51), Ok(()));
}

/// A log failure inside a window fire left the applied prefix of the
/// fire's batch in the graph and out of the published snapshot.
#[test]
fn a_fire_the_log_refuses_is_still_published() {
    assert_eq!(run(0x9, 0, Host::Stream, 39), Ok(()));
}

/// One push fires a window whole and fails in the next: the first is
/// published with the last state, and counted by nobody (see `feed`).
#[test]
fn a_window_fired_before_a_refused_one_is_published_with_it() {
    assert_eq!(run(0x4a5, 1, Host::Stream, 60), Ok(()));
}

/// (e) has teeth: a refusal in an incarnation with no fault fails the
/// check, the same refusal under an installed fault marks the life
/// faulted.
#[test]
fn a_refusal_without_a_fault_trips_e() {
    let refuse = |sim: &mut Sim| {
        let (tx, refused) = mpsc::sync_channel::<Result<(), &'static str>>(1);
        tx.send(Err("forged")).expect("sends");
        sim.answered("an edit", &refused)
    };
    let mut sim = Sim::new(0, (0, Host::Plain));
    let tripped = catch_unwind(AssertUnwindSafe(|| refuse(&mut sim)));
    assert!(tripped.is_err(), "(e) let a refusal with no fault pass");
    let mut sim = Sim::new(0, (0, Host::Plain));
    sim.life.fault = true;
    assert!(!refuse(&mut sim));
    assert!(sim.life.faulted && sim.life.refused);
}
