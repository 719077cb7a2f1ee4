//! EditBatch conformance: `Engine::apply(batch)` must be observationally
//! identical to the same ops applied one per batch — same graph state,
//! same fact ids, same epoch, and the same conflict-resolution answer
//! on every MAP backend. The batch path nets the ops into one delta and
//! one WAL journal group; none of that may leak into semantics.

use proptest::prelude::*;
use tecore_core::batch::apply_to_graph;
use tecore_core::{EditBatch, EditOp, EditOutcome, Engine, SolverRegistry, TecoreConfig};
use tecore_kg::{FactId, UtkGraph};
use tecore_logic::LogicProgram;
use tecore_temporal::Interval;
use tecore_testkit::fingerprint;
use tecore_wal::{FsyncPolicy, MemStorage, Wal, WalConfig};

const PROGRAM: &str = "\
    c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf";

fn program() -> LogicProgram {
    LogicProgram::parse(PROGRAM).unwrap()
}

fn config(backend: &str) -> TecoreConfig {
    TecoreConfig {
        backend: SolverRegistry::with_default_backends()
            .resolve(backend)
            .unwrap(),
        ..TecoreConfig::default()
    }
}

/// The four registered backends.
const BACKENDS: [&str; 4] = ["mln-exact", "mln-walksat", "mln-cpi", "psl-admm"];

/// Sorted removed-fact ids — the behavioural signature of a resolve.
fn removed_ids(snapshot: &tecore_core::Snapshot) -> Vec<u32> {
    let mut ids: Vec<u32> = snapshot
        .resolution()
        .removed
        .iter()
        .map(|r| r.id.0)
        .collect();
    ids.sort_unstable();
    ids
}

/// A symbolic edit script over a small coach universe (overlapping
/// intervals per person, so resolves have conflicts to chew on).
#[derive(Debug, Clone)]
enum Op {
    Insert(u8, u8, u8),
    Upsert(u8, u8, u8),
    Remove(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..5, (0u8..3, 0u8..4, 1u8..=100), 0u8..32).prop_map(|(kind, (s, o, c), index)| match kind {
        0..=2 => Op::Insert(s, o, c),
        3 => Op::Upsert(s, o, c),
        _ => Op::Remove(index),
    })
}

/// Lowers a symbolic script to concrete [`EditOp`]s by simulating the
/// arena on a scratch graph: removals index the live set *at that point
/// in the script*, exactly the state both real engines pass through.
fn concretize(scratch: &mut UtkGraph, ops: &[Op]) -> Vec<EditOp> {
    let mut out = Vec::new();
    for op in ops {
        let concrete = match op {
            Op::Insert(s, o, c) => EditOp::Insert {
                subject: format!("person{s}"),
                predicate: "coach".to_string(),
                object: format!("club{o}"),
                interval: Interval::new(2000, 2010).unwrap(),
                confidence: f64::from(*c) / 100.0,
            },
            Op::Upsert(s, o, c) => EditOp::Upsert {
                subject: format!("person{s}"),
                predicate: "coach".to_string(),
                object: format!("club{o}"),
                interval: Interval::new(2001, 2008).unwrap(),
                confidence: f64::from(*c) / 100.0,
            },
            Op::Remove(i) => {
                let live: Vec<FactId> = scratch.iter().map(|(id, _)| id).collect();
                if live.is_empty() {
                    continue;
                }
                EditOp::Remove(live[*i as usize % live.len()])
            }
        };
        let mut one = EditBatch::new();
        one.push(concrete.clone());
        apply_to_graph(scratch, &one);
        out.push(concrete);
    }
    out
}

/// Replays one concrete op as one-op batches (an upsert as its
/// documented desugaring: remove every statement match, then insert).
fn apply_per_fact(engine: &mut Engine, op: &EditOp) {
    let ops = match op {
        EditOp::Upsert {
            subject,
            predicate,
            object,
            interval,
            confidence,
        } => {
            let ids = engine.graph().statement_ids(subject, predicate, object);
            let mut ops: Vec<EditOp> = ids.into_iter().map(EditOp::Remove).collect();
            ops.push(EditOp::Insert {
                subject: subject.clone(),
                predicate: predicate.clone(),
                object: object.clone(),
                interval: *interval,
                confidence: *confidence,
            });
            ops
        }
        op => vec![op.clone()],
    };
    for op in ops {
        let mut one = EditBatch::new();
        one.push(op);
        engine.apply(&one);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// One `apply(batch)` call versus the same ops as one-op batches,
    /// on all four backends: identical graph
    /// fingerprints (ids, epoch, arena) and identical resolutions.
    #[test]
    fn batch_equals_per_fact_on_all_backends(
        ops in prop::collection::vec(arb_op(), 1..14),
    ) {
        let mut scratch = UtkGraph::new();
        let concrete = concretize(&mut scratch, &ops);
        let mut batch = EditBatch::new();
        for op in &concrete {
            batch.push(op.clone());
        }
        for name in BACKENDS {
            let mut batched =
                Engine::with_config(UtkGraph::new(), program(), config(name));
            let report = batched.apply(&batch);
            prop_assert!(!report.wal_failed());

            let mut per_fact =
                Engine::with_config(UtkGraph::new(), program(), config(name));
            for op in &concrete {
                apply_per_fact(&mut per_fact, op);
            }

            prop_assert_eq!(
                fingerprint(batched.graph()),
                fingerprint(per_fact.graph()),
                "graph diverged on {}", name
            );
            let a = batched.resolve_incremental().unwrap();
            let b = per_fact.resolve_incremental().unwrap();
            prop_assert_eq!(
                a.stats.conflicting_facts, b.stats.conflicting_facts,
                "conflicts diverged on {}", name
            );
            prop_assert_eq!(
                removed_ids(&a), removed_ids(&b),
                "resolution diverged on {}", name
            );
        }
    }

    /// Durable twin equivalence: a batch journaled as one group and the
    /// same ops journaled per-fact recover to identical graphs from
    /// their respective write-ahead logs.
    #[test]
    fn durable_batch_recovers_like_per_fact(
        ops in prop::collection::vec(arb_op(), 1..12),
    ) {
        let mut scratch = UtkGraph::new();
        let concrete = concretize(&mut scratch, &ops);
        let mut batch = EditBatch::new();
        for op in &concrete {
            batch.push(op.clone());
        }
        let wal_config = || WalConfig {
            fsync: FsyncPolicy::Always,
            ..WalConfig::default()
        };

        let mem_a = MemStorage::new();
        let (wal, graph) = Wal::open_with(Box::new(mem_a.clone()), wal_config()).unwrap();
        let mut batched = Engine::durable(graph, program(), config("mln-exact"), wal);
        let report = batched.apply(&batch);
        prop_assert!(!report.wal_failed());
        batched.flush_wal().unwrap();
        drop(batched);

        let mem_b = MemStorage::new();
        let (wal, graph) = Wal::open_with(Box::new(mem_b.clone()), wal_config()).unwrap();
        let mut per_fact = Engine::durable(graph, program(), config("mln-exact"), wal);
        for op in &concrete {
            apply_per_fact(&mut per_fact, op);
        }
        per_fact.flush_wal().unwrap();
        drop(per_fact);

        let (_, from_batch) =
            Wal::open_with(Box::new(mem_a.crash_view()), wal_config()).unwrap();
        let (_, from_per_fact) =
            Wal::open_with(Box::new(mem_b.crash_view()), wal_config()).unwrap();
        prop_assert_eq!(fingerprint(&from_batch), fingerprint(&from_per_fact));
        prop_assert_eq!(fingerprint(&from_batch), fingerprint(&scratch));
    }
}

/// A semantic rejection mid-batch does not poison the rest: later ops
/// still run, and the report localises the rejection.
#[test]
fn rejected_op_mid_batch_continues() {
    let mut engine = Engine::new(UtkGraph::new(), program());
    let iv = Interval::new(2000, 2004).unwrap();
    let report = engine.apply(
        &EditBatch::new()
            .insert("CR", "coach", "Chelsea", iv, 0.9)
            .remove(FactId(99)) // unknown id → Rejected
            .insert("CR", "coach", "Leicester", iv, 0.7),
    );
    assert!(matches!(report.outcomes[0], EditOutcome::Inserted(_)));
    assert!(matches!(report.outcomes[1], EditOutcome::Rejected(_)));
    assert!(matches!(report.outcomes[2], EditOutcome::Inserted(_)));
    assert_eq!(report.applied(), 2);
    assert_eq!(report.changes(), 2);
    assert!(report.first_error().is_some());
    assert!(report.into_result().is_err());
    assert_eq!(engine.graph().len(), 2);
}

/// An upsert replaces every live fact asserting the same statement,
/// whatever their intervals, and reports what it tombstoned.
#[test]
fn upsert_replaces_all_statement_matches() {
    let mut engine = Engine::new(UtkGraph::new(), program());
    let report = engine.apply(
        &EditBatch::new()
            .insert(
                "CR",
                "coach",
                "Chelsea",
                Interval::new(2000, 2002).unwrap(),
                0.6,
            )
            .insert(
                "CR",
                "coach",
                "Chelsea",
                Interval::new(2003, 2005).unwrap(),
                0.7,
            )
            .insert(
                "CR",
                "coach",
                "Napoli",
                Interval::new(2006, 2008).unwrap(),
                0.8,
            ),
    );
    assert_eq!(report.applied(), 3);

    let report = engine.apply(&EditBatch::new().upsert(
        "CR",
        "coach",
        "Chelsea",
        Interval::new(2000, 2005).unwrap(),
        0.95,
    ));
    let [EditOutcome::Upserted { removed, id }] = &report.outcomes[..] else {
        panic!("expected one Upserted outcome: {:?}", report.outcomes);
    };
    assert_eq!(removed.len(), 2, "both Chelsea spells replaced");
    assert!(engine.graph().is_alive(*id));
    assert_eq!(engine.graph().len(), 2, "Napoli + the replacement");
    assert_eq!(report.changes(), 3);
}
