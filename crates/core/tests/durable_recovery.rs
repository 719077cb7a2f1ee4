//! Durable-engine conformance: an engine recovered from its
//! write-ahead log is indistinguishable from a twin that never crashed.
//!
//! Two layers of the claim:
//!
//! 1. **State**: the recovered graph equals the twin's graph run to the
//!    durable epoch (same arena layout, same fact ids, same epoch).
//! 2. **Behaviour**: conflict resolution on the recovered engine gives
//!    the same answer a cold engine over the twin's graph gives — the
//!    WAL round trip must not perturb MAP inference.

use proptest::prelude::*;
use tecore_core::{Engine, TecoreConfig};
use tecore_kg::{FactId, UtkGraph};
use tecore_logic::LogicProgram;
use tecore_temporal::Interval;
use tecore_wal::{FsyncPolicy, MemStorage, Wal, WalConfig};

const PROGRAM: &str = "\
    c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf";

fn program() -> LogicProgram {
    LogicProgram::parse(PROGRAM).unwrap()
}

fn config() -> TecoreConfig {
    TecoreConfig {
        backend: std::sync::Arc::new(tecore_mln::BranchAndBound::new()),
        ..TecoreConfig::default()
    }
}

fn wal_config(fsync: FsyncPolicy) -> WalConfig {
    WalConfig {
        fsync,
        ..WalConfig::default()
    }
}

/// Opens a durable engine over shared in-memory storage.
fn mem_engine(mem: &MemStorage, fsync: FsyncPolicy) -> Engine {
    let (wal, graph) = Wal::open_with(Box::new(mem.clone()), wal_config(fsync)).unwrap();
    Engine::durable(graph, program(), config(), wal)
}

/// Order-insensitive digest of graph state (epoch, arena length,
/// id-tagged live fact lines).
fn fingerprint(graph: &UtkGraph) -> (u64, usize, Vec<String>) {
    let mut facts: Vec<String> = graph
        .iter()
        .map(|(id, f)| format!("{} {}", id.0, f.display(graph.dict())))
        .collect();
    facts.sort();
    (graph.epoch(), graph.arena_len(), facts)
}

/// Sorted removed-fact ids — the behavioural signature of a resolve.
fn removed_ids(resolution: &tecore_core::Resolution) -> Vec<u32> {
    let mut ids: Vec<u32> = resolution.removed.iter().map(|r| r.id.0).collect();
    ids.sort_unstable();
    ids
}

/// A coach-conflict edit script: overlapping coach intervals for a
/// handful of people, so resolves have real conflicts to chew on.
#[derive(Debug, Clone)]
enum Op {
    Insert(u8, u8, u8),
    Remove(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..4, (0u8..4, 0u8..5, 1u8..=100), 0u8..32).prop_map(|(kind, (s, o, c), index)| {
        if kind < 3 {
            Op::Insert(s, o, c)
        } else {
            Op::Remove(index)
        }
    })
}

/// Applies one op through the engine's durable edit API. Returns false
/// when the op was a no-op (remove on an empty graph).
fn apply_engine(op: &Op, engine: &mut Engine) -> bool {
    match op {
        Op::Insert(s, o, c) => {
            engine
                .insert_fact(
                    &format!("person{s}"),
                    "coach",
                    &format!("club{o}"),
                    Interval::new(2000, 2010).unwrap(),
                    f64::from(*c) / 100.0,
                )
                .unwrap();
            true
        }
        Op::Remove(i) => {
            let live: Vec<FactId> = engine.graph().iter().map(|(id, _)| id).collect();
            if live.is_empty() {
                return false;
            }
            engine.remove_fact(live[*i as usize % live.len()]).unwrap();
            true
        }
    }
}

/// Applies one op to a bare in-memory graph (the never-crashed twin).
fn apply_twin(op: &Op, graph: &mut UtkGraph) -> bool {
    match op {
        Op::Insert(s, o, c) => {
            graph
                .insert(
                    &format!("person{s}"),
                    "coach",
                    &format!("club{o}"),
                    Interval::new(2000, 2010).unwrap(),
                    f64::from(*c) / 100.0,
                )
                .unwrap();
            true
        }
        Op::Remove(i) => {
            let live: Vec<FactId> = graph.iter().map(|(id, _)| id).collect();
            if live.is_empty() {
                return false;
            }
            graph.remove(live[*i as usize % live.len()]).unwrap();
            true
        }
    }
}

/// Full std-filesystem round trip: edit, flush, drop, reopen from disk.
#[test]
fn reopened_engine_matches_in_memory_twin() {
    let dir = std::env::temp_dir().join(format!("tecore-durable-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut engine =
        Engine::open_durable_with(&dir, program(), config(), wal_config(FsyncPolicy::Always))
            .unwrap();
    assert!(engine.is_durable());
    assert_eq!(engine.graph().epoch(), 0);
    assert_eq!(engine.wal_recovery().unwrap().recovered_epoch, 0);

    let mut twin = UtkGraph::new();
    let script = [
        ("CR", "Chelsea", 0.9),
        ("CR", "Leicester", 0.7),
        ("CR", "Napoli", 0.6),
        ("JM", "Porto", 0.8),
    ];
    for (s, o, c) in script {
        engine
            .insert_fact(s, "coach", o, Interval::new(2000, 2004).unwrap(), c)
            .unwrap();
        twin.insert(s, "coach", o, Interval::new(2000, 2004).unwrap(), c)
            .unwrap();
    }
    engine.remove_fact(FactId(3)).unwrap();
    twin.remove(FactId(3)).unwrap();

    let durable = engine.flush_wal().unwrap();
    assert_eq!(durable, engine.graph().epoch());
    drop(engine);

    let mut recovered = Engine::open_durable(&dir, program()).unwrap();
    assert_eq!(fingerprint(recovered.graph()), fingerprint(&twin));
    assert_eq!(recovered.wal_recovery().unwrap().recovered_epoch, 5);

    // Behaviour: resolving the recovered engine equals a cold resolve
    // over the twin graph.
    let got = recovered.resolve_incremental().unwrap();
    let want = Engine::with_config(twin, program(), config())
        .resolve()
        .unwrap();
    assert_eq!(got.stats.conflicting_facts, want.stats.conflicting_facts);
    assert_eq!(removed_ids(&got), removed_ids(&want));

    let _ = std::fs::remove_dir_all(&dir);
}

/// A poisoned (or pre-validated-invalid) edit must leave the graph
/// untouched: journal-before-apply means a refused append refuses the
/// whole edit.
#[test]
fn refused_edits_do_not_mutate_the_graph() {
    let mem = MemStorage::new();
    let mut engine = mem_engine(&mem, FsyncPolicy::Always);
    engine
        .insert_fact("a", "coach", "b", Interval::new(1, 2).unwrap(), 0.5)
        .unwrap();

    // Invalid confidence is rejected before it reaches either log or
    // graph.
    let err = engine
        .insert_fact("a", "coach", "c", Interval::new(1, 2).unwrap(), 7.0)
        .unwrap_err();
    assert!(err.to_string().contains("confidence"), "{err}");
    // Removing a dead/unknown id likewise journals nothing.
    assert!(engine.remove_fact(FactId(99)).is_err());
    assert_eq!(engine.graph().epoch(), 1);

    // And the log agrees: replaying it yields exactly the one fact.
    drop(engine);
    let (_, recovered) = Wal::open_with(Box::new(mem.crash_view()), WalConfig::default()).unwrap();
    assert_eq!(recovered.epoch(), 1);
    assert_eq!(recovered.len(), 1);
}

/// Checkpoint mid-script through the engine API, then recover.
#[test]
fn checkpoint_mid_script_recovers_exactly() {
    let mem = MemStorage::new();
    let mut engine = mem_engine(&mem, FsyncPolicy::Always);
    let mut twin = UtkGraph::new();

    for i in 0..5 {
        let op = Op::Insert(i, i, 60);
        apply_engine(&op, &mut engine);
        apply_twin(&op, &mut twin);
    }
    let ckpt_epoch = engine.graph().epoch();
    engine.checkpoint().unwrap();
    assert_eq!(
        engine.wal_stats().unwrap().last_checkpoint_epoch,
        ckpt_epoch
    );
    for op in [Op::Remove(1), Op::Insert(9, 9, 80), Op::Remove(4)] {
        apply_engine(&op, &mut engine);
        apply_twin(&op, &mut twin);
    }
    engine.flush_wal().unwrap();
    drop(engine);

    let (wal, recovered) =
        Wal::open_with(Box::new(mem.crash_view()), WalConfig::default()).unwrap();
    assert_eq!(wal.recovery().checkpoint_epoch, ckpt_epoch);
    assert_eq!(fingerprint(&recovered), fingerprint(&twin));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Crash at a random point in a random edit script (EveryN fsync,
    /// so the tail may be unsynced): recovery yields exactly the
    /// durable epoch, the recovered graph equals the twin run to that
    /// epoch, and resolving both gives the same answer.
    #[test]
    fn crashed_engine_resolves_like_never_crashed_twin(
        ops in prop::collection::vec(arb_op(), 1..16),
    ) {
        let mem = MemStorage::new();
        let mut engine = mem_engine(&mem, FsyncPolicy::EveryN(2));
        for op in &ops {
            apply_engine(op, &mut engine);
        }
        let durable = engine.wal_stats().unwrap().durable_epoch;
        // Crash without flushing: everything after the last covering
        // fsync is gone.
        drop(engine);

        let (wal, graph) =
            Wal::open_with(Box::new(mem.crash_view()), WalConfig::default()).unwrap();
        prop_assert_eq!(graph.epoch(), durable);
        prop_assert_eq!(wal.recovery().recovered_epoch, durable);

        // Twin: replay the script to the recovered epoch.
        let mut twin = UtkGraph::new();
        for op in &ops {
            if twin.epoch() == durable {
                break;
            }
            apply_twin(op, &mut twin);
        }
        prop_assert_eq!(fingerprint(&graph), fingerprint(&twin));

        let mut recovered = Engine::durable(graph, program(), config(), wal);
        let got = recovered.resolve_incremental().unwrap();
        let want = Engine::with_config(twin, program(), config()).resolve().unwrap();
        prop_assert_eq!(got.stats.conflicting_facts, want.stats.conflicting_facts);
        prop_assert_eq!(removed_ids(&got), removed_ids(&want));
    }
}
