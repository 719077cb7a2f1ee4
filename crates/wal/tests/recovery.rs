//! Crash-recovery properties of the WAL.
//!
//! The central claim: **recovery always yields exactly the durable
//! prefix**. Whatever byte the log is cut or corrupted at, `Wal::open`
//! rebuilds the graph state as of the last whole durable record — no
//! acknowledged-durable edit is lost, no garbage is replayed. The
//! tests drive this exhaustively (every byte offset of the final
//! frame) and probabilistically (random edit scripts, random crash
//! points, compared against a never-crashed twin).

use proptest::prelude::*;
use tecore_kg::{FactId, UtkGraph};
use tecore_temporal::Interval;
use tecore_wal::{FsyncPolicy, InsertRecord, MemStorage, Wal, WalConfig};

fn seg0() -> String {
    "wal-00000000.log".to_string()
}

fn config_always() -> WalConfig {
    WalConfig {
        fsync: FsyncPolicy::Always,
        ..WalConfig::default()
    }
}

/// Journals and applies one insert, keeping log and graph in lockstep.
fn insert(wal: &mut Wal, graph: &mut UtkGraph, s: &str, p: &str, o: &str, conf: f64) {
    let record = InsertRecord {
        subject: s,
        predicate: p,
        object: o,
        interval: Interval::new(2000, 2004).unwrap(),
        confidence: conf,
    };
    let id = FactId(graph.arena_len() as u32);
    wal.log_insert(graph.epoch() + 1, id, &record).unwrap();
    graph.insert(s, p, o, record.interval, conf).unwrap();
}

/// An order-insensitive digest of graph state: (epoch, arena length,
/// sorted live fact lines with their ids).
fn fingerprint(graph: &UtkGraph) -> (u64, usize, Vec<String>) {
    let mut facts: Vec<String> = graph
        .iter()
        .map(|(id, f)| format!("{} {}", id.0, f.display(graph.dict())))
        .collect();
    facts.sort();
    (graph.epoch(), graph.arena_len(), facts)
}

/// Builds a log of `n` fully-synced records and returns the backing
/// storage plus the graph they produce.
fn seeded_log(n: usize) -> (MemStorage, UtkGraph) {
    let mem = MemStorage::new();
    let (mut wal, mut graph) = Wal::open_with(Box::new(mem.clone()), config_always()).unwrap();
    for i in 0..n {
        insert(&mut wal, &mut graph, &format!("s{i}"), "p", "o", 0.5);
    }
    (mem, graph)
}

#[test]
fn truncation_at_every_byte_offset_recovers_the_prefix() {
    const RECORDS: usize = 4;
    let (mem, graph) = seeded_log(RECORDS);
    let full = mem.raw(&seg0()).unwrap();
    // Frame boundaries, by decoding the intact log.
    let mut boundaries = vec![0usize];
    while let Some((_, n)) = tecore_wal::frame::decode(&full[*boundaries.last().unwrap()..]) {
        boundaries.push(boundaries.last().unwrap() + n);
    }
    assert_eq!(boundaries.len(), RECORDS + 1);

    for cut in 0..=full.len() {
        let view = mem.crash_view();
        view.chop(&seg0(), cut);
        let (wal, recovered) = Wal::open_with(Box::new(view), WalConfig::default()).unwrap();
        // Cutting mid-frame loses exactly the frames from that point
        // on: the recovered epoch is the number of *whole* frames
        // before the cut.
        assert!(recovered.epoch() <= graph.epoch());
        assert_eq!(recovered.len() as u64, recovered.epoch());
        let whole = boundaries.partition_point(|&b| b <= cut) as u64 - 1;
        assert_eq!(recovered.epoch(), whole, "cut={cut}");
        // Mid-frame cuts are flagged and repaired; boundary cuts are
        // a clean (shorter) log.
        let at_boundary = boundaries.contains(&cut);
        assert_eq!(wal.recovery().torn_tail, !at_boundary, "cut={cut}");
        assert_eq!(
            wal.recovery().truncated_bytes,
            (cut - boundaries[whole as usize]) as u64,
            "cut={cut}"
        );
    }
}

#[test]
fn bit_flip_at_every_final_frame_offset_recovers_the_prefix() {
    const RECORDS: usize = 4;
    let (mem, _) = seeded_log(RECORDS);
    let full = mem.raw(&seg0()).unwrap();
    // Locate the final frame by cutting back one byte at a time until
    // the recovered epoch first drops to RECORDS-1.
    let mut final_frame_start = full.len();
    while final_frame_start > 0 {
        let view = mem.crash_view();
        view.chop(&seg0(), final_frame_start - 1);
        let (_, g) = Wal::open_with(Box::new(view), WalConfig::default()).unwrap();
        if g.epoch() < (RECORDS - 1) as u64 {
            break;
        }
        final_frame_start -= 1;
    }
    assert!(final_frame_start < full.len());

    for offset in final_frame_start..full.len() {
        let view = mem.crash_view();
        view.corrupt(&seg0(), offset);
        let (wal, recovered) = Wal::open_with(Box::new(view), WalConfig::default()).unwrap();
        assert_eq!(
            recovered.epoch(),
            (RECORDS - 1) as u64,
            "flip at {offset} did not truncate to the prefix"
        );
        assert!(wal.recovery().torn_tail);
        assert_eq!(wal.recovery().recovered_epoch, recovered.epoch());
    }
}

#[test]
fn unsynced_tail_is_lost_but_durable_prefix_survives() {
    let mem = MemStorage::new();
    let config = WalConfig {
        fsync: FsyncPolicy::EveryN(3),
        ..WalConfig::default()
    };
    let (mut wal, mut graph) = Wal::open_with(Box::new(mem.clone()), config).unwrap();
    for i in 0..8 {
        insert(&mut wal, &mut graph, &format!("s{i}"), "p", "o", 0.5);
    }
    // 8 appends at EveryN(3): syncs after 3 and 6; epochs 7-8 are in
    // the page-cache-equivalent only.
    let durable = wal.stats().durable_epoch;
    assert_eq!(durable, 6);
    let (_, recovered) = Wal::open_with(Box::new(mem.crash_view()), WalConfig::default()).unwrap();
    assert_eq!(recovered.epoch(), durable);
    assert_eq!(recovered.len(), 6);
}

/// A random edit script: inserts and removes of live facts.
#[derive(Debug, Clone)]
enum Op {
    Insert(u8, u8, u8, u8),
    Remove(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // kind 0..=2 → insert (75%), 3 → remove (25%).
    (0u8..4, (0u8..20, 0u8..4, 0u8..20, 1u8..=100), 0u8..32).prop_map(
        |(kind, (s, p, o, c), index)| {
            if kind < 3 {
                Op::Insert(s, p, o, c)
            } else {
                Op::Remove(index)
            }
        },
    )
}

/// Applies `op` to `graph`, journaling through `wal` when given one.
/// Returns whether the graph changed (each change is +1 epoch).
fn apply_op(op: &Op, wal: Option<&mut Wal>, graph: &mut UtkGraph) -> bool {
    match op {
        Op::Insert(s, p, o, c) => {
            let (s, p, o) = (format!("s{s}"), format!("p{p}"), format!("o{o}"));
            let conf = f64::from(*c) / 100.0;
            let interval = Interval::new(1990, 2000).unwrap();
            if let Some(wal) = wal {
                let record = InsertRecord {
                    subject: &s,
                    predicate: &p,
                    object: &o,
                    interval,
                    confidence: conf,
                };
                wal.log_insert(graph.epoch() + 1, FactId(graph.arena_len() as u32), &record)
                    .unwrap();
            }
            graph.insert(&s, &p, &o, interval, conf).unwrap();
            true
        }
        Op::Remove(i) => {
            let live: Vec<FactId> = graph.iter().map(|(id, _)| id).collect();
            if live.is_empty() {
                return false;
            }
            let target = live[*i as usize % live.len()];
            if let Some(wal) = wal {
                wal.log_remove(graph.epoch() + 1, target).unwrap();
            }
            graph.remove(target).unwrap();
            true
        }
    }
}

proptest! {
    /// Crash anywhere: chop the (fully synced) log at an arbitrary
    /// byte, recover, and the result must equal a never-crashed twin
    /// run to the recovered epoch.
    #[test]
    fn recovery_equals_prefix_twin(
        ops in prop::collection::vec(arb_op(), 1..40),
        cut_seed in 0usize..10_000,
    ) {
        let mem = MemStorage::new();
        let (mut wal, mut graph) =
            Wal::open_with(Box::new(mem.clone()), config_always()).unwrap();
        for op in &ops {
            apply_op(op, Some(&mut wal), &mut graph);
        }
        drop(wal);

        let full = mem.raw(&seg0()).unwrap();
        let cut = cut_seed % (full.len() + 1);
        let view = mem.crash_view();
        view.chop(&seg0(), cut);
        let (_, recovered) = Wal::open_with(Box::new(view), WalConfig::default()).unwrap();

        // The twin replays the same script, stopping at the epoch the
        // crash preserved.
        let mut twin = UtkGraph::new();
        for op in &ops {
            if twin.epoch() == recovered.epoch() {
                break;
            }
            apply_op(op, None, &mut twin);
        }
        prop_assert_eq!(fingerprint(&recovered), fingerprint(&twin));
    }

    /// Checkpoint mid-script, keep editing, crash-free reopen: the
    /// recovered graph (checkpoint + tail replay) must equal the twin
    /// that never touched a log.
    #[test]
    fn checkpoint_plus_replay_equals_in_memory(
        before in prop::collection::vec(arb_op(), 1..25),
        after in prop::collection::vec(arb_op(), 0..25),
    ) {
        let mem = MemStorage::new();
        let (mut wal, mut graph) =
            Wal::open_with(Box::new(mem.clone()), config_always()).unwrap();
        let mut twin = UtkGraph::new();
        for op in &before {
            apply_op(op, Some(&mut wal), &mut graph);
            apply_op(op, None, &mut twin);
        }
        let ckpt_epoch = graph.epoch();
        wal.checkpoint(&graph).unwrap();
        for op in &after {
            apply_op(op, Some(&mut wal), &mut graph);
            apply_op(op, None, &mut twin);
        }
        wal.flush().unwrap();
        drop(wal);

        let (wal2, recovered) =
            Wal::open_with(Box::new(mem.crash_view()), WalConfig::default()).unwrap();
        prop_assert_eq!(fingerprint(&recovered), fingerprint(&twin));
        prop_assert_eq!(wal2.recovery().checkpoint_epoch, ckpt_epoch);
        // The tail replay is exactly the post-checkpoint effective ops
        // plus nothing (the marker frame is not a replayed record).
        prop_assert!(wal2.recovery().replayed <= after.len() as u64);
    }
}

mod failpoints {
    use super::*;
    use tecore_wal::{FailPlan, FailStorage};

    #[test]
    fn short_write_poisons_and_durable_prefix_recovers() {
        let mem = MemStorage::new();
        let plan = FailPlan::new().short_write_at(4);
        let storage = FailStorage::new(mem.clone(), plan.clone());
        let (mut wal, mut graph) = Wal::open_with(Box::new(storage), config_always()).unwrap();
        for i in 0..2 {
            insert(&mut wal, &mut graph, &format!("s{i}"), "p", "o", 0.5);
        }
        // Third log_insert hits the short write (appends 1-2 were the
        // first two frames, append 3 is... count carefully: each
        // log_insert is one append op). Use op 4 = the 4th append:
        // appends 1-3 succeed (3 records), the 4th tears.
        insert(&mut wal, &mut graph, "s2", "p", "o", 0.5);
        let record = InsertRecord {
            subject: "s3",
            predicate: "p",
            object: "o",
            interval: Interval::new(1, 2).unwrap(),
            confidence: 0.5,
        };
        let err = wal
            .log_insert(graph.epoch() + 1, FactId(graph.arena_len() as u32), &record)
            .unwrap_err();
        assert!(matches!(err, tecore_wal::WalError::Io(_)), "{err}");
        assert!(wal.is_poisoned());
        assert!(plan.crashed());
        // All writes now refused; the caller must not apply the edit.
        assert_eq!(
            wal.log_remove(graph.epoch() + 1, FactId(0)),
            Err(tecore_wal::WalError::Poisoned)
        );

        // The torn half-frame reached the file image (the write went
        // through before the crash flag) but was never synced. Both
        // recovery views agree on the 3 acknowledged records: the raw
        // image needs torn-tail repair, the synced image is clean.
        let (wal2, recovered) =
            Wal::open_with(Box::new(mem.clone()), WalConfig::default()).unwrap();
        assert_eq!(recovered.epoch(), 3);
        assert_eq!(recovered.len(), 3);
        assert!(wal2.recovery().torn_tail);
        let (wal3, recovered) =
            Wal::open_with(Box::new(mem.crash_view()), WalConfig::default()).unwrap();
        assert_eq!(recovered.epoch(), 3);
        assert!(!wal3.recovery().torn_tail);
    }

    #[test]
    fn fsync_error_poisons_but_leaves_synced_state() {
        let mem = MemStorage::new();
        // Syncs 1-2 succeed, the 3rd errors.
        let plan = FailPlan::new().fail_sync_at(3);
        let storage = FailStorage::new(mem.clone(), plan);
        let (mut wal, mut graph) = Wal::open_with(Box::new(storage), config_always()).unwrap();
        insert(&mut wal, &mut graph, "a", "p", "o", 0.5);
        insert(&mut wal, &mut graph, "b", "p", "o", 0.5);
        let record = InsertRecord {
            subject: "c",
            predicate: "p",
            object: "o",
            interval: Interval::new(1, 2).unwrap(),
            confidence: 0.5,
        };
        let err = wal
            .log_insert(graph.epoch() + 1, FactId(graph.arena_len() as u32), &record)
            .unwrap_err();
        assert!(matches!(err, tecore_wal::WalError::Io(_)), "{err}");
        assert!(wal.is_poisoned());
        assert_eq!(wal.flush(), Err(tecore_wal::WalError::Poisoned));
        assert_eq!(wal.stats().durable_epoch, 2);

        let (_, recovered) =
            Wal::open_with(Box::new(mem.crash_view()), WalConfig::default()).unwrap();
        assert_eq!(recovered.epoch(), 2);
    }

    #[test]
    fn crash_during_checkpoint_leaves_log_authoritative() {
        let mem = MemStorage::new();
        // The checkpoint path: create(tmp) = append op..., its sync is
        // sync #N. Fail the checkpoint's fsync specifically: with
        // Always policy, 3 record syncs happen first, so the 4th sync
        // is the checkpoint tmp file's.
        let plan = FailPlan::new().fail_sync_at(4);
        let storage = FailStorage::new(mem.clone(), plan);
        let (mut wal, mut graph) = Wal::open_with(Box::new(storage), config_always()).unwrap();
        for i in 0..3 {
            insert(&mut wal, &mut graph, &format!("s{i}"), "p", "o", 0.5);
        }
        let err = wal.checkpoint(&graph).unwrap_err();
        assert!(matches!(err, tecore_wal::WalError::Io(_)), "{err}");
        assert!(wal.is_poisoned());

        // No ckpt-*.kg was published (the tmp never renamed), so
        // recovery replays the full log; the leftover tmp is swept.
        let view = mem.crash_view();
        let (wal2, recovered) = Wal::open_with(Box::new(view), WalConfig::default()).unwrap();
        assert_eq!(recovered.epoch(), 3);
        assert_eq!(wal2.recovery().checkpoint_epoch, 0);
        assert_eq!(wal2.stats().last_checkpoint_epoch, 0);
    }
}
