//! The write-ahead log proper: segments, fsync policy, checkpoints,
//! recovery.

use std::fmt;

use tecore_kg::parser::parse_checkpoint;
use tecore_kg::writer::write_checkpoint;
use tecore_kg::{FactId, KgError, UtkGraph};

use crate::frame::{self, InsertRecord, Record};
use crate::storage::{StdStorage, WalFile, WalStorage};

/// When the log calls fsync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync after every appended record: an ACK implies durability,
    /// at one fsync per edit.
    Always,
    /// Fsync once at least this many records are unsynced (and on
    /// every explicit [`Wal::flush`]). The durability window is the
    /// unsynced suffix.
    EveryN(u32),
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::EveryN(64)
    }
}

/// Tuning knobs of a [`Wal`].
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Fsync cadence.
    pub fsync: FsyncPolicy,
    /// Roll to a new segment once the active one reaches this size.
    pub segment_bytes: u64,
    /// [`Wal::should_checkpoint`] fires once this many log bytes have
    /// accumulated since the last checkpoint.
    pub checkpoint_bytes: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            fsync: FsyncPolicy::default(),
            segment_bytes: 4 << 20,
            checkpoint_bytes: 16 << 20,
        }
    }
}

/// Errors of the durability layer.
///
/// Any I/O failure **poisons** the log: the in-memory graph may now be
/// ahead of what the log can replay, so further appends would create a
/// gap. A poisoned log keeps serving reads (stats, recovery report)
/// but refuses writes; the server degrades to read-only when it sees
/// this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// An underlying I/O operation failed.
    Io(String),
    /// The on-disk state is inconsistent beyond torn-tail repair.
    Corrupt(String),
    /// A previous failure poisoned the log; writes are refused.
    Poisoned,
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "log i/o failed: {e}"),
            WalError::Corrupt(e) => write!(f, "log corrupt: {e}"),
            WalError::Poisoned => write!(f, "log poisoned by an earlier failure"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<KgError> for WalError {
    fn from(e: KgError) -> Self {
        WalError::Corrupt(e.to_string())
    }
}

/// Point-in-time counters of a [`Wal`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Total bytes across live segments.
    pub bytes: u64,
    /// Number of live segments (including the active one).
    pub segments: u64,
    /// Epoch of the newest durable checkpoint (0 if none).
    pub last_checkpoint_epoch: u64,
    /// Highest epoch guaranteed on durable storage.
    pub durable_epoch: u64,
    /// Highest epoch appended (durable once the covering fsync runs).
    pub appended_epoch: u64,
}

/// What [`Wal::open`] found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Epoch of the checkpoint the recovery started from (0 = none).
    pub checkpoint_epoch: u64,
    /// Log records replayed on top of the checkpoint.
    pub replayed: u64,
    /// Records skipped because the checkpoint already covered them.
    pub skipped: u64,
    /// Bytes cut off the log at the first corrupt/torn frame.
    pub truncated_bytes: u64,
    /// Did recovery hit a torn tail?
    pub torn_tail: bool,
    /// The graph epoch after recovery.
    pub recovered_epoch: u64,
}

#[derive(Debug)]
struct Segment {
    name: String,
    seq: u64,
    bytes: u64,
}

fn segment_name(seq: u64) -> String {
    format!("wal-{seq:08}.log")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

fn checkpoint_name(epoch: u64) -> String {
    format!("ckpt-{epoch:020}.kg")
}

fn parse_checkpoint_name(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt-")?
        .strip_suffix(".kg")?
        .parse()
        .ok()
}

/// A segment-based write-ahead log of fact edits.
///
/// The log records every insert/remove *before* it is applied to the
/// in-memory [`UtkGraph`]; [`Wal::open`] later rebuilds the graph from
/// the newest durable checkpoint plus a replay of the log tail,
/// truncating at the first torn or corrupt frame. See the crate docs
/// for the full lifecycle.
#[derive(Debug)]
pub struct Wal {
    storage: Box<dyn WalStorage>,
    config: WalConfig,
    active: Box<dyn WalFile>,
    /// Live segments, ascending by sequence; the last one is active.
    segments: Vec<Segment>,
    appended_epoch: u64,
    durable_epoch: u64,
    unsynced: u32,
    last_checkpoint_epoch: u64,
    bytes_since_checkpoint: u64,
    poisoned: bool,
    recovery: RecoveryReport,
    buf: Vec<u8>,
}

impl Wal {
    /// Opens (or creates) the log in directory `dir`, recovering the
    /// graph it describes: newest parseable checkpoint, then replay of
    /// the log tail, with torn-tail truncation. Details of what
    /// happened are in [`Wal::recovery`].
    pub fn open(
        dir: impl Into<std::path::PathBuf>,
        config: WalConfig,
    ) -> Result<(Wal, UtkGraph), WalError> {
        let storage = StdStorage::open(dir).map_err(|e| WalError::Io(e.to_string()))?;
        Wal::open_with(Box::new(storage), config)
    }

    /// [`Wal::open`] over any storage backend (tests use
    /// [`crate::storage::MemStorage`] and the failpoint wrapper).
    pub fn open_with(
        storage: Box<dyn WalStorage>,
        config: WalConfig,
    ) -> Result<(Wal, UtkGraph), WalError> {
        let io_err = |e: std::io::Error| WalError::Io(e.to_string());
        let names = storage.list().map_err(io_err)?;

        // Unfinished checkpoint writes are garbage: drop them.
        for name in &names {
            if name.ends_with(".tmp") {
                let _ = storage.remove(name);
            }
        }

        // Newest checkpoint that actually parses wins; a corrupt one
        // falls back to the next older (and ultimately to an empty
        // graph — the log then replays everything).
        let mut checkpoints: Vec<(u64, &String)> = names
            .iter()
            .filter_map(|n| parse_checkpoint_name(n).map(|e| (e, n)))
            .collect();
        checkpoints.sort_unstable_by_key(|c| std::cmp::Reverse(c.0));
        let mut graph = UtkGraph::new();
        let mut recovery = RecoveryReport::default();
        for (epoch, name) in &checkpoints {
            let Ok(bytes) = storage.read(name) else {
                continue;
            };
            let Ok(text) = String::from_utf8(bytes) else {
                continue;
            };
            if let Ok(g) = parse_checkpoint(&text) {
                graph = g;
                recovery.checkpoint_epoch = *epoch;
                break;
            }
        }

        // Replay segments in sequence order.
        let mut segments: Vec<Segment> = names
            .iter()
            .filter_map(|n| {
                parse_segment_name(n).map(|seq| Segment {
                    name: n.clone(),
                    seq,
                    bytes: 0,
                })
            })
            .collect();
        segments.sort_unstable_by_key(|s| s.seq);
        let mut torn_at: Option<usize> = None;
        for (i, segment) in segments.iter_mut().enumerate() {
            let data = storage.read(&segment.name).map_err(io_err)?;
            let mut offset = 0usize;
            while offset < data.len() {
                match frame::decode(&data[offset..]) {
                    Some((record, consumed)) => {
                        if record.epoch() <= graph.epoch() {
                            if !matches!(record, Record::Checkpoint { .. }) {
                                recovery.skipped += 1;
                            }
                        } else {
                            Wal::replay(&mut graph, record)?;
                            recovery.replayed += 1;
                        }
                        offset += consumed;
                    }
                    None => {
                        // Torn tail: cut the segment here and drop
                        // everything after it.
                        recovery.torn_tail = true;
                        recovery.truncated_bytes += (data.len() - offset) as u64;
                        storage
                            .truncate(&segment.name, offset as u64)
                            .map_err(io_err)?;
                        torn_at = Some(i);
                        break;
                    }
                }
            }
            segment.bytes = offset as u64;
            if torn_at.is_some() {
                break;
            }
        }
        if let Some(i) = torn_at {
            for dropped in segments.drain(i + 1..) {
                recovery.truncated_bytes += storage
                    .read(&dropped.name)
                    .map(|d| d.len() as u64)
                    .unwrap_or(0);
                storage.remove(&dropped.name).map_err(io_err)?;
            }
        }
        recovery.recovered_epoch = graph.epoch();

        // Reopen the tail segment, or start a fresh one when there is
        // none or it is full. A process kill leaves bytes that recovery
        // has just replayed and no fsync ever covered: sync them before
        // the recovered epoch is called durable below.
        let mut reopened = None;
        if let Some(last) = segments.last() {
            let mut file = storage.open_append(&last.name).map_err(io_err)?;
            if last.bytes > 0 {
                file.sync().map_err(io_err)?;
            }
            reopened = (last.bytes < config.segment_bytes).then_some(file);
        }
        let active = match reopened {
            Some(file) => file,
            None => {
                let seq = segments.last().map_or(0, |s| s.seq + 1);
                let name = segment_name(seq);
                let file = storage.create(&name).map_err(io_err)?;
                segments.push(Segment {
                    name,
                    seq,
                    bytes: 0,
                });
                file
            }
        };

        let epoch = graph.epoch();
        let bytes: u64 = segments.iter().map(|s| s.bytes).sum();
        let wal = Wal {
            storage,
            config,
            active,
            segments,
            appended_epoch: epoch,
            durable_epoch: epoch,
            unsynced: 0,
            last_checkpoint_epoch: recovery.checkpoint_epoch,
            bytes_since_checkpoint: bytes,
            poisoned: false,
            recovery,
            buf: Vec::with_capacity(256),
        };
        Ok((wal, graph))
    }

    /// Applies one decoded record to the graph being recovered,
    /// enforcing the epoch/id alignment the append path guarantees.
    fn replay(graph: &mut UtkGraph, record: Record) -> Result<(), WalError> {
        let expect = graph.epoch() + 1;
        match record {
            Record::Insert {
                epoch,
                id,
                subject,
                predicate,
                object,
                interval,
                confidence,
            } => {
                if epoch != expect {
                    return Err(WalError::Corrupt(format!(
                        "insert at epoch {epoch}, graph expected {expect}"
                    )));
                }
                if id.index() != graph.arena_len() {
                    return Err(WalError::Corrupt(format!(
                        "insert id {} but next arena slot is {}",
                        id.0,
                        graph.arena_len()
                    )));
                }
                graph.insert(&subject, &predicate, &object, interval, confidence)?;
            }
            Record::Remove { epoch, id } => {
                if epoch != expect {
                    return Err(WalError::Corrupt(format!(
                        "remove at epoch {epoch}, graph expected {expect}"
                    )));
                }
                graph.remove(id)?;
            }
            Record::Checkpoint { .. } => {}
        }
        Ok(())
    }

    fn check_poisoned(&self) -> Result<(), WalError> {
        if self.poisoned {
            Err(WalError::Poisoned)
        } else {
            Ok(())
        }
    }

    fn io_poison(&mut self, e: std::io::Error) -> WalError {
        // Seeded bug: the error is returned, the sticky flag forgotten.
        #[cfg(debug_assertions)]
        if crate::failpoint::armed("wal.flush.forget_poison") {
            return WalError::Io(e.to_string());
        }
        self.poisoned = true;
        WalError::Io(e.to_string())
    }

    /// Journals a fact insert. `epoch` is the graph epoch *after* the
    /// insert (current + 1) and `id` the arena slot it will occupy —
    /// call this *before* mutating the graph, so a failed append
    /// leaves graph and log agreeing.
    pub fn log_insert(
        &mut self,
        epoch: u64,
        id: FactId,
        record: &InsertRecord<'_>,
    ) -> Result<(), WalError> {
        self.check_poisoned()?;
        self.buf.clear();
        frame::encode_insert(&mut self.buf, epoch, id, record);
        self.append_frame(epoch)
    }

    /// Journals a fact removal (same call-before-mutate contract as
    /// [`Wal::log_insert`]).
    pub fn log_remove(&mut self, epoch: u64, id: FactId) -> Result<(), WalError> {
        self.check_poisoned()?;
        self.buf.clear();
        frame::encode_remove(&mut self.buf, epoch, id);
        self.append_frame(epoch)
    }

    /// Appends `self.buf` as one frame to the active segment, rolling
    /// first if it is full (frames never straddle segments), then
    /// applies the fsync policy.
    fn append_frame(&mut self, epoch: u64) -> Result<(), WalError> {
        let len = self.buf.len() as u64;
        let active_bytes = self.segments.last().map_or(0, |s| s.bytes);
        if active_bytes > 0 && active_bytes + len > self.config.segment_bytes {
            self.roll()?;
        }
        let mut written = 0usize;
        while written < self.buf.len() {
            match self.active.append(&self.buf[written..]) {
                // A partial frame may now sit at the segment tail;
                // recovery truncates it, which is exactly why the log
                // must refuse further appends (poison) — anything
                // after the tear would be unreachable.
                Ok(0) => {
                    self.poisoned = true;
                    return Err(WalError::Io("append made no progress".into()));
                }
                Ok(n) => written += n,
                Err(e) => return Err(self.io_poison(e)),
            }
        }
        let segment = self
            .segments
            .last_mut()
            .ok_or_else(|| WalError::Corrupt("internal: no active segment after append".into()))?;
        segment.bytes += len;
        self.bytes_since_checkpoint += len;
        self.appended_epoch = epoch;
        self.unsynced += 1;
        match self.config.fsync {
            FsyncPolicy::Always => self.sync(),
            FsyncPolicy::EveryN(n) => {
                if self.unsynced >= n.max(1) {
                    self.sync()
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Seals the active segment (fsyncing it, so sealed segments are
    /// always fully durable) and starts a fresh one.
    fn roll(&mut self) -> Result<(), WalError> {
        if let Err(e) = self.active.sync() {
            return Err(self.io_poison(e));
        }
        self.durable_epoch = self.appended_epoch;
        self.unsynced = 0;
        let seq = self.segments.last().map_or(0, |s| s.seq + 1);
        let name = segment_name(seq);
        match self.storage.create(&name) {
            Ok(file) => {
                self.active = file;
                self.segments.push(Segment {
                    name,
                    seq,
                    bytes: 0,
                });
                Ok(())
            }
            Err(e) => Err(self.io_poison(e)),
        }
    }

    /// Forces appended records to durable storage now.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.check_poisoned()?;
        match self.active.sync() {
            Ok(()) => {
                self.durable_epoch = self.appended_epoch;
                self.unsynced = 0;
                Ok(())
            }
            Err(e) => Err(self.io_poison(e)),
        }
    }

    /// Fsyncs if anything is pending and returns the durable epoch —
    /// the `FLUSH` protocol verb bottoms out here.
    pub fn flush(&mut self) -> Result<u64, WalError> {
        self.check_poisoned()?;
        if self.durable_epoch != self.appended_epoch || self.unsynced > 0 {
            self.sync()?;
        }
        Ok(self.durable_epoch)
    }

    /// Writes a durable checkpoint of `graph` (which must be at least
    /// as new as everything appended), then prunes: sealed segments
    /// and older checkpoints are deleted, and the log restarts in a
    /// fresh segment holding only a checkpoint marker.
    pub fn checkpoint(&mut self, graph: &UtkGraph) -> Result<(), WalError> {
        self.check_poisoned()?;
        let epoch = graph.epoch();
        if epoch < self.appended_epoch {
            return Err(WalError::Corrupt(format!(
                "checkpoint at epoch {epoch} behind appended epoch {}",
                self.appended_epoch
            )));
        }
        let name = checkpoint_name(epoch);
        let tmp = format!("{name}.tmp");
        let text = write_checkpoint(graph);
        let mut file = match self.storage.create(&tmp) {
            Ok(f) => f,
            Err(e) => return Err(self.io_poison(e)),
        };
        let mut written = 0usize;
        let bytes = text.as_bytes();
        while written < bytes.len() {
            match file.append(&bytes[written..]) {
                Ok(0) => {
                    self.poisoned = true;
                    return Err(WalError::Io("checkpoint write made no progress".into()));
                }
                Ok(n) => written += n,
                Err(e) => return Err(self.io_poison(e)),
            }
        }
        if let Err(e) = file.sync() {
            return Err(self.io_poison(e));
        }
        drop(file);
        if let Err(e) = self.storage.rename(&tmp, &name) {
            return Err(self.io_poison(e));
        }

        // The checkpoint now covers every appended record, whether or
        // not their fsync ever ran.
        self.appended_epoch = self.appended_epoch.max(epoch);
        self.durable_epoch = self.appended_epoch;
        self.unsynced = 0;
        self.last_checkpoint_epoch = epoch;

        // Restart the log in a fresh segment and prune what the
        // checkpoint superseded. Failures past this point don't lose
        // data (the checkpoint is durable), but a broken device still
        // poisons via roll()/append_frame().
        self.roll()?;
        let active = self
            .segments
            .pop()
            .ok_or_else(|| WalError::Corrupt("internal: roll left no active segment".into()))?;
        for sealed in self.segments.drain(..) {
            let _ = self.storage.remove(&sealed.name);
        }
        self.segments.push(active);
        if let Ok(names) = self.storage.list() {
            for stale in names {
                if parse_checkpoint_name(&stale).is_some_and(|e| e < epoch) {
                    let _ = self.storage.remove(&stale);
                }
            }
        }
        self.bytes_since_checkpoint = 0;
        self.buf.clear();
        frame::encode_checkpoint(&mut self.buf, epoch);
        self.append_frame(self.appended_epoch)
    }

    /// Has enough log accumulated since the last checkpoint that the
    /// owner should take another one?
    pub fn should_checkpoint(&self) -> bool {
        self.bytes_since_checkpoint >= self.config.checkpoint_bytes
    }

    /// Current counters.
    pub fn stats(&self) -> WalStats {
        WalStats {
            bytes: self.segments.iter().map(|s| s.bytes).sum(),
            segments: self.segments.len() as u64,
            last_checkpoint_epoch: self.last_checkpoint_epoch,
            durable_epoch: self.durable_epoch,
            appended_epoch: self.appended_epoch,
        }
    }

    /// What [`Wal::open`] found and did.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Has an I/O failure disabled writes?
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The configuration the log runs with.
    pub fn config(&self) -> &WalConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use tecore_temporal::Interval;

    fn record(i: usize) -> InsertRecord<'static> {
        // Leak a handful of strings for test convenience.
        let s: &'static str = Box::leak(format!("s{i}").into_boxed_str());
        InsertRecord {
            subject: s,
            predicate: "p",
            object: "o",
            interval: Interval::new(1, 2).unwrap(),
            confidence: 0.5,
        }
    }

    /// Drives `wal` and a twin graph through `n` inserts.
    fn apply_inserts(wal: &mut Wal, graph: &mut UtkGraph, n: usize) {
        for i in 0..n {
            let r = record(i);
            let id = FactId(graph.arena_len() as u32);
            wal.log_insert(graph.epoch() + 1, id, &r).unwrap();
            graph
                .insert(r.subject, r.predicate, r.object, r.interval, r.confidence)
                .unwrap();
        }
    }

    #[test]
    fn fresh_open_then_replay() {
        let mem = MemStorage::new();
        let (mut wal, mut graph) =
            Wal::open_with(Box::new(mem.clone()), WalConfig::default()).unwrap();
        assert_eq!(graph.epoch(), 0);
        apply_inserts(&mut wal, &mut graph, 5);
        let removed = FactId(2);
        wal.log_remove(graph.epoch() + 1, removed).unwrap();
        graph.remove(removed).unwrap();
        assert_eq!(wal.flush().unwrap(), graph.epoch());

        let (wal2, recovered) =
            Wal::open_with(Box::new(mem.crash_view()), WalConfig::default()).unwrap();
        assert_eq!(recovered.epoch(), graph.epoch());
        assert_eq!(recovered.len(), graph.len());
        assert!(!recovered.is_alive(removed));
        assert_eq!(wal2.recovery().replayed, 6);
        assert!(!wal2.recovery().torn_tail);
    }

    #[test]
    fn fsync_policy_always_vs_every_n() {
        let mem = MemStorage::new();
        let config = WalConfig {
            fsync: FsyncPolicy::Always,
            ..WalConfig::default()
        };
        let (mut wal, mut graph) = Wal::open_with(Box::new(mem.clone()), config).unwrap();
        apply_inserts(&mut wal, &mut graph, 10);
        assert_eq!(mem.sync_count(), 10);
        assert_eq!(wal.stats().durable_epoch, 10);

        let mem = MemStorage::new();
        let config = WalConfig {
            fsync: FsyncPolicy::EveryN(4),
            ..WalConfig::default()
        };
        let (mut wal, mut graph) = Wal::open_with(Box::new(mem.clone()), config).unwrap();
        apply_inserts(&mut wal, &mut graph, 10);
        assert_eq!(mem.sync_count(), 2, "10 appends at EveryN(4) = 2 syncs");
        assert_eq!(wal.stats().durable_epoch, 8);
        assert_eq!(wal.stats().appended_epoch, 10);
        assert_eq!(wal.flush().unwrap(), 10);
        assert_eq!(mem.sync_count(), 3);
    }

    #[test]
    fn segments_roll_and_seal_durably() {
        let mem = MemStorage::new();
        let config = WalConfig {
            fsync: FsyncPolicy::EveryN(1000),
            segment_bytes: 128,
            ..WalConfig::default()
        };
        let (mut wal, mut graph) = Wal::open_with(Box::new(mem.clone()), config).unwrap();
        apply_inserts(&mut wal, &mut graph, 40);
        let stats = wal.stats();
        assert!(stats.segments > 1, "128-byte segments must roll: {stats:?}");
        // Sealing fsyncs, so everything but the active tail is durable
        // even though EveryN(1000) never fired.
        let (_, recovered) =
            Wal::open_with(Box::new(mem.crash_view()), WalConfig::default()).unwrap();
        assert_eq!(recovered.epoch(), stats.durable_epoch);
        assert!(stats.durable_epoch >= 30, "most records sealed: {stats:?}");
    }

    #[test]
    fn checkpoint_prunes_and_recovery_uses_it() {
        let mem = MemStorage::new();
        let config = WalConfig {
            fsync: FsyncPolicy::EveryN(2),
            segment_bytes: 256,
            ..WalConfig::default()
        };
        let (mut wal, mut graph) = Wal::open_with(Box::new(mem.clone()), config.clone()).unwrap();
        apply_inserts(&mut wal, &mut graph, 30);
        wal.checkpoint(&graph).unwrap();
        let stats = wal.stats();
        assert_eq!(stats.segments, 1, "checkpoint prunes sealed segments");
        assert_eq!(stats.last_checkpoint_epoch, 30);
        assert_eq!(stats.durable_epoch, 30);

        // More edits after the checkpoint, then recover: checkpoint
        // load + tail replay.
        apply_inserts(&mut wal, &mut graph, 4);
        wal.flush().unwrap();
        let (wal2, recovered) = Wal::open_with(Box::new(mem.crash_view()), config).unwrap();
        assert_eq!(recovered.epoch(), 34);
        assert_eq!(recovered.len(), graph.len());
        assert_eq!(wal2.recovery().checkpoint_epoch, 30);
        assert_eq!(wal2.recovery().replayed, 4);
        assert_eq!(wal2.recovery().skipped, 0);
        assert_eq!(wal2.stats().last_checkpoint_epoch, 30);
    }

    #[test]
    fn torn_tail_truncates_to_last_whole_record() {
        let mem = MemStorage::new();
        let config = WalConfig {
            fsync: FsyncPolicy::Always,
            ..WalConfig::default()
        };
        let (mut wal, mut graph) = Wal::open_with(Box::new(mem.clone()), config).unwrap();
        apply_inserts(&mut wal, &mut graph, 3);
        // Chop the segment mid-frame: recovery must fall back to the
        // first two records.
        let name = segment_name(0);
        let len = mem.raw(&name).unwrap().len();
        mem.chop(&name, len - 5);
        let (wal2, recovered) =
            Wal::open_with(Box::new(mem.clone()), WalConfig::default()).unwrap();
        assert_eq!(recovered.epoch(), 2);
        assert!(wal2.recovery().torn_tail);
        assert!(wal2.recovery().truncated_bytes > 0);
        // The torn bytes are gone from storage too: a subsequent open
        // is clean.
        drop(wal2);
        let (wal3, recovered) =
            Wal::open_with(Box::new(mem.clone()), WalConfig::default()).unwrap();
        assert_eq!(recovered.epoch(), 2);
        assert!(!wal3.recovery().torn_tail);
    }

    #[test]
    fn append_after_recovery_continues_the_epoch_chain() {
        let mem = MemStorage::new();
        let config = WalConfig {
            fsync: FsyncPolicy::Always,
            ..WalConfig::default()
        };
        let (mut wal, mut graph) = Wal::open_with(Box::new(mem.clone()), config.clone()).unwrap();
        apply_inserts(&mut wal, &mut graph, 3);
        drop(wal);
        let (mut wal, mut graph) = Wal::open_with(Box::new(mem.clone()), config.clone()).unwrap();
        assert_eq!(graph.epoch(), 3);
        apply_inserts(&mut wal, &mut graph, 2);
        drop(wal);
        let (_, recovered) = Wal::open_with(Box::new(mem.clone()), config).unwrap();
        assert_eq!(recovered.epoch(), 5);
        assert_eq!(recovered.len(), 5);
    }

    #[test]
    fn poisoned_log_refuses_writes() {
        let mem = MemStorage::new();
        let (mut wal, mut graph) =
            Wal::open_with(Box::new(mem.clone()), WalConfig::default()).unwrap();
        apply_inserts(&mut wal, &mut graph, 2);
        // Simulate a dead device by removing the active segment out
        // from under the log: MemStorage appends then fail.
        mem.remove(&segment_name(0)).unwrap();
        let r = record(99);
        let err = wal
            .log_insert(graph.epoch() + 1, FactId(99), &r)
            .unwrap_err();
        assert!(matches!(err, WalError::Io(_)));
        assert!(wal.is_poisoned());
        assert_eq!(
            wal.log_remove(graph.epoch() + 1, FactId(0)),
            Err(WalError::Poisoned)
        );
        assert_eq!(wal.flush(), Err(WalError::Poisoned));
        // Reads still work.
        let _ = wal.stats();
    }
}
