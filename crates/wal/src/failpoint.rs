//! Deterministic fault injection.
//!
//! [`FailStorage`] wraps a [`MemStorage`] and fails I/O on a schedule
//! fixed by a [`FailPlan`]: the Nth append can error or write only
//! half its bytes, the Nth fsync can fail. Each of those faults marks
//! the plan *crashed*: every subsequent operation through the wrapper
//! errors, modelling a dead log device. [`FailPlan::tear_append_at`]
//! is the one fault that fires once and leaves the device working — a
//! torn frame followed by healthy appends, the case only the log's own
//! poison flag protects. The underlying [`MemStorage`] stays readable,
//! so tests recover from [`MemStorage::crash_view`] and check exactly
//! which acknowledged state survived.
//!
//! The module also carries the switch for the **seeded bugs** compiled
//! into the real writer and log of a debug build ([`arm`] /
//! [`armed`]): a test arms one by name on its own thread and asserts
//! that its oracle now fails. A release build compiles no seeded-bug
//! branch, so arming a site there changes nothing.

use std::cell::Cell;
use std::io;
use std::sync::{Arc, Mutex};

use crate::storage::{MemStorage, WalFile, WalStorage};

thread_local! {
    static ARMED: Cell<Option<&'static str>> = const { Cell::new(None) };
}

/// Arms the seeded bug `site` on the calling thread (`None` disarms).
/// The sites: `server.ack_before_journal`,
/// `server.flush_ack_before_fsync`, `wal.flush.forget_poison`.
pub fn arm(site: Option<&'static str>) {
    ARMED.with(|armed| armed.set(site));
}

/// Is the seeded bug `site` armed on this thread?
pub fn armed(site: &str) -> bool {
    ARMED.with(|armed| armed.get() == Some(site))
}

#[derive(Debug, Default)]
struct PlanState {
    append_ops: u64,
    sync_ops: u64,
    fail_append_at: Option<u64>,
    short_write_at: Option<u64>,
    fail_sync_at: Option<u64>,
    tear_append_at: Option<u64>,
    crashed: bool,
}

/// A shared, deterministic fault schedule. Operation indices are
/// 1-based and counted across all files of the storage.
#[derive(Debug, Default, Clone)]
pub struct FailPlan {
    state: Arc<Mutex<PlanState>>,
}

impl FailPlan {
    /// A plan that never fails (until configured).
    pub fn new() -> FailPlan {
        FailPlan::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PlanState> {
        // A panicked holder can't corrupt the plan (plain counters), so
        // recover rather than propagate the poison.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Fail the `n`th append with an I/O error (nothing written).
    pub fn fail_append_at(self, n: u64) -> FailPlan {
        self.lock().fail_append_at = Some(n);
        self
    }

    /// Make the `n`th append write only half its buffer, then crash.
    pub fn short_write_at(self, n: u64) -> FailPlan {
        self.lock().short_write_at = Some(n);
        self
    }

    /// Fail the `n`th fsync with an I/O error.
    pub fn fail_sync_at(self, n: u64) -> FailPlan {
        self.lock().fail_sync_at = Some(n);
        self
    }

    /// Make the `n`th append write half its buffer and then error —
    /// once: the device keeps working afterwards.
    pub fn tear_append_at(self, n: u64) -> FailPlan {
        self.lock().tear_append_at = Some(n);
        self
    }

    /// Has a fault killed the device yet?
    pub fn crashed(&self) -> bool {
        self.lock().crashed
    }

    fn dead() -> io::Error {
        io::Error::new(io::ErrorKind::BrokenPipe, "injected: log device gone")
    }
}

/// [`WalStorage`] wrapper that applies a [`FailPlan`] to every
/// operation.
#[derive(Debug, Clone)]
pub struct FailStorage {
    inner: MemStorage,
    plan: FailPlan,
}

impl FailStorage {
    /// Wraps `inner` with the fault schedule `plan`.
    pub fn new(inner: MemStorage, plan: FailPlan) -> FailStorage {
        FailStorage { inner, plan }
    }

    /// The wrapped storage (for crash views and inspection).
    pub fn storage(&self) -> &MemStorage {
        &self.inner
    }
}

#[derive(Debug)]
struct FailFile {
    inner: Box<dyn WalFile>,
    plan: FailPlan,
}

impl WalFile for FailFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<usize> {
        let (short, fail, tear) = {
            let mut state = self.plan.lock();
            if state.crashed {
                return Err(FailPlan::dead());
            }
            state.append_ops += 1;
            let n = state.append_ops;
            let short = state.short_write_at == Some(n);
            let fail = state.fail_append_at == Some(n);
            if short || fail {
                state.crashed = true;
            }
            (short, fail, state.tear_append_at == Some(n))
        };
        if tear {
            self.inner.append(&buf[..buf.len() / 2])?;
            return Err(io::Error::other("injected: torn append"));
        }
        if fail {
            return Err(FailPlan::dead());
        }
        if short {
            let half = buf.len() / 2;
            return self.inner.append(&buf[..half]);
        }
        self.inner.append(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        {
            let mut state = self.plan.lock();
            if state.crashed {
                return Err(FailPlan::dead());
            }
            state.sync_ops += 1;
            if state.fail_sync_at == Some(state.sync_ops) {
                state.crashed = true;
                return Err(FailPlan::dead());
            }
        }
        self.inner.sync()
    }
}

impl FailStorage {
    fn guard(&self) -> io::Result<()> {
        if self.plan.crashed() {
            Err(FailPlan::dead())
        } else {
            Ok(())
        }
    }
}

impl WalStorage for FailStorage {
    fn create(&self, name: &str) -> io::Result<Box<dyn WalFile>> {
        self.guard()?;
        Ok(Box::new(FailFile {
            inner: self.inner.create(name)?,
            plan: self.plan.clone(),
        }))
    }

    fn open_append(&self, name: &str) -> io::Result<Box<dyn WalFile>> {
        self.guard()?;
        Ok(Box::new(FailFile {
            inner: self.inner.open_append(name)?,
            plan: self.plan.clone(),
        }))
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.guard()?;
        self.inner.read(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.guard()?;
        self.inner.list()
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.guard()?;
        self.inner.remove(name)
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.guard()?;
        self.inner.rename(from, to)
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.guard()?;
        self.inner.truncate(name, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_write_then_dead() {
        let mem = MemStorage::new();
        let plan = FailPlan::new().short_write_at(2);
        let storage = FailStorage::new(mem.clone(), plan.clone());
        let mut f = storage.create("a.log").unwrap();
        assert_eq!(f.append(b"aaaa").unwrap(), 4);
        assert_eq!(f.append(b"bbbb").unwrap(), 2, "short write");
        assert!(plan.crashed());
        assert!(f.append(b"cccc").is_err());
        assert!(f.sync().is_err());
        assert!(storage.read("a.log").is_err(), "device is gone");
        assert_eq!(mem.raw("a.log").unwrap(), b"aaaabb");
    }

    #[test]
    fn torn_append_leaves_the_device_working() {
        let mem = MemStorage::new();
        let plan = FailPlan::new().tear_append_at(2);
        let storage = FailStorage::new(mem.clone(), plan.clone());
        let mut f = storage.create("a.log").unwrap();
        assert_eq!(f.append(b"aaaa").unwrap(), 4);
        assert!(f.append(b"bbbb").is_err(), "torn");
        assert!(!plan.crashed());
        assert_eq!(f.append(b"cccc").unwrap(), 4);
        f.sync().unwrap();
        assert_eq!(mem.raw("a.log").unwrap(), b"aaaabbcccc");
    }

    #[test]
    fn arming_is_per_thread() {
        arm(Some("wal.flush.forget_poison"));
        assert!(armed("wal.flush.forget_poison"));
        assert!(!armed("server.ack_before_journal"));
        assert!(!std::thread::spawn(|| armed("wal.flush.forget_poison"))
            .join()
            .unwrap());
        arm(None);
        assert!(!armed("wal.flush.forget_poison"));
    }

    #[test]
    fn sync_failure_kills_device() {
        let storage = FailStorage::new(MemStorage::new(), FailPlan::new().fail_sync_at(1));
        let mut f = storage.create("a.log").unwrap();
        f.append(b"x").unwrap();
        assert!(f.sync().is_err());
        assert!(storage.create("b.log").is_err());
    }
}
