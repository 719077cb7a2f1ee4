//! Storage abstraction under the log.
//!
//! All WAL I/O flows through two thin traits — [`WalFile`] for an open
//! append handle and [`WalStorage`] for the directory operations — so
//! the same log logic runs over three backends:
//!
//! * [`StdStorage`]: real files via `std::fs` (production),
//! * [`MemStorage`]: an in-memory filesystem that *models fsync* — it
//!   tracks the synced prefix of every file, so tests can ask "what
//!   would the disk hold after a crash right now?"
//!   ([`MemStorage::crash_view`]) without the page cache of a real
//!   filesystem hiding unsynced-but-written data,
//! * [`FailStorage`](crate::FailStorage): a wrapper over
//!   [`MemStorage`] that injects short writes, fsync errors and crash
//!   points on a deterministic schedule.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::fs;
use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// An open append-only log file.
pub trait WalFile: Send + Debug {
    /// Appends bytes, returning how many were written (a short write
    /// is legal, as with `io::Write`).
    fn append(&mut self, buf: &[u8]) -> io::Result<usize>;
    /// Forces everything appended so far to durable storage.
    fn sync(&mut self) -> io::Result<()>;
}

/// Directory-level operations of a WAL home.
pub trait WalStorage: Send + Debug {
    /// Creates (truncating) a file and returns an append handle.
    fn create(&self, name: &str) -> io::Result<Box<dyn WalFile>>;
    /// Opens an existing file for appending at its current end.
    fn open_append(&self, name: &str) -> io::Result<Box<dyn WalFile>>;
    /// Reads a whole file.
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;
    /// Lists file names in the directory (unordered).
    fn list(&self) -> io::Result<Vec<String>>;
    /// Deletes a file.
    fn remove(&self, name: &str) -> io::Result<()>;
    /// Atomically renames `from` to `to` (the checkpoint publish step).
    fn rename(&self, from: &str, to: &str) -> io::Result<()>;
    /// Truncates a file to `len` bytes (torn-tail repair).
    fn truncate(&self, name: &str, len: u64) -> io::Result<()>;
}

// ---------------------------------------------------------------------
// Real filesystem
// ---------------------------------------------------------------------

/// [`WalStorage`] over a real directory.
#[derive(Debug, Clone)]
pub struct StdStorage {
    dir: PathBuf,
}

impl StdStorage {
    /// Opens (creating if needed) `dir` as a WAL home.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<StdStorage> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(StdStorage { dir })
    }

    /// Fsyncs the directory itself so renames/creates/removes are
    /// durable, not just the file contents. Best-effort on platforms
    /// where directories cannot be opened (the data fsyncs still hold).
    fn sync_dir(&self) {
        if let Ok(d) = fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
    }
}

#[derive(Debug)]
struct StdFile(fs::File);

impl WalFile for StdFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
}

impl WalStorage for StdStorage {
    fn create(&self, name: &str) -> io::Result<Box<dyn WalFile>> {
        let file = fs::File::create(self.dir.join(name))?;
        self.sync_dir();
        Ok(Box::new(StdFile(file)))
    }

    fn open_append(&self, name: &str) -> io::Result<Box<dyn WalFile>> {
        let file = fs::OpenOptions::new()
            .append(true)
            .open(self.dir.join(name))?;
        Ok(Box::new(StdFile(file)))
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        let mut buf = Vec::new();
        fs::File::open(self.dir.join(name))?.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Ok(name) = entry.file_name().into_string() {
                    names.push(name);
                }
            }
        }
        Ok(names)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        fs::remove_file(self.dir.join(name))?;
        self.sync_dir();
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        fs::rename(self.dir.join(from), self.dir.join(to))?;
        self.sync_dir();
        Ok(())
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let file = fs::OpenOptions::new()
            .write(true)
            .open(self.dir.join(name))?;
        file.set_len(len)?;
        file.sync_data()?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// In-memory filesystem with fsync modelling
// ---------------------------------------------------------------------

#[derive(Debug, Default, Clone)]
struct MemFile {
    data: Vec<u8>,
    /// Bytes guaranteed durable: a crash truncates `data` to this.
    synced: usize,
}

#[derive(Debug, Default)]
struct MemState {
    files: BTreeMap<String, MemFile>,
    syncs: u64,
}

/// An in-memory [`WalStorage`] whose files remember how much of their
/// content has been fsynced. Cloning shares the underlying state, so a
/// test can keep a handle while the log owns another.
#[derive(Debug, Default, Clone)]
pub struct MemStorage {
    inner: Arc<Mutex<MemState>>,
}

impl MemStorage {
    /// An empty in-memory WAL home.
    pub fn new() -> MemStorage {
        MemStorage::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemState> {
        // A panicked holder can't leave the byte map half-updated in a
        // way recovery tests care about; recover the poison.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// What durable storage would hold after a crash *right now*:
    /// every file truncated to its synced prefix. Metadata operations
    /// (create/rename/remove) are modelled as durable.
    pub fn crash_view(&self) -> MemStorage {
        let state = self.lock();
        let files = state
            .files
            .iter()
            .map(|(name, f)| {
                let mut f = f.clone();
                f.data.truncate(f.synced);
                (name.clone(), f)
            })
            .collect();
        MemStorage {
            inner: Arc::new(Mutex::new(MemState {
                files,
                syncs: state.syncs,
            })),
        }
    }

    /// Total fsync calls across all files (for fsync-policy tests).
    pub fn sync_count(&self) -> u64 {
        self.lock().syncs
    }

    /// The raw bytes of a file, including any unsynced suffix.
    pub fn raw(&self, name: &str) -> Option<Vec<u8>> {
        self.lock().files.get(name).map(|f| f.data.clone())
    }

    /// Flips one bit of `name` at `offset` (corruption injection).
    pub fn corrupt(&self, name: &str, offset: usize) {
        let mut state = self.lock();
        // lint: allow(R3) fault-injection helper for tests; a missing file is a broken test, not a runtime path
        let file = state.files.get_mut(name).expect("file exists");
        file.data[offset] ^= 1;
    }

    /// Truncates a file to `len` bytes directly (torn-write modelling
    /// from tests, bypassing the [`WalStorage`] interface).
    pub fn chop(&self, name: &str, len: usize) {
        let mut state = self.lock();
        // lint: allow(R3) fault-injection helper for tests; a missing file is a broken test, not a runtime path
        let file = state.files.get_mut(name).expect("file exists");
        file.data.truncate(len);
        file.synced = file.synced.min(len);
    }
}

#[derive(Debug)]
struct MemHandle {
    storage: MemStorage,
    name: String,
}

impl WalFile for MemHandle {
    fn append(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut state = self.storage.lock();
        let file = state
            .files
            .get_mut(&self.name)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "file removed"))?;
        file.data.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut state = self.storage.lock();
        state.syncs += 1;
        let file = state
            .files
            .get_mut(&self.name)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "file removed"))?;
        file.synced = file.data.len();
        Ok(())
    }
}

impl WalStorage for MemStorage {
    fn create(&self, name: &str) -> io::Result<Box<dyn WalFile>> {
        self.lock().files.insert(name.into(), MemFile::default());
        Ok(Box::new(MemHandle {
            storage: self.clone(),
            name: name.into(),
        }))
    }

    fn open_append(&self, name: &str) -> io::Result<Box<dyn WalFile>> {
        if !self.lock().files.contains_key(name) {
            return Err(io::Error::new(io::ErrorKind::NotFound, name.to_string()));
        }
        Ok(Box::new(MemHandle {
            storage: self.clone(),
            name: name.into(),
        }))
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.lock()
            .files
            .get(name)
            .map(|f| f.data.clone())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name.to_string()))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        Ok(self.lock().files.keys().cloned().collect())
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.lock()
            .files
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name.to_string()))
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let mut state = self.lock();
        let file = state
            .files
            .remove(from)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, from.to_string()))?;
        state.files.insert(to.into(), file);
        Ok(())
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let mut state = self.lock();
        let file = state
            .files
            .get_mut(name)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name.to_string()))?;
        file.data.truncate(len as usize);
        file.synced = file.synced.min(len as usize);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_crash_view_drops_unsynced_suffix() {
        let storage = MemStorage::new();
        let mut f = storage.create("a.log").unwrap();
        f.append(b"durable").unwrap();
        f.sync().unwrap();
        f.append(b" lost").unwrap();

        assert_eq!(storage.raw("a.log").unwrap(), b"durable lost");
        let crashed = storage.crash_view();
        assert_eq!(crashed.read("a.log").unwrap(), b"durable");
        // The live storage is untouched by taking a view.
        assert_eq!(storage.raw("a.log").unwrap(), b"durable lost");
        assert_eq!(storage.sync_count(), 1);
    }

    #[test]
    fn mem_rename_and_truncate() {
        let storage = MemStorage::new();
        let mut f = storage.create("x.tmp").unwrap();
        f.append(b"0123456789").unwrap();
        f.sync().unwrap();
        storage.rename("x.tmp", "x.kg").unwrap();
        assert_eq!(storage.list().unwrap(), vec!["x.kg".to_string()]);
        storage.truncate("x.kg", 4).unwrap();
        assert_eq!(storage.read("x.kg").unwrap(), b"0123");
        assert!(storage.open_append("x.tmp").is_err());
        assert!(storage.remove("x.kg").is_ok());
        assert!(storage.read("x.kg").is_err());
    }

    #[test]
    fn std_storage_roundtrip() {
        let dir = std::env::temp_dir().join(format!("tecore-wal-std-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let storage = StdStorage::open(&dir).unwrap();
        let mut f = storage.create("seg.log").unwrap();
        f.append(b"hello").unwrap();
        f.sync().unwrap();
        drop(f);
        let mut f = storage.open_append("seg.log").unwrap();
        f.append(b" world").unwrap();
        f.sync().unwrap();
        drop(f);
        assert_eq!(storage.read("seg.log").unwrap(), b"hello world");
        assert_eq!(storage.list().unwrap(), vec!["seg.log".to_string()]);
        storage.rename("seg.log", "seg2.log").unwrap();
        storage.truncate("seg2.log", 5).unwrap();
        assert_eq!(storage.read("seg2.log").unwrap(), b"hello");
        storage.remove("seg2.log").unwrap();
        assert!(storage.list().unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
