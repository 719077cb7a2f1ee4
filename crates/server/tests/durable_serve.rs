//! Durable serving: journal-before-ACK, the `FLUSH` barrier, crash
//! recovery of a served WAL, and read-only degradation when the log
//! device dies.
//!
//! The central test kills the writer thread mid-stream (a simulated
//! power cut via [`Server::crash`]) and asserts the durability
//! contract: **every edit a client saw ACKed *and then covered with a
//! successful `FLUSH`* survives restart.** Edits ACKed after the last
//! flush may or may not survive — that is the documented deal — but
//! the flushed prefix must.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use tecore_core::{Engine, TecoreConfig};
use tecore_logic::LogicProgram;
use tecore_server::{Server, ServerConfig};
use tecore_wal::{FsyncPolicy, MemStorage, Wal, WalConfig};

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let writer = stream.try_clone().expect("clone");
        Client {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        }
    }

    fn send(&mut self, request: &str) {
        let framed = format!("{request}\n");
        self.writer.write_all(framed.as_bytes()).expect("send");
    }

    fn read_line(&mut self) -> String {
        self.line.clear();
        let n = self.reader.read_line(&mut self.line).expect("recv");
        assert!(n > 0, "connection closed mid-response");
        self.line.trim_end().to_string()
    }

    /// Sends `FLUSH`, returning the reported durable epoch.
    fn flush(&mut self) -> u64 {
        self.send("FLUSH");
        let response = self.read_line();
        response
            .split_whitespace()
            .find_map(|t| t.strip_prefix("durable="))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("bad flush response: {response}"))
    }
}

/// A durable server over shared in-memory storage. A huge `EveryN` so
/// nothing is fsynced unless `FLUSH` forces it — the harshest setting
/// for the flush-covers-acks contract.
fn start_durable(mem: &MemStorage, fsync: FsyncPolicy) -> Server {
    let config = WalConfig {
        fsync,
        ..WalConfig::default()
    };
    let (wal, graph) = Wal::open_with(Box::new(mem.clone()), config).expect("wal opens");
    let engine = Engine::durable(graph, LogicProgram::new(), TecoreConfig::default(), wal);
    Server::start(
        engine,
        ServerConfig {
            readers: 2,
            tick: Duration::from_millis(1),
            ..ServerConfig::default()
        },
    )
    .expect("server starts")
}

/// Kill the writer after a flush: the flushed prefix survives restart,
/// bit for bit, and the durability gauges in STATS track it live.
#[test]
fn flushed_edits_survive_a_writer_kill() {
    const ACKED_BEFORE_FLUSH: u64 = 5;
    const ACKED_AFTER_FLUSH: u64 = 3;
    let mem = MemStorage::new();
    let server = start_durable(&mem, FsyncPolicy::EveryN(1000));
    let mut client = Client::connect(&server);

    for i in 0..ACKED_BEFORE_FLUSH {
        client.send(&format!("INSERT s/{i} marker hit [{i},{}] 0.9", i + 1));
        assert_eq!(client.read_line(), "ACK");
    }
    let durable = client.flush();
    assert_eq!(durable, ACKED_BEFORE_FLUSH, "flush covers every ack");

    // STATS reflects the flush.
    client.send("STATS");
    client.read_line();
    let stats_line = client.read_line();
    assert!(
        stats_line.contains(&format!("durable_epoch={ACKED_BEFORE_FLUSH}")),
        "bad stats line: {stats_line}"
    );
    assert!(
        stats_line.contains("read_only=false"),
        "bad stats line: {stats_line}"
    );
    let wal_bytes: u64 = stats_line
        .split_whitespace()
        .find_map(|t| t.strip_prefix("wal_bytes="))
        .and_then(|v| v.parse().ok())
        .expect("stats carry wal_bytes");
    assert!(wal_bytes > 0, "journaled edits occupy log bytes");

    // More ACKed edits, deliberately *not* flushed.
    for i in 0..ACKED_AFTER_FLUSH {
        client.send(&format!("INSERT t/{i} marker hit [{i},{}] 0.9", i + 1));
        assert_eq!(client.read_line(), "ACK");
    }

    // Power cut: no drain, no flush, no checkpoint.
    server.crash();

    // Restart from what the "disk" (synced bytes only) holds.
    let (_, recovered) =
        Wal::open_with(Box::new(mem.crash_view()), WalConfig::default()).expect("recovers");
    assert_eq!(
        recovered.epoch(),
        ACKED_BEFORE_FLUSH,
        "exactly the flushed prefix survives"
    );
    assert_eq!(recovered.len() as u64, ACKED_BEFORE_FLUSH);

    // And the recovered graph serves again (from the post-crash disk
    // image — the unsynced tail is gone).
    let disk = mem.crash_view();
    let server = start_durable(&disk, FsyncPolicy::Always);
    assert_eq!(server.snapshot().epoch(), ACKED_BEFORE_FLUSH);
    server.shutdown();
}

/// Graceful shutdown is the opposite contract: *every* ACKed edit
/// survives, because shutdown drains, flushes, and checkpoints.
#[test]
fn graceful_shutdown_persists_every_acked_edit() {
    const EDITS: u64 = 7;
    let mem = MemStorage::new();
    let server = start_durable(&mem, FsyncPolicy::EveryN(1000));
    let mut client = Client::connect(&server);
    for i in 0..EDITS {
        client.send(&format!("INSERT s/{i} marker hit [{i},{}] 0.9", i + 1));
        assert_eq!(client.read_line(), "ACK");
    }
    let final_snapshot = server.shutdown();
    assert_eq!(final_snapshot.epoch(), EDITS);

    let (wal, recovered) =
        Wal::open_with(Box::new(mem.crash_view()), WalConfig::default()).expect("recovers");
    assert_eq!(recovered.epoch(), EDITS);
    // Shutdown checkpointed, so recovery loaded the checkpoint rather
    // than replaying the whole log.
    assert_eq!(wal.recovery().checkpoint_epoch, EDITS);
    assert_eq!(wal.recovery().replayed, 0);
}

/// A dead log device mid-serve: the failing edit is refused, the
/// server degrades to read-only (queries fine, edits ERR), and the
/// durable prefix still recovers.
#[test]
fn log_device_failure_degrades_to_read_only() {
    let mem = MemStorage::new();
    // Appends 1-2 succeed; append 3 (the 3rd INSERT's frame) dies.
    let plan = tecore_wal::FailPlan::new().fail_append_at(3);
    let storage = tecore_wal::FailStorage::new(mem.clone(), plan);
    let config = WalConfig {
        fsync: FsyncPolicy::Always,
        ..WalConfig::default()
    };
    let (wal, graph) = Wal::open_with(Box::new(storage), config).expect("wal opens");
    let engine = Engine::durable(graph, LogicProgram::new(), TecoreConfig::default(), wal);
    let server = Server::start(
        engine,
        ServerConfig {
            readers: 2,
            tick: Duration::from_millis(1),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let mut client = Client::connect(&server);

    client.send("INSERT a marker hit [1,2] 0.9");
    assert_eq!(client.read_line(), "ACK");
    client.send("INSERT b marker hit [1,2] 0.9");
    assert_eq!(client.read_line(), "ACK");

    // The third edit hits the dead device: refused, never applied.
    client.send("INSERT c marker hit [1,2] 0.9");
    let response = client.read_line();
    assert!(
        response.starts_with("ERR") && response.contains("wal"),
        "unexpected response: {response}"
    );

    // Queries keep working; further edits answer read-only.
    client.send("COUNT p=marker");
    let header = client.read_line();
    assert!(header.starts_with("OK "), "queries must survive: {header}");
    client.send("INSERT d marker hit [1,2] 0.9");
    let response = client.read_line();
    assert!(
        response.starts_with("ERR read-only"),
        "unexpected response: {response}"
    );
    client.send("STATS");
    client.read_line();
    let stats_line = client.read_line();
    assert!(
        stats_line.contains("read_only=true"),
        "bad stats line: {stats_line}"
    );

    server.crash();

    // The two journaled (and fsynced) edits recover.
    let (_, recovered) =
        Wal::open_with(Box::new(mem.crash_view()), WalConfig::default()).expect("recovers");
    assert_eq!(recovered.epoch(), 2);
}
