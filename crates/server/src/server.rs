//! The served engine: acceptor, reader pool, single-writer loop.
//!
//! ```text
//!            ┌────────────┐   TcpStream    ┌──────────────────┐
//!  clients ──► acceptor   ├───────────────►│ reader pool (N)  │
//!            └────────────┘   (channel)    │ reusable buffers │
//!                                          └───┬──────────▲───┘
//!                              INSERT/REMOVE   │          │ load()
//!                                (channel)     │          │
//!                                          ┌───▼──────────┴───┐
//!                                          │ writer loop      │
//!                                          │ drain → coalesce │
//!                                          │ → resolve → ─────┼─► SnapshotCell
//!                                          └──────────────────┘     publish()
//! ```
//!
//! Readers answer every query from [`SnapshotCell::load`] — one `Arc`
//! clone under a read guard, no engine lock. The writer loop
//! owns the [`Engine`] outright: it drains the edit queue each tick,
//! applies the whole batch to the graph (the change log nets it into
//! one delta), runs one incremental resolve, and publishes. Queries
//! racing a publish simply see the previous snapshot — stale by at
//! most one tick, never torn.

use std::io::{self, BufRead, BufReader, Write as IoWrite};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use tecore_core::snapshot::Snapshot;
use tecore_core::{EditBatch, EditOp, EditOutcome, Engine};
use tecore_kg::writer::write_fact;
use tecore_kg::StreamEvent;
use tecore_stream::{QuerySpec, StreamError, StreamSession, WindowFire, WindowSpec};

use crate::cell::SnapshotCell;
use crate::proto::{self, Request};

#[cfg(test)]
mod sim;

/// Acknowledgement for a durable edit, sent by the writer loop once
/// the edit has been journaled and applied (or refused).
type EditAck = SyncSender<Result<(), &'static str>>;

/// One message to the writer loop.
#[derive(Debug)]
enum WriterMsg {
    /// Apply an edit. Durable connections attach an ack channel and
    /// block until the writer has journaled the edit (journal *before*
    /// ACK); in-memory connections pass `None` and ACK on enqueue.
    Edit(EditOp, Option<EditAck>),
    /// Offer a timestamped event to the stream session (`FEED`). The
    /// ack confirms the writer *processed* the offer — admission into
    /// the graph (and, on a durable server, journaling) happens at the
    /// window fire the event falls into, not at the ack.
    Feed(StreamEvent, Option<EditAck>),
    /// Fsync the log and report the durable epoch (`FLUSH`).
    Flush(SyncSender<Result<u64, &'static str>>),
}

/// Streaming configuration: passing one to [`ServerConfig::stream`]
/// turns the writer loop into a window-driven stream processor and
/// enables the `FEED`/`SUB`/`UNSUB` verbs.
#[derive(Debug, Clone)]
pub struct StreamServing {
    /// Window shape for admitted events.
    pub window: WindowSpec,
    /// Allowed lateness behind the stream head, in event-time units.
    pub lateness: i64,
}

/// Upper bound on edits coalesced into one resolve.
const MAX_COALESCE: usize = 4096;

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind; use port 0 for an ephemeral port.
    pub addr: String,
    /// Reader threads. Defaults to the machine's parallelism.
    pub readers: usize,
    /// Writer tick: how long the writer waits for a first edit before
    /// re-checking shutdown, and the batching window once idle.
    pub tick: Duration,
    /// Streaming windows: `Some` enables `FEED`/`SUB`/`UNSUB`.
    pub stream: Option<StreamServing>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            readers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2),
            tick: Duration::from_millis(2),
            stream: None,
        }
    }
}

/// Monotone serving counters, readable while the server runs.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Query commands answered (`Q`/`COUNT`/`OBJECTS`/`TIMELINE`).
    pub queries: AtomicU64,
    /// Edits applied to the graph by the writer loop.
    pub edits_applied: AtomicU64,
    /// Snapshots published (resolves that completed).
    pub publishes: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Bytes across live WAL segments (0 on an in-memory server).
    pub wal_bytes: AtomicU64,
    /// Live WAL segment files (0 on an in-memory server).
    pub wal_segments: AtomicU64,
    /// Epoch of the newest durable checkpoint.
    pub last_checkpoint_epoch: AtomicU64,
    /// Highest epoch covered by an fsync.
    pub durable_epoch: AtomicU64,
    /// Set when the log device failed: queries keep working, edits
    /// answer `ERR read-only (wal failed)`.
    pub read_only: AtomicBool,
    /// Stream windows fired (streaming servers only).
    pub stream_windows: AtomicU64,
    /// Stream events admitted into the graph.
    pub stream_events_admitted: AtomicU64,
    /// Stream facts expired (slid out of the window).
    pub stream_events_expired: AtomicU64,
    /// Wall-clock re-solve latency of the most recent window fire, in
    /// milliseconds (the serving lag a subscriber observes).
    pub stream_lag_ms: AtomicU64,
}

/// The engine the writer loop owns: bare, or wrapped in a streaming
/// session when the server was started with a window configuration.
enum EngineHost {
    Plain(Box<Engine>),
    Stream(Box<StreamSession>),
}

impl EngineHost {
    fn engine(&self) -> &Engine {
        match self {
            EngineHost::Plain(e) => e,
            EngineHost::Stream(s) => s.engine(),
        }
    }

    fn engine_mut(&mut self) -> &mut Engine {
        match self {
            EngineHost::Plain(e) => e,
            EngineHost::Stream(s) => s.engine_mut(),
        }
    }
}

/// One registered continuous query: the owned spec plus the write half
/// of the subscribing connection.
struct Subscription {
    id: u64,
    spec: QuerySpec,
    conn: Arc<Mutex<TcpStream>>,
}

/// The live subscription set, shared between reader threads (register /
/// unregister) and the writer loop (deliver after each window fire).
#[derive(Default)]
pub(crate) struct SubRegistry {
    subs: Mutex<Vec<Subscription>>,
    next: AtomicU64,
}

impl SubRegistry {
    fn register(&self, spec: QuerySpec, conn: Arc<Mutex<TcpStream>>) -> u64 {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let mut subs = self
            .subs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        subs.push(Subscription { id, spec, conn });
        id
    }

    fn unregister(&self, id: u64) -> bool {
        let mut subs = self
            .subs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let before = subs.len();
        subs.retain(|s| s.id != id);
        subs.len() != before
    }

    /// Evaluates every subscription against a fired window and pushes
    /// the `W` frames. A subscriber whose socket errors is dropped (the
    /// connection is gone or wedged; its reader thread cleans up too).
    fn deliver(&self, fire: &WindowFire) {
        let mut subs = self
            .subs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if subs.is_empty() {
            return;
        }
        let mut frame = String::with_capacity(256);
        subs.retain(|sub| {
            frame.clear();
            if render_window_frame(&mut frame, sub, fire).is_err() {
                return true; // rendering failed; keep the sub, skip the frame
            }
            let mut conn = sub
                .conn
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            conn.write_all(frame.as_bytes()).is_ok()
        });
    }
}

/// Renders one `W` frame (header + `F` lines) for a subscription.
fn render_window_frame(
    out: &mut String,
    sub: &Subscription,
    fire: &WindowFire,
) -> std::fmt::Result {
    use std::fmt::Write;
    let result = sub
        .spec
        .evaluate(&fire.snapshot, fire.stats.start, fire.stats.end);
    writeln!(
        out,
        "W sub={} window={}..{} epoch={} total={} n={}",
        sub.id,
        result.start,
        result.end,
        result.epoch,
        result.total,
        result.matches.len()
    )?;
    let dict = fire.snapshot.expanded().dict();
    for (id, fact) in &result.matches {
        write!(out, "F {} ", id.0)?;
        write_fact(out, dict, fact)?;
        out.push('\n');
    }
    Ok(())
}

/// A running TeCoRe server. Dropping without [`Server::shutdown`]
/// aborts the threads ungracefully; call `shutdown` for a drained
/// stop.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// Hard-stop flag for [`Server::crash`]: the writer exits without
    /// draining, flushing, or checkpointing — a simulated power cut.
    abort: Arc<AtomicBool>,
    cell: Arc<SnapshotCell>,
    stats: Arc<ServerStats>,
    /// Never sent on. It keeps the edit channel connected whatever the
    /// reader threads do, so the writer leaves its loop through the
    /// shutdown branch (drain, flush, checkpoint), not on a disconnect.
    _edits: Sender<WriterMsg>,
    threads: Vec<JoinHandle<()>>,
}

/// Polling interval for blocking socket reads and channel waits; the
/// latency floor for noticing a shutdown, not for serving requests.
const POLL: Duration = Duration::from_millis(25);

impl Server {
    /// Resolves the engine's current graph (publishing the initial
    /// snapshot), binds the listener, and spawns the acceptor, the
    /// reader pool, and the writer loop.
    pub fn start(engine: Engine, config: ServerConfig) -> io::Result<Server> {
        let durable = engine.is_durable();
        let (host, ctx) = boot(engine, &config)?;
        let streaming = matches!(host, EngineHost::Stream(_));
        let (cell, stats, subs) = (
            Arc::clone(&ctx.cell),
            Arc::clone(&ctx.stats),
            Arc::clone(&ctx.subs),
        );
        let (shutdown, abort) = (Arc::clone(&ctx.shutdown), Arc::clone(&ctx.abort));

        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let (edit_tx, edit_rx) = mpsc::channel::<WriterMsg>();
        // Rendezvous-ish connection hand-off: accepted sockets queue
        // here until a reader thread picks them up.
        let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(64);
        let conn_rx = Arc::new(Mutex::new(conn_rx));

        let mut threads = Vec::with_capacity(config.readers + 2);

        {
            let shutdown = Arc::clone(&shutdown);
            let stats = Arc::clone(&stats);
            threads.push(
                std::thread::Builder::new()
                    .name("tecore-accept".to_string())
                    .spawn(move || accept_loop(listener, conn_tx, shutdown, stats))?,
            );
        }

        for i in 0..config.readers.max(1) {
            let conn_rx = Arc::clone(&conn_rx);
            let cell = Arc::clone(&cell);
            let stats = Arc::clone(&stats);
            let shutdown = Arc::clone(&shutdown);
            let edit_tx = edit_tx.clone();
            let subs = Arc::clone(&subs);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("tecore-read-{i}"))
                    .spawn(move || {
                        let ctx = ReaderCtx {
                            cell,
                            stats,
                            shutdown,
                            edits: edit_tx,
                            subs,
                            durable,
                            streaming,
                        };
                        reader_loop(conn_rx, &ctx)
                    })?,
            );
        }

        threads.push(
            std::thread::Builder::new()
                .name("tecore-write".to_string())
                .spawn(move || writer_loop(host, edit_rx, &ctx))?,
        );

        Ok(Server {
            addr,
            shutdown,
            abort,
            cell,
            stats,
            _edits: edit_tx,
            threads,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The current published snapshot (same hand-off the readers use).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.cell.load()
    }

    /// Live serving counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Graceful stop: flags shutdown, then joins every thread. Reader
    /// threads drain the requests already buffered on their
    /// connections before closing; the writer loop drains the edit
    /// queue, publishes its final snapshot, and (when durable) flushes
    /// and checkpoints the log.
    pub fn shutdown(self) -> Arc<Snapshot> {
        // ordering: the shutdown flag is a cross-thread control signal
        // observed by acceptor, readers, and writer; SeqCst keeps it
        // totally ordered with the abort flag below (no thread may see
        // abort without shutdown).
        self.shutdown.store(true, Ordering::SeqCst);
        for handle in self.threads {
            let _ = handle.join();
        }
        self.cell.load()
    }

    /// Simulated power cut (for crash-recovery tests): threads stop as
    /// fast as possible, the writer neither drains its queue nor
    /// flushes/checkpoints the log. Whatever the WAL already holds is
    /// what recovery will see.
    pub fn crash(self) {
        // ordering: abort must be visible before (or with) shutdown on
        // every thread — a writer that wakes on shutdown but misses
        // abort would drain and flush, defeating the simulated power
        // cut. SeqCst on both stores pins the pair's order globally.
        self.abort.store(true, Ordering::SeqCst);
        self.shutdown.store(true, Ordering::SeqCst); // ordering: see above — the pair is what matters.
        for handle in self.threads {
            let _ = handle.join();
        }
    }
}

/// Resolves the engine's current graph and wraps it for the writer:
/// the host, and a context whose cell holds the initial snapshot and
/// whose stats carry the log's gauges.
fn boot(mut engine: Engine, config: &ServerConfig) -> io::Result<(EngineHost, WriterCtx)> {
    let initial = engine
        .resolve_incremental()
        .map_err(|e| io::Error::other(format!("initial resolve failed: {e}")))?;
    let host = match &config.stream {
        Some(s) => EngineHost::Stream(Box::new(StreamSession::with_lateness(
            engine, s.window, s.lateness,
        ))),
        None => EngineHost::Plain(Box::new(engine)),
    };
    let ctx = WriterCtx {
        cell: Arc::new(SnapshotCell::new(initial)),
        stats: Arc::default(),
        shutdown: Arc::default(),
        abort: Arc::default(),
        subs: Arc::default(),
        tick: config.tick,
    };
    publish_wal_stats(host.engine(), &ctx.stats);
    Ok((host, ctx))
}

/// Mirrors the engine's WAL counters (if any) into the serving stats.
fn publish_wal_stats(engine: &Engine, stats: &ServerStats) {
    if let Some(w) = engine.wal_stats() {
        stats.wal_bytes.store(w.bytes, Ordering::Relaxed);
        stats.wal_segments.store(w.segments, Ordering::Relaxed);
        stats
            .last_checkpoint_epoch
            .store(w.last_checkpoint_epoch, Ordering::Relaxed);
        stats
            .durable_epoch
            .store(w.durable_epoch, Ordering::Relaxed);
    }
    if engine.wal_poisoned() {
        stats.read_only.store(true, Ordering::Relaxed);
    }
}

fn accept_loop(
    listener: TcpListener,
    conn_tx: SyncSender<TcpStream>,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
) {
    while !shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Request/response round-trips are small writes in
                // both directions; leaving Nagle on costs ~40ms per
                // round-trip against delayed ACKs.
                let _ = stream.set_nodelay(true);
                stats.connections.fetch_add(1, Ordering::Relaxed);
                let mut pending = stream;
                // Hand off, shedding to a short retry loop if every
                // reader is saturated and the queue is full.
                loop {
                    match conn_tx.try_send(pending) {
                        Ok(()) => break,
                        Err(TrySendError::Full(back)) => {
                            if shutdown.load(Ordering::Relaxed) {
                                return;
                            }
                            pending = back;
                            // lint: allow(R5) acceptor backpressure: all readers saturated, 1ms retry is the shed policy
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(TrySendError::Disconnected(_)) => return,
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // lint: allow(R5) nonblocking-listener poll so shutdown is noticed within 1ms
                std::thread::sleep(Duration::from_millis(1));
            }
            // lint: allow(R5) transient accept errors back off rather than spin
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Everything a reader thread shares with the rest of the server.
struct ReaderCtx {
    cell: Arc<SnapshotCell>,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
    edits: Sender<WriterMsg>,
    subs: Arc<SubRegistry>,
    durable: bool,
    streaming: bool,
}

fn reader_loop(conn_rx: Arc<Mutex<Receiver<TcpStream>>>, ctx: &ReaderCtx) {
    // Reused across requests *and* connections: the steady-state
    // request→response path never allocates once these reach their
    // working sizes.
    let mut line = String::with_capacity(256);
    let mut out = String::with_capacity(4096);
    loop {
        let stream = {
            let guard = conn_rx
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            guard.recv_timeout(POLL)
        };
        match stream {
            Ok(stream) => serve_connection(stream, ctx, &mut line, &mut out),
            Err(RecvTimeoutError::Timeout) => {
                if ctx.shutdown.load(Ordering::Relaxed) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Serves one connection until `QUIT`, EOF, socket error, or shutdown.
/// On shutdown, requests already received (pipelined in the socket
/// buffer) are still answered before the connection closes.
///
/// The write half is shared behind a mutex with the writer loop's
/// window-frame delivery, so a subscribed connection's responses and
/// its unsolicited `W` frames interleave at line granularity, never
/// mid-frame. Any subscriptions the connection registered are dropped
/// when it closes.
fn serve_connection(stream: TcpStream, ctx: &ReaderCtx, line: &mut String, out: &mut String) {
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut draining = false;
    let mut my_subs: Vec<u64> = Vec::new();
    line.clear();
    loop {
        // `read_line` *appends*: a read timeout can land after part of
        // a line was consumed into `line`, so the buffer is only
        // cleared once a complete line has been processed — partial
        // requests survive across timeout polls.
        let done = match reader.read_line(line) {
            Ok(0) => true, // EOF
            Ok(_) => {
                out.clear();
                let quit = handle_line(line, ctx, &writer, &mut my_subs, out);
                line.clear();
                let write_failed = {
                    let mut w = writer
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    let failed = w.write_all(out.as_bytes()).is_err();
                    if quit && !failed {
                        let _ = w.flush();
                    }
                    failed
                };
                write_failed || quit
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if draining {
                    // Shutdown was flagged and the socket has gone
                    // quiet: every request that reached us is
                    // answered. Close.
                    true
                } else {
                    if ctx.shutdown.load(Ordering::Relaxed) {
                        // Switch to drain mode: keep serving whatever
                        // is already buffered, close on the next quiet
                        // poll.
                        draining = true;
                    }
                    false
                }
            }
            Err(_) => true,
        };
        if done {
            for id in my_subs {
                ctx.subs.unregister(id);
            }
            return;
        }
    }
}

/// How long an edit or flush waits for the writer loop's answer before
/// reporting it gone. Generous: the writer may be mid-resolve.
const ACK_TIMEOUT: Duration = Duration::from_secs(30);

/// Sends an edit (or stream event) to the writer and renders the
/// response. In-memory servers ACK on enqueue (the historical contract
/// — nothing durable to wait for); durable servers attach an ack
/// channel and answer only once the writer has journaled the edit, so
/// every `ACK` names an edit that `FLUSH` can then make crash-proof.
/// A `FEED` always waits for the writer regardless of durability: its
/// ack confirms the offer was processed, and any window it fired has
/// already pushed its `W` frames — the frame-before-ack ordering
/// subscribers rely on. (The event itself journals at its window
/// fire.)
fn answer_edit(msg: WriterMsg, ctx: &ReaderCtx, out: &mut String) {
    use std::fmt::Write;
    let attach = |msg: WriterMsg, ack: Option<EditAck>| match msg {
        WriterMsg::Edit(edit, _) => WriterMsg::Edit(edit, ack),
        WriterMsg::Feed(event, _) => WriterMsg::Feed(event, ack),
        other => other,
    };
    if !ctx.durable && !matches!(msg, WriterMsg::Feed(..)) {
        out.push_str(if ctx.edits.send(attach(msg, None)).is_ok() {
            "ACK\n"
        } else {
            "ERR writer gone\n"
        });
        return;
    }
    if ctx.stats.read_only.load(Ordering::Relaxed) {
        out.push_str("ERR read-only (wal failed)\n");
        return;
    }
    let (ack_tx, ack_rx) = mpsc::sync_channel(1);
    if ctx.edits.send(attach(msg, Some(ack_tx))).is_err() {
        out.push_str("ERR writer gone\n");
        return;
    }
    match ack_rx.recv_timeout(ACK_TIMEOUT) {
        Ok(Ok(())) => out.push_str("ACK\n"),
        Ok(Err(reason)) => {
            let _ = writeln!(out, "ERR {reason}");
        }
        // The writer dropped the ack sender (crash/shutdown race) or
        // is wedged past the timeout: either way, not acknowledged.
        Err(_) => out.push_str("ERR writer gone\n"),
    }
}

/// Parses and executes one request line, rendering the response into
/// `out`. Returns `true` when the connection should close (`QUIT`).
fn handle_line(
    line: &str,
    ctx: &ReaderCtx,
    conn: &Arc<Mutex<TcpStream>>,
    my_subs: &mut Vec<u64>,
    out: &mut String,
) -> bool {
    use std::fmt::Write;
    let (cell, stats) = (&ctx.cell, &ctx.stats);
    match proto::parse(line) {
        Ok(Request::Ping) => out.push_str("PONG\n"),
        Ok(Request::Quit) => {
            out.push_str("BYE\n");
            return true;
        }
        Ok(Request::Epoch) => {
            let _ = writeln!(out, "OK epoch={} n=0", cell.load().epoch());
        }
        Ok(Request::Stats) => {
            let _ = writeln!(out, "OK epoch={} n=1", cell.load().epoch());
            let _ = writeln!(
                out,
                "S queries={} edits={} publishes={} connections={} \
                 wal_bytes={} wal_segments={} last_checkpoint_epoch={} \
                 durable_epoch={} read_only={} stream_windows={} \
                 stream_events_admitted={} stream_events_expired={} \
                 stream_lag_ms={}",
                stats.queries.load(Ordering::Relaxed),
                stats.edits_applied.load(Ordering::Relaxed),
                stats.publishes.load(Ordering::Relaxed),
                stats.connections.load(Ordering::Relaxed),
                stats.wal_bytes.load(Ordering::Relaxed),
                stats.wal_segments.load(Ordering::Relaxed),
                stats.last_checkpoint_epoch.load(Ordering::Relaxed),
                stats.durable_epoch.load(Ordering::Relaxed),
                stats.read_only.load(Ordering::Relaxed),
                stats.stream_windows.load(Ordering::Relaxed),
                stats.stream_events_admitted.load(Ordering::Relaxed),
                stats.stream_events_expired.load(Ordering::Relaxed),
                stats.stream_lag_ms.load(Ordering::Relaxed),
            );
        }
        Ok(Request::Flush) => {
            if !ctx.durable {
                let _ = writeln!(out, "OK epoch={} n=0 durable=0", cell.load().epoch());
            } else {
                let (tx, rx) = mpsc::sync_channel(1);
                if ctx.edits.send(WriterMsg::Flush(tx)).is_err() {
                    out.push_str("ERR writer gone\n");
                } else {
                    match rx.recv_timeout(ACK_TIMEOUT) {
                        Ok(Ok(durable_epoch)) => {
                            let _ = writeln!(
                                out,
                                "OK epoch={} n=0 durable={durable_epoch}",
                                cell.load().epoch()
                            );
                        }
                        Ok(Err(reason)) => {
                            let _ = writeln!(out, "ERR {reason}");
                        }
                        Err(_) => out.push_str("ERR writer gone\n"),
                    }
                }
            }
        }
        Ok(Request::Query(kind, spec)) => {
            stats.queries.fetch_add(1, Ordering::Relaxed);
            let snapshot = cell.load();
            if proto::answer_query(&snapshot, kind, &spec, out).is_err() {
                out.clear();
                out.push_str("ERR render failed\n");
            }
        }
        Ok(Request::Insert {
            subject,
            predicate,
            object,
            interval,
            confidence,
        }) => {
            let edit = EditOp::Insert {
                subject: subject.to_string(),
                predicate: predicate.to_string(),
                object: object.to_string(),
                interval,
                confidence,
            };
            answer_edit(WriterMsg::Edit(edit, None), ctx, out);
        }
        Ok(Request::Remove(id)) => {
            answer_edit(WriterMsg::Edit(EditOp::Remove(id), None), ctx, out);
        }
        Ok(Request::Feed {
            time,
            subject,
            predicate,
            object,
            interval,
            confidence,
        }) => {
            if !ctx.streaming {
                out.push_str("ERR not a streaming server\n");
            } else {
                let event =
                    StreamEvent::new(time, subject, predicate, object, interval, confidence);
                answer_edit(WriterMsg::Feed(event, None), ctx, out);
            }
        }
        Ok(Request::Sub(spec)) => {
            if !ctx.streaming {
                out.push_str("ERR not a streaming server\n");
            } else {
                let spec = proto::clauses_to_spec(&spec);
                let id = ctx.subs.register(spec, Arc::clone(conn));
                my_subs.push(id);
                let _ = writeln!(out, "OK epoch={} n=0 sub={id}", cell.load().epoch());
            }
        }
        Ok(Request::Unsub(id)) => {
            if !ctx.streaming {
                out.push_str("ERR not a streaming server\n");
            } else if ctx.subs.unregister(id) {
                my_subs.retain(|&mine| mine != id);
                let _ = writeln!(out, "OK epoch={} n=0", cell.load().epoch());
            } else {
                out.push_str("ERR unknown subscription\n");
            }
        }
        Err(reason) => {
            let _ = writeln!(out, "ERR {reason}");
        }
    }
    false
}

/// Everything the writer loop shares with the rest of the server.
struct WriterCtx {
    cell: Arc<SnapshotCell>,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
    abort: Arc<AtomicBool>,
    subs: Arc<SubRegistry>,
    tick: Duration,
}

/// Edits accumulated within one tick, flushed as a single
/// [`EditBatch`] — one netted delta, one WAL journal group, one
/// incremental re-solve — with each op's ack answered from its
/// [`EditOutcome`].
#[derive(Default)]
struct PendingBatch {
    batch: EditBatch,
    acks: Vec<Option<EditAck>>,
}

impl PendingBatch {
    fn push(&mut self, op: EditOp, ack: Option<EditAck>) {
        self.batch.push(op);
        self.acks.push(ack);
    }

    fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// Applies the accumulated batch and answers every ack; returns how
    /// many ops changed the graph. A `Rejected` op (unknown id, invalid
    /// confidence — the client raced another remove or sent junk) is a
    /// semantic no-op and still acks `Ok`, matching the historical
    /// per-edit contract; a `Failed`/`Skipped` op names a WAL refusal
    /// and degrades the server to read-only.
    fn flush(&mut self, host: &mut EngineHost, ctx: &WriterCtx) -> u64 {
        if self.is_empty() {
            return 0;
        }
        // Seeded bug: the clients hear "done" before the journal has
        // the bytes.
        #[cfg(debug_assertions)]
        if tecore_wal::failpoint::armed("server.ack_before_journal") {
            for ack in self.acks.iter_mut().filter_map(Option::take) {
                let _ = ack.send(Ok(()));
            }
        }
        let report = host.engine_mut().apply(&self.batch);
        let mut applied = 0u64;
        for (outcome, ack) in report.outcomes.iter().zip(self.acks.drain(..)) {
            let result = match outcome {
                EditOutcome::Inserted(_)
                | EditOutcome::Removed(_)
                | EditOutcome::Upserted { .. } => {
                    applied += 1;
                    Ok(())
                }
                EditOutcome::Rejected(_) => Ok(()),
                EditOutcome::Failed(_) => Err("wal write failed; server is read-only"),
                EditOutcome::Skipped => Err("read-only (wal failed)"),
            };
            if result.is_err() {
                ctx.stats.read_only.store(true, Ordering::Relaxed);
            }
            if let Some(ack) = ack {
                let _ = ack.send(result);
            }
        }
        if ctx.stats.read_only.load(Ordering::Relaxed) {
            publish_wal_stats(host.engine(), &ctx.stats);
        }
        self.batch = EditBatch::new();
        applied
    }
}

/// The single writer: drains the edit queue, coalesces consecutive
/// edits into one [`EditBatch`] (one netted delta, one journal group),
/// re-solves incrementally, publishes. The engine is owned here —
/// readers never see it. On a durable engine the batch is journaled
/// (inside `Engine::apply`) before its acks are sent, flush requests
/// fsync in queue order, and a failed log poisons the engine into
/// read-only serving rather than killing the loop. On a streaming
/// server the host is a [`StreamSession`]: `FEED` messages go through
/// the watermark machinery and every fired window publishes its
/// snapshot and pushes `W` frames at subscribers.
fn writer_loop(mut host: EngineHost, edits: Receiver<WriterMsg>, ctx: &WriterCtx) {
    loop {
        // Block (bounded by the tick) for the batch's first message.
        match edits.recv_timeout(ctx.tick.max(Duration::from_millis(1))) {
            Ok(first) => writer_tick(&mut host, ctx, first, || edits.try_recv().ok()),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
        if ctx.abort.load(Ordering::Relaxed) {
            // Simulated power cut: drop queued messages (their ack
            // senders go with them → clients see "writer gone").
            return;
        }
        if ctx.shutdown.load(Ordering::Relaxed) {
            // Drain the queue so acknowledged edits are never lost,
            // publish the final state, and exit.
            while let Ok(first) = edits.try_recv() {
                writer_tick(&mut host, ctx, first, || edits.try_recv().ok());
            }
            // Graceful durable exit: whatever was acked becomes
            // crash-proof, and a checkpoint makes the next recovery a
            // plain checkpoint load. Best effort — a dead log device
            // must not block shutdown.
            let _ = host.engine_mut().flush_wal();
            let _ = host.engine_mut().checkpoint();
            publish_wal_stats(host.engine(), &ctx.stats);
            return;
        }
    }
}

/// One tick of the writer: `first` and whatever `more` yields (up to
/// [`MAX_COALESCE`] messages) are consumed in queue order, the pending
/// batch is applied, and — if anything changed the graph — one
/// incremental resolve is published and counted. The run loop, the
/// shutdown drain and the in-crate simulator all call this.
fn writer_tick(
    host: &mut EngineHost,
    ctx: &WriterCtx,
    first: WriterMsg,
    mut more: impl FnMut() -> Option<WriterMsg>,
) {
    let mut applied = 0u64;
    let mut pending = PendingBatch::default();
    let mut handled = 1usize;
    let mut next = Some(first);
    while let Some(msg) = next {
        consume_writer_msg(host, ctx, msg, &mut pending, &mut applied);
        next = if handled < MAX_COALESCE {
            handled += 1;
            more()
        } else {
            None
        };
    }
    applied += pending.flush(host, ctx);
    if applied > 0 {
        publish_resolved(host.engine_mut(), ctx);
        ctx.stats
            .edits_applied
            .fetch_add(applied, Ordering::Relaxed);
        // A log grown past its threshold is compacted between
        // batches, never between a journal append and its ack.
        if host.engine_mut().maybe_checkpoint().is_err() {
            ctx.stats.read_only.store(true, Ordering::Relaxed);
        }
        publish_wal_stats(host.engine(), &ctx.stats);
    }
}

/// One incremental resolve of what the graph holds, published and
/// counted.
fn publish_resolved(engine: &mut Engine, ctx: &WriterCtx) {
    if let Ok(snapshot) = engine.resolve_incremental() {
        ctx.cell.publish(snapshot);
        ctx.stats.publishes.fetch_add(1, Ordering::Relaxed);
    }
}

/// Routes one writer message: edits accumulate into the pending batch;
/// feeds and flushes are ordering barriers — the pending batch is
/// applied first so the WAL and the graph see every edit in queue
/// order.
fn consume_writer_msg(
    host: &mut EngineHost,
    ctx: &WriterCtx,
    msg: WriterMsg,
    pending: &mut PendingBatch,
    applied: &mut u64,
) {
    match msg {
        WriterMsg::Edit(edit, ack) => {
            if ctx.stats.read_only.load(Ordering::Relaxed) {
                if let Some(ack) = ack {
                    let _ = ack.send(Err("read-only (wal failed)"));
                }
                return;
            }
            pending.push(edit, ack);
        }
        WriterMsg::Feed(event, ack) => {
            *applied += pending.flush(host, ctx);
            handle_feed(host, ctx, event, ack);
        }
        WriterMsg::Flush(reply) => {
            *applied += pending.flush(host, ctx);
            // Seeded bug: the barrier answers before the fsync it
            // promises.
            #[cfg(debug_assertions)]
            if tecore_wal::failpoint::armed("server.flush_ack_before_fsync") {
                let appended = host.engine().wal_stats().map_or(0, |w| w.appended_epoch);
                let _ = reply.send(Ok(appended));
                let _ = host.engine_mut().flush_wal();
                return;
            }
            let result = host.engine_mut().flush_wal().map_err(|_| {
                ctx.stats.read_only.store(true, Ordering::Relaxed);
                "wal flush failed; server is read-only"
            });
            publish_wal_stats(host.engine(), &ctx.stats);
            let _ = reply.send(result);
        }
    }
}

/// Offers one event to the stream session and publishes whatever
/// windows the watermark advance fired. Late/duplicate/invalid events
/// are counted by the session and still ack `Ok` (offering is not a
/// promise of admission); only a WAL refusal errors, degrading the
/// server to read-only.
fn handle_feed(host: &mut EngineHost, ctx: &WriterCtx, event: StreamEvent, ack: Option<EditAck>) {
    let EngineHost::Stream(session) = host else {
        if let Some(ack) = ack {
            let _ = ack.send(Err("not a streaming server"));
        }
        return;
    };
    if ctx.stats.read_only.load(Ordering::Relaxed) {
        if let Some(ack) = ack {
            let _ = ack.send(Err("read-only (wal failed)"));
        }
        return;
    }
    let result = match session.push(event) {
        Ok(fires) => {
            publish_fires(session, ctx, &fires);
            Ok(())
        }
        Err(StreamError::Engine(tecore_core::TecoreError::Wal(_))) => {
            ctx.stats.read_only.store(true, Ordering::Relaxed);
            // The fire may have journaled and applied a prefix of its
            // batch before the log refused: serve the graph recovery
            // will rebuild, not the one before the fire.
            if session.engine().graph().epoch() != ctx.cell.load().epoch() {
                publish_resolved(session.engine_mut(), ctx);
            }
            publish_wal_stats(session.engine(), &ctx.stats);
            Err("wal write failed; server is read-only")
        }
        // Semantic no-op (invalid confidence): acknowledged, nothing
        // admitted, nothing journaled.
        Err(_) => Ok(()),
    };
    if let Some(ack) = ack {
        let _ = ack.send(result);
    }
}

/// Publishes fired windows: snapshot hand-off, stream counters, and
/// `W` frames at every subscriber.
fn publish_fires(session: &StreamSession, ctx: &WriterCtx, fires: &[WindowFire]) {
    for fire in fires {
        ctx.cell.publish(Arc::clone(&fire.snapshot));
        ctx.stats.publishes.fetch_add(1, Ordering::Relaxed);
        ctx.stats.stream_windows.fetch_add(1, Ordering::Relaxed);
        ctx.stats
            .stream_events_admitted
            .fetch_add(fire.stats.admitted as u64, Ordering::Relaxed);
        ctx.stats
            .stream_events_expired
            .fetch_add(fire.stats.expired as u64, Ordering::Relaxed);
        ctx.stats
            .stream_lag_ms
            .store(fire.stats.resolve_micros / 1000, Ordering::Relaxed);
        ctx.subs.deliver(fire);
    }
    if !fires.is_empty() {
        publish_wal_stats(session.engine(), &ctx.stats);
    }
}
