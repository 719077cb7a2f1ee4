//! The two serving workloads, driven over real TCP connections against
//! a `tecore_server::Server` running in this process with two reader
//! threads (load-generator threads + connections never exceed two).
//!
//! * `serve_read_wd200k` — one closed-loop connection against an idle
//!   server: parse → plan → index scan → serialize → socket.
//! * `serve_edit_wd100k` — a durable server; an editor connection sends
//!   bursts of conflicting inserts and waits until each is readable,
//!   while a second connection reads open-loop at 500 req/s.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tecore_core::{EditBatch, Engine};
use tecore_datagen::standard::wikidata_program;
use tecore_datagen::{generate_wikidata, GeneratedKg, WikidataConfig};
use tecore_kg::parser::parse_graph;
use tecore_kg::writer::write_graph;
use tecore_kg::{FactId, UtkGraph};
use tecore_server::proto::{self, Request};
use tecore_server::{QueryKind, Server, ServerConfig};
use tecore_temporal::Interval;
use tecore_wal::{FsyncPolicy, InsertRecord, StdStorage, Wal, WalConfig, WalFile, WalStorage};

use super::probe;
use crate::hostspeed;
use crate::inputs::{edit_bursts, hash_lines, read_mix, Burst, ReadReq};
use crate::oracle::{brute_force, check_response};
use crate::procfs;
use crate::run::{
    engine_config, fill_end_to_end, repair_f1, set_trace_overhead, timed_setups, Ctx, Outcome,
    Phase,
};
use crate::stats::{median, percentile};
use crate::trace::Tracer;

/// Reader threads of the server under test.
const SERVER_READERS: usize = 2;
/// Rate of the open-loop reader of `serve_edit_wd100k`, requests/s.
const OPEN_LOOP_RATE: u64 = 500;
/// An edit burst not readable this long after its last `ACK` failed.
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(5);
/// Requests and edit bursts discarded before the measured phase.
const WARMUP_REQUESTS: usize = 4_096;
const WARMUP_BURSTS: usize = 2;
/// `repair_f1` of `serve_edit_wd100k` is read off the snapshot that
/// holds exactly the edits up to this measured burst (the phase always
/// measures at least five), so it repeats exactly for a seed.
const F1_BURST: usize = 4;
/// One request in this many is replayed against the brute-force scan.
const REPLAY_EVERY: usize = 100;
/// In the traced run, one request in this many carries spans.
const TRACE_EVERY: usize = 8;
/// The log's flush policy, stated in every record.
const FSYNC_EVERY: u32 = 64;

/// A client connection with reusable buffers.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A wedged server must fail the operation, not hang the run.
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            line: String::with_capacity(256),
        })
    }

    /// Sends `request` (newline-terminated, one write) and reads the
    /// header line into `self.line`; returns how many body lines follow.
    fn send(&mut self, request: &str) -> io::Result<usize> {
        self.writer.write_all(request.as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.body_lines())
    }

    /// Body lines the header in `self.line` announces (`n=K`).
    fn body_lines(&self) -> usize {
        self.line
            .split_ascii_whitespace()
            .find_map(|t| t.strip_prefix("n="))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    }

    /// One round trip, body discarded. `Ok(false)` on an `ERR` answer.
    fn round_trip(&mut self, request: &str) -> io::Result<bool> {
        let body = self.send(request)?;
        let ok = !self.line.starts_with("ERR");
        for _ in 0..body {
            self.line.clear();
            self.reader.read_line(&mut self.line)?;
        }
        Ok(ok)
    }

    /// One round trip keeping header and body.
    fn round_trip_full(&mut self, request: &str) -> io::Result<(String, Vec<String>)> {
        let n = self.send(request)?;
        let header = self.line.trim_end().to_string();
        let mut body = Vec::with_capacity(n);
        for _ in 0..n {
            self.line.clear();
            self.reader.read_line(&mut self.line)?;
            body.push(self.line.clone());
        }
        Ok((header, body))
    }

    /// Does the current snapshot hold this subject's `memberOf` fact?
    fn sees_member(&mut self, subject: &str) -> io::Result<bool> {
        self.send(&format!("COUNT s={subject} p=memberOf\n"))?;
        Ok(self.line.contains("count=1"))
    }
}

/// Generated base graph: its text, labels and subject universe.
struct Base {
    generated: GeneratedKg,
    text: String,
    people: u64,
}

fn generate_base(ctx: &Ctx, full_facts: usize, out: &mut Outcome) -> Base {
    let t0 = Instant::now();
    let config = WikidataConfig {
        total_facts: ctx.scaled(full_facts),
        noise_ratio: 0.1,
        seed: ctx.seed,
    };
    let generated = generate_wikidata(&config);
    let text = write_graph(&generated.graph);
    out.values
        .set("datagen.generate_ms", t0.elapsed().as_secs_f64() * 1e3);
    // As the generator sizes its subject universe: ~3 facts a person.
    let correct = config.total_facts as f64 / (1.0 + config.noise_ratio);
    Base {
        generated,
        text,
        people: ((correct.round() as u64) / 3).max(1),
    }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        readers: SERVER_READERS,
        ..ServerConfig::default()
    }
}

/// Primes the engine, starts the server and builds the served
/// snapshot's index — the tail of both serving set-ups.
fn start_server(mut engine: Engine, tracer: &mut Tracer) -> Server {
    tracer
        .span("core.prime_resolve", || engine.resolve_incremental())
        .expect("priming resolve of a generated graph");
    let server = tracer
        .span("server.start", || Server::start(engine, server_config()))
        .expect("bind an ephemeral port on 127.0.0.1");
    tracer.span("kg.index_build", || {
        let _ = server.snapshot().index();
    });
    server
}

/// Request lines ready for one `write_all` each.
fn wire_lines(requests: &[ReadReq]) -> Vec<String> {
    requests.iter().map(|r| r.line() + "\n").collect()
}

/// Replays `requests[i]` for the sampled `indices` and compares each
/// answer with a brute-force scan of the served snapshot.
fn replay_against_scan(
    server: &Server,
    conn: &mut Conn,
    requests: &[ReadReq],
    lines: &[String],
    indices: impl Iterator<Item = usize>,
    out: &mut Outcome,
) {
    let snapshot = server.snapshot();
    for i in indices {
        let (req, line) = (&requests[i % requests.len()], &lines[i % lines.len()]);
        let verdict = match conn.round_trip_full(line) {
            Ok((header, body)) => check_response(req, &brute_force(&snapshot, req), &header, &body),
            Err(e) => Err(format!("i/o: {e}")),
        };
        if let Err(why) = verdict {
            out.fail(format!("request {i} {:?}: {why}", line.trim_end()));
        }
    }
}

fn taskset(cpus: &str) -> bool {
    Command::new("taskset")
        .args(["-cp", cpus, &std::process::id().to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|status| status.success())
}

/// The main thread held on one CPU; dropping it gives the thread the
/// CPUs it had before, so that a process that runs more than one
/// workload (the smoke run) pins only this one.
struct Pin {
    cpu: String,
    before: String,
}

impl Pin {
    /// Restricts the calling (main) thread — and every thread it starts
    /// while pinned, the server's included — to the highest-numbered CPU
    /// it may use, through `taskset` (std has no affinity call).
    fn to_one_cpu() -> Result<Pin, String> {
        let before = procfs::allowed_cpus().ok_or("no Cpus_allowed_list in /proc")?;
        let cpu = before
            .rsplit([',', '-'])
            .next()
            .unwrap_or_default()
            .to_string();
        if taskset(&cpu) {
            Ok(Pin { cpu, before })
        } else {
            Err(format!("`taskset -cp {cpu}` failed or is not installed"))
        }
    }
}

impl Drop for Pin {
    fn drop(&mut self) {
        taskset(&self.before);
    }
}

/// Runs `serve_read_wd200k`.
pub fn run_read(ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    // One request in flight means the two ends of the connection are
    // never runnable together. Left to the scheduler they sit on two
    // CPUs, and every round trip wakes an idle virtual CPU twice: ~48 µs
    // on this kind of machine around a few µs of server work, and a
    // number that follows the host's mood (±40 % here) — on one CPU the
    // same round trip is ~8 µs. Windowed and polling clients, which keep
    // both CPUs busy instead, scattered ±25 %. So the whole workload is
    // pinned to one CPU — and an unpinned run, which measures another
    // regime, is not a correct run of this workload.
    let pin = Pin::to_one_cpu();
    match &pin {
        Ok(pin) => out.notes.push((
            "cpu_pinning",
            format!("every thread on cpu {} of {}", pin.cpu, pin.before),
        )),
        Err(why) => {
            out.notes.push(("cpu_pinning", "none".to_string()));
            out.fail(format!("cpu pinning: {why}"));
        }
    }
    let base = generate_base(ctx, 200_000, &mut out);
    let requests = read_mix(
        ctx.seed,
        base.people,
        (ctx.seconds * 40_000.0) as usize + 1_000,
    );
    let lines = wire_lines(&requests);
    out.notes
        .push(("inputs_fnv", format!("{:016x}", hash_lines(&lines))));
    let labels = base.generated.labels;
    drop(base.generated.graph);

    let config = engine_config("mln-walksat");
    let (server, setup) = timed_setups(
        tracer,
        |_, tracer| {
            let graph = tracer
                .span("kg.parse_graph", || parse_graph(&base.text))
                .expect("generated graph text parses");
            let program = tracer.span("logic.parse", wikidata_program);
            start_server(Engine::with_config(graph, program, config.clone()), tracer)
        },
        |server| drop(server.shutdown()),
    );
    let mut conn = Conn::connect(server.local_addr()).expect("connect to the server under test");

    let mut next = 0usize;
    while next < WARMUP_REQUESTS {
        let _ = conn.round_trip(&lines[next % lines.len()]);
        next += 1;
    }

    // Measured phase: closed loop, one request in flight.
    let first = next;
    let mut phase = Phase::begin(ctx.seconds, 0);
    let mut traced_us = Vec::new();
    let mut rows_per_result = Vec::new();
    let mut coalesce_us = Vec::new();
    let mut shadow_out = String::with_capacity(4096);
    while phase.running() {
        let answered = next;
        let line = &lines[answered % lines.len()];
        let t0 = Instant::now();
        let result = conn.round_trip(line);
        let ms = phase.record(t0, 1);
        next += 1;
        match result {
            Ok(true) => {}
            Ok(false) => out.fail(format!("request {answered} {:?}: ERR", line.trim_end())),
            Err(e) => {
                out.fail(format!(
                    "request {answered} {:?}: i/o: {e}",
                    line.trim_end()
                ));
                break;
            }
        }
        if tracer.enabled() && answered.is_multiple_of(TRACE_EVERY) {
            traced_us.push(ms * 1e3);
            // The server's share of the request, re-enacted on this
            // thread through the same public calls its reader makes.
            tracer.set_op(answered as u64);
            let id = tracer.enter("server.request");
            let snapshot = tracer.span("server.cell_load", || server.snapshot());
            let parsed = tracer.span("server.parse", || proto::parse(line));
            if let Ok(Request::Query(kind, clauses)) = parsed {
                shadow_out.clear();
                tracer.span("server.answer", || {
                    let _ = proto::answer_query(&snapshot, kind, &clauses, &mut shadow_out);
                });
                let query = proto::clauses_to_spec(&clauses).compile(&snapshot);
                let plan = tracer.span("core.query_plan", || query.explain());
                let results = tracer.span("core.query_scan", || query.count());
                if let Some(candidates) = plan
                    .rsplit_once('~')
                    .and_then(|(_, est)| est.split_whitespace().next())
                    .and_then(|est| est.parse::<f64>().ok())
                {
                    rows_per_result.push(candidates / results.max(1) as f64);
                }
                if kind == QueryKind::Timeline {
                    let t0 = Instant::now();
                    let entries = query.timeline().len();
                    coalesce_us.push(t0.elapsed().as_secs_f64() * 1e6 / entries.max(1) as f64);
                }
            }
            tracer.exit(id);
        }
    }
    let plain_us: Vec<f64> = if tracer.enabled() {
        phase
            .durs_ms()
            .iter()
            .enumerate()
            .filter(|(i, _)| !(first + i).is_multiple_of(TRACE_EVERY))
            .map(|(_, ms)| ms * 1e3)
            .collect()
    } else {
        Vec::new()
    };
    let measured = phase.ops();
    let summary = phase.finish();
    out.attempted = measured as u64;

    replay_against_scan(
        &server,
        &mut conn,
        &requests,
        &lines,
        (first..first + measured).step_by(REPLAY_EVERY),
        &mut out,
    );
    let snapshot = server.snapshot();
    let f1 = repair_f1(&labels, &snapshot);
    fill_end_to_end(&mut out, &setup, &summary, f1);

    if tracer.enabled() {
        let med_ns = |name: &str| median(&tracer.durations_ms(name)) * 1e6;
        out.values.set("server.parse_ns", med_ns("server.parse"));
        out.values.set("server.answer_ns", med_ns("server.answer"));
        out.values
            .set("server.cell_load_ns", med_ns("server.cell_load"));
        // What a round trip spends outside the server's parse and answer:
        // sockets, wake-ups, framing.
        out.values.set(
            "server.wire_overhead_us",
            median(&traced_us) - (med_ns("server.parse") + med_ns("server.answer")) / 1e3,
        );
        out.values
            .set("core.query_plan_ns", med_ns("core.query_plan"));
        out.values
            .set("core.query_scan_ns", med_ns("core.query_scan"));
        out.values
            .set("core.rows_examined_per_result", median(&rows_per_result));
        out.values
            .set("temporal.coalesce_us_per_timeline", median(&coalesce_us));
        out.values
            .set("server.read_idle_p99_us", percentile(&plain_us, 99.0));
        setup_layer_metrics(tracer, &mut out);
        set_trace_overhead(&mut out, &plain_us, &traced_us);
    }
    drop(conn);
    drop(server.shutdown());
    drop(pin);
    out
}

/// Set-up spans both serving workloads record.
fn setup_layer_metrics(tracer: &Tracer, out: &mut Outcome) {
    let med = |name: &str| median(&tracer.durations_ms(name));
    out.values.set("kg.parse_graph_ms", med("kg.parse_graph"));
    out.values.set("logic.parse_us", med("logic.parse") * 1e3);
    out.values.set("kg.index_build_ms", med("kg.index_build"));
}

/// Counts what reaches the log device: bytes appended and fsyncs.
#[derive(Debug, Default)]
struct DeviceCounts {
    bytes: AtomicU64,
    syncs: AtomicU64,
}

/// `StdStorage` with exact device counts — the sandbox's flushes hit
/// the page cache, so device work is reported as counts, not time.
#[derive(Debug)]
struct CountingStorage {
    inner: StdStorage,
    counts: Arc<DeviceCounts>,
}

#[derive(Debug)]
struct CountingFile {
    inner: Box<dyn WalFile>,
    counts: Arc<DeviceCounts>,
}

impl WalFile for CountingFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.append(buf)?;
        self.counts.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.counts.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync()
    }
}

impl CountingStorage {
    fn wrap(&self, file: Box<dyn WalFile>) -> Box<dyn WalFile> {
        Box::new(CountingFile {
            inner: file,
            counts: Arc::clone(&self.counts),
        })
    }
}

impl WalStorage for CountingStorage {
    fn create(&self, name: &str) -> io::Result<Box<dyn WalFile>> {
        self.inner.create(name).map(|f| self.wrap(f))
    }
    fn open_append(&self, name: &str) -> io::Result<Box<dyn WalFile>> {
        self.inner.open_append(name).map(|f| self.wrap(f))
    }
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(name)
    }
    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }
    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }
    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(name, len)
    }
}

fn wal_config() -> WalConfig {
    WalConfig {
        fsync: FsyncPolicy::EveryN(FSYNC_EVERY),
        ..WalConfig::default()
    }
}

fn insert_all<'a>(
    engine: &mut Engine,
    graph: &UtkGraph,
    facts: impl Iterator<Item = (FactId, &'a tecore_kg::TemporalFact)>,
) {
    let dict = graph.dict();
    let mut batch = EditBatch::new();
    for (_, f) in facts {
        batch = batch.insert(
            dict.resolve(f.subject),
            dict.resolve(f.predicate),
            dict.resolve(f.object),
            f.interval,
            f.confidence.value(),
        );
    }
    let report = engine.apply(&batch);
    assert_eq!(report.applied(), batch.len(), "preparing the log");
}

/// Writes the log every set-up repetition recovers: a checkpoint of the
/// first nine tenths of the base graph and a tail of one frame per
/// remaining fact (10k frames at full scale).
fn prepare_log(dir: &Path, graph: &UtkGraph, tracer: &mut Tracer) {
    let mut engine = Engine::open_durable_with(
        dir,
        wikidata_program(),
        engine_config("mln-walksat"),
        wal_config(),
    )
    .expect("create the log directory");
    let head = graph.len() * 9 / 10;
    insert_all(&mut engine, graph, graph.iter().take(head));
    tracer
        .span("wal.checkpoint", || engine.checkpoint())
        .expect("checkpoint the prepared log");
    insert_all(&mut engine, graph, graph.iter().skip(head));
    engine.flush_wal().expect("flush the prepared log");
}

fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// What the open-loop reader measured.
#[derive(Debug, Default)]
struct ReaderLog {
    /// Latency from each request's due time, µs.
    latency_us: Vec<f64>,
    /// How late each request was sent, µs.
    late_us: Vec<f64>,
    failures: Vec<String>,
}

/// The open-loop reader: request `i` is due at `i / rate` seconds and is
/// timed from then, so a stalled server shows as latency, not as load
/// that quietly went away.
fn open_loop_reader(addr: SocketAddr, lines: &[String], stop: &AtomicBool) -> ReaderLog {
    let mut log = ReaderLog::default();
    let mut conn = match Conn::connect(addr) {
        Ok(conn) => conn,
        Err(e) => {
            log.failures.push(format!("reader connect: {e}"));
            return log;
        }
    };
    let origin = Instant::now();
    let gap = Duration::from_nanos(1_000_000_000 / OPEN_LOOP_RATE);
    let mut i = 0u32;
    // ordering: the flag publishes nothing; it only ends the loop.
    while !stop.load(Ordering::Relaxed) {
        let due = origin + gap * i;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let line = &lines[i as usize % lines.len()];
        let sent = Instant::now();
        match conn.round_trip(line) {
            Ok(true) => {}
            Ok(false) => log
                .failures
                .push(format!("read {:?}: ERR", line.trim_end())),
            Err(e) => {
                log.failures
                    .push(format!("read {:?}: i/o: {e}", line.trim_end()));
                return log;
            }
        }
        log.latency_us
            .push((Instant::now() - due).as_secs_f64() * 1e6);
        log.late_us.push((sent - due).as_secs_f64() * 1e6);
        i += 1;
    }
    log
}

/// The editor connection of `serve_edit_wd100k` and what it has to
/// remember between bursts.
struct Editor<'a> {
    conn: Conn,
    bursts: &'a [Burst],
    /// Arena id the server's engine will mint for the next insert.
    next_id: u32,
    /// Ids each burst inserted, for the removal two bursts later.
    burst_ids: Vec<Vec<u32>>,
    /// Noise labels by engine fact id, extended as facts are inserted.
    labels: Vec<bool>,
    /// Last `ACK` → marker readable, per burst.
    visible_wait_ms: Vec<f64>,
}

impl Editor<'_> {
    /// Sends one edit; was it `ACK`ed?
    fn acked(&mut self, line: &str) -> bool {
        self.conn.send(line).is_ok() && self.conn.line.starts_with("ACK")
    }

    /// One burst: conflicting inserts + marker, removal of the burst two
    /// back, then poll until the marker is readable. Returns the edits
    /// sent and whether all were `ACK`ed and became visible in time.
    fn run_burst(&mut self, b: usize) -> (u64, Result<(), String>) {
        let burst = &self.bursts[b % self.bursts.len()];
        let mut edits = 0u64;
        let mut ids = Vec::with_capacity(burst.inserts.len());
        let mut acked = true;
        for insert in &burst.inserts {
            acked &= self.acked(&format!("{}\n", insert.line));
            ids.push(self.next_id);
            self.labels.push(insert.noise);
            self.next_id += 1;
            edits += 1;
        }
        if b >= 2 {
            for id in self.burst_ids[b - 2].clone() {
                acked &= self.acked(&format!("REMOVE {id}\n"));
                // A fact the editor took back is not the repair's to judge.
                self.labels[id as usize] = false;
                edits += 1;
            }
        }
        self.burst_ids.push(ids);
        let acked_at = Instant::now();
        let mut visible = false;
        while acked && !visible && acked_at.elapsed() < VISIBLE_TIMEOUT {
            match self.conn.sees_member(&burst.marker) {
                Ok(true) => visible = true,
                Ok(false) => std::thread::sleep(Duration::from_millis(1)),
                Err(_) => break,
            }
        }
        self.visible_wait_ms
            .push(acked_at.elapsed().as_secs_f64() * 1e3);
        let verdict = if !acked {
            Err(format!(
                "an edit was not ACKed ({:?})",
                self.conn.line.trim_end()
            ))
        } else if !visible {
            Err(format!(
                "{} not readable after {VISIBLE_TIMEOUT:?}",
                burst.marker
            ))
        } else {
            Ok(())
        };
        (edits, verdict)
    }
}

/// Runs `serve_edit_wd100k`.
pub fn run_edit(ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let base = generate_base(ctx, 100_000, &mut out);
    let bursts = edit_bursts(ctx.seed, &base.generated, (ctx.seconds * 8.0) as usize + 16);
    let requests = read_mix(
        ctx.seed,
        base.people,
        ((ctx.seconds + 2.0) * OPEN_LOOP_RATE as f64) as usize,
    );
    let lines = wire_lines(&requests);
    let edit_lines: Vec<&str> = bursts
        .iter()
        .flat_map(|b| b.inserts.iter().map(|i| i.line.as_str()))
        .collect();
    out.notes.push((
        "inputs_fnv",
        format!("{:016x}", hash_lines(&edit_lines) ^ hash_lines(&lines)),
    ));

    // The log lives inside the checkout (the benchmark may write nowhere
    // else); set-up repetitions each recover their own copy of it.
    let root = ctx.out_dir.join(format!("wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let prepared = root.join("prepared");
    prepare_log(&prepared, &base.generated.graph, tracer);
    out.notes
        .push(("wal_dir", "checkout (benchmark/out)".to_string()));
    out.notes
        .push(("wal_flush_policy", format!("EveryN({FSYNC_EVERY})")));
    let mut labels = base.generated.labels;
    drop(base.generated.graph);

    // Each set-up repetition recovers its own copy of the prepared log
    // (a started server appends to it). The next copy is made while the
    // last repetition's server is torn down, so no repetition times one.
    let config = engine_config("mln-walksat");
    let rep_dir = |rep: usize| -> PathBuf { root.join(format!("rep-{rep}")) };
    let fresh_copy =
        |rep: usize| copy_dir(&prepared, &rep_dir(rep)).expect("copy the prepared log");
    fresh_copy(0);
    let reps_built = std::cell::Cell::new(0usize);
    let mut arena_len = 0usize;
    let (server, setup) = timed_setups(
        tracer,
        |rep, tracer| {
            reps_built.set(rep + 1);
            let engine = tracer
                .span("wal.recover", || {
                    Engine::open_durable_with(
                        rep_dir(rep),
                        wikidata_program(),
                        config.clone(),
                        wal_config(),
                    )
                })
                .expect("recover the prepared log");
            arena_len = engine.graph().arena_len();
            start_server(engine, tracer)
        },
        // No drained shutdown here: it would checkpoint, and the log
        // directory is thrown away with the run anyway.
        |server| {
            server.crash();
            let _ = std::fs::remove_dir_all(rep_dir(reps_built.get() - 1));
            fresh_copy(reps_built.get());
        },
    );
    if labels.len() != arena_len {
        out.fail(format!(
            "recovered arena holds {arena_len} facts, the generator labelled {}",
            labels.len()
        ));
        labels.resize(arena_len, false);
    }
    let mut editor = Editor {
        conn: Conn::connect(server.local_addr()).expect("connect to the server under test"),
        bursts: &bursts,
        next_id: arena_len as u32,
        burst_ids: Vec::new(),
        labels,
        visible_wait_ms: Vec::new(),
    };
    let stop = AtomicBool::new(false);
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut f1 = 0.0;
    let (summary, measured, reader, publishes, edits_applied) = std::thread::scope(|scope| {
        let (addr, lines, stop) = (server.local_addr(), &lines, &stop);
        let reader = scope.spawn(move || open_loop_reader(addr, lines, stop));

        let mut b = 0usize;
        let mut edits_sent = 0u64;
        while b < WARMUP_BURSTS {
            edits_sent += editor.run_burst(b).0;
            b += 1;
        }
        let publishes0 = server.stats().publishes.load(Ordering::Relaxed);
        let edits0 = server.stats().edits_applied.load(Ordering::Relaxed);
        // An edit is ACKed once journaled and published after, so a
        // burst's trailing removes are still on their way when it counts
        // as visible: what needs the server at rest waits for them.
        let settle = |edits_sent: u64| {
            let waiting = Instant::now();
            // ordering: a statistic the writer bumps after it publishes.
            while server.stats().edits_applied.load(Ordering::Relaxed) < edits_sent
                && waiting.elapsed() < VISIBLE_TIMEOUT
            {
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        // A host-speed reference taken straight after a burst would share
        // the two CPUs with the writer's trailing publishes and with the
        // reader that builds the new snapshot's index, and pass the
        // server's own work for a slow host: it waits for both.
        let mut phase = Phase::begin(ctx.seconds, F1_BURST + 1).references_by_hand();
        let mut last_reference = Instant::now();
        while phase.running() {
            // The traced run spans every other burst, so the overhead of
            // tracing is a paired comparison here too.
            let traced = tracer.enabled() && b % 2 == 1;
            tracer.set_op(b as u64);
            let id = tracer.enter_if(traced, "server.edit_burst");
            let t0 = Instant::now();
            let (edits, verdict) = editor.run_burst(b);
            let ms = phase.record(t0, edits);
            tracer.exit(id);
            edits_sent += edits;
            if let Err(why) = verdict {
                out.fail(format!("burst {b}: {why}"));
            }
            if phase.ops() == F1_BURST + 1 {
                f1 = phase.outside(|| {
                    settle(edits_sent);
                    repair_f1(&editor.labels, &server.snapshot())
                });
            }
            if traced {
                &mut traced_ms
            } else {
                &mut plain_ms
            }
            .push(ms);
            b += 1;
            if last_reference.elapsed() >= hostspeed::EVERY {
                let reference = phase.outside(|| {
                    settle(edits_sent);
                    // The first windowed query after a publish builds
                    // the snapshot's index.
                    let _ = editor.conn.round_trip("COUNT p=memberOf at=2000\n");
                    hostspeed::reference_ms()
                });
                phase.add_reference(reference);
                last_reference = Instant::now();
            }
        }
        let measured = phase.ops();
        let summary = phase.finish();
        // ordering: see `open_loop_reader`.
        stop.store(true, Ordering::Relaxed);
        let reader = reader.join().expect("the open-loop reader panicked");
        (
            summary,
            measured,
            reader,
            server.stats().publishes.load(Ordering::Relaxed) - publishes0,
            server.stats().edits_applied.load(Ordering::Relaxed) - edits0,
        )
    });
    let Editor {
        next_id,
        burst_ids,
        visible_wait_ms,
        ..
    } = editor;
    out.attempted = measured as u64;
    for failure in &reader.failures {
        out.fail(failure.clone());
    }

    // Final state: every insert and removal must have reached the graph.
    let inserted = u64::from(next_id) - arena_len as u64;
    let removed: u64 = burst_ids
        .iter()
        .take(burst_ids.len().saturating_sub(2))
        .map(|ids| ids.len() as u64)
        .sum();
    let snapshot = server.shutdown();
    let expected_facts = arena_len as u64 + inserted - removed;
    if snapshot.stats.total_facts as u64 != expected_facts {
        out.fail(format!(
            "final graph holds {} facts, edits sent imply {expected_facts}",
            snapshot.stats.total_facts
        ));
    }
    fill_end_to_end(&mut out, &setup, &summary, f1);

    if tracer.enabled() {
        out.values
            .set("server.read_churn_p50_us", median(&reader.latency_us));
        out.values.set(
            "server.read_churn_p99_us",
            percentile(&reader.latency_us, 99.0),
        );
        out.values
            .set("loadgen.late_p99_us", percentile(&reader.late_us, 99.0));
        out.values
            .set("server.visible_p99_ms", percentile(&visible_wait_ms, 99.0));
        out.values.set("server.publishes", publishes as f64);
        if publishes > 0 {
            out.values.set(
                "server.edits_per_publish",
                edits_applied as f64 / publishes as f64,
            );
        }
        setup_layer_metrics(tracer, &mut out);
        let med = |name: &str| median(&tracer.durations_ms(name));
        out.values.set("wal.checkpoint_ms", med("wal.checkpoint"));
        out.values.set("wal.recover_ms", med("wal.recover"));
        // The server's own publishes are not observable per stage from
        // outside; an engine of our own over the same base is.
        let graph = parse_graph(&base.text).expect("generated graph text parses");
        let mut engine = Engine::with_config(graph, wikidata_program(), config.clone());
        if engine.resolve_incremental().is_ok() {
            let batches: Vec<EditBatch> = bursts
                .iter()
                .rev()
                .take(4)
                .flat_map(|burst| &burst.inserts)
                .filter_map(|insert| match proto::parse(&insert.line) {
                    Ok(Request::Insert {
                        subject,
                        predicate,
                        object,
                        interval,
                        confidence,
                    }) => Some(
                        EditBatch::new().insert(subject, predicate, object, interval, confidence),
                    ),
                    _ => None,
                })
                .collect();
            probe::incremental_probe(&mut engine, &batches, tracer, &mut out);
            probe::grounding_probe(&engine, tracer, &mut out);
        }
        probe::cell_publish_probe(&snapshot, &mut out);
        wal_probe(&prepared, &root.join("probe"), &mut out);
        set_trace_overhead(&mut out, &plain_ms, &traced_ms);
    }
    let _ = std::fs::remove_dir_all(&root);
    out
}

/// Times the log's public calls on a copy of the prepared directory,
/// counting device work exactly through [`CountingStorage`].
fn wal_probe(prepared: &Path, dir: &Path, out: &mut Outcome) {
    const FRAMES: u32 = 2_048;
    if copy_dir(prepared, dir).is_err() {
        return;
    }
    let counts = Arc::new(DeviceCounts::default());
    let Ok(inner) = StdStorage::open(dir) else {
        return;
    };
    let storage = CountingStorage {
        inner,
        counts: Arc::clone(&counts),
    };
    let Ok((mut wal, graph)) = Wal::open_with(Box::new(storage), wal_config()) else {
        return;
    };
    out.values
        .set("wal.frames_replayed", wal.recovery().replayed as f64);
    let (epoch, arena) = (graph.epoch(), graph.arena_len() as u32);
    let (bytes0, syncs0) = (
        counts.bytes.load(Ordering::Relaxed),
        counts.syncs.load(Ordering::Relaxed),
    );
    let interval = Interval::new(2000, 2001).expect("static interval");
    let t0 = Instant::now();
    for i in 0..FRAMES {
        let record = InsertRecord {
            subject: "QProbe",
            predicate: "memberOf",
            object: "ProbeOrg",
            interval,
            confidence: 0.9,
        };
        if wal
            .log_insert(epoch + 1 + u64::from(i), FactId(arena + i), &record)
            .is_err()
        {
            return;
        }
    }
    let elapsed = t0.elapsed();
    out.values.set(
        "wal.append_ns_per_frame",
        elapsed.as_nanos() as f64 / f64::from(FRAMES),
    );
    out.values.set(
        "wal.bytes_per_edit",
        (counts.bytes.load(Ordering::Relaxed) - bytes0) as f64 / f64::from(FRAMES),
    );
    out.values.set(
        "wal.fsyncs",
        (counts.syncs.load(Ordering::Relaxed) - syncs0) as f64,
    );
}
