//! Server load generator — sustained read throughput and latency
//! percentiles while a continuous edit stream forces re-solves.
//!
//! The serving design (PR 4's `Engine` → `Arc<Snapshot>` split, the
//! `SnapshotCell` hand-off, the single-writer loop) exists so readers
//! never block on the writer. This bench is that claim as a number:
//!
//! * **idle phase** — 4 reader connections fire a query mix at a
//!   quiescent server; per-request latency is sampled client-side.
//! * **churn phase** — the same read load while an edit connection
//!   streams conflicting `spouse` inserts as fast as the server ACKs
//!   them, so the writer loop continuously coalesces, re-solves, and
//!   publishes. If readers ever blocked on the writer, the latency
//!   tail would explode; the p99 ratio between the phases is the
//!   regression-gated proof they don't.
//!
//! This binary does not use the criterion shim (the workload is a
//! client/server topology, not a closed loop), but it honours the same
//! environment contract: `TECORE_BENCH_SMOKE=1` shrinks the run to CI
//! scale and the report lands in `TECORE_BENCH_DIR` (default `.`) as
//! `BENCH_server_load.json`. The report extends the shim schema with
//! `p50_ns`/`p99_ns` latency percentiles, which `tools/bench_check`
//! gates like any other tracked metric.
//!
//! On a single-core host the churn p99 measures CPU *contention*
//! (reader threads time-share with the solver), not lock blocking, so
//! the `p99(churn) <= 2 x p99(idle)` assertion is enforced only when
//! at least two cores are available; the ratio is always reported.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use tecore_bench::harness;
use tecore_core::{Engine, TecoreConfig};
use tecore_datagen::standard::wikidata_program;
use tecore_server::{Server, ServerConfig};

/// Concurrent reader connections (the acceptance floor is 4).
const READERS: usize = 4;

/// The rotating read mix: point lookups, planned scans, windowed
/// counts — the shapes `tecore-core`'s costed planner distinguishes.
const REQUESTS: [&str; 5] = [
    "COUNT p=spouse",
    "Q p=spouse minconf=0.5 limit=5",
    "COUNT p=playsFor over=1980..1990",
    "Q s=Q1 limit=5",
    "COUNT p=birthDate at=1975",
];

fn smoke_mode() -> bool {
    std::env::var("TECORE_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// One measured phase: per-request latencies (ns), wall time, and the
/// number of snapshots published while it ran.
struct Phase {
    latencies: Vec<u64>,
    elapsed: Duration,
    requests: u64,
    publishes: u64,
}

impl Phase {
    fn qps(&self) -> f64 {
        self.requests as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    fn percentile(&self, p: f64) -> u64 {
        let n = self.latencies.len();
        if n == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * (n - 1) as f64).round() as usize;
        self.latencies[rank.min(n - 1)]
    }
}

/// Sends `request`, reads the framed response (header + `n=` body
/// lines), and returns nothing — the time this takes *is* the sample.
fn round_trip(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
    request: &str,
) {
    // One write per request: a split write (`request` then `"\n"`)
    // would re-enter Nagle/delayed-ACK territory.
    line.clear();
    line.push_str(request);
    line.push('\n');
    writer.write_all(line.as_bytes()).expect("send");
    line.clear();
    reader.read_line(line).expect("recv header");
    assert!(
        !line.starts_with("ERR"),
        "server rejected {request:?}: {line}"
    );
    // Query responses frame their body with `n=`; `ACK`/`PONG`-style
    // responses are single-line.
    let body_lines: usize = line
        .split_whitespace()
        .find_map(|t| t.strip_prefix("n="))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    for _ in 0..body_lines {
        line.clear();
        reader.read_line(line).expect("recv body");
    }
}

/// Runs one phase: `READERS` connections each issuing
/// `requests_per_reader` requests from the rotating mix, with an edit
/// stream alongside when `churn` is set.
fn run_phase(server: &Server, requests_per_reader: usize, churn: bool) -> Phase {
    let stop_edits = AtomicBool::new(false);
    let publishes_before = server.stats().publishes.load(Ordering::Relaxed);
    let start = Instant::now();
    let latencies = std::thread::scope(|scope| {
        let editor = churn.then(|| {
            let stop_edits = &stop_edits;
            scope.spawn(move || {
                let stream = TcpStream::connect(server.local_addr()).expect("edit connect");
                stream.set_nodelay(true).expect("nodelay");
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::new(stream);
                let mut line = String::new();
                let mut edit = 0u64;
                while !stop_edits.load(Ordering::Relaxed) {
                    // Conflicting spouse spells: every edit dirties a
                    // component the incremental solver must re-solve.
                    let year = 1960 + (edit % 40) as i64;
                    let request = format!(
                        "INSERT Q{} spouse QChurn/{edit} [{year},{}] 0.62",
                        edit % 50,
                        year + 4
                    );
                    round_trip(&mut writer, &mut reader, &mut line, &request);
                    edit += 1;
                }
                edit
            })
        });

        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                scope.spawn(move || {
                    let stream = TcpStream::connect(server.local_addr()).expect("connect");
                    stream.set_nodelay(true).expect("nodelay");
                    let mut writer = stream.try_clone().expect("clone");
                    let mut reader = BufReader::new(stream);
                    let mut line = String::with_capacity(256);
                    let mut samples = Vec::with_capacity(requests_per_reader);
                    for i in 0..requests_per_reader {
                        let request = REQUESTS[(i + r) % REQUESTS.len()];
                        let t0 = Instant::now();
                        round_trip(&mut writer, &mut reader, &mut line, request);
                        samples.push(t0.elapsed().as_nanos() as u64);
                    }
                    samples
                })
            })
            .collect();

        let mut all: Vec<u64> = readers
            .into_iter()
            .flat_map(|h| h.join().expect("reader thread"))
            .collect();
        stop_edits.store(true, Ordering::Relaxed);
        if let Some(editor) = editor {
            let edits = editor.join().expect("edit thread");
            assert!(edits > 0, "edit stream sent nothing — churn phase was idle");
        }
        all.sort_unstable();
        all
    });
    let elapsed = start.elapsed();
    Phase {
        requests: latencies.len() as u64,
        latencies,
        elapsed,
        publishes: server.stats().publishes.load(Ordering::Relaxed) - publishes_before,
    }
}

fn report_entry(out: &mut String, phase: &Phase, name: &str) {
    use std::fmt::Write;
    let min = phase.latencies.first().copied().unwrap_or(0);
    let max = phase.latencies.last().copied().unwrap_or(0);
    write!(
        out,
        "  {{\"name\": \"server_load/{name}/read_latency\", \"median_ns\": {p50}, \
         \"min_ns\": {min}, \"max_ns\": {max}, \"stddev_ns\": 0, \"samples\": {n}, \
         \"p50_ns\": {p50}, \"p99_ns\": {p99}, \"qps\": {qps}}},\n  \
         {{\"name\": \"server_load/{name}/elapsed\", \"median_ns\": {el}, \
         \"min_ns\": {el}, \"max_ns\": {el}, \"stddev_ns\": 0, \"samples\": 1}}",
        p50 = phase.percentile(50.0),
        p99 = phase.percentile(99.0),
        n = phase.latencies.len(),
        qps = phase.qps() as u64,
        el = phase.elapsed.as_nanos(),
    )
    .expect("writing to a String never fails");
}

fn main() {
    // Cargo invokes bench binaries with `--bench`; nothing to parse.
    let smoke = smoke_mode();
    let requests_per_reader = if smoke { 250 } else { 2_000 };

    let program = wikidata_program();
    let generated = harness::wikidata(2_000);
    let config = TecoreConfig {
        // WalkSAT re-solves dirty components fast — the streaming
        // backend of the incremental bench.
        backend: harness::solver("mln-walksat"),
        ..TecoreConfig::default()
    };
    let engine = Engine::with_config(generated.graph, program, config);
    let server = Server::start(
        engine,
        ServerConfig {
            // One serving thread per reader connection plus one for
            // the edit stream, so no connection queues behind another.
            readers: READERS + 1,
            tick: Duration::from_millis(1),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");

    // Warm-up: builds the snapshot's lazy indexes and grows every
    // connection-side buffer before anything is measured.
    run_phase(&server, 25, false);

    let idle = run_phase(&server, requests_per_reader, false);
    let epoch_before_churn = server.snapshot().epoch();
    let churn = run_phase(&server, requests_per_reader, true);

    // Shutdown drains the edit queue and publishes the final snapshot,
    // so the epoch delta is exactly the churn edits that were applied
    // (a publish mid-flight when the phase timer stopped still counts).
    let final_snapshot = server.shutdown();

    assert!(idle.qps() > 0.0, "idle phase served nothing");
    assert!(churn.qps() > 0.0, "churn phase served nothing");
    assert!(
        final_snapshot.epoch() > epoch_before_churn,
        "no churn edits were applied — the edit stream did not force re-solves"
    );

    let ratio = churn.percentile(99.0) as f64 / idle.percentile(99.0).max(1) as f64;
    for (name, phase) in [("idle", &idle), ("churn", &churn)] {
        println!(
            "bench: server_load/{name:<5} {:>8.0} qps  p50 {:>9}ns  p99 {:>9}ns  \
             ({} requests, {} publishes, {:.2?})",
            phase.qps(),
            phase.percentile(50.0),
            phase.percentile(99.0),
            phase.requests,
            phase.publishes,
            phase.elapsed,
        );
    }
    println!("bench: server_load p99 churn/idle ratio: {ratio:.2}x");

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores >= 2 && !smoke {
        // Readers provably never block on the writer: with a core to
        // spare, continuous re-solving must leave the read tail
        // within 2x of the quiescent tail.
        assert!(
            ratio <= 2.0,
            "churn p99 {}ns is {ratio:.2}x idle p99 {}ns (> 2x): readers are \
             blocking on the writer",
            churn.percentile(99.0),
            idle.percentile(99.0),
        );
    } else {
        println!(
            "bench: server_load p99 gate skipped ({} core(s), smoke={smoke}): \
             single-core churn measures CPU contention, not blocking",
            cores
        );
    }

    let mut results = String::new();
    report_entry(&mut results, &idle, "idle");
    results.push_str(",\n");
    report_entry(&mut results, &churn, "churn");
    let report = format!("{{\"bench\": \"server_load\", \"results\": [\n{results}\n]}}\n");
    let dir = std::env::var("TECORE_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join("BENCH_server_load.json");
    std::fs::write(&path, report).expect("write report");
    println!("bench: wrote {}", path.display());
}
