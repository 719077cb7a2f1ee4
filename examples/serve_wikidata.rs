//! Serving TeCoRe: client + server over the wire protocol.
//!
//! Starts a `tecore-server` on the Wikidata-like workload, walks one
//! connection through the whole protocol surface (queries, timelines,
//! live edits), then runs a short 4-connection load burst and prints
//! the serving counters. This is also the CI smoke for the serve path:
//! it asserts non-zero query throughput and exits cleanly, so the
//! server can never silently rot.
//!
//! Run with: `cargo run --release --example serve_wikidata`
//! (`TECORE_BENCH_SMOKE=1` shortens the load burst for CI.)
//!
//! Set `TECORE_WAL_DIR=/path/to/dir` to serve **durably**: edits are
//! journaled to a write-ahead log before they are acknowledged, and a
//! restart pointing at the same directory recovers the last
//! checkpoint plus the replayed log tail instead of regenerating the
//! workload. The first run against an empty directory seeds the log
//! with a checkpoint of the generated graph.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use tecore_core::registry::SolverRegistry;
use tecore_core::{Engine, TecoreConfig};
use tecore_datagen::config::WikidataConfig;
use tecore_datagen::standard::wikidata_program;
use tecore_datagen::wikidata::generate_wikidata;
use tecore_server::{Server, ServerConfig};

/// Reader connections in the load burst.
const LOAD_CONNECTIONS: usize = 4;

/// A minimal protocol client: send a line, read the framed response.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(server: &Server) -> std::io::Result<Client> {
        let stream = TcpStream::connect(server.local_addr())?;
        stream.set_nodelay(true)?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends `request` and returns the header plus any body lines.
    fn request(&mut self, request: &str) -> std::io::Result<Vec<String>> {
        self.writer.write_all(format!("{request}\n").as_bytes())?;
        let mut header = String::new();
        self.reader.read_line(&mut header)?;
        let header = header.trim_end().to_string();
        let body_lines: usize = header
            .split_whitespace()
            .find_map(|t| t.strip_prefix("n="))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let mut lines = vec![header];
        for _ in 0..body_lines {
            let mut line = String::new();
            self.reader.read_line(&mut line)?;
            lines.push(line.trim_end().to_string());
        }
        Ok(lines)
    }

    fn show(&mut self, request: &str) -> std::io::Result<()> {
        println!("  > {request}");
        for line in self.request(request)? {
            println!("  < {line}");
        }
        Ok(())
    }
}

fn main() -> std::io::Result<()> {
    // 1. The engine the server will own: wikidata-2k resolved with the
    //    WalkSAT substrate (fast component-wise re-solves on deltas).
    let generated = generate_wikidata(&WikidataConfig {
        total_facts: 2_000,
        noise_ratio: 0.05,
        seed: 0xE6,
    });
    let backend = SolverRegistry::with_default_backends()
        .resolve("mln-walksat")
        .expect("registered backend");
    let config = TecoreConfig {
        backend,
        ..TecoreConfig::default()
    };
    let engine = match std::env::var("TECORE_WAL_DIR") {
        Ok(dir) if !dir.is_empty() => {
            let io_err = |e: tecore_core::TecoreError| std::io::Error::other(e.to_string());
            let (wal, graph) = tecore_wal::Wal::open(&dir, tecore_wal::WalConfig::default())
                .map_err(|e| std::io::Error::other(format!("wal open failed: {e}")))?;
            println!(
                "wal: recovered epoch={} ({} facts) from {dir}",
                graph.epoch(),
                graph.len()
            );
            if graph.epoch() == 0 {
                // Fresh log: seed it with the generated workload
                // (attach_wal checkpoints the graph as the baseline).
                let mut engine = Engine::with_config(generated.graph, wikidata_program(), config);
                engine.attach_wal(wal).map_err(io_err)?;
                engine
            } else {
                Engine::durable(graph, wikidata_program(), config, wal)
            }
        }
        _ => Engine::with_config(generated.graph, wikidata_program(), config),
    };

    let server = Server::start(
        engine,
        ServerConfig {
            readers: LOAD_CONNECTIONS + 1,
            tick: Duration::from_millis(1),
            ..ServerConfig::default()
        },
    )?;
    println!(
        "serving wikidata-2k on {} (epoch {})",
        server.local_addr(),
        server.snapshot().epoch()
    );

    // 2. One connection, the whole protocol surface.
    let mut client = Client::connect(&server)?;
    println!("\nprotocol tour:");
    client.show("PING")?;
    client.show("COUNT p=spouse")?;
    client.show("Q p=playsFor over=1985..1990 limit=3")?;
    client.show("TIMELINE s=Q1 limit=3")?;
    // Capture the epoch *before* inserting: the writer loop may apply
    // and publish the edit before the ACK is even printed.
    let epoch = server.snapshot().epoch();
    client.show("INSERT Q1 spouse QServe [1990,1994] 0.62")?;
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.snapshot().epoch() == epoch {
        assert!(Instant::now() < deadline, "edit was never published");
        std::thread::sleep(Duration::from_millis(2));
    }
    client.show("COUNT s=Q1 p=spouse o=QServe")?;
    client.show("FLUSH")?;
    client.show("STATS")?;

    // 3. A short load burst: LOAD_CONNECTIONS readers hammering the
    //    snapshot while an edit stream keeps the writer loop busy.
    let smoke = std::env::var("TECORE_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let duration = Duration::from_secs(if smoke { 2 } else { 5 });
    let deadline = Instant::now() + duration;
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let requests: u64 = std::thread::scope(|scope| {
        let stop = &stop;
        let server = &server;
        let editor = scope.spawn(move || {
            let mut client = Client::connect(server).expect("edit connect");
            let mut edit = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let year = 1960 + (edit % 40) as i64;
                // Spread subjects wide and pace edits at the writer's
                // tick: an unthrottled stream hammering a handful of
                // subjects grows their conflict components
                // quadratically (every same-subject spouse pair is a
                // clause), which is a stress shape, not a demo shape.
                let request = format!(
                    "INSERT Q{} spouse QLoad/{edit} [{year},{}] 0.62",
                    edit % 1000,
                    year + 4
                );
                client.request(&request).expect("edit");
                edit += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            edit
        });
        let readers: Vec<_> = (0..LOAD_CONNECTIONS)
            .map(|r| {
                scope.spawn(move || {
                    let mut client = Client::connect(server).expect("connect");
                    let mix = [
                        "COUNT p=spouse",
                        "Q p=playsFor limit=3",
                        "COUNT s=Q7 at=1980",
                    ];
                    let mut sent = 0u64;
                    while Instant::now() < deadline {
                        client
                            .request(mix[(sent as usize + r) % mix.len()])
                            .expect("query");
                        sent += 1;
                    }
                    sent
                })
            })
            .collect();
        let requests = readers.into_iter().map(|h| h.join().unwrap()).sum();
        stop.store(true, Ordering::Relaxed);
        let edits = editor.join().unwrap();
        println!("\nload burst: {edits} edits streamed alongside the readers");
        requests
    });
    let elapsed = start.elapsed();
    let qps = requests as f64 / elapsed.as_secs_f64();
    println!(
        "load burst: {requests} requests over {LOAD_CONNECTIONS} connections in {elapsed:.2?} \
         ({qps:.0} qps, smoke={smoke})"
    );
    assert!(requests > 0, "load burst served nothing");

    // 4. Clean shutdown: drains in-flight requests and the edit queue.
    let final_snapshot = server.shutdown();
    println!(
        "shutdown: final epoch {}, {} live facts",
        final_snapshot.epoch(),
        final_snapshot.expanded().len(),
    );
    Ok(())
}
