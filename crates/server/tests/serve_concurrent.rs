//! Concurrent-serving integration tests: 4 reader connections against
//! a continuous writer, checking the three serving invariants —
//! responses are internally consistent (single-epoch, never torn),
//! epochs are monotone per connection, and shutdown drains in-flight
//! requests.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use tecore_core::Engine;
use tecore_kg::UtkGraph;
use tecore_logic::LogicProgram;
use tecore_server::{Server, ServerConfig};
use tecore_temporal::Interval;

/// A tiny line-oriented protocol client.
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
        // One write per request (a split write would sit in Nagle's
        // buffer against the peer's delayed ACK).
        let framed = format!("{request}\n");
        self.writer.write_all(framed.as_bytes()).expect("send");
    }

    fn read_line(&mut self) -> String {
        self.line.clear();
        let n = self.reader.read_line(&mut self.line).expect("recv");
        assert!(n > 0, "connection closed mid-response");
        self.line.trim_end().to_string()
    }

    /// Sends a query command, returning `(epoch, result_lines,
    /// count_attr)` from the framed response.
    fn query(&mut self, request: &str) -> (u64, Vec<String>, Option<u64>) {
        self.send(request);
        let header = self.read_line();
        let mut parts = header.split_whitespace();
        assert_eq!(parts.next(), Some("OK"), "unexpected response: {header}");
        let epoch = parts
            .next()
            .and_then(|t| t.strip_prefix("epoch="))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("bad header: {header}"));
        let n: usize = parts
            .next()
            .and_then(|t| t.strip_prefix("n="))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("bad header: {header}"));
        let count = parts
            .next()
            .and_then(|t| t.strip_prefix("count="))
            .and_then(|v| v.parse().ok());
        let body = (0..n).map(|_| self.read_line()).collect();
        (epoch, body, count)
    }
}

fn start_server(readers: usize) -> Server {
    let mut graph = UtkGraph::new();
    // A seed population so queries have something to chew on besides
    // the markers the tests insert.
    for i in 0..50 {
        graph
            .insert(
                &format!("player/{i}"),
                "playsFor",
                &format!("club/{}", i % 7),
                Interval::new(1990 + (i as i64 % 20), 2015).unwrap(),
                0.9,
            )
            .unwrap();
    }
    let engine = Engine::new(graph, LogicProgram::new());
    Server::start(
        engine,
        ServerConfig {
            readers,
            tick: Duration::from_millis(1),
            ..ServerConfig::default()
        },
    )
    .expect("server starts")
}

/// Invariants (a) and (b): while a writer streams inserts of a marker
/// predicate, every `COUNT p=marker` response must satisfy
/// `count == epoch - initial_epoch` *exactly* — each insert bumps the
/// graph epoch by one, so a torn read (count from one snapshot, epoch
/// from another) breaks the equality — and each connection's observed
/// epochs must be monotone.
#[test]
fn readers_never_see_torn_or_regressing_snapshots() {
    const EDITS: u64 = 120;
    const READERS: usize = 4;
    // One reader thread per client connection plus one for the writer
    // client, so no connection waits for another to finish.
    let server = start_server(READERS + 1);
    let initial_epoch = server.snapshot().epoch();
    let writer_done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let server = &server;
        let writer_done = &writer_done;
        let mut readers = Vec::new();
        for _ in 0..READERS {
            readers.push(scope.spawn(move || {
                let mut client = Client::connect(server);
                let mut last_epoch = 0u64;
                let mut observations = 0u64;
                loop {
                    let done_before = writer_done.load(Ordering::Acquire);
                    let (epoch, _, count) = client.query("COUNT p=marker");
                    let count = count.expect("COUNT carries count=");
                    // (a) single-epoch consistency: the count answers
                    // exactly the snapshot named in the header.
                    assert_eq!(
                        count,
                        epoch - initial_epoch,
                        "torn read: count={count} at epoch={epoch} (initial={initial_epoch})"
                    );
                    // (b) per-connection monotone epochs.
                    assert!(
                        epoch >= last_epoch,
                        "epoch regressed: {epoch} after {last_epoch}"
                    );
                    last_epoch = epoch;
                    observations += 1;
                    if done_before && epoch == initial_epoch + EDITS {
                        break;
                    }
                }
                client.send("QUIT");
                observations
            }));
        }

        let mut writer = Client::connect(server);
        for i in 0..EDITS {
            writer.send(&format!("INSERT w/{i} marker hit [{i},{}] 0.9", i + 1));
            assert_eq!(writer.read_line(), "ACK");
        }
        writer_done.store(true, Ordering::Release);
        writer.send("QUIT");
        assert_eq!(writer.read_line(), "BYE");

        let total: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total >= READERS as u64, "readers made no observations");
    });

    let final_snapshot = server.shutdown();
    assert_eq!(final_snapshot.epoch(), initial_epoch + EDITS);
    assert_eq!(
        final_snapshot.query().predicate("marker").count(),
        EDITS as usize
    );
}

/// Invariant (c): a shutdown must answer the requests already received
/// (pipelined in the socket buffer) before closing connections, and
/// must apply acknowledged edits before publishing the final snapshot.
#[test]
fn shutdown_drains_in_flight_requests() {
    const PIPELINED: usize = 10;
    let server = start_server(2);
    let initial_epoch = server.snapshot().epoch();

    let mut client = Client::connect(&server);
    // An acknowledged edit, then a burst of pipelined queries the
    // server has not yet answered when shutdown lands.
    client.send("INSERT s/drain marker hit [1,2] 0.95");
    assert_eq!(client.read_line(), "ACK");
    for _ in 0..PIPELINED {
        client.send("COUNT p=playsFor");
    }

    // Joins every server thread: readers drain, writer applies the
    // acknowledged edit and publishes.
    let final_snapshot = server.shutdown();
    assert_eq!(final_snapshot.epoch(), initial_epoch + 1);
    assert_eq!(final_snapshot.query().predicate("marker").count(), 1);

    // Every pipelined request got its framed response...
    for _ in 0..PIPELINED {
        let header = client.read_line();
        assert!(
            header.starts_with("OK epoch=") && header.ends_with("count=50"),
            "unexpected response: {header}"
        );
    }
    // ...and the connection then closed cleanly (EOF, not a reset).
    client.line.clear();
    let n = client.reader.read_line(&mut client.line).expect("eof");
    assert_eq!(n, 0, "expected EOF, got: {}", client.line);
}

/// The full command surface over one connection: PING/EPOCH/STATS,
/// fact queries with ids, REMOVE round-trip, OBJECTS/TIMELINE framing,
/// and ERR responses that keep the connection open.
#[test]
fn protocol_round_trips() {
    let server = start_server(2);
    let mut client = Client::connect(&server);

    client.send("PING");
    assert_eq!(client.read_line(), "PONG");

    let (epoch0, body, _) = client.query("EPOCH");
    assert!(body.is_empty());

    // Malformed requests answer ERR and keep serving.
    client.send("FROB everything");
    assert!(client.read_line().starts_with("ERR "));
    client.send("Q badkey=1");
    assert!(client.read_line().starts_with("ERR "));

    // Insert, wait for publication, query it back with its id.
    client.send("INSERT \"Claudio Ranieri\" coach \"Leicester City\" [2015,2017] 0.7");
    assert_eq!(client.read_line(), "ACK");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let (epoch, _, _) = client.query("EPOCH");
        if epoch > epoch0 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "edit never published");
        std::thread::sleep(Duration::from_millis(2));
    }

    let (_, facts, _) = client.query("Q s=\"Claudio Ranieri\" at=2016");
    assert_eq!(facts.len(), 1);
    let fact_line = &facts[0];
    assert!(
        fact_line.contains("\"Claudio Ranieri\" coach \"Leicester City\" [2015,2017]"),
        "unexpected fact line: {fact_line}"
    );
    let id: u32 = fact_line
        .split_whitespace()
        .nth(1)
        .and_then(|t| t.parse().ok())
        .expect("F line carries the fact id");

    let (_, objects, _) = client.query("OBJECTS p=playsFor over=1990..2015 limit=3");
    assert_eq!(objects.len(), 3);
    assert!(objects.iter().all(|o| o.starts_with("O club/")));

    let (_, timeline, _) = client.query("TIMELINE s=\"Claudio Ranieri\"");
    assert_eq!(timeline.len(), 1);
    assert!(timeline[0].starts_with("T "), "bad line: {}", timeline[0]);
    assert!(
        timeline[0].contains("{[2015,2017]}"),
        "bad line: {}",
        timeline[0]
    );

    // Remove by id and wait for the retraction to publish.
    client.send(&format!("REMOVE {id}"));
    assert_eq!(client.read_line(), "ACK");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let (_, _, count) = client.query("COUNT s=\"Claudio Ranieri\"");
        if count == Some(0) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "remove never published"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    client.send("STATS");
    let header = client.read_line();
    assert!(header.contains("n=1"), "bad stats header: {header}");
    let stats_line = client.read_line();
    assert!(
        stats_line.starts_with("S queries=") && stats_line.contains("edits=2"),
        "bad stats line: {stats_line}"
    );
    // The durability gauges are present but idle on an in-memory
    // server.
    for field in [
        "wal_bytes=0",
        "wal_segments=0",
        "last_checkpoint_epoch=0",
        "durable_epoch=0",
        "read_only=false",
    ] {
        assert!(
            stats_line.contains(field),
            "stats line missing {field}: {stats_line}"
        );
    }

    // FLUSH on an in-memory server: succeeds, nothing durable.
    client.send("FLUSH");
    let flush = client.read_line();
    assert!(
        flush.starts_with("OK epoch=") && flush.ends_with("n=0 durable=0"),
        "bad flush response: {flush}"
    );

    client.send("QUIT");
    assert_eq!(client.read_line(), "BYE");
    server.shutdown();
}
