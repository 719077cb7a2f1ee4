//! Streaming-serving integration tests: the `FEED`/`SUB`/`UNSUB`
//! verbs, push-delivered `W` frames on window fires, the STATS stream
//! counters, and the plain-server rejection of streaming verbs.
//!
//! Frame-ordering note exploited throughout: the writer loop pushes a
//! fired window's `W` frames at every subscriber *before* the `FEED`
//! that fired it is acknowledged, so a client that both subscribes and
//! feeds sees `W …`, the `F` lines, then its `ACK` — deterministically.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use tecore_core::Engine;
use tecore_kg::UtkGraph;
use tecore_logic::LogicProgram;
use tecore_server::{Server, ServerConfig, StreamServing};
use tecore_stream::WindowSpec;

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
        let framed = format!("{request}\n");
        self.writer.write_all(framed.as_bytes()).expect("send");
    }

    fn read_line(&mut self) -> String {
        self.line.clear();
        let n = self.reader.read_line(&mut self.line).expect("recv");
        assert!(n > 0, "connection closed mid-response");
        self.line.trim_end().to_string()
    }

    fn roundtrip(&mut self, request: &str) -> String {
        self.send(request);
        self.read_line()
    }
}

fn start_stream_server() -> Server {
    let engine = Engine::new(UtkGraph::new(), LogicProgram::new());
    Server::start(
        engine,
        ServerConfig {
            readers: 3,
            tick: Duration::from_millis(1),
            stream: Some(StreamServing {
                window: WindowSpec::tumbling(10).expect("valid window"),
                lateness: 0,
            }),
            ..ServerConfig::default()
        },
    )
    .expect("server starts")
}

/// Streaming verbs on a server started without a window configuration
/// are refused at the reader, never reaching the writer loop.
#[test]
fn plain_server_rejects_streaming_verbs() {
    let engine = Engine::new(UtkGraph::new(), LogicProgram::new());
    let server = Server::start(
        engine,
        ServerConfig {
            readers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let mut client = Client::connect(&server);
    for verb in [
        "FEED 1 a playsFor b [2000,2001] 0.9",
        "SUB p=playsFor",
        "UNSUB 0",
    ] {
        assert_eq!(
            client.roundtrip(verb),
            "ERR not a streaming server",
            "verb: {verb}"
        );
    }
    // The connection is still healthy afterwards.
    assert_eq!(client.roundtrip("PING"), "PONG");
    server.shutdown();
}

/// The full subscribe → feed → fire → push cycle on one connection,
/// including the STATS counters and unsubscription.
#[test]
fn feed_sub_fire_push_cycle() {
    let server = start_stream_server();
    let mut client = Client::connect(&server);

    // Subscribe to playsFor facts.
    let header = client.roundtrip("SUB p=playsFor");
    let sub_id = header
        .split_whitespace()
        .find_map(|t| t.strip_prefix("sub="))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or_else(|| panic!("bad SUB response: {header}"));
    assert!(
        header.starts_with("OK epoch="),
        "bad SUB response: {header}"
    );

    // Two non-conflicting events inside the first window [0,10).
    assert_eq!(
        client.roundtrip("FEED 1 alice playsFor club/red [2000,2005] 0.9"),
        "ACK"
    );
    assert_eq!(
        client.roundtrip("FEED 3 bob playsFor club/blue [2001,2004] 0.8"),
        "ACK"
    );

    // An event past the boundary advances the watermark to 12 and
    // fires [0,10): the W frame is pushed before the feed's ACK.
    client.send("FEED 12 carol playsFor club/red [2010,2012] 0.7");
    let frame = client.read_line();
    let mut parts = frame.split_whitespace();
    assert_eq!(parts.next(), Some("W"), "expected W frame, got: {frame}");
    assert_eq!(parts.next(), Some(format!("sub={sub_id}").as_str()));
    assert_eq!(parts.next(), Some("window=0..10"));
    let total: u64 = parts
        .clone()
        .find_map(|t| t.strip_prefix("total="))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("bad W header: {frame}"));
    let n: usize = parts
        .find_map(|t| t.strip_prefix("n="))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("bad W header: {frame}"));
    assert_eq!(total, 2, "both in-window facts survive: {frame}");
    assert_eq!(n, 2);
    let mut facts = Vec::new();
    for _ in 0..n {
        let line = client.read_line();
        assert!(line.starts_with("F "), "expected F line, got: {line}");
        facts.push(line);
    }
    assert!(facts.iter().any(|f| f.contains("alice")), "{facts:?}");
    assert!(facts.iter().any(|f| f.contains("bob")), "{facts:?}");
    assert_eq!(client.read_line(), "ACK", "feed ack follows the frame");

    // STATS reports the fire and the admissions.
    client.send("STATS");
    let header = client.read_line();
    assert!(header.starts_with("OK"), "{header}");
    let stats = client.read_line();
    let field = |name: &str| -> u64 {
        stats
            .split_whitespace()
            .find_map(|t| t.strip_prefix(name))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing {name} in: {stats}"))
    };
    assert_eq!(field("stream_windows="), 1);
    assert_eq!(field("stream_events_admitted="), 2);
    assert_eq!(field("stream_events_expired="), 0);

    // Unsubscribe: acknowledged once, unknown afterwards.
    assert!(client
        .roundtrip(&format!("UNSUB {sub_id}"))
        .starts_with("OK"));
    assert_eq!(
        client.roundtrip(&format!("UNSUB {sub_id}")),
        "ERR unknown subscription"
    );

    // The next fire ([10,20), carrying carol and expiring alice+bob)
    // pushes nothing at this connection: the ACK comes back directly.
    assert_eq!(
        client.roundtrip("FEED 25 dave playsFor club/blue [2015,2016] 0.9"),
        "ACK"
    );
    assert_eq!(client.roundtrip("PING"), "PONG");

    let snapshot = server.shutdown();
    // After [10,20) fired, only carol's fact is live in the graph.
    assert!(snapshot.epoch() > 0);
}

/// A subscriber on a second connection receives frames for windows
/// fired by another client's feed, and expiry shows up in STATS.
#[test]
fn second_connection_receives_frames() {
    let server = start_stream_server();
    let mut feeder = Client::connect(&server);
    let mut watcher = Client::connect(&server);

    assert!(watcher.roundtrip("SUB p=playsFor").starts_with("OK"));

    assert_eq!(
        feeder.roundtrip("FEED 2 erin playsFor club/red [2000,2002] 0.9"),
        "ACK"
    );
    // Fires [0,10) with erin's fact.
    assert_eq!(
        feeder.roundtrip("FEED 11 frank playsFor club/red [2005,2007] 0.9"),
        "ACK"
    );
    let frame = watcher.read_line();
    assert!(
        frame.starts_with("W ") && frame.contains("window=0..10"),
        "{frame}"
    );
    assert!(frame.contains("n=1"), "{frame}");
    assert!(watcher.read_line().contains("erin"));

    // Fires [10,20): erin expires (slid out), frank is in-window.
    assert_eq!(
        feeder.roundtrip("FEED 21 grace playsFor club/red [2010,2011] 0.9"),
        "ACK"
    );
    let frame = watcher.read_line();
    assert!(frame.contains("window=10..20"), "{frame}");
    assert!(watcher.read_line().contains("frank"));

    feeder.send("STATS");
    feeder.read_line();
    let stats = feeder.read_line();
    assert!(
        stats.contains("stream_windows=2") && stats.contains("stream_events_expired=1"),
        "{stats}"
    );

    server.shutdown();
}
