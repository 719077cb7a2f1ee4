//! # tecore-server
//!
//! High-throughput serving for the TeCoRe engine: a dependency-free
//! (std-only) framed-TCP server answering [`TemporalQuery`]-shaped
//! requests from the latest published [`Snapshot`] while a single
//! writer loop batches edits and re-solves incrementally.
//!
//! Three layers (see the module docs for the details):
//!
//! * [`cell`] — [`SnapshotCell`]: the published snapshot behind one
//!   `RwLock<Arc<Snapshot>>`; a reader clones the `Arc` under a read
//!   guard, the writer holds the write guard for one pointer swap.
//! * [`server`] — [`Server`]: the acceptor, the thread-per-core reader
//!   pool with per-connection reusable buffers (the steady-state
//!   query path allocates nothing), and the single-writer loop that
//!   drains the edit queue, coalesces a batch per tick, re-solves
//!   incrementally, and publishes.
//! * [`proto`] — the line-based wire protocol: `Q`/`COUNT`/`OBJECTS`/
//!   `TIMELINE` with subject/predicate/object/time clauses, parsed into
//!   a borrowed [`QuerySpec`] and compiled straight onto the costed
//!   [`TemporalQuery`] planner; `INSERT`/`REMOVE`/`FLUSH` for edits;
//!   `EPOCH`/`STATS`/`PING`/`QUIT`; and, on a streaming server,
//!   `FEED`/`SUB`/`UNSUB`.
//!
//! ```no_run
//! use std::io::{BufRead, BufReader, Write};
//! use std::net::TcpStream;
//!
//! use tecore_core::Engine;
//! use tecore_kg::UtkGraph;
//! use tecore_logic::LogicProgram;
//! use tecore_server::{Server, ServerConfig};
//!
//! let engine = Engine::new(UtkGraph::new(), LogicProgram::new());
//! let server = Server::start(engine, ServerConfig::default())?;
//!
//! let mut conn = TcpStream::connect(server.local_addr())?;
//! conn.write_all(b"INSERT CR coach Chelsea [2000,2004] 0.9\n")?;
//! conn.write_all(b"COUNT p=coach at=2003\n")?;
//! let mut reply = String::new();
//! BufReader::new(conn).read_line(&mut reply)?;
//!
//! server.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! [`TemporalQuery`]: tecore_core::query::TemporalQuery
//! [`Snapshot`]: tecore_core::snapshot::Snapshot
//! [`QuerySpec`]: tecore_stream::QuerySpec

#![forbid(unsafe_code)]

pub mod cell;
pub mod proto;
pub mod server;

pub use cell::SnapshotCell;
pub use proto::{ProtoError, QueryKind, Request};
pub use server::{Server, ServerConfig, ServerStats, StreamServing};
