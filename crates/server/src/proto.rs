//! The line-based wire protocol.
//!
//! One request per line, one response per request. Responses to query
//! commands are framed by a header line carrying the snapshot epoch
//! and the number of result lines that follow, so a client always
//! knows how much to read and which publication answered it:
//!
//! ```text
//! request  = ping | epoch | stats | quit | flush | query | insert | remove
//!          | feed | sub | unsub
//! ping     = "PING"                         ; → "PONG"
//! epoch    = "EPOCH"                        ; → "OK epoch=E n=0"
//! stats    = "STATS"                        ; → header + one "S ..." line
//! quit     = "QUIT"                         ; → "BYE", connection closes
//! flush    = "FLUSH"                        ; → "OK epoch=E n=0 durable=D"
//! query    = ("Q" | "COUNT" | "OBJECTS" | "TIMELINE") *clause
//! clause   = "s=" term | "p=" term | "o=" term
//!          | "at=" int | "over=" int ".." int
//!          | "allen=" relation ":" int ".." int
//!          | "minconf=" float | "limit=" int
//! term     = bare-term | DQUOTE any-but-dquote DQUOTE
//! insert   = "INSERT" term term term "[" int "," int "]" float
//! remove   = "REMOVE" fact-id               ; engine id, see "Fact ids"
//! feed     = "FEED" int term term term "[" int "," int "]" float
//! sub      = "SUB" *clause                  ; → "OK epoch=E n=0 sub=I"
//! unsub    = "UNSUB" int                    ; → "OK epoch=E n=0"
//! ```
//!
//! `FEED`/`SUB`/`UNSUB` are the streaming verbs, valid only on a server
//! started with a window configuration (`ERR not a streaming server`
//! otherwise). `FEED t s p o [a,b] conf` offers a timestamped event
//! (`t` is *event time*, in the window's units) and answers `ACK` once
//! the writer has accepted it — late and duplicate events are counted
//! and dropped, still `ACK`ed (the stream contract: offering is not a
//! promise of admission). `SUB` registers the connection for continuous
//! query answers: after every fired window the server pushes an
//! unsolicited frame
//!
//! ```text
//! W sub=I window=a..b epoch=E total=T n=K
//! F id subject predicate object [a,b] conf     ; × K
//! ```
//!
//! where `a..b` is the window's half-open event-time range, `T` the
//! full match count and `K` the rendered lines (capped by `limit=`).
//! Clients must therefore be prepared to interleave `W` frames with
//! their own responses on a subscribed connection.
//!
//! Query responses: `OK epoch=E n=K` then `K` result lines — `F id
//! subject predicate object [a,b] conf` for `Q`, `O term` for
//! `OBJECTS`, `T subject predicate object {intervals}` for `TIMELINE`.
//! `COUNT` carries its answer in the header (`OK epoch=E n=0 count=K`).
//! Edits are queued, not applied inline: `INSERT`/`REMOVE` answer
//! `ACK` once enqueued and take effect at the writer loop's next tick.
//! On a durable server the edit is additionally journaled to the
//! write-ahead log *before* the `ACK` is sent, and `FLUSH` blocks until
//! every journaled edit is fsynced, reporting the covering durable
//! epoch (`durable=0` on an in-memory server).
//! Malformed requests answer `ERR reason` without closing the
//! connection.
//!
//! # Fact ids
//!
//! The id in an `F` line and the id `REMOVE` takes are **different id
//! spaces**. `F` ids number the answering snapshot's resolved view,
//! renumbered whenever a repair drops a fact; `REMOVE` addresses the
//! engine's input graph (arena ids in insertion order: loaded facts,
//! then one per applied `INSERT`; never reused). They coincide only
//! while nothing has been repaired away: with Napoli (0), Chelsea (1),
//! Leicester (2) loaded and Napoli removed by a disjointness
//! constraint, a query reports `F 1 … Leicester` and `REMOVE 1` removes
//! Chelsea. An editing client tracks the arena ids of its own inserts.
//!
//! Parsing borrows every term straight from the request line (the
//! clauses of `Q`/`COUNT`/`OBJECTS`/`TIMELINE`/`SUB` fill a
//! [`QuerySpec<&str>`](QuerySpec)) and response rendering writes into a
//! caller-provided buffer, so the steady-state request→response path
//! allocates nothing.

use std::fmt::{self, Write};

use tecore_core::snapshot::Snapshot;
use tecore_kg::writer::write_fact;
use tecore_kg::FactId;
use tecore_stream::QuerySpec;
use tecore_temporal::{AllenRelation, Interval};

/// Which executor a query command runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// `Q` — matching facts, one `F` line each.
    Facts,
    /// `COUNT` — match count in the header only.
    Count,
    /// `OBJECTS` — distinct objects, one `O` line each.
    Objects,
    /// `TIMELINE` — coalesced per-statement timelines, one `T` line each.
    Timeline,
}

/// One parsed request; terms borrow from the input line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Request<'a> {
    /// Liveness probe.
    Ping,
    /// Current snapshot epoch.
    Epoch,
    /// Server counters.
    Stats,
    /// Close the connection.
    Quit,
    /// Force journaled edits to durable storage.
    Flush,
    /// A read-only query against the current snapshot.
    Query(QueryKind, QuerySpec<&'a str>),
    /// Queue a fact insertion.
    Insert {
        /// Subject term.
        subject: &'a str,
        /// Predicate term.
        predicate: &'a str,
        /// Object term.
        object: &'a str,
        /// Valid-time interval.
        interval: Interval,
        /// Confidence in `(0, 1]`.
        confidence: f64,
    },
    /// Queue a fact removal by its id in the engine's input graph —
    /// not the id `F` lines report (see the module docs, "Fact ids").
    Remove(FactId),
    /// Offer a timestamped stream event (streaming servers only).
    Feed {
        /// Event time, in the stream window's time units.
        time: i64,
        /// Subject term.
        subject: &'a str,
        /// Predicate term.
        predicate: &'a str,
        /// Object term.
        object: &'a str,
        /// Valid-time interval of the asserted fact.
        interval: Interval,
        /// Confidence in `(0, 1]`.
        confidence: f64,
    },
    /// Register a continuous query on this connection (streaming
    /// servers only).
    Sub(QuerySpec<&'a str>),
    /// Drop a continuous query by the id `SUB` returned.
    Unsub(u64),
}

/// A parse failure. Every variant renders to a static message (see the
/// [`fmt::Display`] impl), so erroring allocates nothing and the wire
/// `ERR reason` lines are stable strings clients can match on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoError {
    /// The request line was blank.
    EmptyRequest,
    /// The first token is not a known command verb.
    UnknownVerb,
    /// A query clause used a key outside the grammar.
    UnknownClauseKey,
    /// A query clause was not of the `key=value` shape.
    ClauseWantsKeyValue,
    /// An integer field failed to parse.
    MalformedInt,
    /// A float field failed to parse.
    MalformedFloat,
    /// The `limit=` value failed to parse as an unsigned integer.
    MalformedLimit,
    /// The `REMOVE` argument failed to parse as a fact id.
    MalformedFactId,
    /// A range field was missing its `..` separator.
    RangeWantsDots,
    /// An interval had its bounds reversed (`a > b`).
    EmptyInterval,
    /// An `allen=` clause was missing its `rel:a..b` shape.
    AllenWantsRelRange,
    /// The Allen relation name is not one of the thirteen.
    UnknownAllenRelation,
    /// An `INSERT` interval was not `[a,b]`-bracketed.
    IntervalWantsBrackets,
    /// `INSERT` had too few arguments.
    InsertArity,
    /// `INSERT` had extra tokens after the confidence.
    TrailingTokens,
    /// `FEED` was missing its leading event time.
    FeedWantsTime,
    /// The `UNSUB` argument failed to parse as a subscription id.
    MalformedSubId,
}

impl ProtoError {
    /// The static wire message rendered after `ERR `.
    pub fn message(self) -> &'static str {
        match self {
            ProtoError::EmptyRequest => "empty request",
            ProtoError::UnknownVerb => "unknown verb",
            ProtoError::UnknownClauseKey => "unknown clause key",
            ProtoError::ClauseWantsKeyValue => "clause wants key=value",
            ProtoError::MalformedInt => "malformed integer",
            ProtoError::MalformedFloat => "malformed float",
            ProtoError::MalformedLimit => "malformed limit",
            ProtoError::MalformedFactId => "malformed fact id",
            ProtoError::RangeWantsDots => "range wants a..b",
            ProtoError::EmptyInterval => "empty interval (a > b)",
            ProtoError::AllenWantsRelRange => "allen wants rel:a..b",
            ProtoError::UnknownAllenRelation => "unknown Allen relation",
            ProtoError::IntervalWantsBrackets => "interval wants [a,b]",
            ProtoError::InsertArity => "INSERT wants s p o [a,b] conf",
            ProtoError::TrailingTokens => "trailing tokens after INSERT",
            ProtoError::FeedWantsTime => "FEED wants t s p o [a,b] conf",
            ProtoError::MalformedSubId => "malformed subscription id",
        }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.message())
    }
}

impl std::error::Error for ProtoError {}

/// Splits a request line into whitespace-separated tokens, keeping
/// double-quoted spans (which may contain spaces) intact.
struct Tokens<'a> {
    rest: &'a str,
}

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.rest = self.rest.trim_start();
        if self.rest.is_empty() {
            return None;
        }
        let bytes = self.rest.as_bytes();
        let mut in_quotes = false;
        let mut end = bytes.len();
        for (i, &b) in bytes.iter().enumerate() {
            match b {
                b'"' => in_quotes = !in_quotes,
                b' ' | b'\t' if !in_quotes => {
                    end = i;
                    break;
                }
                _ => {}
            }
        }
        let (token, rest) = self.rest.split_at(end);
        self.rest = rest;
        Some(token)
    }
}

fn tokens(line: &str) -> Tokens<'_> {
    Tokens { rest: line }
}

/// Strips one level of surrounding double quotes, if present.
fn unquote(term: &str) -> &str {
    term.strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .unwrap_or(term)
}

fn parse_int(s: &str) -> Result<i64, ProtoError> {
    s.parse().map_err(|_| ProtoError::MalformedInt)
}

fn parse_float(s: &str) -> Result<f64, ProtoError> {
    s.parse().map_err(|_| ProtoError::MalformedFloat)
}

fn parse_range(s: &str) -> Result<Interval, ProtoError> {
    let (a, b) = s.split_once("..").ok_or(ProtoError::RangeWantsDots)?;
    Interval::new(parse_int(a)?, parse_int(b)?).map_err(|_| ProtoError::EmptyInterval)
}

fn parse_clauses(line: &str) -> Result<QuerySpec<&str>, ProtoError> {
    let mut spec = QuerySpec::default();
    for token in tokens(line) {
        let (key, value) = token
            .split_once('=')
            .ok_or(ProtoError::ClauseWantsKeyValue)?;
        spec = match key {
            "s" => spec.subject(unquote(value)),
            "p" => spec.predicate(unquote(value)),
            "o" => spec.object(unquote(value)),
            "at" => spec.at(parse_int(value)?),
            "over" => spec.overlapping(parse_range(value)?),
            "allen" => {
                let (rel, range) = value
                    .split_once(':')
                    .ok_or(ProtoError::AllenWantsRelRange)?;
                let rel = AllenRelation::parse(rel).ok_or(ProtoError::UnknownAllenRelation)?;
                spec.allen(rel, parse_range(range)?)
            }
            "minconf" => spec.min_confidence(parse_float(value)?),
            "limit" => spec.limit(value.parse().map_err(|_| ProtoError::MalformedLimit)?),
            _ => return Err(ProtoError::UnknownClauseKey),
        };
    }
    Ok(spec)
}

/// The fact fields `INSERT` and `FEED` share: `s p o [a,b] conf`.
type FactFields<'a> = (&'a str, &'a str, &'a str, Interval, f64);

fn parse_fact(line: &str) -> Result<FactFields<'_>, ProtoError> {
    let mut parts = tokens(line);
    let subject = unquote(parts.next().ok_or(ProtoError::InsertArity)?);
    let predicate = unquote(parts.next().ok_or(ProtoError::InsertArity)?);
    let object = unquote(parts.next().ok_or(ProtoError::InsertArity)?);
    let span = parts.next().ok_or(ProtoError::InsertArity)?;
    let conf = parts.next().ok_or(ProtoError::InsertArity)?;
    if parts.next().is_some() {
        return Err(ProtoError::TrailingTokens);
    }
    let span = span
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or(ProtoError::IntervalWantsBrackets)?;
    let (a, b) = span
        .split_once(',')
        .ok_or(ProtoError::IntervalWantsBrackets)?;
    let interval =
        Interval::new(parse_int(a)?, parse_int(b)?).map_err(|_| ProtoError::EmptyInterval)?;
    let confidence = parse_float(conf)?;
    Ok((subject, predicate, object, interval, confidence))
}

fn parse_insert(line: &str) -> Result<Request<'_>, ProtoError> {
    let (subject, predicate, object, interval, confidence) = parse_fact(line)?;
    Ok(Request::Insert {
        subject,
        predicate,
        object,
        interval,
        confidence,
    })
}

/// `FEED <t> <fact>`: the leading event time, then the fields `INSERT`
/// takes.
fn parse_feed(line: &str) -> Result<Request<'_>, ProtoError> {
    let (time, rest) = line
        .trim_start()
        .split_once([' ', '\t'])
        .ok_or(ProtoError::FeedWantsTime)?;
    let time = parse_int(time)?;
    let (subject, predicate, object, interval, confidence) = parse_fact(rest)?;
    Ok(Request::Feed {
        time,
        subject,
        predicate,
        object,
        interval,
        confidence,
    })
}

/// Parses one request line (without its trailing newline).
pub fn parse(line: &str) -> Result<Request<'_>, ProtoError> {
    let line = line.trim();
    let (verb, rest) = match line.split_once([' ', '\t']) {
        Some((v, r)) => (v, r),
        None => (line, ""),
    };
    match verb {
        "PING" => Ok(Request::Ping),
        "EPOCH" => Ok(Request::Epoch),
        "STATS" => Ok(Request::Stats),
        "QUIT" => Ok(Request::Quit),
        "FLUSH" => Ok(Request::Flush),
        "Q" => Ok(Request::Query(QueryKind::Facts, parse_clauses(rest)?)),
        "COUNT" => Ok(Request::Query(QueryKind::Count, parse_clauses(rest)?)),
        "OBJECTS" => Ok(Request::Query(QueryKind::Objects, parse_clauses(rest)?)),
        "TIMELINE" => Ok(Request::Query(QueryKind::Timeline, parse_clauses(rest)?)),
        "INSERT" => parse_insert(rest),
        "FEED" => parse_feed(rest),
        "SUB" => Ok(Request::Sub(parse_clauses(rest)?)),
        "UNSUB" => {
            let id: u64 = rest
                .trim()
                .parse()
                .map_err(|_| ProtoError::MalformedSubId)?;
            Ok(Request::Unsub(id))
        }
        "REMOVE" => {
            let id: u32 = rest
                .trim()
                .parse()
                .map_err(|_| ProtoError::MalformedFactId)?;
            Ok(Request::Remove(FactId(id)))
        }
        "" => Err(ProtoError::EmptyRequest),
        _ => Err(ProtoError::UnknownVerb),
    }
}

/// Copies a spec borrowed from a request line into the owned spec a
/// subscription keeps (the `SUB` registration path: the spec outlives
/// the line and is re-compiled against every fired window's snapshot).
pub fn clauses_to_spec(spec: &QuerySpec<&str>) -> QuerySpec {
    QuerySpec {
        subject: spec.subject.map(str::to_owned),
        predicate: spec.predicate.map(str::to_owned),
        object: spec.object.map(str::to_owned),
        time: spec.time,
        min_confidence: spec.min_confidence,
        limit: spec.limit,
    }
}

/// Executes a query command against `snapshot` and renders the full
/// response (header + result lines, `\n`-terminated) into `out`.
///
/// The `Q`/`COUNT` paths allocate nothing once `out` has grown to its
/// working size: the plan-and-scan is
/// [`TemporalQuery::iter`](tecore_core::TemporalQuery::iter) (lazy,
/// allocation-free) and every fact renders through [`write_fact`] into
/// the reused buffer. `OBJECTS`/`TIMELINE` materialise their
/// (sorted/coalesced) result sets and are excluded from the
/// zero-allocation guarantee.
pub fn answer_query(
    snapshot: &Snapshot,
    kind: QueryKind,
    spec: &QuerySpec<&str>,
    out: &mut String,
) -> fmt::Result {
    let epoch = snapshot.epoch();
    let dict = snapshot.expanded().dict();
    let query = spec.compile(snapshot);
    let limit = spec.limit.unwrap_or(usize::MAX);
    match kind {
        QueryKind::Count => {
            writeln!(out, "OK epoch={epoch} n=0 count={}", query.count())?;
        }
        QueryKind::Facts => {
            // Two lazy passes: one to size the frame, one to render.
            // Still allocation-free, and the snapshot is immutable so
            // both passes see identical matches.
            let n = query.iter().count().min(limit);
            writeln!(out, "OK epoch={epoch} n={n}")?;
            for (id, fact) in query.iter().take(limit) {
                write!(out, "F {} ", id.0)?;
                write_fact(out, dict, fact)?;
                out.write_char('\n')?;
            }
        }
        QueryKind::Objects => {
            let objects = query.objects();
            let n = objects.len().min(limit);
            writeln!(out, "OK epoch={epoch} n={n}")?;
            for sym in objects.into_iter().take(limit) {
                writeln!(out, "O {}", dict.resolve(sym))?;
            }
        }
        QueryKind::Timeline => {
            let entries = query.timeline();
            let n = entries.len().min(limit);
            writeln!(out, "OK epoch={epoch} n={n}")?;
            for entry in entries.iter().take(limit) {
                out.write_str("T ")?;
                entry.write_describe(dict, out)?;
                out.write_char('\n')?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use tecore_stream::TimeSpec;

    use super::*;

    #[test]
    fn parses_bare_commands() {
        assert_eq!(parse("PING"), Ok(Request::Ping));
        assert_eq!(parse("  EPOCH  "), Ok(Request::Epoch));
        assert_eq!(parse("QUIT"), Ok(Request::Quit));
        assert_eq!(parse("FLUSH"), Ok(Request::Flush));
        assert!(parse("").is_err());
        assert!(parse("NOPE").is_err());
    }

    #[test]
    fn parses_query_clauses() {
        let req = parse("Q s=CR p=coach at=2003 minconf=0.5 limit=10").unwrap();
        let Request::Query(QueryKind::Facts, c) = req else {
            panic!("wrong request: {req:?}");
        };
        let spec = QuerySpec::default().subject("CR").predicate("coach");
        assert_eq!(c, spec.at(2003).min_confidence(0.5).limit(10));
    }

    #[test]
    fn parses_quoted_terms_with_spaces() {
        let req = parse("COUNT s=\"Claudio Ranieri\" o=\"Leicester City\"").unwrap();
        let Request::Query(QueryKind::Count, c) = req else {
            panic!("wrong request: {req:?}");
        };
        assert_eq!(c.subject, Some("Claudio Ranieri"));
        assert_eq!(c.object, Some("Leicester City"));
    }

    #[test]
    fn parses_time_windows_and_allen() {
        let Request::Query(_, c) = parse("OBJECTS over=1990..2000").unwrap() else {
            panic!()
        };
        assert_eq!(c.time, TimeSpec::Over(Interval::new(1990, 2000).unwrap()));
        let Request::Query(_, c) = parse("TIMELINE allen=before:2010..2015").unwrap() else {
            panic!()
        };
        assert_eq!(
            c.time,
            TimeSpec::Allen(AllenRelation::Before, Interval::new(2010, 2015).unwrap())
        );
        assert!(parse("Q over=2000").is_err());
        assert!(parse("Q allen=sideways:1..2").is_err());
        assert!(parse("Q over=9..3").is_err());
    }

    #[test]
    fn parses_edits() {
        let req = parse("INSERT CR coach \"Leicester City\" [2015,2017] 0.7").unwrap();
        assert_eq!(
            req,
            Request::Insert {
                subject: "CR",
                predicate: "coach",
                object: "Leicester City",
                interval: Interval::new(2015, 2017).unwrap(),
                confidence: 0.7,
            }
        );
        assert_eq!(parse("REMOVE 42"), Ok(Request::Remove(FactId(42))));
        assert!(parse("INSERT a b c").is_err());
        assert!(parse("INSERT a b c 2015,2017 0.7").is_err());
        assert!(parse("REMOVE many").is_err());
    }

    #[test]
    fn unknown_clause_key_is_rejected() {
        assert!(parse("Q subject=CR").is_err());
        assert!(parse("Q s").is_err());
    }

    #[test]
    fn parses_streaming_verbs() {
        let req = parse("FEED 17 CR coach \"Leicester City\" [2015,2017] 0.7").unwrap();
        assert_eq!(
            req,
            Request::Feed {
                time: 17,
                subject: "CR",
                predicate: "coach",
                object: "Leicester City",
                interval: Interval::new(2015, 2017).unwrap(),
                confidence: 0.7,
            }
        );
        let Request::Sub(c) = parse("SUB p=coach minconf=0.5 limit=3").unwrap() else {
            panic!("wrong request");
        };
        assert_eq!(c.predicate, Some("coach"));
        assert_eq!(c.limit, Some(3));
        assert_eq!(parse("UNSUB 4"), Ok(Request::Unsub(4)));
        assert!(parse("FEED CR coach X [1,2] 0.5").is_err());
        assert!(parse("FEED 17 CR coach").is_err());
        assert!(parse("UNSUB many").is_err());
    }
}
