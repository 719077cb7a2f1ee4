//! Correctness oracles behind `ok_share`. Each is an independent,
//! deliberately naive reference: a brute-force scan of the expanded
//! graph for reads, a sorted-array window model for the stream. A
//! failed check is counted and printed, never aborts the run.

use std::collections::BTreeSet;

use tecore_core::Snapshot;
use tecore_kg::{StreamEvent, Symbol, TemporalFact};
use tecore_temporal::Interval;

use crate::inputs::{Fnv, ReadKind, ReadReq, ReadTime};

/// What a read request must answer, by full scan of
/// [`Snapshot::expanded`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Number of matching facts.
    pub count: usize,
    /// Ids of every matching fact (`Q` requests only).
    pub ids: BTreeSet<u32>,
    /// Distinct object terms among the matches (`OBJECTS` only).
    pub objects: BTreeSet<String>,
    /// Distinct `(subject, predicate, object)` statements among the
    /// matches (`TIMELINE` only).
    pub statements: usize,
}

/// Scans every fact of the expanded graph against `req`.
pub fn brute_force(snapshot: &Snapshot, req: &ReadReq) -> Expected {
    let graph = snapshot.expanded();
    let dict = graph.dict();
    // An unknown term matches nothing (but stays a valid query).
    let term = |t: Option<&str>| -> Option<Option<Symbol>> { t.map(|t| dict.lookup(t)) };
    let subject = term(req.subject.as_deref());
    let predicate = term(req.predicate);
    let admits = |filter: Option<Option<Symbol>>, sym: Symbol| match filter {
        None => true,
        Some(want) => want == Some(sym),
    };
    let in_time = |f: &TemporalFact| match req.time {
        ReadTime::Any => true,
        ReadTime::At(t) => f.interval.contains_point(t),
        ReadTime::Over(a, b) => Interval::new(a, b).is_ok_and(|w| f.interval.intersects(w)),
    };
    let mut expected = Expected {
        count: 0,
        ids: BTreeSet::new(),
        objects: BTreeSet::new(),
        statements: 0,
    };
    let mut statements = BTreeSet::new();
    for (id, fact) in graph.iter() {
        if admits(subject, fact.subject) && admits(predicate, fact.predicate) && in_time(fact) {
            expected.count += 1;
            match req.kind {
                ReadKind::Count => {}
                ReadKind::Facts => {
                    expected.ids.insert(id.0);
                }
                ReadKind::Objects => {
                    expected
                        .objects
                        .insert(dict.resolve(fact.object).to_string());
                }
                ReadKind::Timeline => {
                    statements.insert(fact.triple());
                }
            }
        }
    }
    expected.statements = statements.len();
    expected
}

/// Checks a full wire response (`header` plus `body` lines) against the
/// brute-force expectation. `Err` names what disagreed.
pub fn check_response(
    req: &ReadReq,
    expected: &Expected,
    header: &str,
    body: &[String],
) -> Result<(), String> {
    if !header.starts_with("OK ") {
        return Err(format!("header {header:?}"));
    }
    let field = |key: &str| -> Option<usize> {
        header
            .split_whitespace()
            .find_map(|t| t.strip_prefix(key))
            .and_then(|v| v.parse().ok())
    };
    let cap = req.limit.unwrap_or(usize::MAX);
    match req.kind {
        ReadKind::Count => {
            let got = field("count=").ok_or("no count= in header")?;
            if got != expected.count {
                return Err(format!("count {got}, scan says {}", expected.count));
            }
        }
        ReadKind::Facts => {
            let want = expected.count.min(cap);
            if body.len() != want {
                return Err(format!("{} fact lines, scan says {want}", body.len()));
            }
            let mut seen = BTreeSet::new();
            for line in body {
                let id: u32 = line
                    .strip_prefix("F ")
                    .and_then(|l| l.split_whitespace().next())
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("malformed fact line {line:?}"))?;
                if !expected.ids.contains(&id) || !seen.insert(id) {
                    return Err(format!("fact {id} is not a (distinct) match"));
                }
            }
        }
        ReadKind::Objects => {
            let got: BTreeSet<String> = body
                .iter()
                .filter_map(|l| l.strip_prefix("O "))
                .map(|o| o.trim_end().to_string())
                .collect();
            if got.len() != body.len() || got != expected.objects {
                return Err(format!("objects {got:?}, scan says {:?}", expected.objects));
            }
        }
        ReadKind::Timeline => {
            if body.len() != expected.statements.min(cap)
                || !body.iter().all(|l| l.starts_with("T "))
            {
                return Err(format!(
                    "{} timeline lines, scan says {}",
                    body.len(),
                    expected.statements
                ));
            }
        }
    }
    Ok(())
}

/// What the benchmark keeps of one stream event once the event itself
/// has been handed to the session: enough for the window model and the
/// noise labels, 32 bytes instead of three heap strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventMeta {
    /// Event time.
    pub time: i64,
    /// Fingerprint of the full event identity (what dedup compares).
    pub ident: u64,
    /// Fingerprint of the asserted statement `(s, o, [a,b])`.
    pub statement: u64,
    /// Was the event crafted to contradict the subject's latest spell?
    pub noise: bool,
}

/// Fingerprint of a statement `(subject, object, interval)`.
pub fn statement_hash(subject: &str, object: &str, interval: Interval) -> u64 {
    let mut h = Fnv::default();
    h.feed(subject.as_bytes());
    h.feed(object.as_bytes());
    h.feed(&interval.start().value().to_le_bytes());
    h.feed(&interval.end().value().to_le_bytes());
    h.finish()
}

/// Derives [`EventMeta`] for a generated stream, in arrival order. An
/// event is labelled noise when it re-asserts the interval of its
/// subject's latest clean spell with a different club — exactly how
/// `tecore_datagen::generate_stream` crafts its conflicts.
pub fn event_meta(events: &[StreamEvent]) -> Vec<EventMeta> {
    let mut latest: std::collections::HashMap<&str, (Interval, &str)> =
        std::collections::HashMap::new();
    events
        .iter()
        .map(|e| {
            let mut ident = Fnv::default();
            ident.feed(&e.time.to_le_bytes());
            ident.feed(e.subject.as_bytes());
            ident.feed(e.predicate.as_bytes());
            ident.feed(e.object.as_bytes());
            ident.feed(&e.interval.start().value().to_le_bytes());
            ident.feed(&e.interval.end().value().to_le_bytes());
            ident.feed(&e.confidence.to_bits().to_le_bytes());
            let noise = match latest.get(e.subject.as_str()) {
                Some(&(spell, club)) if spell == e.interval => club != e.object,
                _ => {
                    latest.insert(&e.subject, (e.interval, &e.object));
                    false
                }
            };
            EventMeta {
                time: e.time,
                ident: ident.finish(),
                statement: statement_hash(&e.subject, &e.object, e.interval),
                noise,
            }
        })
        .collect()
}

/// The independent in-window model: the sorted event times of every
/// *distinct* event, so the live-fact count of a window is two binary
/// searches. The stream is generated a chunk at a time, so the model
/// grows by [`WindowModel::extend`] and forgets what no window can reach
/// any more. Valid while no event is late, which the workload's
/// lateness (greater than the generator's jitter) guarantees.
#[derive(Debug, Clone, Default)]
pub struct WindowModel {
    times: Vec<i64>,
}

impl WindowModel {
    /// Adds one chunk of the stream. Duplicates re-emit an event of
    /// their own chunk, and a chunk starts after every earlier event's
    /// time, so both the dedup and the sort stay local to the chunk.
    pub fn extend(&mut self, chunk: &[EventMeta]) {
        let mut seen = std::collections::HashSet::with_capacity(chunk.len());
        let old = self.times.len();
        self.times.extend(
            chunk
                .iter()
                .filter(|m| seen.insert(m.ident))
                .map(|m| m.time),
        );
        self.times[old..].sort_unstable();
        assert!(
            old == 0 || old == self.times.len() || self.times[old - 1] <= self.times[old],
            "a chunk starts after the one before it"
        );
    }

    /// Drops the events before `time`.
    pub fn forget_before(&mut self, time: i64) {
        let gone = self.times.partition_point(|&t| t < time);
        self.times.drain(..gone);
    }

    /// Distinct events with time in `[start, end)`.
    pub fn live(&self, start: i64, end: i64) -> usize {
        self.times.partition_point(|&t| t < end) - self.times.partition_point(|&t| t < start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tecore_core::Engine;
    use tecore_datagen::{generate_stream, StreamConfig};
    use tecore_kg::parser::parse_graph;
    use tecore_logic::LogicProgram;

    fn snapshot() -> std::sync::Arc<Snapshot> {
        let graph = parse_graph(
            "(Q1, playsFor, TeamA, [2000,2004]) 0.9\n\
             (Q1, playsFor, TeamB, [2006,2008]) 0.8\n\
             (Q1, birthDate, 1980, [1980,2017]) 0.9\n\
             (Q2, playsFor, TeamA, [2003,2005]) 0.7\n",
        )
        .unwrap();
        Engine::new(graph, LogicProgram::new()).resolve().unwrap()
    }

    fn req(kind: ReadKind, s: Option<&str>, p: Option<&'static str>, time: ReadTime) -> ReadReq {
        ReadReq {
            kind,
            subject: s.map(str::to_string),
            predicate: p,
            time,
            limit: None,
        }
    }

    #[test]
    fn brute_force_filters_terms_and_time() {
        let snap = snapshot();
        let all_q1 = brute_force(
            &snap,
            &req(ReadKind::Facts, Some("Q1"), None, ReadTime::Any),
        );
        assert_eq!(all_q1.ids.len(), 3);
        let timeline = brute_force(
            &snap,
            &req(ReadKind::Timeline, Some("Q1"), None, ReadTime::Any),
        );
        assert_eq!((timeline.count, timeline.statements), (3, 3));
        let at = brute_force(
            &snap,
            &req(ReadKind::Count, None, Some("playsFor"), ReadTime::At(2004)),
        );
        assert_eq!(at.count, 2);
        let over = brute_force(
            &snap,
            &req(
                ReadKind::Count,
                Some("Q1"),
                None,
                ReadTime::Over(2005, 2006),
            ),
        );
        assert_eq!(over.count, 2, "TeamB spell and the birthDate span");
        let unknown = brute_force(
            &snap,
            &req(ReadKind::Facts, Some("Q9"), None, ReadTime::Any),
        );
        assert_eq!(unknown.count, 0);
    }

    #[test]
    fn responses_are_checked_against_the_scan() {
        let snap = snapshot();
        let count = req(ReadKind::Count, None, Some("playsFor"), ReadTime::At(2004));
        let expected = brute_force(&snap, &count);
        assert!(check_response(&count, &expected, "OK epoch=4 n=0 count=2", &[]).is_ok());
        assert!(check_response(&count, &expected, "OK epoch=4 n=0 count=3", &[]).is_err());
        assert!(check_response(&count, &expected, "ERR nope", &[]).is_err());

        let objects = req(
            ReadKind::Objects,
            Some("Q1"),
            Some("playsFor"),
            ReadTime::Any,
        );
        let expected = brute_force(&snap, &objects);
        let body = vec!["O TeamA\n".to_string(), "O TeamB\n".to_string()];
        assert!(check_response(&objects, &expected, "OK epoch=4 n=2", &body).is_ok());
        assert!(check_response(&objects, &expected, "OK epoch=4 n=1", &body[..1]).is_err());

        let mut facts = req(ReadKind::Facts, Some("Q1"), None, ReadTime::Any);
        facts.limit = Some(2);
        let expected = brute_force(&snap, &facts);
        let line = |id: u32| format!("F {id} Q1 x y [1,2] 0.9\n");
        assert!(check_response(&facts, &expected, "OK epoch=4 n=2", &[line(0), line(2)]).is_ok());
        assert!(check_response(&facts, &expected, "OK epoch=4 n=2", &[line(0), line(0)]).is_err());
        assert!(check_response(&facts, &expected, "OK epoch=4 n=2", &[line(0), line(3)]).is_err());
    }

    #[test]
    fn window_model_counts_distinct_events_and_labels_conflicts() {
        let events = generate_stream(&StreamConfig {
            events: 4_000,
            people: 60,
            clubs: 10,
            rate: 10.0,
            jitter: 3,
            duplicate_ratio: 0.05,
            conflict_ratio: 0.15,
            start_time: 0,
            seed: 9,
        });
        let meta = event_meta(&events);
        let mut model = WindowModel::default();
        model.extend(&meta);
        let distinct: std::collections::HashSet<u64> = meta.iter().map(|m| m.ident).collect();
        assert!(
            distinct.len() < events.len(),
            "the stream carries duplicates"
        );
        assert_eq!(model.live(i64::MIN, i64::MAX), distinct.len());
        let naive = {
            let mut seen = std::collections::HashSet::new();
            meta.iter()
                .filter(|m| (100..200).contains(&m.time) && seen.insert(m.ident))
                .count()
        };
        assert_eq!(model.live(100, 200), naive);
        model.forget_before(150);
        assert_eq!(model.live(0, 150), 0);
        assert!(model.live(150, 200) > 0 && model.live(150, 200) < naive);
        let noisy = meta.iter().filter(|m| m.noise).count();
        assert!(
            (300..900).contains(&noisy),
            "≈15 % of 4000 events are crafted conflicts, got {noisy}"
        );
    }
}
