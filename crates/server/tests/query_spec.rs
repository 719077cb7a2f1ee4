//! `Q` and `SUB` read one query description the same way.
//!
//! For every combination of `s= p= o= at=/over=/allen= minconf= limit=`
//! around a few anchor facts of two resolved snapshots (the running
//! example and a 2k-fact Wikidata slice), the owned spec `SUB` keeps
//! must equal the one built with the builder verbs, evaluate to the `F`
//! lines `Q` renders, and count what `COUNT` counts. No sockets: both
//! sides are called on the snapshot directly.

use std::sync::Arc;

use tecore_core::{Engine, Snapshot};
use tecore_datagen::config::WikidataConfig;
use tecore_datagen::standard::{paper_program, ranieri_utkg, wikidata_program};
use tecore_datagen::wikidata::generate_wikidata;
use tecore_kg::writer::write_fact;
use tecore_server::proto::{self, Request};
use tecore_server::QueryKind;
use tecore_stream::QuerySpec;
use tecore_temporal::{AllenRelation, Interval};

fn snapshots() -> [Arc<Snapshot>; 2] {
    let wikidata = generate_wikidata(&WikidataConfig {
        total_facts: 2_000,
        noise_ratio: 0.05,
        seed: 0xE6,
    });
    [
        Engine::new(ranieri_utkg(), paper_program()),
        Engine::new(wikidata.graph, wikidata_program()),
    ]
    .map(|mut engine| engine.resolve().expect("resolves"))
}

/// A wire term: quoted when it holds whitespace.
fn wire(term: &str) -> String {
    match term.contains(char::is_whitespace) {
        true => format!("\"{term}\""),
        false => term.to_string(),
    }
}

/// Every clause shape over one anchor fact, as the clause text and the
/// same spec built with the builder verbs: 2 × 2 × 2 (terms) × 4 (time)
/// × 2 (minconf) × 2 (limit). The Allen relation cycles through all 13.
fn shapes(terms: [&str; 3], interval: Interval, confidence: f64) -> Vec<(String, QuerySpec)> {
    let (a, b) = (interval.start().value(), interval.end().value());
    let window = Interval::new(a, b + 2).expect("ordered");
    (0..128usize)
        .map(|mask| {
            let mut clauses = Vec::new();
            let mut spec = QuerySpec::new();
            if mask & 1 != 0 {
                clauses.push(format!("s={}", wire(terms[0])));
                spec = spec.subject(terms[0]);
            }
            if mask & 2 != 0 {
                clauses.push(format!("p={}", wire(terms[1])));
                spec = spec.predicate(terms[1]);
            }
            if mask & 4 != 0 {
                clauses.push(format!("o={}", wire(terms[2])));
                spec = spec.object(terms[2]);
            }
            let rel = AllenRelation::ALL[mask % 13];
            match (mask >> 3) & 3 {
                0 => {}
                1 => {
                    clauses.push(format!("at={a}"));
                    spec = spec.at(a);
                }
                2 => {
                    clauses.push(format!("over={a}..{}", b + 2));
                    spec = spec.overlapping(window);
                }
                _ => {
                    clauses.push(format!("allen={}:{a}..{b}", rel.name()));
                    spec = spec.allen(rel, interval);
                }
            }
            if mask & 32 != 0 {
                clauses.push(format!("minconf={confidence}"));
                spec = spec.min_confidence(confidence);
            }
            if mask & 64 != 0 {
                clauses.push("limit=2".to_string());
                spec = spec.limit(2);
            }
            (clauses.join(" "), spec)
        })
        .collect()
}

/// The executor and spec a query line parses to; a `SUB` line renders
/// `F` lines, as `Q` does.
fn parsed(line: &str) -> (QueryKind, QuerySpec<&str>) {
    match proto::parse(line) {
        Ok(Request::Query(kind, spec)) => (kind, spec),
        Ok(Request::Sub(spec)) => (QueryKind::Facts, spec),
        other => panic!("{line}: {other:?}"),
    }
}

#[test]
fn sub_answers_every_clause_shape_as_q_and_count_do() {
    let (mut cases, mut matched, mut capped) = (0, 0, 0);
    let mut out = String::new();
    for snapshot in snapshots() {
        let (view, epoch) = (snapshot.expanded(), snapshot.epoch());
        let facts: Vec<_> = view.iter().map(|(_, f)| *f).collect();
        assert!(!facts.is_empty());
        for fact in [0, facts.len() / 2, facts.len() - 1].map(|i| facts[i]) {
            let terms = [fact.subject, fact.predicate, fact.object].map(|t| view.dict().resolve(t));
            for (clauses, built) in shapes(terms, fact.interval, fact.confidence.value()) {
                let (q_line, sub_line) = (format!("Q {clauses}"), format!("SUB {clauses}"));
                let (kind, spec) = parsed(&q_line);
                assert_eq!(kind, QueryKind::Facts);
                assert_eq!(parsed(&sub_line).1, spec, "{sub_line}");
                let owned = proto::clauses_to_spec(&spec);
                assert_eq!(owned, built, "{q_line}");

                let result = owned.evaluate(&snapshot, 0, 1);
                let mut pushed = Vec::new();
                for (id, fact) in &result.matches {
                    let mut line = format!("F {} ", id.0);
                    write_fact(&mut line, view.dict(), fact).expect("renders");
                    pushed.push(line);
                }
                out.clear();
                proto::answer_query(&snapshot, kind, &spec, &mut out).expect("renders");
                let mut lines = out.lines();
                let header = format!("OK epoch={epoch} n={}", pushed.len());
                assert_eq!(lines.next(), Some(header.as_str()), "{q_line}");
                assert_eq!(lines.collect::<Vec<_>>(), pushed, "{q_line}");

                let count_line = format!("COUNT {clauses}");
                let (kind, spec) = parsed(&count_line);
                out.clear();
                proto::answer_query(&snapshot, kind, &spec, &mut out).expect("renders");
                let counted = format!("OK epoch={epoch} n=0 count={}\n", result.total);
                assert_eq!(out, counted, "{count_line}");

                cases += 1;
                matched += usize::from(result.total > 0);
                capped += usize::from(result.total > result.matches.len());
            }
        }
    }
    assert_eq!(cases, 2 * 3 * 128);
    // Not vacuous: many shapes match, and some run into their limit.
    assert!(matched > cases / 4, "{matched} of {cases} shapes match");
    assert!(capped > 0, "no shape runs into its limit");
}
