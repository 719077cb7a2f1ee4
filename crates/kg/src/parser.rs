//! Line-oriented text format for uTKGs.
//!
//! One fact per line, in the paper's notation (parentheses and commas
//! optional, so both spellings below parse to the same fact):
//!
//! ```text
//! # Claudio Ranieri's career (Figure 1 of the paper)
//! (CR, coach, Chelsea, [2000,2004]) 0.9
//! CR coach Leicester [2015,2017] 0.7
//! ```
//!
//! * `#` starts a comment (whole line or trailing);
//! * terms are bare tokens or double-quoted strings (quotes allow spaces
//!   and commas inside terms);
//! * the interval is `[start,end]` with integer bounds;
//! * the trailing confidence is optional and defaults to `1.0`.

use tecore_temporal::Interval;

use crate::error::KgError;
use crate::graph::UtkGraph;

/// Parses a whole uTKG document.
pub fn parse_graph(input: &str) -> Result<UtkGraph, KgError> {
    // One line, one fact (comments and blank lines make it a little
    // less): the arena is allocated once instead of grown by doubling.
    let lines = input.bytes().filter(|&b| b == b'\n').count() + 1;
    let mut graph = UtkGraph::with_capacity(lines);
    parse_into(input, &mut graph)?;
    Ok(graph)
}

/// Parses a document into an existing graph (shared dictionary).
pub fn parse_into(input: &str, graph: &mut UtkGraph) -> Result<usize, KgError> {
    let mut added = 0;
    for (lineno, raw) in input.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        // The terms are slices of the line: interning copies the new
        // ones, and nothing else is allocated per fact.
        let (s, p, o, interval, confidence) = parse_line(line, lineno + 1)?;
        graph.insert(s, p, o, interval, confidence)?;
        added += 1;
    }
    Ok(added)
}

/// A parsed fact line before interning:
/// `(subject, predicate, object, interval, confidence)`.
pub type RawFact = (String, String, String, Interval, f64);

/// Parses a checkpoint document written by
/// [`crate::writer::write_checkpoint`]: a
/// `#tecore-checkpoint v1 epoch=<E> arena=<N>` header followed by
/// `<slot> s p o [a,b] conf` lines in ascending slot order. The
/// restored graph reproduces the original's arena layout (missing
/// slots become tombstones), epoch, and therefore its next
/// [`crate::fact::FactId`] assignment.
pub fn parse_checkpoint(input: &str) -> Result<UtkGraph, KgError> {
    let mut lines = input.lines().enumerate();
    let header = loop {
        match lines.next() {
            Some((_, l)) if l.trim().is_empty() => continue,
            Some((_, l)) => break l.trim(),
            None => return Err(KgError::Checkpoint("empty checkpoint document".into())),
        }
    };
    let attrs = header
        .strip_prefix("#tecore-checkpoint v1")
        .ok_or_else(|| KgError::Checkpoint(format!("bad header `{header}`")))?;
    let (mut epoch, mut arena) = (None, None);
    for token in attrs.split_whitespace() {
        if let Some(v) = token.strip_prefix("epoch=") {
            epoch = v.parse::<u64>().ok();
        } else if let Some(v) = token.strip_prefix("arena=") {
            arena = v.parse::<usize>().ok();
        }
    }
    let (Some(epoch), Some(arena)) = (epoch, arena) else {
        return Err(KgError::Checkpoint(format!(
            "header `{header}` needs epoch= and arena="
        )));
    };
    let mut entries = Vec::new();
    for (lineno, raw) in lines {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let err = |message: String| KgError::Parse {
            line: lineno + 1,
            message,
        };
        let (slot, fact) = line
            .split_once(char::is_whitespace)
            .ok_or_else(|| err("expected `<slot> s p o [a,b] conf`".into()))?;
        let slot: u32 = slot
            .parse()
            .map_err(|_| err(format!("invalid arena slot `{slot}`")))?;
        entries.push((slot, parse_fact_line(fact.trim(), lineno + 1)?));
    }
    UtkGraph::restore(arena, epoch, entries)
}

fn strip_comment(line: &str) -> &str {
    // A `#` inside quotes is part of the term. (Both marks are ASCII,
    // so a byte scan cannot mistake part of a longer character.)
    let mut in_quotes = false;
    for (i, b) in line.bytes().enumerate() {
        match b {
            b'"' => in_quotes = !in_quotes,
            b'#' if !in_quotes => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses one fact line (without comments) into its raw components.
pub fn parse_fact_line(line: &str, lineno: usize) -> Result<RawFact, KgError> {
    let (s, p, o, interval, confidence) = parse_line(line, lineno)?;
    Ok((s.into(), p.into(), o.into(), interval, confidence))
}

/// [`parse_fact_line`] with the terms borrowed from the line.
fn parse_line(line: &str, lineno: usize) -> Result<(&str, &str, &str, Interval, f64), KgError> {
    let err = |message: String| KgError::Parse {
        line: lineno,
        message,
    };
    // Expect: term term term interval [confidence]
    let mut tokens = [Token::Term(""); 5];
    let mut found = 0;
    let mut rest = line;
    while let Some(token) = next_token(&mut rest, lineno)? {
        if let Some(slot) = tokens.get_mut(found) {
            *slot = token;
        }
        found += 1;
    }
    if !(4..=5).contains(&found) {
        return Err(err(format!(
            "expected `s p o [start,end] conf?`, found {found} token(s)"
        )));
    }
    let confidence = if found == 5 {
        match tokens[4] {
            Token::Term(c) => c
                .parse::<f64>()
                .map_err(|_| err(format!("invalid confidence `{c}`")))?,
            Token::Interval(_) => return Err(err("confidence must follow the interval".into())),
        }
    } else {
        1.0
    };
    let interval = match tokens[3] {
        Token::Interval(iv) => iv,
        Token::Term(t) => return Err(err(format!("expected interval `[a,b]`, found `{t}`"))),
    };
    let term = |token| match token {
        Token::Term(t) => Ok(t),
        Token::Interval(_) => Err(err("interval must come after s p o".into())),
    };
    Ok((
        term(tokens[0])?,
        term(tokens[1])?,
        term(tokens[2])?,
        interval,
        confidence,
    ))
}

#[derive(Clone, Copy)]
enum Token<'a> {
    /// A bare or quoted term: a slice of the line (the format has no
    /// escapes, so a quoted term is the text between its quotes).
    Term(&'a str),
    Interval(Interval),
}

/// Takes the next token off the front of `rest`; `None` at the end of
/// the line.
fn next_token<'a>(rest: &mut &'a str, lineno: usize) -> Result<Option<Token<'a>>, KgError> {
    let err = |message: String| KgError::Parse {
        line: lineno,
        message,
    };
    let separator = |c: char| c.is_whitespace() || matches!(c, ',' | '(' | ')');
    let line = rest.trim_start_matches(separator);
    let (token, after) = match line.chars().next() {
        None => return Ok(None),
        Some('"') => {
            let (term, after) = line[1..]
                .split_once('"')
                .ok_or_else(|| err("unterminated quoted term".into()))?;
            (Token::Term(term), after)
        }
        Some('[') => {
            let (inner, after) = line[1..]
                .split_once(']')
                .ok_or_else(|| err("unterminated interval".into()))?;
            let (a, b) = inner
                .split_once(',')
                .ok_or_else(|| err(format!("interval `[{inner}]` needs two bounds")))?;
            let bound = |text: &str| {
                text.trim()
                    .parse::<i64>()
                    .map_err(|_| err(format!("invalid interval bound `{text}`")))
            };
            (Token::Interval(Interval::new(bound(a)?, bound(b)?)?), after)
        }
        Some(']') => return Err(err("`]` without an interval to open it".into())),
        Some(_) => {
            let end = line
                .find(|c: char| separator(c) || matches!(c, '[' | ']' | '"'))
                .unwrap_or(line.len());
            (Token::Term(&line[..end]), &line[end..])
        }
    };
    *rest = after;
    Ok(Some(token))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_figure_1() {
        let input = r#"
            # Figure 1: a utkg G about coach Claudio Raineri (CR)
            (CR, coach, Chelsea, [2000,2004]) 0.9
            (CR, coach, Leicester, [2015,2017]) 0.7
            (CR, playsFor, Palermo, [1984,1986]) 0.5
            (CR, birthDate, 1951, [1951,2017]) 1.0
            (CR, coach, Napoli, [2001,2003]) 0.6
        "#;
        let g = parse_graph(input).unwrap();
        assert_eq!(g.len(), 5);
        let coach = g.dict().lookup("coach").unwrap();
        assert_eq!(g.facts_with_predicate(coach).count(), 3);
        let (_, napoli) = g
            .facts_with_predicate(coach)
            .find(|(_, f)| g.dict().resolve(f.object) == "Napoli")
            .unwrap();
        assert_eq!(napoli.interval, Interval::new(2001, 2003).unwrap());
        assert!((napoli.confidence.value() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn bare_and_quoted_tokens() {
        let g =
            parse_graph("\"Claudio Ranieri\" coach \"Leicester City\" [2015,2017] 0.7\n").unwrap();
        assert!(g.dict().lookup("Claudio Ranieri").is_some());
        assert!(g.dict().lookup("Leicester City").is_some());
    }

    #[test]
    fn default_confidence_is_one() {
        let g = parse_graph("a b c [1,2]\n").unwrap();
        let (_, f) = g.iter().next().unwrap();
        assert!(f.confidence.is_certain());
    }

    #[test]
    fn trailing_comment() {
        let g = parse_graph("a b c [1,2] 0.5 # noisy extraction\n").unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn hash_inside_quotes_kept() {
        let g = parse_graph("\"a#1\" b c [1,2] 0.5\n").unwrap();
        assert!(g.dict().lookup("a#1").is_some());
    }

    #[test]
    fn error_reporting_with_line_numbers() {
        let bad = "a b c [1,2] 0.9\n\na b [1,2] 0.9\n";
        let e = parse_graph(bad).unwrap_err();
        match e {
            KgError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_intervals() {
        assert!(parse_graph("a b c [1 2] 0.9").is_err());
        assert!(parse_graph("a b c [x,2] 0.9").is_err());
        assert!(parse_graph("a b c [5,2] 0.9").is_err());
        assert!(parse_graph("a b c [1,2 0.9").is_err());
    }

    #[test]
    fn rejects_misplaced_parts() {
        assert!(parse_graph("a b [1,2] c 0.9").is_err());
        assert!(parse_graph("a b c d [1,2] 0.9").is_err());
        assert!(parse_graph("a b c [1,2] [3,4]").is_err());
        assert!(parse_graph("a b c [1,2] not_a_number").is_err());
        assert!(parse_graph("\"unterminated b c [1,2]").is_err());
        // A closing bracket on its own is an error, not a term.
        assert!(parse_graph("a b c ] [1,2]").is_err());
        assert!(parse_graph("a b c [1,2]] 0.9").is_err());
    }

    #[test]
    fn terms_are_read_off_the_line_as_written() {
        // Quoted terms keep separators and brackets, bare terms end at
        // them; the owned form is the borrowed one, copied.
        let line = "(\"a, (b)\",p,\"[x]\" [ -3 , 4 ]) 0.25";
        let (s, p, o, interval, confidence) = parse_fact_line(line, 1).unwrap();
        assert_eq!((s.as_str(), p.as_str(), o.as_str()), ("a, (b)", "p", "[x]"));
        assert_eq!(interval, Interval::new(-3, 4).unwrap());
        assert_eq!(confidence, 0.25);
        let g = parse_graph("é\u{a0}p\u{2003}ö [1,2]").unwrap();
        assert!(g.dict().lookup("é").is_some(), "any whitespace separates");
        assert!(g.dict().lookup("ö").is_some());
    }

    #[test]
    fn parse_into_shares_dictionary() {
        let mut g = parse_graph("a b c [1,2] 0.5\n").unwrap();
        let added = parse_into("a b d [3,4] 0.6\n", &mut g).unwrap();
        assert_eq!(added, 1);
        assert_eq!(g.len(), 2);
        // `a` and `b` were not re-interned.
        assert_eq!(g.dict().iter().count(), 4);
    }
}
