//! Automatic constraint suggestion — the paper's stated research goal.
//!
//! §4 (Goals): "...with particular emphasis on the following aspects:
//! (i) inference expressiveness and scalability; (ii) **automatic
//! derivation or suggestion of constraints** and inference rules." This
//! module implements a data-driven advisor for (ii): it profiles each
//! predicate of the selected uTKG and proposes constraints from the
//! paper's three classes where the data supports them:
//!
//! * **disjointness** (c2 shape) for fluents whose same-subject spells
//!   rarely intersect — occasional overlaps are then likely extraction
//!   noise;
//! * **functional / equality-generating** (c3 shape) for attributes
//!   that almost always take a single value per subject at a time;
//! * **temporal order** (c1 shape) for predicate pairs whose intervals
//!   are consistently ordered (e.g. `birthDate` before `deathDate`).
//!
//! Each suggestion carries its supporting evidence (violation rate in
//! the data) so a domain expert can review before accepting — the demo
//! explicitly keeps humans in the loop.

use tecore_kg::{Symbol, UtkGraph};
use tecore_logic::builder;
use tecore_logic::formula::Formula;
use tecore_temporal::{AllenRelation, AllenSet, Interval, TimePoint};

/// A suggested constraint with its data support.
#[derive(Debug, Clone)]
pub struct SuggestedConstraint {
    /// The ready-to-use formula.
    pub formula: Formula,
    /// Human-readable rationale.
    pub rationale: String,
    /// Fraction of observed groundings that would *violate* the
    /// suggestion (0.0 = the data fully supports it). Suggestions are
    /// only emitted below the advisor's tolerance.
    pub violation_rate: f64,
    /// Number of observations backing the estimate.
    pub support: usize,
}

/// Advisor configuration.
#[derive(Debug, Clone)]
pub struct AdvisorConfig {
    /// Maximum tolerated violation rate for a suggestion (default 0.2:
    /// a constraint violated by a fifth of the data is still plausibly
    /// a real rule over noisy extractions).
    pub tolerance: f64,
    /// Minimum observations before suggesting anything about a
    /// predicate (default 10).
    pub min_support: usize,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        AdvisorConfig {
            tolerance: 0.2,
            min_support: 10,
        }
    }
}

/// A live fact as the advisor pairs it: predicate, subject, object,
/// interval.
type Row = (Symbol, Symbol, Symbol, Interval);

/// Profiles the graph and proposes constraints.
///
/// One walk over the live facts and one sort group them by predicate
/// and subject; each predicate's suggestions then read its own groups.
pub fn suggest_constraints(graph: &UtkGraph, config: &AdvisorConfig) -> Vec<SuggestedConstraint> {
    let mut rows: Vec<Row> = graph
        .iter()
        .map(|(_, f)| (f.predicate, f.subject, f.object, f.interval))
        .collect();
    rows.sort_unstable_by_key(|&(p, s, ..)| (p, s));
    let mut runs: Vec<&[Row]> = rows.chunk_by(|a, b| a.0 == b.0).collect();
    // Predicates in name order, for deterministic reporting.
    runs.sort_unstable_by_key(|run| graph.dict().resolve(run[0].0));
    let mut out = Vec::new();
    for run in runs {
        let pname = graph.dict().resolve(run[0].0);
        if let Some(s) = suggest_disjointness(run, pname, config) {
            out.push(s);
        }
        if let Some(s) = suggest_functional(run, pname, config) {
            out.push(s);
        }
    }
    out
}

/// The same-subject groups of one predicate's rows (sorted by subject).
fn per_subject(run: &[Row]) -> impl Iterator<Item = &[Row]> {
    run.chunk_by(|a, b| a.1 == b.1)
}

/// Same-subject spell pairs of one predicate: how often do they
/// intersect?
fn suggest_disjointness(
    run: &[Row],
    pname: &str,
    config: &AdvisorConfig,
) -> Option<SuggestedConstraint> {
    let mut pairs = 0usize;
    let mut overlapping = 0usize;
    let mut spells = Vec::new();
    for facts in per_subject(run) {
        if facts.len() < 2 {
            continue;
        }
        let n = facts.len();
        pairs += n * (n - 1) / 2;
        spells.clear();
        spells.extend(facts.iter().map(|&(.., iv)| iv));
        spells.sort_unstable();
        overlapping += count_overlapping_pairs(&spells);
    }
    if pairs < config.min_support {
        return None;
    }
    let rate = overlapping as f64 / pairs as f64;
    if rate > config.tolerance {
        return None;
    }
    Some(SuggestedConstraint {
        formula: builder::disjointness(&format!("auto_disjoint_{pname}"), pname),
        rationale: format!(
            "{overlapping} of {pairs} same-subject `{pname}` spell pairs intersect \
             ({:.1}%): `{pname}` looks like an exclusive fluent",
            rate * 100.0
        ),
        violation_rate: rate,
        support: pairs,
    })
}

/// Counts the pairwise-intersecting pairs among start-sorted intervals:
/// a sweep that keeps the ends still open at each start.
fn count_overlapping_pairs(sorted: &[Interval]) -> usize {
    let mut count = 0usize;
    let mut open: Vec<TimePoint> = Vec::new();
    for iv in sorted {
        open.retain(|&end| end >= iv.start());
        count += open.len();
        open.push(iv.end());
    }
    count
}

/// Same-subject, time-intersecting facts of one predicate: how often
/// do they disagree on the object?
fn suggest_functional(
    run: &[Row],
    pname: &str,
    config: &AdvisorConfig,
) -> Option<SuggestedConstraint> {
    let mut concurrent_pairs = 0usize;
    let mut disagreeing = 0usize;
    for facts in per_subject(run) {
        for (i, &(.., oi, ii)) in facts.iter().enumerate() {
            for &(.., oj, ij) in &facts[i + 1..] {
                if ii.intersects(ij) {
                    concurrent_pairs += 1;
                    if oi != oj {
                        disagreeing += 1;
                    }
                }
            }
        }
    }
    // A predicate with no concurrent pairs at all gives no signal for
    // functionality (disjointness already covers it).
    if concurrent_pairs < config.min_support {
        return None;
    }
    let rate = disagreeing as f64 / concurrent_pairs as f64;
    if rate > config.tolerance {
        return None;
    }
    Some(SuggestedConstraint {
        formula: builder::functional(&format!("auto_functional_{pname}"), pname),
        rationale: format!(
            "{disagreeing} of {concurrent_pairs} concurrent `{pname}` pairs disagree on \
             the object ({:.1}%): `{pname}` looks time-functional",
            rate * 100.0
        ),
        violation_rate: rate,
        support: concurrent_pairs,
    })
}

/// Proposes a temporal-order constraint between two predicates if their
/// same-subject interval pairs consistently satisfy one basic relation
/// set (e.g. `birthDate` before `deathDate`).
pub fn suggest_order(
    graph: &UtkGraph,
    pred_a: &str,
    pred_b: &str,
    config: &AdvisorConfig,
) -> Option<SuggestedConstraint> {
    let pa = graph.dict().lookup(pred_a)?;
    let pb = graph.dict().lookup(pred_b)?;
    // Each fact of `pred_a` as a left row, each of `pred_b` as a right
    // one (a fact of both, when they are one predicate, as both),
    // grouped by subject: a group pairs its left rows with its right.
    let mut rows: Vec<(Symbol, bool, Interval)> = Vec::new();
    for (_, f) in graph.iter() {
        for (side, p) in [(false, pa), (true, pb)] {
            if f.predicate == p {
                rows.push((f.subject, side, f.interval));
            }
        }
    }
    rows.sort_unstable_by_key(|&(s, side, _)| (s, side));
    let mut total = 0usize;
    let mut relation_votes = [0usize; 13];
    for facts in rows.chunk_by(|a, b| a.0 == b.0) {
        let (left, right) = facts.split_at(facts.partition_point(|&(_, side, _)| !side));
        for &(_, _, a) in left {
            for &(_, _, b) in right {
                total += 1;
                relation_votes[AllenRelation::between(a, b).index()] += 1;
            }
        }
    }
    if total == 0 || total < config.min_support {
        return None;
    }
    // Ties go to the lowest-index relation, whatever the graph's order.
    let (index, &votes) = relation_votes
        .iter()
        .enumerate()
        .max_by_key(|&(i, &v)| (v, std::cmp::Reverse(i)))?;
    let rate = 1.0 - votes as f64 / total as f64;
    if rate > config.tolerance {
        return None;
    }
    let relation = AllenSet::from_relation(AllenRelation::from_index(index)?);
    Some(SuggestedConstraint {
        formula: builder::temporal_order(
            &format!("auto_order_{pred_a}_{pred_b}"),
            pred_a,
            pred_b,
            relation,
        ),
        rationale: format!(
            "{votes} of {total} same-subject ({pred_a}, {pred_b}) pairs satisfy \
             `{relation}`",
        ),
        violation_rate: rate,
        support: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tecore_logic::pretty::format_formula;

    fn spells(items: &[(i64, i64)]) -> Vec<Interval> {
        let mut spells: Vec<Interval> = items
            .iter()
            .map(|&(a, b)| Interval::new(a, b).unwrap())
            .collect();
        spells.sort_unstable();
        spells
    }

    #[test]
    fn pair_counting() {
        // (0,2) overlap; (0,1) don't; (1,2) don't.
        let some = spells(&[(2000, 2004), (2015, 2017), (2001, 2003)]);
        assert_eq!(count_overlapping_pairs(&some), 1);
        let none = spells(&[(1, 2), (4, 5), (7, 8)]);
        assert_eq!(count_overlapping_pairs(&none), 0);
        let all = spells(&[(1, 10), (2, 9), (3, 8)]);
        assert_eq!(count_overlapping_pairs(&all), 3);
        assert_eq!(count_overlapping_pairs(&[]), 0);
    }

    proptest! {
        /// Pair counting agrees with the quadratic reference.
        #[test]
        fn pair_count_matches_naive(
            items in prop::collection::vec((-50i64..50, 0i64..20), 0..60),
        ) {
            let sorted = spells(&items.iter().map(|&(s, l)| (s, s + l)).collect::<Vec<_>>());
            let mut naive = 0usize;
            for i in 0..sorted.len() {
                for j in (i + 1)..sorted.len() {
                    if sorted[i].intersects(sorted[j]) {
                        naive += 1;
                    }
                }
            }
            prop_assert_eq!(count_overlapping_pairs(&sorted), naive);
        }
    }

    /// A career-style graph: per player, sequential disjoint spells,
    /// plus `overlap_players` whose spells all collide.
    fn careers(players: usize, overlap_players: usize) -> UtkGraph {
        let mut g = UtkGraph::new();
        for p in 0..players {
            let mut year = 1980 + (p as i64 % 10);
            for s in 0..4 {
                g.insert(
                    &format!("p{p}"),
                    "playsFor",
                    &format!("club{}", (p + s) % 7),
                    Interval::new(year, year + 2).unwrap(),
                    0.9,
                )
                .unwrap();
                year += 4;
            }
        }
        for p in 0..overlap_players {
            for s in 0..4 {
                g.insert(
                    &format!("noisy{p}"),
                    "playsFor",
                    &format!("club{s}"),
                    Interval::new(2000, 2004).unwrap(),
                    0.6,
                )
                .unwrap();
            }
        }
        g
    }

    #[test]
    fn suggests_disjointness_for_plays_for() {
        // 40 clean players, 1 noisy one: low violation rate.
        let graph = careers(40, 1);
        let suggestions = suggest_constraints(&graph, &AdvisorConfig::default());
        let plays = suggestions
            .iter()
            .find(|s| s.formula.name.as_deref() == Some("auto_disjoint_playsFor"))
            .expect("playsFor disjointness should be suggested");
        assert!(plays.violation_rate < 0.2, "{}", plays.rationale);
        assert!(plays.support > 50);
        // The suggestion is a valid, usable formula.
        tecore_logic::validate::check_formula(&plays.formula).unwrap();
        let printed = format_formula(&plays.formula);
        assert!(printed.contains("disjoint(t, t')"), "{printed}");
    }

    #[test]
    fn no_disjointness_on_heavily_overlapping_data() {
        // Half the players have fully colliding spells: the violation
        // rate exceeds any reasonable tolerance.
        let graph = careers(10, 10);
        let cfg = AdvisorConfig {
            tolerance: 0.05,
            ..AdvisorConfig::default()
        };
        let suggestions = suggest_constraints(&graph, &cfg);
        assert!(
            !suggestions
                .iter()
                .any(|s| s.formula.name.as_deref() == Some("auto_disjoint_playsFor")),
            "overlapping data must suppress the suggestion at 5% tolerance"
        );
    }

    #[test]
    fn suggests_birth_before_death_order() {
        let mut graph = UtkGraph::new();
        for i in 0..20 {
            let birth = 1900 + i;
            let death = birth + 70;
            graph
                .insert(
                    &format!("p{i}"),
                    "birthDate",
                    &birth.to_string(),
                    tecore_temporal::Interval::at(birth),
                    0.9,
                )
                .unwrap();
            graph
                .insert(
                    &format!("p{i}"),
                    "deathDate",
                    &death.to_string(),
                    tecore_temporal::Interval::at(death),
                    0.9,
                )
                .unwrap();
        }
        let s = suggest_order(&graph, "birthDate", "deathDate", &AdvisorConfig::default())
            .expect("consistent ordering should be detected");
        assert_eq!(s.violation_rate, 0.0);
        let printed = format_formula(&s.formula);
        assert!(printed.contains("before(t, t')"), "{printed}");
    }

    #[test]
    fn order_ties_go_to_the_lower_index_relation() {
        let iv = |a, b| Interval::new(a, b).unwrap();
        let mut graph = UtkGraph::new();
        // Three pairs `before`, three `overlaps`.
        for i in 0..6 {
            let (a, b) = if i % 2 == 0 {
                (iv(1, 2), iv(5, 6))
            } else {
                (iv(1, 4), iv(3, 6))
            };
            graph.insert(&format!("p{i}"), "a", "x", a, 0.9).unwrap();
            graph.insert(&format!("p{i}"), "b", "y", b, 0.9).unwrap();
        }
        let config = AdvisorConfig {
            tolerance: 0.5,
            min_support: 6,
        };
        for _ in 0..40 {
            let s = suggest_order(&graph, "a", "b", &config).expect("a tie within tolerance");
            assert_eq!(s.violation_rate, 0.5);
            let printed = format_formula(&s.formula);
            assert!(printed.contains("before(t, t')"), "{printed}");
        }
    }

    #[test]
    fn insufficient_support_suggests_nothing() {
        let mut graph = UtkGraph::new();
        graph
            .insert(
                "a",
                "coach",
                "b",
                tecore_temporal::Interval::new(1, 2).unwrap(),
                0.9,
            )
            .unwrap();
        let suggestions = suggest_constraints(&graph, &AdvisorConfig::default());
        assert!(suggestions.is_empty());
        assert!(suggest_order(&graph, "coach", "coach", &AdvisorConfig::default()).is_none());
    }
}
