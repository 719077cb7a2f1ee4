//! Cost-based join-order planning over live cardinality statistics.
//!
//! The compiler's syntactic heuristic ([`crate::compile`]) orders a
//! formula body by constants and shared variables without ever looking
//! at the data. On skewed predicate distributions that can start a join
//! at the fattest predicate and enumerate its whole extension. This
//! module re-plans each body at *ground time* from the graph's
//! [`Cardinalities`]: per-step lookup cost and match cardinality are
//! estimated from per-predicate fact counts and distinct subject/object
//! counts, and the cheapest permutation is searched exactly (Selinger
//! style bitmask DP) for bodies of up to [`EXACT_PLAN_LIMIT`] atoms and
//! greedily with one step of lookahead beyond.
//!
//! Correctness does not depend on the plan: the match enumerator's
//! semi-naive frontier, the clause dedup signature and the order
//! matches are emitted in are all keyed on body *positions*, so any
//! permutation grounds the same clause arena. Planning only moves
//! work, never results.
//!
//! Whatever order is chosen, its [`JoinPlan`] then gives each step its
//! access path into the atom store and — where a temporal check relates
//! the interval the step binds to one already bound — the time window
//! it probes its posting run with.

use tecore_kg::{Cardinalities, Symbol};
use tecore_logic::term::VarId;

use crate::compile::{CPattern, CTerm, CTime, CompiledProgram, JoinPlan};

/// Which join planner the grounder uses
/// ([`crate::GroundConfig::planner`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinPlanner {
    /// Plan each body from live cardinality statistics (the default).
    /// Falls back to the syntactic order on stat-less (empty) graphs.
    #[default]
    CostBased,
    /// Keep the compiler's syntactic greedy order (constants + shared
    /// variables). The data-independent baseline.
    Syntactic,
}

/// The join plan chosen for one formula, with its cost-model estimate
/// and (filled in while grounding) the observed match count — surfaced
/// through `DebugStats::plans` for observability.
#[derive(Debug, Clone, PartialEq)]
pub struct FormulaPlan {
    /// Index of the formula in the program.
    pub formula: usize,
    /// Source name (`f1`, `c2`, ...).
    pub name: Option<String>,
    /// The body permutation grounding actually used.
    pub join_order: Vec<usize>,
    /// Was this order chosen by the cost model (`false`: syntactic
    /// fallback)?
    pub cost_based: bool,
    /// The cost model's estimate of complete body matches (0 when
    /// syntactic).
    pub estimated_matches: f64,
    /// Matches observed while grounding: body groundings that passed
    /// every condition and, for a formula that derives nothing,
    /// violate its consequent. The same number under any join order.
    pub actual_matches: usize,
}

/// Bodies up to this length are planned by exact DP over subsets;
/// longer bodies fall back to greedy search with one-step lookahead.
pub const EXACT_PLAN_LIMIT: usize = 8;

/// Assumed selectivity of an exact-time constraint (literal interval or
/// already-bound interval variable). Exact times are not probed for, so
/// this only discounts the estimated match count, never the scan cost.
const TIME_SELECTIVITY: f64 = 0.1;

/// Per-step cost estimate: `scan` candidate atoms are examined, `rows`
/// of them match.
#[derive(Clone, Copy)]
struct StepEstimate {
    scan: f64,
    rows: f64,
}

/// The cost model: selectivity estimates for one formula body, derived
/// from a [`Cardinalities`] snapshot.
struct CostModel<'a> {
    cards: &'a Cardinalities,
    total: f64,
    /// Average facts per predicate (for predicates bound to a variable
    /// at runtime, where the concrete predicate is unknown at plan
    /// time).
    avg_facts: f64,
    avg_subjects: f64,
    avg_objects: f64,
    /// `var_bits[pat]` is the bitmask of variables pattern `pat` binds.
    var_bits: Vec<u64>,
    /// Variable → bit mapping backing `var_bits` (formulas with > 64
    /// variables share the top bit; the estimate degrades gracefully,
    /// correctness is unaffected).
    var_ids: Vec<VarId>,
    body: &'a [CPattern],
}

impl<'a> CostModel<'a> {
    fn new(body: &'a [CPattern], cards: &'a Cardinalities) -> Self {
        let mut var_ids: Vec<VarId> = Vec::new();
        let var_bits = body
            .iter()
            .map(|p| {
                p.vars().into_iter().fold(0u64, |m, v| {
                    let i = var_ids.iter().position(|&x| x == v).unwrap_or_else(|| {
                        var_ids.push(v);
                        var_ids.len() - 1
                    });
                    m | (1u64 << i.min(63))
                })
            })
            .collect();
        let preds = cards.predicate_count().max(1) as f64;
        let (mut subj_sum, mut obj_sum) = (0usize, 0usize);
        for (_, c) in cards.per_predicate() {
            subj_sum += c.distinct_subjects();
            obj_sum += c.distinct_objects();
        }
        CostModel {
            cards,
            total: cards.total_facts() as f64,
            avg_facts: cards.total_facts() as f64 / preds,
            avg_subjects: (subj_sum as f64 / preds).max(1.0),
            avg_objects: (obj_sum as f64 / preds).max(1.0),
            var_bits,
            var_ids,
            body,
        }
    }

    /// Is this slot a value the enumerator can hand to an index —
    /// a constant, or a variable bound by an earlier join step?
    fn known(&self, t: &CTerm, bound: u64) -> bool {
        match t {
            CTerm::Sym(_) => true,
            CTerm::Var(v) => bound & self.var_bit(*v) != 0,
        }
    }

    /// The bitmask of one variable (same numbering `new` assigned).
    fn var_bit(&self, v: VarId) -> u64 {
        self.var_ids
            .iter()
            .position(|&x| x == v)
            .map_or(0, |i| 1u64 << i.min(63))
    }

    /// Estimates the cost of matching `pattern` when the variables in
    /// `bound` are already bound.
    fn step(&self, pattern: &CPattern, bound: u64) -> StepEstimate {
        let s_known = self.known(&pattern.subject, bound);
        let o_known = self.known(&pattern.object, bound);
        // Per-predicate statistics: a constant predicate reads its own
        // counts (a predicate with no live facts — empty, or derived
        // only — estimates as a single atom); a bound predicate
        // variable gets the per-predicate averages.
        let (facts, ds, dobj) = match &pattern.predicate {
            CTerm::Sym(p) => match self.cards.predicate(*p) {
                Some(c) => (
                    c.facts() as f64,
                    c.distinct_subjects() as f64,
                    c.distinct_objects() as f64,
                ),
                None => (1.0, 1.0, 1.0),
            },
            CTerm::Var(v) => {
                if bound & self.var_bit(*v) != 0 {
                    (self.avg_facts, self.avg_subjects, self.avg_objects)
                } else {
                    // Unknown predicate: full store scan, selectivity
                    // only from the bound subject/object slots.
                    let mut rows = self.total;
                    if s_known {
                        rows /= self.avg_subjects;
                    }
                    if o_known {
                        rows /= self.avg_objects;
                    }
                    return StepEstimate {
                        scan: self.total,
                        rows: rows * self.time_selectivity(pattern, bound),
                    };
                }
            }
        };
        let ds = ds.max(1.0);
        let dobj = dobj.max(1.0);
        // Index choice mirrors the enumerator: (s,p) index, then (p,o),
        // then p alone.
        let scan = if s_known {
            facts / ds
        } else if o_known {
            facts / dobj
        } else {
            facts
        };
        let mut rows = facts;
        if s_known {
            rows /= ds;
        }
        if o_known {
            rows /= dobj;
        }
        StepEstimate {
            scan,
            rows: rows * self.time_selectivity(pattern, bound),
        }
    }

    fn time_selectivity(&self, pattern: &CPattern, bound: u64) -> f64 {
        match &pattern.time {
            Some(CTime::Lit(_)) => TIME_SELECTIVITY,
            Some(CTime::Var(v)) if bound & self.var_bit(*v) != 0 => TIME_SELECTIVITY,
            _ => 1.0,
        }
    }
}

/// Plans one body: returns the chosen permutation and the estimated
/// number of complete matches. With `first`, the permutation starts at
/// that body position, already bound by one given atom (a delta rule),
/// and the estimate is per such atom.
fn plan_body(body: &[CPattern], cards: &Cardinalities, first: Option<usize>) -> (Vec<usize>, f64) {
    let n = body.len();
    if n <= 1 {
        return ((0..n).collect(), 0.0);
    }
    let model = CostModel::new(body, cards);
    if n <= EXACT_PLAN_LIMIT {
        plan_exact(&model, n, first)
    } else {
        plan_greedy(&model, n, first)
    }
}

/// Exact Selinger-style DP over atom subsets: `dp[mask]` holds the
/// cheapest way to have joined exactly the atoms in `mask`.
fn plan_exact(model: &CostModel<'_>, n: usize, first: Option<usize>) -> (Vec<usize>, f64) {
    let full = (1usize << n) - 1;
    // (cost, rows, last pattern joined)
    let mut dp: Vec<Option<(f64, f64, usize)>> = vec![None; full + 1];
    // A seeded plan starts from the one-pattern subset instead of the
    // empty one, so only supersets of it are ever reached.
    match first {
        Some(first) => dp[1 << first] = Some((0.0, 1.0, first)),
        None => dp[0] = Some((0.0, 1.0, usize::MAX)),
    }
    for mask in 0..=full {
        let Some((cost, rows, _)) = dp[mask] else {
            continue;
        };
        let bound = bound_vars(model, mask);
        for i in 0..n {
            if mask & (1 << i) != 0 {
                continue;
            }
            let est = model.step(&model.body[i], bound);
            let next_cost = cost + rows * (1.0 + est.scan);
            let next_rows = rows * est.rows;
            let next = mask | (1 << i);
            if dp[next].is_none_or(|(c, _, _)| next_cost < c) {
                dp[next] = Some((next_cost, next_rows, i));
            }
        }
    }
    // Reconstruct by peeling the last-joined pattern off the mask.
    let mut order = Vec::with_capacity(n);
    let mut mask = full;
    while mask != 0 {
        let (_, _, last) = dp[mask].expect("every mask reachable");
        order.push(last);
        mask &= !(1 << last);
    }
    order.reverse();
    let (_, rows, _) = dp[full].expect("full mask reachable");
    (order, rows)
}

/// Greedy search with one-step lookahead for long bodies: each step
/// picks the atom minimising its own cost plus the cheapest possible
/// next step after it.
fn plan_greedy(model: &CostModel<'_>, n: usize, first: Option<usize>) -> (Vec<usize>, f64) {
    let mut remaining: Vec<usize> = (0..n).filter(|&i| Some(i) != first).collect();
    let mut order: Vec<usize> = first.into_iter().collect();
    let mut bound = first.map_or(0, |i| model.var_bits[i]);
    let mut rows = 1.0f64;
    while !remaining.is_empty() {
        let mut best: Option<(f64, usize)> = None;
        for &i in &remaining {
            let est = model.step(&model.body[i], bound);
            let own = rows * (1.0 + est.scan);
            let rows_after = rows * est.rows;
            let bound_after = bound | model.var_bits[i];
            let lookahead = remaining
                .iter()
                .filter(|&&j| j != i)
                .map(|&j| {
                    let e = model.step(&model.body[j], bound_after);
                    rows_after * (1.0 + e.scan)
                })
                .fold(f64::INFINITY, f64::min);
            let total = own
                + if lookahead.is_finite() {
                    lookahead
                } else {
                    0.0
                };
            if best.is_none_or(|(c, _)| total < c) {
                best = Some((total, i));
            }
        }
        let (_, i) = best.expect("remaining non-empty");
        let est = model.step(&model.body[i], bound);
        rows *= est.rows;
        bound |= model.var_bits[i];
        order.push(i);
        remaining.retain(|&x| x != i);
    }
    (order, rows)
}

fn bound_vars(model: &CostModel<'_>, mask: usize) -> u64 {
    let mut bound = 0u64;
    for (i, &bits) in model.var_bits.iter().enumerate() {
        if mask & (1 << i) != 0 {
            bound |= bits;
        }
    }
    bound
}

/// Re-plans every formula of `compiled` in place (the cold join and
/// the seeded join of every body position) and returns the chosen
/// plans. Under
/// [`JoinPlanner::Syntactic`], or when the graph has no statistics to
/// plan from, the compiler's syntactic order is kept and merely
/// recorded.
pub(crate) fn plan_program(
    compiled: &mut CompiledProgram,
    cards: &Cardinalities,
    planner: JoinPlanner,
) -> Vec<FormulaPlan> {
    let cost_based = planner == JoinPlanner::CostBased && !cards.is_empty();
    compiled
        .formulas
        .iter_mut()
        .map(|cf| {
            let mut estimated = 0.0;
            if cost_based {
                let (order, est) = plan_body(&cf.body, cards, None);
                estimated = est;
                cf.cold = JoinPlan::new(&cf.body, &cf.checks, &order);
                for pos in 0..cf.body.len() {
                    let (order, _) = plan_body(&cf.body, cards, Some(pos));
                    cf.seeded[pos] = JoinPlan::new(&cf.body, &cf.checks, &order);
                }
            }
            FormulaPlan {
                formula: cf.index,
                name: cf.name.clone(),
                join_order: cf.cold.order(),
                cost_based,
                estimated_matches: estimated,
                actual_matches: 0,
            }
        })
        .collect()
}

/// Per-predicate fact counts at plan time, sorted by symbol — the
/// drift detector's reference point.
pub(crate) fn fingerprint(cards: &Cardinalities) -> Vec<(Symbol, usize)> {
    let mut v: Vec<(Symbol, usize)> = cards.per_predicate().map(|(p, c)| (p, c.facts())).collect();
    v.sort_unstable_by_key(|&(p, _)| p);
    v
}

/// Maximum relative per-predicate fact-count change between two
/// fingerprints (a predicate present on one side only counts as a full
/// change). `0.0` means identical.
pub(crate) fn drift(old: &[(Symbol, usize)], new: &[(Symbol, usize)]) -> f64 {
    let mut max_rel = 0.0f64;
    let (mut i, mut j) = (0, 0);
    while i < old.len() || j < new.len() {
        let (a, b) = match (old.get(i), new.get(j)) {
            (Some(&(pa, ca)), Some(&(pb, cb))) => {
                if pa == pb {
                    i += 1;
                    j += 1;
                    (ca, cb)
                } else if pa < pb {
                    i += 1;
                    (ca, 0)
                } else {
                    j += 1;
                    (0, cb)
                }
            }
            (Some(&(_, ca)), None) => {
                i += 1;
                (ca, 0)
            }
            (None, Some(&(_, cb))) => {
                j += 1;
                (0, cb)
            }
            (None, None) => break,
        };
        let rel = a.abs_diff(b) as f64 / a.max(b).max(1) as f64;
        max_rel = max_rel.max(rel);
    }
    max_rel
}

#[cfg(test)]
mod tests {
    use super::*;
    use tecore_kg::parser::parse_graph;
    use tecore_kg::UtkGraph;
    use tecore_logic::LogicProgram;

    fn skewed_graph() -> UtkGraph {
        // "big" dwarfs "small": a join should start at small.
        let mut text = String::new();
        for i in 0..200 {
            text.push_str(&format!("(s{i}, big, o{}, [1,2]) 0.9\n", i % 7));
        }
        for i in 0..3 {
            text.push_str(&format!("(s{i}, small, x{i}, [1,2]) 0.9\n"));
        }
        parse_graph(&text).unwrap()
    }

    fn plan_first(graph: &UtkGraph, src: &str) -> Vec<usize> {
        let program = LogicProgram::parse(src).unwrap();
        let mut dict = graph.dict().clone();
        let mut compiled = CompiledProgram::compile(&program, &mut dict).unwrap();
        let plans = plan_program(&mut compiled, graph.cardinalities(), JoinPlanner::CostBased);
        plans[0].join_order.clone()
    }

    #[test]
    fn planner_starts_at_small_predicate() {
        let g = skewed_graph();
        let order = plan_first(
            &g,
            "quad(x, big, y, t) ^ quad(x, small, z, t') -> false w = inf",
        );
        assert_eq!(order[0], 1, "small predicate joins first");
    }

    #[test]
    fn empty_predicate_joins_first() {
        let g = skewed_graph();
        // "absent" has no live facts at all: it prunes everything.
        let order = plan_first(
            &g,
            "quad(x, big, y, t) ^ quad(x, absent, z, t') -> false w = inf",
        );
        assert_eq!(order[0], 1);
    }

    #[test]
    fn seeded_plans_start_at_their_position_and_follow_the_costs() {
        let g = skewed_graph();
        // Seeded at pattern 0 (x and y bound), the syntactic tie-break
        // would join pattern 1 next — ~29 `big` atoms per object — but
        // the subject's single `small` atom is the cheaper next step.
        let program = LogicProgram::parse(
            "quad(x, big, y, t) ^ quad(z, big, y, t') ^ quad(x, small, w, t'') -> false w = inf",
        )
        .unwrap();
        let mut dict = g.dict().clone();
        let mut compiled = CompiledProgram::compile(&program, &mut dict).unwrap();
        assert_eq!(compiled.formulas[0].seeded[0].order(), vec![0, 1, 2]);
        plan_program(&mut compiled, g.cardinalities(), JoinPlanner::CostBased);
        let cf = &compiled.formulas[0];
        assert_eq!(cf.seeded[0].order(), vec![0, 2, 1]);
        for (pos, plan) in cf.seeded.iter().enumerate() {
            assert_eq!(plan.order()[0], pos);
            assert_eq!(
                *plan,
                JoinPlan::new(&cf.body, &cf.checks, &plan.order()),
                "steps recomputed for the seeded order"
            );
        }
    }

    #[test]
    fn syntactic_keeps_compiler_order() {
        let g = skewed_graph();
        let program =
            LogicProgram::parse("quad(x, big, y, t) ^ quad(x, small, z, t') -> false w = inf")
                .unwrap();
        let mut dict = g.dict().clone();
        let mut compiled = CompiledProgram::compile(&program, &mut dict).unwrap();
        let before = compiled.formulas[0].cold.clone();
        let plans = plan_program(&mut compiled, g.cardinalities(), JoinPlanner::Syntactic);
        assert_eq!(compiled.formulas[0].cold, before);
        assert!(!plans[0].cost_based);
    }

    #[test]
    fn stat_less_graph_falls_back() {
        let g = UtkGraph::new();
        let program =
            LogicProgram::parse("quad(x, big, y, t) ^ quad(x, small, z, t') -> false w = inf")
                .unwrap();
        let mut dict = g.dict().clone();
        let mut compiled = CompiledProgram::compile(&program, &mut dict).unwrap();
        let plans = plan_program(&mut compiled, g.cardinalities(), JoinPlanner::CostBased);
        assert!(!plans[0].cost_based, "no stats: syntactic fallback");
    }

    #[test]
    fn greedy_handles_long_bodies() {
        let g = skewed_graph();
        // 9 atoms: beyond the exact-DP limit.
        let body: Vec<String> = (0..9)
            .map(|i| {
                if i == 4 {
                    "quad(x4, small, y4, t4)".to_string()
                } else {
                    format!("quad(x{i}, big, y{i}, t{i})")
                }
            })
            .collect();
        let src = format!("{} -> false w = inf", body.join(" ^ "));
        let order = plan_first(&g, &src);
        assert_eq!(order.len(), 9);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>(), "a permutation");
        assert_eq!(order[0], 4, "small predicate first");
    }

    #[test]
    fn drift_detects_growth() {
        let mut g = skewed_graph();
        let fp0 = fingerprint(g.cardinalities());
        assert_eq!(drift(&fp0, &fp0), 0.0);
        for i in 0..10 {
            g.insert(
                "a",
                "small",
                &format!("n{i}"),
                tecore_temporal::Interval::new(1, 2).unwrap(),
                0.9,
            )
            .unwrap();
        }
        let fp1 = fingerprint(g.cardinalities());
        // small went 3 → 13: relative change > 0.5.
        assert!(drift(&fp0, &fp1) > 0.5);
        // A brand-new predicate is a full change.
        g.insert(
            "a",
            "fresh",
            "b",
            tecore_temporal::Interval::new(1, 2).unwrap(),
            0.9,
        )
        .unwrap();
        let fp2 = fingerprint(g.cardinalities());
        assert_eq!(drift(&fp1, &fp2), 1.0);
    }
}
