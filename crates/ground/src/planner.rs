//! Join-order planning: one greedy rule over the atom store's counts.
//!
//! The paper's constraints are pair patterns over one entity, so a
//! body's join order is close to forced: start where the atom store
//! has least to walk, then follow the shared variables through the
//! keyed posting runs. `join_order` says exactly that. At each step
//! it takes the unjoined pattern with the lowest key
//!
//! `(its predicate has atoms, no index key is fixed, atoms of its predicate, body position)`
//!
//! — a pattern over an empty predicate first (it prunes everything),
//! then one whose `(subject, predicate)` or `(predicate, object)` run
//! the earlier steps have fixed, then the predicate with the shorter
//! id list. The counts are read from the [`AtomStore`] the join walks.
//!
//! Correctness does not depend on the order: the match enumerator's
//! semi-naive frontier, the clause dedup signature and the order
//! matches are emitted in are all keyed on body *positions*, so any
//! permutation grounds the same clause arena. Planning only moves
//! work, never results.
//!
//! Whatever order is chosen, its [`JoinPlan`] then gives each step its
//! access path into the atom store and — where a temporal check relates
//! the interval the step binds to one already bound — the time window
//! it probes its posting run with.

use std::iter;

use tecore_logic::term::VarId;

use crate::atoms::AtomStore;
use crate::compile::{CPattern, CTerm, CTime, Check, CompiledFormula, CompiledProgram, JoinPlan};

/// The join order a formula was grounded with and (filled in while
/// grounding) the observed match count — surfaced through
/// `DebugStats::plans` for observability.
#[derive(Debug, Clone, PartialEq)]
pub struct FormulaPlan {
    /// Index of the formula in the program.
    pub formula: usize,
    /// Source name (`f1`, `c2`, ...).
    pub name: Option<String>,
    /// The body permutation of the cold join.
    pub join_order: Vec<usize>,
    /// Matches observed while grounding: body groundings that passed
    /// every condition and, for a formula that derives nothing,
    /// violate its consequent. The same number under any join order.
    pub actual_matches: usize,
}

/// The join order of `body`, written into `order`: from `first` when
/// given (a delta rule's seeded position, bound from the delta), then
/// at each step the unjoined pattern with the lowest key `(atoms[i] >
/// 0, no index key fixed, atoms[i], i)`. `atoms[i]` is the number of
/// atoms of pattern `i`'s predicate. An index key is fixed when the
/// predicate is known and the subject or the object is — the `(s,p)` /
/// `(p,o)` test [`JoinPlan::new`] makes. It allocates nothing but
/// `order`'s growth: a delta that grows the store runs it for every
/// join of the program.
pub(crate) fn join_order(
    body: &[CPattern],
    first: Option<usize>,
    atoms: &[usize],
    order: &mut Vec<usize>,
) {
    order.clear();
    order.extend(first);
    let mut bound = first.map_or(0, |i| var_mask(&body[i]));
    while order.len() < body.len() {
        let known = |t: &CTerm| match t {
            CTerm::Sym(_) => true,
            CTerm::Var(v) => bound & bit(*v) != 0,
        };
        let next = (0..body.len())
            .filter(|i| !order.contains(i))
            .min_by_key(|&i| {
                let p = &body[i];
                let keyed = known(&p.predicate) && (known(&p.subject) || known(&p.object));
                (atoms[i] > 0, !keyed, atoms[i], i)
            })
            .expect("an unjoined pattern remains");
        bound |= var_mask(&body[next]);
        order.push(next);
    }
}

/// The bit of `v` in a mask of bound variables. Variables past the
/// 63rd share the top bit: an order may then be worse, never wrong —
/// [`JoinPlan::new`] works out what each step binds on its own.
fn bit(v: VarId) -> u64 {
    1 << v.0.min(63)
}

/// The variables `p` binds, as a mask.
fn var_mask(p: &CPattern) -> u64 {
    let time = match p.time {
        Some(CTime::Var(v)) => bit(v),
        _ => 0,
    };
    [p.subject, p.predicate, p.object]
        .iter()
        .fold(time, |mask, t| match t {
            CTerm::Var(v) => mask | bit(*v),
            CTerm::Sym(_) => mask,
        })
}

/// The plans of `body` with every count at zero: the cold join and
/// one seeded join per position, ordered by keys and positions alone.
/// What [`CompiledProgram::compile`] starts a formula with.
pub(crate) fn unplanned(body: &[CPattern], checks: &[Check]) -> (JoinPlan, Vec<JoinPlan>) {
    let atoms = vec![0; body.len()];
    let mut order = Vec::with_capacity(body.len());
    let mut plan = |first| {
        join_order(body, first, &atoms, &mut order);
        JoinPlan::new(body, checks, &order)
    };
    let cold = plan(None);
    (cold, (0..body.len()).map(|pos| plan(Some(pos))).collect())
}

/// Orders every join of `compiled` — the cold one and the seeded one
/// of every body position — by [`join_order`] over the atom counts of
/// `store`, rebuilding a [`JoinPlan`] only where its order changed.
/// Returns whether any did.
pub(crate) fn plan(compiled: &mut CompiledProgram, store: &AtomStore) -> bool {
    let mut changed = false;
    let (mut atoms, mut order) = (Vec::new(), Vec::new());
    for cf in &mut compiled.formulas {
        let CompiledFormula {
            body,
            checks,
            cold,
            seeded,
            ..
        } = cf;
        atoms.clear();
        atoms.extend(body.iter().map(|p| match p.predicate {
            CTerm::Sym(p) => store.with_predicate(p).len(),
            CTerm::Var(_) => store.len(),
        }));
        let firsts = iter::once(None).chain((0..body.len()).map(Some));
        for (first, plan) in firsts.zip(iter::once(cold).chain(seeded)) {
            join_order(body, first, &atoms, &mut order);
            if !plan
                .steps
                .iter()
                .map(|s| s.pattern)
                .eq(order.iter().copied())
            {
                *plan = JoinPlan::new(body, checks, &order);
                changed = true;
            }
        }
    }
    changed
}

#[cfg(test)]
mod conformance;

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

    /// `src` compiled and planned against the atoms of `graph`.
    fn planned(graph: &UtkGraph, src: &str) -> CompiledProgram {
        let mut compiled = compiled(graph, src);
        plan(&mut compiled, &AtomStore::from_graph(graph).0);
        compiled
    }

    /// `src` compiled against `graph`'s terms and its own constants.
    fn compiled(graph: &UtkGraph, src: &str) -> CompiledProgram {
        let program = LogicProgram::parse(src).unwrap();
        let mut dict = graph.dict().clone();
        crate::intern_constants(&program, &mut dict);
        CompiledProgram::compile(&program, &dict).unwrap()
    }

    fn plan_first(graph: &UtkGraph, src: &str) -> Vec<usize> {
        planned(graph, src).formulas[0].cold.order()
    }

    #[test]
    fn planner_starts_at_small_predicate() {
        let g = skewed_graph();
        let order = plan_first(
            &g,
            "quad(x, big, y, t) ^ quad(x, small, z, t') -> false w = inf",
        );
        assert_eq!(order, vec![1, 0], "small predicate joins first");
    }

    #[test]
    fn empty_predicate_joins_first() {
        let g = skewed_graph();
        // "absent" has no atoms at all: it prunes everything, ahead of
        // a pattern with a constant key.
        let order = plan_first(
            &g,
            "quad(x, big, o1, t) ^ quad(x, absent, z, t') -> false w = inf",
        );
        assert_eq!(order[0], 1);
    }

    #[test]
    fn seeded_plans_start_at_their_position_and_follow_the_costs() {
        let g = skewed_graph();
        // Seeded at pattern 0 (x and y bound), both other patterns have
        // a fixed key; by position pattern 1 would go next — 200 `big`
        // atoms — but `small` has 3.
        let src =
            "quad(x, big, y, t) ^ quad(z, big, y, t') ^ quad(x, small, w, t'') -> false w = inf";
        let compiled = compiled(&g, src);
        assert_eq!(compiled.formulas[0].seeded[0].order(), vec![0, 1, 2]);
        let compiled = planned(&g, src);
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
    fn stat_less_graph_falls_back() {
        // An empty store counts nothing: the plans are the ones
        // compilation started with, and none is rebuilt.
        let g = UtkGraph::new();
        let src = "quad(x, big, y, t) ^ quad(x, small, z, t') -> false w = inf";
        let mut compiled = compiled(&g, src);
        let before = compiled.formulas[0].clone();
        assert!(!plan(&mut compiled, &AtomStore::from_graph(&g).0));
        assert_eq!(compiled.formulas[0], before);
        assert_eq!(before.cold.order(), vec![0, 1]);
    }

    #[test]
    fn greedy_handles_long_bodies() {
        let g = skewed_graph();
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
    fn a_fixed_key_beats_a_shorter_list() {
        let mut g = skewed_graph();
        // After `small` binds x, the `big` atoms of x are one run away,
        // while the five `other` atoms — fewer than `big`'s 200 —
        // would be walked whole.
        let t = tecore_temporal::Interval::new(1, 2).unwrap();
        for i in 0..5 {
            g.insert(&format!("a{i}"), "other", "b", t, 0.9).unwrap();
        }
        let order = plan_first(
            &g,
            "quad(x, small, y, t) ^ quad(u, other, v, t') ^ quad(x, big, z, t'') -> false w = inf",
        );
        assert_eq!(order, vec![0, 2, 1]);
    }

    #[test]
    fn deltas_reorder_joins_when_counts_flip() {
        let mut g = skewed_graph();
        let program =
            LogicProgram::parse("quad(x, big, y, t) ^ quad(x, small, z, t') -> false w = inf")
                .unwrap();
        let mut grounding = crate::ground(&g, &program).unwrap();
        assert_eq!(grounding.plans[0].join_order, vec![1, 0]);
        // `small` grows past `big`: the next delta starts the cold join
        // at `big`, and reports it.
        let t = tecore_temporal::Interval::new(1, 2).unwrap();
        for i in 0..300 {
            g.insert(&format!("n{i}"), "small", "m", t, 0.9).unwrap();
        }
        let delta = g.since(grounding.epoch()).unwrap();
        grounding.apply_delta(&g, &delta);
        let cf = &grounding.program.formulas[0];
        assert_eq!(cf.cold, JoinPlan::new(&cf.body, &cf.checks, &[0, 1]));
        assert_eq!(grounding.plans[0].join_order, vec![0, 1]);
        let seeded: Vec<Vec<usize>> = cf.seeded.iter().map(JoinPlan::order).collect();
        assert_eq!(seeded, [[0, 1], [1, 0]]);
    }
}
