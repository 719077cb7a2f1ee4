//! The compact fact tuple and the grounding oracle: random graphs,
//! random programs (bodies with Allen and entity conditions; denial,
//! temporal, entity and deriving consequents), a canonical clause
//! rendering, and a deliberately naive re-grounder to hold the real one
//! against.
//!
//! The file names no crate but `tecore-ground`'s own dependencies, so
//! that the planner's unit suite (`tecore-ground`'s
//! `planner::conformance`) can include it by path: a unit test cannot
//! link this crate without a second copy of the crate under test.

#![allow(dead_code)] // the planner's suite uses a part

use std::collections::{BTreeSet, HashMap};
use std::ops::Range;

use proptest::prelude::*;
use tecore_ground::{AtomId, ClauseOrigin, ClauseWeight, Grounding};
use tecore_kg::{Dictionary, UtkGraph};
use tecore_logic::atom::{CmpOp, Condition, QuadAtom};
use tecore_logic::formula::{Consequent, Formula, Weight};
use tecore_logic::term::{Term, TimeTerm, VarId};
use tecore_logic::LogicProgram;
use tecore_temporal::Interval;

/// Compact fact tuple `(subject, predicate, object, start, len,
/// confidence in tenths)`.
pub type Fact = (u8, u8, u8, i8, i8, u8);

/// Six subjects, four predicates, five objects, starts in `0..20`,
/// confidences 0.5–0.9: small pools, so indexes collide and statements
/// repeat.
pub fn arb_fact() -> impl Strategy<Value = Fact> {
    arb_fact_in(0..20, 0..5, 5..10)
}

/// [`arb_fact`] over these starts, lengths and confidences (in
/// tenths).
pub fn arb_fact_in(
    starts: Range<i8>,
    lens: Range<i8>,
    tenths: Range<u8>,
) -> impl Strategy<Value = Fact> {
    (0u8..6, 0u8..4, 0u8..5, starts, lens, tenths)
}

pub fn arb_facts() -> impl Strategy<Value = Vec<Fact>> {
    prop::collection::vec(arb_fact(), 0..20)
}

/// Few subjects, predicates and objects, many facts: bodies find many
/// groundings, so the order they are found in matters.
pub fn arb_dense_facts() -> impl Strategy<Value = Vec<Fact>> {
    prop::collection::vec((0u8..3, 0u8..3, 0u8..3, 0i8..10, 0i8..5, 5u8..10), 12..30)
}

/// A compact fact's terms (`subj{s}`, `pred{p}`, `obj{o}`), interval
/// and confidence.
pub fn spell((s, p, o, start, len, conf): Fact) -> ([String; 3], Interval, f64) {
    let iv = Interval::new(i64::from(start), i64::from(start) + i64::from(len)).unwrap();
    let terms = [format!("subj{s}"), format!("pred{p}"), format!("obj{o}")];
    (terms, iv, f64::from(conf) / 10.0)
}

/// Inserts one compact fact; returns its id.
pub fn insert_fact(graph: &mut UtkGraph, fact: Fact) -> tecore_kg::FactId {
    let ([s, p, o], iv, confidence) = spell(fact);
    graph.insert(&s, &p, &o, iv, confidence).unwrap()
}

pub fn build_graph(facts: &[Fact]) -> UtkGraph {
    let mut graph = UtkGraph::new();
    for &fact in facts {
        insert_fact(&mut graph, fact);
    }
    graph
}

/// One random body atom: each slot is a variable or a constant drawn
/// from the same pools `build_graph` uses, the time slot is a shared
/// variable or a literal window.
pub fn arb_atom() -> impl Strategy<Value = String> {
    (0u8..8, 0u8..5, 0u8..8, 0u8..5).prop_map(|(s, p, o, t)| {
        let subject = if s < 4 {
            format!("a{s}")
        } else {
            format!("subj{}", s - 4)
        };
        let predicate = if p < 4 {
            format!("pred{p}")
        } else {
            "q".into()
        };
        let object = if o < 4 {
            format!("b{o}")
        } else {
            format!("obj{}", o - 4)
        };
        let time = if t < 4 {
            format!("t{t}")
        } else {
            "[2,6]".into()
        };
        format!("quad({subject}, {predicate}, {object}, {time})")
    })
}

const RELATIONS: [&str; 10] = [
    "before", "after", "meets", "overlaps", "during", "contains", "equals", "starts", "disjoint",
    "overlap",
];

/// The raw draws of one formula: body atoms, conditions and consequent
/// as small integers that [`formula_text`] resolves against the
/// variables the body actually binds.
pub type FormulaDraw = (
    Vec<(u8, u8, u8, u8)>,
    Vec<(u8, u8, u8, u8)>,
    (u8, u8, u8, u8, u8),
    bool,
);

pub fn arb_formula() -> impl Strategy<Value = FormulaDraw> {
    (
        prop::collection::vec((0u8..8, 0u8..8, 0u8..8, 0u8..8), 1..4),
        prop::collection::vec((0u8..3, 0u8..10, 0u8..8, 0u8..8), 0..3),
        (0u8..6, 0u8..10, 0u8..8, 0u8..8, 0u8..4),
        prop::bool::ANY,
    )
}

/// Renders a drawn formula. Slots are mostly variables, from pools
/// small enough that atoms share them (so bodies join, and on the
/// dense graphs find groundings); body predicates are mostly the ones
/// the dense graphs hold, a predicate variable, or — so that rules
/// chain — `derived0`, which a deriving consequent over evidence-only
/// bodies produces (`derived1` over a body that reads `derived0`: no
/// recursion). Conditions and consequents only name variables the body
/// binds.
pub fn formula_text(index: usize, (body, conds, consequent, hard): &FormulaDraw) -> String {
    let mut atoms = Vec::new();
    let (mut times, mut entities) = (Vec::new(), Vec::new());
    let (mut open_predicate, mut reads_derived) = (false, false);
    for &(s, p, o, t) in body {
        let slot = |draw: u8, var: String, constant: String, pool: &mut Vec<String>| {
            if draw >= 6 {
                return constant;
            }
            if !pool.contains(&var) {
                pool.push(var.clone());
            }
            var
        };
        let subject = slot(
            s,
            format!("a{}", s % 2),
            format!("subj{}", s % 2),
            &mut entities,
        );
        let object = slot(
            o,
            format!("b{}", o % 3),
            format!("obj{}", o % 2),
            &mut entities,
        );
        let time = slot(t.max(5), format!("t{}", t % 3), "[2,6]".into(), &mut times);
        let predicate = match p {
            0..=2 => "pred0",
            3 | 4 => "pred1",
            5 => "pred2",
            6 => "q",
            _ => "derived0",
        };
        open_predicate |= p == 6;
        reads_derived |= p == 7;
        atoms.push(format!("quad({subject}, {predicate}, {object}, {time})"));
    }
    // Two different bound variables where the body has two; now and
    // then a literal on the right.
    let temporal = |rel: u8, a: u8, b: u8| {
        let n = times.len();
        (n > 0).then(|| {
            let left = usize::from(a) % n;
            let right = match b {
                7 => "[4,7]",
                _ => &times[(left + 1 + usize::from(b) % n.max(2).saturating_sub(1)) % n],
            };
            let relation = RELATIONS[usize::from(rel) % RELATIONS.len()];
            format!("{relation}({}, {right})", times[left])
        })
    };
    let time = |i: u8| match times.len() {
        0 => "[3,9]".to_string(),
        n => times[usize::from(i) % n].clone(),
    };
    let entity = |i: u8| {
        entities
            .get(usize::from(i) % entities.len().max(1))
            .cloned()
    };
    let entity_cmp = |op: u8, a: u8, b: u8| {
        let op = if op.is_multiple_of(2) { "!=" } else { "=" };
        Some(format!("{} {op} {}", entity(a)?, entity(b)?))
    };
    for &(kind, rel, a, b) in conds {
        atoms.extend(match kind {
            0 => entity_cmp(rel, a, b),
            _ => temporal(rel, a, b),
        });
    }
    let (kind, rel, a, b, t) = *consequent;
    let head = match kind {
        0 | 1 => temporal(rel, a, b),
        2 => entity_cmp(rel, a, b),
        3 | 4 if !open_predicate => {
            let predicate = if reads_derived {
                "derived1"
            } else {
                "derived0"
            };
            let subject = entity(a).unwrap_or_else(|| "subj0".into());
            let object = entity(b).unwrap_or_else(|| "obj0".into());
            Some(match t {
                0 => format!("quad({subject}, {predicate}, {object})"),
                1 if times.len() > 1 => {
                    format!(
                        "quad({subject}, {predicate}, {object}, {} ∩ {})",
                        times[0], times[1]
                    )
                }
                _ => format!("quad({subject}, {predicate}, {object}, {})", time(t)),
            })
        }
        _ => None,
    }
    .unwrap_or_else(|| "false".into());
    let weight = if *hard { "inf" } else { "0.75" };
    format!("g{index}: {} -> {head} w = {weight}", atoms.join(" ^ "))
}

/// The shape every shipped constraint has — two atoms joined on the
/// subject — with the temporal test on either side, in a condition or
/// in the consequent: where join orders part ways (two predicates of
/// unequal size: the planner starts at the smaller, the reversed order
/// at the other) and where windows are probed with a converse or a
/// complement. Over one predicate twice it is a self-join: symmetric
/// (and swept) under no condition (an atom then pairs with itself),
/// `y != z` or `overlap` and a symmetric consequent; asymmetric, and
/// joined, under `before` or an asymmetric consequent. A second rule
/// reads what the first may derive. `draw` is `(predicates 0..3 —
/// pred0 then pred1, pred1 then pred0, or pred0 twice — condition
/// 0..6, consequent 0..7)`.
pub fn join_program((predicates, condition, consequent): (u8, usize, usize)) -> String {
    const CONDITIONS: [&str; 6] = [
        "",
        " ^ y != z",
        " ^ overlap(t, t2)",
        " ^ before(t2, t)",
        " ^ before(t, t2)",
        " ^ during(t, t2) ^ y != z",
    ];
    const CONSEQUENTS: [&str; 7] = [
        "false",
        "disjoint(t, t2)",
        "y = z",
        "quad(x, derived0, z, t ∩ t2)",
        "quad(z, derived0, y)",
        "after(t, t2)",
        "meets(t2, t)",
    ];
    let (first, second) = match predicates {
        0 => (0, 1),
        1 => (1, 0),
        _ => (0, 0),
    };
    format!(
        "quad(x, pred{first}, y, t) ^ quad(x, pred{second}, z, t2){} -> {} w = inf\n\
         quad(x, derived0, y, t) ^ quad(x, pred0, z, t2) -> before(t, t2) w = 1.5",
        CONDITIONS[condition], CONSEQUENTS[consequent],
    )
}

pub fn arb_join_program() -> impl Strategy<Value = String> {
    (0u8..3, 0usize..6, 0usize..7).prop_map(join_program)
}

pub fn program_text(formulas: &[FormulaDraw]) -> String {
    formulas
        .iter()
        .enumerate()
        .map(|(i, f)| formula_text(i, f))
        .collect::<Vec<_>>()
        .join("\n")
}

fn render_clause(origin: &str, weight: ClauseWeight, mut lits: Vec<String>) -> String {
    lits.sort();
    let weight = match weight {
        ClauseWeight::Hard => "hard".to_string(),
        ClauseWeight::Soft(w) => format!("{w:.9}"),
    };
    format!("{origin} {weight} {}", lits.join(" ∨ "))
}

/// Canonical live-clause multiset: lits rendered through atom keys so
/// two groundings with different atom id layouts compare equal.
pub fn canonical_clauses(g: &Grounding, dict: &Dictionary) -> Vec<String> {
    let render_atom = |id: AtomId| {
        let a = g.store.atom(id);
        format!(
            "{}|{}|{}|{}",
            dict.resolve(a.subject),
            dict.resolve(a.predicate),
            dict.resolve(a.object),
            a.interval
        )
    };
    let mut out: Vec<String> = g
        .clauses
        .iter()
        .map(|c| {
            let lits = c
                .lits
                .iter()
                .map(|l| {
                    format!(
                        "{}{}",
                        if l.positive { "+" } else { "-" },
                        render_atom(l.atom)
                    )
                })
                .collect();
            let origin = match c.origin {
                ClauseOrigin::Formula(i) => format!("f{i}"),
                ClauseOrigin::Evidence => "ev".into(),
                ClauseOrigin::Prior => "pr".into(),
            };
            render_clause(&origin, c.weight, lits)
        })
        .collect();
    out.sort();
    out
}

/// What a grounding comes down to, for comparison with the naive
/// re-grounder: its formula clauses and its live atoms by kind, all
/// through atom keys, read in `dict`, the grounded graph's.
pub fn summary(g: &Grounding, dict: &Dictionary) -> Summary {
    let key = |a: &tecore_ground::GroundAtom| {
        format!(
            "{}|{}|{}|{}",
            dict.resolve(a.subject),
            dict.resolve(a.predicate),
            dict.resolve(a.object),
            a.interval
        )
    };
    let atoms = |evidence: bool| {
        g.store
            .iter_alive()
            .filter(|(_, a)| a.kind.is_evidence() == evidence)
            .map(|(_, a)| key(a))
            .collect()
    };
    Summary {
        formula_clauses: canonical_clauses(g, dict)
            .into_iter()
            .filter(|c| c.starts_with('f'))
            .collect(),
        evidence: atoms(true),
        hidden: atoms(false),
    }
}

#[derive(Debug, PartialEq)]
pub struct Summary {
    pub formula_clauses: Vec<String>,
    pub evidence: BTreeSet<String>,
    pub hidden: BTreeSet<String>,
}

type Atom = (String, String, String, Interval);

fn atom_key((s, p, o, iv): &Atom) -> String {
    format!("{s}|{p}|{o}|{iv}")
}

/// One formula's variable environment in the naive loop.
#[derive(Default, Clone)]
struct Env {
    entities: HashMap<VarId, String>,
    intervals: HashMap<VarId, Interval>,
}

impl Env {
    fn unify_entity(&mut self, term: &Term, value: &str) -> bool {
        match term {
            Term::Const(c) => c == value,
            Term::Var(v) => self.entities.entry(*v).or_insert_with(|| value.into()) == value,
        }
    }

    fn unify(&mut self, pattern: &QuadAtom, (s, p, o, iv): &Atom) -> bool {
        self.unify_entity(&pattern.subject, s)
            && self.unify_entity(&pattern.predicate, p)
            && self.unify_entity(&pattern.object, o)
            && match &pattern.time {
                None => true,
                Some(TimeTerm::Var(v)) => self.intervals.entry(*v).or_insert(*iv) == iv,
                Some(TimeTerm::Lit(lit)) => lit == iv,
                Some(_) => panic!("the compiler rejects interval expressions in bodies"),
            }
    }

    fn entity(&self, term: &Term) -> Option<String> {
        match term {
            Term::Const(c) => Some(c.clone()),
            Term::Var(v) => self.entities.get(v).cloned(),
        }
    }

    fn entity_cmp(&self, left: &Term, op: CmpOp, right: &Term) -> bool {
        match (self.entity(left), self.entity(right), op) {
            (Some(l), Some(r), CmpOp::Eq) => l == r,
            (Some(l), Some(r), CmpOp::Ne) => l != r,
            _ => false,
        }
    }

    fn condition(&self, c: &Condition) -> bool {
        let lookup = |v: VarId| self.intervals.get(&v).copied();
        match c {
            Condition::Temporal(tc) => tc.eval(&lookup).unwrap_or(false),
            Condition::Numeric(cmp) => cmp.eval(&lookup).unwrap_or(false),
            Condition::EntityCmp { left, op, right } => self.entity_cmp(left, *op, right),
        }
    }
}

/// Every grounding of `f`'s body over `atoms`, the micro-datalog way:
/// nested loops over all atoms, one per body position; the conditions
/// are evaluated on complete groundings and the consequent last. Calls
/// `emit(body atoms, derived head)` for each grounding that yields a
/// clause.
fn naive_groundings(f: &Formula, atoms: &[Atom], emit: &mut dyn FnMut(&[&Atom], Option<Atom>)) {
    fn recurse<'a>(
        f: &Formula,
        atoms: &'a [Atom],
        chosen: &mut Vec<&'a Atom>,
        emit: &mut dyn FnMut(&[&Atom], Option<Atom>),
    ) {
        if chosen.len() < f.body.len() {
            for atom in atoms {
                chosen.push(atom);
                recurse(f, atoms, chosen, emit);
                chosen.pop();
            }
            return;
        }
        let mut env = Env::default();
        if !f
            .body
            .iter()
            .zip(chosen.iter())
            .all(|(p, a)| env.unify(p, a))
            || !f.conditions.iter().all(|c| env.condition(c))
        {
            return;
        }
        let lookup = |v: VarId| env.intervals.get(&v).copied();
        match &f.consequent {
            Consequent::Quad(head) => {
                let interval = match &head.time {
                    Some(t) => t.eval(&lookup),
                    None => {
                        let ivs = chosen.iter().map(|a| a.3);
                        let inter = ivs
                            .clone()
                            .map(Some)
                            .reduce(|a, b| a?.intersection(b?))
                            .flatten();
                        inter.or_else(|| ivs.reduce(Interval::hull))
                    }
                };
                let parts = (
                    env.entity(&head.subject),
                    env.entity(&head.predicate),
                    env.entity(&head.object),
                    interval,
                );
                if let (Some(s), Some(p), Some(o), Some(iv)) = parts {
                    emit(chosen, Some((s, p, o, iv)));
                }
            }
            Consequent::Temporal(tc) if tc.eval(&lookup).unwrap_or(false) => {}
            Consequent::Numeric(cmp) if cmp.eval(&lookup).unwrap_or(false) => {}
            Consequent::EntityCmp { left, op, right } if env.entity_cmp(left, *op, right) => {}
            _ => emit(chosen, None),
        }
    }
    recurse(f, atoms, &mut Vec::new(), emit);
}

/// Grounds `program` over `graph` with no index, no plan, no frontier
/// and no window: derives to fixpoint by re-running every rule over
/// every atom, then reads the clauses off one last pass.
pub fn naive_ground(graph: &UtkGraph, program: &LogicProgram) -> Summary {
    let resolve = |s| graph.dict().resolve(s).to_string();
    let evidence: BTreeSet<Atom> = graph
        .iter()
        .map(|(_, f)| {
            (
                resolve(f.subject),
                resolve(f.predicate),
                resolve(f.object),
                f.interval,
            )
        })
        .collect();
    let mut atoms: Vec<Atom> = evidence.iter().cloned().collect();
    loop {
        let mut derived = Vec::new();
        for f in program.formulas() {
            naive_groundings(f, &atoms, &mut |_, head| derived.extend(head));
        }
        derived.retain(|a| !atoms.contains(a));
        if derived.is_empty() {
            break;
        }
        for atom in derived {
            if !atoms.contains(&atom) {
                atoms.push(atom);
            }
        }
    }
    let mut clauses = BTreeSet::new();
    for (i, f) in program.formulas().iter().enumerate() {
        naive_groundings(f, &atoms, &mut |body, head| {
            let mut lits: BTreeSet<String> =
                body.iter().map(|a| format!("-{}", atom_key(a))).collect();
            if let Some(head) = &head {
                if body.contains(&head) {
                    return; // a ∨ ¬a
                }
                lits.insert(format!("+{}", atom_key(head)));
            }
            let weight = match f.weight {
                Weight::Hard => ClauseWeight::Hard,
                Weight::Soft(w) => ClauseWeight::Soft(w),
            };
            clauses.insert(render_clause(
                &format!("f{i}"),
                weight,
                lits.into_iter().collect(),
            ));
        });
    }
    Summary {
        formula_clauses: clauses.into_iter().collect(),
        hidden: atoms
            .iter()
            .filter(|a| !evidence.contains(a))
            .map(atom_key)
            .collect(),
        evidence: evidence.iter().map(atom_key).collect(),
    }
}
