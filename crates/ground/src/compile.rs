//! Compilation of formulas against a dictionary: constants are interned
//! to symbols, a join order is planned, and conditions are scheduled at
//! the earliest position where their variables are bound.

use tecore_kg::{Dictionary, Symbol};
use tecore_logic::atom::{CmpOp, Comparison, Condition, QuadAtom, TemporalCond};
use tecore_logic::formula::{Consequent, Formula, Weight};
use tecore_logic::term::{Term, TimeTerm, VarId};
use tecore_logic::validate::check_formula;
use tecore_logic::{LogicError, LogicProgram};
use tecore_temporal::Interval;

/// A compiled entity term: variable or interned symbol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CTerm {
    /// Variable slot.
    Var(VarId),
    /// Interned constant.
    Sym(Symbol),
}

/// A compiled body time argument. Bodies only support variables and
/// literals (interval *expressions* appear in heads and conditions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CTime {
    /// Interval variable.
    Var(VarId),
    /// Exact literal interval.
    Lit(Interval),
}

/// A compiled body pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct CPattern {
    /// Subject slot.
    pub subject: CTerm,
    /// Predicate slot.
    pub predicate: CTerm,
    /// Object slot.
    pub object: CTerm,
    /// Optional exact time slot.
    pub time: Option<CTime>,
}

impl CPattern {
    /// Variables introduced by this pattern.
    pub fn vars(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        for t in [&self.subject, &self.predicate, &self.object] {
            if let CTerm::Var(v) = t {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
        }
        if let Some(CTime::Var(v)) = &self.time {
            if !out.contains(v) {
                out.push(*v);
            }
        }
        out
    }

    /// Number of constant slots (selectivity heuristic).
    pub fn const_count(&self) -> usize {
        let mut n = 0;
        for t in [&self.subject, &self.predicate, &self.object] {
            if matches!(t, CTerm::Sym(_)) {
                n += 1;
            }
        }
        if matches!(self.time, Some(CTime::Lit(_))) {
            n += 1;
        }
        n
    }
}

/// A compiled condition.
#[derive(Debug, Clone, PartialEq)]
pub enum CCondition {
    /// Allen relation between time terms.
    Temporal(TemporalCond),
    /// Arithmetic comparison.
    Numeric(Comparison),
    /// Entity (in)equality with interned constants.
    EntityCmp {
        /// Left operand.
        left: CTerm,
        /// `=` or `!=`.
        op: CmpOp,
        /// Right operand.
        right: CTerm,
    },
}

impl CCondition {
    fn vars(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        match self {
            CCondition::Temporal(tc) => {
                tc.left.collect_vars(&mut out);
                tc.right.collect_vars(&mut out);
            }
            CCondition::Numeric(c) => {
                c.left.collect_vars(&mut out);
                c.right.collect_vars(&mut out);
            }
            CCondition::EntityCmp { left, right, .. } => {
                for t in [left, right] {
                    if let CTerm::Var(v) = t {
                        if !out.contains(v) {
                            out.push(*v);
                        }
                    }
                }
            }
        }
        out
    }
}

/// A compiled consequent.
#[derive(Debug, Clone, PartialEq)]
pub enum CConsequent {
    /// Derive a quad (rules, inclusion dependencies). The head time term
    /// is evaluated per grounding; `None` means "default policy"
    /// (intersection of the body intervals, falling back to their hull).
    Quad {
        /// Subject.
        subject: CTerm,
        /// Predicate.
        predicate: CTerm,
        /// Object.
        object: CTerm,
        /// Head time expression.
        time: Option<TimeTerm>,
    },
    /// Temporal check.
    Temporal(TemporalCond),
    /// Entity (in)equality check.
    EntityCmp {
        /// Left operand.
        left: CTerm,
        /// Operator.
        op: CmpOp,
        /// Right operand.
        right: CTerm,
    },
    /// Numeric check.
    Numeric(Comparison),
    /// Denial.
    False,
}

impl CConsequent {
    /// Does this consequent derive atoms (rule-like)?
    pub fn derives(&self) -> bool {
        matches!(self, CConsequent::Quad { .. })
    }
}

/// A formula compiled for grounding.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledFormula {
    /// Index of the source formula in the program.
    pub index: usize,
    /// Source name (`f1`, `c2`, ...).
    pub name: Option<String>,
    /// Weight.
    pub weight: Weight,
    /// Body patterns in source order.
    pub body: Vec<CPattern>,
    /// Join order: a permutation of `0..body.len()`.
    pub join_order: Vec<usize>,
    /// Conditions.
    pub conditions: Vec<CCondition>,
    /// `schedule[k]` lists conditions evaluable after the `k`-th join
    /// step (0-based position in `join_order`).
    pub schedule: Vec<Vec<usize>>,
    /// The delta rules of the body, one per position: `seeded[pos]`
    /// binds `pos` first — from the atoms a delta made new — and joins
    /// the remaining patterns outwards from it.
    pub seeded: Vec<SeededPlan>,
    /// Consequent.
    pub consequent: CConsequent,
    /// Total number of variables in the formula.
    pub n_vars: usize,
}

/// A join order that starts at one fixed body position, with the
/// condition schedule that goes with it (see
/// [`CompiledFormula::seeded`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SeededPlan {
    /// A permutation of `0..body.len()` whose first element is the
    /// seeded position.
    pub order: Vec<usize>,
    /// `schedule[k]` lists the conditions evaluable after step `k` of
    /// `order`.
    pub schedule: Vec<Vec<usize>>,
}

impl SeededPlan {
    /// The plan following `order`.
    pub(crate) fn new(body: &[CPattern], order: Vec<usize>, conditions: &[CCondition]) -> Self {
        let schedule = schedule_conditions(body, &order, conditions);
        SeededPlan { order, schedule }
    }
}

/// A compiled program.
#[derive(Debug, Clone, Default)]
pub struct CompiledProgram {
    /// Compiled formulas, in program order.
    pub formulas: Vec<CompiledFormula>,
}

impl CompiledProgram {
    /// Validates and compiles every formula of `program`, interning
    /// constants into `dict` (head constants may introduce new terms —
    /// e.g. `worksFor`, `TeenPlayer` in the paper's rules).
    pub fn compile(program: &LogicProgram, dict: &mut Dictionary) -> Result<Self, LogicError> {
        let mut formulas = Vec::with_capacity(program.len());
        for (index, f) in program.formulas().iter().enumerate() {
            check_formula(f)?;
            formulas.push(compile_formula(index, f, dict)?);
        }
        Ok(CompiledProgram { formulas })
    }
}

fn compile_term(t: &Term, dict: &mut Dictionary) -> CTerm {
    match t {
        Term::Var(v) => CTerm::Var(*v),
        Term::Const(c) => CTerm::Sym(dict.intern(c)),
    }
}

fn compile_body_time(t: &TimeTerm, f: &Formula) -> Result<CTime, LogicError> {
    match t {
        TimeTerm::Var(v) => Ok(CTime::Var(*v)),
        TimeTerm::Lit(iv) => Ok(CTime::Lit(*iv)),
        TimeTerm::Intersect(..) | TimeTerm::Hull(..) => Err(LogicError::Validation {
            formula: f.name.clone(),
            message: "interval expressions are not allowed in body time positions \
                      (bind a variable and add a condition instead)"
                .into(),
        }),
    }
}

fn compile_formula(
    index: usize,
    f: &Formula,
    dict: &mut Dictionary,
) -> Result<CompiledFormula, LogicError> {
    let mut body = Vec::with_capacity(f.body.len());
    for atom in &f.body {
        body.push(compile_pattern(atom, f, dict)?);
    }
    let conditions: Vec<CCondition> = f
        .conditions
        .iter()
        .map(|c| compile_condition(c, dict))
        .collect();
    let consequent = match &f.consequent {
        Consequent::Quad(q) => CConsequent::Quad {
            subject: compile_term(&q.subject, dict),
            predicate: compile_term(&q.predicate, dict),
            object: compile_term(&q.object, dict),
            time: q.time.clone(),
        },
        Consequent::Temporal(tc) => CConsequent::Temporal(tc.clone()),
        Consequent::EntityCmp { left, op, right } => CConsequent::EntityCmp {
            left: compile_term(left, dict),
            op: *op,
            right: compile_term(right, dict),
        },
        Consequent::Numeric(c) => CConsequent::Numeric(c.clone()),
        Consequent::False => CConsequent::False,
    };

    let join_order = plan_join_order(&body, None);
    let schedule = schedule_conditions(&body, &join_order, &conditions);
    let seeded = (0..body.len())
        .map(|pos| SeededPlan::new(&body, plan_join_order(&body, Some(pos)), &conditions))
        .collect();

    Ok(CompiledFormula {
        index,
        name: f.name.clone(),
        weight: f.weight,
        body,
        join_order,
        conditions,
        schedule,
        seeded,
        consequent,
        n_vars: f.vars.len(),
    })
}

fn compile_pattern(
    atom: &QuadAtom,
    f: &Formula,
    dict: &mut Dictionary,
) -> Result<CPattern, LogicError> {
    Ok(CPattern {
        subject: compile_term(&atom.subject, dict),
        predicate: compile_term(&atom.predicate, dict),
        object: compile_term(&atom.object, dict),
        time: match &atom.time {
            Some(t) => Some(compile_body_time(t, f)?),
            None => None,
        },
    })
}

fn compile_condition(c: &Condition, dict: &mut Dictionary) -> CCondition {
    match c {
        Condition::Temporal(tc) => CCondition::Temporal(tc.clone()),
        Condition::Numeric(cmp) => CCondition::Numeric(cmp.clone()),
        Condition::EntityCmp { left, op, right } => CCondition::EntityCmp {
            left: compile_term(left, dict),
            op: *op,
            right: compile_term(right, dict),
        },
    }
}

/// Greedy join-order planning: start from `first` — or, without one,
/// from the most selective pattern (most constants) — then repeatedly
/// choose the pattern sharing the most already-bound variables
/// (tie-break: more constants, then source order). This keeps joins
/// index-backed: a shared variable means the next lookup can use the
/// subject/object hash indexes.
pub(crate) fn plan_join_order(body: &[CPattern], first: Option<usize>) -> Vec<usize> {
    let n = body.len();
    let mut order = Vec::with_capacity(n);
    let mut used = vec![false; n];
    let mut bound: Vec<VarId> = Vec::new();
    if let Some(first) = first {
        used[first] = true;
        bound = body[first].vars();
        order.push(first);
    }
    while order.len() < n {
        let mut best: Option<(usize, usize, usize)> = None; // (shared, consts, idx)
        for (i, p) in body.iter().enumerate() {
            if used[i] {
                continue;
            }
            let shared = p.vars().iter().filter(|v| bound.contains(v)).count();
            let consts = p.const_count();
            let candidate = (shared, consts, i);
            best = Some(match best {
                None => candidate,
                Some(b) => {
                    // prefer more shared vars, then more constants, then
                    // earlier source position (note: reversed on idx).
                    if (candidate.0, candidate.1, std::cmp::Reverse(candidate.2))
                        > (b.0, b.1, std::cmp::Reverse(b.2))
                    {
                        candidate
                    } else {
                        b
                    }
                }
            });
        }
        let (_, _, idx) = best.expect("non-empty body");
        used[idx] = true;
        for v in body[idx].vars() {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
        order.push(idx);
    }
    order
}

/// Schedules each condition at the earliest join step after which all
/// its variables are bound.
pub(crate) fn schedule_conditions(
    body: &[CPattern],
    join_order: &[usize],
    conditions: &[CCondition],
) -> Vec<Vec<usize>> {
    let mut schedule: Vec<Vec<usize>> = vec![Vec::new(); join_order.len()];
    let mut bound: Vec<VarId> = Vec::new();
    let mut remaining: Vec<usize> = (0..conditions.len()).collect();
    for (step, &pat) in join_order.iter().enumerate() {
        for v in body[pat].vars() {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
        remaining.retain(|&ci| {
            let ready = conditions[ci].vars().iter().all(|v| bound.contains(v));
            if ready {
                schedule[step].push(ci);
            }
            !ready
        });
    }
    debug_assert!(
        remaining.is_empty(),
        "validation guarantees bound conditions"
    );
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use tecore_logic::parser::parse_formula;

    fn compile_one(src: &str) -> (CompiledFormula, Dictionary) {
        let f = parse_formula(src).unwrap();
        let mut dict = Dictionary::new();
        let cf = compile_formula(0, &f, &mut dict).unwrap();
        (cf, dict)
    }

    #[test]
    fn constants_interned_including_head() {
        let (_, dict) =
            compile_one("f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5");
        assert!(dict.lookup("playsFor").is_some());
        assert!(dict.lookup("worksFor").is_some(), "head constant interned");
    }

    #[test]
    fn join_order_prefers_selective_start_and_shared_vars() {
        let (cf, _) = compile_one(
            "quad(x, coach, Chelsea, t) ^ quad(x, coach, z, t') ^ quad(z, locatedIn, w1, t') \
             -> false",
        );
        // Pattern 0 has two constants — starts the join.
        assert_eq!(cf.join_order[0], 0);
        // Pattern 1 shares x with 0; pattern 2 shares z with 1 only.
        assert_eq!(cf.join_order, vec![0, 1, 2]);
    }

    #[test]
    fn every_body_position_gets_a_seeded_plan() {
        let (cf, _) = compile_one(
            "quad(x, coach, Chelsea, t) ^ quad(x, coach, z, t') ^ quad(z, locatedIn, w1, t') \
             ^ z != x -> false",
        );
        assert_eq!(cf.seeded.len(), 3);
        for (pos, plan) in cf.seeded.iter().enumerate() {
            assert_eq!(plan.order[0], pos, "the seeded position binds first");
            let mut sorted = plan.order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "a permutation");
        }
        // Seeded at the last pattern, z is bound first: the join walks
        // back through the shared variables (2 → 1 → 0), and `z != x`
        // runs as soon as pattern 1 has bound x.
        assert_eq!(cf.seeded[2].order, vec![2, 1, 0]);
        assert_eq!(cf.seeded[2].schedule, vec![vec![], vec![0], vec![]]);
    }

    #[test]
    fn conditions_scheduled_at_earliest_step() {
        let (cf, _) = compile_one(
            "c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf",
        );
        // After the 2nd pattern all of y, z are bound: the inequality
        // runs at step 1, not at the end.
        assert!(cf.schedule[1].contains(&0));
        assert!(cf.schedule[0].is_empty());
    }

    #[test]
    fn body_interval_expression_rejected() {
        let f = parse_formula("quad(x, p1, y, t ∩ t') ^ quad(x, p2, y, t') -> false");
        // t ∩ t' in body time position: parseable, but compilation must
        // reject it. (If the parser already rejects it, that's fine too.)
        if let Ok(f) = f {
            let mut dict = Dictionary::new();
            assert!(compile_formula(0, &f, &mut dict).is_err());
        }
    }

    #[test]
    fn compiled_program_full_paper_set() {
        let program = LogicProgram::parse(
            "f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5\n\
             f2: quad(x, worksFor, y, t) ^ quad(y, locatedIn, z, t') ^ overlaps(t, t') \
                 -> quad(x, livesIn, z, t ∩ t') w = 1.6\n\
             c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z \
                 -> disjoint(t, t') w = inf\n",
        )
        .unwrap();
        let mut dict = Dictionary::new();
        let cp = CompiledProgram::compile(&program, &mut dict).unwrap();
        assert_eq!(cp.formulas.len(), 3);
        assert!(cp.formulas[0].consequent.derives());
        assert!(!cp.formulas[2].consequent.derives());
        assert_eq!(cp.formulas[1].body.len(), 2);
    }

    #[test]
    fn pattern_vars_and_consts() {
        let (cf, _) = compile_one("quad(x, coach, Chelsea, [2000,2004]) -> false");
        let p = &cf.body[0];
        assert_eq!(p.vars().len(), 1);
        assert_eq!(p.const_count(), 3);
    }
}
