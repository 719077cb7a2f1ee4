//! Compilation of formulas against a dictionary: constants are looked
//! up as symbols (an engine interns them into its graph's dictionary
//! beforehand, [`intern_constants`]), every join gets an order
//! ([`crate::planner`]'s rule with every count at zero, until the
//! grounder plans against its atom store), and every step of it gets
//! its access path into the atom store, the time window it may probe
//! with, and the checks that become evaluable once it has bound its
//! atom.

use tecore_kg::{Dictionary, Symbol};
use tecore_logic::atom::{CmpOp, Comparison, Condition, QuadAtom, TemporalCond};
use tecore_logic::formula::{Consequent, Formula, Weight};
use tecore_logic::term::{Term, TimeTerm, VarId};
use tecore_logic::validate::check_formula;
use tecore_logic::{LogicError, LogicProgram};
use tecore_temporal::{AllenSet, Interval};

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

/// A test a partial grounding must pass before the join goes on: a
/// body condition, which must hold — or, for a formula that derives
/// nothing, its consequent, which must *fail* (a grounding whose
/// consequent holds emits no clause, so it is no match).
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What is evaluated.
    pub cond: CCondition,
    /// The outcome that lets the grounding through.
    pub holds: bool,
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

    /// The check a body grounding passes when it *violates* this
    /// consequent; `None` when every grounding counts (a derivation,
    /// or a denial).
    fn violated(&self) -> Option<Check> {
        let cond = match self {
            CConsequent::Quad { .. } | CConsequent::False => return None,
            CConsequent::Temporal(tc) => CCondition::Temporal(tc.clone()),
            CConsequent::Numeric(cmp) => CCondition::Numeric(cmp.clone()),
            CConsequent::EntityCmp { left, op, right } => CCondition::EntityCmp {
                left: *left,
                op: *op,
                right: *right,
            },
        };
        Some(Check { cond, holds: false })
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
    /// The body conditions, followed — for a formula that derives
    /// nothing — by the violated consequent. A *match* of the formula
    /// is a body grounding that passes them all, whatever the join
    /// order: for a constraint, a grounding that violates it.
    pub checks: Vec<Check>,
    /// The cold join: every body position, in planned order.
    pub cold: JoinPlan,
    /// The delta rules of the body, one per position: `seeded[pos]`
    /// binds `pos` first — from the atoms a delta made new — and joins
    /// the remaining patterns outwards from it.
    pub seeded: Vec<JoinPlan>,
    /// Consequent.
    pub consequent: CConsequent,
    /// Total number of variables in the formula.
    pub n_vars: usize,
    /// Is this a two-atom formula that derives nothing and that stays
    /// the same when its atoms swap — one variable bijection maps each
    /// pattern onto the other and every check onto an equal one? Its
    /// matches then come in pairs, (a, b) and (b, a), that yield one
    /// clause.
    pub symmetric: bool,
    /// Can two matches of this formula in one round yield one clause
    /// only by binding the same atoms at every position? True when the
    /// formula is symmetric (a match is recorded lower atom id first),
    /// or when its patterns have pairwise distinct constant predicates
    /// (no atom fits two positions). Such a formula's duplicates are
    /// adjacent once a round's matches are sorted.
    pub(crate) duplicate_free: bool,
}

impl CompiledFormula {
    /// The predicate whose `(subject, predicate)` runs hold every match
    /// of this formula, when it is symmetric, its two patterns share a
    /// subject variable and a predicate constant, and its cold join
    /// starts with the predicate's atoms: each match is then a pair of
    /// entries of one run, and round one sweeps the runs instead.
    pub(crate) fn swept_predicate(&self) -> Option<Symbol> {
        let [a, b] = &self.body[..] else {
            return None;
        };
        match (a.subject, a.predicate) {
            (CTerm::Var(_), CTerm::Sym(p))
                if self.symmetric
                    && (b.subject, b.predicate) == (a.subject, a.predicate)
                    && self.cold.steps[0].access == Access::Predicate =>
            {
                Some(p)
            }
            _ => None,
        }
    }
}

/// How a join step finds its candidates in the atom store: through the
/// most selective index whose key the earlier steps (and the pattern's
/// constants) have fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The `(subject, predicate)` posting run.
    SubjectPredicate,
    /// The `(predicate, object)` posting run.
    PredicateObject,
    /// The predicate's id list.
    Predicate,
    /// Every atom.
    Scan,
}

/// A time window a step probes its posting run with: the step binds an
/// interval variable that one of its temporal checks relates to an
/// interval already known, so only entries `e` with
/// `relation.holds(e, anchor)` can pass — all of which meet
/// [`AllenSet::candidate_window`] of the anchor. The check itself still
/// runs on what the window lets through.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// The relation a candidate's interval must bear to the anchor
    /// (converse and complement already applied).
    pub relation: AllenSet,
    /// The known interval: a variable bound by an earlier step, or a
    /// literal.
    pub anchor: CTime,
}

/// One step of a join: which pattern it binds and how.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Body position of the pattern.
    pub pattern: usize,
    /// Where the candidates come from.
    pub access: Access,
    /// The time window to probe a posting run with, if a check of this
    /// step gives one.
    pub window: Option<Window>,
    /// The [`CompiledFormula::checks`] evaluable once this step has
    /// bound its atom (and not before).
    pub checks: Vec<usize>,
    /// The variables this step binds first, as `(variable, is_entity)`
    /// — what backtracking over the step unbinds.
    pub binds: Vec<(VarId, bool)>,
    /// Body positions, bound by earlier steps, whose atom cannot be
    /// this step's: one of the step's checks demands that two
    /// variables differ which sit in the same slot of both patterns
    /// (`y != z` over the two objects of c2, the violated `y = z` of
    /// c3), and one atom would give them one value.
    pub apart: Vec<usize>,
}

/// A join order over a formula's body with everything the enumerator
/// needs per step.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinPlan {
    /// The steps, in join order.
    pub steps: Vec<Step>,
}

impl JoinPlan {
    /// The plan following `order`, a permutation of the body positions.
    pub(crate) fn new(body: &[CPattern], checks: &[Check], order: &[usize]) -> Self {
        let mut bound: Vec<VarId> = Vec::new();
        let mut unscheduled: Vec<usize> = (0..checks.len()).collect();
        let mut steps = Vec::with_capacity(order.len());
        for &pattern in order {
            let p = &body[pattern];
            let known = |t: &CTerm| match t {
                CTerm::Sym(_) => true,
                CTerm::Var(v) => bound.contains(v),
            };
            let access = match (known(&p.subject), known(&p.predicate), known(&p.object)) {
                (true, true, _) => Access::SubjectPredicate,
                (_, true, true) => Access::PredicateObject,
                (_, true, false) => Access::Predicate,
                _ => Access::Scan,
            };
            let time_var = match p.time {
                Some(CTime::Var(v)) => Some(v),
                _ => None,
            };
            let binds: Vec<(VarId, bool)> = p
                .vars()
                .into_iter()
                .filter(|v| !bound.contains(v))
                .map(|v| (v, Some(v) != time_var))
                .collect();
            bound.extend(binds.iter().map(|&(v, _)| v));
            let mut ready = Vec::new();
            unscheduled.retain(|&ci| {
                let now = checks[ci].cond.vars().iter().all(|v| bound.contains(v));
                if now {
                    ready.push(ci);
                }
                !now
            });
            let probes_run = matches!(access, Access::SubjectPredicate | Access::PredicateObject);
            let window = time_var
                .filter(|&t| probes_run && binds.contains(&(t, false)))
                .and_then(|t| ready.iter().find_map(|&ci| window_of(&checks[ci], t)));
            let apart = order[..steps.len()]
                .iter()
                .copied()
                .filter(|&earlier| {
                    ready
                        .iter()
                        .any(|&ci| keeps_apart(&checks[ci], p, &body[earlier]))
                })
                .collect();
            steps.push(Step {
                pattern,
                access,
                window,
                checks: ready,
                binds,
                apart,
            });
        }
        debug_assert!(
            unscheduled.is_empty(),
            "validation guarantees bound conditions"
        );
        JoinPlan { steps }
    }

    /// The body positions in join order.
    pub fn order(&self) -> Vec<usize> {
        self.steps.iter().map(|s| s.pattern).collect()
    }

    /// Does a step after `from` probe the `(predicate, object)` family?
    pub(crate) fn probes_predicate_object(&self, from: usize) -> bool {
        self.steps[from..]
            .iter()
            .any(|s| s.access == Access::PredicateObject)
    }
}

/// Does `check` fail whenever the patterns `a` and `b` bind the same
/// atom? It does when it demands that two variables differ which the
/// two patterns hold in the same slot.
fn keeps_apart(check: &Check, a: &CPattern, b: &CPattern) -> bool {
    let CCondition::EntityCmp { left, op, right } = &check.cond else {
        return false;
    };
    let differ = match op {
        CmpOp::Ne => check.holds,
        CmpOp::Eq => !check.holds,
        _ => return false,
    };
    let (CTerm::Var(_), CTerm::Var(_)) = (left, right) else {
        return false;
    };
    let slots = |p: &CPattern| [p.subject, p.predicate, p.object];
    differ
        && slots(a)
            .iter()
            .zip(slots(b))
            .any(|(&in_a, in_b)| (in_a, in_b) == (*left, *right) || (in_a, in_b) == (*right, *left))
}

/// The window `check` gives a step that binds the interval variable
/// `t`: the check is a temporal one between `t` itself and a variable
/// bound earlier, or a literal.
fn window_of(check: &Check, t: VarId) -> Option<Window> {
    let CCondition::Temporal(tc) = &check.cond else {
        return None;
    };
    let relation = if check.holds {
        tc.relation
    } else {
        tc.relation.complement()
    };
    let anchor = |term: &TimeTerm| match term {
        TimeTerm::Var(v) if *v != t => Some(CTime::Var(*v)),
        TimeTerm::Lit(iv) => Some(CTime::Lit(*iv)),
        _ => None,
    };
    let (relation, anchor) = match (&tc.left, &tc.right) {
        (TimeTerm::Var(v), other) if *v == t => (relation, anchor(other)?),
        (other, TimeTerm::Var(v)) if *v == t => (relation.converse(), anchor(other)?),
        _ => return None,
    };
    Some(Window { relation, anchor })
}

/// A compiled program.
#[derive(Debug, Clone, Default)]
pub struct CompiledProgram {
    /// Compiled formulas, in program order.
    pub formulas: Vec<CompiledFormula>,
}

impl CompiledProgram {
    /// Validates and compiles every formula of `program` against `dict`,
    /// which must hold every constant the program names — head
    /// constants no fact states (`worksFor`, `TeenPlayer` in the paper's
    /// rules) included: see [`intern_constants`]. A constant it lacks is
    /// a [`LogicError::Validation`] naming the constant and its formula.
    pub fn compile(program: &LogicProgram, dict: &Dictionary) -> Result<Self, LogicError> {
        let mut formulas = Vec::with_capacity(program.len());
        for (index, f) in program.formulas().iter().enumerate() {
            check_formula(f)?;
            formulas.push(compile_formula(index, f, dict)?);
        }
        Ok(CompiledProgram { formulas })
    }

    /// Does some join of the program, under its present plans, probe
    /// the atom store's `(predicate, object)` family? (A seeded join
    /// binds its first step from the delta, not from an index.)
    pub(crate) fn probes_predicate_object(&self) -> bool {
        self.formulas.iter().any(|cf| {
            cf.cold.probes_predicate_object(0)
                || cf.seeded.iter().any(|plan| plan.probes_predicate_object(1))
        })
    }
}

/// Interns every constant `program` names into `dict`, in the order
/// [`CompiledProgram::compile`] reads them: formula by formula, the body
/// patterns, then the conditions, then the consequent. An engine calls
/// this on its graph's dictionary whenever it takes a program, so that
/// graph, grounding and resolved views share one numbering.
pub fn intern_constants(program: &LogicProgram, dict: &mut Dictionary) {
    for f in program.formulas() {
        let body = f
            .body
            .iter()
            .flat_map(|a| [&a.subject, &a.predicate, &a.object]);
        let conditions = f.conditions.iter().flat_map(|c| match c {
            Condition::EntityCmp { left, right, .. } => vec![left, right],
            Condition::Temporal(_) | Condition::Numeric(_) => Vec::new(),
        });
        let consequent = match &f.consequent {
            Consequent::Quad(q) => vec![&q.subject, &q.predicate, &q.object],
            Consequent::EntityCmp { left, right, .. } => vec![left, right],
            Consequent::Temporal(_) | Consequent::Numeric(_) | Consequent::False => Vec::new(),
        };
        for term in body.chain(conditions).chain(consequent) {
            if let Term::Const(c) = term {
                dict.intern(c);
            }
        }
    }
}

fn compile_term(t: &Term, f: &Formula, dict: &Dictionary) -> Result<CTerm, LogicError> {
    match t {
        Term::Var(v) => Ok(CTerm::Var(*v)),
        Term::Const(c) => dict
            .lookup(c)
            .map(CTerm::Sym)
            .ok_or_else(|| LogicError::Validation {
                formula: f.name.clone(),
                message: format!(
                    "constant `{c}` is not in the graph's dictionary \
                     (intern the program's constants first: `intern_constants`)"
                ),
            }),
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
    dict: &Dictionary,
) -> Result<CompiledFormula, LogicError> {
    let mut body = Vec::with_capacity(f.body.len());
    for atom in &f.body {
        body.push(compile_pattern(atom, f, dict)?);
    }
    let mut checks = Vec::with_capacity(f.conditions.len());
    for c in &f.conditions {
        checks.push(Check {
            cond: compile_condition(c, f, dict)?,
            holds: true,
        });
    }
    let consequent = match &f.consequent {
        Consequent::Quad(q) => CConsequent::Quad {
            subject: compile_term(&q.subject, f, dict)?,
            predicate: compile_term(&q.predicate, f, dict)?,
            object: compile_term(&q.object, f, dict)?,
            time: q.time.clone(),
        },
        Consequent::Temporal(tc) => CConsequent::Temporal(tc.clone()),
        Consequent::EntityCmp { left, op, right } => CConsequent::EntityCmp {
            left: compile_term(left, f, dict)?,
            op: *op,
            right: compile_term(right, f, dict)?,
        },
        Consequent::Numeric(c) => CConsequent::Numeric(c.clone()),
        Consequent::False => CConsequent::False,
    };

    checks.extend(consequent.violated());

    let (cold, seeded) = crate::planner::unplanned(&body, &checks);
    let symmetric = !consequent.derives() && symmetric(&body, &checks);
    let predicates: Vec<Option<Symbol>> = body
        .iter()
        .map(|p| match p.predicate {
            CTerm::Sym(s) => Some(s),
            CTerm::Var(_) => None,
        })
        .collect();
    let distinct_predicates = predicates
        .iter()
        .enumerate()
        .all(|(i, p)| p.is_some() && !predicates[..i].contains(p));

    Ok(CompiledFormula {
        index,
        name: f.name.clone(),
        weight: f.weight,
        body,
        checks,
        cold,
        seeded,
        consequent,
        n_vars: f.vars.len(),
        symmetric,
        duplicate_free: symmetric || distinct_predicates,
    })
}

/// A variable renaming, as `(variable, image)` pairs; a variable it
/// does not list maps to itself.
type Swap = Vec<(VarId, VarId)>;

/// Does swapping the two atoms of `body` leave the formula unchanged?
/// It does when one variable bijection maps each pattern onto the other
/// (slot by slot: a variable onto a variable, a constant onto itself)
/// and maps every check onto a check that is equal to one of `checks`
/// — itself, or one with its operands exchanged, such as `y != z`
/// against `z != y`, or `disjoint(t, t')` against `disjoint(t', t)` (an
/// Allen set equal to its converse). A numeric test passes only when
/// the swap leaves its variables alone.
fn symmetric(body: &[CPattern], checks: &[Check]) -> bool {
    let [a, b] = body else {
        return false;
    };
    let mut swap = Swap::new();
    let same_slots = [a.subject, a.predicate, a.object]
        .into_iter()
        .zip([b.subject, b.predicate, b.object])
        .all(|pair| match pair {
            (CTerm::Var(u), CTerm::Var(v)) => pair_up(&mut swap, u, v),
            (left, right) => left == right,
        })
        && match (a.time, b.time) {
            (Some(CTime::Var(u)), Some(CTime::Var(v))) => pair_up(&mut swap, u, v),
            (left, right) => left == right,
        };
    same_slots
        && checks.iter().all(|check| {
            let Some(image) = swap_condition(&check.cond, &swap) else {
                return false;
            };
            let flipped = flip(&image);
            checks.iter().any(|c| {
                c.holds == check.holds && (c.cond == image || flipped.as_ref() == Some(&c.cond))
            })
        })
}

/// Adds `u ↦ v` and `v ↦ u` to `swap`; false when either variable
/// already maps elsewhere.
fn pair_up(swap: &mut Swap, u: VarId, v: VarId) -> bool {
    for (from, to) in [(u, v), (v, u)] {
        match swap.iter().find(|&&(k, _)| k == from) {
            Some(&(_, image)) if image != to => return false,
            Some(_) => {}
            None => swap.push((from, to)),
        }
    }
    true
}

fn swap_var(v: VarId, swap: &Swap) -> VarId {
    swap.iter().find(|&&(k, _)| k == v).map_or(v, |&(_, to)| to)
}

fn swap_time(t: &TimeTerm, swap: &Swap) -> TimeTerm {
    match t {
        TimeTerm::Var(v) => TimeTerm::Var(swap_var(*v, swap)),
        TimeTerm::Lit(iv) => TimeTerm::Lit(*iv),
        TimeTerm::Intersect(l, r) => {
            TimeTerm::Intersect(Box::new(swap_time(l, swap)), Box::new(swap_time(r, swap)))
        }
        TimeTerm::Hull(l, r) => {
            TimeTerm::Hull(Box::new(swap_time(l, swap)), Box::new(swap_time(r, swap)))
        }
    }
}

/// `cond` with its variables renamed by `swap`. A numeric test is
/// renamed only when the swap moves none of its variables (`None`
/// otherwise), which is all the symmetry test needs.
fn swap_condition(cond: &CCondition, swap: &Swap) -> Option<CCondition> {
    let term = |t: &CTerm| match t {
        CTerm::Var(v) => CTerm::Var(swap_var(*v, swap)),
        CTerm::Sym(s) => CTerm::Sym(*s),
    };
    Some(match cond {
        CCondition::Temporal(tc) => CCondition::Temporal(TemporalCond {
            relation: tc.relation,
            left: swap_time(&tc.left, swap),
            right: swap_time(&tc.right, swap),
        }),
        CCondition::Numeric(_) => {
            return cond
                .vars()
                .iter()
                .all(|&v| swap_var(v, swap) == v)
                .then(|| cond.clone())
        }
        CCondition::EntityCmp { left, op, right } => CCondition::EntityCmp {
            left: term(left),
            op: *op,
            right: term(right),
        },
    })
}

/// The same condition with its operands exchanged, where there is one:
/// an Allen relation becomes its converse, and `=` / `!=` stay.
fn flip(cond: &CCondition) -> Option<CCondition> {
    match cond {
        CCondition::Temporal(tc) => Some(CCondition::Temporal(TemporalCond {
            relation: tc.relation.converse(),
            left: tc.right.clone(),
            right: tc.left.clone(),
        })),
        CCondition::EntityCmp { left, op, right } if matches!(op, CmpOp::Eq | CmpOp::Ne) => {
            Some(CCondition::EntityCmp {
                left: *right,
                op: *op,
                right: *left,
            })
        }
        _ => None,
    }
}

fn compile_pattern(
    atom: &QuadAtom,
    f: &Formula,
    dict: &Dictionary,
) -> Result<CPattern, LogicError> {
    Ok(CPattern {
        subject: compile_term(&atom.subject, f, dict)?,
        predicate: compile_term(&atom.predicate, f, dict)?,
        object: compile_term(&atom.object, f, dict)?,
        time: match &atom.time {
            Some(t) => Some(compile_body_time(t, f)?),
            None => None,
        },
    })
}

fn compile_condition(
    c: &Condition,
    f: &Formula,
    dict: &Dictionary,
) -> Result<CCondition, LogicError> {
    Ok(match c {
        Condition::Temporal(tc) => CCondition::Temporal(tc.clone()),
        Condition::Numeric(cmp) => CCondition::Numeric(cmp.clone()),
        Condition::EntityCmp { left, op, right } => CCondition::EntityCmp {
            left: compile_term(left, f, dict)?,
            op: *op,
            right: compile_term(right, f, dict)?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tecore_logic::parser::parse_formula;

    fn compile_one(src: &str) -> (CompiledFormula, Dictionary) {
        let mut program = LogicProgram::new();
        program.push(parse_formula(src).unwrap());
        let mut dict = Dictionary::new();
        intern_constants(&program, &mut dict);
        let cf = compile_formula(0, &program.formulas()[0], &dict).unwrap();
        (cf, dict)
    }

    #[test]
    fn constants_interned_including_head() {
        let (_, dict) = compile_one(
            "f1: quad(x, playsFor, y, t) ^ x != Nobody -> quad(x, worksFor, y, t) w = 2.5",
        );
        let terms: Vec<&str> = dict.iter().map(|(_, term)| term).collect();
        assert_eq!(
            terms,
            ["playsFor", "Nobody", "worksFor"],
            "head constant interned"
        );
    }

    #[test]
    fn a_constant_missing_from_the_dictionary_is_named() {
        let f = parse_formula("c9: quad(x, coach, y, t) -> quad(x, Manager, y, t) w = 1").unwrap();
        let mut dict = Dictionary::new();
        dict.intern("coach");
        let err = compile_formula(0, &f, &dict).unwrap_err().to_string();
        assert!(err.contains("`c9`") && err.contains("`Manager`"), "{err}");
    }

    #[test]
    fn join_order_prefers_selective_start_and_shared_vars() {
        let (cf, _) = compile_one(
            "quad(x, coach, Chelsea, t) ^ quad(x, coach, z, t') ^ quad(z, locatedIn, w1, t') \
             -> false",
        );
        // Pattern 0's constants fix its `(predicate, object)` key — it
        // starts the join.
        assert_eq!(cf.cold.order()[0], 0);
        // x fixes pattern 1's key; z, bound by 1, fixes pattern 2's.
        assert_eq!(cf.cold.order(), vec![0, 1, 2]);
    }

    #[test]
    fn every_body_position_gets_a_seeded_plan() {
        let (cf, _) = compile_one(
            "quad(x, coach, Chelsea, t) ^ quad(x, coach, z, t') ^ quad(z, locatedIn, w1, t') \
             ^ z != x -> false",
        );
        assert_eq!(cf.seeded.len(), 3);
        for (pos, plan) in cf.seeded.iter().enumerate() {
            assert_eq!(plan.order()[0], pos, "the seeded position binds first");
            let mut sorted = plan.order();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "a permutation");
        }
        // Seeded at the last pattern, z is bound first: both other
        // patterns then have a fixed `(predicate, object)` key, so
        // position decides (2 → 0 → 1), and `z != x` runs as soon as
        // pattern 0 has bound x.
        assert_eq!(cf.seeded[2].order(), vec![2, 0, 1]);
        let checks: Vec<&[usize]> = cf.seeded[2].steps.iter().map(|s| &s.checks[..]).collect();
        assert_eq!(checks, [&[][..], &[0], &[]]);
    }

    #[test]
    fn conditions_scheduled_at_earliest_step() {
        let (cf, _) = compile_one(
            "c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf",
        );
        // After the 2nd pattern all of y, z are bound: the inequality
        // runs at step 1, not at the end.
        assert!(cf.cold.steps[1].checks.contains(&0));
        assert!(cf.cold.steps[0].checks.is_empty());
    }

    #[test]
    fn violated_consequent_is_a_check_and_gives_the_window() {
        let (cf, _) = compile_one(
            "c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf",
        );
        assert_eq!(cf.checks.len(), 2);
        assert!(cf.checks[0].holds && !cf.checks[1].holds);
        let [first, second] = &cf.cold.steps[..] else {
            panic!("two steps");
        };
        assert_eq!(first.access, Access::Predicate);
        assert_eq!(first.window, None, "an id list has no time order");
        assert_eq!(first.binds.len(), 3);
        // The second atom is found among the subject's coach spells
        // that share time with the first: ¬disjoint = intersects.
        assert_eq!(second.access, Access::SubjectPredicate);
        assert_eq!(second.checks, vec![0, 1]);
        assert_eq!(second.binds.len(), 2, "x is bound already");
        assert_eq!(second.apart, vec![0], "one atom has one object");
        let t = cf.body[0].time;
        assert_eq!(
            second.window,
            Some(Window {
                relation: AllenSet::INTERSECTS,
                anchor: t.unwrap(),
            })
        );
    }

    #[test]
    fn atoms_are_kept_apart_only_by_a_difference_in_one_slot() {
        let apart = |src: &str| compile_one(src).0.cold.steps[1].apart.clone();
        // The violated `y = z` demands y != z: both are objects.
        assert_eq!(
            apart("quad(x, bornIn, y, t) ^ quad(x, bornIn, z, t') ^ overlap(t, t') -> y = z"),
            vec![0]
        );
        // A subject against an object: one atom can hold both values.
        assert!(apart("quad(x, knows, y, t) ^ quad(z, knows, x, t') ^ y != z -> false").is_empty());
        // `y = z` as a condition asks for sameness, and the violated
        // `y != z` too.
        assert!(apart("quad(x, p1, y, t) ^ quad(x, p1, z, t') ^ y = z -> false").is_empty());
        assert!(apart("quad(x, p1, y, t) ^ quad(x, p1, z, t') -> y != z").is_empty());
    }

    #[test]
    fn window_takes_the_converse_when_the_probed_side_is_on_the_right() {
        let (cf, _) = compile_one(
            "quad(x, birthDate, y, t) ^ quad(x, deathDate, z, t') ^ before(t', t) -> false",
        );
        // Seeded at the death: the birth is the step that binds `t`,
        // the right-hand side of `before(t', t)`.
        let birth = &cf.seeded[1].steps[1];
        assert_eq!(birth.pattern, 0);
        let window = birth.window.expect("before(t', t) with t' bound");
        assert_eq!(
            window.relation,
            AllenSet::from_relation(tecore_temporal::AllenRelation::After)
        );
        assert_eq!(Some(window.anchor), cf.body[1].time);
        // A denial has no consequent check.
        assert_eq!(cf.checks.len(), 1);
    }

    #[test]
    fn the_shipped_pair_constraints_are_marked_symmetric() {
        for src in [
            "cSpell: quad(x, playsFor, y, t) ^ quad(x, playsFor, z, t') ^ y != z \
             -> disjoint(t, t') w = inf",
            "cCoach: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z \
             -> disjoint(t, t') w = inf",
            "cBirth: quad(x, birthDate, y, t) ^ quad(x, birthDate, z, t') ^ overlap(t, t') \
             -> y = z w = inf",
            "wSpouse: quad(x, spouse, y, t) ^ quad(x, spouse, z, t') ^ y != z \
             -> disjoint(t, t') w = inf",
            "wPlays: quad(x, playsFor, y, t) ^ quad(x, playsFor, z, t') ^ y != z \
             -> disjoint(t, t') w = inf",
            "wBirth: quad(x, birthDate, y, t) ^ quad(x, birthDate, z, t') ^ overlap(t, t') \
             -> y = z w = inf",
            // Operands written the other way round, and no condition.
            "quad(x, rel, y, t) ^ quad(x, rel, z, t') ^ z != y ^ overlap(t', t) -> false",
            "quad(x, rel, y, t) ^ quad(x, rel, z, t') -> disjoint(t, t')",
        ] {
            let (cf, _) = compile_one(src);
            assert!(cf.symmetric && cf.duplicate_free, "{src}");
            let CTerm::Sym(p) = cf.body[0].predicate else {
                panic!("a constant predicate");
            };
            assert_eq!(cf.swept_predicate(), Some(p), "{src}");
        }
    }

    #[test]
    fn asymmetric_formulas_are_not_marked() {
        for src in [
            // Two predicates: nothing to swap, but no atom fits both
            // positions either.
            "cLife: quad(x, birthDate, y, t) ^ quad(x, deathDate, z, t') ^ before(t', t) \
             -> false w = inf",
            // `before` is not its own converse.
            "quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> before(t, t') w = inf",
            // The head tells the atoms apart — and a rule derives.
            "quad(x, coach, y, t) ^ quad(x, coach, z, t') -> quad(y, succeeds, z, t') w = 1",
            // A numeric test over the swapped intervals.
            "quad(x, rel, y, t) ^ quad(x, rel, z, t') ^ t - t' < 5 -> false",
            // A constant against a variable, and one variable against two.
            "quad(x, rel, Chelsea, t) ^ quad(x, rel, z, t') -> false",
            "quad(x, rel, x, t) ^ quad(x, rel, z, t') -> false",
        ] {
            let (cf, _) = compile_one(src);
            assert!(!cf.symmetric, "{src}");
            assert_eq!(cf.swept_predicate(), None, "{src}");
        }
        let (life, _) = compile_one(
            "quad(x, birthDate, y, t) ^ quad(x, deathDate, z, t') ^ before(t', t) -> false",
        );
        assert!(life.duplicate_free, "distinct constant predicates");
        let (rule, _) =
            compile_one("quad(x, rel, y, t) ^ quad(x, rel, z, t') -> quad(y, derived, z, t)");
        assert!(!rule.duplicate_free, "one predicate twice");
    }

    #[test]
    fn a_pair_over_two_subjects_is_symmetric_but_not_swept() {
        // x and y swap places: the swap maps each pattern onto the
        // other, but the second atom is not in the first one's run.
        let (cf, _) = compile_one("quad(x, knows, y, t) ^ quad(y, knows, x, t') -> false");
        assert!(cf.symmetric);
        assert_eq!(cf.swept_predicate(), None);
    }

    #[test]
    fn body_interval_expression_rejected() {
        let f = parse_formula("quad(x, p1, y, t ∩ t') ^ quad(x, p2, y, t') -> false");
        // t ∩ t' in body time position: parseable, but compilation must
        // reject it. (If the parser already rejects it, that's fine too.)
        if let Ok(f) = f {
            let mut dict = Dictionary::new();
            dict.intern("p1");
            dict.intern("p2");
            assert!(compile_formula(0, &f, &dict).is_err());
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
        intern_constants(&program, &mut dict);
        let cp = CompiledProgram::compile(&program, &dict).unwrap();
        assert_eq!(cp.formulas.len(), 3);
        assert!(cp.formulas[0].consequent.derives());
        assert!(!cp.formulas[2].consequent.derives());
        assert_eq!(cp.formulas[1].body.len(), 2);
    }

    #[test]
    fn pattern_vars_and_consts() {
        let (cf, _) = compile_one("quad(x, coach, Chelsea, [2000,2004]) -> false");
        let p = &cf.body[0];
        assert_eq!(p.vars(), vec![VarId(0)]);
        assert!(matches!(
            (p.predicate, p.object, p.time),
            (CTerm::Sym(_), CTerm::Sym(_), Some(CTime::Lit(_)))
        ));
    }
}
