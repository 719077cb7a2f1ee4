//! Full (semi-naive) grounding of a program against a uTKG.

use std::fmt;
use std::time::{Duration, Instant};

use tecore_kg::fxhash::{FxHashMap, FxHashSet};
use tecore_kg::{Dictionary, FactId, Symbol, UtkGraph};
use tecore_logic::atom::CmpOp;
use tecore_logic::formula::Weight;
use tecore_logic::term::{TimeTerm, VarId};
use tecore_logic::{LogicError, LogicProgram};
use tecore_temporal::Interval;

use crate::atoms::{AtomId, AtomStore};
use crate::bindings::Bindings;
use crate::clause::{ClauseOrigin, ClauseStore, ClauseWeight, GroundClause, Lit};
use crate::compile::{
    CCondition, CConsequent, CPattern, CTerm, CTime, CompiledFormula, CompiledProgram,
};
use crate::planner::{self, FormulaPlan, JoinPlanner};

/// Closed-world prior weight on hidden atoms (soft unit clause `¬h`).
/// Keeps unsupported derivations false in the MAP state.
const HIDDEN_PRIOR: f64 = 0.05;

/// Safety valve on semi-naive rounds (rule-chain depth).
pub(crate) const MAX_ROUNDS: usize = 16;

/// On incremental deltas, re-plan join orders when some predicate's
/// fact count has drifted by more than this relative fraction since
/// the current plans were chosen (cost-based planner only).
pub(crate) const REPLAN_DRIFT: f64 = 0.5;

/// Grounding configuration.
#[derive(Debug, Clone, Default)]
pub struct GroundConfig {
    /// Pin confidence-1 facts as hard evidence (default: `false`, so a
    /// conflict between two "certain" facts stays resolvable).
    pub pin_certain: bool,
    /// Join-order planner: cost-based over live cardinality statistics
    /// (default), or the compiler's syntactic heuristic. Either choice
    /// grounds the same clause multiset; only the enumeration work
    /// differs.
    pub planner: JoinPlanner,
}

/// Statistics of one grounding run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroundingStats {
    /// Semi-naive rounds executed.
    pub rounds: usize,
    /// Total body matches found (before consequent evaluation).
    pub body_matches: usize,
    /// Ground clauses emitted (excluding evidence units and priors).
    pub formula_clauses: usize,
    /// Evidence atoms created.
    pub evidence_atoms: usize,
    /// Hidden atoms created.
    pub hidden_atoms: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
}

impl fmt::Display for GroundingStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "grounding: {} rounds, {} matches, {} formula clauses, \
             {} evidence atoms, {} hidden atoms, {:?}",
            self.rounds,
            self.body_matches,
            self.formula_clauses,
            self.evidence_atoms,
            self.hidden_atoms,
            self.elapsed
        )
    }
}

/// The result of grounding: the ground weighted program both backends
/// consume.
///
/// A `Grounding` is a *persistent* structure: besides the clause
/// program it carries a fact→atom→clause dependency index (materialised
/// lazily on the first delta — batch resolves never build it), so
/// [`Grounding::apply_delta`](crate::incremental) can consume a
/// [`tecore_kg::Delta`] and update the materialisation in place —
/// re-running the binding search only around the changed facts — rather
/// than re-grounding the whole graph.
#[derive(Debug, Clone)]
pub struct Grounding {
    /// All ground atoms.
    pub store: AtomStore,
    /// All ground clauses (formula groundings + evidence units +
    /// priors), held in one flat CSR arena shared zero-copy with every
    /// backend. Invariant: every live clause references live atoms
    /// only.
    pub clauses: ClauseStore,
    /// Dictionary covering the graph *and* head constants.
    pub dict: Dictionary,
    /// The compiled program (what deltas re-match and explanations
    /// name constraints from).
    pub program: CompiledProgram,
    /// Evidence fact → atom mapping.
    pub fact_atoms: FxHashMap<FactId, AtomId>,
    /// Run statistics.
    pub stats: GroundingStats,
    /// Graph epoch this grounding materialises.
    pub(crate) epoch: u64,
    /// Formula-clause dedup signatures (kept so deltas never re-emit a
    /// live clause).
    pub(crate) seen: FxHashSet<(usize, Vec<Lit>)>,
    /// atom id → clause ids of every clause naming it. Built lazily on
    /// the first `apply_delta` (see `Grounding::ensure_dep_index`):
    /// batch resolves never pay for it.
    pub(crate) atom_clauses: Vec<Vec<u32>>,
    /// atom id → number of live formula clauses deriving it (positive
    /// head literal); a hidden atom dies when this reaches zero. Built
    /// together with `atom_clauses`.
    pub(crate) support: Vec<u32>,
    /// Has the dependency index been materialised yet?
    pub(crate) dep_built: bool,
    /// Conflict-component index over the clause arena. Like the
    /// dependency index it is created lazily — on the first component
    /// partition — and told of every emission and retraction by the
    /// incremental paths from then on; monolithic solves never pay for
    /// it.
    pub(crate) components: Option<crate::component::ComponentIndex>,
    /// The join plan each formula was grounded with (chosen order,
    /// estimated vs observed match counts) — surfaced via
    /// `DebugStats::plans`.
    pub plans: Vec<FormulaPlan>,
    /// Per-predicate fact counts at plan time; incremental deltas
    /// re-plan when the live counts drift too far from this
    /// (`REPLAN_DRIFT`).
    pub(crate) plan_fingerprint: Vec<(Symbol, usize)>,
    /// What deltas changed since the consumer last took it (see
    /// [`Grounding::take_changes`]).
    pub(crate) changes: crate::incremental::DeltaChanges,
}

impl Grounding {
    /// Number of ground atoms (solver variables); dead atoms keep their
    /// slot so assignment vectors stay index-stable across deltas.
    pub fn num_atoms(&self) -> usize {
        self.store.len()
    }

    /// The graph epoch this grounding reflects.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The **full** conflict-component partition of the live clauses
    /// (see [`ComponentIndex::partition`](crate::ComponentIndex)),
    /// creating the index on first use — with every atom flagged, so
    /// every component reads dirty. What a cold component-wise solve
    /// runs; [`Grounding::commit_components`] closes it.
    pub fn partition_components(&mut self) -> crate::component::Partition {
        let index = self.components.get_or_insert_with(Default::default);
        // Deltas may have interned atoms the incremental hooks never
        // mentioned (e.g. clause-free ones); the store count is the
        // authoritative width.
        index.ensure_atoms(self.store.len());
        index.partition(&self.clauses)
    }

    /// The components a delta touched since the last
    /// [`Grounding::commit_components`], and only those: a walk from
    /// the flagged atoms through the atom → clause dependency index
    /// (see [`ComponentIndex::partition_dirty`](crate::ComponentIndex)).
    /// What a warm solve runs. Without an index yet everything is
    /// flagged, and this is the full pass.
    pub fn partition_dirty_components(&mut self) -> crate::component::Partition {
        self.ensure_dep_index();
        match &mut self.components {
            Some(index) => {
                index.ensure_atoms(self.store.len());
                index.partition_dirty(&self.clauses, &self.atom_clauses)
            }
            None => self.partition_components(),
        }
    }

    /// Closes a partition pass once `world` — the merged MAP
    /// assignment — holds the solution of every component of
    /// `partition`: their cost and hard violations enter the ledger and
    /// every component reads clean. Returns cost and hard violations of
    /// `world` over the whole arena, summed from the ledger.
    pub fn commit_components(
        &mut self,
        partition: &crate::component::Partition,
        world: &[bool],
    ) -> (f64, usize) {
        match &mut self.components {
            Some(index) => index.commit(partition, &self.clauses, world),
            None => crate::solver::evaluate_world(&self.clauses, world),
        }
    }

    /// Drops the component index. A monolithic solve may move any atom,
    /// which voids every per-component account; the next component-wise
    /// solve starts from a fresh index (everything flagged).
    pub fn drop_component_index(&mut self) {
        self.components = None;
    }

    /// The component index, if one has been materialised (tests and
    /// diagnostics).
    pub fn component_index(&self) -> Option<&crate::component::ComponentIndex> {
        self.components.as_ref()
    }
}

/// Grounds `program` against `graph`.
pub fn ground(
    graph: &UtkGraph,
    program: &LogicProgram,
    config: &GroundConfig,
) -> Result<Grounding, LogicError> {
    let start = Instant::now();
    let mut dict = graph.dict().clone();
    let mut compiled = CompiledProgram::compile(program, &mut dict)?;
    // Re-plan join orders from the graph's live cardinalities before
    // any matching happens. Any plan grounds the same clause multiset
    // (the frontier discipline and clause dedup are keyed on body
    // positions, not join steps), so this only moves work.
    let mut plans = planner::plan_program(&mut compiled, graph.cardinalities(), config.planner);
    let plan_fingerprint = planner::fingerprint(graph.cardinalities());

    let mut store = AtomStore::new();
    let mut fact_atoms = FxHashMap::with_capacity_and_hasher(graph.len(), Default::default());
    for (fid, fact) in graph.iter() {
        let id = store.intern_evidence(
            fact.subject,
            fact.predicate,
            fact.object,
            fact.interval,
            fact.confidence.log_odds(),
            fid,
        );
        fact_atoms.insert(fid, id);
    }
    let evidence_atoms = store.len();

    let mut clauses = ClauseStore::with_capacity(graph.len() * 2, graph.len() * 2);
    let mut seen: FxHashSet<(usize, Vec<Lit>)> = FxHashSet::default();
    let mut stats = GroundingStats {
        evidence_atoms,
        ..GroundingStats::default()
    };

    // Semi-naive fixpoint over the formulas.
    let mut delta_start = 0usize;
    loop {
        stats.rounds += 1;
        if stats.rounds > MAX_ROUNDS {
            break;
        }
        let horizon = store.len();
        if delta_start >= horizon {
            break;
        }
        // Buffered matches: (formula idx, body atoms, head key). The
        // store is frozen while the formulas are matched in order; head
        // atoms are interned only once every match is collected.
        let mut pending: Vec<(usize, Vec<AtomId>, Option<HeadKey>)> = Vec::new();
        for cf in &compiled.formulas {
            let mut matches = 0usize;
            for delta_pos in 0..cf.body.len() {
                enumerate_matches(
                    &store,
                    cf,
                    horizon,
                    Frontier::Range {
                        start: delta_start,
                        pos: delta_pos,
                    },
                    &mut |chosen, bindings| {
                        matches += 1;
                        collect_match(cf, chosen, bindings, &store, &mut pending);
                    },
                );
            }
            stats.body_matches += matches;
            plans[cf.index].actual_matches += matches;
        }
        // Apply buffered matches: intern head atoms, emit clauses.
        for (fidx, body_atoms, head) in pending {
            let cf = &compiled.formulas[fidx];
            let mut lits: Vec<Lit> = body_atoms.iter().map(|&a| Lit::neg(a)).collect();
            if let Some(key) = head {
                let (head_id, _new) =
                    store.intern_hidden(key.subject, key.predicate, key.object, key.interval);
                lits.push(Lit::pos(head_id));
            }
            let weight = match cf.weight {
                Weight::Hard => ClauseWeight::Hard,
                Weight::Soft(w) => ClauseWeight::Soft(w),
            };
            if let Some(clause) = GroundClause::new(lits, weight, ClauseOrigin::Formula(fidx)) {
                if seen.insert((fidx, clause.lits.clone())) {
                    stats.formula_clauses += 1;
                    clauses.push(clause);
                }
            }
        }
        if store.len() == horizon {
            break; // no new atoms: no new matches possible next round
        }
        delta_start = horizon;
    }

    // Evidence unit clauses — emitted straight into the arena (no
    // per-clause `Vec<Lit>` intermediates).
    for (id, atom) in store.iter() {
        if let crate::atoms::AtomKind::Evidence { log_odds, .. } = &atom.kind {
            let (lit, weight) = evidence_unit(id, *log_odds, config);
            clauses.push_lits(&[lit], weight, ClauseOrigin::Evidence);
        }
    }
    // Closed-world priors on hidden atoms.
    for (id, atom) in store.iter() {
        if !atom.kind.is_evidence() {
            let (lit, weight) = prior_unit(id);
            clauses.push_lits(&[lit], weight, ClauseOrigin::Prior);
        }
    }

    stats.hidden_atoms = store.hidden_count();
    stats.elapsed = start.elapsed();
    // The atom→clause dependency index (what apply_delta walks to
    // retract exactly the clauses a changed fact touches) is *not*
    // built here: batch resolves never use it, so it materialises
    // lazily on the first delta (`Grounding::ensure_dep_index`).
    Ok(Grounding {
        store,
        clauses,
        dict,
        program: compiled,
        fact_atoms,
        stats,
        epoch: graph.epoch(),
        seen,
        atom_clauses: Vec::new(),
        support: Vec::new(),
        dep_built: false,
        components: None,
        plans,
        plan_fingerprint,
        changes: Default::default(),
    })
}

/// The soft (or pinned-hard) unit clause encoding one evidence atom's
/// combined confidence — shared by the batch grounder and the
/// incremental delta path. Returned as raw parts so both callers emit
/// straight into the [`ClauseStore`] arena.
pub(crate) fn evidence_unit(
    id: AtomId,
    log_odds: f64,
    config: &GroundConfig,
) -> (Lit, ClauseWeight) {
    if config.pin_certain && log_odds >= 20.0 {
        return (Lit::pos(id), ClauseWeight::Hard);
    }
    // A confidence of exactly 0.5 has log-odds 0; keep a positive bias
    // strictly larger than the hidden-atom prior so the MAP state never
    // deletes an uninformative fact gratuitously (removed facts are
    // reported as conflicts, and "keep the fact plus its rule
    // derivations" must beat "silently drop it").
    if log_odds.abs() <= 1e-9 {
        (
            Lit::pos(id),
            ClauseWeight::Soft((4.0 * HIDDEN_PRIOR).max(0.2)),
        )
    } else if log_odds > 0.0 {
        (Lit::pos(id), ClauseWeight::Soft(log_odds))
    } else {
        (Lit::neg(id), ClauseWeight::Soft(-log_odds))
    }
}

/// The closed-world prior unit clause on a hidden atom.
pub(crate) fn prior_unit(id: AtomId) -> (Lit, ClauseWeight) {
    (Lit::neg(id), ClauseWeight::Soft(HIDDEN_PRIOR))
}

/// Ground key of a pending head atom.
pub(crate) struct HeadKey {
    pub(crate) subject: Symbol,
    pub(crate) predicate: Symbol,
    pub(crate) object: Symbol,
    pub(crate) interval: Interval,
}

/// Evaluates the consequent for a completed body match and records the
/// resulting pending clause (if any).
pub(crate) fn collect_match(
    cf: &CompiledFormula,
    chosen: &[AtomId],
    bindings: &Bindings,
    store: &AtomStore,
    pending: &mut Vec<(usize, Vec<AtomId>, Option<HeadKey>)>,
) {
    match &cf.consequent {
        CConsequent::Quad {
            subject,
            predicate,
            object,
            time,
        } => {
            let s = resolve_entity(subject, bindings);
            let p = resolve_entity(predicate, bindings);
            let o = resolve_entity(object, bindings);
            let (Some(s), Some(p), Some(o)) = (s, p, o) else {
                return;
            };
            let interval = match head_time(time.as_ref(), bindings, chosen, store) {
                Some(iv) => iv,
                None => return, // empty intersection: no derivation
            };
            pending.push((
                cf.index,
                chosen.to_vec(),
                Some(HeadKey {
                    subject: s,
                    predicate: p,
                    object: o,
                    interval,
                }),
            ));
        }
        other => {
            if !consequent_holds(other, bindings) {
                pending.push((cf.index, chosen.to_vec(), None));
            }
        }
    }
}

/// Default head-time policy: explicit expression if present, otherwise
/// the intersection of the body intervals, otherwise their hull.
fn head_time(
    time: Option<&TimeTerm>,
    bindings: &Bindings,
    chosen: &[AtomId],
    store: &AtomStore,
) -> Option<Interval> {
    if let Some(t) = time {
        return t.eval(&|v: VarId| bindings.interval(v));
    }
    let mut iter = chosen.iter().map(|&a| store.atom(a).interval);
    let first = iter.next()?;
    let mut inter = Some(first);
    let mut hull = first;
    for iv in iter {
        inter = inter.and_then(|i| i.intersection(iv));
        hull = hull.hull(iv);
    }
    Some(inter.unwrap_or(hull))
}

/// Evaluates a non-deriving consequent under complete bindings.
fn consequent_holds(c: &CConsequent, bindings: &Bindings) -> bool {
    match c {
        CConsequent::Quad { .. } => unreachable!("deriving consequent"),
        CConsequent::Temporal(tc) => tc.eval(&|v| bindings.interval(v)).unwrap_or(false),
        CConsequent::Numeric(cmp) => cmp.eval(&|v| bindings.interval(v)).unwrap_or(false),
        CConsequent::EntityCmp { left, op, right } => {
            match (
                resolve_entity(left, bindings),
                resolve_entity(right, bindings),
            ) {
                (Some(l), Some(r)) => match op {
                    CmpOp::Eq => l == r,
                    CmpOp::Ne => l != r,
                    _ => false,
                },
                _ => false,
            }
        }
        CConsequent::False => false,
    }
}

#[inline]
fn resolve_entity(t: &CTerm, bindings: &Bindings) -> Option<Symbol> {
    match t {
        CTerm::Sym(s) => Some(*s),
        CTerm::Var(v) => bindings.entity(*v),
    }
}

/// Evaluates one scheduled condition.
fn eval_condition(c: &CCondition, bindings: &Bindings) -> bool {
    match c {
        CCondition::Temporal(tc) => tc.eval(&|v| bindings.interval(v)).unwrap_or(false),
        CCondition::Numeric(cmp) => cmp.eval(&|v| bindings.interval(v)).unwrap_or(false),
        CCondition::EntityCmp { left, op, right } => {
            match (
                resolve_entity(left, bindings),
                resolve_entity(right, bindings),
            ) {
                (Some(l), Some(r)) => match op {
                    CmpOp::Eq => l == r,
                    CmpOp::Ne => l != r,
                    _ => false,
                },
                _ => false,
            }
        }
    }
}

/// The semi-naive "at least one new atom" discipline for one
/// enumeration pass.
///
/// A match is admitted when body position `pos` binds a *new* atom
/// while every body position before `pos` binds an *old* one — run once
/// per body position, this produces each new match exactly once. What
/// "new" means is the variants' difference: the batch grounder's rounds
/// append atoms, so newness is an id range; the incremental delta path
/// revives atoms at arbitrary old ids, so newness is a list.
#[derive(Clone, Copy)]
enum Frontier<'a> {
    /// New = atoms with `id >= start` (batch semi-naive rounds).
    Range { start: usize, pos: usize },
    /// New = the atoms listed in `new`, ascending (incremental deltas).
    /// Position `pos` is never looked up: [`enumerate_seeded`] binds it
    /// from `new` directly, so only the positions before it are tested.
    Seeded { new: &'a [AtomId], pos: usize },
}

impl Frontier<'_> {
    /// May `id` occupy body position `pat_idx` under this discipline?
    #[inline]
    fn admits(&self, pat_idx: usize, id: AtomId) -> bool {
        match *self {
            Frontier::Range { start, pos } => {
                let is_new = id.index() >= start;
                if pat_idx == pos {
                    is_new
                } else {
                    pat_idx > pos || !is_new
                }
            }
            Frontier::Seeded { new, pos } => pat_idx >= pos || new.binary_search(&id).is_err(),
        }
    }
}

/// Enumerates all body matches of `cf` against `store`, following the
/// formula's cold join order.
///
/// * `horizon` — only atoms with `id < horizon` participate (atoms
///   created during the current round are next round's delta);
/// * `frontier` — the semi-naive newness discipline (see [`Frontier`]).
fn enumerate_matches(
    store: &AtomStore,
    cf: &CompiledFormula,
    horizon: usize,
    frontier: Frontier<'_>,
    on_match: &mut dyn FnMut(&[AtomId], &Bindings),
) {
    let join = Join {
        store,
        cf,
        order: &cf.join_order,
        schedule: &cf.schedule,
        horizon,
        frontier,
        filter: None,
    };
    join.descend(0, &mut Search::new(cf), on_match);
}

/// The delta rule of body position `pos`: enumerates the matches that
/// bind one of the `new` atoms (ascending ids) at `pos` and old atoms
/// at every position before it, by binding `pos` *first* — once per new
/// atom — and joining the other patterns outwards through the store's
/// indexes in the formula's seeded order. The work follows the new
/// atoms and their join partners, not the predicate extensions.
///
/// Returns the number of candidate atoms examined. `filter` is used by
/// the incremental path to skip dead atoms.
pub(crate) fn enumerate_seeded(
    store: &AtomStore,
    cf: &CompiledFormula,
    horizon: usize,
    new: &[AtomId],
    pos: usize,
    filter: Option<&dyn Fn(AtomId) -> bool>,
    on_match: &mut dyn FnMut(&[AtomId], &Bindings),
) -> usize {
    let plan = &cf.seeded[pos];
    let join = Join {
        store,
        cf,
        order: &plan.order,
        schedule: &plan.schedule,
        horizon,
        frontier: Frontier::Seeded { new, pos },
        filter,
    };
    let mut search = Search::new(cf);
    for &seed in new {
        join.visit(0, seed, &mut search, on_match);
    }
    search.examined
}

/// One enumeration pass: what is joined, in which order, under which
/// admission rules.
struct Join<'a> {
    store: &'a AtomStore,
    cf: &'a CompiledFormula,
    /// Body positions in join order, with the condition schedule
    /// computed for that order.
    order: &'a [usize],
    schedule: &'a [Vec<usize>],
    horizon: usize,
    frontier: Frontier<'a>,
    filter: Option<&'a dyn Fn(AtomId) -> bool>,
}

/// The mutable state of one enumeration pass.
struct Search {
    bindings: Bindings,
    /// Indexed by body position (not join step).
    chosen: Vec<AtomId>,
    /// Candidate atoms looked at so far.
    examined: usize,
}

impl Search {
    fn new(cf: &CompiledFormula) -> Self {
        Search {
            bindings: Bindings::new(cf.n_vars),
            chosen: vec![AtomId(0); cf.body.len()],
            examined: 0,
        }
    }
}

impl Join<'_> {
    fn descend(
        &self,
        step: usize,
        search: &mut Search,
        on_match: &mut dyn FnMut(&[AtomId], &Bindings),
    ) {
        if step == self.order.len() {
            on_match(&search.chosen, &search.bindings);
            return;
        }
        let pattern = &self.cf.body[self.order[step]];

        // Candidate list via the most selective available index.
        let s = resolve_entity(&pattern.subject, &search.bindings);
        let p = resolve_entity(&pattern.predicate, &search.bindings);
        let o = resolve_entity(&pattern.object, &search.bindings);
        let candidates: Candidates = match (s, p, o) {
            (Some(s), Some(p), _) => Candidates::Slice(self.store.with_subject_predicate(s, p)),
            (_, Some(p), Some(o)) => Candidates::Slice(self.store.with_predicate_object(p, o)),
            (_, Some(p), None) => Candidates::Slice(self.store.with_predicate(p)),
            _ => Candidates::Range(0..self.store.len() as u32),
        };
        match candidates {
            Candidates::Slice(ids) => {
                for &id in ids {
                    self.visit(step, id, search, on_match);
                }
            }
            Candidates::Range(r) => {
                for raw in r {
                    self.visit(step, AtomId(raw), search, on_match);
                }
            }
        }
    }

    /// Tries `id` at join step `step` and, if it is admitted, matches
    /// the pattern and passes the step's conditions, joins on from it.
    #[inline]
    fn visit(
        &self,
        step: usize,
        id: AtomId,
        search: &mut Search,
        on_match: &mut dyn FnMut(&[AtomId], &Bindings),
    ) {
        search.examined += 1;
        let pat_idx = self.order[step];
        if id.index() >= self.horizon
            || !self.frontier.admits(pat_idx, id)
            || self.filter.is_some_and(|f| !f(id))
        {
            return;
        }
        let Some(undo) = try_match(
            &self.cf.body[pat_idx],
            self.store.atom(id),
            &mut search.bindings,
        ) else {
            return;
        };
        let ok = self.schedule[step]
            .iter()
            .all(|&ci| eval_condition(&self.cf.conditions[ci], &search.bindings));
        if ok {
            search.chosen[pat_idx] = id;
            self.descend(step + 1, search, on_match);
        }
        undo_bindings(&mut search.bindings, &undo);
    }
}

enum Candidates<'a> {
    Slice(&'a [AtomId]),
    Range(std::ops::Range<u32>),
}

/// Binding undo log: `(var, was_entity)` entries for fresh bindings.
type Undo = Vec<(VarId, bool)>;

fn try_match(
    pattern: &CPattern,
    atom: &crate::atoms::GroundAtom,
    bindings: &mut Bindings,
) -> Option<Undo> {
    let mut undo: Undo = Vec::with_capacity(4);
    let bind_entity = |term: &CTerm, value: Symbol, b: &mut Bindings, undo: &mut Undo| -> bool {
        match term {
            CTerm::Sym(s) => *s == value,
            CTerm::Var(v) => {
                if b.entity(*v).is_none() {
                    undo.push((*v, true));
                }
                b.bind_entity(*v, value)
            }
        }
    };
    let ok = bind_entity(&pattern.subject, atom.subject, bindings, &mut undo)
        && bind_entity(&pattern.predicate, atom.predicate, bindings, &mut undo)
        && bind_entity(&pattern.object, atom.object, bindings, &mut undo)
        && match &pattern.time {
            None => true,
            Some(CTime::Lit(iv)) => *iv == atom.interval,
            Some(CTime::Var(v)) => {
                if bindings.interval(*v).is_none() {
                    undo.push((*v, false));
                }
                bindings.bind_interval(*v, atom.interval)
            }
        };
    if ok {
        Some(undo)
    } else {
        undo_bindings(bindings, &undo);
        None
    }
}

fn undo_bindings(bindings: &mut Bindings, undo: &Undo) {
    for &(v, is_entity) in undo {
        if is_entity {
            bindings.unbind_entity(v);
        } else {
            bindings.unbind_interval(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tecore_kg::parser::parse_graph;

    const RANIERI: &str = "\
        (CR, coach, Chelsea, [2000,2004]) 0.9\n\
        (CR, coach, Leicester, [2015,2017]) 0.7\n\
        (CR, playsFor, Palermo, [1984,1986]) 0.5\n\
        (CR, birthDate, 1951, [1951,2017]) 1.0\n\
        (CR, coach, Napoli, [2001,2003]) 0.6\n";

    const PAPER_PROGRAM: &str = "\
        f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5\n\
        f2: quad(x, worksFor, y, t) ^ quad(y, locatedIn, z, t') ^ overlaps(t, t') \
            -> quad(x, livesIn, z, t ∩ t') w = 1.6\n\
        f3: quad(x, playsFor, y, t) ^ quad(x, birthDate, z, t') ^ t - t' < 20 \
            -> quad(x, type, TeenPlayer) w = 2.9\n\
        c1: quad(x, birthDate, y, t) ^ quad(x, deathDate, z, t') -> before(t, t') w = inf\n\
        c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf\n\
        c3: quad(x, bornIn, y, t) ^ quad(x, bornIn, z, t') ^ overlap(t, t') -> y = z w = inf\n";

    fn ground_paper() -> Grounding {
        let graph = parse_graph(RANIERI).unwrap();
        let program = LogicProgram::parse(PAPER_PROGRAM).unwrap();
        ground(&graph, &program, &GroundConfig::default()).unwrap()
    }

    #[test]
    fn running_example_atoms() {
        let g = ground_paper();
        // 5 evidence atoms + 1 derived worksFor(CR, Palermo, [1984,1986]).
        assert_eq!(g.stats.evidence_atoms, 5);
        assert_eq!(g.stats.hidden_atoms, 1);
        let works_for = g.dict.lookup("worksFor").unwrap();
        let derived: Vec<_> = g
            .store
            .iter()
            .filter(|(_, a)| a.predicate == works_for)
            .collect();
        assert_eq!(derived.len(), 1);
        assert_eq!(derived[0].1.interval, Interval::new(1984, 1986).unwrap());
    }

    #[test]
    fn running_example_clauses() {
        let g = ground_paper();
        // Formula clauses: 1 from f1 (rule grounding), 1 from c2 (the
        // Chelsea/Napoli clash). f2, f3, c1, c3 fire nothing.
        assert_eq!(g.stats.formula_clauses, 2);
        let c2_clauses: Vec<_> = g
            .clauses
            .iter()
            .filter(|c| c.origin == ClauseOrigin::Formula(4))
            .collect();
        assert_eq!(c2_clauses.len(), 1);
        let clash = c2_clauses[0];
        assert!(clash.weight.is_hard());
        assert_eq!(clash.len(), 2);
        // The clause names the Chelsea and Napoli atoms negatively.
        let chelsea = g.dict.lookup("Chelsea").unwrap();
        let napoli = g.dict.lookup("Napoli").unwrap();
        let objs: Vec<Symbol> = clash
            .lits
            .iter()
            .map(|l| {
                assert!(!l.positive);
                g.store.atom(l.atom).object
            })
            .collect();
        assert!(objs.contains(&chelsea));
        assert!(objs.contains(&napoli));
    }

    #[test]
    fn evidence_units_and_priors() {
        let g = ground_paper();
        let units = g
            .clauses
            .iter()
            .filter(|c| c.origin == ClauseOrigin::Evidence)
            .count();
        assert_eq!(units, 5);
        let priors = g
            .clauses
            .iter()
            .filter(|c| c.origin == ClauseOrigin::Prior)
            .count();
        assert_eq!(priors, 1);
        // Total: 2 formula + 5 evidence + 1 prior.
        assert_eq!(g.clauses.len(), 8);
    }

    #[test]
    fn pin_certain_makes_birthdate_hard() {
        let graph = parse_graph(RANIERI).unwrap();
        let program = LogicProgram::parse(PAPER_PROGRAM).unwrap();
        let config = GroundConfig {
            pin_certain: true,
            ..GroundConfig::default()
        };
        let g = ground(&graph, &program, &config).unwrap();
        let hard_units = g
            .clauses
            .iter()
            .filter(|c| c.origin == ClauseOrigin::Evidence && c.weight.is_hard())
            .count();
        assert_eq!(hard_units, 1); // only the birthDate fact has conf 1.0
    }

    #[test]
    fn rule_chain_fixpoint() {
        // f1 derives worksFor; f2 then derives livesIn from the derived
        // atom — requires the second semi-naive round.
        let graph = parse_graph(
            "(CR, playsFor, Palermo, [1984,1986]) 0.5\n\
             (Palermo, locatedIn, Sicily, [1900,2020]) 0.9\n",
        )
        .unwrap();
        let program = LogicProgram::parse(
            "f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5\n\
             f2: quad(x, worksFor, y, t) ^ quad(y, locatedIn, z, t') ^ overlap(t, t') \
                 -> quad(x, livesIn, z, t ∩ t') w = 1.6\n",
        )
        .unwrap();
        let g = ground(&graph, &program, &GroundConfig::default()).unwrap();
        let lives_in = g.dict.lookup("livesIn").unwrap();
        let derived: Vec<_> = g
            .store
            .iter()
            .filter(|(_, a)| a.predicate == lives_in)
            .collect();
        assert_eq!(derived.len(), 1, "livesIn derived through the chain");
        assert_eq!(derived[0].1.interval, Interval::new(1984, 1986).unwrap());
        assert!(g.stats.rounds >= 2);
        // worksFor + livesIn hidden.
        assert_eq!(g.stats.hidden_atoms, 2);
    }

    #[test]
    fn no_duplicate_clauses_across_rounds() {
        let graph = parse_graph(RANIERI).unwrap();
        let program = LogicProgram::parse(PAPER_PROGRAM).unwrap();
        let g = ground(&graph, &program, &GroundConfig::default()).unwrap();
        let mut sigs: Vec<(usize, Vec<Lit>)> = g
            .clauses
            .iter()
            .filter_map(|c| match c.origin {
                ClauseOrigin::Formula(i) => Some((i, c.lits.to_vec())),
                _ => None,
            })
            .collect();
        let before = sigs.len();
        sigs.sort();
        sigs.dedup();
        assert_eq!(sigs.len(), before);
    }

    #[test]
    fn symmetric_constraint_grounding_deduped() {
        // c2 matches (Chelsea, Napoli) and (Napoli, Chelsea); both yield
        // the same clause which must appear once.
        let g = ground_paper();
        let c2: Vec<_> = g
            .clauses
            .iter()
            .filter(|c| c.origin == ClauseOrigin::Formula(4))
            .collect();
        assert_eq!(c2.len(), 1);
    }

    #[test]
    fn timeless_head_defaults_to_body_intersection() {
        let graph = parse_graph(
            "(a, relA, b, [10,20]) 0.9\n\
             (a, relB, c, [15,30]) 0.9\n",
        )
        .unwrap();
        let program = LogicProgram::parse(
            "quad(x, relA, y, t) ^ quad(x, relB, z, t') -> quad(x, both, z) w = 1.0",
        )
        .unwrap();
        let g = ground(&graph, &program, &GroundConfig::default()).unwrap();
        let both = g.dict.lookup("both").unwrap();
        let (_, atom) = g.store.iter().find(|(_, a)| a.predicate == both).unwrap();
        assert_eq!(atom.interval, Interval::new(15, 20).unwrap());
    }

    #[test]
    fn timeless_head_falls_back_to_hull() {
        let graph = parse_graph(
            "(a, relA, b, [10,12]) 0.9\n\
             (a, relB, c, [20,22]) 0.9\n",
        )
        .unwrap();
        let program = LogicProgram::parse(
            "quad(x, relA, y, t) ^ quad(x, relB, z, t') -> quad(x, both, z) w = 1.0",
        )
        .unwrap();
        let g = ground(&graph, &program, &GroundConfig::default()).unwrap();
        let both = g.dict.lookup("both").unwrap();
        let (_, atom) = g.store.iter().find(|(_, a)| a.predicate == both).unwrap();
        assert_eq!(atom.interval, Interval::new(10, 22).unwrap());
    }

    #[test]
    fn negative_evidence_weight_for_low_confidence() {
        let graph = parse_graph("(a, p, b, [1,2]) 0.2\n").unwrap();
        let program = LogicProgram::new();
        let g = ground(&graph, &program, &GroundConfig::default()).unwrap();
        let unit = g
            .clauses
            .iter()
            .find(|c| c.origin == ClauseOrigin::Evidence)
            .unwrap();
        // conf 0.2 → negative log-odds → unit clause prefers ¬a.
        assert!(!unit.lits[0].positive);
    }

    #[test]
    fn literal_interval_in_body_matches_exactly() {
        let graph = parse_graph(
            "(CR, coach, Chelsea, [2000,2004]) 0.9\n\
             (CR, coach, Chelsea, [2000,2005]) 0.9\n",
        )
        .unwrap();
        let program = LogicProgram::parse(
            "quad(x, coach, y, [2000,2004]) -> quad(x, type, Coach2004) w = 1.0",
        )
        .unwrap();
        let g = ground(&graph, &program, &GroundConfig::default()).unwrap();
        assert_eq!(g.stats.formula_clauses, 1);
    }
}
