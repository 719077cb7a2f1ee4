//! Semi-naive grounding of a program against a uTKG: round one matches
//! every formula by its cold join, and the atoms its rule heads bring
//! to life seed `Grounding::saturate` — the rounds a delta runs too.
//! One emitter, `Grounding::emit`, turns every round's matches into
//! clauses.

use std::fmt;
use std::time::{Duration, Instant};

use tecore_kg::fxhash::FxHashSet;
use tecore_kg::{reaching, FactMap, Symbol, UtkGraph};
use tecore_logic::atom::CmpOp;
use tecore_logic::formula::Weight;
use tecore_logic::term::{TimeTerm, VarId};
use tecore_logic::{LogicError, LogicProgram};
use tecore_temporal::Interval;

use crate::atoms::{AtomId, AtomStore, GroundAtom, Posting};
use crate::bindings::Bindings;
use crate::clause::{ClauseOrigin, ClauseStore, ClauseWeight, GroundClause, Lit};
use crate::compile::{
    Access, CCondition, CConsequent, CPattern, CTerm, CTime, Check, CompiledFormula,
    CompiledProgram, JoinPlan,
};
use crate::planner::{self, FormulaPlan};

/// Closed-world prior weight on hidden atoms (soft unit clause `¬h`).
/// Keeps unsupported derivations false in the MAP state.
const HIDDEN_PRIOR: f64 = 0.05;

/// Safety valve on semi-naive rounds (rule-chain depth).
const MAX_ROUNDS: usize = 16;

/// Grounding configuration. It holds no setting: evidence, priors,
/// join order and round limits are fixed by the grounder. It is still
/// passed to `translate` (in `tecore-core`), so that callers written
/// against it keep compiling.
#[derive(Debug, Clone, Default)]
pub struct GroundConfig {}

/// Statistics of one grounding run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroundingStats {
    /// Semi-naive rounds executed.
    pub rounds: usize,
    /// Matches found: body groundings that passed every condition
    /// and, for a formula that derives nothing, violate its consequent
    /// — the same number under any join order.
    pub body_matches: usize,
    /// Candidates the joins examined: the atoms a join step tried
    /// (admission, liveness, unification, checks) and the run entries a
    /// window scan stepped over because they end before the window. A
    /// candidate that *is* the atom an earlier step bound, where a
    /// check demands the two differ
    /// ([`Step::apart`](crate::compile::Step)), is passed over
    /// uncounted. The binding search's work, independent of the clock;
    /// unlike `body_matches` it depends on the join order.
    pub candidates_examined: usize,
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
/// running the same semi-naive rounds a cold ground runs after its
/// first, seeded from the changed facts' atoms — rather than
/// re-grounding the whole graph.
///
/// A grounding holds no dictionary of its own: every symbol in it — of
/// an evidence atom, a derived atom or a compiled constant — is the
/// graph's, and reads through `graph.dict()`.
#[derive(Debug, Clone)]
pub struct Grounding {
    /// All ground atoms.
    pub store: AtomStore,
    /// All ground clauses (formula groundings + evidence units +
    /// priors), held in one flat CSR arena shared zero-copy with every
    /// backend. Invariant: every live clause references live atoms
    /// only.
    pub clauses: ClauseStore,
    /// The compiled program (what deltas re-match and explanations
    /// name constraints from).
    pub program: CompiledProgram,
    /// Evidence fact → the atom it asserts, over the graph's fact
    /// arena from the first fact live at the cold ground on.
    pub fact_atoms: FactMap<AtomId>,
    /// Run statistics.
    pub stats: GroundingStats,
    /// Graph epoch this grounding materialises.
    pub(crate) epoch: u64,
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
    /// The join order each formula is grounded with and its observed
    /// match count — surfaced via `DebugStats::plans`.
    pub plans: Vec<FormulaPlan>,
    /// The store's length when the joins were last ordered. Atoms are
    /// never removed from the id lists the orders are read from, so
    /// while the store has not grown the orders stand.
    pub(crate) planned_atoms: usize,
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

/// Grounds `program` against `graph`, whose dictionary must hold every
/// constant the program names ([`crate::intern_constants`]); a missing
/// one is a [`LogicError::Validation`] naming it.
pub fn ground(graph: &UtkGraph, program: &LogicProgram) -> Result<Grounding, LogicError> {
    ground_with(graph, program, |compiled, store| {
        planner::plan(compiled, store);
    })
}

/// [`ground`], with the joins ordered by `plan` once the evidence atoms
/// are in the store and before any matching happens. Any order grounds
/// the same clause arena (a seeded join's admission rule, clause dedup
/// and emission order are keyed on body positions, not join steps), so
/// `plan` only moves work.
pub(crate) fn ground_with(
    graph: &UtkGraph,
    program: &LogicProgram,
    plan: impl FnOnce(&mut CompiledProgram, &AtomStore),
) -> Result<Grounding, LogicError> {
    let start = Instant::now();
    let mut compiled = CompiledProgram::compile(program, graph.dict())?;
    let (mut store, fact_atoms) = AtomStore::from_graph(graph);
    plan(&mut compiled, &store);
    let planned_atoms = store.len();
    if compiled.probes_predicate_object() {
        store.ensure_predicate_object();
    }
    let plans = compiled
        .formulas
        .iter()
        .map(|cf| FormulaPlan {
            formula: cf.index,
            name: cf.name.clone(),
            join_order: cf.cold.order(),
            actual_matches: 0,
        })
        .collect();
    let mut stats = GroundingStats {
        evidence_atoms: store.len(),
        rounds: 1,
        ..GroundingStats::default()
    };
    let mut g = Grounding {
        stats: GroundingStats::default(),
        store,
        clauses: ClauseStore::with_capacity(graph.len() * 2, graph.len() * 2),
        program: compiled,
        fact_atoms,
        epoch: graph.epoch(),
        // The atom→clause dependency index (what apply_delta walks to
        // retract exactly the clauses a changed fact touches) is *not*
        // built here: batch resolves never use it, so it materialises
        // lazily on the first delta (`Grounding::ensure_dep_index`).
        atom_clauses: Vec::new(),
        support: Vec::new(),
        dep_built: false,
        components: None,
        plans,
        planned_atoms,
        changes: Default::default(),
    };

    // Round one: every formula by its cold join. Nothing is new yet, so
    // every atom takes part at every position.
    let mut pending = Pending::default();
    for (cf, plan) in g.program.formulas.iter().zip(&mut g.plans) {
        stats.candidates_examined += enumerate_matches(&g.store, cf, &mut |chosen, bindings| {
            plan.actual_matches += 1;
            pending.collect(cf, chosen, bindings, &g.store);
        });
    }
    let mut born = Vec::new();
    g.emit(pending, &mut born);
    g.saturate(born, &mut stats.rounds, &mut stats.candidates_examined);
    stats.formula_clauses = g.clauses.len();
    stats.body_matches = g.plans.iter().map(|p| p.actual_matches).sum();

    // Evidence unit clauses — emitted straight into the arena (no
    // per-clause `Vec<Lit>` intermediates) — then the closed-world
    // priors on hidden atoms.
    for (id, _) in g.store.iter() {
        if let Some(log_odds) = g.store.log_odds(id) {
            let (lit, weight) = evidence_unit(id, log_odds);
            g.clauses.push_lits(&[lit], weight, ClauseOrigin::Evidence);
        }
    }
    for (id, atom) in g.store.iter() {
        if !atom.kind.is_evidence() {
            let (lit, weight) = prior_unit(id);
            g.clauses.push_lits(&[lit], weight, ClauseOrigin::Prior);
        }
    }

    stats.hidden_atoms = g.store.hidden_count();
    stats.elapsed = start.elapsed();
    g.stats = stats;
    Ok(g)
}

/// The soft unit clause encoding one evidence atom's combined
/// confidence — shared by the batch grounder and the incremental delta
/// path. Returned as raw parts so both callers emit straight into the
/// [`ClauseStore`] arena.
pub(crate) fn evidence_unit(id: AtomId, log_odds: f64) -> (Lit, ClauseWeight) {
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
struct HeadKey {
    subject: Symbol,
    predicate: Symbol,
    object: Symbol,
    interval: Interval,
}

/// The matches of one semi-naive round, buffered while the store is
/// frozen: head atoms are interned, and clauses emitted, only once
/// every formula has been matched.
#[derive(Default)]
struct Pending {
    /// `(formula, where its body atoms start in `atoms`, head)`.
    matches: Vec<(usize, usize, Option<HeadKey>)>,
    /// The matched atoms, by body position, one match after the other.
    atoms: Vec<AtomId>,
}

impl Pending {
    /// Records a match of `cf` (for a rule: unless its head has no
    /// interval to hold in).
    fn collect(
        &mut self,
        cf: &CompiledFormula,
        chosen: &[AtomId],
        bindings: &Bindings,
        store: &AtomStore,
    ) {
        let head = match &cf.consequent {
            CConsequent::Quad {
                subject,
                predicate,
                object,
                time,
            } => {
                let s = resolve_entity(subject, bindings);
                let p = resolve_entity(predicate, bindings);
                let o = resolve_entity(object, bindings);
                let (Some(subject), Some(predicate), Some(object)) = (s, p, o) else {
                    return;
                };
                // Empty intersection: no derivation.
                let Some(interval) = head_time(time.as_ref(), bindings, chosen, store) else {
                    return;
                };
                Some(HeadKey {
                    subject,
                    predicate,
                    object,
                    interval,
                })
            }
            // The violated consequent is one of the checks the match
            // has passed.
            _ => None,
        };
        self.matches.push((cf.index, self.atoms.len(), head));
        self.atoms.extend_from_slice(chosen);
    }

    /// Puts the matches in canonical order — by formula, then by body
    /// atom ids — so that clause ids and hidden-atom ids depend on
    /// neither the join order nor the order of a posting run.
    fn sort(&mut self, formulas: &[CompiledFormula]) {
        let Pending { matches, atoms } = self;
        let key = |&(f, at, _): &(usize, usize, Option<HeadKey>)| {
            (f, &atoms[at..at + formulas[f].body.len()])
        };
        matches.sort_unstable_by(|a, b| key(a).cmp(&key(b)));
    }
}

impl Grounding {
    /// Emits a round's matches in canonical order ([`Pending::sort`]):
    /// interns each rule head as a hidden atom, pushing those it brings
    /// to life onto `born`, and pushes every clause the round has not
    /// pushed already. Once the first delta has built the dependency
    /// index, a clause also enters it, the support counts, the
    /// component index and the change account.
    ///
    /// No clause of a round is live before it, so duplicates are
    /// looked for among the round's own clauses only. Every match of a
    /// round after a cold ground's first, and of a delta's, binds an
    /// atom of its frontier, which was not alive when any live clause
    /// was matched (the store is frozen while a round is matched); a
    /// live clause names that atom at most as its head, never in its
    /// body. And an atom that dies retracts every clause naming it. So
    /// only two matches of one round yield one clause — the (a,b) and
    /// (b,a) pairs of a symmetric constraint.
    fn emit(&mut self, mut pending: Pending, born: &mut Vec<AtomId>) {
        pending.sort(&self.program.formulas);
        let mut emitted: FxHashSet<(usize, Vec<Lit>)> = FxHashSet::default();
        for (fidx, at, head) in pending.matches {
            let cf = &self.program.formulas[fidx];
            let body = &pending.atoms[at..at + cf.body.len()];
            let mut lits: Vec<Lit> = body.iter().map(|&a| Lit::neg(a)).collect();
            let weight = match cf.weight {
                Weight::Hard => ClauseWeight::Hard,
                Weight::Soft(w) => ClauseWeight::Soft(w),
            };
            if let Some(key) = head {
                let (id, newly_live) =
                    self.store
                        .intern_hidden(key.subject, key.predicate, key.object, key.interval);
                if newly_live {
                    born.push(id);
                }
                if self.dep_built && id.index() >= self.atom_clauses.len() {
                    self.atom_clauses.push(Vec::new());
                    self.support.push(0);
                }
                lits.push(Lit::pos(id));
            }
            let Some(clause) = GroundClause::new(lits, weight, ClauseOrigin::Formula(fidx)) else {
                continue;
            };
            let signature = (fidx, clause.lits);
            if emitted.contains(&signature) {
                continue;
            }
            let id = self
                .clauses
                .push_lits(&signature.1, clause.weight, clause.origin);
            emitted.insert(signature);
            if self.dep_built {
                self.register_clause(id);
            }
        }
    }

    /// The semi-naive rounds after a cold ground's first, and a delta's:
    /// each runs every formula's delta rules ([`enumerate_seeded`]) from
    /// the atoms the previous round brought to life (`frontier` for the
    /// first) until a round brings none or `rounds`, which counts the
    /// rounds run, reaches [`MAX_ROUNDS`]. Adds the candidates examined
    /// to `candidates`; returns the atoms brought to life.
    pub(crate) fn saturate(
        &mut self,
        mut frontier: Vec<AtomId>,
        rounds: &mut usize,
        candidates: &mut usize,
    ) -> Vec<AtomId> {
        let mut born = Vec::new();
        while !frontier.is_empty() && *rounds < MAX_ROUNDS {
            *rounds += 1;
            frontier.sort_unstable();
            let mut pending = Pending::default();
            for (cf, plan) in self.program.formulas.iter().zip(&mut self.plans) {
                for pos in 0..cf.body.len() {
                    *candidates += enumerate_seeded(
                        &self.store,
                        cf,
                        &frontier,
                        pos,
                        &mut |chosen, bindings| {
                            plan.actual_matches += 1;
                            pending.collect(cf, chosen, bindings, &self.store);
                        },
                    );
                }
            }
            let known = born.len();
            self.emit(pending, &mut born);
            frontier = born[known..].to_vec();
        }
        born
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

#[inline]
fn resolve_entity(t: &CTerm, bindings: &Bindings) -> Option<Symbol> {
    match t {
        CTerm::Sym(s) => Some(*s),
        CTerm::Var(v) => bindings.entity(*v),
    }
}

impl Check {
    /// Does a grounding with these bindings get through?
    fn passes(&self, bindings: &Bindings) -> bool {
        let holds = match &self.cond {
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
        };
        holds == self.holds
    }
}

/// Enumerates the matches of `cf` against `store` by the formula's
/// cold join, every atom admitted at every position. (The store is
/// frozen while a round is matched.) Returns the number of candidate
/// atoms examined.
fn enumerate_matches(
    store: &AtomStore,
    cf: &CompiledFormula,
    on_match: &mut dyn FnMut(&[AtomId], &Bindings),
) -> usize {
    let join = Join::new(store, cf, &cf.cold, None);
    let mut search = Search::new(cf);
    join.descend(0, &mut search, on_match);
    search.examined
}

/// The delta rule of body position `pos`: enumerates the matches that
/// bind one of the `new` atoms (ascending ids) at `pos` and old atoms
/// at every position before it, by binding `pos` *first* — once per new
/// atom — and joining the other patterns outwards through the store's
/// indexes in the formula's seeded order. The work follows the new
/// atoms and their join partners, not the predicate extensions.
///
/// Run once per body position, this yields each match that binds at
/// least one new atom exactly once: at the first position that does.
/// Returns the number of candidate atoms examined.
fn enumerate_seeded(
    store: &AtomStore,
    cf: &CompiledFormula,
    new: &[AtomId],
    pos: usize,
    on_match: &mut dyn FnMut(&[AtomId], &Bindings),
) -> usize {
    let join = Join::new(store, cf, &cf.seeded[pos], Some((new, pos)));
    let mut search = Search::new(cf);
    for &seed in new {
        join.visit(
            0,
            Candidate::of(seed, store.atom(seed)),
            &mut search,
            on_match,
        );
    }
    search.examined
}

/// One enumeration pass: what is joined, in which order, under which
/// admission rule.
struct Join<'a> {
    store: &'a AtomStore,
    cf: &'a CompiledFormula,
    plan: &'a JoinPlan,
    /// A delta rule's new atoms (ascending) and seeded position: no
    /// position before it binds a new atom. The position itself is
    /// bound from the list, never looked up. `None` for the cold join.
    seeded: Option<(&'a [AtomId], usize)>,
    /// The indexes list dead atoms too; only a store that has some pays
    /// for the liveness test.
    skip_dead: bool,
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

/// What a join step reads of an atom — from the atom table or, without
/// touching it, from a posting and the key of its run.
#[derive(Clone, Copy)]
struct Candidate {
    id: AtomId,
    subject: Symbol,
    predicate: Symbol,
    object: Symbol,
    interval: Interval,
}

impl Candidate {
    fn of(id: AtomId, atom: &GroundAtom) -> Self {
        Candidate {
            id,
            subject: atom.subject,
            predicate: atom.predicate,
            object: atom.object,
            interval: atom.interval,
        }
    }
}

impl<'a> Join<'a> {
    fn new(
        store: &'a AtomStore,
        cf: &'a CompiledFormula,
        plan: &'a JoinPlan,
        seeded: Option<(&'a [AtomId], usize)>,
    ) -> Self {
        Join {
            store,
            cf,
            plan,
            seeded,
            skip_dead: store.dead_count() > 0,
        }
    }

    fn descend(
        &self,
        k: usize,
        search: &mut Search,
        on_match: &mut dyn FnMut(&[AtomId], &Bindings),
    ) {
        let Some(step) = self.plan.steps.get(k) else {
            on_match(&search.chosen, &search.bindings);
            return;
        };
        let pattern = &self.cf.body[step.pattern];
        let known = |t: &CTerm| {
            resolve_entity(t, &search.bindings).expect("the access path follows the bindings")
        };
        match step.access {
            Access::SubjectPredicate => {
                let (subject, predicate) = (known(&pattern.subject), known(&pattern.predicate));
                let run = self.store.with_subject_predicate(subject, predicate);
                self.probe(k, run, search, on_match, |e| Candidate {
                    id: e.id,
                    subject,
                    predicate,
                    object: e.third,
                    interval: e.interval,
                });
            }
            Access::PredicateObject => {
                let (predicate, object) = (known(&pattern.predicate), known(&pattern.object));
                let run = self.store.with_predicate_object(predicate, object);
                self.probe(k, run, search, on_match, |e| Candidate {
                    id: e.id,
                    subject: e.third,
                    predicate,
                    object,
                    interval: e.interval,
                });
            }
            Access::Predicate => {
                for &id in self.store.with_predicate(known(&pattern.predicate)) {
                    let candidate = Candidate::of(id, self.store.atom(id));
                    self.visit(k, candidate, search, on_match);
                }
            }
            Access::Scan => {
                for (id, atom) in self.store.iter() {
                    self.visit(k, Candidate::of(id, atom), search, on_match);
                }
            }
        }
    }

    /// Visits the entries of a posting run — those that can meet the
    /// step's time window, when it has one.
    fn probe(
        &self,
        k: usize,
        run: &[Posting],
        search: &mut Search,
        on_match: &mut dyn FnMut(&[AtomId], &Bindings),
        candidate: impl Fn(&Posting) -> Candidate,
    ) {
        let Some(window) = &self.plan.steps[k].window else {
            for e in run {
                self.visit(k, candidate(e), search, on_match);
            }
            return;
        };
        let anchor = match window.anchor {
            CTime::Lit(iv) => iv,
            CTime::Var(v) => search
                .bindings
                .interval(v)
                .expect("the anchor is bound by an earlier step"),
        };
        // No window: no interval bears the relation to this anchor.
        let Some(within) = window.relation.candidate_window(anchor) else {
            return;
        };
        for e in reaching(run, within) {
            if e.interval.end() < within.start() {
                search.examined += 1;
            } else {
                self.visit(k, candidate(e), search, on_match);
            }
        }
    }

    /// Tries an atom at join step `k` and, if it is admitted, matches
    /// the pattern and passes the step's checks, joins on from it.
    #[inline]
    fn visit(
        &self,
        k: usize,
        candidate: Candidate,
        search: &mut Search,
        on_match: &mut dyn FnMut(&[AtomId], &Bindings),
    ) {
        let step = &self.plan.steps[k];
        if step.apart.iter().any(|&p| search.chosen[p] == candidate.id) {
            return;
        }
        search.examined += 1;
        if self.seeded.is_some_and(|(new, pos)| {
            step.pattern < pos && new.binary_search(&candidate.id).is_ok()
        }) || (self.skip_dead && !self.store.is_alive(candidate.id))
        {
            return;
        }
        if try_match(
            &self.cf.body[step.pattern],
            &candidate,
            &mut search.bindings,
        ) && step
            .checks
            .iter()
            .all(|&ci| self.cf.checks[ci].passes(&search.bindings))
        {
            search.chosen[step.pattern] = candidate.id;
            self.descend(k + 1, search, on_match);
        }
        // Whatever the attempt bound, it bound among these.
        for &(v, is_entity) in &step.binds {
            if is_entity {
                search.bindings.unbind_entity(v);
            } else {
                search.bindings.unbind_interval(v);
            }
        }
    }
}

/// Unifies `pattern` with an atom. A failed attempt may leave some of
/// the pattern's variables bound; the caller unbinds what the step
/// binds either way.
fn try_match(pattern: &CPattern, atom: &Candidate, bindings: &mut Bindings) -> bool {
    let bind_entity = |term: &CTerm, value: Symbol, b: &mut Bindings| match term {
        CTerm::Sym(s) => *s == value,
        CTerm::Var(v) => b.bind_entity(*v, value),
    };
    bind_entity(&pattern.subject, atom.subject, bindings)
        && bind_entity(&pattern.predicate, atom.predicate, bindings)
        && bind_entity(&pattern.object, atom.object, bindings)
        && match pattern.time {
            None => true,
            Some(CTime::Lit(iv)) => iv == atom.interval,
            Some(CTime::Var(v)) => bindings.bind_interval(v, atom.interval),
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

    /// `program` grounded against the graph `text` describes, the
    /// program's constants interned into the graph first.
    fn ground_text(text: &str, program: &str) -> (UtkGraph, Grounding) {
        let mut graph = parse_graph(text).unwrap();
        let program = LogicProgram::parse(program).unwrap();
        crate::intern_constants(&program, graph.dict_mut());
        let g = ground(&graph, &program).unwrap();
        (graph, g)
    }

    fn ground_paper() -> (UtkGraph, Grounding) {
        ground_text(RANIERI, PAPER_PROGRAM)
    }

    #[test]
    fn a_constant_the_graph_lacks_is_a_named_error() {
        let graph = parse_graph(RANIERI).unwrap();
        // In a body: nothing states `deathDate`.
        let body = LogicProgram::parse(
            "c1: quad(x, birthDate, y, t) ^ quad(x, deathDate, z, t') -> before(t, t') w = inf",
        )
        .unwrap();
        // In a head only: `worksFor` is what the rule derives.
        let head =
            LogicProgram::parse("f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5")
                .unwrap();
        for (program, formula, constant) in [(body, "c1", "deathDate"), (head, "f1", "worksFor")] {
            let err = ground(&graph, &program).unwrap_err();
            assert!(matches!(err, LogicError::Validation { .. }));
            let err = err.to_string();
            assert!(
                err.contains(&format!("`{formula}`")) && err.contains(&format!("`{constant}`")),
                "{err}"
            );
            assert!(err.contains("intern_constants"), "{err}");
        }
    }

    #[test]
    fn running_example_atoms() {
        let (graph, g) = ground_paper();
        // 5 evidence atoms + 1 derived worksFor(CR, Palermo, [1984,1986]).
        assert_eq!(g.stats.evidence_atoms, 5);
        assert_eq!(g.stats.hidden_atoms, 1);
        let works_for = graph.dict().lookup("worksFor").unwrap();
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
        let (graph, g) = ground_paper();
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
        let chelsea = graph.dict().lookup("Chelsea").unwrap();
        let napoli = graph.dict().lookup("Napoli").unwrap();
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
        let (_, g) = ground_paper();
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
    fn rule_chain_fixpoint() {
        // f1 derives worksFor; f2 then derives livesIn from the derived
        // atom — requires the second semi-naive round.
        let (graph, g) = ground_text(
            "(CR, playsFor, Palermo, [1984,1986]) 0.5\n\
             (Palermo, locatedIn, Sicily, [1900,2020]) 0.9\n",
            "f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5\n\
             f2: quad(x, worksFor, y, t) ^ quad(y, locatedIn, z, t') ^ overlap(t, t') \
                 -> quad(x, livesIn, z, t ∩ t') w = 1.6\n",
        );
        let lives_in = graph.dict().lookup("livesIn").unwrap();
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
        let (_, g) = ground_paper();
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
        let (_, g) = ground_paper();
        let c2: Vec<_> = g
            .clauses
            .iter()
            .filter(|c| c.origin == ClauseOrigin::Formula(4))
            .collect();
        assert_eq!(c2.len(), 1);
    }

    #[test]
    fn timeless_head_defaults_to_body_intersection() {
        let (graph, g) = ground_text(
            "(a, relA, b, [10,20]) 0.9\n\
             (a, relB, c, [15,30]) 0.9\n",
            "quad(x, relA, y, t) ^ quad(x, relB, z, t') -> quad(x, both, z) w = 1.0",
        );
        let both = graph.dict().lookup("both").unwrap();
        let (_, atom) = g.store.iter().find(|(_, a)| a.predicate == both).unwrap();
        assert_eq!(atom.interval, Interval::new(15, 20).unwrap());
    }

    #[test]
    fn timeless_head_falls_back_to_hull() {
        let (graph, g) = ground_text(
            "(a, relA, b, [10,12]) 0.9\n\
             (a, relB, c, [20,22]) 0.9\n",
            "quad(x, relA, y, t) ^ quad(x, relB, z, t') -> quad(x, both, z) w = 1.0",
        );
        let both = graph.dict().lookup("both").unwrap();
        let (_, atom) = g.store.iter().find(|(_, a)| a.predicate == both).unwrap();
        assert_eq!(atom.interval, Interval::new(10, 22).unwrap());
    }

    #[test]
    fn negative_evidence_weight_for_low_confidence() {
        let (_, g) = ground_text("(a, p, b, [1,2]) 0.2\n", "");
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
        let (_, g) = ground_text(
            "(CR, coach, Chelsea, [2000,2004]) 0.9\n\
             (CR, coach, Chelsea, [2000,2005]) 0.9\n",
            "quad(x, coach, y, [2000,2004]) -> quad(x, type, Coach2004) w = 1.0",
        );
        assert_eq!(g.stats.formula_clauses, 1);
    }

    /// The arena as text, one line per atom (`a<id>`: key, then
    /// evidence with its log-odds or hidden) and per clause (`c<id>`:
    /// origin, weight, literals).
    fn arena(graph: &UtkGraph, g: &Grounding) -> Vec<String> {
        let dict = graph.dict();
        let atoms = g.store.iter().map(|(id, a)| {
            let kind = match g.store.log_odds(id) {
                Some(log_odds) => format!("evidence {log_odds}"),
                None => "hidden".to_string(),
            };
            format!(
                "a{} {} {} {} {} {kind}",
                id.0,
                dict.resolve(a.subject),
                dict.resolve(a.predicate),
                dict.resolve(a.object),
                a.interval
            )
        });
        let clauses = g.clauses.iter().map(|c| {
            let origin = match c.origin {
                ClauseOrigin::Formula(i) => format!("f{i}"),
                ClauseOrigin::Evidence => "evidence".to_string(),
                ClauseOrigin::Prior => "prior".to_string(),
            };
            let weight = match c.weight {
                ClauseWeight::Hard => "hard".to_string(),
                ClauseWeight::Soft(w) => w.to_string(),
            };
            let lits: Vec<String> = c.lits.iter().map(Lit::to_string).collect();
            format!("c{} {origin} {weight} {}", c.id, lits.join(" ∨ "))
        });
        atoms.chain(clauses).collect()
    }

    #[test]
    fn rule_chain_arena_is_pinned() {
        // `rule_chain_fixpoint`'s program over a graph where round one
        // derives through an asserted `worksFor` and round two through
        // derived ones: atom ids, kinds and log-odds, and clause ids,
        // origins, weights and literals are pinned.
        let (graph, g) = ground_text(
            "(CR, playsFor, Palermo, [1984,1986]) 0.5\n\
             (Palermo, locatedIn, Sicily, [1900,2020]) 0.9\n\
             (GZ, playsFor, Napoli, [1990,1995]) 0.8\n\
             (Napoli, locatedIn, Campania, [1900,2020]) 0.7\n\
             (Palermo, locatedIn, Italy, [1950,2020]) 0.8\n\
             (MV, worksFor, Napoli, [1992,1994]) 0.6\n",
            "f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5\n\
             f2: quad(x, worksFor, y, t) ^ quad(y, locatedIn, z, t') ^ overlap(t, t') \
                 -> quad(x, livesIn, z, t ∩ t') w = 1.6\n",
        );
        // Round one: f1 over both `playsFor` atoms, f2 through the
        // asserted `worksFor` (c0–c2); round two: f2 through the two
        // derived ones (c3–c5); round three finds nothing.
        let expected = [
            "a0 CR playsFor Palermo [1984,1986] evidence 0",
            "a1 Palermo locatedIn Sicily [1900,2020] evidence 2.1972245773362196",
            "a2 GZ playsFor Napoli [1990,1995] evidence 1.3862943611198908",
            "a3 Napoli locatedIn Campania [1900,2020] evidence 0.8472978603872034",
            "a4 Palermo locatedIn Italy [1950,2020] evidence 1.3862943611198908",
            "a5 MV worksFor Napoli [1992,1994] evidence 0.4054651081081642",
            "a6 CR worksFor Palermo [1984,1986] hidden",
            "a7 GZ worksFor Napoli [1990,1995] hidden",
            "a8 MV livesIn Campania [1992,1994] hidden",
            "a9 CR livesIn Sicily [1984,1986] hidden",
            "a10 CR livesIn Italy [1984,1986] hidden",
            "a11 GZ livesIn Campania [1990,1995] hidden",
            "c0 f0 2.5 ¬a0 ∨ a6",
            "c1 f0 2.5 ¬a2 ∨ a7",
            "c2 f1 1.6 ¬a3 ∨ ¬a5 ∨ a8",
            "c3 f1 1.6 ¬a1 ∨ ¬a6 ∨ a9",
            "c4 f1 1.6 ¬a4 ∨ ¬a6 ∨ a10",
            "c5 f1 1.6 ¬a3 ∨ ¬a7 ∨ a11",
            "c6 evidence 0.2 a0",
            "c7 evidence 2.1972245773362196 a1",
            "c8 evidence 1.3862943611198908 a2",
            "c9 evidence 0.8472978603872034 a3",
            "c10 evidence 1.3862943611198908 a4",
            "c11 evidence 0.4054651081081642 a5",
            "c12 prior 0.05 ¬a6",
            "c13 prior 0.05 ¬a7",
            "c14 prior 0.05 ¬a8",
            "c15 prior 0.05 ¬a9",
            "c16 prior 0.05 ¬a10",
            "c17 prior 0.05 ¬a11",
        ];
        assert_eq!(arena(&graph, &g), expected);
        assert_eq!(g.stats.rounds, 3);
    }

    #[test]
    fn rounds_after_the_first_follow_the_new_atoms() {
        // Large extensions of the derived predicate (`worksFor`, 2 000
        // asserted spells at clubs nothing locates) and of its join
        // partner (`locatedIn`, 2 000 clubs), and 50 `playsFor` facts
        // whose `worksFor` is new and locates. A round that re-ran the
        // cold join would walk both extensions again.
        let mut text = String::new();
        for i in 0..2000 {
            text.push_str(&format!("(w{i}, worksFor, e{i}, [1,9]) 0.9\n"));
            text.push_str(&format!("(l{i}, locatedIn, r{}, [1,9]) 0.9\n", i % 10));
        }
        for i in 0..50 {
            text.push_str(&format!("(p{i}, playsFor, l{i}, [2,5]) 0.9\n"));
        }
        let body = "f2: quad(x, worksFor, y, t) ^ quad(y, locatedIn, z, t') ^ overlap(t, t') \
                    -> quad(x, livesIn, z, t ∩ t') w = 1.6\n";
        let chain =
            format!("f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5\n{body}");
        // The same round one over the same store, but f1's heads feed
        // no body, so nothing chains.
        let flat =
            format!("f1: quad(x, playsFor, y, t) -> quad(x, signedFor, y, t) w = 2.5\n{body}");
        let (_, g) = ground_text(&text, &chain);
        let (_, one) = ground_text(&text, &flat);
        assert_eq!(g.stats.rounds, 3);
        assert_eq!(g.stats.hidden_atoms, 100, "50 worksFor, 50 livesIn");
        let extra = g.stats.candidates_examined - one.stats.candidates_examined;
        assert!(
            extra <= 4 * g.stats.hidden_atoms,
            "the rounds after the first examined {extra} candidates for {} new atoms",
            g.stats.hidden_atoms
        );
    }
}
