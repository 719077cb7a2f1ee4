//! The versioned resolution engine.
//!
//! [`Engine`] is the mutable, writer-side half of the system: a uTKG
//! plus rules and constraints, ready to compute the most probable
//! conflict-free KG. Every resolve hands back an immutable, `Arc`-shared
//! [`Snapshot`] stamped with the graph's epoch — the reader-side half.
//! The engine keeps mutating and re-resolving; snapshots already handed
//! out are never touched, so readers on old snapshots see stable
//! results for as long as they hold the `Arc`.
//!
//! There is one edit surface, [`Engine::apply`]: the engine is its
//! graph's only writer, and a durable engine journals every edit.
//!
//! There is one solve path, [`Engine::resolve_incremental`]: the first
//! call grounds cold and caches the materialisation; afterwards the
//! [`EditBatch`]es given to [`Engine::apply`] accumulate a [`Delta`] in
//! the graph's change log, and the next `resolve_incremental` applies
//! just that delta to the cached grounding, warm-starts the solver from
//! the previous MAP state, and derives the new snapshot from the
//! previous one by difference (`carry`), patching a spare copy of the
//! resolved view that it keeps in circulation — work proportional to
//! the edit, not the graph. The components the delta touched are found by a walk from
//! the flagged atoms, and cost and feasibility are summed from a
//! per-component ledger, so nothing on this path reads the whole arena
//! either. [`Engine::resolve`], the batch call, is its cold case: it
//! resolves from an empty cache and keeps none, so the batch answer and
//! the incremental one come out of the same code.

use std::sync::Arc;
use std::time::Instant;

use tecore_ground::component::{ComponentView, Partition};
use tecore_ground::incremental::DeltaStats;
use tecore_ground::{
    intern_constants, AtomId, ComponentIndex, ComponentMode, GroundConfig, Grounding, MapSolver,
    MapState, Marginals,
};
use tecore_kg::{Delta, FactId, Symbol, UtkGraph};
use tecore_logic::LogicProgram;
use tecore_wal::{InsertRecord, RecoveryReport, Wal, WalConfig, WalStats};

use crate::batch::{self, ApplyReport, EditBatch, EditOutcome, PlannedOp};
use crate::carry::{carry_forward, Carried, Forwarded, Reclaim, Resolved};
use crate::error::TecoreError;
use crate::pipeline::{check_solver_contract, interpret, TecoreConfig};
use crate::resolution::Resolution;
use crate::snapshot::Snapshot;
use crate::translate::translate;

/// The cached state of the incremental engine: the materialised
/// grounding, the last MAP state (the warm start for the next solve)
/// and the snapshot read from it (what the next one is derived from).
#[derive(Debug)]
struct EngineState {
    grounding: Grounding,
    last_state: Option<MapState>,
    carried: Option<Carried>,
}

impl EngineState {
    /// A freshly grounded state: nothing solved or published yet.
    fn cold(grounding: Grounding) -> Self {
        EngineState {
            grounding,
            last_state: None,
            carried: None,
        }
    }
}

/// One solve dispatch's result: the (possibly merged) global MAP state
/// plus the component accounting for the stats screen.
struct SolveOutcome {
    state: MapState,
    /// Components the problem falls into (`0` = solved monolithically).
    components: usize,
    /// Components actually solved (the rest were spliced from the
    /// previous state).
    components_solved: usize,
    /// Atoms the partition pass visited.
    atoms_visited: usize,
    moved: Moved,
}

/// Where a solve's state may differ from the state it started from.
pub(crate) enum Moved {
    /// Anywhere (a monolithic solve): here is that state, to compare
    /// with. `None` when there was none.
    Anywhere(Option<MapState>),
    /// In the components that were solved, whose solutions were written
    /// over the previous state in place.
    /// (Atoms the previous state did not know are the delta's to name.)
    Atoms {
        /// Atoms whose truth value changed.
        flipped: Vec<AtomId>,
        /// Atoms whose truth value stayed and soft value changed.
        regraded: Vec<AtomId>,
    },
}

/// The **component-wise solve driver** — the seam between the engine
/// and the configured [`MapSolver`](tecore_ground::MapSolver).
///
/// When the mode allows it, the ground problem is solved one
/// independent conflict component at a time
/// (`tecore_ground::component`). Without a previous state that is every
/// component (the full partition pass). With one it is the components a
/// delta touched, found by the dirty-only pass — a walk from the
/// flagged atoms — while everything else keeps its slice of the
/// previous MAP state untouched and unread. Each component is copied
/// out of the arena into a compact sub-store in its local atom id space
/// and goes to the backend's one [`MapSolver::solve`] entry, one after
/// the other. The per-component states merge into one global state
/// whose cost and feasibility are the totals of the per-component
/// ledger the solved components are entered in, so the merged state
/// satisfies exactly the contract a monolithic solve would. Every
/// backend is offered the previous state, projected to the
/// component's local ids, as its warm start.
///
/// Everything else (`Monolithic` mode, a single component under
/// `Auto`, an unpartitionable arena) is one [`MapSolver::solve`] over
/// the grounding's whole arena.
///
/// When the program derives (a formula with a quad consequent), a
/// discrete backend's state gets the exact marginals of the components
/// solved — of every component of the arena after a monolithic solve —
/// as its `soft_values`, spliced like the assignment, [`f64::NAN`]
/// where a component was not graded ([`Marginals`]); a program of
/// constraints alone has no derived fact to grade, and its discrete
/// states carry none. The grounding's program is fixed for as long as
/// it is cached, so every state of one cache is graded or none is.
///
/// [`MapSolver::solve`]: tecore_ground::MapSolver::solve
fn solve_dispatch(
    solver: &dyn MapSolver,
    grounding: &mut Grounding,
    warm: Option<MapState>,
    mode: ComponentMode,
) -> Result<SolveOutcome, TecoreError> {
    let caps = solver.caps();
    // A soft-valued backend grades its atoms itself.
    let derives = (grounding.program.formulas.iter()).any(|f| f.consequent.derives());
    let marginal = derives && !caps.soft_values;
    let graded = caps.soft_values || marginal;
    let use_components = match mode {
        ComponentMode::Monolithic => false,
        ComponentMode::Components => true,
        // `Auto` partitions where partitioning reliably pays: on
        // incremental re-solves (a previous state lets clean components
        // be spliced, so work shrinks to the dirty set) and for exact
        // backends (whose worst case is exponential *per component*, so
        // splitting wins even cold). A cold heuristic solve has no clean
        // component to splice, and the per-component sub-stores and
        // states are then pure overhead: `mln-walksat` and `mln-cpi`
        // handle the whole arena at once, and `psl-admm` partitions
        // itself — its solver iterates the factor graph block by block
        // over flat arrays — so routing it here would only add the
        // copies (measured at 243k facts: 1.7× the time, +5 % RSS).
        // Force `Components` to override.
        ComponentMode::Auto => warm.is_some() || caps.exact,
    };
    if !use_components {
        // A monolithic solve may move any atom, which voids whatever
        // the ledger says about the components.
        grounding.drop_component_index();
        return monolithic_solve(solver, grounding, warm, marginal);
    }
    let n = grounding.num_atoms();
    // Clean fast path: when nothing is flagged and the previous state
    // covers every atom, the problem is byte-identical to the one that
    // state solved — it is the answer, without partitioning anything.
    let clean = |state: &MapState, index: &ComponentIndex| {
        !index.any_dirty() && index.num_atoms() == n && state.assignment.len() == n
    };
    let warm = match (warm, grounding.component_index()) {
        (Some(state), Some(index)) if clean(&state, index) => {
            return Ok(SolveOutcome {
                state,
                components: index.component_count(),
                components_solved: 0,
                atoms_visited: 0,
                moved: Moved::Atoms {
                    flipped: Vec::new(),
                    regraded: Vec::new(),
                },
            });
        }
        (warm, _) => warm,
    };
    // Without a previous state there is nothing to splice: every
    // component is solved. With one, only those a delta touched are.
    let partition = match warm {
        Some(_) => grounding.partition_dirty_components(),
        None => grounding.partition_components(),
    };
    let components = grounding
        .component_index()
        .map_or(0, ComponentIndex::component_count);
    if partition.is_unpartitionable() || (matches!(mode, ComponentMode::Auto) && components <= 1) {
        let outcome = monolithic_solve(solver, grounding, warm, marginal)?;
        grounding.commit_components(&partition, &outcome.state.assignment);
        return Ok(outcome);
    }
    let solved = (0..partition.len())
        .map(|comp| solve_one_component(solver, grounding, &partition, comp, warm.as_ref()))
        .collect::<Result<Vec<MapState>, TecoreError>>()?;

    // Merge, in place. The previous assignment *is* the spliced value
    // of every clean component, and carries dead or clause-free atoms
    // across; the solved components are written over it, and what they
    // changed is noted on the way — nothing else is read.
    let (known, mut assignment, warm_soft) = match warm {
        Some(w) => (w.assignment.len(), w.assignment, w.soft_values),
        None => (0, Vec::new(), None),
    };
    assignment.resize(n, false);
    let mut soft: Option<Vec<f64>> = graded.then(|| {
        let mut base = warm_soft.unwrap_or_default();
        base.resize(n, if marginal { f64::NAN } else { 0.0 });
        base
    });
    let mut kernel = Marginals::default();
    let (mut flipped, mut regraded) = (Vec::new(), Vec::new());
    for (comp, state) in solved.iter().enumerate() {
        // The merge buffer exists iff the state is graded, and
        // `solve_one_component` rejects any component state whose
        // soft-value presence disagrees with the caps.
        let exact = marginal.then(|| kernel.component(&grounding.clauses, &partition, comp));
        let new_grades = state.soft_values.as_deref().map(Some).or(exact);
        let mut grades = new_grades.zip(soft.as_deref_mut());
        for (local, &atom) in partition.atoms(comp).iter().enumerate() {
            let at = atom.index();
            let value = state.assignment[local];
            let flip = std::mem::replace(&mut assignment[at], value) != value;
            let regrade = grades.as_mut().is_some_and(|(new, old)| {
                let grade = new.map_or(f64::NAN, |new| new[local]);
                std::mem::replace(&mut old[at], grade).to_bits() != grade.to_bits()
            });
            if at < known && flip {
                flipped.push(atom);
            } else if at < known && regrade {
                regraded.push(atom);
            }
        }
    }
    // Cost and feasibility come off the ledger: each solved component
    // is evaluated and entered, the others stand as they were entered
    // when they were solved, and the totals are summed per label — no
    // clause outside the solved components is read.
    let (cost, hard_violations) = grounding.commit_components(&partition, &assignment);
    Ok(SolveOutcome {
        state: MapState {
            assignment,
            cost,
            feasible: hard_violations == 0,
            soft_values: soft,
        },
        components,
        components_solved: partition.len(),
        atoms_visited: partition.atoms_visited(),
        moved: Moved::Atoms { flipped, regraded },
    })
}

/// The monolithic fallback: one [`MapSolver::solve`] over the
/// grounding's whole arena, warm-started from the whole previous
/// state, and the returned state held to the solver contract. With
/// `marginal`, every component of the arena is graded.
fn monolithic_solve(
    solver: &dyn MapSolver,
    grounding: &Grounding,
    warm: Option<MapState>,
    marginal: bool,
) -> Result<SolveOutcome, TecoreError> {
    let n = grounding.num_atoms();
    let mut state = solver.solve(n, &grounding.clauses, warm.as_ref())?;
    check_solver_contract(solver, &state, n)?;
    if marginal {
        let partition = Partition::of(&grounding.clauses, n);
        let mut kernel = Marginals::default();
        let mut grades = vec![f64::NAN; n];
        for comp in 0..partition.len() {
            if let Some(exact) = kernel.component(&grounding.clauses, &partition, comp) {
                for (&atom, &p) in partition.atoms(comp).iter().zip(exact) {
                    grades[atom.index()] = p;
                }
            }
        }
        state.soft_values = Some(grades);
    }
    Ok(SolveOutcome {
        state,
        components: 0,
        components_solved: 0,
        atoms_visited: 0,
        moved: Moved::Anywhere(warm),
    })
}

/// Solves one dirty component: copies it out of the arena into its
/// local atom id space, offers the previous state remapped to it as the
/// warm start, and holds the local state to the solver contract.
fn solve_one_component(
    solver: &dyn MapSolver,
    grounding: &Grounding,
    partition: &Partition,
    comp: usize,
    warm: Option<&MapState>,
) -> Result<MapState, TecoreError> {
    let view = partition.view(&grounding.clauses, comp);
    let local = warm.and_then(|w| local_warm(&view, w));
    let state = solver.solve(view.num_atoms(), &view.to_store(), local.as_ref())?;
    check_solver_contract(solver, &state, view.num_atoms())?;
    Ok(state)
}

/// Projects the global previous MAP state into a component's local atom
/// id space. Atoms past the previous state's horizon are new; local
/// ids ascend with global ids, so the unknown suffix is simply
/// truncated (solvers pad beyond a short warm start themselves).
/// Returns `None` when the previous state covers *no* member atom — an
/// all-new component is cold, and offering it an empty "warm" start
/// would make stochastic solvers skip their cold-start restarts.
fn local_warm(view: &ComponentView<'_>, warm: &MapState) -> Option<MapState> {
    let atoms = view.atoms();
    let known = atoms.partition_point(|a| a.index() < warm.assignment.len());
    if known == 0 {
        return None;
    }
    Some(MapState {
        assignment: atoms[..known]
            .iter()
            .map(|a| warm.assignment[a.index()])
            .collect(),
        cost: 0.0,
        feasible: true,
        soft_values: warm
            .soft_values
            .as_ref()
            .map(|values| atoms[..known].iter().map(|a| values[a.index()]).collect()),
    })
}

/// The TeCoRe system: a versioned uTKG plus rules and constraints,
/// resolving into immutable [`Snapshot`]s.
///
/// ```
/// use tecore_core::prelude::*;
/// use tecore_kg::parser::parse_graph;
/// use tecore_logic::LogicProgram;
///
/// let graph = parse_graph(
///     "(CR, coach, Chelsea, [2000,2004]) 0.9\n\
///      (CR, coach, Napoli, [2001,2003]) 0.6\n",
/// ).unwrap();
/// let program = LogicProgram::parse(
///     "c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf",
/// ).unwrap();
/// let snapshot = Engine::new(graph, program).resolve().unwrap();
/// assert_eq!(snapshot.stats.conflicting_facts, 1); // Napoli removed
/// assert_eq!(snapshot.at(2002).predicate("coach").count(), 1);
/// ```
#[derive(Debug)]
pub struct Engine {
    graph: UtkGraph,
    program: LogicProgram,
    config: TecoreConfig,
    cache: Option<EngineState>,
    latest: Option<Arc<Snapshot>>,
    /// Write-ahead log, when this engine is durable: every
    /// insert/remove is journaled *before* the graph mutation.
    wal: Option<Wal>,
    /// Times the incremental path re-grounded to compact dead atoms
    /// (surfaced in
    /// [`DebugStats::compaction_regrounds`](crate::stats::DebugStats)).
    compaction_regrounds: u64,
}

impl Engine {
    /// Creates an engine with default configuration.
    pub fn new(graph: UtkGraph, program: LogicProgram) -> Self {
        Engine::with_config(graph, program, TecoreConfig::default())
    }

    /// Creates an engine with an explicit configuration, interning the
    /// program's constants into the graph's dictionary
    /// ([`intern_constants`]): graph, grounding and views share it.
    pub fn with_config(mut graph: UtkGraph, program: LogicProgram, config: TecoreConfig) -> Self {
        intern_constants(&program, graph.dict_mut());
        Engine {
            graph,
            program,
            config,
            cache: None,
            latest: None,
            wal: None,
            compaction_regrounds: 0,
        }
    }

    /// Creates a **durable** engine over a graph that was recovered
    /// from `wal` (i.e. the pair returned by [`Wal::open`]): every
    /// subsequent edit, each an op of an [`Engine::apply`] batch, is
    /// journaled before it is applied.
    pub fn durable(graph: UtkGraph, program: LogicProgram, config: TecoreConfig, wal: Wal) -> Self {
        let mut engine = Engine::with_config(graph, program, config);
        engine.wal = Some(wal);
        engine
    }

    /// Opens (or creates) the write-ahead log in `dir` with default
    /// configurations, recovers the graph it describes, and returns a
    /// durable engine serving it: every op through [`Engine::apply`]
    /// is journaled before it is applied.
    pub fn open_durable(
        dir: impl Into<std::path::PathBuf>,
        program: LogicProgram,
    ) -> Result<Self, TecoreError> {
        Engine::open_durable_with(dir, program, TecoreConfig::default(), WalConfig::default())
    }

    /// [`Engine::open_durable`] with explicit engine and log
    /// configurations.
    pub fn open_durable_with(
        dir: impl Into<std::path::PathBuf>,
        program: LogicProgram,
        config: TecoreConfig,
        wal_config: WalConfig,
    ) -> Result<Self, TecoreError> {
        let (wal, graph) = Wal::open(dir, wal_config)?;
        Ok(Engine::durable(graph, program, config, wal))
    }

    /// Makes an in-memory engine durable by attaching a log whose
    /// recovered state did *not* produce this graph: the graph is
    /// immediately checkpointed so the log has a durable baseline to
    /// replay future edits against. The `wal` must be freshly opened
    /// (its recovered epoch at or below the graph's).
    pub fn attach_wal(&mut self, wal: Wal) -> Result<(), TecoreError> {
        self.wal = Some(wal);
        self.checkpoint()
    }

    /// The input graph.
    pub fn graph(&self) -> &UtkGraph {
        &self.graph
    }

    /// The graph dictionary's symbol for `term`, interned if new. The
    /// graph's facts and change log do not move: a symbol is no edit.
    pub fn intern(&mut self, term: &str) -> Symbol {
        self.graph.dict_mut().intern(term)
    }

    /// The logic program.
    pub fn program(&self) -> &LogicProgram {
        &self.program
    }

    /// The configuration.
    pub fn config(&self) -> &TecoreConfig {
        &self.config
    }

    /// The most recent snapshot this engine produced, if any. Cheap to
    /// clone and hand to reader threads; later engine mutations never
    /// affect it.
    pub fn latest(&self) -> Option<Arc<Snapshot>> {
        self.latest.clone()
    }

    /// Replaces the logic program and the configuration. The engine
    /// starts over on the same graph: the cached incremental state
    /// drops (the next resolve re-grounds cold) and so does the latest
    /// snapshot, which answered the old program.
    pub fn reconfigure(&mut self, program: LogicProgram, config: TecoreConfig) {
        intern_constants(&program, self.graph.dict_mut());
        self.program = program;
        self.config = config;
        self.cache = None;
        self.latest = None;
    }

    /// Applies an [`EditBatch`] — the one way to change the engine's
    /// graph, which the server writer loop and the stream window
    /// admitter route through too.
    ///
    /// Ops apply **sequentially, in builder order**, each validated
    /// against the graph state its predecessors left: `apply(batch)`
    /// is observationally identical to applying the same ops as
    /// one-op batches one at a time. The whole batch lands in
    /// consecutive epochs of the change log, so the next
    /// [`Engine::resolve_incremental`] consumes it as **one netted
    /// delta** — one grounding sync, one warm-started solve.
    ///
    /// On a durable engine each op is journaled *before* its graph
    /// mutation (one consecutive WAL entry group per batch; a
    /// semantically rejected op is never journaled). A journal append
    /// failure marks the op [`EditOutcome::Failed`], skips the rest of
    /// the batch, and leaves the applied prefix consistent — exactly
    /// what recovery will rebuild.
    ///
    /// The call itself is infallible; per-op results (minted ids,
    /// replaced facts, rejections) are in the returned
    /// [`ApplyReport`]. Use [`ApplyReport::into_result`] to treat any
    /// rejection as a batch error.
    pub fn apply(&mut self, batch: &EditBatch) -> ApplyReport {
        let mut report = ApplyReport {
            outcomes: Vec::with_capacity(batch.len()),
        };
        let mut wal_dead = false;
        for op in batch.ops() {
            if wal_dead {
                report.outcomes.push(EditOutcome::Skipped);
                continue;
            }
            let planned = match batch::plan_op(&self.graph, op) {
                Ok(planned) => planned,
                Err(e) => {
                    report.outcomes.push(EditOutcome::Rejected(e));
                    continue;
                }
            };
            if let Some(wal) = self.wal.as_mut() {
                if let Err(e) = journal_planned(wal, &self.graph, &planned) {
                    wal_dead = true;
                    report.outcomes.push(EditOutcome::Failed(e));
                    continue;
                }
            }
            report
                .outcomes
                .push(batch::execute_op(&mut self.graph, planned));
        }
        report
    }

    /// Is this engine journaling edits to a write-ahead log?
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Log counters, when durable.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal.as_ref().map(Wal::stats)
    }

    /// What recovery found when the log was opened, when durable.
    pub fn wal_recovery(&self) -> Option<&RecoveryReport> {
        self.wal.as_ref().map(Wal::recovery)
    }

    /// Has the log been poisoned by an I/O failure? (Edits are refused
    /// from then on; a serving layer should degrade to read-only.)
    pub fn wal_poisoned(&self) -> bool {
        self.wal.as_ref().is_some_and(Wal::is_poisoned)
    }

    /// Forces journaled edits to durable storage and returns the
    /// durable epoch — the `FLUSH` protocol verb. `Ok(0)` on an
    /// in-memory engine (nothing to flush, nothing durable).
    pub fn flush_wal(&mut self) -> Result<u64, TecoreError> {
        match self.wal.as_mut() {
            Some(wal) => Ok(wal.flush()?),
            None => Ok(0),
        }
    }

    /// Writes a durable checkpoint of the current graph and prunes the
    /// log behind it. No-op on an in-memory engine.
    pub fn checkpoint(&mut self) -> Result<(), TecoreError> {
        if let Some(wal) = self.wal.as_mut() {
            wal.checkpoint(&self.graph)?;
        }
        Ok(())
    }

    /// Checkpoints if the log has grown past its configured threshold
    /// since the last one. Returns whether a checkpoint was taken.
    pub fn maybe_checkpoint(&mut self) -> Result<bool, TecoreError> {
        if self.wal.as_ref().is_some_and(Wal::should_checkpoint) {
            self.checkpoint()?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Always `0`: the engine is its graph's only writer, so its change
    /// log always reaches the cached epoch and no resolve falls back to
    /// a full re-ground. Its only reader is the end-to-end benchmark
    /// (`benchmark/`), whose `core.fallback_regrounds` probe it keeps;
    /// it goes with the next change to that benchmark.
    pub fn fallback_regrounds(&self) -> u64 {
        0
    }

    /// Applies a delta to the cached grounding, if one exists and the
    /// delta starts at its epoch. Returns the delta statistics, or
    /// `None` when there is no cached materialisation to update or the
    /// delta does not start at its epoch; the cache is kept either way,
    /// and the next resolve syncs it from the graph's change log.
    pub fn apply_delta(&mut self, delta: &Delta) -> Option<DeltaStats> {
        let engine = self.cache.as_mut()?;
        (engine.grounding.epoch() == delta.from_epoch)
            .then(|| engine.grounding.apply_delta(&self.graph, delta))
    }

    /// Runs `map(θ(G), F ∪ C)` from scratch and returns the resolved
    /// [`Snapshot`]: [`Engine::resolve_incremental`] from an empty
    /// cache. The engine holds no grounding before the call or after
    /// it, so the next resolve of either kind grounds cold. A batch
    /// caller's next `resolve` would drop a kept grounding unused, and
    /// keeping it while the caller reads the snapshot (its first query
    /// builds the index) adds a whole grounding to peak memory (85 MB
    /// of allocations on the 400k-fact Wikidata mix). Call
    /// `resolve_incremental` from the start to keep the
    /// materialisation for the next edit. The snapshot's reground
    /// counters are the engine's; this call adds to neither.
    pub fn resolve(&mut self) -> Result<Arc<Snapshot>, TecoreError> {
        self.cache = None;
        let snapshot = self.resolve_incremental();
        self.cache = None;
        snapshot
    }

    /// [`Engine::resolve`]'s resolution, cloned out of its snapshot.
    /// Its only caller is the end-to-end benchmark (`benchmark/`),
    /// which times it as a span of its own; it goes with the next
    /// change to that benchmark (ROADMAP item 2).
    pub fn resolve_raw(&mut self) -> Result<Resolution, TecoreError> {
        Ok(self.resolve()?.resolution().clone())
    }

    /// Runs conflict resolution incrementally: syncs the cached
    /// grounding with the graph's change log (cold-grounding when there
    /// is none — on the first call, after an [`Engine::resolve`] or a
    /// [`Engine::reconfigure`] — or to compact dead atoms), warm-starts the
    /// solver from the previous MAP state, and returns the result as a
    /// fresh [`Snapshot`]. A cold call is [`Engine::resolve`] itself,
    /// except that it keeps the materialisation for the next edit.
    ///
    /// The snapshot itself is derived from the one this method returned
    /// last: its graphs, index and result lists are an earlier
    /// snapshot's — the one returned before that, taken back once
    /// nobody holds it — patched with what the edits since changed, and
    /// arrive already built (module `carry`; a caller that keeps
    /// hold of its snapshots gets a patched copy of the last one
    /// instead). Only when the edit is a large share of the graph (or
    /// there is no previous snapshot to start from) is the result read
    /// off the whole graph again and the view left to build lazily, as
    /// on a cold resolve.
    pub fn resolve_incremental(&mut self) -> Result<Arc<Snapshot>, TecoreError> {
        let solver = self.config.backend.clone();

        // 1. Sync the materialised grounding with the graph. Note that
        // an empty *net* delta still goes through apply_delta (a no-op
        // except for advancing the epoch): the epoch must move so the
        // log truncation below can drop netted churn (insert+remove
        // pairs) instead of re-netting a growing log every resolve.
        // The net fact changes since the carried snapshot — read before
        // the log is truncated.
        let mut since_carried: Option<Delta> = None;
        let mut cached = self.cache.take();
        if let Some(engine) = cached.as_mut() {
            // The engine is its graph's only writer and truncates the
            // log only up to the epoch it has grounded (below).
            let delta = self.graph.since(engine.grounding.epoch());
            let delta = delta.expect("the change log reaches the grounded epoch");
            engine.grounding.apply_delta(&self.graph, &delta);
            // Usually the very same delta; not after a public
            // `apply_delta` moved the grounding ahead on its own.
            let carried_at = engine.carried.as_ref().map(|c| c.snapshot.epoch());
            since_carried = if carried_at == Some(delta.from_epoch) {
                Some(delta)
            } else {
                carried_at.and_then(|epoch| self.graph.since(epoch))
            };
        }
        // Long churny sessions accumulate dead atom slots (ids are
        // never reused so solver vectors stay index-stable); once the
        // graveyard dominates, a compacting re-ground is cheaper than
        // dragging it through every solve. Atom ids change, so the warm
        // state and the carried snapshot's maps are void.
        let worn = |engine: &EngineState| {
            let dead = engine.grounding.store.dead_count();
            dead > 64 && dead * 2 > engine.grounding.num_atoms()
        };
        if cached.as_ref().is_some_and(worn) {
            self.compaction_regrounds += 1;
            cached = None;
        }
        let mut engine = match cached {
            Some(engine) => engine,
            None => EngineState::cold(translate(
                &self.graph,
                &self.program,
                &solver.caps(),
                &GroundConfig::default(),
            )?),
        };
        // The cache has consumed the history; keep the log bounded.
        self.graph.truncate_log(engine.grounding.epoch());

        // 2. Warm-started solve. The solve driver splices clean
        // components from the previous MAP state and offers it,
        // projected per component, to the backend, which may ignore it.
        let warm = engine.last_state.take();
        let was_solved = warm.is_some();
        let solve_start = Instant::now();
        let outcome = solve_dispatch(
            &*solver,
            &mut engine.grounding,
            warm,
            self.config.component_mode,
        )?;
        let solve_time = solve_start.elapsed();
        let state = outcome.state;

        // 3. Interpret — by difference from the carried snapshot when
        // there is one to start from — then cache grounding, state and
        // snapshot for the next round. Grounding time is the deltas'
        // since the last interpretation (a public `apply_delta` counts),
        // or the cold grounding's when this call grounded.
        let changes = engine.grounding.take_changes();
        let grounding_time = if was_solved {
            changes.elapsed
        } else {
            engine.grounding.stats.elapsed
        };
        let forwarded = match (engine.carried.take(), &since_carried) {
            (Some(carried), Some(facts)) => carry_forward(
                carried,
                Resolved {
                    graph: &self.graph,
                    grounding: &engine.grounding,
                    after: &state,
                    moved: outcome.moved,
                    facts,
                    changes,
                    config: &self.config,
                },
            ),
            _ => None,
        };
        let Forwarded {
            mut resolution,
            view,
            maps,
            spare,
            reclaim,
        } = forwarded.unwrap_or_else(|| {
            let (resolution, maps) =
                interpret(&self.graph, &engine.grounding, &state, &self.config);
            Forwarded {
                resolution,
                view: None,
                maps,
                spare: None,
                reclaim: Reclaim::default(),
            }
        });
        resolution.stats.grounding_time = grounding_time;
        resolution.stats.solve_time = solve_time;
        resolution.stats.components = outcome.components;
        resolution.stats.components_solved = outcome.components_solved;
        resolution.stats.partition_atoms_visited = outcome.atoms_visited;
        resolution.stats.compaction_regrounds = self.compaction_regrounds;
        let epoch = self.graph.epoch();
        let snapshot = Arc::new(match view {
            Some((expanded, index)) => Snapshot::prebuilt(resolution, epoch, expanded, index),
            None => Snapshot::from_resolution(resolution, epoch),
        });
        engine.last_state = Some(state);
        engine.carried = Some(Carried {
            snapshot: Arc::clone(&snapshot),
            maps,
            spare,
            reclaim,
        });
        self.cache = Some(engine);
        self.latest = Some(Arc::clone(&snapshot));
        Ok(snapshot)
    }
}

/// Journals one planned (pre-validated) op to the write-ahead log,
/// *before* the graph mutation. Epochs are assigned exactly as the
/// subsequent execution will bump them (`graph.epoch() + 1` per
/// mutation, upserts journaling each removal then the insert), and
/// insert ids are the arena positions the graph is about to mint — so
/// a replayed log rebuilds byte-identical state.
fn journal_planned(
    wal: &mut Wal,
    graph: &UtkGraph,
    planned: &PlannedOp<'_>,
) -> Result<(), TecoreError> {
    let epoch = graph.epoch();
    match planned {
        PlannedOp::Insert {
            subject,
            predicate,
            object,
            interval,
            confidence,
        } => {
            let id = FactId(graph.arena_len() as u32);
            wal.log_insert(
                epoch + 1,
                id,
                &InsertRecord {
                    subject,
                    predicate,
                    object,
                    interval: *interval,
                    confidence: *confidence,
                },
            )?;
        }
        PlannedOp::Remove(id) => wal.log_remove(epoch + 1, *id)?,
        PlannedOp::Upsert {
            doomed,
            subject,
            predicate,
            object,
            interval,
            confidence,
        } => {
            for (i, id) in doomed.iter().enumerate() {
                wal.log_remove(epoch + 1 + i as u64, *id)?;
            }
            let id = FactId(graph.arena_len() as u32);
            wal.log_insert(
                epoch + 1 + doomed.len() as u64,
                id,
                &InsertRecord {
                    subject,
                    predicate,
                    object,
                    interval: *interval,
                    confidence: *confidence,
                },
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SolverRegistry;
    use tecore_ground::ClauseStore;
    use tecore_kg::parser::parse_graph;
    use tecore_temporal::Interval;

    const RANIERI: &str = "\
        (CR, coach, Chelsea, [2000,2004]) 0.9\n\
        (CR, coach, Leicester, [2015,2017]) 0.7\n\
        (CR, playsFor, Palermo, [1984,1986]) 0.5\n\
        (CR, birthDate, 1951, [1951,2017]) 1.0\n\
        (CR, coach, Napoli, [2001,2003]) 0.6\n";

    const PAPER_PROGRAM: &str = "\
        f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5\n\
        f2: quad(x, worksFor, y, t) ^ quad(y, locatedIn, z, t') ^ overlap(t, t') \
            -> quad(x, livesIn, z, t ∩ t') w = 1.6\n\
        f3: quad(x, playsFor, y, t) ^ quad(x, birthDate, z, t') ^ t - t' < 20 \
            -> quad(x, type, TeenPlayer) w = 2.9\n\
        c1: quad(x, birthDate, y, t) ^ quad(x, deathDate, z, t') -> before(t, t') w = inf\n\
        c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf\n\
        c3: quad(x, bornIn, y, t) ^ quad(x, bornIn, z, t') ^ overlap(t, t') -> y = z w = inf\n";

    /// `P(worksFor(CR, Palermo) = 1)`: its component's four worlds
    /// weighed by hand (`playsFor` at 0.5 → unit weight 0.2, f1 at 2.5,
    /// the hidden prior at 0.05).
    const RUNNING_EXAMPLE_MARGINAL: f64 = 0.657_594_642_314_038_3;

    /// The four registered backends, in the order the tests run them.
    const BACKENDS: [&str; 4] = ["mln-exact", "mln-walksat", "mln-cpi", "psl-admm"];

    fn solver(name: &str) -> Arc<dyn MapSolver> {
        SolverRegistry::with_default_backends()
            .resolve(name)
            .unwrap()
    }

    fn run(backend: Arc<dyn MapSolver>) -> Arc<Snapshot> {
        let graph = parse_graph(RANIERI).unwrap();
        let program = LogicProgram::parse(PAPER_PROGRAM).unwrap();
        let config = TecoreConfig {
            backend,
            ..TecoreConfig::default()
        };
        Engine::with_config(graph, program, config)
            .resolve()
            .unwrap()
    }

    /// The paper's running example, Figure 7: fact (5) (Napoli) removed,
    /// facts (1)–(4) kept, on every backend.
    #[test]
    fn running_example_all_backends() {
        for name in BACKENDS {
            let r = run(solver(name));
            assert!(r.stats.feasible, "{name}: must be feasible");
            assert_eq!(
                r.stats.conflicting_facts, 1,
                "{name}: exactly the Napoli fact removed"
            );
            assert_eq!(r.consistent.len(), 4, "{name}");
            let removed = &r.removed[0];
            assert_eq!(
                r.consistent.dict().resolve(removed.fact.object),
                "Napoli",
                "{name}"
            );
            // f1 derives worksFor(CR, Palermo, [1984,1986]).
            assert_eq!(r.inferred.len(), 1, "{name}: {:?}", r.inferred);
            assert_eq!(r.inferred[0].predicate, "worksFor", "{name}");
            // c2 detected exactly one conflict.
            assert_eq!(
                r.stats.per_constraint,
                vec![("c2".to_string(), 1)],
                "{name}"
            );
        }
    }

    fn iv(a: i64, b: i64) -> Interval {
        Interval::new(a, b).unwrap()
    }

    /// Inserts one fact through a one-op batch; returns the minted id.
    fn insert(engine: &mut Engine, s: &str, p: &str, o: &str, at: Interval, c: f64) -> FactId {
        let batch = EditBatch::new().insert(s, p, o, at, c);
        let report = engine.apply(&batch).into_result();
        let id = report.expect("a valid insert").inserted_ids().next();
        id.expect("one insert")
    }

    /// Removes one live fact through a one-op batch.
    fn remove(engine: &mut Engine, id: FactId) {
        let batch = EditBatch::new().remove(id);
        engine.apply(&batch).into_result().expect("a live fact");
    }

    /// Sorted display strings of a resolution's surviving facts.
    fn canonical(r: &Resolution) -> (Vec<String>, Vec<String>, Vec<String>) {
        let mut kept: Vec<String> = r
            .consistent
            .iter()
            .map(|(_, f)| f.display(r.consistent.dict()).to_string())
            .collect();
        kept.sort();
        let mut removed: Vec<String> = r
            .removed
            .iter()
            .map(|rf| rf.fact.display(r.consistent.dict()).to_string())
            .collect();
        removed.sort();
        let mut inferred: Vec<String> = r
            .inferred
            .iter()
            .map(|f| format!("{} {} {} {}", f.subject, f.predicate, f.object, f.interval))
            .collect();
        inferred.sort();
        (kept, removed, inferred)
    }

    /// A sequence of edits through the incremental engine must land on
    /// exactly the repair a cold solve of the final graph computes — on
    /// every backend, warm starts included.
    #[test]
    fn incremental_edits_match_cold_resolve_on_all_backends() {
        for name in BACKENDS {
            let graph = parse_graph(RANIERI).unwrap();
            let program = LogicProgram::parse(PAPER_PROGRAM).unwrap();
            let config = TecoreConfig {
                backend: solver(name),
                ..TecoreConfig::default()
            };
            let mut engine = Engine::with_config(graph, program.clone(), config.clone());

            // Prime: identical to the batch result.
            let first = engine.resolve_incremental().unwrap();
            assert_eq!(first.stats.conflicting_facts, 1, "{name}");

            // Edit burst: a fresh clash with Leicester, and the Palermo
            // spell (the worksFor derivation's support) goes away.
            insert(&mut engine, "CR", "coach", "Roma", iv(2016, 2018), 0.95);
            let plays = engine.graph().dict().lookup("playsFor").unwrap();
            let palermo_fact = engine
                .graph()
                .facts_with_predicate(plays)
                .next()
                .map(|(id, _)| id)
                .unwrap();
            remove(&mut engine, palermo_fact);

            let incremental = engine.resolve_incremental().unwrap();
            let cold = Engine::with_config(engine.graph().clone(), program, config)
                .resolve()
                .unwrap();
            assert_eq!(
                canonical(incremental.resolution()),
                canonical(cold.resolution()),
                "{name}"
            );
            assert_eq!(incremental.stats.feasible, cold.stats.feasible, "{name}");
            assert!(
                (incremental.stats.cost - cold.stats.cost).abs() < 1e-6,
                "{name}: incremental cost {} vs cold {}",
                incremental.stats.cost,
                cold.stats.cost
            );
            // The derivation died with its support.
            assert!(incremental.inferred.is_empty(), "{name}");
        }
    }

    /// Re-resolving with no edits reuses the cached grounding and stays
    /// correct; netted churn (insert+remove pairs) still advances the
    /// cached epoch so the graph's change log drains instead of being
    /// re-netted forever.
    #[test]
    fn incremental_noop_resolve_reuses_cache() {
        let graph = parse_graph(RANIERI).unwrap();
        let program = LogicProgram::parse(PAPER_PROGRAM).unwrap();
        let mut engine = Engine::new(graph, program);
        let first = engine.resolve_incremental().unwrap();
        let again = engine.resolve_incremental().unwrap();
        assert_eq!(canonical(first.resolution()), canonical(again.resolution()));

        // Churn that nets to nothing: the cache must still catch up to
        // the graph's epoch (otherwise the log accumulates forever).
        let id = insert(&mut engine, "CR", "coach", "Churn", iv(1990, 1991), 0.8);
        remove(&mut engine, id);
        let after_churn = engine.resolve_incremental().unwrap();
        assert_eq!(
            canonical(first.resolution()),
            canonical(after_churn.resolution())
        );
        assert_eq!(
            engine.cache.as_ref().unwrap().grounding.epoch(),
            engine.graph.epoch(),
            "cached epoch caught up through the net-empty delta"
        );
    }

    /// Snapshots are epoch-stamped and versioned: each resolve captures
    /// the graph epoch it ran at, `latest()` tracks the newest, and old
    /// snapshots stay untouched by later edits.
    #[test]
    fn snapshots_are_epoch_stamped_and_stable() {
        let graph = parse_graph(RANIERI).unwrap();
        let program = LogicProgram::parse(PAPER_PROGRAM).unwrap();
        let mut engine = Engine::new(graph, program);
        assert!(engine.latest().is_none());

        let first = engine.resolve_incremental().unwrap();
        assert_eq!(first.epoch(), 5, "five inserts built the graph");
        assert_eq!(first.at(2016).predicate("coach").count(), 1);

        insert(&mut engine, "CR", "coach", "Roma", iv(2016, 2018), 0.95);
        let second = engine.resolve_incremental().unwrap();
        assert!(second.epoch() > first.epoch());
        assert!(Arc::ptr_eq(&engine.latest().unwrap(), &second));

        // The old snapshot still answers from its frozen world: the
        // Roma/Leicester clash is invisible to it.
        assert_eq!(first.stats.conflicting_facts, 1);
        assert_eq!(first.at(2016).predicate("coach").count(), 1);
        assert_eq!(second.stats.conflicting_facts, 2);
    }

    /// Long churny sessions must not drag an ever-growing graveyard of
    /// dead atom slots through every solve: once dead slots dominate,
    /// the engine re-grounds compactly.
    #[test]
    fn graveyard_compaction_triggers_reground() {
        let graph = parse_graph(RANIERI).unwrap();
        let program = LogicProgram::parse(PAPER_PROGRAM).unwrap();
        let mut engine = Engine::new(graph, program);
        engine.resolve_incremental().unwrap();
        // Each round materialises a fresh atom, then kills it.
        for i in 0..70 {
            let id = insert(
                &mut engine,
                &format!("p{i}"),
                "coach",
                &format!("c{i}"),
                iv(2000, 2001),
                0.8,
            );
            engine.resolve_incremental().unwrap();
            remove(&mut engine, id);
        }
        let r = engine.resolve_incremental().unwrap();
        assert_eq!(r.stats.conflicting_facts, 1);
        let atoms = engine.cache.as_ref().unwrap().grounding.num_atoms();
        assert!(atoms < 20, "graveyard compacted away, got {atoms} atoms");
    }

    /// The program's constants need not be the graph's: the engine
    /// interns them into its graph whenever it takes a program. On the
    /// graph it was built with (no fact states `worksFor`), batch and
    /// incremental, on every backend; and after `reconfigure` to a
    /// program with a head constant of its own, carried forward.
    #[test]
    fn constants_the_graph_lacks_are_interned_by_the_engine() {
        let program = LogicProgram::parse(PAPER_PROGRAM).unwrap();
        let ranieri = parse_graph(RANIERI).unwrap();
        assert_eq!(ranieri.dict().lookup("worksFor"), None);
        let figure_7 = |s: &Snapshot, what: &str| {
            assert_eq!(s.stats.conflicting_facts, 1, "{what}");
            let inferred: Vec<&str> = s.inferred.iter().map(|f| f.predicate.as_str()).collect();
            assert_eq!(inferred, ["worksFor"], "{what}");
        };
        for name in BACKENDS {
            let config = TecoreConfig {
                backend: solver(name),
                ..TecoreConfig::default()
            };
            let mut engine = Engine::with_config(ranieri.clone(), program.clone(), config);
            figure_7(&engine.resolve().unwrap(), name);
            figure_7(&engine.resolve_incremental().unwrap(), name);
        }

        let mut engine = Engine::new(ranieri, program.clone());
        let mut managed = program;
        managed.extend(
            LogicProgram::parse("f4: quad(x, coach, y, t) -> quad(x, managed, y, t) w = 0.5")
                .unwrap(),
        );
        engine.reconfigure(managed, TecoreConfig::default());
        assert!(engine.graph().dict().lookup("managed").is_some());
        engine.resolve_incremental().unwrap();
        insert(&mut engine, "CR", "coach", "Roma", iv(2016, 2018), 0.95);
        let carried = engine.resolve_incremental().unwrap();
        assert!(carried.inferred.iter().any(|f| f.predicate == "managed"));
        let cold = engine.resolve().unwrap();
        assert_eq!(
            canonical(carried.resolution()),
            canonical(cold.resolution())
        );
    }

    /// The reground counter is the engine's: a batch resolve reports
    /// the compactions the engine counted before it.
    #[test]
    fn resolve_reports_the_engines_reground_counters() {
        let graph = parse_graph(RANIERI).unwrap();
        let program = LogicProgram::parse(PAPER_PROGRAM).unwrap();
        let mut engine = Engine::new(graph, program);
        engine.resolve_incremental().unwrap();
        // A compaction: dead atoms come to outnumber the live ones.
        for i in 0..70 {
            let id = insert(
                &mut engine,
                &format!("p{i}"),
                "coach",
                "c",
                iv(2000, 2001),
                0.8,
            );
            engine.resolve_incremental().unwrap();
            remove(&mut engine, id);
        }
        let batch = engine.resolve().unwrap();
        assert!(batch.stats.compaction_regrounds >= 1);
    }

    /// `resolve` is `resolve_incremental` from an empty cache, and
    /// leaves none behind: on a warm engine it solves every component
    /// and drops the cache, so the next `resolve_incremental` grounds
    /// cold too — every answer the fresh engine's.
    #[test]
    fn a_resolve_leaves_the_engine_cold() {
        let program = LogicProgram::parse(PAPER_PROGRAM).unwrap();
        let config = TecoreConfig {
            backend: solver("mln-exact"),
            ..TecoreConfig::default()
        };
        let fresh = |engine: &Engine| {
            Engine::with_config(engine.graph().clone(), program.clone(), config.clone())
                .resolve()
                .unwrap()
        };
        let every_component = |s: &Snapshot| {
            assert!(s.stats.components > 1);
            assert_eq!(s.stats.components_solved, s.stats.components);
        };
        let mut engine = Engine::with_config(wide_graph(), program.clone(), config.clone());
        engine.resolve_incremental().unwrap();
        insert(&mut engine, "p1", "coach", "c9", iv(2001, 2003), 0.58);
        let batch = engine.resolve().unwrap();
        every_component(&batch);
        assert!(engine.cache.is_none(), "resolve holds no grounding");
        assert_eq!(
            canonical(batch.resolution()),
            canonical(fresh(&engine).resolution())
        );

        insert(&mut engine, "p2", "coach", "c9", iv(2002, 2004), 0.61);
        let next = engine.resolve_incremental().unwrap();
        every_component(&next);
        assert_eq!(
            canonical(next.resolution()),
            canonical(fresh(&engine).resolution())
        );
    }

    /// ~120 facts over thirty independent subjects: coaching spells
    /// (every third subject with a clash), a playing spell each (f1
    /// derives `worksFor`) and some birth dates (f3 derives
    /// `TeenPlayer`) — large enough that a single edit stays under the
    /// rebuild threshold.
    fn wide_graph() -> UtkGraph {
        let mut text = String::new();
        for i in 0..30 {
            let conf = |base: f64, k: usize| base + ((i * 7 + k) % 11) as f64 * 0.0093;
            text += &format!(
                "(p{i}, coach, c{}, [{},{}]) {}\n",
                i % 7,
                2000 + i % 5,
                2004 + i % 5,
                conf(0.8, 0)
            );
            text += &format!(
                "(p{i}, coach, c{}, [2010,2013]) {}\n",
                (i + 3) % 7,
                conf(0.7, 1)
            );
            if i % 3 == 0 {
                text += &format!(
                    "(p{i}, coach, c{}, [{},{}]) {}\n",
                    (i + 1) % 7,
                    2001 + i % 5,
                    2003 + i % 5,
                    conf(0.55, 2)
                );
            }
            text += &format!(
                "(p{i}, playsFor, c{}, [{},{}]) {}\n",
                i % 5,
                1980 + i % 9,
                1983 + i % 9,
                conf(0.75, 3)
            );
            if i % 4 == 0 {
                text += &format!(
                    "(p{i}, birthDate, y{}, [{},2017]) {}\n",
                    i % 3,
                    1965 + i % 4,
                    conf(0.85, 4)
                );
            }
        }
        parse_graph(&text).unwrap()
    }

    /// One random edit: `(kind, subject, relation, object, start, len)`.
    type Edit = (u8, u8, u8, u8, i64, i64);

    /// Applies one step's edits as one batch.
    fn apply_edits(engine: &mut Engine, edits: &[Edit], serial: &mut u32) {
        let mut batch = EditBatch::new();
        let live: Vec<FactId> = engine.graph().iter().map(|(id, _)| id).collect();
        let mut gone = Vec::new();
        let mut insert = |batch: EditBatch, s: String, rel: u8, o: u8, start: i64, len: i64| {
            *serial += 1;
            let conf = 0.52 + f64::from(*serial % 37) * 0.011 + f64::from(*serial % 7) * 0.0013;
            let relation = ["coach", "playsFor", "birthDate"][usize::from(rel % 3)];
            batch.insert(s, relation, format!("c{o}"), iv(start, start + len), conf)
        };
        for &(kind, s, rel, o, start, len) in edits {
            match kind {
                // Most edits touch the existing subjects.
                0..=4 => batch = insert(batch, format!("p{s}"), rel, o, start, len),
                5..=8 if !live.is_empty() => {
                    let id = live[(usize::from(s) * 7 + usize::from(o)) % live.len()];
                    if !gone.contains(&id) {
                        gone.push(id);
                        batch = batch.remove(id);
                    }
                }
                // A flood: more than an eighth of the graph at once.
                9 => {
                    for j in 0..30u8 {
                        batch = insert(
                            batch,
                            format!("q{s}_{j}"),
                            rel.wrapping_add(j),
                            o,
                            start,
                            len,
                        );
                    }
                }
                _ => {}
            }
        }
        engine.apply(&batch).into_result().expect("valid batch");
    }

    fn rendered(graph: &UtkGraph) -> Vec<String> {
        let mut out: Vec<String> = graph
            .iter()
            .map(|(_, f)| f.display(graph.dict()).to_string())
            .collect();
        out.sort();
        out
    }

    /// The snapshot `resolve_incremental` just returned against a full
    /// interpretation of the very grounding and MAP state it was read
    /// from. Same state, so equality is exact — whatever the backend
    /// found, the two ways of reading it must agree.
    fn assert_equals_full_interpretation(engine: &Engine, carried: &Snapshot, what: &str) {
        let cache = engine.cache.as_ref().expect("primed");
        let state = cache.last_state.as_ref().expect("solved");
        let (full, _) = interpret(&engine.graph, &cache.grounding, state, &engine.config);
        let full = Snapshot::from_resolution(full, carried.epoch());
        let removed = |s: &Snapshot| -> Vec<(FactId, String)> {
            s.removed
                .iter()
                .map(|r| (r.id, r.fact.display(s.consistent.dict()).to_string()))
                .collect()
        };
        assert_eq!(removed(carried), removed(&full), "{what}: removed");
        assert_eq!(carried.inferred, full.inferred, "{what}: inferred");
        assert_eq!(carried.conflicts, full.conflicts, "{what}: conflicts");
        assert_eq!(
            rendered(&carried.consistent),
            rendered(&full.consistent),
            "{what}: consistent"
        );
        assert_eq!(
            rendered(carried.expanded()),
            rendered(full.expanded()),
            "{what}: expanded"
        );
        assert_eq!(
            carried.index(),
            &tecore_kg::GraphTemporalIndex::build(carried.expanded()),
            "{what}: the patched index is the index of the patched graph"
        );
        let (a, b) = (&carried.stats, &full.stats);
        assert_eq!(
            (
                a.total_facts,
                a.conflicting_facts,
                a.inferred_facts,
                a.thresholded_facts,
                a.ungraded_facts
            ),
            (
                b.total_facts,
                b.conflicting_facts,
                b.inferred_facts,
                b.thresholded_facts,
                b.ungraded_facts
            ),
            "{what}: counts"
        );
        assert_eq!(a.per_constraint, b.per_constraint, "{what}: per_constraint");
        assert_eq!((a.atoms, a.clauses), (b.atoms, b.clauses), "{what}: sizes");
        // The carried maps name the facts they say they name.
        let maps = &cache.carried.as_ref().expect("published").maps;
        let expanded_ids = if maps.kept_expanded.is_empty() {
            &maps.kept
        } else {
            &maps.kept_expanded
        };
        for (id, fact) in engine.graph.iter() {
            let text = fact.display(engine.graph.dict()).to_string();
            for (ids, view) in [
                (&maps.kept, &*carried.consistent),
                (expanded_ids, carried.expanded()),
            ] {
                match ids.get(id) {
                    Some(at) => assert_eq!(
                        view.fact(at)
                            .expect("mapped facts are live")
                            .display(view.dict())
                            .to_string(),
                        text,
                        "{what}: id map"
                    ),
                    None => assert!(carried.removed.iter().any(|r| r.id == id), "{what}: {text}"),
                }
            }
        }
    }

    /// Drives edit steps through every backend, checking each
    /// incremental snapshot; returns, per backend, which steps'
    /// snapshots were carried forward (rather than rebuilt). Every
    /// sequence runs twice: with each snapshot dropped before the next
    /// publish, which then lands on the spare view, and with all of
    /// them kept, which makes every publish copy the latest one. The
    /// program derives, so a discrete backend grades by exact marginals;
    /// `mln-walksat` runs once more monolithic, where a solve may move
    /// any atom's grade.
    fn check_carried_forward(
        steps: &[Vec<Edit>],
        threshold: f64,
    ) -> Vec<(&'static str, Vec<bool>)> {
        use ComponentMode::{Auto, Monolithic};
        let mut runs = Vec::new();
        for name in BACKENDS {
            let backend = solver(name);
            // (component mode, keep every snapshot)
            let mut variants = vec![(Auto, false), (Auto, true)];
            if name == "mln-walksat" {
                variants.push((Monolithic, false));
            }
            for (component_mode, keep_all) in variants {
                let config = TecoreConfig {
                    backend: backend.clone(),
                    threshold,
                    component_mode,
                };
                let program = LogicProgram::parse(PAPER_PROGRAM).unwrap();
                let mut engine = Engine::with_config(wide_graph(), program, config);
                engine.resolve_incremental().unwrap();
                let mut serial = 0;
                let mut carried = Vec::new();
                let mut kept = Vec::new();
                for (i, edits) in steps.iter().enumerate() {
                    apply_edits(&mut engine, edits, &mut serial);
                    let snapshot = engine.resolve_incremental().unwrap();
                    carried.push(snapshot.built_index().is_some());
                    let what = format!(
                        "{name}, {component_mode:?}, keep_all {keep_all}, step {i} {edits:?}"
                    );
                    assert_equals_full_interpretation(&engine, &snapshot, &what);
                    if keep_all {
                        assert!(snapshot.stats.view_facts_copied > 0, "{what}");
                        kept.push(snapshot);
                    }
                }
                if component_mode == Auto {
                    runs.push((name, carried));
                }
            }
        }
        runs
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        #[test]
        fn carried_forward_equals_full_interpretation(
            steps in proptest::prop::collection::vec(
                proptest::prop::collection::vec(
                    (0u8..10, 0u8..34, 0u8..3, 0u8..7, 1976i64..2014, 0i64..6),
                    1..4,
                ),
                1..8,
            ),
        ) {
            check_carried_forward(&steps, 0.0);
        }
    }

    /// Both sides of the patch-or-rebuild choice, and the transitions
    /// in between: a removal takes the last derivation of a subject
    /// away and an insert brings one back (the view splits from the
    /// consistent graph and stays split), a duplicate statement
    /// re-words a conflict without touching its clause, a flood takes
    /// the rebuild branch, and with a threshold some derived facts are
    /// accepted by MAP but not shown.
    #[test]
    fn carried_forward_patches_small_edits_and_rebuilds_on_floods() {
        let steps: Vec<Vec<Edit>> = vec![
            vec![(5, 0, 0, 3, 0, 0)],                             // remove one fact
            vec![(0, 2, 1, 4, 1990, 2)], // a new playing spell: worksFor derived
            vec![(0, 0, 0, 1, 2001, 2)], // same statement as p0's clashing spell
            vec![(0, 31, 0, 2, 2000, 3), (0, 31, 0, 3, 2001, 3)], // a fresh clash
            vec![(9, 1, 0, 2, 1990, 1)], // flood
            vec![(6, 3, 0, 1, 0, 0), (7, 9, 0, 5, 0, 0)],
        ];
        for (name, carried) in check_carried_forward(&steps, 0.0) {
            assert!(!carried[4], "{name}: the flood is rebuilt");
            // An exact solve moves only the atoms an edit bears on; a
            // stochastic or soft-valued one may move many more.
            if name == "mln-exact" {
                assert_eq!(carried, [true, true, true, true, false, true]);
            }
        }
        // Every backend grades derived facts: a bar between their
        // values hides some.
        check_carried_forward(&steps, 0.9);
    }

    /// The sequence a caller timing the stages uses: net the delta,
    /// apply it through the public `apply_delta`, then resolve. The
    /// resolve's own delta is empty by then, but the snapshot must
    /// still be carried forward from everything that changed, and
    /// `grounding_time` must count the delta that did the work.
    #[test]
    fn apply_delta_ahead_of_the_resolve_is_carried_and_timed() {
        let program = LogicProgram::parse(PAPER_PROGRAM).unwrap();
        let mut engine = Engine::new(wide_graph(), program);
        engine.resolve_incremental().unwrap();
        // The first warm solve moves a cold (monolithic) result onto
        // the component path, every component solved once; from the
        // second on an edit re-solves what it touched.
        let primed = engine.resolve_incremental().unwrap();
        insert(&mut engine, "p1", "coach", "c9", iv(2001, 2003), 0.58);
        let delta = engine.graph().since(primed.epoch()).unwrap();
        let applied = engine.apply_delta(&delta).expect("cached grounding");
        assert_eq!(applied.facts_added, 1);
        let snapshot = engine.resolve_incremental().unwrap();
        assert!(
            snapshot.built_index().is_some(),
            "a one-fact edit is carried forward"
        );
        assert_equals_full_interpretation(&engine, &snapshot, "apply_delta first");
        assert!(
            snapshot.stats.grounding_time >= applied.elapsed,
            "grounding_time {:?} leaves out the applied delta's {:?}",
            snapshot.stats.grounding_time,
            applied.elapsed
        );
    }

    /// A delta that does not start at the cached epoch is not applied,
    /// and the cache stays: the next resolve syncs it from the change
    /// log and carries its snapshot forward.
    #[test]
    fn apply_delta_off_the_cached_epoch_keeps_the_cache() {
        let program = LogicProgram::parse(PAPER_PROGRAM).unwrap();
        let mut engine = Engine::new(wide_graph(), program);
        engine.resolve_incremental().unwrap();
        let primed = engine.resolve_incremental().unwrap();
        insert(&mut engine, "p1", "coach", "c9", iv(2001, 2003), 0.58);
        insert(&mut engine, "p2", "coach", "c9", iv(2002, 2004), 0.61);
        let ahead = engine.graph().since(primed.epoch() + 1).unwrap();
        assert!(engine.apply_delta(&ahead).is_none());
        let cache = engine.cache.as_ref().expect("the cache stays");
        assert_eq!(cache.grounding.epoch(), primed.epoch());
        let snapshot = engine.resolve_incremental().unwrap();
        assert!(snapshot.built_index().is_some(), "carried forward");
        assert_eq!(snapshot.stats.compaction_regrounds, 0);
        assert_equals_full_interpretation(&engine, &snapshot, "a stale delta");
    }

    #[test]
    fn expanded_graph_materialised_on_snapshot() {
        let r = run(solver("mln-exact"));
        let expanded = r.expanded();
        assert_eq!(expanded.len(), 5); // 4 kept + 1 inferred
        let works_for = expanded.dict().lookup("worksFor").unwrap();
        assert_eq!(expanded.facts_with_predicate(works_for).count(), 1);
        // Same materialisation every access.
        assert!(std::ptr::eq(expanded, r.expanded()));
    }

    /// `worksFor(CR, Palermo)` reads its exact marginal on every
    /// discrete backend, with only the backend set: the component solve
    /// of `mln-exact` and the monolithic one of the other two, graded
    /// over `Partition::of`.
    #[test]
    fn gibbs_confidence_grades_inferred() {
        for name in &BACKENDS[..3] {
            let r = run(solver(name));
            let [fact] = &r.inferred[..] else {
                panic!("one derived fact: {:?}", r.inferred);
            };
            assert!(
                (fact.confidence - RUNNING_EXAMPLE_MARGINAL).abs() < 1e-12,
                "{fact}"
            );
            assert_eq!(r.stats.ungraded_facts, 0);
        }
    }

    /// A program of constraints alone derives nothing to grade, so a
    /// discrete solve of it leaves its states without soft values,
    /// cold and warm.
    #[test]
    fn constraint_programs_are_not_graded() {
        use tecore_datagen::standard::{football_program, wikidata_program};
        use tecore_datagen::{generate_football, generate_wikidata};
        use tecore_datagen::{FootballConfig, WikidataConfig};
        let football = FootballConfig::with_target_facts(2_000, 0.25, 1);
        let wikidata = WikidataConfig {
            total_facts: 2_000,
            noise_ratio: 0.1,
            seed: 1,
        };
        let inputs = [
            (generate_football(&football).graph, football_program()),
            (generate_wikidata(&wikidata).graph, wikidata_program()),
        ];
        for (graph, program) in inputs {
            for name in &BACKENDS[..3] {
                let config = TecoreConfig {
                    backend: solver(name),
                    ..TecoreConfig::default()
                };
                let mut engine = Engine::with_config(graph.clone(), program.clone(), config);
                let graded = |engine: &Engine| {
                    let cache = engine.cache.as_ref().expect("cached");
                    let state = cache.last_state.as_ref().expect("solved");
                    state.soft_values.is_some()
                };
                engine.resolve_incremental().unwrap();
                assert!(!graded(&engine), "{name}: cold");
                // A second spell of the first fact's subject, elsewhere.
                let (_, &first) = engine.graph().iter().next().expect("a fact");
                let dict = engine.graph().dict();
                let [s, p] = [first.subject, first.predicate].map(|t| dict.resolve(t).to_string());
                insert(&mut engine, &s, &p, "Elsewhere", first.interval, 0.4);
                let warm = engine.resolve_incremental().unwrap();
                assert!(warm.stats.components_solved > 0, "{name}: a warm solve");
                assert!(!graded(&engine), "{name}: warm");
            }
        }
    }

    #[test]
    fn threshold_drops_inferred() {
        let graph = parse_graph(RANIERI).unwrap();
        let program = LogicProgram::parse(PAPER_PROGRAM).unwrap();
        let config = TecoreConfig {
            backend: solver("mln-exact"),
            threshold: 2.0, // impossible bar: drops everything
            ..TecoreConfig::default()
        };
        let r = Engine::with_config(graph, program, config)
            .resolve()
            .unwrap();
        assert_eq!(r.inferred.len(), 0);
        assert_eq!(r.stats.thresholded_facts, 1);
    }

    #[test]
    fn psl_confidences_are_soft_values() {
        let r = run(solver("psl-admm"));
        assert_eq!(r.inferred.len(), 1);
        let c = r.inferred[0].confidence;
        assert!((0.0..=1.0).contains(&c));
        assert!(
            c > 0.5,
            "supported derivation should have high value, got {c}"
        );
    }

    #[test]
    fn conflict_free_graph_untouched() {
        let graph = parse_graph(
            "(CR, coach, Chelsea, [2000,2004]) 0.9\n\
             (CR, coach, Leicester, [2015,2017]) 0.7\n",
        )
        .unwrap();
        let program = LogicProgram::parse(PAPER_PROGRAM).unwrap();
        let r = Engine::new(graph, program).resolve().unwrap();
        assert_eq!(r.stats.conflicting_facts, 0);
        assert_eq!(r.consistent.len(), 2);
        assert!(r.stats.per_constraint.is_empty());
    }

    /// A backend outside the registry drops straight into the config —
    /// the acceptance test for the open solver seam.
    #[test]
    fn external_solver_plugs_in() {
        use tecore_ground::{MapSolver, SolveError, SolverCaps};

        /// Trivial "solver": keeps every atom (never repairs anything).
        #[derive(Debug)]
        struct KeepAll;

        impl MapSolver for KeepAll {
            fn name(&self) -> &str {
                "keep-all"
            }
            fn caps(&self) -> SolverCaps {
                SolverCaps::mln()
            }
            fn solve(
                &self,
                atoms: usize,
                clauses: &ClauseStore,
                _warm: Option<&MapState>,
            ) -> Result<MapState, SolveError> {
                let (cost, hard) = tecore_ground::evaluate_world(clauses, &vec![true; atoms]);
                Ok(MapState {
                    assignment: vec![true; atoms],
                    cost,
                    feasible: hard == 0,
                    soft_values: None,
                })
            }
        }

        let r = run(Arc::new(KeepAll));
        // Keeping everything keeps the Napoli clash: infeasible, nothing
        // removed, and the stats carry the external backend's name.
        assert!(!r.stats.feasible);
        assert_eq!(r.stats.conflicting_facts, 0);
        assert_eq!(r.stats.backend, "keep-all");
    }

    /// The solve driver offers every backend the previous state: none
    /// on a cold solve, the component's slice of it (in local ids, new
    /// atoms cut off) on a warm component solve, and all of it on a
    /// warm solve of a single component, which goes to the backend
    /// whole.
    #[test]
    fn every_backend_is_offered_the_warm_state() {
        use std::sync::Mutex;
        use tecore_ground::{MapSolver, SolveError, SolverCaps};
        use tecore_logic::validate::Expressivity;
        use tecore_mln::BranchAndBound;

        /// Exact search that records the warm state of every solve.
        #[derive(Debug, Default)]
        struct Recording(Mutex<Vec<Option<MapState>>>);

        impl Recording {
            fn take(&self) -> Vec<Option<MapState>> {
                std::mem::take(&mut *self.0.lock().unwrap())
            }
        }

        impl MapSolver for Recording {
            fn name(&self) -> &str {
                "recording"
            }
            fn caps(&self) -> SolverCaps {
                SolverCaps {
                    expressivity: Expressivity::Mln,
                    soft_values: false,
                    exact: true,
                }
            }
            fn solve(
                &self,
                atoms: usize,
                clauses: &ClauseStore,
                warm: Option<&MapState>,
            ) -> Result<MapState, SolveError> {
                self.0.lock().unwrap().push(warm.cloned());
                MapSolver::solve(&BranchAndBound::new(), atoms, clauses, None)
            }
        }

        let engine_on = |text: &str, component_mode: ComponentMode| {
            let recording = Arc::new(Recording::default());
            let config = TecoreConfig {
                backend: recording.clone(),
                component_mode,
                ..TecoreConfig::default()
            };
            let program = LogicProgram::parse(PAPER_PROGRAM).unwrap();
            let engine = Engine::with_config(parse_graph(text).unwrap(), program, config);
            (engine, recording)
        };

        // Component by component: Roma clashes with Leicester alone,
        // and of that component only Leicester (kept) is known.
        let (mut engine, recording) = engine_on(RANIERI, ComponentMode::Components);
        engine.resolve_incremental().unwrap();
        let cold = recording.take();
        assert!(
            cold.len() > 1 && cold.iter().all(Option::is_none),
            "{cold:?}"
        );
        // The program derives, so the state carries exact marginals.
        let cache = engine.cache.as_ref().unwrap();
        let at = cache.grounding.fact_atoms.get(FactId(1)).unwrap();
        let grades = cache.last_state.as_ref().unwrap().soft_values.as_ref();
        let grade = grades.expect("graded")[at.index()];
        insert(&mut engine, "CR", "coach", "Roma", iv(2016, 2018), 0.95);
        let warm = engine.resolve_incremental().unwrap();
        assert_eq!(warm.stats.components_solved, 1);
        let leicester = MapState {
            assignment: vec![true],
            cost: 0.0,
            feasible: true,
            soft_values: Some(vec![grade]),
        };
        assert_eq!(recording.take(), [Some(leicester)]);

        // One component: the whole previous state goes to the backend.
        let clash = "(CR, coach, Chelsea, [2000,2004]) 0.9\n\
                     (CR, coach, Napoli, [2001,2003]) 0.6\n";
        let (mut engine, recording) = engine_on(clash, ComponentMode::Auto);
        engine.resolve_incremental().unwrap();
        assert_eq!(recording.take(), [None]);
        let previous = engine.cache.as_ref().unwrap().last_state.clone();
        insert(&mut engine, "CR", "coach", "Roma", iv(2002, 2003), 0.7);
        let warm = engine.resolve_incremental().unwrap();
        assert_eq!(warm.stats.components, 0, "solved as a whole");
        assert_eq!(recording.take(), [previous]);
    }

    /// `DebugStats::clauses` is the grounding's live clause count, on
    /// `mln-cpi` too, whose cutting-plane loop leaves the grounding
    /// over a rejected derivation out of its active set.
    #[test]
    fn clause_count_is_the_groundings() {
        let program = LogicProgram::parse(
            "f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 0.01\n\
             c: quad(x, worksFor, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf",
        )
        .unwrap();
        let graph = parse_graph("(a, playsFor, b, [1,5]) 0.9\n(a, coach, c, [2,4]) 0.8\n");
        let mut engine = Engine::with_config(graph.unwrap(), program, TecoreConfig::default());
        assert_eq!(engine.config().backend.name(), "mln-cpi");
        let live = |engine: &Engine| engine.cache.as_ref().unwrap().grounding.clauses.len();
        let cold = engine.resolve_incremental().unwrap();
        assert_eq!(cold.stats.clauses, live(&engine));
        insert(&mut engine, "d", "coach", "e", iv(1, 2), 0.9);
        let warm = engine.resolve_incremental().unwrap();
        assert_eq!(warm.stats.clauses, live(&engine));
        assert!(warm.stats.clauses > cold.stats.clauses);
    }

    /// A plugin that violates the assignment-length contract must fail
    /// with the documented solver error, not an index panic.
    #[test]
    fn short_assignment_is_a_solve_error() {
        use tecore_ground::{MapSolver, SolveError, SolverCaps};

        #[derive(Debug)]
        struct Truncated;

        impl MapSolver for Truncated {
            fn name(&self) -> &str {
                "truncated"
            }
            fn caps(&self) -> SolverCaps {
                SolverCaps::mln()
            }
            fn solve(
                &self,
                _atoms: usize,
                _clauses: &ClauseStore,
                _warm: Option<&MapState>,
            ) -> Result<MapState, SolveError> {
                Ok(MapState {
                    assignment: vec![true], // wrong length
                    cost: 0.0,
                    feasible: true,
                    soft_values: None,
                })
            }
        }

        let graph = parse_graph(RANIERI).unwrap();
        let program = LogicProgram::parse(PAPER_PROGRAM).unwrap();
        let config = TecoreConfig {
            backend: Arc::new(Truncated),
            ..TecoreConfig::default()
        };
        let err = Engine::with_config(graph, program, config)
            .resolve()
            .unwrap_err();
        let message = err.to_string();
        assert!(message.contains("solver error"), "{message}");
        assert!(message.contains("truncated"), "{message}");
        assert!(message.contains("1 assignments"), "{message}");
    }

    /// Declared caps and the returned state must agree on soft values.
    #[test]
    fn caps_state_mismatch_is_a_solve_error() {
        use tecore_ground::{MapSolver, SolveError, SolverCaps};

        /// Claims to be discrete but returns soft values.
        #[derive(Debug)]
        struct TwoFaced;

        impl MapSolver for TwoFaced {
            fn name(&self) -> &str {
                "two-faced"
            }
            fn caps(&self) -> SolverCaps {
                SolverCaps::mln() // soft_values: false
            }
            fn solve(
                &self,
                atoms: usize,
                _clauses: &ClauseStore,
                _warm: Option<&MapState>,
            ) -> Result<MapState, SolveError> {
                Ok(MapState {
                    assignment: vec![true; atoms],
                    cost: 0.0,
                    feasible: true,
                    soft_values: Some(vec![0.5; atoms]),
                })
            }
        }

        let graph = parse_graph(RANIERI).unwrap();
        let program = LogicProgram::parse(PAPER_PROGRAM).unwrap();
        let config = TecoreConfig {
            backend: Arc::new(TwoFaced),
            ..TecoreConfig::default()
        };
        let err = Engine::with_config(graph, program, config)
            .resolve()
            .unwrap_err();
        let message = err.to_string();
        assert!(message.contains("two-faced"), "{message}");
        assert!(message.contains("soft_values = false"), "{message}");
    }

    /// The contract holds on the component path too: a backend
    /// declaring soft values that omits them from a component's state
    /// must fail loudly — the merge must not quietly fabricate 0/1
    /// confidences for that component.
    #[test]
    fn component_caps_state_mismatch_is_a_solve_error() {
        use tecore_ground::{MapSolver, SolveError, SolverCaps};

        /// Declares soft values but never returns them.
        #[derive(Debug)]
        struct Forgetful;

        impl MapSolver for Forgetful {
            fn name(&self) -> &str {
                "forgetful"
            }
            fn caps(&self) -> SolverCaps {
                SolverCaps::psl() // soft_values: true
            }
            fn solve(
                &self,
                atoms: usize,
                _clauses: &ClauseStore,
                _warm: Option<&MapState>,
            ) -> Result<MapState, SolveError> {
                Ok(MapState {
                    assignment: vec![true; atoms],
                    cost: 0.0,
                    feasible: true,
                    soft_values: None, // contract violation
                })
            }
        }

        let graph = parse_graph(RANIERI).unwrap();
        let program = LogicProgram::parse(PAPER_PROGRAM).unwrap();
        let config = TecoreConfig {
            backend: Arc::new(Forgetful),
            component_mode: ComponentMode::Components,
            ..TecoreConfig::default()
        };
        let err = Engine::with_config(graph, program, config)
            .resolve()
            .unwrap_err();
        let message = err.to_string();
        assert!(message.contains("forgetful"), "{message}");
        assert!(message.contains("omitted"), "{message}");
    }
}
