//! Headless session: the demo's Web-UI flow as a library API.
//!
//! The paper's demonstration walks through: select a uTKG → pick/edit
//! inference rules and constraints (with predicate auto-completion,
//! Figure 5) → run a reasoner → browse the consistent and conflicting
//! statements and the statistics screen (Figure 8). [`Session`] models
//! exactly that flow; `examples/constraint_editor.rs` drives it from a
//! CLI.

use tecore_kg::{FactId, GraphStats, TemporalFact, UtkGraph};
use tecore_logic::pretty::format_formula;
use tecore_logic::suggest::{CompletionEngine, Suggestion};
use tecore_logic::validate::check_formula;
use tecore_logic::LogicProgram;
use tecore_temporal::Interval;

use std::sync::Arc;

use crate::batch::{ApplyReport, EditBatch};
use crate::engine::{resolve_cold, Engine};
use crate::error::TecoreError;
use crate::registry::{BackendSelector, SolverRegistry};
use crate::snapshot::Snapshot;
use crate::TecoreConfig;

/// One registered dataset: the engine that owns its graph.
#[derive(Debug)]
struct Dataset {
    name: String,
    engine: Engine,
    /// The session revision whose program and configuration `engine`
    /// carries. When the session has moved on, the next
    /// [`Session::resolve_incremental`] on the dataset reconfigures the
    /// engine, which drops its cached grounding.
    revision: u64,
}

/// An interactive TeCoRe session — a thin compatibility wrapper over
/// the [`Engine`] → [`Snapshot`] API that adds dataset bookkeeping and
/// the editor conveniences (completion, validation, registry). Both
/// [`Session::run`] and [`Session::resolve_incremental`] return
/// `Arc<Snapshot>`, which dereferences to
/// [`Resolution`](crate::Resolution).
///
/// Each session owns a [`SolverRegistry`] pre-loaded with the four seed
/// substrates, so backends are selectable **by name** —
/// `session.set_backend("psl-admm")` — as well as by [`Backend`]
/// spec or ready-made solver handle; custom backends become selectable
/// after [`Session::register_backend`].
///
/// [`Backend`]: crate::backends::Backend
#[derive(Debug, Default)]
pub struct Session {
    /// One engine per dataset; the engine's graph *is* the dataset.
    datasets: Vec<Dataset>,
    selected: Option<usize>,
    program: LogicProgram,
    config: TecoreConfig,
    /// Bumped by every program, backend or grounding-option change.
    revision: u64,
    registry: SolverRegistry,
}

impl Session {
    /// Creates an empty session.
    pub fn new() -> Self {
        Session::default()
    }

    /// Registers a dataset under a display name.
    pub fn add_dataset(&mut self, name: impl Into<String>, graph: UtkGraph) {
        self.datasets.push(Dataset {
            name: name.into(),
            engine: Engine::with_config(graph, self.program.clone(), self.config.clone()),
            revision: self.revision,
        });
        self.selected.get_or_insert(self.datasets.len() - 1);
    }

    /// Registers a dataset recovered from a write-ahead-log directory
    /// (latest checkpoint plus replayed tail — see `tecore_wal`) and
    /// returns the recovered epoch. The session itself stays
    /// in-memory; pair with [`Engine::open_durable`] when edits must
    /// keep journaling.
    pub fn open_durable(
        &mut self,
        name: impl Into<String>,
        dir: impl Into<std::path::PathBuf>,
    ) -> Result<u64, TecoreError> {
        let (_wal, graph) = tecore_wal::Wal::open(dir, tecore_wal::WalConfig::default())?;
        let epoch = graph.epoch();
        self.add_dataset(name, graph);
        Ok(epoch)
    }

    /// Lists registered dataset names.
    pub fn dataset_names(&self) -> Vec<&str> {
        self.datasets.iter().map(|d| d.name.as_str()).collect()
    }

    /// Selects a dataset by name.
    pub fn select(&mut self, name: &str) -> Result<(), TecoreError> {
        match self.datasets.iter().position(|d| d.name == name) {
            Some(i) => {
                self.selected = Some(i);
                Ok(())
            }
            None => Err(TecoreError::Session(format!("unknown dataset `{name}`"))),
        }
    }

    /// Index of the selected dataset.
    fn selected_index(&self) -> Result<usize, TecoreError> {
        self.selected
            .ok_or_else(|| TecoreError::Session("no dataset selected".into()))
    }

    /// The selected dataset's engine.
    fn engine_mut(&mut self) -> Result<&mut Engine, TecoreError> {
        let idx = self.selected_index()?;
        Ok(&mut self.datasets[idx].engine)
    }

    /// The currently selected graph.
    pub fn graph(&self) -> Result<&UtkGraph, TecoreError> {
        Ok(self.datasets[self.selected_index()?].engine.graph())
    }

    /// Statistics of the selected graph.
    pub fn graph_stats(&self) -> Result<GraphStats, TecoreError> {
        Ok(GraphStats::compute(self.graph()?))
    }

    /// The auto-completion engine for the selected graph (predicates +
    /// Allen relations + language keywords).
    pub fn completion(&self) -> Result<CompletionEngine, TecoreError> {
        let graph = self.graph()?;
        let preds = graph
            .predicates()
            .into_iter()
            .map(|p| graph.dict().resolve(p).to_string());
        Ok(CompletionEngine::with_predicates(preds))
    }

    /// Completion shortcut: ranked suggestion list for a partial token.
    pub fn complete(&self, partial: &str, limit: usize) -> Result<Vec<Suggestion>, TecoreError> {
        Ok(self.completion()?.complete(partial, limit))
    }

    /// Parses, validates and adds one rule/constraint; returns its
    /// pretty-printed canonical form (what the editor displays).
    pub fn add_formula(&mut self, source: &str) -> Result<String, TecoreError> {
        let formula = tecore_logic::parser::parse_formula(source)?;
        check_formula(&formula)?;
        let rendered = format_formula(&formula);
        self.program.push(formula);
        self.revision += 1; // program changed: cached grounding is stale
        Ok(rendered)
    }

    /// Adds a whole program text (multiple statements).
    pub fn add_program(&mut self, source: &str) -> Result<usize, TecoreError> {
        let program = LogicProgram::parse(source)?;
        program.validate()?;
        let added = program.len();
        self.program.extend(program);
        self.revision += 1;
        Ok(added)
    }

    /// Removes a formula by name; `true` if something was removed.
    pub fn remove_formula(&mut self, name: &str) -> bool {
        let before = self.program.len();
        self.program = self
            .program
            .formulas()
            .iter()
            .filter(|f| f.name.as_deref() != Some(name))
            .cloned()
            .collect();
        if self.program.len() < before {
            self.revision += 1;
            true
        } else {
            false
        }
    }

    /// The current program.
    pub fn program(&self) -> &LogicProgram {
        &self.program
    }

    /// Clears all rules and constraints.
    pub fn clear_program(&mut self) {
        self.program = LogicProgram::new();
        self.revision += 1;
    }

    /// Sets the reasoner: by registered name (`"mln-cpi"`,
    /// `"psl-admm"`, ...), by [`Backend`](crate::backends::Backend)
    /// spec, or by [`SolverHandle`](crate::backends::SolverHandle).
    pub fn set_backend(&mut self, backend: impl BackendSelector) -> Result<(), TecoreError> {
        self.config.backend = backend.select(&self.registry)?;
        self.revision += 1; // different solver: grounding caps may differ
        Ok(())
    }

    /// Registers a custom backend; it becomes selectable by its
    /// [`MapSolver::name`](tecore_ground::MapSolver::name).
    pub fn register_backend(
        &mut self,
        solver: impl Into<crate::backends::SolverHandle>,
    ) -> &mut Self {
        self.registry.register(solver);
        self
    }

    /// Names of the backends selectable in this session.
    pub fn backend_names(&self) -> Vec<&str> {
        self.registry.names().collect()
    }

    /// The session's solver registry.
    pub fn registry(&self) -> &SolverRegistry {
        &self.registry
    }

    /// Sets the conflict-component treatment for the solve step (see
    /// [`ComponentMode`](tecore_ground::ComponentMode)). The mode only
    /// affects solve dispatch, never the grounding, so a primed
    /// incremental engine survives (taking the mode at its next resolve).
    pub fn set_component_mode(&mut self, mode: tecore_ground::ComponentMode) {
        self.config.component_mode = mode;
    }

    /// Sets the derived-fact confidence threshold. Thresholding only
    /// affects result interpretation, so a primed incremental engine
    /// survives (it takes the threshold at its next resolve).
    pub fn set_threshold(&mut self, threshold: f64) {
        self.config.threshold = threshold;
    }

    /// Sets the grounding join planner (cost-based vs syntactic). The
    /// chosen plans are baked into the materialised grounding, so a
    /// primed incremental engine re-grounds cold on its next resolve
    /// (the engine survives, only its grounding cache drops).
    pub fn set_planner(&mut self, planner: tecore_ground::JoinPlanner) {
        self.config.ground.planner = planner;
    }

    /// Mutable access to the full configuration. Conservatively drops
    /// every engine's incremental state: the caller may change
    /// grounding options.
    pub fn config_mut(&mut self) -> &mut TecoreConfig {
        self.revision += 1;
        &mut self.config
    }

    /// Runs conflict resolution on the selected dataset (batch path:
    /// translates, grounds and solves from scratch) and returns the
    /// resolved [`Snapshot`].
    pub fn run(&self) -> Result<Arc<Snapshot>, TecoreError> {
        let graph = self.graph()?;
        self.require_program()?;
        let resolution = resolve_cold(graph, &self.program, &self.config)?;
        let snapshot = Snapshot::from_resolution(resolution, graph.epoch());
        Ok(Arc::new(snapshot))
    }

    /// The most recent snapshot produced by
    /// [`Session::resolve_incremental`] on the selected dataset, if no
    /// program or configuration change has invalidated it since.
    pub fn snapshot(&self) -> Option<Arc<Snapshot>> {
        let dataset = &self.datasets[self.selected_index().ok()?];
        let current = dataset.revision == self.revision;
        dataset.engine.latest().filter(|_| current)
    }

    fn require_program(&self) -> Result<(), TecoreError> {
        if self.program.is_empty() {
            return Err(TecoreError::Session(
                "no rules or constraints registered".into(),
            ));
        }
        Ok(())
    }

    /// Applies an [`EditBatch`] to the selected dataset, so the next
    /// [`Session::resolve_incremental`] re-solves in time proportional
    /// to the batch — one netted delta, one warm-started solve.
    ///
    /// Errors only when no dataset is selected; per-op results
    /// (including semantic rejections) are in the returned
    /// [`ApplyReport`].
    pub fn apply(&mut self, edits: &EditBatch) -> Result<ApplyReport, TecoreError> {
        Ok(self.engine_mut()?.apply(edits))
    }

    /// [`Engine::insert_fact`] on the selected dataset; prefer building
    /// an [`EditBatch`] when issuing more than one edit per resolve.
    pub fn insert_fact(
        &mut self,
        subject: &str,
        predicate: &str,
        object: &str,
        interval: Interval,
        confidence: f64,
    ) -> Result<FactId, TecoreError> {
        self.engine_mut()?
            .insert_fact(subject, predicate, object, interval, confidence)
    }

    /// [`Engine::remove_fact`] on the selected dataset.
    pub fn remove_fact(&mut self, id: FactId) -> Result<TemporalFact, TecoreError> {
        self.engine_mut()?.remove_fact(id)
    }

    /// Runs conflict resolution incrementally on the selected dataset.
    ///
    /// The first call (or the first after a program/backend change)
    /// grounds from scratch; subsequent calls consume only the
    /// [`Session::insert_fact`] / [`Session::remove_fact`] edits since
    /// the previous call and warm-start the solver from the previous
    /// MAP state.
    pub fn resolve_incremental(&mut self) -> Result<Arc<Snapshot>, TecoreError> {
        let idx = self.selected_index()?;
        self.require_program()?;
        let Dataset {
            engine, revision, ..
        } = &mut self.datasets[idx];
        if *revision == self.revision {
            // The knobs a primed engine survives: its cached grounding
            // drops only if the planner actually changed.
            engine.set_threshold(self.config.threshold);
            engine.set_component_mode(self.config.component_mode);
            engine.set_planner(self.config.ground.planner);
        } else {
            engine.reconfigure(self.program.clone(), self.config.clone());
            *revision = self.revision;
        }
        engine.resolve_incremental()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tecore_kg::parser::parse_graph;

    fn ranieri() -> UtkGraph {
        parse_graph(
            "(CR, coach, Chelsea, [2000,2004]) 0.9\n\
             (CR, coach, Leicester, [2015,2017]) 0.7\n\
             (CR, coach, Napoli, [2001,2003]) 0.6\n",
        )
        .unwrap()
    }

    #[test]
    fn full_demo_flow() {
        let mut session = Session::new();
        session.add_dataset("ranieri", ranieri());
        assert_eq!(session.dataset_names(), vec!["ranieri"]);
        session.select("ranieri").unwrap();

        // Auto-completion sees the graph's predicates.
        let suggestions = session.complete("co", 5).unwrap();
        assert_eq!(suggestions[0].text, "coach");

        // Build c2 in the editor.
        let rendered = session
            .add_formula(
                "c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z \
                 -> disjoint(t, t') w = inf",
            )
            .unwrap();
        assert!(rendered.contains("disjoint"));

        let resolution = session.run().unwrap();
        assert_eq!(resolution.stats.conflicting_facts, 1);
        assert_eq!(
            resolution
                .consistent
                .dict()
                .resolve(resolution.removed[0].fact.object),
            "Napoli"
        );
    }

    #[test]
    fn errors_without_dataset_or_program() {
        let session = Session::new();
        assert!(session.graph().is_err());
        assert!(session.run().is_err());

        let mut session = Session::new();
        session.add_dataset("d", ranieri());
        // No program registered.
        assert!(matches!(
            session.run().unwrap_err(),
            TecoreError::Session(_)
        ));
    }

    #[test]
    fn select_unknown_dataset() {
        let mut session = Session::new();
        session.add_dataset("a", ranieri());
        assert!(session.select("b").is_err());
        assert!(session.select("a").is_ok());
    }

    #[test]
    fn invalid_formula_rejected_by_editor() {
        let mut session = Session::new();
        session.add_dataset("d", ranieri());
        // Unsafe head variable.
        let err = session
            .add_formula("quad(x, coach, y, t) -> quad(x, coach, z2, t) w = 1.0")
            .unwrap_err();
        assert!(err.to_string().contains("unsafe"));
        assert!(session.program().is_empty());
    }

    #[test]
    fn remove_and_clear() {
        let mut session = Session::new();
        session.add_dataset("d", ranieri());
        session
            .add_formula("c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf")
            .unwrap();
        session
            .add_formula("f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5")
            .unwrap();
        assert_eq!(session.program().len(), 2);
        assert!(session.remove_formula("f1"));
        assert!(!session.remove_formula("f1"));
        assert_eq!(session.program().len(), 1);
        session.clear_program();
        assert!(session.program().is_empty());
    }

    #[test]
    fn add_program_bulk() {
        let mut session = Session::new();
        session.add_dataset("d", ranieri());
        let added = session
            .add_program(
                "f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5\n\
                 c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf\n",
            )
            .unwrap();
        assert_eq!(added, 2);
        assert_eq!(session.program().len(), 2);
    }

    #[test]
    fn graph_stats_available() {
        let mut session = Session::new();
        session.add_dataset("d", ranieri());
        let stats = session.graph_stats().unwrap();
        assert_eq!(stats.fact_count, 3);
    }

    #[test]
    fn backend_selection_by_name() {
        let mut session = Session::new();
        session.add_dataset("ranieri", ranieri());
        session
            .add_formula(
                "c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z \
                 -> disjoint(t, t') w = inf",
            )
            .unwrap();
        // All four seed substrates are selectable by name out of the box.
        assert_eq!(
            session.backend_names(),
            vec!["mln-cpi", "mln-exact", "mln-walksat", "psl-admm"]
        );
        for name in ["mln-exact", "mln-walksat", "mln-cpi", "psl-admm"] {
            session.set_backend(name).unwrap();
            let r = session.run().unwrap();
            assert_eq!(r.stats.backend, name);
            assert_eq!(r.stats.conflicting_facts, 1, "{name}");
        }
        // Unknown names error with the available list.
        let err = session.set_backend("gurobi").unwrap_err();
        assert!(err.to_string().contains("unknown backend"));
    }

    #[test]
    fn incremental_session_flow() {
        let mut session = Session::new();
        session.add_dataset("ranieri", ranieri());
        session
            .add_formula(
                "c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z \
                 -> disjoint(t, t') w = inf",
            )
            .unwrap();

        // Prime the engine: same answer as the batch path.
        let r1 = session.resolve_incremental().unwrap();
        assert_eq!(r1.stats.conflicting_facts, 1);

        // Streaming edit: a strong Roma spell clashes with Leicester.
        let iv = |a, b| tecore_temporal::Interval::new(a, b).unwrap();
        let roma = session
            .insert_fact("CR", "coach", "Roma", iv(2016, 2018), 0.95)
            .unwrap();
        let r2 = session.resolve_incremental().unwrap();
        assert_eq!(r2.stats.conflicting_facts, 2, "Napoli + Leicester");

        // Undo: back to the original repair, and in agreement with a
        // cold batch run over the same (edited) dataset.
        session.remove_fact(roma).unwrap();
        let r3 = session.resolve_incremental().unwrap();
        assert_eq!(r3.stats.conflicting_facts, 1);
        let batch = session.run().unwrap();
        assert_eq!(r3.stats.conflicting_facts, batch.stats.conflicting_facts);
        assert_eq!(r3.consistent.len(), batch.consistent.len());

        // A program edit invalidates the cached engine but the flow
        // keeps working.
        session
            .add_formula("f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5")
            .unwrap();
        let r4 = session.resolve_incremental().unwrap();
        assert_eq!(r4.stats.conflicting_facts, 1);
    }

    #[test]
    fn incremental_edits_require_selection() {
        let mut session = Session::new();
        let iv = tecore_temporal::Interval::new(1, 2).unwrap();
        assert!(session.insert_fact("a", "p", "b", iv, 0.5).is_err());
        assert!(session.resolve_incremental().is_err());
    }

    #[test]
    fn custom_backend_registers_and_runs() {
        use tecore_ground::{Grounding, MapSolver, MapState, SolveError, SolveOpts, SolverCaps};

        /// Rejects every evidence atom (worst possible repair).
        #[derive(Debug)]
        struct DropAll;

        impl MapSolver for DropAll {
            fn name(&self) -> &str {
                "drop-all"
            }
            fn caps(&self) -> SolverCaps {
                SolverCaps::mln()
            }
            fn solve(
                &self,
                grounding: &Grounding,
                _opts: &SolveOpts,
            ) -> Result<MapState, SolveError> {
                let world = vec![false; grounding.num_atoms()];
                let (cost, hard) = tecore_ground::evaluate_world(&grounding.clauses, &world);
                Ok(MapState {
                    assignment: world,
                    cost,
                    feasible: hard == 0,
                    active_clauses: grounding.clauses.len(),
                    soft_values: None,
                })
            }
        }

        let mut session = Session::new();
        session.add_dataset("ranieri", ranieri());
        session
            .add_formula(
                "c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z \
                 -> disjoint(t, t') w = inf",
            )
            .unwrap();
        session.register_backend(crate::backends::SolverHandle::new(DropAll));
        assert!(session.backend_names().contains(&"drop-all"));
        session.set_backend("drop-all").unwrap();
        let r = session.run().unwrap();
        assert_eq!(r.stats.backend, "drop-all");
        assert_eq!(r.stats.conflicting_facts, 3); // everything rejected
    }
}
