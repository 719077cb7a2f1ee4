//! Incremental maintenance of a [`Grounding`] under uTKG deltas.
//!
//! A batch [`crate::ground`] run is a pure function of the graph;
//! TeCoRe's interactive loop (edit the uTKG, re-run the reasoner) would
//! pay that full cost for every single-fact edit. This module instead
//! treats the grounding as a *materialised view* and maintains it under
//! a [`Delta`]:
//!
//! * **removed facts** weaken their evidence atom (or, when the last
//!   supporting fact goes, demote it to hidden / kill it), and every
//!   clause touching a killed atom is retracted — cascading through
//!   derived atoms whose last deriving clause disappears;
//! * **added facts** merge into an existing atom, revive a dead one, or
//!   create a fresh one; the new and revived atoms then seed the
//!   semi-naive rounds a cold ground runs after its first
//!   (`Grounding::saturate` in the grounder): for every formula and
//!   body position, that position is bound first — from the atoms the
//!   previous round brought to life — and the remaining patterns are
//!   joined outwards from it through the atom store's indexes, so the
//!   work follows the delta, not the predicate extensions.
//!
//! What the deltas did to the things a resolved result is read from —
//! which atoms came, went or changed kind, which constraint groundings
//! were emitted or retracted — is kept in [`DeltaChanges`] until the
//! consumer takes it ([`Grounding::take_changes`]), so the result can
//! be carried forward by difference instead of being re-derived.
//!
//! Atom ids are never reused and dead atoms keep their slot, so solver
//! assignment vectors stay index-stable across deltas — which is what
//! makes warm-starting (the `warm` state of `MapSolver::solve`)
//! possible. A full re-ground of the final graph remains the semantic
//! oracle: the MAP state over an incrementally maintained grounding
//! must partition the facts exactly as the MAP state over a cold
//! grounding does (the `incremental_conformance` suite asserts this for
//! every backend).

use std::time::{Duration, Instant};

use tecore_kg::fxhash::{FxHashMap, FxHashSet};
use tecore_kg::{Delta, UtkGraph};

use crate::atoms::{AtomId, AtomKind};
use crate::clause::{ClauseId, ClauseOrigin, ClauseWeight, Lit};
use crate::grounder::{evidence_unit, prior_unit, GroundConfig, Grounding};
use crate::planner;

/// Statistics of one [`Grounding::apply_delta`] run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaStats {
    /// Facts added by the delta.
    pub facts_added: usize,
    /// Facts removed by the delta.
    pub facts_removed: usize,
    /// Clauses retracted (formula groundings, units and priors).
    pub clauses_retracted: usize,
    /// Clauses emitted.
    pub clauses_emitted: usize,
    /// Atoms created or revived.
    pub atoms_created: usize,
    /// Atoms killed (including cascade kills of unsupported
    /// derivations).
    pub atoms_killed: usize,
    /// Semi-naive rounds run over the delta frontier.
    pub rounds: usize,
    /// Candidates the delta rules examined (seeds and join partners;
    /// counted as
    /// [`GroundingStats::candidates_examined`](crate::GroundingStats)
    /// is): the binding search's work, independent of the clock.
    pub candidates_examined: usize,
    /// Wall-clock time of the delta application.
    pub elapsed: Duration,
}

/// One violated-constraint grounding: the formula's index and the
/// literals of its clause (a formula clause without a positive
/// literal — the keep-everything world violates exactly those).
pub type ConstraintKey = (usize, Vec<Lit>);

/// What the deltas applied since the last [`Grounding::take_changes`]
/// did to the parts of the grounding a resolved result is read from.
/// Like the component dirty flags, this accumulates over any number of
/// `apply_delta` calls until its consumer takes it.
#[derive(Debug, Clone, Default)]
pub struct DeltaChanges {
    /// Atoms that were created, revived or killed, or that moved
    /// between evidence and hidden.
    pub atoms: FxHashSet<AtomId>,
    /// Constraint groundings touched, with what happened last: `true`
    /// when the clause is live (emitted, or one of its atoms changed
    /// weight or kind, which changes how it reads), `false` when it was
    /// retracted.
    pub constraints: FxHashMap<ConstraintKey, bool>,
    /// Total wall-clock time of those deltas.
    pub elapsed: Duration,
}

impl Grounding {
    /// Updates the materialised grounding to reflect `delta`, re-running
    /// the binding search only around the changed facts — the rounds a
    /// cold ground runs after its first (`Grounding::saturate`), seeded
    /// from the added facts' new and revived atoms.
    ///
    /// `graph` must be the graph the grounding was built from, now at
    /// `delta.to_epoch`; `config` holds no setting ([`GroundConfig`]).
    /// The fact → atom table is keyed by that graph's fact ids, and a
    /// fact's symbols are the atom's: the grounding numbers its terms
    /// by that graph's dictionary.
    ///
    /// # Panics
    ///
    /// Panics when `delta.from_epoch` is not this grounding's epoch —
    /// applying a delta twice, or one drawn from a different graph
    /// snapshot, would silently corrupt the materialisation, and the
    /// epoch field exists precisely to catch that (in release builds
    /// too).
    pub fn apply_delta(
        &mut self,
        graph: &UtkGraph,
        delta: &Delta,
        _config: &GroundConfig,
    ) -> DeltaStats {
        let start = Instant::now();
        assert_eq!(
            self.epoch, delta.from_epoch,
            "delta must start at the grounding's epoch"
        );
        self.ensure_dep_index();
        let mut stats = DeltaStats {
            facts_added: delta.added.len(),
            facts_removed: delta.removed.len(),
            ..DeltaStats::default()
        };
        let mut kills: Vec<AtomId> = Vec::new();
        let mut unit_dirty: Vec<AtomId> = Vec::new();

        // --- 1. Removed facts: weaken / demote / kill their atoms. ---
        for &fid in &delta.removed {
            let Some(aid) = self.fact_atoms.take(fid) else {
                continue;
            };
            if self.store.detach_fact(aid, fid) > 0 {
                // Other facts still assert the atom: recompute the
                // combined weight from them (no float drift from
                // repeated subtraction).
                let log_odds = self
                    .store
                    .facts(aid)
                    .filter_map(|f| graph.fact(f))
                    .map(|f| f.confidence.log_odds())
                    .sum();
                self.store.set_log_odds(aid, log_odds);
                unit_dirty.push(aid);
            } else if self.support[aid.index()] > 0 {
                // The last supporting fact went, but a live rule
                // grounding still derives the atom: it survives as
                // hidden (exactly what a cold re-ground would produce).
                self.store.set_kind(aid, AtomKind::Hidden);
                self.changes.atoms.insert(aid);
                self.note_reworded(aid);
                if let Some(j) = self.find_unit(aid, ClauseOrigin::Evidence) {
                    self.retract_clause(j, &mut kills, &mut stats);
                }
                let (lit, weight) = prior_unit(aid);
                self.emit_unit(lit, weight, ClauseOrigin::Prior, &mut stats);
            } else {
                kills.push(aid);
            }
        }

        // --- 2. Cascade kills: retract every clause touching a dead
        // atom; derivations losing their last support die too. ---
        let mut next_kill = 0;
        while next_kill < kills.len() {
            let aid = kills[next_kill];
            next_kill += 1;
            if !self.store.is_alive(aid) {
                continue; // already processed via another path
            }
            self.store.kill(aid);
            self.changes.atoms.insert(aid);
            stats.atoms_killed += 1;
            while let Some(&ci) = self.atom_clauses[aid.index()].last() {
                self.retract_clause(ci, &mut kills, &mut stats);
            }
        }

        // --- 3. Added facts: merge / upgrade / revive / create their
        // evidence atoms. ---
        let mut frontier: Vec<AtomId> = Vec::new();
        for &fid in &delta.added {
            let Some(fact) = graph.fact(fid) else {
                continue;
            };
            let (s, p, o) = (fact.subject, fact.predicate, fact.object);
            let log_odds = fact.confidence.log_odds();
            let existing = self.store.lookup(s, p, o, fact.interval);
            let was_alive = existing.is_some_and(|id| self.store.is_alive(id));
            let was_hidden = existing
                .filter(|&id| self.store.is_alive(id))
                .is_some_and(|id| !self.store.atom(id).kind.is_evidence());
            let aid = self
                .store
                .intern_evidence(s, p, o, fact.interval, log_odds, fid);
            if aid.index() >= self.atom_clauses.len() {
                self.atom_clauses.push(Vec::new());
                self.support.push(0);
            }
            if was_hidden {
                // Hidden atom upgraded to evidence: its closed-world
                // prior no longer applies.
                if let Some(j) = self.find_unit(aid, ClauseOrigin::Prior) {
                    self.retract_clause(j, &mut kills, &mut stats);
                }
                self.changes.atoms.insert(aid);
            }
            if !was_alive {
                // Fresh or revived: its matches must be (re-)enumerated.
                frontier.push(aid);
                self.changes.atoms.insert(aid);
                stats.atoms_created += 1;
            }
            self.fact_atoms.set(fid, aid);
            unit_dirty.push(aid);
        }

        // --- 3b. Net-zero churn: a fact inserted *and* removed inside
        // the delta window leaves the ground problem untouched, but if
        // its statement revived (aliased) a live atom the component
        // cache must treat that atom's component as touched —
        // otherwise a cached per-component warm state can go stale
        // (see `Delta::churned`). ---
        if let Some(index) = self.components.as_mut() {
            for &fid in &delta.churned {
                let Some(f) = graph.arena_fact(fid) else {
                    continue;
                };
                if let Some(aid) = self
                    .store
                    .lookup(f.subject, f.predicate, f.object, f.interval)
                {
                    index.note_touched(aid);
                }
            }
        }

        // --- 4. Refresh the evidence unit clauses of weight-changed
        // atoms. ---
        unit_dirty.sort_unstable();
        unit_dirty.dedup();
        for aid in unit_dirty {
            if !self.store.is_alive(aid) {
                continue;
            }
            let Some(log_odds) = self.store.log_odds(aid) else {
                continue; // demoted in the same delta
            };
            if let Some(j) = self.find_unit(aid, ClauseOrigin::Evidence) {
                self.retract_clause(j, &mut kills, &mut stats);
            }
            let (lit, weight) = evidence_unit(aid, log_odds);
            self.emit_unit(lit, weight, ClauseOrigin::Evidence, &mut stats);
            self.note_reworded(aid);
        }
        debug_assert!(next_kill == kills.len(), "unit retraction never kills");

        // The store now holds the delta's atoms (and the previous
        // rounds' derivations): order the joins by what they will walk.
        self.replan();

        // --- 5. Semi-naive rounds seeded from the frontier (see
        // `Grounding::saturate`). A dead atom revived by a second fact
        // of the same delta was alive by then, so no atom is listed
        // twice. The rule heads they bring to life get their priors
        // after the last round. ---
        let emitted = self.clauses.len();
        let born = self.saturate(frontier, &mut stats.rounds, &mut stats.candidates_examined);
        stats.clauses_emitted += self.clauses.len() - emitted;
        stats.atoms_created += born.len();
        for aid in born {
            self.changes.atoms.insert(aid);
            let (lit, weight) = prior_unit(aid);
            self.emit_unit(lit, weight, ClauseOrigin::Prior, &mut stats);
        }

        self.epoch = delta.to_epoch;
        stats.elapsed = start.elapsed();
        self.changes.elapsed += stats.elapsed;
        stats
    }

    /// Hands over what the deltas since the previous call changed, and
    /// starts a fresh account.
    pub fn take_changes(&mut self) -> DeltaChanges {
        std::mem::take(&mut self.changes)
    }

    /// The key under which a clause counts as a violated-constraint
    /// grounding, if it is one.
    fn constraint_key(&self, id: ClauseId) -> Option<ConstraintKey> {
        let ClauseOrigin::Formula(fidx) = self.clauses.origin(id) else {
            return None;
        };
        let lits = self.clauses.lits(id);
        lits.iter()
            .all(|l| !l.positive)
            .then(|| (fidx, lits.to_vec()))
    }

    /// An atom's weight or kind changed: every constraint grounding it
    /// takes part in now reads differently.
    fn note_reworded(&mut self, aid: AtomId) {
        for i in 0..self.atom_clauses[aid.index()].len() {
            let ci = self.atom_clauses[aid.index()][i];
            if let Some(key) = self.constraint_key(ci) {
                self.changes.constraints.insert(key, true);
            }
        }
    }

    /// Re-orders the joins by the atom store's present counts (see
    /// [`planner::plan`]) if it has grown since they were last ordered.
    /// Join orders only move work, never change the grounded clause
    /// arena, so swapping them mid-materialisation is safe.
    fn replan(&mut self) {
        if self.store.len() == self.planned_atoms {
            return;
        }
        self.planned_atoms = self.store.len();
        if !planner::plan(&mut self.program, &self.store) {
            return;
        }
        for (plan, cf) in self.plans.iter_mut().zip(&self.program.formulas) {
            plan.join_order = cf.cold.order();
        }
        if self.program.probes_predicate_object() {
            self.store.ensure_predicate_object();
        }
    }

    /// Materialises the atom→clause dependency index and the per-atom
    /// derivation-support counters. Built on the first delta rather
    /// than at grounding time, so batch resolves never pay for it; the
    /// incremental emit/retract paths keep it current from then on.
    pub(crate) fn ensure_dep_index(&mut self) {
        if self.dep_built {
            return;
        }
        self.atom_clauses = vec![Vec::new(); self.store.len()];
        self.support = vec![0u32; self.store.len()];
        for clause in self.clauses.iter() {
            let is_formula = matches!(clause.origin, ClauseOrigin::Formula(_));
            for lit in clause.lits {
                self.atom_clauses[lit.atom.index()].push(clause.id);
                if lit.positive && is_formula {
                    self.support[lit.atom.index()] += 1;
                }
            }
        }
        self.dep_built = true;
    }

    /// Id of the single-literal clause of `origin` on `aid`, if any.
    fn find_unit(&self, aid: AtomId, origin: ClauseOrigin) -> Option<ClauseId> {
        self.atom_clauses[aid.index()]
            .iter()
            .copied()
            .find(|&ci| self.clauses.origin(ci) == origin && self.clauses.clause_len(ci) == 1)
    }

    /// Registers an already-pushed clause with the atom→clause index
    /// and the derivation-support counters, keeping the component index
    /// (when materialised) and the change account in step.
    pub(crate) fn register_clause(&mut self, id: ClauseId) {
        let is_formula = matches!(self.clauses.origin(id), ClauseOrigin::Formula(_));
        for lit in self.clauses.lits(id) {
            self.atom_clauses[lit.atom.index()].push(id);
            if lit.positive && is_formula {
                self.support[lit.atom.index()] += 1;
            }
        }
        if let Some(index) = &mut self.components {
            index.note_emit(self.clauses.lits(id));
        }
        if let Some(key) = self.constraint_key(id) {
            self.changes.constraints.insert(key, true);
        }
    }

    /// Appends a unit clause (reviving a tombstoned slot when one is
    /// free), maintaining the dependency index.
    fn emit_unit(
        &mut self,
        lit: Lit,
        weight: ClauseWeight,
        origin: ClauseOrigin,
        stats: &mut DeltaStats,
    ) {
        let id = self.clauses.push_lits(&[lit], weight, origin);
        self.register_clause(id);
        stats.clauses_emitted += 1;
    }

    /// Retracts clause `j`: tombstones its arena slot (no other clause
    /// id moves), reversing its index entries and support
    /// contributions; derivations losing their last support are queued
    /// on `kills`.
    fn retract_clause(&mut self, j: ClauseId, kills: &mut Vec<AtomId>, stats: &mut DeltaStats) {
        stats.clauses_retracted += 1;
        if let Some(index) = &mut self.components {
            index.note_retract(self.clauses.lits(j));
        }
        if let Some(key) = self.constraint_key(j) {
            self.changes.constraints.insert(key, false);
        }
        for lit in self.clauses.lits(j) {
            let entries = &mut self.atom_clauses[lit.atom.index()];
            let pos = entries
                .iter()
                .position(|&ci| ci == j)
                .expect("clause index consistent");
            entries.swap_remove(pos);
        }
        if matches!(self.clauses.origin(j), ClauseOrigin::Formula(_)) {
            for lit in self.clauses.lits(j) {
                if lit.positive {
                    let support = &mut self.support[lit.atom.index()];
                    *support -= 1;
                    if *support == 0
                        && self.store.is_alive(lit.atom)
                        && !self.store.atom(lit.atom).kind.is_evidence()
                    {
                        kills.push(lit.atom);
                    }
                }
            }
        }
        self.clauses.retract(j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grounder::ground;
    use tecore_kg::parser::parse_graph;
    use tecore_kg::{Dictionary, UtkGraph};
    use tecore_logic::LogicProgram;
    use tecore_temporal::Interval;

    const PROGRAM: &str = "\
        f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5\n\
        c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf\n";

    fn program() -> LogicProgram {
        LogicProgram::parse(PROGRAM).unwrap()
    }

    /// Canonical live-clause multiset: (origin-ish, rendered lits)
    /// sorted, with lits rendered through atom keys so two groundings
    /// with different atom id layouts compare equal.
    fn canonical_clauses(g: &Grounding, dict: &Dictionary) -> Vec<String> {
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
                let mut lits: Vec<String> = c
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
                lits.sort();
                let weight = match c.weight {
                    ClauseWeight::Hard => "hard".to_string(),
                    ClauseWeight::Soft(w) => format!("{w:.9}"),
                };
                let origin = match c.origin {
                    ClauseOrigin::Formula(i) => format!("f{i}"),
                    ClauseOrigin::Evidence => "ev".into(),
                    ClauseOrigin::Prior => "pr".into(),
                };
                format!("{origin} {weight} {}", lits.join(" ∨ "))
            })
            .collect();
        out.sort();
        out
    }

    /// `program` grounded against `graph`, its constants interned into
    /// the graph first.
    fn grounded(graph: &mut UtkGraph, program: &LogicProgram, config: &GroundConfig) -> Grounding {
        crate::intern_constants(program, graph.dict_mut());
        ground(graph, program, config).unwrap()
    }

    /// Applies the pending delta of `graph` to `g` and asserts the
    /// result is clause-for-clause equivalent to a cold re-ground.
    fn assert_matches_cold(g: &mut Grounding, graph: &mut UtkGraph, config: &GroundConfig) {
        let delta = graph.since(g.epoch()).expect("history retained");
        g.apply_delta(graph, &delta, config);
        let cold = ground(graph, &program(), config).unwrap();
        let dict = graph.dict();
        assert_eq!(canonical_clauses(g, dict), canonical_clauses(&cold, dict));
        // Live-atom population agrees too.
        assert_eq!(g.store.evidence_count(), cold.store.evidence_count());
        assert_eq!(g.store.hidden_count(), cold.store.hidden_count());
    }

    fn iv(a: i64, b: i64) -> Interval {
        Interval::new(a, b).unwrap()
    }

    #[test]
    fn add_conflicting_fact_emits_constraint_clause() {
        let mut graph = parse_graph("(CR, coach, Chelsea, [2000,2004]) 0.9\n").unwrap();
        let config = GroundConfig::default();
        let mut g = grounded(&mut graph, &program(), &config);
        graph
            .insert("CR", "coach", "Napoli", iv(2001, 2003), 0.6)
            .unwrap();
        let delta = graph.since(g.epoch()).unwrap();
        let stats = g.apply_delta(&graph, &delta, &config);
        assert_eq!(stats.facts_added, 1);
        assert_eq!(stats.atoms_created, 1);
        // One new clash clause + one new evidence unit.
        assert!(
            g.clauses
                .iter()
                .any(|c| c.origin == ClauseOrigin::Formula(1) && c.weight.is_hard()),
            "clash clause emitted"
        );
        let cold = ground(&graph, &program(), &config).unwrap();
        assert_eq!(
            canonical_clauses(&g, graph.dict()),
            canonical_clauses(&cold, graph.dict())
        );
    }

    #[test]
    fn remove_fact_retracts_its_clauses_and_cascades() {
        let mut graph = parse_graph(
            "(CR, playsFor, Palermo, [1984,1986]) 0.5\n\
             (CR, coach, Chelsea, [2000,2004]) 0.9\n\
             (CR, coach, Napoli, [2001,2003]) 0.6\n",
        )
        .unwrap();
        let config = GroundConfig::default();
        let mut g = grounded(&mut graph, &program(), &config);
        assert_eq!(g.store.hidden_count(), 1, "worksFor derived");

        // Removing the playsFor fact kills the derived worksFor atom.
        let plays = graph.dict().lookup("playsFor").unwrap();
        let fid = graph.facts_with_predicate(plays).next().unwrap().0;
        graph.remove(fid).unwrap();
        let delta = graph.since(g.epoch()).unwrap();
        let stats = g.apply_delta(&graph, &delta, &config);
        assert_eq!(stats.atoms_killed, 2, "evidence atom + derived atom");
        assert_eq!(g.store.hidden_count(), 0);
        let cold = ground(&graph, &program(), &config).unwrap();
        assert_eq!(
            canonical_clauses(&g, graph.dict()),
            canonical_clauses(&cold, graph.dict())
        );
    }

    #[test]
    fn insert_remove_roundtrip_restores_the_grounding() {
        let mut graph = parse_graph(
            "(CR, coach, Chelsea, [2000,2004]) 0.9\n\
             (CR, playsFor, Palermo, [1984,1986]) 0.5\n",
        )
        .unwrap();
        let config = GroundConfig::default();
        let mut g = grounded(&mut graph, &program(), &config);
        let before = canonical_clauses(&g, graph.dict());

        let fid = graph
            .insert("CR", "coach", "Napoli", iv(2001, 2003), 0.6)
            .unwrap();
        assert_matches_cold(&mut g, &mut graph, &config);
        graph.remove(fid).unwrap();
        assert_matches_cold(&mut g, &mut graph, &config);
        assert_eq!(
            canonical_clauses(&g, graph.dict()),
            before,
            "round-trip is lossless"
        );
    }

    #[test]
    fn duplicate_statement_merges_and_unmerges() {
        let mut graph = parse_graph("(a, coach, b, [1,5]) 0.8\n").unwrap();
        let config = GroundConfig::default();
        let mut g = grounded(&mut graph, &program(), &config);
        // Same statement again: merges into the same atom.
        let dup = graph.insert("a", "coach", "b", iv(1, 5), 0.7).unwrap();
        assert_matches_cold(&mut g, &mut graph, &config);
        assert_eq!(g.store.evidence_count(), 1);
        graph.remove(dup).unwrap();
        assert_matches_cold(&mut g, &mut graph, &config);
    }

    #[test]
    fn new_terms_after_grounding_do_not_collide_with_head_constants() {
        // `worksFor` is the graph's before grounding; a post-grounding
        // graph term gets a number of its own.
        let mut graph = parse_graph("(CR, playsFor, Palermo, [1984,1986]) 0.5\n").unwrap();
        let config = GroundConfig::default();
        let mut g = grounded(&mut graph, &program(), &config);
        graph
            .insert("Eriksson", "coach", "Lazio", iv(1997, 2001), 0.9)
            .unwrap();
        graph
            .insert("Eriksson", "coach", "England", iv(2001, 2006), 0.8)
            .unwrap();
        assert_matches_cold(&mut g, &mut graph, &config);
    }

    #[test]
    fn terms_interned_after_grounding_keep_the_graphs_symbols() {
        // The program's constants (`worksFor`, `coach`) are the graph's
        // from the start; terms the graph interns afterwards come behind
        // them, and the grounding reads a delta's facts by the graph's
        // symbols as they are.
        let mut graph = parse_graph("(CR, playsFor, Palermo, [1984,1986]) 0.5\n").unwrap();
        let config = GroundConfig::default();
        let mut g = grounded(&mut graph, &program(), &config);
        let grounded_terms = graph.dict().len();
        let works_for = graph.dict().lookup("worksFor").unwrap();
        assert!(works_for.index() < grounded_terms);

        graph
            .insert("Eriksson", "playsFor", "Lazio", iv(1997, 2001), 0.9)
            .unwrap();
        let eriksson = graph.dict().lookup("Eriksson").unwrap();
        let lazio = graph.dict().lookup("Lazio").unwrap();
        assert!(eriksson.index() >= grounded_terms, "a later term");
        assert_matches_cold(&mut g, &mut graph, &config);
        let derived = g
            .store
            .lookup(eriksson, works_for, lazio, iv(1997, 2001))
            .expect("derived in the graph's symbols");
        assert!(!g.store.atom(derived).kind.is_evidence());

        // Later deltas reuse those terms and bring more. An asserted
        // `worksFor` merges with the derived one.
        graph
            .insert("Eriksson", "coach", "England", iv(2001, 2006), 0.8)
            .unwrap();
        graph
            .insert("Eriksson", "coach", "Lazio", iv(1997, 2002), 0.7)
            .unwrap();
        graph
            .insert("Eriksson", "worksFor", "Lazio", iv(1997, 2001), 0.6)
            .unwrap();
        assert_matches_cold(&mut g, &mut graph, &config);
        let merged = g.store.lookup(eriksson, works_for, lazio, iv(1997, 2001));
        assert_eq!(merged, Some(derived), "one atom for the statement");
        assert!(g.store.atom(derived).kind.is_evidence());

        let lazio_spell = graph
            .statement_ids("Eriksson", "coach", "Lazio")
            .pop()
            .unwrap();
        graph.remove(lazio_spell).unwrap();
        graph
            .insert("Mancini", "playsFor", "Lazio", iv(1997, 2001), 0.9)
            .unwrap();
        assert_matches_cold(&mut g, &mut graph, &config);
    }

    #[test]
    fn rule_chain_cascades_through_rounds() {
        let chain = LogicProgram::parse(
            "f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5\n\
             f2: quad(x, worksFor, y, t) ^ quad(y, locatedIn, z, t') ^ overlap(t, t') \
                 -> quad(x, livesIn, z, t ∩ t') w = 1.6\n",
        )
        .unwrap();
        let mut graph = parse_graph("(Palermo, locatedIn, Sicily, [1900,2020]) 0.9\n").unwrap();
        let config = GroundConfig::default();
        let mut g = grounded(&mut graph, &chain, &config);
        assert_eq!(g.store.hidden_count(), 0);

        // One insert triggers two derivation rounds (worksFor, livesIn).
        graph
            .insert("CR", "playsFor", "Palermo", iv(1984, 1986), 0.5)
            .unwrap();
        let delta = graph.since(g.epoch()).unwrap();
        let stats = g.apply_delta(&graph, &delta, &config);
        assert!(stats.rounds >= 2, "chained rounds: {stats:?}");
        assert_eq!(g.store.hidden_count(), 2);
        let cold = ground(&graph, &chain, &config).unwrap();
        assert_eq!(g.store.evidence_count(), cold.store.evidence_count());
        assert_eq!(g.store.hidden_count(), cold.store.hidden_count());

        // And removing it unwinds the whole chain.
        let plays = graph.dict().lookup("playsFor").unwrap();
        let fid = graph.facts_with_predicate(plays).next().unwrap().0;
        graph.remove(fid).unwrap();
        let delta = graph.since(g.epoch()).unwrap();
        g.apply_delta(&graph, &delta, &config);
        assert_eq!(g.store.hidden_count(), 0);
    }

    #[test]
    fn empty_delta_is_a_no_op() {
        let mut graph = parse_graph("(a, coach, b, [1,5]) 0.8\n").unwrap();
        let config = GroundConfig::default();
        let mut g = grounded(&mut graph, &program(), &config);
        let before = canonical_clauses(&g, graph.dict());
        let delta = graph.since(g.epoch()).unwrap();
        assert!(delta.is_empty());
        let stats = g.apply_delta(&graph, &delta, &config);
        assert_eq!(stats.clauses_emitted + stats.clauses_retracted, 0);
        assert_eq!(canonical_clauses(&g, graph.dict()), before);
    }
}
