//! Conflict explanations: *why* was a fact flagged?
//!
//! The demo lets the audience browse "consistent and conflicting
//! statements" (Figure 8). A bare list of removed facts is hard to act
//! on, so TeCoRe attaches provenance: for every detected conflict, the
//! constraint that fired and the complete set of facts in the violated
//! grounding. Rendered, the running example's conflict reads:
//!
//! ```text
//! constraint c2 violated by:
//!   (CR, coach, Chelsea, [2000,2004]) 0.90
//!   (CR, coach, Napoli, [2001,2003]) 0.60
//! ```

use std::fmt;
use std::sync::Arc;

use tecore_ground::{ClauseOrigin, ConstraintKey, Grounding, Lit};
use tecore_kg::Dictionary;
use tecore_temporal::Interval;

use crate::carry::ListPatch;

/// One violated constraint grounding: the constraint that fired and the
/// facts that together violate it.
///
/// An explanation holds what it describes, not its text. A cold resolve
/// of a large graph detects tens of thousands of conflicts and a person
/// browses a page of them, so the text is written when somebody reads
/// it: [`Display`](fmt::Display) renders
///
/// ```text
/// constraint c2 violated by:
///   (CR, coach, Chelsea, [2000,2004]) 0.90
///   (CR, coach, Napoli, [2001,2003]) 0.60
/// ```
///
/// one [`Participant`] per line, each indented by two spaces. This is
/// the text the former `constraint: String` / `participants:
/// Vec<String>` fields carried: where code read `participants[i]` as a
/// string, `participants[i].to_string()` gives the same bytes, and
/// `&*constraint` the same name.
#[derive(Debug, Clone, PartialEq)]
pub struct ConflictExplanation {
    /// Name of the violated constraint (`c2`, or `formula#i` if
    /// unnamed) — one allocation per formula, shared by every conflict
    /// of it.
    pub constraint: Arc<str>,
    /// The facts participating in the violation.
    pub participants: Vec<Participant>,
}

impl fmt::Display for ConflictExplanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "constraint {} violated by:", self.constraint)?;
        for p in &self.participants {
            writeln!(f, "  {p}")?;
        }
        Ok(())
    }
}

/// One fact of a violated constraint grounding. The terms are the
/// dictionary's own allocations (see
/// [`Dictionary::resolve_shared`](tecore_kg::Dictionary::resolve_shared)),
/// so describing a participant copies no text.
///
/// [`Display`](fmt::Display) writes the paper's notation followed by
/// the confidence to two decimals, or by `(derived)` for an inferred
/// fact: `(CR, coach, Chelsea, [2000,2004]) 0.90`.
#[derive(Debug, Clone, PartialEq)]
pub struct Participant {
    /// The fact's subject.
    pub subject: Arc<str>,
    /// The fact's predicate.
    pub predicate: Arc<str>,
    /// The fact's object.
    pub object: Arc<str>,
    /// The fact's validity interval.
    pub interval: Interval,
    /// The probability the input gives the fact (the combined one, when
    /// several input facts assert the same statement over the same
    /// interval); `None` for a fact that is derived, not asserted.
    pub confidence: Option<f64>,
}

impl fmt::Display for Participant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({}, {}, {}, {})",
            self.subject, self.predicate, self.object, self.interval
        )?;
        match self.confidence {
            Some(p) => write!(f, " {p:.2}"),
            None => f.write_str(" (derived)"),
        }
    }
}

/// Enumerates every constraint grounding violated by the *input* KG
/// (the "keep everything" world) — these are the conflicts TeCoRe
/// resolves, independent of which side MAP inference later removes.
/// Terms are read in `dict`, the dictionary of the graph `grounding`
/// was grounded from.
pub fn explain_conflicts(grounding: &Grounding, dict: &Dictionary) -> Vec<ConflictExplanation> {
    Conflicts::of(grounding, dict)
        .entries
        .into_iter()
        .map(|(_, e)| Arc::unwrap_or_clone(e))
        .collect()
}

/// The detected conflicts of one grounding, in presentation order (by
/// formula, then by literals), with what is needed to keep them current
/// under deltas instead of re-deriving them.
#[derive(Debug, Clone, Default)]
pub(crate) struct Conflicts {
    /// The explanations, each with the key of its clause, ascending.
    /// (Keys are boxed: patching shifts entries, two words each.)
    entries: Vec<(ConstraintKey, Arc<ConflictExplanation>)>,
    /// Conflicts per formula index.
    per_formula: Vec<usize>,
    /// Constraint name per formula index (`formula#i` if unnamed),
    /// resolved once; every explanation of the formula shares it.
    names: Vec<Arc<str>>,
}

impl Conflicts {
    /// A read off the clause arena: a constraint grounding violated by
    /// keep-everything is exactly a live `Formula`-origin clause with no
    /// positive literal (rule clauses carry their positive head, which
    /// is alive and hence satisfied).
    pub(crate) fn of(grounding: &Grounding, dict: &Dictionary) -> Conflicts {
        let mut keys: Vec<ConstraintKey> = grounding
            .clauses
            .iter()
            .filter_map(|c| match c.origin {
                ClauseOrigin::Formula(idx) if c.lits.iter().all(|l| !l.positive) => {
                    Some((idx, c.lits.to_vec()))
                }
                _ => None,
            })
            .collect();
        // (The arena is already duplicate-free.)
        keys.sort_unstable();
        let names: Vec<Arc<str>> = grounding
            .program
            .formulas
            .iter()
            .enumerate()
            .map(|(idx, formula)| match &formula.name {
                Some(name) => Arc::from(name.as_str()),
                None => Arc::from(format!("formula#{idx}")),
            })
            .collect();
        let mut per_formula = vec![0; names.len()];
        let entries = keys
            .into_iter()
            .map(|key| {
                per_formula[key.0] += 1;
                let explanation = Arc::new(explanation(grounding, dict, &names[key.0], &key.1));
                (key, explanation)
            })
            .collect();
        Conflicts {
            entries,
            per_formula,
            names,
        }
    }

    /// The explanations, as a resolution lists them.
    pub(crate) fn list(&self) -> Vec<Arc<ConflictExplanation>> {
        self.entries.iter().map(|(_, e)| Arc::clone(e)).collect()
    }

    /// Applies what deltas did to the constraint groundings (see
    /// [`DeltaChanges::constraints`](tecore_ground::DeltaChanges)): a
    /// live grounding is described (again — one of its atoms may read
    /// differently now), a retracted one is dropped; every other
    /// explanation stays the shared one it was. Returns the same edits
    /// for the plain list a resolution shows ([`Conflicts::list`]).
    pub(crate) fn apply(
        &mut self,
        grounding: &Grounding,
        dict: &Dictionary,
        changes: impl IntoIterator<Item = (ConstraintKey, bool)>,
    ) -> ListPatch<Arc<ConflictExplanation>> {
        let (mut dropped, mut described) = (Vec::new(), Vec::new());
        for (key, live) in changes {
            let listed = self.entries.binary_search_by(|(k, _)| k.cmp(&key)).is_ok();
            match (listed, live) {
                (true, false) => self.per_formula[key.0] -= 1,
                (false, true) => self.per_formula[key.0] += 1,
                _ => {}
            }
            if live {
                let explanation =
                    Arc::new(explanation(grounding, dict, &self.names[key.0], &key.1));
                described.push((key.clone(), explanation));
            }
            if listed {
                dropped.push(key);
            }
        }
        let patch = ListPatch::sorted(&self.entries, |(key, _)| key, &dropped, described);
        patch.apply(&mut self.entries);
        patch.map(|(_, explanation)| Arc::clone(explanation))
    }

    /// Violated-constraint groundings per constraint name, in formula
    /// order (formulas sharing a name share a row).
    pub(crate) fn per_constraint(&self) -> Vec<(String, usize)> {
        let mut out: Vec<(String, usize)> = Vec::new();
        for (name, &count) in self.names.iter().zip(&self.per_formula) {
            if count == 0 {
                continue;
            }
            match out.iter_mut().find(|(n, _)| **n == **name) {
                Some((_, total)) => *total += count,
                None => out.push((name.to_string(), count)),
            }
        }
        out
    }
}

/// Describes one violated constraint grounding: its literals' atoms (a
/// [`ConstraintKey`] has no positive literal), as the grounding reads
/// them now, their terms read in `dict`, the grounded graph's.
fn explanation(
    grounding: &Grounding,
    dict: &Dictionary,
    constraint: &Arc<str>,
    lits: &[Lit],
) -> ConflictExplanation {
    let participants = lits
        .iter()
        .map(|l| {
            let atom = grounding.store.atom(l.atom);
            Participant {
                subject: dict.resolve_shared(atom.subject),
                predicate: dict.resolve_shared(atom.predicate),
                object: dict.resolve_shared(atom.object),
                interval: atom.interval,
                // Invert the log-odds mapping for display.
                confidence: grounding
                    .store
                    .log_odds(l.atom)
                    .map(|log_odds| 1.0 / (1.0 + (-log_odds).exp())),
            }
        })
        .collect();
    ConflictExplanation {
        constraint: Arc::clone(constraint),
        participants,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use tecore_ground::{ground, GroundConfig};
    use tecore_kg::parser::parse_graph;
    use tecore_kg::UtkGraph;
    use tecore_logic::LogicProgram;

    fn input() -> (UtkGraph, LogicProgram) {
        let graph = parse_graph(
            "(CR, coach, Chelsea, [2000,2004]) 0.9\n\
             (CR, coach, Leicester, [2015,2017]) 0.7\n\
             (CR, coach, Napoli, [2001,2003]) 0.6\n",
        )
        .unwrap();
        let program = LogicProgram::parse(
            "c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf",
        )
        .unwrap();
        (graph, program)
    }

    #[test]
    fn explains_the_chelsea_napoli_clash() {
        let (graph, program) = input();
        let grounding = ground(&graph, &program, &GroundConfig::default()).unwrap();
        let off_the_arena = explain_conflicts(&grounding, graph.dict());
        // The default (cutting-plane) engine lists the same conflict.
        let mut engine = Engine::new(graph, program);
        assert_eq!(engine.config().backend.name(), "mln-cpi");
        let snapshot = engine.resolve().unwrap();
        let through_the_engine = snapshot.conflicts.iter().map(|e| (**e).clone()).collect();
        for explanations in [off_the_arena, through_the_engine] {
            assert_eq!(explanations.len(), 1);
            let e: &ConflictExplanation = &explanations[0];
            assert_eq!(&*e.constraint, "c2");
            assert_eq!(e.participants.len(), 2);
            let text = e.to_string();
            assert!(text.contains("Chelsea"), "{text}");
            assert!(text.contains("Napoli"), "{text}");
            assert!(!text.contains("Leicester"), "{text}");
            // Confidence round-trips through the log-odds display mapping.
            assert!(text.contains("0.90") || text.contains("0.9"), "{text}");
        }
    }

    #[test]
    fn conflict_free_graph_has_no_explanations() {
        let graph = parse_graph("(CR, coach, Chelsea, [2000,2004]) 0.9\n").unwrap();
        let program = LogicProgram::parse(
            "c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf",
        )
        .unwrap();
        let g = ground(&graph, &program, &GroundConfig::default()).unwrap();
        assert!(explain_conflicts(&g, graph.dict()).is_empty());
    }
}
