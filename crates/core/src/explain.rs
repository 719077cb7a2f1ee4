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
//!   (CR, coach, Chelsea, [2000,2004]) 0.9
//!   (CR, coach, Napoli, [2001,2003]) 0.6
//! ```

use std::sync::Arc;

use tecore_ground::{ClauseOrigin, ConstraintKey, Grounding, Lit};

use crate::carry::ListPatch;

/// One violated constraint grounding, rendered for display.
#[derive(Debug, Clone, PartialEq)]
pub struct ConflictExplanation {
    /// Name of the violated constraint (`c2`, or `formula#i` if
    /// unnamed).
    pub constraint: String,
    /// The facts participating in the violation, in the paper's
    /// notation.
    pub participants: Vec<String>,
}

impl std::fmt::Display for ConflictExplanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "constraint {} violated by:", self.constraint)?;
        for p in &self.participants {
            writeln!(f, "  {p}")?;
        }
        Ok(())
    }
}

/// Enumerates every constraint grounding violated by the *input* KG
/// (the "keep everything" world) — these are the conflicts TeCoRe
/// resolves, independent of which side MAP inference later removes.
pub fn explain_conflicts(grounding: &Grounding) -> Vec<ConflictExplanation> {
    Conflicts::of(grounding)
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
}

impl Conflicts {
    /// A read off the clause arena: a constraint grounding violated by
    /// keep-everything is exactly a live `Formula`-origin clause with no
    /// positive literal (rule clauses carry their positive head, which
    /// is alive and hence satisfied).
    pub(crate) fn of(grounding: &Grounding) -> Conflicts {
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
        let mut per_formula = vec![0; grounding.program.formulas.len()];
        let entries = keys
            .into_iter()
            .map(|key| {
                per_formula[key.0] += 1;
                let explanation = Arc::new(explanation(grounding, key.0, &key.1));
                (key, explanation)
            })
            .collect();
        Conflicts {
            entries,
            per_formula,
        }
    }

    /// The explanations, as a resolution lists them.
    pub(crate) fn list(&self) -> Vec<Arc<ConflictExplanation>> {
        self.entries.iter().map(|(_, e)| Arc::clone(e)).collect()
    }

    /// Applies what deltas did to the constraint groundings (see
    /// [`DeltaChanges::constraints`](tecore_ground::DeltaChanges)): a
    /// live grounding is rendered (again — one of its atoms may read
    /// differently now), a retracted one is dropped; every other
    /// explanation stays the shared one it was. Returns the same edits
    /// for the plain list a resolution shows ([`Conflicts::list`]).
    pub(crate) fn apply(
        &mut self,
        grounding: &Grounding,
        changes: impl IntoIterator<Item = (ConstraintKey, bool)>,
    ) -> ListPatch<Arc<ConflictExplanation>> {
        let (mut dropped, mut rendered) = (Vec::new(), Vec::new());
        for (key, live) in changes {
            let listed = self.entries.binary_search_by(|(k, _)| k.cmp(&key)).is_ok();
            match (listed, live) {
                (true, false) => self.per_formula[key.0] -= 1,
                (false, true) => self.per_formula[key.0] += 1,
                _ => {}
            }
            if live {
                let explanation = Arc::new(explanation(grounding, key.0, &key.1));
                rendered.push((key.clone(), explanation));
            }
            if listed {
                dropped.push(key);
            }
        }
        let patch = ListPatch::sorted(&self.entries, |(key, _)| key, &dropped, rendered);
        patch.apply(&mut self.entries);
        patch.map(|(_, explanation)| Arc::clone(explanation))
    }

    /// Violated-constraint groundings per constraint name, in formula
    /// order (formulas sharing a name share a row).
    pub(crate) fn per_constraint(&self, grounding: &Grounding) -> Vec<(String, usize)> {
        let mut out: Vec<(String, usize)> = Vec::new();
        for (idx, &count) in self.per_formula.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let name = constraint_name(grounding, idx);
            match out.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => *total += count,
                None => out.push((name, count)),
            }
        }
        out
    }
}

fn constraint_name(grounding: &Grounding, idx: usize) -> String {
    grounding.program.formulas[idx]
        .name
        .clone()
        .unwrap_or_else(|| format!("formula#{idx}"))
}

/// Renders one violated constraint grounding.
fn explanation(grounding: &Grounding, idx: usize, lits: &[Lit]) -> ConflictExplanation {
    let constraint = constraint_name(grounding, idx);
    let participants: Vec<String> = lits
        .iter()
        .filter(|l| !l.positive)
        .map(|l| {
            let atom = grounding.store.atom(l.atom);
            let conf = match grounding.store.log_odds(l.atom) {
                Some(log_odds) => {
                    // Invert the log-odds mapping for display.
                    let p = 1.0 / (1.0 + (-log_odds).exp());
                    format!(" {p:.2}")
                }
                None => " (derived)".to_string(),
            };
            format!(
                "({}, {}, {}, {}){}",
                grounding.dict.resolve(atom.subject),
                grounding.dict.resolve(atom.predicate),
                grounding.dict.resolve(atom.object),
                atom.interval,
                conf
            )
        })
        .collect();
    ConflictExplanation {
        constraint,
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
        let off_the_arena =
            explain_conflicts(&ground(&graph, &program, &GroundConfig::default()).unwrap());
        // The default (cutting-plane) engine lists the same conflict.
        let mut engine = Engine::new(graph, program);
        assert_eq!(engine.config().backend.name(), "mln-cpi");
        let snapshot = engine.resolve().unwrap();
        let through_the_engine = snapshot.conflicts.iter().map(|e| (**e).clone()).collect();
        for explanations in [off_the_arena, through_the_engine] {
            assert_eq!(explanations.len(), 1);
            let e: &ConflictExplanation = &explanations[0];
            assert_eq!(e.constraint, "c2");
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
        assert!(explain_conflicts(&g).is_empty());
    }
}
