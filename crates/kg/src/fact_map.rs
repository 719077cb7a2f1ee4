//! A dense map from a graph's fact ids to `u32` ids of another table —
//! the grounder's fact → atom table, a resolved view's engine fact →
//! view fact table.

use std::marker::PhantomData;

use crate::fact::FactId;
use crate::graph::UtkGraph;

/// Fact → id, for the facts of one graph. Dense, but only over the
/// ids that can still occur: it starts at the smallest id live when it
/// was made (ids are never reused, so everything below is gone for
/// good — a graph that only ever appends and expires, a stream window,
/// has nothing live before it and never will), which keeps it the size
/// of a stream's window rather than of everything the stream ever
/// admitted. Facts only ever arrive with ids beyond the ones it has
/// seen.
#[derive(Debug, Clone)]
pub struct FactMap<T> {
    first: usize,
    /// `ids[f - first]`, [`ABSENT`] for facts not mapped.
    ids: Vec<u32>,
    of: PhantomData<T>,
}

/// The entry of a fact that is not (or no longer) mapped.
const ABSENT: u32 = u32::MAX;

impl<T> Default for FactMap<T> {
    fn default() -> Self {
        FactMap {
            first: 0,
            ids: Vec::new(),
            of: PhantomData,
        }
    }
}

impl<T: Copy + From<u32> + Into<u32>> FactMap<T> {
    /// An empty map over the live facts of `graph`.
    pub fn spanning(graph: &UtkGraph) -> Self {
        let first = graph
            .iter()
            .next()
            .map_or(graph.arena_len(), |(id, _)| id.index());
        FactMap {
            first,
            ids: vec![ABSENT; graph.arena_len() - first],
            of: PhantomData,
        }
    }

    /// Does the map span no fact?
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The id `fact` maps to.
    #[inline]
    pub fn get(&self, fact: FactId) -> Option<T> {
        let id = *self.ids.get(fact.index().checked_sub(self.first)?)?;
        (id != ABSENT).then(|| T::from(id))
    }

    /// Maps `fact` (at or past the map's first id) to `id`.
    pub fn set(&mut self, fact: FactId, id: T) {
        let at = fact.index() - self.first;
        if self.ids.len() <= at {
            self.ids.resize(at + 1, ABSENT);
        }
        self.ids[at] = id.into();
    }

    /// Unmaps `fact`, returning the id it had.
    pub fn take(&mut self, fact: FactId) -> Option<T> {
        let id = self.get(fact)?;
        self.ids[fact.index() - self.first] = ABSENT;
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The map spans from the first live fact to the arena's end, also
    /// once FIFO expiry has emptied the graph and facts came back.
    #[test]
    fn fact_ids_span_from_the_first_live_fact() {
        type FactIds = FactMap<FactId>;
        let mut graph = UtkGraph::new();
        let spell = tecore_temporal::Interval::new(2000, 2004).unwrap();
        let ids: Vec<FactId> = (0..6)
            .map(|i| {
                graph
                    .insert("CR", "coach", &format!("c{i}"), spell, 0.9)
                    .unwrap()
            })
            .collect();
        for &id in &ids[..3] {
            graph.remove(id).unwrap();
        }
        let span = FactIds::spanning(&graph);
        assert_eq!((span.first, span.ids.len()), (3, 3));
        // The first live fact goes after a later one.
        graph.remove(ids[4]).unwrap();
        graph.remove(ids[3]).unwrap();
        assert_eq!(FactIds::spanning(&graph).first, 5);
        graph.remove(ids[5]).unwrap();
        assert!(FactIds::spanning(&graph).is_empty());
        let back = graph.insert("CR", "coach", "c6", spell, 0.9).unwrap();
        let span = FactIds::spanning(&graph);
        assert_eq!((span.first, span.ids.len()), (back.index(), 1));
    }
}
