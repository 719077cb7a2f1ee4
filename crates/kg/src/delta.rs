//! Change tracking for evolving uTKGs.
//!
//! TeCoRe is an *interactive* system: the user edits the graph and
//! re-runs the reasoner. To make re-runs proportional to the edit — not
//! the graph — [`crate::UtkGraph`] keeps a monotonically increasing
//! **epoch** and a log of [`FactChange`]s. Consumers (the incremental
//! grounder in `tecore-ground`) pull a [`Delta`] with
//! [`crate::UtkGraph::since`] and update their materialised state
//! instead of rebuilding it; [`crate::UtkGraph::truncate_log`] drops
//! the history they have synced past.

use crate::fact::FactId;

/// One atomic change to a graph, stamped with the epoch it produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactChange {
    /// The fact was inserted (ids are never reused, so an `Added` id is
    /// fresh unless a matching `Removed` follows it).
    Added(FactId),
    /// The fact was tombstoned.
    Removed(FactId),
}

impl FactChange {
    /// The fact the change concerns.
    pub fn fact(self) -> FactId {
        match self {
            FactChange::Added(id) | FactChange::Removed(id) => id,
        }
    }
}

/// The net difference between two epochs of one graph.
///
/// Changes are *netted*: a fact inserted and then removed inside the
/// window appears in neither `added` nor `removed`, and a fact that
/// existed before the window and was removed appears only in `removed`.
/// Ids in `added` are live at `to_epoch`; ids in `removed` were live at
/// `from_epoch`.
///
/// Netting is lossless for the *materialised grounding* (the net
/// change describes the problem exactly) but not for *solver-state
/// bookkeeping*: a fact whose insert+remove pair nets out may have
/// aliased the ground statement of a live atom — a tombstone revive in
/// the same batch — and consumers that cache per-component solver
/// state need to know that statement's neighbourhood was touched even
/// though the net problem is unchanged. Those ids are reported in
/// [`Delta::churned`] instead of being silently dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Delta {
    /// Epoch the delta starts from (exclusive).
    pub from_epoch: u64,
    /// Epoch the delta runs to (inclusive) — the graph's epoch at
    /// capture time.
    pub to_epoch: u64,
    /// Facts inserted in the window and still live at `to_epoch`.
    pub added: Vec<FactId>,
    /// Facts live at `from_epoch` and removed in the window.
    pub removed: Vec<FactId>,
    /// Facts inserted *and* removed inside the window (net-zero churn).
    /// The grounding itself is unaffected by them, but any live atom
    /// whose ground statement one of these facts revived must have its
    /// conflict component marked dirty, or cached per-component warm
    /// states go stale (see `tecore-ground`'s `ComponentIndex`).
    pub churned: Vec<FactId>,
}

impl Delta {
    /// `true` when the window contains no net change.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Number of net changes.
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// Builds the net delta from a raw change sequence (linear in the
    /// number of changes).
    pub(crate) fn from_changes(
        from_epoch: u64,
        to_epoch: u64,
        changes: impl Iterator<Item = FactChange>,
    ) -> Delta {
        let mut added: crate::fxhash::FxHashSet<FactId> = crate::fxhash::FxHashSet::default();
        let mut removed: Vec<FactId> = Vec::new();
        let mut churned: Vec<FactId> = Vec::new();
        for change in changes {
            match change {
                FactChange::Added(id) => {
                    added.insert(id);
                }
                FactChange::Removed(id) => {
                    // Ids are never reused: if the fact was added inside
                    // this window the pair nets out (but is still
                    // *reported* as churn), otherwise it was live at
                    // `from_epoch`.
                    if added.remove(&id) {
                        churned.push(id);
                    } else {
                        removed.push(id);
                    }
                }
            }
        }
        let mut added: Vec<FactId> = added.into_iter().collect();
        added.sort_unstable();
        removed.sort_unstable();
        churned.sort_unstable();
        Delta {
            from_epoch,
            to_epoch,
            added,
            removed,
            churned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netting_cancels_add_remove_pairs() {
        let d = Delta::from_changes(
            0,
            4,
            [
                FactChange::Added(FactId(7)),
                FactChange::Removed(FactId(3)),
                FactChange::Added(FactId(8)),
                FactChange::Removed(FactId(8)),
            ]
            .into_iter(),
        );
        assert_eq!(d.added, vec![FactId(7)]);
        assert_eq!(d.removed, vec![FactId(3)]);
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
        // The netted pair does not vanish from the bookkeeping: it is
        // reported as churn so component-state caches can be dirtied.
        assert_eq!(d.churned, vec![FactId(8)]);
    }

    /// A fact removed and "revived" (its id re-added) within the same
    /// window nets out of `added`/`removed` but must still be visible:
    /// a consumer holding cached per-component solver state for the
    /// statement's atom would otherwise never learn its neighbourhood
    /// was touched. This was the failing case before `churned` existed.
    #[test]
    fn same_batch_revive_is_reported_as_churn() {
        let d = Delta::from_changes(
            3,
            5,
            [FactChange::Added(FactId(4)), FactChange::Removed(FactId(4))].into_iter(),
        );
        assert!(d.is_empty(), "net problem change is empty");
        assert_eq!(d.churned, vec![FactId(4)], "but the churn is reported");
    }

    #[test]
    fn empty_window() {
        let d = Delta::from_changes(5, 5, std::iter::empty());
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
    }

    #[test]
    fn change_accessor() {
        assert_eq!(FactChange::Added(FactId(1)).fact(), FactId(1));
        assert_eq!(FactChange::Removed(FactId(2)).fact(), FactId(2));
    }
}
