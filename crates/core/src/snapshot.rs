//! Immutable, shareable views of a resolved KG.
//!
//! TeCoRe's deliverable is not a solver trace but a *queryable,
//! conflict-free temporal KG*. A [`Snapshot`] is the frozen outcome of
//! one [`Engine`](crate::engine::Engine) resolution: the
//! [`Resolution`] itself, the **expanded graph** (consistent evidence
//! plus inferred facts) materialised at most once, and the temporal /
//! secondary indexes the [query layer](crate::query) scans.
//!
//! Snapshots are handed out as `Arc<Snapshot>` and are `Send + Sync`:
//! any number of reader threads can run point-in-time and window
//! queries against one snapshot while the engine that produced it keeps
//! mutating and re-resolving — readers are never invalidated, they
//! simply observe the epoch they captured.

use std::ops::Deref;
use std::sync::mpsc::Sender;
use std::sync::{Arc, OnceLock};

use tecore_kg::{GraphTemporalIndex, UtkGraph};
use tecore_temporal::TimePoint;

use crate::carry::View;
use crate::query::TemporalQuery;
use crate::resolution::Resolution;

/// The frozen result of one resolution, stamped with the graph epoch it
/// was computed at.
///
/// `Snapshot` dereferences to [`Resolution`], so all the familiar
/// fields (`consistent`, `removed`, `inferred`, `conflicts`, `stats`)
/// read straight through — migrating from `Resolution`-returning APIs
/// is mechanical. On top of that it owns:
///
/// * [`Snapshot::expanded`] — the expanded KG, built **once** per
///   snapshot; when nothing was inferred it *is* the consistent graph,
///   shared, not a copy of it;
/// * [`Snapshot::index`] — a [`GraphTemporalIndex`] over the expanded
///   graph (per-predicate and per-subject interval indexes);
/// * [`Snapshot::query`] — the entry point of the typed temporal query
///   layer.
///
/// Snapshots of a cold resolve ([`Snapshot::from_resolution`],
/// [`Engine::resolve`](crate::engine::Engine::resolve)) build both
/// members lazily, on first access. Snapshots of
/// [`Engine::resolve_incremental`](crate::engine::Engine::resolve_incremental)
/// that were carried forward from their predecessor arrive with both
/// already in place — an earlier snapshot's, patched with what the
/// edits since changed — so no reader ever builds them.
///
/// Lazy members use [`OnceLock`], so concurrent readers racing on the
/// first access still build each structure exactly once.
///
/// A snapshot is never touched while anybody holds it. What happens to
/// its graphs, index and lists when the *last* holder lets go is the
/// engine's to say: the snapshot it published before its latest one it
/// asks to come home, to be patched into the next instead of being torn
/// down (module `carry`).
#[derive(Debug)]
pub struct Snapshot {
    epoch: u64,
    resolution: Resolution,
    expanded: OnceLock<Arc<UtkGraph>>,
    index: OnceLock<GraphTemporalIndex>,
    /// Where the view goes when the snapshot drops, if anywhere.
    home: OnceLock<Sender<View>>,
}

impl Snapshot {
    /// Wraps a resolution computed at graph epoch `epoch`.
    ///
    /// Public so external pipelines (and conformance tests) can put the
    /// query layer on top of resolutions they produced themselves.
    pub fn from_resolution(resolution: Resolution, epoch: u64) -> Self {
        Snapshot {
            epoch,
            resolution,
            expanded: OnceLock::new(),
            index: OnceLock::new(),
            home: OnceLock::new(),
        }
    }

    /// Wraps a resolution whose expanded graph and index the engine
    /// already holds (carried forward from the previous snapshot).
    pub(crate) fn prebuilt(
        resolution: Resolution,
        epoch: u64,
        expanded: Arc<UtkGraph>,
        index: GraphTemporalIndex,
    ) -> Self {
        Snapshot {
            epoch,
            resolution,
            expanded: OnceLock::from(expanded),
            index: OnceLock::from(index),
            home: OnceLock::new(),
        }
    }

    /// Asks for the snapshot's view to be sent `home` when its last
    /// holder lets go, instead of being torn down there. Whoever drops
    /// last then pays one channel send; a view that cannot be taken
    /// apart (a caller kept `consistent`'s inner `Arc`, or nobody built
    /// the index) is torn down after all and the channel just closes.
    pub(crate) fn send_home(&self, home: Sender<View>) {
        // One engine publishes a snapshot and asks at most once.
        let _ = self.home.set(home);
    }

    /// The graph epoch this snapshot was resolved at. Monotonically
    /// increasing across an engine's lifetime: two snapshots from the
    /// same engine compare by recency through their epochs.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The underlying resolution.
    pub fn resolution(&self) -> &Resolution {
        &self.resolution
    }

    /// The expanded KG — consistent evidence plus inferred facts
    /// materialised as graph facts — by reference.
    ///
    /// Already in place on a snapshot an incremental resolve carried
    /// forward; on a cold one it is materialised on the first call (at
    /// most once — every later call, from any thread, returns the same
    /// graph). With nothing inferred it is the consistent graph itself.
    pub fn expanded(&self) -> &UtkGraph {
        self.expanded_shared()
    }

    /// [`Snapshot::expanded`] with its owner, for the engine to carry
    /// into the next snapshot.
    pub(crate) fn expanded_shared(&self) -> &Arc<UtkGraph> {
        self.expanded.get_or_init(|| {
            if self.resolution.inferred.is_empty() {
                Arc::clone(&self.resolution.consistent)
            } else {
                Arc::new(expanded_graph(&self.resolution))
            }
        })
    }

    /// The index, if it has been built (or arrived built).
    pub(crate) fn built_index(&self) -> Option<&GraphTemporalIndex> {
        self.index.get()
    }

    /// The temporal index set over [`Snapshot::expanded`].
    ///
    /// Already in place on a snapshot an incremental resolve carried
    /// forward; on a cold one it is built on the first call, at most
    /// once per snapshot.
    pub fn index(&self) -> &GraphTemporalIndex {
        self.index
            .get_or_init(|| GraphTemporalIndex::build(self.expanded()))
    }

    /// Starts a temporal query over the expanded graph.
    pub fn query(&self) -> TemporalQuery<'_> {
        TemporalQuery::new(self)
    }

    /// Shortcut: a point-in-time stabbing query (`who/what held at t`).
    pub fn at(&self, t: impl Into<TimePoint>) -> TemporalQuery<'_> {
        self.query().at(t)
    }
}

/// Builds the expanded KG: a copy of the consistent evidence plus the
/// inferred facts materialised as graph facts (confidence = inferred
/// confidence, floored at a minimum positive value).
fn expanded_graph(resolution: &Resolution) -> UtkGraph {
    let mut g = UtkGraph::clone(&resolution.consistent);
    for inf in &resolution.inferred {
        let conf = inf.confidence.clamp(0.001, 1.0);
        g.insert(
            &inf.subject,
            &inf.predicate,
            &inf.object,
            inf.interval,
            conf,
        )
        .expect("clamped confidence is valid");
    }
    // Like `consistent`, the expansion carries no edit history.
    g.truncate_log(g.epoch());
    g
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        let Some(home) = self.home.take() else {
            return;
        };
        let view = View::reclaim(
            std::mem::take(&mut self.resolution),
            self.expanded.take(),
            self.index.take(),
        );
        if let Some(view) = view {
            // A closed channel hands the view back: the engine has
            // moved on, and it is torn down here after all.
            let _ = home.send(view);
        }
    }
}

impl Deref for Snapshot {
    type Target = Resolution;

    fn deref(&self) -> &Resolution {
        &self.resolution
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tecore_kg::parser::parse_graph;

    fn resolution() -> Resolution {
        let graph = parse_graph(
            "(CR, coach, Chelsea, [2000,2004]) 0.9\n\
             (CR, coach, Leicester, [2015,2017]) 0.7\n",
        )
        .unwrap();
        Resolution {
            consistent: Arc::new(graph),
            removed: Vec::new(),
            inferred: vec![Arc::new(crate::resolution::InferredFact {
                subject: "CR".into(),
                predicate: "worksFor".into(),
                object: "Chelsea".into(),
                interval: tecore_temporal::Interval::new(2000, 2004).unwrap(),
                confidence: 0.8,
            })],
            conflicts: Vec::new(),
            stats: crate::stats::DebugStats::default(),
        }
    }

    fn snapshot() -> Snapshot {
        Snapshot::from_resolution(resolution(), 7)
    }

    #[test]
    fn snapshot_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Snapshot>();
        assert_send_sync::<std::sync::Arc<Snapshot>>();
    }

    #[test]
    fn expanded_materialised_once_by_reference() {
        let snap = snapshot();
        assert_eq!(snap.epoch(), 7);
        let first = snap.expanded() as *const UtkGraph;
        let second = snap.expanded() as *const UtkGraph;
        assert_eq!(first, second, "same materialisation on every access");
        assert_eq!(snap.expanded().len(), 3, "2 consistent + 1 inferred");
    }

    #[test]
    fn nothing_inferred_shares_the_consistent_graph() {
        let mut resolution = resolution();
        resolution.inferred.clear();
        let snap = Snapshot::from_resolution(resolution, 7);
        assert!(std::ptr::eq(snap.expanded(), &*snap.consistent));
    }

    #[test]
    fn deref_reaches_resolution_fields() {
        let snap = snapshot();
        assert_eq!(snap.inferred.len(), 1);
        assert_eq!(snap.stats.conflicting_facts, 0);
        assert_eq!(snap.resolution().consistent.len(), 2);
    }
}
