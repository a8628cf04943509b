//! [`StoreView`] — the uniform read interface over a plain store or a
//! published epoch of the sharded store.
//!
//! Rules (and every other reader of triple data) are written against this
//! view instead of a concrete store, so the same join code runs against:
//!
//! * a plain [`VerticalStore`] borrowed whole (`StoreView::Store`) — the
//!   single-threaded baselines, the maintenance subsystem (which holds the
//!   store exclusively), and unit tests; or
//! * an [`EpochSnapshot`] of a [`ShardedStore`](crate::ShardedStore)
//!   (`StoreView::Epoch`) — the concurrent reasoner's rule joins and every
//!   external query, reading one immutable published cut.
//!
//! Every predicate-bound access (`objects_with`, `subjects_with`, `pairs`,
//! `contains`, `table` …) routes to the one sub-store owning that
//! predicate — a shard lookup plus the usual hash lookups, no boxing on
//! the hot join paths. Only the full-walk accessors (`iter`,
//! `predicates`, unbound-predicate `matches`) traverse all shards.

use crate::concurrent::EpochSnapshot;
use crate::pattern::TriplePattern;
use crate::table::PropertyTable;
use crate::vertical::VerticalStore;
use slider_model::{NodeId, Triple};

/// A borrowed, read-only view of triple data — see the module docs.
///
/// Obtained from [`VerticalStore::view`] or [`EpochSnapshot::view`].
/// `Copy`, so it can be passed around freely during one join.
#[derive(Debug, Clone, Copy)]
pub enum StoreView<'a> {
    /// A plain store borrowed whole.
    Store(&'a VerticalStore),
    /// A published epoch of a sharded store.
    Epoch(&'a EpochSnapshot),
}

impl<'a> StoreView<'a> {
    /// The sub-store owning predicate `p` (the whole store, or `p`'s
    /// shard). Every predicate-bound accessor routes through here.
    #[inline]
    fn store_for(&self, p: NodeId) -> &'a VerticalStore {
        match *self {
            StoreView::Store(store) => store,
            StoreView::Epoch(epoch) => epoch.shard_store(p),
        }
    }

    /// All sub-stores, for the full-walk accessors: the store itself, or
    /// every shard of the epoch.
    fn stores(&self) -> impl Iterator<Item = &'a VerticalStore> {
        let (whole, shards) = match *self {
            StoreView::Store(store) => (Some(store), &[][..]),
            StoreView::Epoch(epoch) => (None, epoch.shards()),
        };
        whole.into_iter().chain(shards.iter().map(|s| &**s))
    }

    /// The partition for predicate `p`, if any triple uses it.
    #[inline]
    pub fn table(&self, p: NodeId) -> Option<&'a PropertyTable> {
        self.store_for(p).table(p)
    }

    /// True if `t` is present.
    #[inline]
    pub fn contains(&self, t: Triple) -> bool {
        self.store_for(t.p).contains(t)
    }

    /// True if `t` is present *and* explicitly asserted.
    #[inline]
    pub fn is_explicit(&self, t: Triple) -> bool {
        self.store_for(t.p).is_explicit(t)
    }

    /// Objects `o` such that `(s, p, o)` holds — the `(p, s, ?)` pattern.
    #[inline]
    pub fn objects_with(&self, p: NodeId, s: NodeId) -> impl Iterator<Item = NodeId> + 'a {
        self.store_for(p).objects_with(p, s)
    }

    /// Subjects `s` such that `(s, p, o)` holds — the `(p, ?, o)` pattern.
    #[inline]
    pub fn subjects_with(&self, p: NodeId, o: NodeId) -> impl Iterator<Item = NodeId> + 'a {
        self.store_for(p).subjects_with(p, o)
    }

    /// All `(s, o)` pairs for predicate `p` — the `(p, ?, ?)` pattern.
    #[inline]
    pub fn pairs(&self, p: NodeId) -> impl Iterator<Item = (NodeId, NodeId)> + 'a {
        self.store_for(p).pairs(p)
    }

    /// Number of triples with predicate `p`.
    #[inline]
    pub fn count_with_p(&self, p: NodeId) -> usize {
        self.store_for(p).count_with_p(p)
    }

    /// Distinct predicates in use (across all shards).
    pub fn predicates(&self) -> impl Iterator<Item = NodeId> + 'a {
        self.stores().flat_map(VerticalStore::predicates)
    }

    /// Iterates over every triple (no ordering guarantee).
    pub fn iter(&self) -> impl Iterator<Item = Triple> + 'a {
        self.stores().flat_map(VerticalStore::iter)
    }

    /// Total number of triples.
    pub fn len(&self) -> usize {
        self.stores().map(VerticalStore::len).sum()
    }

    /// True if the view holds no triples.
    pub fn is_empty(&self) -> bool {
        self.stores().all(VerticalStore::is_empty)
    }

    /// All triples matching `pattern`, routed through the best index: a
    /// bound predicate resolves inside its owning sub-store, an unbound
    /// predicate walks every shard.
    pub fn matches(&self, pattern: TriplePattern) -> Vec<Triple> {
        match pattern.p {
            Some(p) => self.store_for(p).matches(pattern),
            None => self.iter().filter(|&t| pattern.matches(t)).collect(),
        }
    }

    /// All triples, sorted — for deterministic comparisons in tests.
    pub fn to_sorted_vec(&self) -> Vec<Triple> {
        let mut v: Vec<Triple> = self.iter().collect();
        v.sort_unstable();
        v
    }
}

impl<'a> From<&'a VerticalStore> for StoreView<'a> {
    fn from(store: &'a VerticalStore) -> Self {
        StoreView::Store(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedStore;

    fn t(s: u64, p: u64, o: u64) -> Triple {
        Triple::new(NodeId(s), NodeId(p), NodeId(o))
    }

    fn sample() -> Vec<Triple> {
        vec![
            t(1, 10, 2),
            t(1, 10, 3),
            t(4, 10, 2),
            t(1, 20, 2),
            t(5, 30, 6),
        ]
    }

    /// Whole-store and snapshot views must answer identically on every
    /// accessor, for any shard count.
    #[test]
    fn snapshot_view_agrees_with_whole_store_view() {
        let plain: VerticalStore = sample().into_iter().collect();
        for shards in [1, 2, 16] {
            let sharded = ShardedStore::from_store_sharded(plain.clone(), shards);
            let snap = sharded.snapshot();
            let a = plain.view();
            let b = snap.view();
            assert_eq!(a.len(), b.len());
            assert_eq!(a.is_empty(), b.is_empty());
            assert_eq!(a.to_sorted_vec(), b.to_sorted_vec());
            let mut pa: Vec<NodeId> = a.predicates().collect();
            let mut pb: Vec<NodeId> = b.predicates().collect();
            pa.sort();
            pb.sort();
            assert_eq!(pa, pb, "shards={shards}");
            for p in [10, 20, 30, 99] {
                let p = NodeId(p);
                assert_eq!(a.count_with_p(p), b.count_with_p(p));
                assert_eq!(a.table(p).is_some(), b.table(p).is_some());
                let mut qa: Vec<_> = a.pairs(p).collect();
                let mut qb: Vec<_> = b.pairs(p).collect();
                qa.sort();
                qb.sort();
                assert_eq!(qa, qb);
            }
            for &tr in &sample() {
                assert!(b.contains(tr));
                assert_eq!(
                    a.objects_with(tr.p, tr.s).count(),
                    b.objects_with(tr.p, tr.s).count()
                );
                assert_eq!(
                    a.subjects_with(tr.p, tr.o).count(),
                    b.subjects_with(tr.p, tr.o).count()
                );
            }
            assert!(!b.contains(t(9, 9, 9)));
        }
    }

    /// `matches` on a snapshot view agrees with a brute-force scan for
    /// every pattern shape, including the unbound-predicate full walk.
    #[test]
    fn snapshot_matches_agrees_with_reference() {
        let triples = sample();
        let sharded = ShardedStore::from_store_sharded(triples.iter().copied().collect(), 4);
        let snap = sharded.snapshot();
        let view = snap.view();
        let ids: Vec<Option<NodeId>> = vec![
            None,
            Some(NodeId(1)),
            Some(NodeId(10)),
            Some(NodeId(2)),
            Some(NodeId(99)),
        ];
        for &s in &ids {
            for &p in &ids {
                for &o in &ids {
                    let pat = TriplePattern::new(s, p, o);
                    let mut got = view.matches(pat);
                    got.sort_unstable();
                    let mut want: Vec<Triple> = triples
                        .iter()
                        .copied()
                        .filter(|&x| pat.matches(x))
                        .collect();
                    want.sort_unstable();
                    assert_eq!(got, want, "pattern {pat:?}");
                }
            }
        }
    }

    #[test]
    fn explicit_flags_visible_through_view() {
        let mut plain = VerticalStore::new();
        plain.insert_explicit(t(1, 10, 2));
        plain.insert(t(3, 10, 4));
        assert!(plain.view().is_explicit(t(1, 10, 2)));
        assert!(!plain.view().is_explicit(t(3, 10, 4)));
        let sharded = ShardedStore::from_store_sharded(plain, 8);
        let snap = sharded.snapshot();
        assert!(snap.view().is_explicit(t(1, 10, 2)));
        assert!(!snap.view().is_explicit(t(3, 10, 4)));
    }
}
