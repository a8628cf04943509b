//! The per-predicate table: (subject, object) pairs indexed both ways.

use slider_model::{FxHashMap, FxHashSet, NodeId};

/// All triples sharing one predicate, as a bidirectional adjacency index.
///
/// This is the unit of vertical partitioning: `by_s` answers `(p, s, ?)`,
/// `by_o` answers `(p, ?, o)`. Both indexes are kept in lock-step by
/// [`PropertyTable::add`].
#[derive(Debug, Clone, Default)]
pub struct PropertyTable {
    by_s: FxHashMap<NodeId, FxHashSet<NodeId>>,
    by_o: FxHashMap<NodeId, FxHashSet<NodeId>>,
    len: usize,
    /// The explicitly asserted subset of this partition (`explicit ⊆
    /// pairs`; [`PropertyTable::remove`] clears the flag). Keeping the
    /// provenance flag *inside* the partition makes a table a
    /// self-contained shard: moving it between stores (see
    /// `VerticalStore::split_off`) carries the flags along for free.
    explicit: FxHashSet<(NodeId, NodeId)>,
}

impl PropertyTable {
    /// An empty table with both indexes.
    pub fn new() -> Self {
        PropertyTable::default()
    }

    /// Inserts the pair; returns `true` if it was not present.
    pub fn add(&mut self, s: NodeId, o: NodeId) -> bool {
        let inserted = self.by_s.entry(s).or_default().insert(o);
        if inserted {
            self.by_o.entry(o).or_default().insert(s);
            self.len += 1;
        }
        inserted
    }

    /// Removes the pair; returns `true` if it was present.
    ///
    /// Both indexes stay in lock-step, and emptied leaf sets are dropped so
    /// `subject_keys`/`object_keys` never report stale keys.
    pub fn remove(&mut self, s: NodeId, o: NodeId) -> bool {
        let Some(objs) = self.by_s.get_mut(&s) else {
            return false;
        };
        if !objs.remove(&o) {
            return false;
        }
        if objs.is_empty() {
            self.by_s.remove(&s);
        }
        if let Some(subs) = self.by_o.get_mut(&o) {
            subs.remove(&s);
            if subs.is_empty() {
                self.by_o.remove(&o);
            }
        }
        self.explicit.remove(&(s, o));
        self.len -= 1;
        true
    }

    /// Flags a *present* pair as explicitly asserted; returns `true` if the
    /// flag was newly set. Callers must only mark pairs they have
    /// [`add`](PropertyTable::add)ed — the `explicit ⊆ pairs` invariant is
    /// theirs to keep.
    pub fn mark_explicit(&mut self, s: NodeId, o: NodeId) -> bool {
        debug_assert!(self.contains(s, o), "marking an absent pair explicit");
        self.explicit.insert((s, o))
    }

    /// Clears the explicit flag without removing the pair; returns `true`
    /// if the flag was set.
    pub fn unmark_explicit(&mut self, s: NodeId, o: NodeId) -> bool {
        self.explicit.remove(&(s, o))
    }

    /// True if the pair is present and explicitly asserted.
    pub fn is_explicit(&self, s: NodeId, o: NodeId) -> bool {
        self.explicit.contains(&(s, o))
    }

    /// Number of explicitly asserted pairs.
    pub fn explicit_len(&self) -> usize {
        self.explicit.len()
    }

    /// The explicitly asserted `(s, o)` pairs (no ordering guarantee).
    pub fn explicit_pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.explicit.iter().copied()
    }

    /// True if the pair is present.
    pub fn contains(&self, s: NodeId, o: NodeId) -> bool {
        self.by_s.get(&s).is_some_and(|set| set.contains(&o))
    }

    /// Objects `o` with `(s, o)` in the table.
    pub fn objects(&self, s: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.by_s.get(&s).into_iter().flatten().copied()
    }

    /// Subjects `s` with `(s, o)` in the table.
    pub fn subjects(&self, o: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.by_o.get(&o).into_iter().flatten().copied()
    }

    /// All `(s, o)` pairs.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.by_s
            .iter()
            .flat_map(|(&s, objs)| objs.iter().map(move |&o| (s, o)))
    }

    /// Distinct subjects.
    pub fn subject_keys(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.by_s.keys().copied()
    }

    /// Distinct objects.
    pub fn object_keys(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.by_o.keys().copied()
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Merges another table of the **same predicate** into this one,
    /// preserving explicit flags. Panics if the two tables share a pair —
    /// merge partners must be disjoint, so a collision means a carve
    /// invariant broke upstream.
    pub fn merge(&mut self, other: PropertyTable) {
        for (s, o) in other.pairs() {
            assert!(
                self.add(s, o),
                "merge: pair ({s:?}, {o:?}) present in both tables"
            );
        }
        for (s, o) in other.explicit_pairs() {
            self.mark_explicit(s, o);
        }
    }

    /// Fan-out of subject `s` (number of objects), 0 if absent.
    pub fn out_degree(&self, s: NodeId) -> usize {
        self.by_s.get(&s).map_or(0, FxHashSet::len)
    }

    /// Fan-in of object `o` (number of subjects), 0 if absent.
    pub fn in_degree(&self, o: NodeId) -> usize {
        self.by_o.get(&o).map_or(0, FxHashSet::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> NodeId {
        NodeId(v)
    }

    #[test]
    fn add_and_contains() {
        let mut t = PropertyTable::new();
        assert!(t.add(n(1), n(2)));
        assert!(t.contains(n(1), n(2)));
        assert!(!t.contains(n(2), n(1)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn add_is_idempotent() {
        let mut t = PropertyTable::new();
        assert!(t.add(n(1), n(2)));
        assert!(!t.add(n(1), n(2)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn both_indexes_stay_consistent() {
        let mut t = PropertyTable::new();
        t.add(n(1), n(2));
        t.add(n(1), n(3));
        t.add(n(4), n(2));
        let mut objs: Vec<_> = t.objects(n(1)).collect();
        objs.sort();
        assert_eq!(objs, vec![n(2), n(3)]);
        let mut subs: Vec<_> = t.subjects(n(2)).collect();
        subs.sort();
        assert_eq!(subs, vec![n(1), n(4)]);
        assert_eq!(t.out_degree(n(1)), 2);
        assert_eq!(t.in_degree(n(2)), 2);
        assert_eq!(t.out_degree(n(99)), 0);
    }

    #[test]
    fn pairs_enumerates_everything() {
        let mut t = PropertyTable::new();
        t.add(n(1), n(2));
        t.add(n(3), n(4));
        let mut pairs: Vec<_> = t.pairs().collect();
        pairs.sort();
        assert_eq!(pairs, vec![(n(1), n(2)), (n(3), n(4))]);
    }

    #[test]
    fn missing_keys_iterate_empty() {
        let t = PropertyTable::new();
        assert_eq!(t.objects(n(1)).count(), 0);
        assert_eq!(t.subjects(n(1)).count(), 0);
        assert!(t.is_empty());
    }

    #[test]
    fn keys() {
        let mut t = PropertyTable::new();
        t.add(n(1), n(2));
        t.add(n(1), n(3));
        assert_eq!(t.subject_keys().count(), 1);
        assert_eq!(t.object_keys().count(), 2);
    }

    #[test]
    fn remove_keeps_indexes_in_lock_step() {
        let mut t = PropertyTable::new();
        t.add(n(1), n(2));
        t.add(n(1), n(3));
        t.add(n(4), n(2));
        assert!(t.remove(n(1), n(2)));
        assert!(!t.remove(n(1), n(2)), "double remove reports absent");
        assert!(!t.contains(n(1), n(2)));
        assert_eq!(t.len(), 2);
        // The other direction survived.
        assert_eq!(t.objects(n(1)).collect::<Vec<_>>(), vec![n(3)]);
        assert_eq!(t.subjects(n(2)).collect::<Vec<_>>(), vec![n(4)]);
        // Emptied keys disappear from both key sets.
        assert!(t.remove(n(1), n(3)));
        assert!(!t.subject_keys().any(|s| s == n(1)));
        assert!(!t.object_keys().any(|o| o == n(3)));
        assert!(t.remove(n(4), n(2)));
        assert!(t.is_empty());
        assert_eq!(t.subject_keys().count(), 0);
        assert_eq!(t.object_keys().count(), 0);
    }

    #[test]
    fn explicit_flags_live_with_the_pair() {
        let mut t = PropertyTable::new();
        t.add(n(1), n(2));
        t.add(n(3), n(4));
        assert!(t.mark_explicit(n(1), n(2)));
        assert!(!t.mark_explicit(n(1), n(2)), "already flagged");
        assert!(t.is_explicit(n(1), n(2)));
        assert!(!t.is_explicit(n(3), n(4)));
        assert_eq!(t.explicit_len(), 1);
        assert_eq!(t.explicit_pairs().collect::<Vec<_>>(), vec![(n(1), n(2))]);
        // Unmark demotes without removing.
        assert!(t.unmark_explicit(n(1), n(2)));
        assert!(!t.unmark_explicit(n(1), n(2)));
        assert!(t.contains(n(1), n(2)));
        // Removal clears the flag.
        t.mark_explicit(n(1), n(2));
        assert!(t.remove(n(1), n(2)));
        assert_eq!(t.explicit_len(), 0);
    }

    #[test]
    #[should_panic(expected = "present in both tables")]
    fn merge_rejects_overlapping_tables() {
        let mut a = PropertyTable::new();
        a.add(n(1), n(2));
        let mut b = PropertyTable::new();
        b.add(n(1), n(2));
        a.merge(b);
    }
}
