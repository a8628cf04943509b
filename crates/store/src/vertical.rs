//! The single-threaded vertically partitioned store.

use crate::pattern::TriplePattern;
use crate::table::PropertyTable;
use slider_model::{FxHashMap, NodeId, Triple};
use std::sync::Arc;

/// An in-memory triple store, vertically partitioned by predicate.
///
/// Insertion is idempotent (duplicate triples are detected and rejected),
/// and every rule-relevant access pattern is a hash lookup — see the crate
/// docs for the index rationale.
///
/// ## Provenance
///
/// The store tracks a per-triple provenance flag: a triple is **explicit**
/// if it was asserted through one of the `*_explicit` insertion paths (the
/// reasoner's input manager uses these for raw input), and **derived**
/// otherwise (rule conclusions use plain [`VerticalStore::insert`]). The
/// flag is what truth maintenance needs: retracting an assertion may only
/// delete derived consequences — explicit facts survive on their own
/// authority and are only deleted when themselves retracted.
///
/// ## Copy-on-write tables
///
/// Each partition lives behind an [`Arc`], so **`Clone` is O(#predicates)**
/// (reference bumps, no triple copies). A mutation on a shared table
/// ([`Arc::make_mut`]) deep-clones that one table first — the mechanism the
/// concurrent store's epoch snapshots are built on: an epoch *is* a clone
/// of the store, so building one is cheap, and a table written while an
/// epoch shares it pays one copy on its first write.
#[derive(Debug, Clone, Default)]
pub struct VerticalStore {
    tables: FxHashMap<NodeId, Arc<PropertyTable>>,
    len: usize,
    /// Number of explicitly asserted triples. The flags themselves live in
    /// the per-predicate tables (`explicit ⊆ store` always holds: removal
    /// clears the flag, and marking inserts the triple).
    explicit_len: usize,
}

/// Summary statistics of a store (used by the demo player and reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Total number of distinct triples (`explicit + derived`).
    pub triples: usize,
    /// Triples asserted through the explicit insertion paths
    /// ([`VerticalStore::insert_explicit`] and friends) and not since
    /// retracted. Stores fed only through plain [`VerticalStore::insert`]
    /// (e.g. the batch baselines) report 0 here.
    pub explicit: usize,
    /// Triples present but not explicit — rule conclusions (or plain
    /// inserts). Always `triples - explicit`.
    pub derived: usize,
    /// Number of distinct predicates (= vertical partitions).
    pub predicates: usize,
    /// Size of the largest partition.
    pub largest_partition: usize,
}

impl VerticalStore {
    /// An empty store.
    pub fn new() -> Self {
        VerticalStore::default()
    }

    /// Inserts `t`; returns `true` if it was new.
    pub fn insert(&mut self, t: Triple) -> bool {
        let tab = self.tables.entry(t.p).or_default();
        // Duplicate check before `make_mut`: a no-op insert must not force
        // a copy-on-write clone of a snapshot-shared table.
        if tab.contains(t.s, t.o) {
            return false;
        }
        Arc::make_mut(tab).add(t.s, t.o);
        self.len += 1;
        true
    }

    /// Inserts a batch, appending the *new* triples to `fresh`.
    /// Returns how many were new.
    pub fn insert_batch(&mut self, triples: &[Triple], fresh: &mut Vec<Triple>) -> usize {
        let before = fresh.len();
        for &t in triples {
            if self.insert(t) {
                fresh.push(t);
            }
        }
        fresh.len() - before
    }

    /// Inserts `t` and marks it **explicit** (asserted). Returns `true` if
    /// the triple was new to the store — a triple already present as
    /// derived is *not* new (it changes provenance only).
    pub fn insert_explicit(&mut self, t: Triple) -> bool {
        let inserted = self.insert(t);
        // The table exists after `insert` even when the triple was a
        // duplicate. Flag check before `make_mut`, as in `insert`.
        let tab = self
            .tables
            .get_mut(&t.p)
            .expect("insert created the partition");
        if !tab.is_explicit(t.s, t.o) {
            Arc::make_mut(tab).mark_explicit(t.s, t.o);
            self.explicit_len += 1;
        }
        inserted
    }

    /// Explicit-marking [`VerticalStore::insert_batch`]: inserts a batch as
    /// asserted facts, appending the *new* triples to `fresh`.
    pub fn insert_batch_explicit(&mut self, triples: &[Triple], fresh: &mut Vec<Triple>) -> usize {
        let before = fresh.len();
        for &t in triples {
            if self.insert_explicit(t) {
                fresh.push(t);
            }
        }
        fresh.len() - before
    }

    /// Removes `t` (and its explicit flag, if any); returns `true` if it
    /// was present. Emptied partitions are dropped so `predicates()` never
    /// reports a predicate with zero triples.
    pub fn remove(&mut self, t: Triple) -> bool {
        let Some(tab) = self.tables.get_mut(&t.p) else {
            return false;
        };
        // Presence check before `make_mut`: an absent triple must not force
        // a copy-on-write clone of a snapshot-shared table.
        if !tab.contains(t.s, t.o) {
            return false;
        }
        let was_explicit = tab.is_explicit(t.s, t.o);
        Arc::make_mut(tab).remove(t.s, t.o);
        if tab.is_empty() {
            self.tables.remove(&t.p);
        }
        self.len -= 1;
        if was_explicit {
            self.explicit_len -= 1;
        }
        true
    }

    /// Removes a batch, appending the triples that were actually present
    /// to `removed`. Returns how many were present.
    pub fn remove_batch(&mut self, triples: &[Triple], removed: &mut Vec<Triple>) -> usize {
        let before = removed.len();
        for &t in triples {
            if self.remove(t) {
                removed.push(t);
            }
        }
        removed.len() - before
    }

    /// True if `t` is present *and* explicitly asserted.
    pub fn is_explicit(&self, t: Triple) -> bool {
        self.tables
            .get(&t.p)
            .is_some_and(|tab| tab.is_explicit(t.s, t.o))
    }

    /// Clears the explicit flag of `t` without removing the triple
    /// (demotes an assertion to a derived fact). Returns `true` if the
    /// flag was set. Truth maintenance uses this as the first step of a
    /// retraction: the triple then lives or dies by rederivability alone.
    pub fn unmark_explicit(&mut self, t: Triple) -> bool {
        let Some(tab) = self.tables.get_mut(&t.p) else {
            return false;
        };
        if !tab.is_explicit(t.s, t.o) {
            return false;
        }
        Arc::make_mut(tab).unmark_explicit(t.s, t.o);
        self.explicit_len -= 1;
        true
    }

    /// Number of explicitly asserted triples.
    pub fn explicit_count(&self) -> usize {
        self.explicit_len
    }

    /// Number of derived (non-explicit) triples.
    pub fn derived_count(&self) -> usize {
        self.len - self.explicit_len
    }

    /// Iterates over the explicitly asserted triples (no ordering
    /// guarantee).
    pub fn explicit_iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.tables
            .iter()
            .flat_map(|(&p, tab)| tab.explicit_pairs().map(move |(s, o)| Triple::new(s, p, o)))
    }

    /// True if `t` is present.
    pub fn contains(&self, t: Triple) -> bool {
        self.tables
            .get(&t.p)
            .is_some_and(|tab| tab.contains(t.s, t.o))
    }

    /// Total number of triples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The partition for predicate `p`, if any triple uses it.
    pub fn table(&self, p: NodeId) -> Option<&PropertyTable> {
        self.tables.get(&p).map(|tab| &**tab)
    }

    /// Iterates over every partition as a `(predicate, table)` pair (no
    /// ordering guarantee).
    pub fn tables(&self) -> impl Iterator<Item = (NodeId, &PropertyTable)> + '_ {
        self.tables.iter().map(|(&p, tab)| (p, &**tab))
    }

    /// Objects `o` such that `(s, p, o)` holds — the `(p, s, ?)` pattern.
    pub fn objects_with(&self, p: NodeId, s: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.tables
            .get(&p)
            .into_iter()
            .flat_map(move |t| t.objects(s))
    }

    /// Subjects `s` such that `(s, p, o)` holds — the `(p, ?, o)` pattern.
    pub fn subjects_with(&self, p: NodeId, o: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.tables
            .get(&p)
            .into_iter()
            .flat_map(move |t| t.subjects(o))
    }

    /// All `(s, o)` pairs for predicate `p` — the `(p, ?, ?)` pattern.
    pub fn pairs(&self, p: NodeId) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.tables.get(&p).into_iter().flat_map(|tab| tab.pairs())
    }

    /// Distinct predicates in use.
    pub fn predicates(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.tables.keys().copied()
    }

    /// Iterates over every triple (no ordering guarantee).
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.tables
            .iter()
            .flat_map(|(&p, tab)| tab.pairs().map(move |(s, o)| Triple::new(s, p, o)))
    }

    /// All triples matching `pattern`, routed through the best index. A
    /// bound predicate resolves in its own table; an unbound one probes
    /// every table the same way — by subject if `s` is bound, by object if
    /// only `o` is — so only the all-unbound pattern walks every triple.
    pub fn matches(&self, pattern: TriplePattern) -> Vec<Triple> {
        let mut out = Vec::new();
        match pattern.p {
            Some(p) => {
                if let Some(tab) = self.tables.get(&p) {
                    match_table(p, tab, pattern, &mut out);
                }
            }
            None => {
                for (&p, tab) in &self.tables {
                    match_table(p, tab, pattern, &mut out);
                }
            }
        }
        out
    }

    /// Number of triples with predicate `p`.
    pub fn count_with_p(&self, p: NodeId) -> usize {
        self.tables.get(&p).map_or(0, |tab| tab.len())
    }

    /// Store statistics.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            triples: self.len,
            explicit: self.explicit_len,
            derived: self.len - self.explicit_len,
            predicates: self.tables.len(),
            largest_partition: self.tables.values().map(|tab| tab.len()).max().unwrap_or(0),
        }
    }

    /// All triples, sorted — for deterministic comparisons in tests.
    pub fn to_sorted_vec(&self) -> Vec<Triple> {
        let mut v: Vec<Triple> = self.iter().collect();
        v.sort_unstable();
        v
    }
}

/// Appends the triples of predicate `p`'s table matching `pattern`'s
/// subject and object to `out`.
fn match_table(p: NodeId, tab: &PropertyTable, pattern: TriplePattern, out: &mut Vec<Triple>) {
    match (pattern.s, pattern.o) {
        (Some(s), Some(o)) => {
            if tab.contains(s, o) {
                out.push(Triple::new(s, p, o));
            }
        }
        (Some(s), None) => out.extend(tab.objects(s).map(|o| Triple::new(s, p, o))),
        (None, Some(o)) => out.extend(tab.subjects(o).map(|s| Triple::new(s, p, o))),
        (None, None) => out.extend(tab.pairs().map(|(s, o)| Triple::new(s, p, o))),
    }
}

impl FromIterator<Triple> for VerticalStore {
    fn from_iter<I: IntoIterator<Item = Triple>>(iter: I) -> Self {
        let mut store = VerticalStore::new();
        for t in iter {
            store.insert(t);
        }
        store
    }
}

impl Extend<Triple> for VerticalStore {
    fn extend<I: IntoIterator<Item = Triple>>(&mut self, iter: I) {
        for t in iter {
            self.insert(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64, p: u64, o: u64) -> Triple {
        Triple::new(NodeId(s), NodeId(p), NodeId(o))
    }

    #[test]
    fn insert_and_contains() {
        let mut st = VerticalStore::new();
        assert!(st.insert(t(1, 2, 3)));
        assert!(st.contains(t(1, 2, 3)));
        assert!(!st.contains(t(3, 2, 1)));
        assert_eq!(st.len(), 1);
    }

    #[test]
    fn duplicate_rejected() {
        let mut st = VerticalStore::new();
        assert!(st.insert(t(1, 2, 3)));
        assert!(!st.insert(t(1, 2, 3)));
        assert_eq!(st.len(), 1);
    }

    #[test]
    fn insert_batch_reports_fresh_only() {
        let mut st = VerticalStore::new();
        st.insert(t(1, 2, 3));
        let mut fresh = Vec::new();
        let n = st.insert_batch(
            &[t(1, 2, 3), t(4, 2, 3), t(4, 2, 3), t(5, 6, 7)],
            &mut fresh,
        );
        assert_eq!(n, 2);
        assert_eq!(fresh, vec![t(4, 2, 3), t(5, 6, 7)]);
        assert_eq!(st.len(), 3);
    }

    #[test]
    fn indexed_accessors() {
        let mut st = VerticalStore::new();
        st.insert(t(1, 10, 2));
        st.insert(t(1, 10, 3));
        st.insert(t(4, 10, 2));
        st.insert(t(1, 20, 2));
        let mut objs: Vec<_> = st.objects_with(NodeId(10), NodeId(1)).collect();
        objs.sort();
        assert_eq!(objs, vec![NodeId(2), NodeId(3)]);
        let mut subs: Vec<_> = st.subjects_with(NodeId(10), NodeId(2)).collect();
        subs.sort();
        assert_eq!(subs, vec![NodeId(1), NodeId(4)]);
        assert_eq!(st.pairs(NodeId(10)).count(), 3);
        assert_eq!(st.pairs(NodeId(99)).count(), 0);
        assert_eq!(st.count_with_p(NodeId(20)), 1);
    }

    #[test]
    fn iter_covers_all_partitions() {
        let mut st = VerticalStore::new();
        st.insert(t(1, 10, 2));
        st.insert(t(1, 20, 2));
        st.insert(t(3, 30, 4));
        assert_eq!(st.iter().count(), 3);
        assert_eq!(st.predicates().count(), 3);
    }

    /// `matches` must agree with a brute-force scan for every pattern
    /// shape, bound and unbound predicate alike.
    #[test]
    fn matches_agrees_with_reference() {
        let triples = [
            t(1, 10, 2),
            t(1, 10, 3),
            t(4, 10, 2),
            t(1, 20, 2),
            t(5, 20, 6),
            t(2, 30, 1),
        ];
        let ids: Vec<Option<NodeId>> = vec![
            None,
            Some(NodeId(1)),
            Some(NodeId(10)),
            Some(NodeId(2)),
            Some(NodeId(99)),
        ];
        let st: VerticalStore = triples.into_iter().collect();
        for &s in &ids {
            for &p in &ids {
                for &o in &ids {
                    let pat = TriplePattern::new(s, p, o);
                    let mut got = st.matches(pat);
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
    fn stats() {
        let mut st = VerticalStore::new();
        st.insert_explicit(t(1, 10, 2));
        st.insert(t(2, 10, 3));
        st.insert(t(1, 20, 2));
        let s = st.stats();
        assert_eq!(s.triples, 3);
        assert_eq!(s.explicit, 1);
        assert_eq!(s.derived, 2);
        assert_eq!(s.predicates, 2);
        assert_eq!(s.largest_partition, 2);
    }

    #[test]
    fn remove_and_repartition() {
        let mut st = VerticalStore::new();
        st.insert(t(1, 10, 2));
        st.insert(t(1, 10, 3));
        st.insert(t(4, 20, 5));
        assert!(st.remove(t(1, 10, 2)));
        assert!(!st.remove(t(1, 10, 2)), "double remove reports absent");
        assert!(!st.remove(t(9, 99, 9)), "unknown predicate is a no-op");
        assert_eq!(st.len(), 2);
        assert!(!st.contains(t(1, 10, 2)));
        assert!(st.contains(t(1, 10, 3)));
        // Removing the last triple of a partition drops the partition.
        assert!(st.remove(t(4, 20, 5)));
        assert_eq!(st.predicates().count(), 1);
        assert_eq!(st.count_with_p(NodeId(20)), 0);
        // Re-insert after removal works.
        assert!(st.insert(t(4, 20, 5)));
        assert_eq!(st.predicates().count(), 2);
    }

    #[test]
    fn remove_batch_reports_present_only() {
        let mut st = VerticalStore::new();
        st.insert(t(1, 2, 3));
        st.insert(t(4, 2, 3));
        let mut removed = Vec::new();
        let n = st.remove_batch(&[t(1, 2, 3), t(9, 9, 9), t(1, 2, 3)], &mut removed);
        assert_eq!(n, 1);
        assert_eq!(removed, vec![t(1, 2, 3)]);
        assert_eq!(st.len(), 1);
    }

    #[test]
    fn provenance_flags() {
        let mut st = VerticalStore::new();
        // Derived first, then asserted: not "new", but flagged.
        assert!(st.insert(t(1, 2, 3)));
        assert!(!st.is_explicit(t(1, 2, 3)));
        assert!(!st.insert_explicit(t(1, 2, 3)));
        assert!(st.is_explicit(t(1, 2, 3)));
        assert_eq!(st.explicit_count(), 1);
        assert_eq!(st.derived_count(), 0);
        // Unmarking demotes without removing.
        assert!(st.unmark_explicit(t(1, 2, 3)));
        assert!(!st.unmark_explicit(t(1, 2, 3)));
        assert!(st.contains(t(1, 2, 3)));
        assert_eq!(st.derived_count(), 1);
        // Removal clears the flag too.
        let mut fresh = Vec::new();
        st.insert_batch_explicit(&[t(4, 5, 6)], &mut fresh);
        assert_eq!(fresh, vec![t(4, 5, 6)]);
        assert!(st.remove(t(4, 5, 6)));
        assert!(!st.is_explicit(t(4, 5, 6)));
        assert_eq!(st.explicit_iter().count(), 0);
    }

    #[test]
    fn sorted_vec_is_deterministic() {
        let st1: VerticalStore = [t(3, 1, 1), t(1, 1, 1), t(2, 1, 1)].into_iter().collect();
        let st2: VerticalStore = [t(1, 1, 1), t(2, 1, 1), t(3, 1, 1)].into_iter().collect();
        assert_eq!(st1.to_sorted_vec(), st2.to_sorted_vec());
    }

    #[test]
    fn extend_trait() {
        let mut st = VerticalStore::new();
        st.extend([t(1, 2, 3), t(4, 5, 6)]);
        assert_eq!(st.len(), 2);
    }

    /// The copy-on-write contract behind epoch snapshots: a clone is an
    /// immutable image — every later mutation of the original (insert,
    /// remove, provenance demotion) is invisible to it.
    #[test]
    fn clone_is_an_isolated_snapshot() {
        let mut st = VerticalStore::new();
        st.insert_explicit(t(1, 10, 2));
        st.insert(t(3, 20, 4));
        let snap = st.clone();
        st.insert(t(5, 10, 6));
        st.remove(t(3, 20, 4));
        st.unmark_explicit(t(1, 10, 2));
        assert!(snap.contains(t(3, 20, 4)));
        assert!(!snap.contains(t(5, 10, 6)));
        assert!(snap.is_explicit(t(1, 10, 2)));
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.explicit_count(), 1);
        // And mutations of the clone do not leak back.
        let mut snap = snap;
        snap.remove(t(1, 10, 2));
        assert!(st.contains(t(1, 10, 2)));
    }
}
