//! The per-predicate table: (subject, object) pairs indexed both ways.

use slider_model::{FxHashMap, NodeId};
use std::collections::hash_map::{self, Entry};

/// All triples sharing one predicate, as a bidirectional adjacency index.
///
/// This is the unit of vertical partitioning: `by_s` answers `(p, s, ?)`,
/// `by_o` answers `(p, ?, o)`. Both indexes are kept in lock-step by
/// [`PropertyTable::insert`] and [`PropertyTable::remove`].
///
/// A pair's **explicit** flag lives beside its object in `by_s`, so
/// `explicit ⊆ pairs` holds by construction and inserting an asserted pair
/// probes `by_s` once. A key with a single neighbour keeps it inline
/// instead of in a one-element hash map; `by_o` carries no flag.
#[derive(Debug, Clone, Default)]
pub struct PropertyTable {
    by_s: FxHashMap<NodeId, Adjacent<bool>>,
    by_o: FxHashMap<NodeId, Adjacent<()>>,
    len: usize,
    explicit: usize,
}

/// The neighbours of one key, each with a flag: inline while there is one,
/// a map from two on (and back to inline when removal leaves one).
#[derive(Debug, Clone)]
enum Adjacent<F> {
    One(NodeId, F),
    Many(FxHashMap<NodeId, F>),
}

impl<F: Copy> Adjacent<F> {
    fn get(&self, x: NodeId) -> Option<F> {
        match self {
            Adjacent::One(y, f) => (*y == x).then_some(*f),
            Adjacent::Many(map) => map.get(&x).copied(),
        }
    }

    fn get_mut(&mut self, x: NodeId) -> Option<&mut F> {
        match self {
            Adjacent::One(y, f) => (*y == x).then_some(f),
            Adjacent::Many(map) => map.get_mut(&x),
        }
    }

    /// Adds `x` with flag `f`; if present, returns its flag instead.
    fn insert(&mut self, x: NodeId, f: F) -> Result<(), &mut F> {
        if let Adjacent::One(y, g) = *self {
            if y != x {
                let mut map = FxHashMap::with_capacity_and_hasher(2, Default::default());
                map.extend([(y, g), (x, f)]);
                *self = Adjacent::Many(map);
                return Ok(());
            }
        }
        match self {
            Adjacent::One(_, g) => Err(g),
            Adjacent::Many(map) => match map.entry(x) {
                Entry::Occupied(e) => Err(e.into_mut()),
                Entry::Vacant(e) => {
                    e.insert(f);
                    Ok(())
                }
            },
        }
    }

    fn len(&self) -> usize {
        match self {
            Adjacent::One(..) => 1,
            Adjacent::Many(map) => map.len(),
        }
    }

    fn iter(&self) -> Neighbours<'_, F> {
        match self {
            Adjacent::One(y, f) => Neighbours::One(Some((*y, *f))),
            Adjacent::Many(map) => Neighbours::Many(map.iter()),
        }
    }
}

/// Iterator over an [`Adjacent`]'s `(neighbour, flag)` entries.
enum Neighbours<'a, F> {
    One(Option<(NodeId, F)>),
    Many(hash_map::Iter<'a, NodeId, F>),
}

impl<F: Copy> Iterator for Neighbours<'_, F> {
    type Item = (NodeId, F);

    #[inline]
    fn next(&mut self) -> Option<(NodeId, F)> {
        match self {
            Neighbours::One(one) => one.take(),
            Neighbours::Many(iter) => iter.next().map(|(&x, &f)| (x, f)),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Neighbours::One(one) => (one.iter().len(), Some(one.iter().len())),
            Neighbours::Many(iter) => iter.size_hint(),
        }
    }
}

/// Adds `x` with flag `f` to `key`'s neighbours in `index`; if present,
/// returns its flag instead.
fn link<F: Copy>(
    index: &mut FxHashMap<NodeId, Adjacent<F>>,
    key: NodeId,
    x: NodeId,
    f: F,
) -> Result<(), &mut F> {
    match index.entry(key) {
        Entry::Occupied(e) => e.into_mut().insert(x, f),
        Entry::Vacant(e) => {
            e.insert(Adjacent::One(x, f));
            Ok(())
        }
    }
}

/// Removes `x` from `key`'s neighbours in `index`, returning its flag if it
/// was there. An emptied key is dropped, and a key left with one neighbour
/// goes back inline.
fn unlink<F: Copy>(
    index: &mut FxHashMap<NodeId, Adjacent<F>>,
    key: NodeId,
    x: NodeId,
) -> Option<F> {
    let Entry::Occupied(mut e) = index.entry(key) else {
        return None;
    };
    match e.get_mut() {
        Adjacent::One(y, f) if *y == x => {
            let f = *f;
            e.remove();
            Some(f)
        }
        Adjacent::One(..) => None,
        Adjacent::Many(map) => {
            let f = map.remove(&x)?;
            if let (1, Some((&y, &g))) = (map.len(), map.iter().next()) {
                *e.get_mut() = Adjacent::One(y, g);
            }
            Some(f)
        }
    }
}

impl PropertyTable {
    /// An empty table with both indexes.
    pub fn new() -> Self {
        PropertyTable::default()
    }

    /// Inserts the pair, flagging it explicit if `explicit`, with one probe
    /// of each index. Returns whether the pair was new, and whether its
    /// explicit flag was newly set; a present pair keeps its flag unless
    /// `explicit` sets it.
    pub fn insert(&mut self, s: NodeId, o: NodeId, explicit: bool) -> (bool, bool) {
        match link(&mut self.by_s, s, o, explicit) {
            Ok(()) => {
                let linked = link(&mut self.by_o, o, s, ());
                debug_assert!(linked.is_ok(), "indexes out of lock-step");
                self.len += 1;
                self.explicit += usize::from(explicit);
                (true, explicit)
            }
            Err(flag) => {
                let marked = explicit && !*flag;
                *flag |= explicit;
                self.explicit += usize::from(marked);
                (false, marked)
            }
        }
    }

    /// Removes the pair; returns its explicit flag if it was present.
    ///
    /// Both indexes stay in lock-step, and emptied keys are dropped so
    /// `subject_keys`/`object_keys` never report stale keys.
    pub fn remove(&mut self, s: NodeId, o: NodeId) -> Option<bool> {
        let explicit = unlink(&mut self.by_s, s, o)?;
        let unlinked = unlink(&mut self.by_o, o, s);
        debug_assert!(unlinked.is_some(), "indexes out of lock-step");
        self.len -= 1;
        self.explicit -= usize::from(explicit);
        Some(explicit)
    }

    /// Clears the explicit flag without removing the pair; returns `true`
    /// if the flag was set.
    pub fn unmark_explicit(&mut self, s: NodeId, o: NodeId) -> bool {
        let flag = self.by_s.get_mut(&s).and_then(|adj| adj.get_mut(o));
        let unmarked = flag.is_some_and(std::mem::take);
        self.explicit -= usize::from(unmarked);
        unmarked
    }

    /// The pair's explicit flag, or `None` if the pair is absent.
    pub fn explicit_flag(&self, s: NodeId, o: NodeId) -> Option<bool> {
        self.by_s.get(&s).and_then(|adj| adj.get(o))
    }

    /// True if the pair is present and explicitly asserted.
    pub fn is_explicit(&self, s: NodeId, o: NodeId) -> bool {
        self.explicit_flag(s, o) == Some(true)
    }

    /// Number of explicitly asserted pairs.
    pub fn explicit_len(&self) -> usize {
        self.explicit
    }

    /// The explicitly asserted `(s, o)` pairs (no ordering guarantee).
    pub fn explicit_pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.by_s.iter().flat_map(|(&s, adj)| {
            (adj.iter())
                .filter(|&(_, explicit)| explicit)
                .map(move |(o, _)| (s, o))
        })
    }

    /// True if the pair is present.
    pub fn contains(&self, s: NodeId, o: NodeId) -> bool {
        self.explicit_flag(s, o).is_some()
    }

    /// Objects `o` with `(s, o)` in the table.
    pub fn objects(&self, s: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.by_s
            .get(&s)
            .into_iter()
            .flat_map(|adj| adj.iter().map(|(o, _)| o))
    }

    /// Subjects `s` with `(s, o)` in the table.
    pub fn subjects(&self, o: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.by_o
            .get(&o)
            .into_iter()
            .flat_map(|adj| adj.iter().map(|(s, _)| s))
    }

    /// All `(s, o)` pairs.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (self.by_s.iter()).flat_map(|(&s, adj)| adj.iter().map(move |(o, _)| (s, o)))
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

    /// Fan-out of subject `s` (number of objects), 0 if absent.
    pub fn out_degree(&self, s: NodeId) -> usize {
        self.by_s.get(&s).map_or(0, Adjacent::len)
    }

    /// Fan-in of object `o` (number of subjects), 0 if absent.
    pub fn in_degree(&self, o: NodeId) -> usize {
        self.by_o.get(&o).map_or(0, Adjacent::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> NodeId {
        NodeId(v)
    }

    /// Whether `key`'s neighbours in `index` are kept inline.
    fn inline<F>(index: &FxHashMap<NodeId, Adjacent<F>>, key: u64) -> bool {
        matches!(index[&n(key)], Adjacent::One(..))
    }

    #[test]
    fn add_and_contains() {
        let mut t = PropertyTable::new();
        assert_eq!(t.insert(n(1), n(2), false), (true, false));
        assert!(t.contains(n(1), n(2)));
        assert!(!t.contains(n(2), n(1)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn add_is_idempotent() {
        let mut t = PropertyTable::new();
        assert_eq!(t.insert(n(1), n(2), false), (true, false));
        assert_eq!(t.insert(n(1), n(2), false), (false, false));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn both_indexes_stay_consistent() {
        let mut t = PropertyTable::new();
        t.insert(n(1), n(2), false);
        t.insert(n(1), n(3), false);
        t.insert(n(4), n(2), false);
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
        t.insert(n(1), n(2), false);
        t.insert(n(3), n(4), false);
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
        t.insert(n(1), n(2), false);
        t.insert(n(1), n(3), false);
        assert_eq!(t.subject_keys().count(), 1);
        assert_eq!(t.object_keys().count(), 2);
    }

    #[test]
    fn remove_keeps_indexes_in_lock_step() {
        let mut t = PropertyTable::new();
        t.insert(n(1), n(2), false);
        t.insert(n(1), n(3), false);
        t.insert(n(4), n(2), false);
        assert_eq!(t.remove(n(1), n(2)), Some(false));
        assert_eq!(t.remove(n(1), n(2)), None, "double remove reports absent");
        assert!(!t.contains(n(1), n(2)));
        assert_eq!(t.len(), 2);
        // The other direction survived.
        assert_eq!(t.objects(n(1)).collect::<Vec<_>>(), vec![n(3)]);
        assert_eq!(t.subjects(n(2)).collect::<Vec<_>>(), vec![n(4)]);
        // Emptied keys disappear from both key sets.
        assert!(t.remove(n(1), n(3)).is_some());
        assert!(!t.subject_keys().any(|s| s == n(1)));
        assert!(!t.object_keys().any(|o| o == n(3)));
        assert!(t.remove(n(4), n(2)).is_some());
        assert!(t.is_empty());
        assert_eq!(t.subject_keys().count(), 0);
        assert_eq!(t.object_keys().count(), 0);
    }

    #[test]
    fn explicit_flags_live_with_the_pair() {
        let mut t = PropertyTable::new();
        t.insert(n(1), n(2), false);
        t.insert(n(3), n(4), false);
        assert_eq!(t.insert(n(1), n(2), true), (false, true), "marks");
        assert_eq!(
            t.insert(n(1), n(2), true),
            (false, false),
            "already flagged"
        );
        assert_eq!(
            t.insert(n(1), n(2), false),
            (false, false),
            "keeps the flag"
        );
        assert!(t.is_explicit(n(1), n(2)));
        assert!(!t.is_explicit(n(3), n(4)));
        assert_eq!(t.explicit_len(), 1);
        assert_eq!(t.explicit_pairs().collect::<Vec<_>>(), vec![(n(1), n(2))]);
        // Unmark demotes without removing.
        assert!(t.unmark_explicit(n(1), n(2)));
        assert!(!t.unmark_explicit(n(1), n(2)));
        assert!(!t.unmark_explicit(n(9), n(9)), "absent pair");
        assert!(t.contains(n(1), n(2)));
        assert_eq!(t.explicit_len(), 0);
        // Removal clears the flag, and reports it.
        t.insert(n(1), n(2), true);
        assert_eq!(t.remove(n(1), n(2)), Some(true));
        assert_eq!(t.explicit_len(), 0);
        assert!(!t.is_explicit(n(1), n(2)));
        // A new pair inserted explicit counts at once.
        assert_eq!(t.insert(n(5), n(6), true), (true, true));
        assert_eq!((t.len(), t.explicit_len()), (2, 1));
    }

    /// A key goes from one inline neighbour to a map and back, in both
    /// indexes, and each pair keeps its own flag through every step.
    #[test]
    fn flags_survive_inline_and_map_transitions() {
        let mut t = PropertyTable::new();
        t.insert(n(1), n(2), true);
        assert!(inline(&t.by_s, 1) && inline(&t.by_o, 2));
        t.insert(n(1), n(3), false);
        t.insert(n(4), n(2), true);
        assert!(!inline(&t.by_s, 1) && !inline(&t.by_o, 2), "two neighbours");
        let mut explicit: Vec<_> = t.explicit_pairs().collect();
        explicit.sort();
        assert_eq!(explicit, vec![(n(1), n(2)), (n(4), n(2))]);
        // Many → One: each key keeps its survivor, and its flag.
        assert_eq!(t.remove(n(1), n(3)), Some(false));
        assert!(inline(&t.by_s, 1));
        assert!(t.is_explicit(n(1), n(2)));
        assert_eq!(t.remove(n(1), n(2)), Some(true));
        assert!(!t.by_s.contains_key(&n(1)));
        assert!(inline(&t.by_o, 2));
        assert_eq!(t.subjects(n(2)).collect::<Vec<_>>(), vec![n(4)]);
        // One → Many again, then a flag set and cleared inside the map.
        t.insert(n(4), n(7), false);
        assert!(!inline(&t.by_s, 4));
        assert_eq!(t.insert(n(4), n(7), true), (false, true));
        assert!(t.unmark_explicit(n(4), n(2)));
        assert_eq!(t.explicit_pairs().collect::<Vec<_>>(), vec![(n(4), n(7))]);
        assert_eq!((t.len(), t.explicit_len()), (2, 1));
        assert_eq!(t.remove(n(4), n(7)), Some(true));
        assert!(inline(&t.by_s, 4));
        assert_eq!((t.len(), t.explicit_len()), (1, 0));
    }
}
