//! Tests of the read view: what a reader sees through a published epoch.
//!
//! An [`EpochSnapshot`](crate::EpochSnapshot) dereferences to a
//! [`VerticalStore`], so every query a rule or a caller makes on an epoch
//! runs the same accessors as on a plain store. These tests pin that the
//! epoch answers them exactly as the store it was published from.

mod tests {
    use crate::{ShardedStore, TriplePattern, VerticalStore};
    use slider_model::{NodeId, Triple};

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

    /// `matches` on an epoch snapshot agrees with a brute-force scan for
    /// every pattern shape, including the unbound-predicate full walk.
    #[test]
    fn snapshot_matches_agrees_with_reference() {
        let triples = sample();
        let shared = ShardedStore::from_store(triples.iter().copied().collect());
        let snap = shared.snapshot();
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
                    let mut got = snap.matches(pat);
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
        assert!(plain.is_explicit(t(1, 10, 2)));
        assert!(!plain.is_explicit(t(3, 10, 4)));
        let shared = ShardedStore::from_store(plain);
        let snap = shared.snapshot();
        assert!(snap.is_explicit(t(1, 10, 2)));
        assert!(!snap.is_explicit(t(3, 10, 4)));
    }
}
