//! The semi-naive batch materialiser (delta-driven), also the test oracle.

use crate::BatchStats;
use slider_model::Triple;
use slider_rules::Ruleset;
use slider_store::VerticalStore;

/// Batch reasoner that applies rules only to the previous round's delta.
///
/// Classic semi-naive evaluation: round *k* joins the triples discovered in
/// round *k−1* against the full store (both directions — the rules
/// implement paper Algorithm 1), so each conclusion is derived from a given
/// premise pair at most a constant number of times. Single-threaded and
/// deliberately simple; used as the correctness oracle throughout the test
/// suite.
pub struct SemiNaiveReasoner {
    ruleset: Ruleset,
    store: VerticalStore,
    stats: BatchStats,
}

impl SemiNaiveReasoner {
    /// Creates a reasoner over `ruleset` with an empty store.
    pub fn new(ruleset: Ruleset) -> Self {
        SemiNaiveReasoner {
            ruleset,
            store: VerticalStore::new(),
            stats: BatchStats::default(),
        }
    }

    /// Inserts `triples` and runs delta-driven rounds to fixpoint.
    ///
    /// Can be called repeatedly: each call incrementally extends the
    /// closure (this is what makes it a fair oracle for Slider's
    /// incremental mode).
    pub fn materialize_all(&mut self, triples: &[Triple]) -> BatchStats {
        let mut delta = Vec::new();
        self.store.insert_batch(triples, &mut delta);
        let mut out = Vec::new();
        while !delta.is_empty() {
            self.stats.rounds += 1;
            out.clear();
            for rule in self.ruleset.rules() {
                rule.apply(&self.store, &delta, &mut out);
            }
            self.stats.derived += out.len();
            delta.clear();
            let inserted = self.store.insert_batch(&out, &mut delta);
            self.stats.inserted += inserted;
        }
        self.stats
    }

    /// The materialised store.
    pub fn store(&self) -> &VerticalStore {
        &self.store
    }

    /// Statistics of the run so far.
    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    /// Consumes the reasoner, returning the store.
    pub fn into_store(self) -> VerticalStore {
        self.store
    }
}

/// Computes the closure of `triples` under `ruleset` — the one-line oracle
/// used by integration and property tests.
pub fn closure(ruleset: Ruleset, triples: &[Triple]) -> VerticalStore {
    let mut r = SemiNaiveReasoner::new(ruleset);
    r.materialize_all(triples);
    r.into_store()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NaiveReasoner;
    use slider_model::vocab::{RDFS_DOMAIN, RDFS_SUB_CLASS_OF, RDFS_SUB_PROPERTY_OF, RDF_TYPE};
    use slider_model::NodeId;

    fn n(v: u64) -> NodeId {
        NodeId(1000 + v)
    }
    fn sco(a: u64, b: u64) -> Triple {
        Triple::new(n(a), RDFS_SUB_CLASS_OF, n(b))
    }
    fn ty(a: u64, b: u64) -> Triple {
        Triple::new(n(a), RDF_TYPE, n(b))
    }

    #[test]
    fn agrees_with_naive_on_chains() {
        let input: Vec<Triple> = (1..30).map(|i| sco(i, i + 1)).collect();
        let semi = closure(Ruleset::rho_df(), &input);
        let mut naive = NaiveReasoner::new(Ruleset::rho_df());
        naive.materialize_all(&input);
        assert_eq!(semi.to_sorted_vec(), naive.store().to_sorted_vec());
    }

    #[test]
    fn agrees_with_naive_on_mixed_schema() {
        let input = vec![
            sco(1, 2),
            sco(2, 3),
            ty(9, 1),
            Triple::new(n(5), RDFS_SUB_PROPERTY_OF, n(6)),
            Triple::new(n(6), RDFS_DOMAIN, n(2)),
            Triple::new(n(7), n(5), n(8)),
        ];
        let semi = closure(Ruleset::rho_df(), &input);
        let mut naive = NaiveReasoner::new(Ruleset::rho_df());
        naive.materialize_all(&input);
        assert_eq!(semi.to_sorted_vec(), naive.store().to_sorted_vec());
        // Spot-check the interesting derivation: (7 n5 8) → spo → (7 n6 8)
        // → domain n2 → (7 type 2) → sco → (7 type 3).
        assert!(semi.contains(ty(7, 2)));
        assert!(semi.contains(ty(7, 3)));
    }

    #[test]
    fn semi_naive_derives_less_than_naive() {
        let input: Vec<Triple> = (1..40).map(|i| sco(i, i + 1)).collect();
        let mut semi = SemiNaiveReasoner::new(Ruleset::rho_df());
        let s = semi.materialize_all(&input);
        let mut naive = NaiveReasoner::new(Ruleset::rho_df());
        let nv = naive.materialize_all(&input);
        assert_eq!(semi.store().len(), naive.store().len());
        assert!(
            s.derived < nv.derived,
            "semi-naive {} !< naive {}",
            s.derived,
            nv.derived
        );
    }

    #[test]
    fn incremental_calls_reach_batch_closure() {
        let input: Vec<Triple> = (1..25).map(|i| sco(i, i + 1)).collect();
        // Batch.
        let batch = closure(Ruleset::rho_df(), &input);
        // Three increments, interleaved order.
        let mut inc = SemiNaiveReasoner::new(Ruleset::rho_df());
        for chunk in input.chunks(7) {
            inc.materialize_all(chunk);
        }
        assert_eq!(batch.to_sorted_vec(), inc.store().to_sorted_vec());
    }

    #[test]
    fn empty_input() {
        let st = closure(Ruleset::rho_df(), &[]);
        assert!(st.is_empty());
    }
}
