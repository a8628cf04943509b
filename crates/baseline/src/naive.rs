//! The naive batch materialiser.

use crate::BatchStats;
use slider_model::Triple;
use slider_rules::Ruleset;
use slider_store::VerticalStore;

/// Batch reasoner that re-derives **everything** each round.
///
/// Every fixpoint round snapshots the current store contents and hands the
/// whole snapshot to every rule as its "delta". All conclusions — new and
/// duplicate — are re-derived each round; only the store's idempotent
/// insert keeps the closure finite. This is the batch-processing régime the
/// paper positions Slider against.
pub struct NaiveReasoner {
    ruleset: Ruleset,
    store: VerticalStore,
    stats: BatchStats,
}

impl NaiveReasoner {
    /// Creates a reasoner over `ruleset` with an empty store.
    pub fn new(ruleset: Ruleset) -> Self {
        NaiveReasoner {
            ruleset,
            store: VerticalStore::new(),
            stats: BatchStats::default(),
        }
    }

    /// Adds input triples (no inference yet).
    pub fn load(&mut self, triples: &[Triple]) {
        for &t in triples {
            self.store.insert(t);
        }
    }

    /// Runs rules over the full store until a round derives nothing new.
    pub fn materialize(&mut self) -> BatchStats {
        let mut out = Vec::new();
        loop {
            self.stats.rounds += 1;
            // Snapshot: rules must not observe triples inserted this round,
            // otherwise a round is not a well-defined batch iteration.
            let snapshot: Vec<Triple> = self.store.iter().collect();
            out.clear();
            for rule in self.ruleset.rules() {
                rule.apply(&self.store, &snapshot, &mut out);
            }
            self.stats.derived += out.len();
            let mut fresh = Vec::new();
            let inserted = self.store.insert_batch(&out, &mut fresh);
            self.stats.inserted += inserted;
            if inserted == 0 {
                return self.stats;
            }
        }
    }

    /// `load` + `materialize` in one call.
    pub fn materialize_all(&mut self, triples: &[Triple]) -> BatchStats {
        self.load(triples);
        self.materialize()
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

#[cfg(test)]
mod tests {
    use super::*;
    use slider_model::vocab::{RDFS_SUB_CLASS_OF, RDF_TYPE};
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
    fn chain_closure_size() {
        // Chain 1→2→…→k: closure has k(k-1)/2 subClassOf triples.
        let k = 20;
        let input: Vec<Triple> = (1..k).map(|i| sco(i, i + 1)).collect();
        let mut r = NaiveReasoner::new(Ruleset::rho_df());
        r.materialize_all(&input);
        let expected = (k * (k - 1) / 2) as usize;
        assert_eq!(r.store().count_with_p(RDFS_SUB_CLASS_OF), expected);
    }

    #[test]
    fn instance_typing_propagates() {
        let mut r = NaiveReasoner::new(Ruleset::rho_df());
        r.materialize_all(&[sco(1, 2), sco(2, 3), ty(9, 1)]);
        for c in [1, 2, 3] {
            assert!(r.store().contains(ty(9, c)), "missing type {c}");
        }
    }

    #[test]
    fn naive_rederives_duplicates_every_round() {
        let k = 10;
        let input: Vec<Triple> = (1..k).map(|i| sco(i, i + 1)).collect();
        let mut r = NaiveReasoner::new(Ruleset::rho_df());
        let stats = r.materialize_all(&input);
        // The duplicate-limitation motivation: naive derivations far exceed
        // unique insertions.
        assert!(stats.derived > 2 * stats.inserted, "{stats:?}");
        assert!(stats.rounds >= 3, "{stats:?}");
    }

    #[test]
    fn empty_input_terminates_immediately() {
        let mut r = NaiveReasoner::new(Ruleset::rho_df());
        let stats = r.materialize();
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.inserted, 0);
        assert!(r.store().is_empty());
    }

    #[test]
    fn idempotent_rerun() {
        let mut r = NaiveReasoner::new(Ruleset::rho_df());
        r.materialize_all(&[sco(1, 2), sco(2, 3)]);
        let len = r.store().len();
        r.materialize();
        assert_eq!(r.store().len(), len);
    }
}
