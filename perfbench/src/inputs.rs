//! The four workloads' inputs, made from the seed alone.
//!
//! Sizes are set for the engine as it stands at the commit that added the
//! benchmark (its ingest path is quadratic in the store size); they change
//! only in a change whose sole purpose is the benchmark.

use crate::measure::{fnv1a, FNV_OFFSET};
use slider_baseline::RecomputeOracle;
use slider_model::vocab::RDFS_NS;
use slider_model::{Dictionary, NodeId, TermTriple, Triple};
use slider_rules::{Fragment, Ruleset};
use slider_workloads::bsbm::{self, BsbmConfig};
use slider_workloads::stream::SlidingWindow;
use slider_workloads::wikipedia::{self, WikipediaConfig};
use slider_workloads::{chains, encode_all, to_ntriples};
use std::sync::Arc;
use std::time::Duration;

pub const DEFAULT_SEED: u64 = 42;

/// `bsbm_load`: BSBM-shaped triples in the N-Triples text.
pub const BSBM_LOAD_TRIPLES: usize = 25_000;
/// `chain_closure`: length of the `subClassOf` chain (paper Equation 1).
pub const CHAIN_LENGTH: usize = 500;
/// `window_rdfs`: BSBM-shaped stream size, batch size and window length.
pub const WINDOW_STREAM_TRIPLES: usize = 150_000;
pub const WINDOW_BATCH: usize = 500;
pub const WINDOW_BATCHES: usize = 16;
/// `wiki_ingest_query`: Wikipedia-shaped triples, batch and query block.
pub const WIKI_TRIPLES: usize = 30_000;
pub const WIKI_BATCH: usize = 500;
pub const QUERY_BLOCK: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BsbmLoad,
    ChainClosure,
    WindowRdfs,
    WikiIngestQuery,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BsbmLoad,
        Workload::ChainClosure,
        Workload::WindowRdfs,
        Workload::WikiIngestQuery,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BsbmLoad => "bsbm_load",
            Workload::ChainClosure => "chain_closure",
            Workload::WindowRdfs => "window_rdfs",
            Workload::WikiIngestQuery => "wiki_ingest_query",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn fragment(self) -> Fragment {
        match self {
            Workload::BsbmLoad | Workload::ChainClosure => Fragment::RhoDf,
            Workload::WindowRdfs | Workload::WikiIngestQuery => Fragment::Rdfs,
        }
    }

    /// Input digest `(triples, FNV-1a of the N-Triples text)` at
    /// [`DEFAULT_SEED`]. A run at the default seed whose digest differs
    /// fails: a change to `slider-workloads` must not shift the baseline
    /// unnoticed.
    pub fn pinned_digest(self) -> (usize, u64) {
        match self {
            Workload::BsbmLoad => (25_011, 0x119d_da52_ebe7_fb49),
            Workload::ChainClosure => (999, 0xd318_5c5f_b243_1171),
            Workload::WindowRdfs => (150_015, 0xfe54_721f_bccd_bc53),
            Workload::WikiIngestQuery => (30_004, 0xc706_53b4_797b_bdb5),
        }
    }
}

/// One query of a block; see [`Shape::Ingest`].
#[derive(Debug, Clone, Copy)]
pub enum Query {
    /// `matches` with only the subject bound.
    Subject(NodeId),
    /// `contains` of one triple.
    Contains(Triple),
}

/// What the scenario does with the input, beyond the shared fields.
pub enum Shape {
    /// The N-Triples text is parsed, interned and added in chunks.
    Load,
    /// `tbox` is resident; `window` slides the A-Box over it.
    Window {
        tbox: Vec<TermTriple>,
        window: SlidingWindow,
    },
    /// Pre-encoded batches, each followed by one block of queries whose
    /// keys come from triples already fed.
    Ingest {
        batches: Vec<Vec<Triple>>,
        queries: Vec<Vec<Query>>,
    },
}

pub struct Input {
    pub workload: Workload,
    /// N-Triples text of every generated triple: what the load workloads
    /// parse, and what the digest of every workload is taken over.
    pub text: String,
    /// Dictionary in which `resident` and the batches are expressed. Closures are compared in
    /// its id space; the ingest workload's engines share it.
    pub dict: Arc<Dictionary>,
    /// The explicit triples resident when a repetition ends.
    pub resident: Vec<Triple>,
    pub triples: usize,
    pub fnv: u64,
    pub shape: Shape,
}

fn is_tbox(t: &TermTriple) -> bool {
    t.1.as_iri()
        .and_then(|p| p.strip_prefix(RDFS_NS))
        .is_some_and(|local| matches!(local, "subClassOf" | "subPropertyOf" | "domain" | "range"))
}

/// Linear congruential generator (Knuth's MMIX constants) for query keys.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) as usize) % n
    }
}

/// One block per batch. Half the queries bind a subject already fed; a
/// quarter ask for a triple already fed (a hit) and a quarter for the
/// subject and predicate of one fed triple with the object of another
/// (mostly a miss), so that the hit count says something.
fn query_blocks(batches: &[Vec<Triple>], seed: u64) -> Vec<Vec<Query>> {
    let fed: Vec<Triple> = batches.iter().flatten().copied().collect();
    let mut lcg = Lcg(seed);
    let mut visible = 0;
    batches
        .iter()
        .map(|batch| {
            visible += batch.len();
            (0..QUERY_BLOCK)
                .map(|i| {
                    let t = fed[lcg.below(visible)];
                    match i % 4 {
                        0 | 1 => Query::Subject(t.s),
                        2 => Query::Contains(t),
                        _ => Query::Contains(Triple::new(t.s, t.p, fed[lcg.below(visible)].o)),
                    }
                })
                .collect()
        })
        .collect()
}

/// Generates `workload`'s input from `seed`. Everything here is set-up:
/// it runs before the clock starts and is timed as `setup_s`.
pub fn generate(workload: Workload, seed: u64) -> Input {
    let terms: Vec<TermTriple> = match workload {
        Workload::BsbmLoad => bsbm::generate(&BsbmConfig {
            target_triples: BSBM_LOAD_TRIPLES,
            seed,
        }),
        // Equation 1 has no random part: this input is the same for every seed.
        Workload::ChainClosure => chains::subclass_chain(CHAIN_LENGTH),
        Workload::WindowRdfs => bsbm::generate(&BsbmConfig {
            target_triples: WINDOW_STREAM_TRIPLES,
            seed,
        }),
        Workload::WikiIngestQuery => wikipedia::generate(&WikipediaConfig {
            target_triples: WIKI_TRIPLES,
            seed,
        }),
    };
    let text = to_ntriples(&terms);
    let fnv = fnv1a(FNV_OFFSET, text.as_bytes());
    let dict = Arc::new(Dictionary::new());
    let triples = terms.len();

    let (shape, resident) = match workload {
        Workload::BsbmLoad | Workload::ChainClosure => (Shape::Load, encode_all(&terms, &dict)),
        Workload::WindowRdfs => {
            let (tbox, abox): (Vec<TermTriple>, Vec<TermTriple>) =
                terms.into_iter().partition(is_tbox);
            let window = SlidingWindow::new(&abox, WINDOW_BATCH, WINDOW_BATCHES, Duration::ZERO);
            // The recompute oracle is told what the engine is told, expiry
            // before arrival as in the scenario; what it is left with is
            // what a correct engine's closure is the closure of.
            let mut oracle = RecomputeOracle::new(Ruleset::fragment(workload.fragment(), &dict));
            oracle.add(&encode_all(&tbox, &dict));
            for step in window.steps() {
                oracle.remove(&encode_all(step.expiring.unwrap_or_default(), &dict));
                oracle.add(&encode_all(step.arrival, &dict));
            }
            let mut resident = oracle.explicit();
            resident.sort_unstable();
            (Shape::Window { tbox, window }, resident)
        }
        Workload::WikiIngestQuery => {
            let encoded = encode_all(&terms, &dict);
            let batches: Vec<Vec<Triple>> =
                encoded.chunks(WIKI_BATCH).map(<[Triple]>::to_vec).collect();
            let queries = query_blocks(&batches, seed);
            (Shape::Ingest { batches, queries }, encoded)
        }
    };
    Input {
        workload,
        text,
        dict,
        resident,
        triples,
        fnv,
        shape,
    }
}
