//! The term dictionary: bidirectional, concurrent interning of RDF terms.
//!
//! This is the paper's Input Manager dictionary ("maps the expensive URIs …
//! to Longs"). It is shared by every input source and by the reasoner:
//! multiple parser threads may intern concurrently while rule modules decode
//! ids for tracing.
//!
//! # Architecture: sharded writes, guard-free reads, compaction
//!
//! The dictionary has two halves with different concurrency regimes:
//!
//! * **term → id** is a hash index sharded by term hash into 16 shards,
//!   each behind its own `RwLock`. Producers interning disjoint terms
//!   take disjoint locks: on a 2-core machine, four interning threads run
//!   1.7–1.9× faster than through one global lock, and a single loader
//!   pays nothing measurable for the split. Each shard's map keys are
//!   `Arc<Term>` clones of the slot payload below, so every term's string
//!   data is materialised exactly once.
//! * **id → (term, kind)** is an append-only *segmented slot table*:
//!   fixed-capacity segments of geometrically growing size, created at
//!   most once (`OnceLock`), indexed by ids from one atomic bump counter.
//!   A live id never moves, so readers index straight
//!   into a segment without any guard. Each slot packs its state
//!   (empty / live / swept) and [`TermKind`] into one `AtomicU64` —
//!   `kind`/`is_literal` are a single atomic load, zero locks. The term payload itself is an `Arc<Term>` published
//!   under a per-slot pointer lock in the same idiom as the store's epoch
//!   snapshots: readers hold the lock only for the `Arc` clone, and the
//!   lock is never taken while any intern shard lock is held, so decode
//!   paths complete in bounded time even while interning is write-locked.
//! * **compaction** ([`Dictionary::sweep`]) retires non-vocabulary terms
//!   the caller proves dead. The swept slot drops its payload `Arc` and
//!   its index entry (the only two holders), so the term's bytes are
//!   returned to the allocator; the slot cell itself stays resident.
//!   Ids come from a bump counter and are **never reused**: a swept id
//!   looks up as `None` for good, so a stale holder sees a miss, never
//!   another term, and ids of live terms never change.

use crate::hash::{FxBuildHasher, FxHashMap};
use crate::term::{Term, TermKind};
use crate::triple::{TermTriple, Triple};
use crate::vocab::{self, NodeId};
use parking_lot::{Mutex, RwLock, RwLockWriteGuard};
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Number of term→id index shards (a power of two: the shard is the
/// term hash's low bits).
const INTERN_SHARDS: usize = 16;

/// Base-two log of the first segment's capacity (1024 slots); segment `k`
/// holds `1024 << k` slots, so 33 segments cover every assignable id.
const SEG_SHIFT: usize = 10;
/// Number of segment cells. `(2^33 - 1) * 1024` ids ≈ 8.8 × 10¹² — far
/// beyond any load this process can hold; out-of-range ids resolve to
/// `None` instead of indexing.
const NUM_SEGS: usize = 33;

/// Slot state: never assigned (or mid-assignment).
const STATE_EMPTY: u64 = 0;
/// Slot state: id is live; kind bits are valid.
const STATE_LIVE: u64 = 1;
/// Slot state: swept; the id is retired for good.
const STATE_SWEPT: u64 = 2;
const STATE_MASK: u64 = 0b11;
const KIND_SHIFT: u64 = 2;

/// Flat-overhead estimate per index entry (`Arc` pointer + id + bucket
/// slack) for [`Dictionary::bytes_estimate`].
const INDEX_ENTRY_BYTES: usize = 24;
/// Estimated `Arc` header (strong + weak counts) per payload.
const ARC_HEADER_BYTES: usize = 16;

/// One id's cell in the segmented table. `word` is the guard-free half
/// (state + kind in one atomic); `term` is the pointer-published payload.
struct Slot {
    word: AtomicU64,
    term: Mutex<Option<Arc<Term>>>,
}

impl Slot {
    fn new() -> Self {
        Slot {
            word: AtomicU64::new(STATE_EMPTY),
            term: Mutex::new(None),
        }
    }
}

fn pack(kind: TermKind) -> u64 {
    STATE_LIVE | ((kind as u64) << KIND_SHIFT)
}

fn unpack_kind(word: u64) -> TermKind {
    match (word >> KIND_SHIFT) & 0b11 {
        0 => TermKind::Iri,
        1 => TermKind::Literal,
        _ => TermKind::Blank,
    }
}

/// Splits an id into (segment, offset): segment `k` starts at id
/// `(2^k - 1) * 1024` and holds `1024 << k` slots.
fn locate(id: usize) -> (usize, usize) {
    let adj = (id >> SEG_SHIFT) + 1;
    let seg = (usize::BITS - 1 - adj.leading_zeros()) as usize;
    let base = ((1usize << seg) - 1) << SEG_SHIFT;
    (seg, id - base)
}

/// Point-in-time dictionary counters (see [`Dictionary::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DictStats {
    /// Live interned terms (vocabulary included).
    pub terms: usize,
    /// Ids swept so far: [`Dictionary::high_water`] − [`Dictionary::len`].
    /// A swept id is never handed out again.
    pub tombstones: usize,
    /// Estimated resident bytes: term payloads + index entries + slots.
    pub bytes_estimate: usize,
    /// Intern-path shard write-lock conflicts (a `try_write` that had to
    /// block): how often concurrent loaders collided on one shard.
    pub shard_conflicts: u64,
    /// Completed [`Dictionary::sweep`] passes.
    pub sweeps: u64,
}

/// What one [`Dictionary::sweep`] pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepOutcome {
    /// Live non-vocabulary slots examined.
    pub scanned: usize,
    /// Ids retired by this pass.
    pub swept: usize,
    /// Live terms remaining after the pass (vocabulary included).
    pub live: usize,
    /// [`Dictionary::bytes_estimate`] entering the pass.
    pub bytes_before: usize,
    /// [`Dictionary::bytes_estimate`] leaving the pass.
    pub bytes_after: usize,
    /// True if the pass did nothing because more than one engine is
    /// attached (see [`Dictionary::attach_engine`]).
    pub skipped: bool,
}

/// One shard of the term → id intern index.
type InternShard = RwLock<FxHashMap<Arc<Term>, NodeId>>;

/// A concurrent, bidirectional term ↔ id dictionary.
///
/// * ids are assigned `0, 1, 2, …` in interning order and never reused: a
///   swept id stays unknown for good;
/// * ids `0..VOCAB_LEN` are the RDF/RDFS vocabulary ([`crate::vocab`]),
///   never swept;
/// * interning the same term twice returns the same id;
/// * `kind`/`is_literal` are a single atomic load, and
///   `lookup`/`with_term` never touch an intern lock, so decode paths
///   complete in bounded time regardless of writer activity.
pub struct Dictionary {
    /// term → id, sharded by term hash.
    shards: [InternShard; INTERN_SHARDS],
    /// id → slot, append-only segments (see module docs).
    segs: [OnceLock<Box<[Slot]>>; NUM_SEGS],
    /// The bump counter: the next id to assign, and so the high-water mark.
    next: AtomicUsize,
    hasher: FxBuildHasher,
    live: AtomicUsize,
    bytes: AtomicUsize,
    /// Engines attached ([`Dictionary::attach_engine`]). Locked for a
    /// whole sweep, so no engine attaches while one runs.
    engines: Mutex<usize>,
    shard_conflicts: AtomicU64,
    sweeps: AtomicU64,
}

/// Estimated resident bytes of one interned term: string payload, enum,
/// `Arc` header, and the index entry that points at it.
fn term_bytes(term: &Term) -> usize {
    let heap = match term {
        Term::Iri(s) | Term::Blank(s) => s.len(),
        Term::Literal(lit) => {
            lit.lexical.len()
                + match &lit.kind {
                    crate::term::LiteralKind::Plain => 0,
                    crate::term::LiteralKind::Lang(t) | crate::term::LiteralKind::Typed(t) => {
                        t.len()
                    }
                }
        }
    };
    heap + std::mem::size_of::<Term>() + ARC_HEADER_BYTES + INDEX_ENTRY_BYTES
}

impl Dictionary {
    /// Creates a dictionary with the vocabulary pre-interned at fixed ids.
    pub fn new() -> Self {
        let dict = Dictionary {
            shards: std::array::from_fn(|_| RwLock::new(FxHashMap::default())),
            segs: std::array::from_fn(|_| OnceLock::new()),
            next: AtomicUsize::new(0),
            hasher: FxBuildHasher::default(),
            live: AtomicUsize::new(0),
            bytes: AtomicUsize::new(0),
            engines: Mutex::new(0),
            shard_conflicts: AtomicU64::new(0),
            sweeps: AtomicU64::new(0),
        };
        for iri in vocab::ALL {
            dict.intern(&Term::iri(*iri));
        }
        debug_assert_eq!(dict.len(), vocab::VOCAB_LEN);
        dict
    }

    fn shard_of(&self, hash: u64) -> &InternShard {
        &self.shards[(hash as usize) & (INTERN_SHARDS - 1)]
    }

    /// Interns `term`, returning its id (existing or fresh). The term is
    /// cloned once, only when it is actually inserted.
    pub fn intern(&self, term: &Term) -> NodeId {
        let hash = self.hasher.hash_one(term);
        // Fast path: already interned.
        if let Some(&id) = self.shard_of(hash).read().get(term) {
            return id;
        }
        self.intern_slow(std::borrow::Cow::Borrowed(term), hash)
    }

    /// Interns an owned term, avoiding any clone when the term is fresh.
    pub fn intern_owned(&self, term: Term) -> NodeId {
        let hash = self.hasher.hash_one(&term);
        if let Some(&id) = self.shard_of(hash).read().get(&term) {
            return id;
        }
        self.intern_slow(std::borrow::Cow::Owned(term), hash)
    }

    #[cold]
    fn intern_slow(&self, term: std::borrow::Cow<'_, Term>, hash: u64) -> NodeId {
        let shard = self.shard_of(hash);
        let mut map = match shard.try_write() {
            Some(map) => map,
            None => {
                self.shard_conflicts.fetch_add(1, Ordering::Relaxed);
                shard.write()
            }
        };
        // Double-check: another thread may have interned it meanwhile.
        if let Some(&id) = map.get(term.as_ref()) {
            return id;
        }
        // The single materialisation: the slot payload and the index key
        // below share this one allocation.
        let payload = Arc::new(term.into_owned());
        let kind = payload.kind();
        let id = NodeId(self.next.fetch_add(1, Ordering::AcqRel) as u64);
        let slot = self.slot(id.index());
        // Payload before word: a reader that observes LIVE always finds
        // the payload published (or already retired by a later sweep).
        *slot.term.lock() = Some(Arc::clone(&payload));
        slot.word.store(pack(kind), Ordering::Release);
        self.bytes.fetch_add(
            term_bytes(&payload) + std::mem::size_of::<Slot>(),
            Ordering::Relaxed,
        );
        self.live.fetch_add(1, Ordering::Relaxed);
        map.insert(payload, id);
        id
    }

    /// The slot for `id`, creating its segment on first touch.
    fn slot(&self, id: usize) -> &Slot {
        let (seg, off) = locate(id);
        let cells = self.segs[seg].get_or_init(|| {
            let cap = 1usize << (SEG_SHIFT + seg);
            (0..cap).map(|_| Slot::new()).collect()
        });
        &cells[off]
    }

    /// The slot for `id` if its segment exists — the read-side accessor:
    /// never allocates, never locks.
    fn slot_if_present(&self, id: NodeId) -> Option<&Slot> {
        let (seg, off) = locate(id.index());
        self.segs.get(seg)?.get().map(|cells| &cells[off])
    }

    /// Returns the id of `term` if it has been interned.
    pub fn id_of(&self, term: &Term) -> Option<NodeId> {
        let hash = self.hasher.hash_one(term);
        self.shard_of(hash).read().get(term).copied()
    }

    /// The payload of a live id: one per-slot pointer-clone lock, no
    /// intern or shard lock (see the module docs).
    fn payload(&self, id: NodeId) -> Option<Arc<Term>> {
        let slot = self.slot_if_present(id)?;
        if slot.word.load(Ordering::Acquire) & STATE_MASK != STATE_LIVE {
            return None;
        }
        slot.term.lock().clone()
    }

    /// Returns a clone of the term with id `id`.
    pub fn lookup(&self, id: NodeId) -> Option<Term> {
        self.payload(id).map(|term| (*term).clone())
    }

    /// Runs `f` on the term with id `id` without cloning its string data.
    pub fn with_term<R>(&self, id: NodeId, f: impl FnOnce(&Term) -> R) -> Option<R> {
        self.payload(id).map(|term| f(&term))
    }

    /// The kind (IRI / literal / blank) of `id` — a single atomic load.
    pub fn kind(&self, id: NodeId) -> Option<TermKind> {
        let word = self.slot_if_present(id)?.word.load(Ordering::Acquire);
        (word & STATE_MASK == STATE_LIVE).then(|| unpack_kind(word))
    }

    /// True if `id` is an interned literal.
    pub fn is_literal(&self, id: NodeId) -> bool {
        self.kind(id) == Some(TermKind::Literal)
    }

    /// Number of live interned terms (including the vocabulary).
    pub fn len(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// True if only… never: the vocabulary is always present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One past the largest id ever assigned, swept ids included: the
    /// bump counter. `len() == high_water()` exactly when nothing has been
    /// swept.
    pub fn high_water(&self) -> usize {
        self.next.load(Ordering::Acquire)
    }

    /// Estimated resident bytes: term payloads (materialised once each),
    /// index entries, and slot cells. Maintained incrementally; sweeps
    /// subtract the payload and index share of each reclaimed term (slot
    /// cells stay resident and are never subtracted).
    pub fn bytes_estimate(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Point-in-time counters for stats plumbing.
    pub fn stats(&self) -> DictStats {
        DictStats {
            terms: self.len(),
            tombstones: self.high_water().saturating_sub(self.len()),
            bytes_estimate: self.bytes_estimate(),
            shard_conflicts: self.shard_conflicts.load(Ordering::Relaxed),
            sweeps: self.sweeps.load(Ordering::Relaxed),
        }
    }

    /// Registers an engine that sweeps this dictionary against roots only
    /// it can see. While more than one engine is attached,
    /// [`Dictionary::sweep`] does nothing: no engine knows which ids the
    /// others hold. Pair with [`Dictionary::detach_engine`].
    pub fn attach_engine(&self) {
        *self.engines.lock() += 1;
    }

    /// Unregisters an engine registered by [`Dictionary::attach_engine`].
    pub fn detach_engine(&self) {
        *self.engines.lock() -= 1;
    }

    /// Compacts the dictionary: every **live, non-vocabulary** id for
    /// which `live` answers `false` is retired — its index entry and
    /// payload `Arc` are dropped (reclaiming the term's bytes), and the id
    /// looks up as `None` from then on; it is never handed out again. Ids
    /// for which `live` answers `true` are untouched: their `lookup`/`kind`
    /// results are identical before and after the pass. Skipped (see
    /// [`SweepOutcome::skipped`]) while more than one engine is attached.
    ///
    /// The caller owns the liveness proof. The engine runs sweeps under
    /// its quiescent-store gate with `live` = "referenced by anything it
    /// holds", which is sound because no intern-and-insert can be
    /// mid-flight there; a standalone caller must equally guarantee that
    /// no term it reports dead is concurrently being re-interned for use.
    pub fn sweep(&self, live: impl Fn(NodeId) -> bool) -> SweepOutcome {
        let engines = self.engines.lock();
        if *engines > 1 {
            return SweepOutcome {
                skipped: true,
                live: self.len(),
                ..SweepOutcome::default()
            };
        }
        let bytes_before = self.bytes_estimate();
        let high = self.high_water();
        let (mut scanned, mut swept) = (0usize, 0usize);
        for raw in vocab::VOCAB_LEN..high {
            let id = NodeId(raw as u64);
            let Some(slot) = self.slot_if_present(id) else {
                continue;
            };
            if slot.word.load(Ordering::Acquire) & STATE_MASK != STATE_LIVE {
                continue;
            }
            scanned += 1;
            if live(id) {
                continue;
            }
            let Some(payload) = slot.term.lock().clone() else {
                continue;
            };
            let hash = self.hasher.hash_one(&*payload);
            let mut map = self.shard_of(hash).write();
            // Re-check under the shard lock: only this id's own entry may
            // be removed (a racing sweep or re-intern may have moved on).
            if map.get(&*payload) != Some(&id) {
                continue;
            }
            map.remove(&*payload);
            // Index entry gone: no interner can hand this id out any
            // more. Retire the slot while still holding the shard lock.
            slot.word.store(STATE_SWEPT, Ordering::Release);
            *slot.term.lock() = None;
            drop(map);
            self.bytes
                .fetch_sub(term_bytes(&payload), Ordering::Relaxed);
            self.live.fetch_sub(1, Ordering::Relaxed);
            swept += 1;
        }
        self.sweeps.fetch_add(1, Ordering::Relaxed);
        SweepOutcome {
            scanned,
            swept,
            live: self.len(),
            bytes_before,
            bytes_after: self.bytes_estimate(),
            skipped: false,
        }
    }

    /// Holds the intern write lock of the shard that owns `term`, blocking
    /// every intern routed there until the guard drops. A diagnostic/test
    /// hook: the concurrency suite uses it to pin that `lookup`/`kind`
    /// complete in bounded time while interning is write-locked.
    pub fn lock_intern_shard(&self, term: &Term) -> InternShardGuard<'_> {
        let hash = self.hasher.hash_one(term);
        InternShardGuard {
            _guard: self.shard_of(hash).write(),
        }
    }

    /// Encodes a decoded triple.
    pub fn encode_triple(&self, t: &TermTriple) -> Triple {
        Triple {
            s: self.intern(&t.0),
            p: self.intern(&t.1),
            o: self.intern(&t.2),
        }
    }

    /// Encodes an owned decoded triple (no term clones on fresh terms).
    pub fn encode_triple_owned(&self, t: TermTriple) -> Triple {
        Triple {
            s: self.intern_owned(t.0),
            p: self.intern_owned(t.1),
            o: self.intern_owned(t.2),
        }
    }

    /// Encodes a decoded triple by lookup only, never interning; `None`
    /// if any term is unknown — such a triple cannot be in any store.
    pub fn encode_known(&self, t: &TermTriple) -> Option<Triple> {
        Some(Triple::new(
            self.id_of(&t.0)?,
            self.id_of(&t.1)?,
            self.id_of(&t.2)?,
        ))
    }

    /// Decodes a triple back to terms; `None` if any id is unknown.
    pub fn decode_triple(&self, t: Triple) -> Option<TermTriple> {
        Some((self.lookup(t.s)?, self.lookup(t.p)?, self.lookup(t.o)?))
    }

    /// Formats a triple in N-Triples-like syntax for diagnostics.
    pub fn format_triple(&self, t: Triple) -> String {
        let part = |id: NodeId| {
            self.lookup(id)
                .map(|term| term.to_string())
                .unwrap_or_else(|| format!("{id}"))
        };
        format!("{} {} {} .", part(t.s), part(t.p), part(t.o))
    }
}

impl Default for Dictionary {
    fn default() -> Self {
        Dictionary::new()
    }
}

impl std::fmt::Debug for Dictionary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dictionary")
            .field("len", &self.len())
            .finish()
    }
}

/// Holds one intern shard's write lock (see
/// [`Dictionary::lock_intern_shard`]).
pub struct InternShardGuard<'a> {
    _guard: RwLockWriteGuard<'a, FxHashMap<Arc<Term>, NodeId>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Literal;
    use std::sync::Arc;

    #[test]
    fn vocabulary_ids_are_fixed() {
        let d = Dictionary::new();
        assert_eq!(
            d.id_of(&Term::iri(
                "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
            )),
            Some(vocab::RDF_TYPE)
        );
        assert_eq!(
            d.id_of(&Term::iri(
                "http://www.w3.org/2000/01/rdf-schema#subClassOf"
            )),
            Some(vocab::RDFS_SUB_CLASS_OF)
        );
        assert_eq!(
            d.lookup(vocab::RDFS_RESOURCE),
            Some(Term::iri("http://www.w3.org/2000/01/rdf-schema#Resource"))
        );
        assert_eq!(d.len(), vocab::VOCAB_LEN);
    }

    #[test]
    fn interning_is_idempotent() {
        let d = Dictionary::new();
        let a = d.intern(&Term::iri("http://example.org/a"));
        let b = d.intern(&Term::iri("http://example.org/a"));
        assert_eq!(a, b);
        assert_eq!(d.len(), vocab::VOCAB_LEN + 1);
    }

    #[test]
    fn distinct_terms_get_distinct_ids() {
        let d = Dictionary::new();
        let a = d.intern(&Term::iri("http://example.org/a"));
        let lit = d.intern(&Term::literal("http://example.org/a"));
        let blank = d.intern(&Term::blank("a"));
        assert_ne!(a, lit);
        assert_ne!(a, blank);
        assert_ne!(lit, blank);
    }

    #[test]
    fn roundtrip() {
        let d = Dictionary::new();
        let terms = vec![
            Term::iri("http://example.org/x"),
            Term::Literal(Literal::lang("bonjour", "fr")),
            Term::Literal(Literal::typed(
                "3",
                "http://www.w3.org/2001/XMLSchema#integer",
            )),
            Term::blank("b42"),
        ];
        for t in &terms {
            let id = d.intern(t);
            assert_eq!(d.lookup(id).as_ref(), Some(t));
            assert_eq!(d.id_of(t), Some(id));
        }
    }

    #[test]
    fn kinds_and_literal_flags() {
        let d = Dictionary::new();
        let iri = d.intern(&Term::iri("http://e/a"));
        let lit = d.intern(&Term::literal("x"));
        let blank = d.intern(&Term::blank("b"));
        assert_eq!(d.kind(iri), Some(TermKind::Iri));
        assert_eq!(d.kind(lit), Some(TermKind::Literal));
        assert_eq!(d.kind(blank), Some(TermKind::Blank));
        assert!(d.is_literal(lit));
        assert!(!d.is_literal(iri));
        assert!(!d.is_literal(blank));
        assert_eq!(d.kind(NodeId(9_999_999)), None);
    }

    #[test]
    fn encode_decode_triple() {
        let d = Dictionary::new();
        let tt: TermTriple = (
            Term::iri("http://e/s"),
            Term::iri("http://e/p"),
            Term::literal("o"),
        );
        let t = d.encode_triple(&tt);
        assert_eq!(d.decode_triple(t), Some(tt));
    }

    #[test]
    fn format_triple_diagnostics() {
        let d = Dictionary::new();
        let t = d.encode_triple(&(
            Term::iri("http://e/s"),
            Term::iri("http://e/p"),
            Term::literal("o"),
        ));
        assert_eq!(d.format_triple(t), "<http://e/s> <http://e/p> \"o\" .");
        // Unknown ids degrade gracefully.
        let bogus = Triple::new(NodeId(u64::MAX - 1), t.p, t.o);
        assert!(d.format_triple(bogus).starts_with('#'));
    }

    #[test]
    fn segment_locate_covers_the_geometric_layout() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(1023), (0, 1023));
        assert_eq!(locate(1024), (1, 0));
        assert_eq!(locate(3071), (1, 2047));
        assert_eq!(locate(3072), (2, 0));
        // Every id maps to an in-capacity offset and bases chain densely.
        let mut next_base = 0usize;
        for seg in 0..8 {
            let base = ((1usize << seg) - 1) << SEG_SHIFT;
            assert_eq!(base, next_base);
            next_base = base + (1024 << seg);
            assert_eq!(locate(base), (seg, 0));
            assert_eq!(locate(next_base - 1), (seg, (1024 << seg) - 1));
        }
    }

    /// Satellite pin: the index key shares the slot payload's allocation,
    /// so each term's string data is resident exactly once. Double
    /// materialisation (the old `terms` + `index`-key layout) would at
    /// least double the per-term growth.
    #[test]
    fn bytes_estimate_counts_each_term_once() {
        let d = Dictionary::new();
        let base = d.bytes_estimate();
        assert!(base > 0, "vocabulary is accounted");
        let payload = "x".repeat(1_000);
        let n = 100usize;
        let mut heap = 0usize;
        for i in 0..n {
            let iri = format!("http://e/{payload}/{i}");
            heap += iri.len();
            d.intern(&Term::iri(iri));
        }
        let grown = d.bytes_estimate() - base;
        assert!(grown >= heap, "estimate must cover the string payloads");
        let overhead = n
            * (std::mem::size_of::<Term>()
                + ARC_HEADER_BYTES
                + INDEX_ENTRY_BYTES
                + std::mem::size_of::<Slot>());
        assert!(
            grown <= heap + overhead,
            "each term is materialised once: grew {grown}, singly-stored bound {}",
            heap + overhead
        );
    }

    #[test]
    fn sweep_tombstones_reclaims_and_reuses_ids() {
        let d = Dictionary::new();
        let keep = d.intern(&Term::iri("http://e/keep"));
        let drop1 = d.intern(&Term::iri("http://e/drop-1"));
        let drop2 = d.intern(&Term::iri("http://e/drop-2"));
        let bytes_full = d.bytes_estimate();
        let outcome = d.sweep(|id| id == keep);
        assert_eq!(outcome.scanned, 3);
        assert_eq!(outcome.swept, 2);
        assert!(!outcome.skipped);
        assert_eq!(outcome.live, vocab::VOCAB_LEN + 1);
        assert_eq!(outcome.bytes_before, bytes_full);
        assert!(outcome.bytes_after < bytes_full);
        // Live ids are untouched; dead ids resolve to nothing.
        assert_eq!(d.lookup(keep), Some(Term::iri("http://e/keep")));
        assert_eq!(d.kind(keep), Some(TermKind::Iri));
        assert_eq!(d.lookup(drop1), None);
        assert_eq!(d.kind(drop2), None);
        assert_eq!(d.id_of(&Term::iri("http://e/drop-1")), None);
        assert_eq!(d.stats().tombstones, 2);
        // Swept ids are never handed out again: fresh interns — the swept
        // terms themselves included — take new ids above the high-water
        // mark, and the swept ids keep looking up as `None`.
        let high = d.high_water();
        let fresh1 = d.intern(&Term::literal("fresh-1"));
        let again = d.intern(&Term::iri("http://e/drop-2"));
        assert_eq!((fresh1.index(), again.index()), (high, high + 1));
        assert_eq!(d.high_water(), high + 2);
        assert_eq!(d.stats().tombstones, 2);
        for swept in [drop1, drop2] {
            assert_eq!((d.lookup(swept), d.kind(swept)), (None, None));
        }
        assert_eq!(d.kind(fresh1), Some(TermKind::Literal));
        assert_eq!(d.lookup(again), Some(Term::iri("http://e/drop-2")));
    }

    #[test]
    fn sweep_never_touches_the_vocabulary() {
        let d = Dictionary::new();
        let outcome = d.sweep(|_| false);
        assert_eq!(outcome.swept, 0);
        assert_eq!(d.len(), vocab::VOCAB_LEN);
        assert_eq!(
            d.lookup(vocab::RDF_TYPE),
            Some(Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"))
        );
        assert_eq!(d.stats().sweeps, 1);
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let d = Arc::new(Dictionary::new());
        let mut handles = Vec::new();
        for thread in 0..8 {
            let d = Arc::clone(&d);
            handles.push(std::thread::spawn(move || {
                let mut ids = Vec::new();
                for i in 0..500 {
                    // All threads intern the same 500 terms, racing —
                    // plus a disjoint per-thread tail below.
                    ids.push(d.intern(&Term::iri(format!("http://example.org/{i}"))));
                }
                let mut own = Vec::new();
                for i in 0..50 {
                    own.push(
                        d.intern_owned(Term::iri(format!("http://example.org/t{thread}/{i}"))),
                    );
                }
                (ids, own)
            }));
        }
        let all: Vec<(Vec<NodeId>, Vec<NodeId>)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (ids, _) in &all {
            assert_eq!(
                ids, &all[0].0,
                "same term must map to same id on all threads"
            );
        }
        // Dense ids: shared + disjoint interns tile 0..len exactly.
        let expected_len = vocab::VOCAB_LEN + 500 + 8 * 50;
        assert_eq!(d.len(), expected_len);
        assert_eq!(d.high_water(), expected_len);
        let mut every: Vec<NodeId> = all
            .iter()
            .flat_map(|(ids, own)| ids.iter().chain(own).copied())
            .collect();
        every.sort_unstable();
        every.dedup();
        assert_eq!(every.len(), 500 + 8 * 50);
        // Kind table is in lock-step with interning.
        for &id in &every {
            assert_eq!(d.kind(id), Some(TermKind::Iri));
        }
    }

    #[test]
    fn lookups_do_not_block_behind_an_intern_write_lock() {
        // The guard below write-locks the shard that owns the pinned term
        // itself, yet id→term/kind reads of it still complete.
        let d = Arc::new(Dictionary::new());
        let pinned = Term::iri("http://e/pinned");
        let id = d.intern(&pinned);
        let guard = d.lock_intern_shard(&pinned);
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn({
            let d = Arc::clone(&d);
            move || {
                tx.send((d.lookup(id), d.kind(id), d.kind(vocab::RDF_TYPE)))
                    .unwrap();
            }
        });
        let (term, kind, vocab_kind) = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("lookup/kind blocked behind a held intern write lock");
        assert_eq!(term, Some(Term::iri("http://e/pinned")));
        assert_eq!(kind, Some(TermKind::Iri));
        assert_eq!(vocab_kind, Some(TermKind::Iri));
        drop(guard);
        reader.join().unwrap();
    }
}
