//! The vertically partitioned triple store (paper §2.2).
//!
//! > "In order to achieve high performance Slider uses a vertical
//! > partitioning approach … where triples are first indexed by predicates,
//! > later by subjects and finally by objects."
//!
//! [`VerticalStore`] keeps one [`PropertyTable`] per predicate; each table
//! indexes its (subject, object) pairs both ways. Every pattern the ρdf and
//! RDFS rules need resolves to one hash lookup plus an iteration:
//!
//! * `(p, s, ?)` → `objects_with`
//! * `(p, ?, o)` → `subjects_with`
//! * `(p, ?, ?)` → `pairs`
//! * `(?, ?, ?)` → `iter` (full walk, needed by the universal-input rules)
//!
//! The hash-set leaves make insertion idempotent, which is the paper's
//! "duplicate management in triple store": `insert` reports whether the
//! triple was new, and the distributor uses exactly that signal to stop
//! duplicates from re-entering the rule pipeline.
//!
//! The store also supports **retraction**: `remove`/`remove_batch` delete
//! triples with both indexes kept in lock-step, and a per-triple provenance
//! flag distinguishes **explicit** (asserted via the `*_explicit` insertion
//! paths) from **derived** triples. The reasoner's DRed maintenance
//! subsystem builds on exactly these two primitives — see
//! `slider-core`'s `maintenance` module.
//!
//! [`ShardedStore`] shares the store across threads with **two-level
//! write locking** (the paper uses a single `ReentrantReadWriteLock`; we
//! keep its semantics but not its bottleneck): a global *maintenance gate*
//! held in read mode by every monotone write and in write mode only by
//! exclusive (DRed/quiescent) sections and removals, plus
//! per-predicate-shard locks so writers touching disjoint predicate
//! families run concurrently. See the `concurrent` module docs for the
//! lock-order discipline.
//!
//! There is **one read path**: every write-release publishes an
//! immutable, generation-stamped [`EpochSnapshot`] (copy-on-write over
//! the shard tables), and rule joins as well as
//! `matches`/`stats`/`to_sorted_vec`/`contains` answer from the published
//! epoch. Taking one costs a short mutex lock and an `Arc` clone; it never
//! waits on the gate or a shard lock. Readers see it through a
//! [`StoreView`] — a plain store borrowed whole or an epoch — so the same
//! rule code serves both worlds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod concurrent;
mod pattern;
mod table;
mod vertical;
mod view;

pub use concurrent::{
    EpochSnapshot, ExclusiveStore, ShardWriteGuard, ShardedStore, DEFAULT_SHARDS,
};
pub use pattern::TriplePattern;
pub use table::PropertyTable;
pub use vertical::{StoreStats, VerticalStore};
pub use view::StoreView;
