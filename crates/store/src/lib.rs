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
//! The hashed leaves make insertion idempotent, which is the paper's
//! "duplicate management in triple store": `insert` reports whether the
//! triple was new, and the distributor uses exactly that signal to stop
//! duplicates from re-entering the rule pipeline.
//!
//! The store also supports **retraction**: `remove`/`remove_batch` delete
//! triples with both indexes kept in lock-step, and a per-triple provenance
//! flag, kept beside the object in the subject index, distinguishes
//! **explicit** (asserted via the `*_explicit` insertion paths) from
//! **derived** triples. The reasoner's DRed maintenance
//! subsystem builds on exactly these two primitives — see
//! `slider-core`'s `maintenance` module.
//!
//! [`ShardedStore`] shares the store across threads the way the paper
//! does: one [`VerticalStore`] behind one reader-writer lock. Rule joins
//! hold it shared; every write batch takes it exclusively, and so do
//! exclusive (DRed/quiescent) sections, for their whole length.
//!
//! Queries outside the engine — `matches`/`to_sorted_vec`/`contains` —
//! answer from an immutable, generation-stamped
//! [`EpochSnapshot`], a copy-on-write clone of the store built by the
//! first query after a write (by every write, once a query has had to
//! wait for one). Taking one costs a short mutex lock and an `Arc` clone.
//! Write batches and exclusive sections enter alike: until a query has
//! had to wait for a writer, they retire an epoch no query holds and
//! change the tables in place, and a query that meets one waits for its
//! post-write state; from then on they publish the pre-write epoch on
//! entry, so no query waits. `stats` reads counters each write records
//! and never waits. An epoch
//! dereferences to a [`VerticalStore`], so rules join against
//! `&VerticalStore` whether they read the live store, an epoch, or hold
//! the store exclusively.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod concurrent;
mod pattern;
mod table;
mod vertical;

pub use concurrent::{EpochSnapshot, ExclusiveStore, ShardedStore};
pub use pattern::TriplePattern;
pub use table::PropertyTable;
pub use vertical::{StoreStats, VerticalStore};
