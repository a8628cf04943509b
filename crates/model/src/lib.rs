//! RDF data model for the Slider reasoner.
//!
//! This crate is the lowest substrate of the reproduction: it provides
//! the term/triple representation shared by every other crate.
//!
//! The design follows §2 of the paper:
//!
//! * The **input manager** "registers \[new triples\] into a dictionary that
//!   maps the expensive URIs (as they introduce overheads during comparison
//!   computation) to Longs". [`Dictionary`] is that dictionary: every term
//!   (IRI, literal or blank node) is interned once and afterwards referenced
//!   by a dense [`NodeId`], so rule joins compare 8-byte integers instead of
//!   strings.
//! * The RDF/RDFS vocabulary that the ρdf and RDFS rules match on is
//!   pre-interned at **fixed ids** ([`vocab`]), so rule implementations are
//!   `const`-comparing hot loops.
//!
//! A [`Triple`] is three [`NodeId`]s; [`Term`] is the decoded, human-readable
//! form.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dict;
pub mod hash;
pub mod term;
pub mod triple;
pub mod vocab;

pub use dict::{DictStats, Dictionary, SweepOutcome};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use term::{Literal, LiteralKind, Term, TermKind};
pub use triple::{TermTriple, Triple};
pub use vocab::NodeId;
