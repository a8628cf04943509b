//! Streaming RDF parsers and serializers for the Slider reproduction.
//!
//! The paper's benchmark times *include parsing* ("the running times include
//! both parsing and inferencing times", §3), so the parser is part of the
//! measured system and is implemented from scratch here rather than taken
//! from an external crate.
//!
//! Two concrete syntaxes are supported:
//!
//! * **N-Triples** ([`NTriplesParser`]) — line-oriented, the format all
//!   workload generators emit;
//! * a practical **Turtle subset** ([`TurtleParser`]) — prefixes, `a`,
//!   predicate-object/object lists, anonymous blank nodes, collections,
//!   numeric/boolean shorthand literals — enough to load real-world
//!   ontology files.
//!
//! Both parsers are streaming: they implement
//! `Iterator<Item = Result<TermTriple, ParseError>>` over any `BufRead`, and
//! never hold the whole document in memory. Errors carry line/column
//! positions.
//!
//! The N-Triples parser scans bytes: a term with no escape and no forbidden
//! byte is copied out of the line in one allocation, and only a term with
//! an escape or an error goes through the character-level scanner, which
//! decodes it or reports the same position and message as it always has
//! (see [`ntriples`]).
//!
//! ## Example
//!
//! Parse Turtle, serialise back to N-Triples, and re-parse — the round-trip
//! is lossless:
//!
//! ```
//! use slider_parser::{parse_ntriples_str, parse_turtle_str, write_triple};
//!
//! let ttl = r#"
//!     @prefix ex: <http://example.org/> .
//!     ex:felix a ex:Cat ; ex:name "Felix" .
//! "#;
//! let triples: Vec<_> = parse_turtle_str(ttl).collect::<Result<_, _>>().unwrap();
//! assert_eq!(triples.len(), 2);
//!
//! let mut doc = String::new();
//! for t in &triples {
//!     write_triple(&mut doc, t);
//! }
//! let reparsed: Vec<_> = parse_ntriples_str(&doc).collect::<Result<_, _>>().unwrap();
//! assert_eq!(reparsed, triples);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod ntriples;
pub mod turtle;
pub mod writer;

pub use error::ParseError;
pub use ntriples::NTriplesParser;
pub use turtle::TurtleParser;
pub use writer::{write_term, write_triple, NTriplesWriter};

use slider_model::{Dictionary, TermTriple, Triple};
use std::io::BufRead;

/// Supported concrete syntaxes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Line-oriented N-Triples (`.nt`).
    NTriples,
    /// Turtle subset (`.ttl`).
    Turtle,
}

impl Format {
    /// Guesses the format from a file extension (`nt`, `ntriples`, `ttl`,
    /// `turtle`); defaults to N-Triples for anything else.
    pub fn from_extension(ext: &str) -> Format {
        match ext.to_ascii_lowercase().as_str() {
            "ttl" | "turtle" => Format::Turtle,
            _ => Format::NTriples,
        }
    }
}

/// Parses a complete document from `reader` in the given `format`.
pub fn parse<R: BufRead + 'static>(
    reader: R,
    format: Format,
) -> Box<dyn Iterator<Item = Result<TermTriple, ParseError>>> {
    match format {
        Format::NTriples => Box::new(NTriplesParser::new(reader)),
        Format::Turtle => Box::new(TurtleParser::new(reader)),
    }
}

/// Parses an N-Triples document held in a string.
pub fn parse_ntriples_str(
    input: &str,
) -> impl Iterator<Item = Result<TermTriple, ParseError>> + '_ {
    NTriplesParser::new(input.as_bytes())
}

/// Parses a Turtle document held in a string.
pub fn parse_turtle_str(input: &str) -> impl Iterator<Item = Result<TermTriple, ParseError>> + '_ {
    TurtleParser::new(input.as_bytes())
}

/// A little under the average line length of the BSBM, Wikipedia and
/// WordNet generators' N-Triples (119–141 bytes), so an output sized by it
/// rarely has to grow.
const TYPICAL_LINE_BYTES: usize = 96;

/// Parses N-Triples from `reader` and dictionary-encodes every triple —
/// the paper's *input manager* path (parse → intern → encoded triple).
pub fn load_ntriples<R: BufRead>(
    mut reader: R,
    dict: &Dictionary,
) -> Result<Vec<Triple>, ParseError> {
    // Size the output by the bytes already buffered: the whole document
    // for an in-memory reader, one buffer's worth for a file. A read error
    // is left to the parser, which reports it with its line.
    let buffered = reader.fill_buf().map_or(0, |b| b.len());
    let mut out = Vec::with_capacity(buffered / TYPICAL_LINE_BYTES);
    for t in NTriplesParser::new(reader) {
        out.push(dict.encode_triple_owned(t?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_from_extension() {
        assert_eq!(Format::from_extension("ttl"), Format::Turtle);
        assert_eq!(Format::from_extension("TTL"), Format::Turtle);
        assert_eq!(Format::from_extension("turtle"), Format::Turtle);
        assert_eq!(Format::from_extension("nt"), Format::NTriples);
        assert_eq!(Format::from_extension("xyz"), Format::NTriples);
    }

    #[test]
    fn load_ntriples_encodes() {
        let dict = Dictionary::new();
        let doc = "<http://e/s> <http://e/p> <http://e/o> .\n\
                   <http://e/s> <http://e/p> \"lit\" .\n";
        let triples = load_ntriples(doc.as_bytes(), &dict).unwrap();
        assert_eq!(triples.len(), 2);
        assert_eq!(triples[0].s, triples[1].s);
        assert_ne!(triples[0].o, triples[1].o);
    }

    #[test]
    fn parse_dispatches_both_formats() {
        let nt = "<http://e/s> <http://e/p> <http://e/o> .\n";
        let ttl = "@prefix e: <http://e/> . e:s e:p e:o .\n";
        let a: Vec<_> = parse(std::io::Cursor::new(nt.to_owned()), Format::NTriples)
            .collect::<Result<_, _>>()
            .unwrap();
        let b: Vec<_> = parse(std::io::Cursor::new(ttl.to_owned()), Format::Turtle)
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(a, b);
    }
}
