//! A streaming N-Triples parser (W3C RDF 1.1 N-Triples).
//!
//! N-Triples is line-oriented: each non-blank, non-comment line holds
//! exactly one `subject predicate object .` statement. The parser reads the
//! input line by line and yields decoded [`TermTriple`]s, so arbitrarily
//! large documents parse in constant memory.
//!
//! ## Fast path and fallback
//!
//! Each line is read as bytes into one reused buffer and UTF-8-checked
//! once. Terms are then scanned byte by byte: an `<IRI>` or a `"lexical"`
//! form that runs to its closing byte with no `\` escape (and, for an IRI,
//! no byte the grammar forbids) is copied out of the line in one
//! exact-size allocation, and so is a language tag, which is ASCII.
//! Anything else — an escape, a forbidden byte, a term cut off by the end
//! of the line — rewinds to the start of the term and goes through the
//! character-level scanner, which decodes escapes and builds the error. So
//! both paths accept the same documents and yield the same terms, and a
//! rejected line reports the same `(line, column, message)` either way.
//! Columns are character offsets: the scanner keeps a byte offset and
//! counts characters only when it builds an error.

use crate::error::ParseError;
use slider_model::{Literal, Term, TermTriple};
use std::io::{self, BufRead};

/// Streaming N-Triples parser over any `BufRead`.
pub struct NTriplesParser<R> {
    reader: R,
    line_no: usize,
    buf: Vec<u8>,
    done: bool,
}

impl<R: BufRead> NTriplesParser<R> {
    /// Creates a parser reading from `reader`.
    pub fn new(reader: R) -> Self {
        NTriplesParser {
            reader,
            line_no: 0,
            buf: Vec::new(),
            done: false,
        }
    }
}

impl<R: BufRead> Iterator for NTriplesParser<R> {
    type Item = Result<TermTriple, ParseError>;

    /// One malformed line does not poison the iterator — the caller
    /// decides whether to stop. An I/O error, invalid UTF-8 included,
    /// ends it.
    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            self.buf.clear();
            self.line_no += 1;
            match self.reader.read_until(b'\n', &mut self.buf) {
                Ok(0) => {
                    self.done = true;
                    return None;
                }
                Ok(_) => {}
                Err(e) => {
                    self.done = true;
                    return Some(Err(ParseError::io(self.line_no, &e)));
                }
            }
            let Ok(text) = std::str::from_utf8(&self.buf) else {
                // What `BufRead::read_line` reports for the same bytes.
                self.done = true;
                let e = io::Error::new(
                    io::ErrorKind::InvalidData,
                    "stream did not contain valid UTF-8",
                );
                return Some(Err(ParseError::io(self.line_no, &e)));
            };
            let line = text.trim_end_matches(['\n', '\r']);
            let mut scan = Scanner::new(line, self.line_no);
            scan.skip_ws();
            if matches!(scan.peek_byte(), None | Some(b'#')) {
                continue; // blank line or comment
            }
            return Some(parse_statement(&mut scan));
        }
    }
}

fn parse_statement(scan: &mut Scanner<'_>) -> Result<TermTriple, ParseError> {
    let s = parse_subject(scan)?;
    scan.require_ws()?;
    scan.skip_ws();
    let p = parse_predicate(scan)?;
    scan.require_ws()?;
    scan.skip_ws();
    let o = parse_object(scan)?;
    scan.skip_ws();
    scan.expect('.')?;
    scan.skip_ws();
    if let Some(c) = scan.peek() {
        if c == '#' {
            // trailing comment is fine
        } else {
            return Err(scan.error(format!("unexpected trailing character {c:?} after '.'")));
        }
    }
    Ok((s, p, o))
}

fn parse_subject(scan: &mut Scanner<'_>) -> Result<Term, ParseError> {
    match scan.peek() {
        Some('<') => Ok(Term::Iri(scan.parse_iriref()?)),
        Some('_') => Ok(Term::Blank(scan.parse_blank_label()?)),
        Some(c) => Err(scan.error(format!(
            "expected IRI or blank node as subject, found {c:?}"
        ))),
        None => Err(scan.error("unexpected end of line while reading subject")),
    }
}

fn parse_predicate(scan: &mut Scanner<'_>) -> Result<Term, ParseError> {
    match scan.peek() {
        Some('<') => Ok(Term::Iri(scan.parse_iriref()?)),
        Some(c) => Err(scan.error(format!("expected IRI as predicate, found {c:?}"))),
        None => Err(scan.error("unexpected end of line while reading predicate")),
    }
}

fn parse_object(scan: &mut Scanner<'_>) -> Result<Term, ParseError> {
    match scan.peek() {
        Some('<') => Ok(Term::Iri(scan.parse_iriref()?)),
        Some('_') => Ok(Term::Blank(scan.parse_blank_label()?)),
        Some('"') => Ok(Term::Literal(scan.parse_literal()?)),
        Some(c) => Err(scan.error(format!(
            "expected IRI, blank node or literal as object, found {c:?}"
        ))),
        None => Err(scan.error("unexpected end of line while reading object")),
    }
}

/// True for the bytes that end the fast scan of an IRI: the closing `>`,
/// the escape introducer `\`, and every byte the IRI grammar forbids
/// unescaped. All are ASCII, so the scan always stops on a character
/// boundary.
fn iri_stop(b: u8) -> bool {
    b <= 0x20
        || matches!(
            b,
            b'>' | b'<' | b'"' | b'{' | b'}' | b'|' | b'^' | b'`' | b'\\'
        )
}

/// Scanner over a single line: a byte offset into the line, with byte-level
/// fast paths for clean terms and a character-level path for the rest.
pub(crate) struct Scanner<'a> {
    text: &'a str,
    /// Byte offset of the next unread character.
    pos: usize,
    line: usize,
}

impl<'a> Scanner<'a> {
    pub(crate) fn new(line_text: &'a str, line: usize) -> Self {
        Scanner {
            text: line_text,
            pos: 0,
            line,
        }
    }

    /// An error at the current position; the column is the 1-based
    /// character (not byte) offset.
    pub(crate) fn error(&self, message: impl Into<String>) -> ParseError {
        let column = self.text[..self.pos].chars().count() + 1;
        ParseError::new(self.line, column, message)
    }

    pub(crate) fn peek(&self) -> Option<char> {
        self.text[self.pos..].chars().next()
    }

    fn peek_byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    pub(crate) fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    /// The fast path for a term delimited by `open` and `close`: if the
    /// next byte is `open` and the first byte after it for which `stop`
    /// holds is `close`, the body between them is copied out in one
    /// exact-size allocation and the scanner moves past `close`. Otherwise
    /// nothing is consumed and the caller takes the character-level path.
    /// `stop` must hold for `close` and for no byte ≥ 0x80, so the body
    /// ends on a character boundary.
    fn clean_term(&mut self, open: u8, close: u8, stop: impl Fn(u8) -> bool) -> Option<String> {
        let rest = &self.text.as_bytes()[self.pos..];
        if rest.first() != Some(&open) {
            return None;
        }
        let len = rest[1..].iter().position(|&b| stop(b))?;
        if rest[1 + len] != close {
            return None;
        }
        let start = self.pos + 1;
        self.pos = start + len + 1;
        Some(self.text[start..start + len].to_owned())
    }

    pub(crate) fn expect(&mut self, want: char) -> Result<(), ParseError> {
        match self.bump() {
            Some(c) if c == want => Ok(()),
            Some(c) => Err(self.error(format!("expected {want:?}, found {c:?}"))),
            None => Err(self.error(format!("expected {want:?}, found end of line"))),
        }
    }

    pub(crate) fn skip_ws(&mut self) {
        while matches!(self.peek_byte(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    /// At least one whitespace character must separate triple components.
    pub(crate) fn require_ws(&mut self) -> Result<(), ParseError> {
        match self.peek_byte() {
            Some(b' ' | b'\t') => Ok(()),
            _ => Err(self.error("expected whitespace between triple components")),
        }
    }

    /// Parses `<iri>` with `\uXXXX`/`\UXXXXXXXX` escapes; returns the IRI
    /// without the angle brackets.
    pub(crate) fn parse_iriref(&mut self) -> Result<String, ParseError> {
        if let Some(iri) = self.clean_term(b'<', b'>', iri_stop) {
            return Ok(iri);
        }
        self.iriref_chars()
    }

    /// The character-level path of [`Self::parse_iriref`]: decodes escapes
    /// and reports the first malformed character.
    fn iriref_chars(&mut self) -> Result<String, ParseError> {
        self.expect('<')?;
        let mut iri = String::new();
        loop {
            match self.bump() {
                Some('>') => return Ok(iri),
                Some('\\') => match self.bump() {
                    Some('u') => iri.push(self.parse_hex_escape(4)?),
                    Some('U') => iri.push(self.parse_hex_escape(8)?),
                    Some(c) => return Err(self.error(format!("invalid IRI escape '\\{c}'"))),
                    None => return Err(self.error("unterminated IRI escape")),
                },
                Some(c)
                    if c == ' '
                        || c == '<'
                        || c == '"'
                        || c == '{'
                        || c == '}'
                        || c == '|'
                        || c == '^'
                        || c == '`'
                        || (c as u32) <= 0x20 =>
                {
                    return Err(
                        self.error(format!("character {c:?} must be escaped inside an IRI"))
                    );
                }
                Some(c) => iri.push(c),
                None => return Err(self.error("unterminated IRI (missing '>')")),
            }
        }
    }

    /// Parses `_:label`; returns the label.
    pub(crate) fn parse_blank_label(&mut self) -> Result<String, ParseError> {
        self.expect('_')?;
        self.expect(':')?;
        let mut label = String::new();
        // PN_CHARS with a permissive first-char rule (digits allowed, as in
        // N-Triples).
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' || c == '-' || c == '.' {
                // '.' may not terminate a label; the grammar allows medial
                // dots — including runs of them (`_:a..b`) — so keep a dot
                // only if a label character follows the whole run.
                if c == '.' {
                    let mut iter = self.text[self.pos..].chars();
                    iter.next(); // the current '.'
                    let keeps = loop {
                        match iter.next() {
                            Some('.') => {}
                            Some(n) if n.is_alphanumeric() || n == '_' || n == '-' => break true,
                            _ => break false,
                        }
                    };
                    if !keeps {
                        break;
                    }
                }
                label.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if label.is_empty() {
            return Err(self.error("empty blank node label"));
        }
        Ok(label)
    }

    /// Parses a quoted literal with optional `@lang` or `^^<datatype>`.
    pub(crate) fn parse_literal(&mut self) -> Result<Literal, ParseError> {
        let lexical = self.parse_quoted_string()?;
        match self.peek() {
            Some('@') => {
                self.bump();
                let rest = &self.text[self.pos..];
                let len = rest
                    .bytes()
                    .position(|b| !(b.is_ascii_alphanumeric() || b == b'-'))
                    .unwrap_or(rest.len());
                if len == 0 {
                    return Err(self.error("empty language tag"));
                }
                self.pos += len;
                Ok(Literal::lang(lexical, &rest[..len]))
            }
            Some('^') => {
                self.bump();
                self.expect('^')?;
                let dt = self.parse_iriref()?;
                Ok(Literal::typed(lexical, dt))
            }
            _ => Ok(Literal::plain(lexical)),
        }
    }

    /// Parses `"…"` decoding ECHAR and UCHAR escapes.
    pub(crate) fn parse_quoted_string(&mut self) -> Result<String, ParseError> {
        if let Some(lexical) = self.clean_term(b'"', b'"', |b| b == b'"' || b == b'\\') {
            return Ok(lexical);
        }
        self.quoted_string_chars()
    }

    /// The character-level path of [`Self::parse_quoted_string`].
    fn quoted_string_chars(&mut self) -> Result<String, ParseError> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some('"') => return Ok(out),
                Some('\\') => out.push(self.parse_escape_char()?),
                Some(c) => out.push(c),
                None => return Err(self.error("unterminated string literal")),
            }
        }
    }

    pub(crate) fn parse_escape_char(&mut self) -> Result<char, ParseError> {
        match self.bump() {
            Some('t') => Ok('\t'),
            Some('b') => Ok('\u{8}'),
            Some('n') => Ok('\n'),
            Some('r') => Ok('\r'),
            Some('f') => Ok('\u{c}'),
            Some('"') => Ok('"'),
            Some('\'') => Ok('\''),
            Some('\\') => Ok('\\'),
            Some('u') => self.parse_hex_escape(4),
            Some('U') => self.parse_hex_escape(8),
            Some(c) => Err(self.error(format!("invalid escape '\\{c}'"))),
            None => Err(self.error("unterminated escape sequence")),
        }
    }

    fn parse_hex_escape(&mut self, digits: u32) -> Result<char, ParseError> {
        let mut value: u32 = 0;
        for _ in 0..digits {
            let c = self
                .bump()
                .ok_or_else(|| self.error("unterminated \\u escape"))?;
            let d = c
                .to_digit(16)
                .ok_or_else(|| self.error(format!("invalid hex digit {c:?} in \\u escape")))?;
            value = value * 16 + d;
        }
        char::from_u32(value)
            .ok_or_else(|| self.error(format!("\\u escape U+{value:04X} is not a valid character")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(doc: &str) -> Vec<TermTriple> {
        NTriplesParser::new(doc.as_bytes())
            .collect::<Result<Vec<_>, _>>()
            .unwrap()
    }

    fn parse_err(doc: &str) -> ParseError {
        NTriplesParser::new(doc.as_bytes())
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err()
    }

    #[test]
    fn simple_triple() {
        let ts = parse_all("<http://e/s> <http://e/p> <http://e/o> .\n");
        assert_eq!(
            ts,
            vec![(
                Term::iri("http://e/s"),
                Term::iri("http://e/p"),
                Term::iri("http://e/o")
            )]
        );
    }

    #[test]
    fn blank_lines_and_comments_skipped() {
        let ts = parse_all(
            "# a comment\n\n   \n<http://e/s> <http://e/p> <http://e/o> . # trailing\n# end\n",
        );
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn blank_nodes_both_positions() {
        let ts = parse_all("_:a <http://e/p> _:b1.c .\n");
        assert_eq!(ts[0].0, Term::blank("a"));
        assert_eq!(ts[0].2, Term::blank("b1.c"));
    }

    #[test]
    fn blank_node_label_does_not_eat_final_dot() {
        let ts = parse_all("_:a <http://e/p> _:b .\n");
        assert_eq!(ts[0].2, Term::blank("b"));
        // No space before the dot: label must stop before '.'.
        let ts = parse_all("_:a <http://e/p> _:b.\n");
        assert_eq!(ts[0].2, Term::blank("b"));
    }

    #[test]
    fn blank_node_label_with_consecutive_medial_dots() {
        // Regression: `(PN_CHARS | '.')* PN_CHARS` allows dot runs inside a
        // label; only a trailing dot terminates the statement.
        let ts = parse_all("_:a..b <http://e/p> _:x.y..z .\n");
        assert_eq!(ts[0].0, Term::blank("a..b"));
        assert_eq!(ts[0].2, Term::blank("x.y..z"));
        let ts = parse_all("_:s <http://e/p> _:e..f.\n");
        assert_eq!(ts[0].2, Term::blank("e..f"));
    }

    #[test]
    fn plain_lang_and_typed_literals() {
        let ts = parse_all(concat!(
            "<http://e/s> <http://e/p> \"hello\" .\n",
            "<http://e/s> <http://e/p> \"bonjour\"@fr-BE .\n",
            "<http://e/s> <http://e/p> \"5\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
        ));
        assert_eq!(ts[0].2, Term::Literal(Literal::plain("hello")));
        assert_eq!(ts[1].2, Term::Literal(Literal::lang("bonjour", "fr-BE")));
        assert_eq!(
            ts[2].2,
            Term::Literal(Literal::typed(
                "5",
                "http://www.w3.org/2001/XMLSchema#integer"
            ))
        );
    }

    #[test]
    fn string_escapes() {
        let ts = parse_all(r#"<http://e/s> <http://e/p> "a\tb\nc\"d\\eé\U0001F600" ."#);
        assert_eq!(ts[0].2, Term::literal("a\tb\nc\"d\\eé😀"));
    }

    #[test]
    fn iri_escapes() {
        let ts = parse_all(r"<http://e/café> <http://e/p> <http://e/o> .");
        assert_eq!(ts[0].0, Term::iri("http://e/café"));
    }

    #[test]
    fn error_missing_dot() {
        let e = parse_err("<http://e/s> <http://e/p> <http://e/o>\n");
        assert_eq!(e.line, 1);
        assert!(e.message.contains("'.'"), "{}", e.message);
    }

    #[test]
    fn error_literal_subject_rejected() {
        let e = parse_err("\"lit\" <http://e/p> <http://e/o> .\n");
        assert!(e.message.contains("subject"), "{}", e.message);
    }

    #[test]
    fn error_literal_predicate_rejected() {
        let e = parse_err("<http://e/s> _:b <http://e/o> .\n");
        assert!(e.message.contains("predicate"), "{}", e.message);
    }

    #[test]
    fn error_reports_correct_line() {
        let e = parse_err("<http://e/s> <http://e/p> <http://e/o> .\nmalformed\n");
        assert_eq!(e.line, 2);
    }

    #[test]
    fn error_unterminated_iri() {
        let e = parse_err("<http://e/s <http://e/p> <http://e/o> .\n");
        assert!(
            e.message.contains("escaped") || e.message.contains("unterminated"),
            "{}",
            e.message
        );
    }

    #[test]
    fn error_bad_escape() {
        let e = parse_err(r#"<http://e/s> <http://e/p> "a\qb" ."#);
        assert!(e.message.contains("invalid escape"), "{}", e.message);
    }

    #[test]
    fn error_bad_unicode_escape() {
        let e = parse_err(r#"<http://e/s> <http://e/p> "\uD800" ."#);
        assert!(e.message.contains("not a valid character"), "{}", e.message);
    }

    #[test]
    fn invalid_utf8_is_an_io_error_on_its_line_and_ends_the_iterator() {
        let mut doc = b"<http://e/s> <http://e/p> <http://e/o> .\n".to_vec();
        doc.extend_from_slice(b"<http://e/s> <http://e/p> \"caf\xC3\x28\" .\n");
        doc.extend_from_slice(b"<http://e/s> <http://e/p> <http://e/o2> .\n");
        let items: Vec<_> = NTriplesParser::new(&doc[..]).collect();
        assert_eq!(items.len(), 2, "{items:?}");
        assert!(items[0].is_ok());
        let e = items[1].clone().unwrap_err();
        // The same error `BufRead::read_line` reports for the same bytes.
        let second_line = &doc[doc.iter().position(|&b| b == b'\n').unwrap() + 1..];
        let io =
            std::io::BufRead::read_line(&mut &second_line[..], &mut String::new()).unwrap_err();
        assert_eq!(e, ParseError::io(2, &io));
        assert_eq!(e.column, 0);
    }

    #[test]
    fn error_column_counts_characters_not_bytes() {
        // `é` is two bytes; the space inside `<a b>` is the 32nd character,
        // and the column points just past it.
        let e = parse_err("<http://e/café> <http://e/p> <a b> .\n");
        assert_eq!((e.line, e.column), (1, 33), "{e}");
        assert!(e.message.contains("must be escaped"), "{}", e.message);
    }

    #[test]
    fn unicode_escapes_decode_beside_clean_terms() {
        let ts = parse_all(concat!(
            r"<http://e/s> <http://e/caf\u00E9> <http://e/o> .",
            "\n",
            r#"<http://e/s> <http://e/p> "clean" ."#,
            "\n",
            r#"<http://e/\U0001F600s> <http://e/p> "a\u00E9b"@en ."#,
            "\n",
            r#"<http://e/s> <http://e/p> "x\u0041"^^<http://e/dt> ."#,
            "\n",
        ));
        assert_eq!(ts[0].1, Term::iri("http://e/café"));
        assert_eq!(ts[0].2, Term::iri("http://e/o"));
        assert_eq!(ts[1].2, Term::literal("clean"));
        assert_eq!(ts[2].0, Term::iri("http://e/😀s"));
        assert_eq!(ts[2].2, Term::Literal(Literal::lang("aéb", "en")));
        assert_eq!(ts[3].2, Term::Literal(Literal::typed("xA", "http://e/dt")));
    }

    #[test]
    fn crlf_line_endings() {
        let ts = parse_all("<http://e/s> <http://e/p> <http://e/o> .\r\n");
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn large_document_streams() {
        let mut doc = String::new();
        for i in 0..5_000 {
            doc.push_str(&format!("<http://e/s{i}> <http://e/p> <http://e/o{i}> .\n"));
        }
        assert_eq!(parse_all(&doc).len(), 5_000);
    }

    /// The byte-level fast paths must be invisible: on any input, a term
    /// parse yields the same value or error, and stops at the same byte,
    /// as the character-level scanner alone.
    mod fast_path {
        use super::*;
        use proptest::prelude::*;

        /// Characters that keep a term clean, beside every kind of byte
        /// that sends it to the character-level path.
        const ALPHABET: &[char] = &[
            'a', 'Z', '0', '9', ':', '/', '#', '.', 'é', '😀', 'u', 'U', 'E', 'F', '\\', '"', '<',
            '>', ' ', '\t', '{', '}', '|', '^', '`', '\r', '\u{1}', '@', '-',
        ];

        fn text() -> impl Strategy<Value = String> {
            prop::collection::vec(0usize..ALPHABET.len(), 0..24)
                .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
        }

        /// Runs `parse` on a fresh scanner over `text`: its result and the
        /// byte offset it stopped at.
        fn run<'a, T>(text: &'a str, parse: impl FnOnce(&mut Scanner<'a>) -> T) -> (T, usize) {
            let mut scan = Scanner::new(text, 1);
            let out = parse(&mut scan);
            (out, scan.pos)
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

            #[test]
            fn fast_paths_agree_with_the_char_scanner(body in text(), tail in text()) {
                for open in ['<', '"'] {
                    for close in ['>', '"'] {
                        let line = format!("{open}{body}{close}{tail}");
                        prop_assert_eq!(
                            run(&line, Scanner::parse_iriref),
                            run(&line, Scanner::iriref_chars),
                            "IRI {:?}",
                            line
                        );
                        prop_assert_eq!(
                            run(&line, Scanner::parse_quoted_string),
                            run(&line, Scanner::quoted_string_chars),
                            "literal {:?}",
                            line
                        );
                    }
                }
            }
        }
    }
}
