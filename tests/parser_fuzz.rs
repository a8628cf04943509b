//! Fuzz smoke for the N-Triples parser: seeded random byte mutations of
//! generated BSBM text must each parse to `Ok` or `Err` line by line —
//! never panic — and whatever still parses must survive a writer round
//! trip. The parser slices `&str` by byte offsets on its fast path, so a
//! mutation that lands inside a multibyte character or next to a term
//! delimiter is exactly what this run looks for.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slider::parser::{parse_ntriples_str, write_triple, NTriplesParser};
use slider::prelude::TermTriple;
use slider::workloads::bsbm::{self, BsbmConfig};
use slider::workloads::to_ntriples;

const MUTATIONS: usize = 10_000;

/// Bytes the N-Triples grammar gives a meaning to, plus the lead and
/// continuation bytes of multibyte UTF-8 and bytes that are never UTF-8.
const INTERESTING: &[u8] = b"\\\"<>@^_:.#\n\r\t u\xC3\xA9\x80\xE2\xF0\xFF";

fn mutate(rng: &mut StdRng, bytes: &mut Vec<u8>) {
    let at = rng.random_range(0..bytes.len());
    let byte = if rng.random_range(0..2) == 0 {
        INTERESTING[rng.random_range(0..INTERESTING.len())]
    } else {
        rng.random_range(0..=255u8)
    };
    match rng.random_range(0..4) {
        0 => bytes[at] = byte,
        1 => bytes.insert(at, byte),
        2 => {
            bytes.remove(at);
        }
        _ => {
            // Duplicate a short run, e.g. a delimiter or half a character.
            let end = (at + rng.random_range(1..4)).min(bytes.len());
            let run = bytes[at..end].to_vec();
            bytes.splice(at..at, run);
        }
    }
}

#[test]
fn random_byte_mutations_of_bsbm_never_panic() {
    let text = to_ntriples(&bsbm::generate(&BsbmConfig::sized(2_000)));
    let lines: Vec<&str> = text.lines().collect();
    let clean: Vec<TermTriple> = parse_ntriples_str(&text)
        .collect::<Result<_, _>>()
        .expect("generated BSBM text parses");
    assert_eq!(clean.len(), lines.len());

    let mut rng = StdRng::seed_from_u64(0xf022_b5b0);
    let (mut parsed, mut rejected) = (0usize, 0usize);
    for case in 0..MUTATIONS {
        // A window of one to three consecutive lines, mutated one to
        // three times.
        let first = rng.random_range(0..lines.len());
        let last = (first + rng.random_range(1..4)).min(lines.len());
        let mut doc = lines[first..last].join("\n").into_bytes();
        doc.push(b'\n');
        for _ in 0..rng.random_range(1..4) {
            if !doc.is_empty() {
                mutate(&mut rng, &mut doc);
            }
        }

        let line_count = doc.split(|&b| b == b'\n').count();
        let mut items = NTriplesParser::new(&doc[..]);
        for item in items.by_ref() {
            match item {
                Ok(triple) => {
                    parsed += 1;
                    let mut written = String::new();
                    write_triple(&mut written, &triple);
                    let reparsed: Vec<TermTriple> = parse_ntriples_str(&written)
                        .collect::<Result<_, _>>()
                        .unwrap_or_else(|e| {
                            panic!("case {case}: {written:?} does not reparse: {e}")
                        });
                    assert_eq!(reparsed, [triple], "case {case}: round trip of {doc:?}");
                }
                Err(e) => {
                    rejected += 1;
                    assert!(
                        (1..=line_count).contains(&e.line),
                        "case {case}: error line {} outside {doc:?}",
                        e.line
                    );
                    if e.column == 0 {
                        // An I/O error (invalid UTF-8) ends the iterator.
                        assert!(e.message.starts_with("I/O error"), "case {case}: {e}");
                        break;
                    }
                }
            }
        }
        assert!(
            items.next().is_none(),
            "case {case}: iterator resumed after an I/O error"
        );
    }
    // Both outcomes must actually occur, or the mutations miss the parser.
    assert!(parsed > MUTATIONS / 2, "only {parsed} triples survived");
    assert!(
        rejected > MUTATIONS / 4,
        "only {rejected} lines were rejected"
    );
}
