//! Hostile-input and equivalence properties of the JSON codec (vendored
//! proptest; `PROPTEST_CASES` raises the case count):
//!
//! * `parse` returns `Ok` or `Err` on any input and never panics:
//!   arbitrary bytes, and single-byte flips, truncations and insertions of
//!   three real documents (a `/simulate` reply, a request carrying a full
//!   model spec and a `/sweep` body, under `tests/fixtures`);
//! * on every such input `validate` agrees with `parse` (both `Ok`, or the
//!   same error at the same byte offset), and `parse_prefix` stops exactly
//!   where the value ends;
//! * numbers outside RFC 8259's grammar (`01`, `1.`, `-.5`, `1.e5`, `-`,
//!   `1e`, `1e+`) are errors wherever they stand in a real document;
//! * `parse(v.to_string()) == v` for random trees, floats compared by
//!   their bits, strings carrying multibyte text, escapes and control
//!   characters;
//! * string scanning is linear: long strings parse in milliseconds.

use bbs_json::Json;
use proptest::collection::vec;
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// Real documents: a `/simulate` reply (ViT-Small on BitVert (mod)), a
/// `/simulate` request with ResNet-34's full layer table, and a `/sweep`
/// body in the schema `sweep_spec_to_json` writes.
const DOCUMENTS: [&str; 3] = [
    include_str!("fixtures/simulate_reply.json"),
    include_str!("fixtures/simulate_request.json"),
    include_str!("fixtures/sweep_body.json"),
];

/// JSON's whitespace.
const WS: [char; 4] = [' ', '\t', '\n', '\r'];

/// Number spellings `f64::from_str` reads but RFC 8259 forbids: a leading
/// zero before more digits, an empty integer, fraction or exponent.
const NON_RFC_NUMBERS: [&str; 9] = [
    "01", "1.", "-.5", "1.e5", "-", "1e", "1e+", "-00.5", "2.E-3",
];

/// The byte ranges of the number tokens in `doc`, outside strings.
fn number_spans(doc: &str) -> Vec<(usize, usize)> {
    let bytes = doc.as_bytes();
    let (mut spans, mut in_string, mut i) = (Vec::new(), false, 0);
    while i < bytes.len() {
        let b = bytes[i];
        if in_string {
            match b {
                b'\\' => i += 1,
                b'"' => in_string = false,
                _ => {}
            }
        } else if b == b'"' {
            in_string = true;
        } else if b == b'-' || b.is_ascii_digit() {
            let start = i;
            while i < bytes.len()
                && matches!(bytes[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                i += 1;
            }
            spans.push((start, i));
            continue;
        }
        i += 1;
    }
    spans
}

/// Bytes that steer a parse somewhere: structure, escapes, number parts,
/// control and non-UTF-8 bytes.
const PUNCTUATION: &[u8] = b"{}[]:,\"\\/-+.eE0123456789tfnu \n\x00\x1f\x7f\xc3\xa9\xff";

/// Any byte, half of the time one from [`PUNCTUATION`].
fn hostile_byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        any::<u8>(),
        (0..PUNCTUATION.len()).prop_map(|i| PUNCTUATION[i]),
    ]
}

/// `doc` with one byte flipped (`kind` 0), cut off (1) or inserted (2)
/// at `at` (taken modulo the length), as text.
fn mutate(doc: &str, kind: usize, at: u64, byte: u8) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    let last = bytes.len() - 1;
    let i = (at % (bytes.len() as u64 + 1)) as usize;
    match kind {
        0 => bytes[i.min(last)] ^= byte.max(1),
        1 => bytes.truncate(i),
        _ => bytes.insert(i, byte),
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// What must hold on any input: `parse` returns, `validate` gives its
/// verdict and error, and `parse_prefix` ends where the value does.
fn assert_consistent(input: &str) {
    let parsed = Json::parse(input);
    assert_eq!(
        Json::validate(input),
        parsed.clone().map(drop),
        "validate disagrees with parse on {input:?}"
    );
    match Json::parse_prefix(input) {
        Err(e) => assert_eq!(parsed, Err(e), "prefix error differs on {input:?}"),
        Ok((v, end)) => {
            assert_eq!(Json::parse(&input[..end]), Ok(v.clone()), "{input:?}");
            let rest = input[end..].trim_start_matches(WS);
            match parsed {
                Ok(whole) => {
                    assert_eq!(whole, v);
                    assert_eq!(end, input.trim_end_matches(WS).len(), "{input:?}");
                }
                Err(e) => {
                    assert!(!rest.is_empty(), "{input:?}: {e}");
                    assert_eq!(e.pos, input.len() - rest.len(), "{input:?}");
                }
            }
        }
    }
}

/// Equality with floats compared by their bits (`-0.0 != 0.0` here).
fn same(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        (Json::Arr(x), Json::Arr(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| same(a, b))
        }
        (Json::Obj(x), Json::Obj(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((ka, va), (kb, vb))| ka == kb && same(va, vb))
        }
        _ => a == b,
    }
}

/// Characters for random strings: ASCII, two-, three- and four-byte
/// UTF-8, everything the writer escapes, and other control characters.
const ALPHABET: [char; 24] = [
    'a',
    'Z',
    '0',
    ' ',
    'é',
    'ß',
    '日',
    '€',
    '\u{1f600}',
    '\u{10ffff}',
    '\u{2028}',
    '\u{fffd}',
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{1}',
    '\u{8}',
    '\u{c}',
    '\u{1f}',
    '\u{7f}',
];

fn text(rng: &mut TestRng) -> String {
    (0..rng.below(12))
        .map(|_| ALPHABET[rng.below(ALPHABET.len())])
        .collect()
}

/// Finite floats: signed zeros, the extremes, subnormals, integers of
/// every width and arbitrary bit patterns.
fn float(rng: &mut TestRng) -> f64 {
    const EDGES: [f64; 10] = [
        0.0,
        -0.0,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        5e-324,
        -2.225_073_858_507_201e-308,
        9_007_199_254_740_992.0,
        -9_007_199_254_740_993.0,
        0.1,
    ];
    match rng.below(3) {
        0 => EDGES[rng.below(EDGES.len())],
        1 => (rng.next_u64() as i64 >> rng.below(64)) as f64,
        _ => loop {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                break x;
            }
        },
    }
}

/// Random trees of at most `depth` container levels.
struct Tree {
    depth: usize,
}

impl Strategy for Tree {
    type Value = Json;

    fn generate(&self, rng: &mut TestRng) -> Json {
        let kinds = if self.depth == 0 { 4 } else { 6 };
        let child = Tree {
            depth: self.depth.saturating_sub(1),
        };
        match rng.below(kinds) {
            0 => Json::Null,
            1 => Json::Bool(rng.next_u64() & 1 == 1),
            2 => Json::Num(float(rng)),
            3 => Json::Str(text(rng)),
            4 => Json::Arr((0..rng.below(5)).map(|_| child.generate(rng)).collect()),
            _ => Json::Obj(
                (0..rng.below(5))
                    .map(|_| (text(rng), child.generate(rng)))
                    .collect(),
            ),
        }
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_parse_or_fail_consistently(bytes in vec(hostile_byte(), 0..96)) {
        assert_consistent(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_documents_parse_or_fail_consistently(
        doc in 0usize..3,
        kind in 0usize..3,
        at in any::<u64>(),
        byte in hostile_byte(),
    ) {
        assert_consistent(&mutate(DOCUMENTS[doc], kind, at, byte));
    }

    #[test]
    fn prefix_parse_ends_at_the_document_end(
        doc in 0usize..3,
        tail in vec(hostile_byte(), 0..16),
    ) {
        let text = format!("{}{}", DOCUMENTS[doc], String::from_utf8_lossy(&tail));
        let (v, end) = Json::parse_prefix(&text).unwrap();
        prop_assert_eq!(end, DOCUMENTS[doc].len());
        prop_assert_eq!(v, Json::parse(DOCUMENTS[doc]).unwrap());
    }

    #[test]
    fn non_rfc_numbers_are_errors_in_any_document(
        doc in 0usize..3,
        at in any::<u64>(),
        form in 0usize..NON_RFC_NUMBERS.len(),
    ) {
        let spans = number_spans(DOCUMENTS[doc]);
        let (start, end) = spans[(at % spans.len() as u64) as usize];
        let text = format!(
            "{}{}{}",
            &DOCUMENTS[doc][..start],
            NON_RFC_NUMBERS[form],
            &DOCUMENTS[doc][end..]
        );
        prop_assert!(Json::parse(&text).is_err(), "{}", NON_RFC_NUMBERS[form]);
        assert_consistent(&text);
    }

    #[test]
    fn random_trees_roundtrip_bit_exact(v in Tree { depth: 4 }) {
        let text = v.to_string();
        let back = Json::parse(&text).unwrap();
        prop_assert!(same(&back, &v), "{text}");
        prop_assert!(same(&Json::parse(&v.pretty(2)).unwrap(), &v));
        prop_assert_eq!(Json::validate(&text), Ok(()));
        // A number only ends at a non-number byte, so the tail opens
        // with one.
        let (prefix, end) = Json::parse_prefix(&format!("{text},{text}")).unwrap();
        prop_assert!(same(&prefix, &v));
        prop_assert_eq!(end, text.len());
        // The key bytes are a fixed point of parse and canonical.
        let canonical = v.canonical();
        prop_assert_eq!(Json::parse(&canonical).unwrap().canonical(), canonical);
    }
}

/// The original documents themselves pass every check, and each holds
/// numbers for the non-RFC forms to replace.
#[test]
fn fixtures_are_valid_documents() {
    for doc in DOCUMENTS {
        assert!(Json::parse(doc).is_ok());
        assert_consistent(doc);
        assert!(number_spans(doc).len() > 10);
        for (start, end) in number_spans(doc) {
            assert!(
                Json::parse(&doc[start..end]).is_ok(),
                "{}",
                &doc[start..end]
            );
        }
    }
}

/// Linear-time guard. Before strings were scanned run by run, every
/// character re-validated the rest of the input, and the first document
/// took minutes.
#[test]
fn long_strings_parse_in_linear_time() {
    let run = "abcdefé日€\\n\\\"\\u00e9x";
    let long = format!("\"{}\"", run.repeat((4 << 20) / run.len()));
    let many = format!("[{}]", vec!["\"ab\""; (1 << 20) / 5].join(","));
    for doc in [long, many] {
        let started = Instant::now();
        let v = Json::parse(&doc).unwrap();
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(2),
            "{} bytes took {took:?}",
            doc.len()
        );
        assert!(matches!(v, Json::Str(_) | Json::Arr(_)));
    }
}
