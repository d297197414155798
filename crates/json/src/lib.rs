//! # bbs-json — minimal JSON codec and stable hashing
//!
//! A hand-rolled, std-only JSON layer shared by the serialization code in
//! `bbs-hw`/`bbs-models`/`bbs-sim`, the machine-readable bench outputs and
//! the `bbs-serve` wire protocol. The build environment has no registry
//! access (see `vendor/README.md`), so like the vendored shims this crate
//! implements exactly the surface the workspace needs:
//!
//! * [`Json`] — a value tree with insertion-ordered objects,
//! * [`Json::parse`] — a recursive-descent parser with a depth limit (it
//!   reads network input in `bbs-serve`); every string costs time linear
//!   in its length, and numbers follow RFC 8259's grammar (`01`, `1.`,
//!   `-.5` and `1.e5` are errors, though `f64::from_str` reads them),
//! * [`Json::validate`] and [`Json::parse_prefix`] — the same parser
//!   checking a document without building it, and parsing the value at
//!   the start of a longer text (`bbs-serve` reads a shard's reply head
//!   with the one and checks its result with the other),
//! * `Display` — compact serialization whose float formatting is Rust's
//!   shortest round-trip form, so `parse(v.to_string())` reproduces `v`
//!   bit-for-bit for every finite `f64`,
//! * [`fnv1a_64`] and its incremental form [`Fnv1a64`] — the stable hash
//!   used for content-addressed cache keys.
//!
//! Numbers are stored as `f64`; integers are exact up to 2^53, which the
//! simulator's cycle/traffic counters stay well below (asserted by
//! [`Json::from_u64`]).

use std::fmt;

/// Largest integer exactly representable in an `f64`.
pub const MAX_SAFE_INT: u64 = 1 << 53;

/// A JSON value. Object keys keep insertion order so serialized output is
/// deterministic (important for stable cache keys).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs (insertion order preserved).
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Wraps a string slice.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// Wraps a `u64`, asserting it is exactly representable.
    ///
    /// # Panics
    ///
    /// Panics if `v` exceeds 2^53 (would silently lose precision).
    pub fn from_u64(v: u64) -> Json {
        assert!(v <= MAX_SAFE_INT, "{v} exceeds exact f64 integer range");
        Json::Num(v as f64)
    }

    /// Wraps a `usize`, asserting it is exactly representable.
    pub fn from_usize(v: usize) -> Json {
        Json::from_u64(v as u64)
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_SAFE_INT as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as `usize`, if it is a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|v| v as usize)
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Parses a JSON document (one top-level value, surrounding whitespace
    /// allowed). Nesting is limited to 128 levels, time is linear in the
    /// input's length, and numbers must follow RFC 8259's grammar —
    /// suitable for untrusted network input.
    pub fn parse(input: &str) -> Result<Json, ParseError> {
        Parser::new(input, true).document()
    }

    /// Checks that `input` is a document [`Json::parse`] accepts without
    /// building it: the same parser with its value construction switched
    /// off, so it fails exactly where `parse` fails, with the same error.
    pub fn validate(input: &str) -> Result<(), ParseError> {
        Parser::new(input, false).document().map(drop)
    }

    /// Parses the value at the start of `input` (leading whitespace
    /// allowed) and returns it with the byte offset just past its last
    /// byte. Whatever follows is left unread, so a caller can check the
    /// rest of a longer text itself.
    pub fn parse_prefix(input: &str) -> Result<(Json, usize), ParseError> {
        let mut p = Parser::new(input, true);
        p.skip_ws();
        let v = p.value()?;
        Ok((v, p.pos))
    }

    /// Serializes with the given indent (compact when 0 — same as
    /// `to_string`).
    pub fn pretty(&self, indent: usize) -> String {
        let mut out = String::new();
        write_value(&mut out, self, indent, 0);
        out
    }

    /// A canonical form for hashing: objects with keys sorted recursively
    /// (in byte order; of duplicate keys the last one wins), serialized
    /// compactly. Two structurally equal values always produce the same
    /// canonical string regardless of key insertion order.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        write_canonical(&mut out, self);
        out
    }
}

/// Writes `v` compactly with every object's keys sorted, straight from
/// the tree: each object sorts references to its pairs (a stable sort, so
/// the last of equal keys can be kept), nothing is cloned.
fn write_canonical(out: &mut String, v: &Json) {
    match v {
        Json::Arr(items) => write_seq(out, items.len(), 0, 0, '[', ']', |out, i| {
            write_canonical(out, &items[i])
        }),
        Json::Obj(pairs) => {
            let mut sorted: Vec<&(String, Json)> = pairs.iter().collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            sorted.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    *kept = *later;
                }
                same
            });
            write_seq(out, sorted.len(), 0, 0, '{', '}', |out, i| {
                write_string(out, &sorted[i].0);
                out.push(':');
                write_canonical(out, &sorted[i].1)
            })
        }
        scalar => write_value(out, scalar, 0, 0),
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_value(&mut out, self, 0, 0);
        f.write_str(&out)
    }
}

fn write_value(out: &mut String, v: &Json, indent: usize, level: usize) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => write_number(out, *n),
        Json::Str(s) => write_string(out, s),
        Json::Arr(items) => write_seq(out, items.len(), indent, level, '[', ']', |out, i| {
            write_value(out, &items[i], indent, level + 1)
        }),
        Json::Obj(pairs) => write_seq(out, pairs.len(), indent, level, '{', '}', |out, i| {
            write_string(out, &pairs[i].0);
            out.push(':');
            if indent > 0 {
                out.push(' ');
            }
            write_value(out, &pairs[i].1, indent, level + 1)
        }),
    }
}

fn write_seq(
    out: &mut String,
    n: usize,
    indent: usize,
    level: usize,
    open: char,
    close: char,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    for i in 0..n {
        if i > 0 {
            out.push(',');
        }
        if indent > 0 {
            out.push('\n');
            out.push_str(&" ".repeat(indent * (level + 1)));
        }
        item(out, i);
    }
    if indent > 0 && n > 0 {
        out.push('\n');
        out.push_str(&" ".repeat(indent * level));
    }
    out.push(close);
}

/// Integers print without a fractional part; everything else uses Rust's
/// shortest round-trip float formatting, so `parse` recovers the exact
/// `f64` bits. Non-finite values have no JSON representation and fall back
/// to `null` (they never occur in the simulator's outputs).
fn write_number(out: &mut String, n: f64) {
    use fmt::Write;
    if !n.is_finite() {
        out.push_str("null");
    } else if n == 0.0 && n.is_sign_negative() {
        // The integer branch would print "0" and lose the sign bit.
        out.push_str("-0");
    } else if n.fract() == 0.0 && n.abs() < MAX_SAFE_INT as f64 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

const MAX_DEPTH: usize = 128;

/// The one JSON grammar. With `build` off it checks the input without
/// constructing anything: containers and strings are scanned but not
/// collected, and every value comes back as [`Json::Null`].
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    build: bool,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str, build: bool) -> Self {
        Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
            build,
        }
    }

    /// One top-level value with optional surrounding whitespace.
    fn document(&mut self) -> Result<Json, ParseError> {
        self.skip_ws();
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            pos: self.pos,
            message: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(self.string()?.map_or(Json::Null, Json::Str)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            let item = self.value()?;
            if self.build {
                items.push(item);
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            if let Some(key) = key {
                pairs.push((key, val));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// A string literal: `Some(text)` when building, `None` when only
    /// checking. Each run of plain bytes up to the next quote, backslash
    /// or control byte is checked and copied in one piece. All three stop
    /// bytes are ASCII, so every run ends on a char boundary, and the scan
    /// is linear in the string's length.
    fn string(&mut self) -> Result<Option<String>, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(self.build.then_some(s));
                }
                Some(b'\\') => {
                    let c = self.escape()?;
                    if self.build {
                        s.push(c);
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(rest.len());
                    let run =
                        std::str::from_utf8(&rest[..len]).map_err(|_| self.err("bad utf-8"))?;
                    if self.build {
                        s.push_str(run);
                    }
                    self.pos += len;
                }
            }
        }
    }

    /// One backslash escape, backslash included, as the char it stands for.
    fn escape(&mut self) -> Result<char, ParseError> {
        self.pos += 1;
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let hi = self.hex4()?;
                if !(0xd800..0xdc00).contains(&hi) {
                    return char::from_u32(hi).ok_or_else(|| self.err("bad escape"));
                }
                // Surrogate pair: require \uXXXX low half.
                if self.peek() != Some(b'\\') {
                    return Err(self.err("lone high surrogate"));
                }
                self.pos += 1;
                self.expect(b'u')?;
                let lo = self.hex4()?;
                if !(0xdc00..0xe000).contains(&lo) {
                    return Err(self.err("invalid low surrogate"));
                }
                let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                return char::from_u32(code).ok_or_else(|| self.err("bad surrogate"));
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    /// A number in RFC 8259's grammar: `-? (0 | [1-9][0-9]*)
    /// (.[0-9]+)? ([eE][+-]?[0-9]+)?`. A leading zero stands alone (the
    /// `1` of `01` is then a stray character), and a fraction or exponent
    /// needs at least one digit. Every text that passes is an `f64`
    /// literal Rust reads, so a check-only parse stops there.
    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.skip_digits();
            }
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !self.skip_digits() {
                return Err(self.err("invalid number"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.skip_digits() {
                return Err(self.err("invalid number"));
            }
        }
        if !self.build {
            return Ok(Json::Null);
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }

    /// Skips a run of digits; whether there was one.
    fn skip_digits(&mut self) -> bool {
        let from = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos > from
    }
}

/// 64-bit FNV-1a — a stable, dependency-free hash whose value never
/// changes across runs, platforms or library versions, unlike
/// `std::hash::DefaultHasher`. Used for content-addressed cache keys.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.write(bytes);
    h.finish()
}

/// [`fnv1a_64`] fed in parts: writing several byte strings in turn gives
/// the hash of their concatenation, so a key over a long shared text and
/// a few short fields needs no buffer that joins them.
#[derive(Debug, Clone)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    /// The hash of nothing yet (the FNV offset basis).
    pub const fn new() -> Fnv1a64 {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }

    /// Hashes `bytes` after everything written so far.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of every byte written.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64::new()
    }
}

// ---- decode helpers -------------------------------------------------------
//
// Field accessors returning uniform String errors; shared by the
// `from_json` layers in bbs-hw / bbs-models / bbs-sim.

/// Fetches a required object field.
pub fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

/// Fetches a required *finite* `f64` field. Overflowing literals like
/// `1e999` parse to infinity, which no decoded quantity in this workspace
/// may hold — admitting one would propagate inf/NaN through the simulator
/// into un-round-trippable output, so it is rejected here, at the single
/// choke point every `from_json` layer goes through.
pub fn field_f64(obj: &Json, key: &str) -> Result<f64, String> {
    field(obj, key)?
        .as_f64()
        .filter(|v| v.is_finite())
        .ok_or_else(|| format!("field '{key}' must be a finite number"))
}

/// Fetches a required non-negative integer field.
pub fn field_u64(obj: &Json, key: &str) -> Result<u64, String> {
    field(obj, key)?
        .as_u64()
        .ok_or_else(|| format!("field '{key}' must be a non-negative integer"))
}

/// Fetches a required `usize` field.
pub fn field_usize(obj: &Json, key: &str) -> Result<usize, String> {
    Ok(field_u64(obj, key)? as usize)
}

/// Fetches a required string field.
pub fn field_str<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    field(obj, key)?
        .as_str()
        .ok_or_else(|| format!("field '{key}' must be a string"))
}

/// Fetches a required array field.
pub fn field_arr<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(obj, key)?
        .as_arr()
        .ok_or_else(|| format!("field '{key}' must be an array"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_basic_values() {
        for src in [
            "null",
            "true",
            "false",
            "0",
            "-17",
            "3.5",
            "\"hi\"",
            "[]",
            "[1,2,3]",
            "{}",
            "{\"a\":1,\"b\":[true,null]}",
        ] {
            let v = Json::parse(src).unwrap();
            assert_eq!(v.to_string(), src, "compact form is canonical");
            assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        }
    }

    #[test]
    fn floats_roundtrip_bit_exact() {
        for x in [
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1.234_567_890_123_456_7e18,
            -2.5e-7,
            9_007_199_254_740_991.0,
            -0.0,
        ] {
            let s = Json::Num(x).to_string();
            let back = Json::parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {s}");
        }
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::from_u64(12345).to_string(), "12345");
        assert_eq!(Json::Num(-3.0).to_string(), "-3");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
    }

    #[test]
    #[should_panic(expected = "exceeds exact")]
    fn oversized_u64_rejected() {
        let _ = Json::from_u64(u64::MAX);
    }

    #[test]
    fn string_escapes() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}".to_string());
        let s = v.to_string();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        assert_eq!(Json::parse(&s).unwrap(), v);
    }

    #[test]
    fn multibyte_text_between_escapes() {
        // Runs of multibyte text end at an escape, and the next run starts
        // right after it: no char may be split or skipped.
        let v = Json::parse("\"é\\u00e9日\\n本\\ud83d\\ude00語\\\\€\\\"\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "éé日\n本\u{1f600}語\\€\"");
        let text = Json::Str("ß\"日本\\\n語\u{1f600}x\t€\u{1f}".to_string());
        assert_eq!(Json::parse(&text.to_string()).unwrap(), text);
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        assert_eq!(
            Json::parse("\"\\u00e9\"").unwrap().as_str().unwrap(),
            "\u{e9}"
        );
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap().as_str().unwrap(),
            "\u{1f600}"
        );
        assert!(Json::parse("\"\\ud83d\"").is_err(), "lone surrogate");
    }

    #[test]
    fn object_accessors() {
        let v = Json::parse("{\"n\":4096,\"s\":\"x\",\"f\":1.5,\"b\":true,\"a\":[1]}").unwrap();
        assert_eq!(v.get("n").unwrap().as_usize(), Some(4096));
        assert_eq!(field_str(&v, "s").unwrap(), "x");
        assert_eq!(field_f64(&v, "f").unwrap(), 1.5);
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(field_arr(&v, "a").unwrap().len(), 1);
        assert!(field(&v, "zz").is_err());
        assert!(field_u64(&v, "f").is_err(), "1.5 is not an integer");
        let inf = Json::parse("{\"x\":1e999}").unwrap();
        assert_eq!(inf.get("x").unwrap().as_f64(), Some(f64::INFINITY));
        assert!(field_f64(&inf, "x").is_err(), "non-finite rejected");
    }

    #[test]
    fn parse_errors_carry_position() {
        let e = Json::parse("{\"a\":}").unwrap_err();
        assert_eq!(e.pos, 5);
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("12 34").is_err(), "trailing characters");
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn depth_limit_enforced() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn canonical_sorts_keys_recursively() {
        let a = Json::parse("{\"b\":1,\"a\":{\"z\":1,\"y\":2}}").unwrap();
        let b = Json::parse("{\"a\":{\"y\":2,\"z\":1},\"b\":1}").unwrap();
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.canonical(), "{\"a\":{\"y\":2,\"z\":1},\"b\":1}");
    }

    /// The canonical bytes every cache key hashes, written out: keys in
    /// byte order (`"Z" < "a" < "é"`), the last of duplicate keys wins,
    /// objects inside arrays are sorted too, `-0` keeps its sign and
    /// escapes are re-emitted in the writer's form.
    #[test]
    fn canonical_bytes_are_pinned() {
        let v = Json::parse(
            "{\"b\":[{\"z\":1,\"a\":-0,\"z\":[3]},{\"y\":\"q\\\"\\\\\\n\\u0001\\/é\"}],\
             \"é\":true,\"a\":1,\"Z\":null,\"a\":{\"k\":2.5,\"j\":[]}}",
        )
        .unwrap();
        assert_eq!(
            v.canonical(),
            "{\"Z\":null,\"a\":{\"j\":[],\"k\":2.5},\
             \"b\":[{\"a\":-0,\"z\":[3]},{\"y\":\"q\\\"\\\\\\n\\u0001/é\"}],\"é\":true}"
        );
    }

    #[test]
    fn pretty_output_reparses() {
        let v = Json::parse("{\"a\":[1,2],\"b\":{\"c\":null}}").unwrap();
        let p = v.pretty(2);
        assert!(p.contains('\n'));
        assert_eq!(Json::parse(&p).unwrap(), v);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
        let mut parts = Fnv1a64::new();
        for part in [&b"foo"[..], b"", b"b", b"ar"] {
            parts.write(part);
        }
        assert_eq!(parts.finish(), 0x85944171f73967e8);
    }

    /// RFC 8259 numbers only: no leading zero before more digits, no
    /// empty integer, fraction or exponent. `validate` refuses each at
    /// the same byte with the same message.
    #[test]
    fn non_rfc_numbers_are_rejected() {
        for (bad, pos) in [
            ("01", 1),
            ("1.", 2),
            ("-.5", 1),
            ("1.e5", 2),
            ("-", 1),
            ("1e", 2),
            ("1e+", 3),
            ("-01", 2),
            ("00", 1),
            ("[1.]", 3),
            ("{\"a\":01}", 6),
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert_eq!(err.pos, pos, "{bad}: {err}");
            assert_eq!(Json::validate(bad), Err(err), "{bad}");
        }
        for (good, value) in [
            ("0", 0.0f64),
            ("-0", -0.0),
            ("10", 10.0),
            ("0.5", 0.5),
            ("-0.5e-3", -0.0005),
            ("1e5", 1e5),
            ("1E+05", 1e5),
            ("0e0", 0.0),
            ("999999999999999", 999_999_999_999_999.0),
            ("-9007199254740993", -9_007_199_254_740_992.0),
            ("18446744073709551616", 18_446_744_073_709_551_616.0),
        ] {
            let v = Json::parse(good).unwrap().as_f64().unwrap();
            assert_eq!(v.to_bits(), value.to_bits(), "{good}");
            assert_eq!(Json::validate(good), Ok(()), "{good}");
        }
    }
}
