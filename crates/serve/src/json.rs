//! A minimal, dependency-free JSON value with parser and writer.
//!
//! The service speaks newline-delimited JSON, in the same hand-rolled
//! spirit as the binary profile format (`ssim-core`'s `serialize.rs`)
//! and the obs JSON export: the build environment cannot fetch crates,
//! and the protocol surface is small enough that a few hundred lines of
//! recursive descent beat a vendored serde.
//!
//! Numbers are stored as `f64`. Every integer the protocol carries
//! (cycles, instruction counts, queue depths) is far below 2^53, so the
//! round trip is exact; 64-bit *hashes* are transported as fixed-width
//! hex strings instead (see [`Json::hex_u64`]). Floats are rendered
//! with Rust's shortest round-trippable formatting, so a value survives
//! encode → decode bit-identically — the loopback tests compare IPC
//! values for exact equality across the wire.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (see module docs for integer-exactness bounds).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on render.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// A `u64` encoded as a 16-digit hex string (exact at any width).
    pub fn hex_u64(v: u64) -> Json {
        Json::Str(format!("{v:016x}"))
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractions).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.007199254740992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// A hex-encoded `u64` (counterpart of [`Json::hex_u64`]).
    pub fn as_hex_u64(&self) -> Option<u64> {
        u64::from_str_radix(self.as_str()?, 16).ok()
    }

    /// Renders the value as compact single-line JSON (no interior
    /// newlines, so one value per line is a safe framing).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if n.is_finite() {
                    // `{}` on f64 is shortest-round-trip; integers render
                    // without a fraction ("42", not "42.0")? No — Rust
                    // prints "42" for 42.0_f64, which parses back fine.
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON value from `input` (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Maximum nesting depth accepted by the parser — the protocol nests
/// three levels at most; the bound keeps a hostile input from
/// overflowing the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected byte '{}' at {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            // Surrogate pairs are not needed by this
                            // protocol; map them to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run of plain bytes up to the next
                    // quote or backslash in one step. Both are ASCII, so
                    // they never fall inside a multi-byte scalar and the
                    // run of a `&str` input is valid UTF-8.
                    let run = &self.bytes[self.pos..];
                    let len = run
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(run.len());
                    let text = std::str::from_utf8(&run[..len])
                        .map_err(|_| format!("invalid UTF-8 at offset {}", self.pos))?;
                    out.push_str(text);
                    self.pos += len;
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_shapes() {
        let v = Json::obj(vec![
            ("null", Json::Null),
            ("t", Json::Bool(true)),
            ("n", Json::Num(42.0)),
            ("frac", Json::Num(0.1875)),
            ("s", Json::str("he\"llo\n\\world")),
            ("a", Json::Arr(vec![Json::Num(1.0), Json::str("x")])),
            ("o", Json::obj(vec![("k", Json::Num(-3.5))])),
        ]);
        let text = v.render();
        assert!(!text.contains('\n'), "framing requires single-line output");
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn floats_roundtrip_bit_exact() {
        for &x in &[0.1, 1.0 / 3.0, 2.0f64.powi(-40), 1234567890.123456, 6.02e23] {
            let text = Json::Num(x).render();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {text}");
        }
    }

    #[test]
    fn hex_u64_is_exact_at_any_magnitude() {
        for v in [0u64, 1, u64::MAX, 0x8000_0000_0000_0001] {
            assert_eq!(
                Json::parse(&Json::hex_u64(v).render())
                    .unwrap()
                    .as_hex_u64(),
                Some(v)
            );
        }
    }

    #[test]
    fn u64_accessor_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
        assert_eq!(Json::Num(7.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_fatal() {
        let deep = "[".repeat(1000) + &"]".repeat(1000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        use crate::proto::{Envelope, Request};
        // A 1 MiB source (the server's default size cap) with multi-byte
        // scalars and escapes spread through it.
        let line = ".text ; é ∑ \"q\" \\ tab\t\n".repeat(1 << 16);
        let source = line[..line.floor_char_boundary(1 << 20)].to_string();
        let text = Envelope {
            id: 1,
            deadline_ms: None,
            job: None,
            req: Request::Assemble {
                source: source.clone(),
            },
        }
        .render();
        let start = std::time::Instant::now();
        let parsed = Envelope::parse(&text).unwrap();
        let took = start.elapsed();
        match parsed.req {
            Request::Assemble { source: s } => assert_eq!(s, source),
            other => panic!("wrong kind: {other:?}"),
        }
        assert!(took.as_secs_f64() < 2.0, "1 MiB string took {took:?}");
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = Json::parse(" { \"a\" : [ 1 , \"\\u0041\\n\" ] } ").unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[1].as_str(),
            Some("A\n")
        );
    }
}
