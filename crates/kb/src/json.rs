//! Minimal JSON values: construction, pretty-printing, parsing.
//!
//! The CLI, the benchmark harness and the config round-trip all need a
//! small amount of JSON. The build environment has no registry access,
//! so instead of a serde dependency this module provides a tiny value
//! type with a writer and a strict parser — enough for flat reports and
//! configuration objects, not a general serde replacement.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (serialized via shortest round-trip formatting).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from key/value pairs.
    pub fn obj(fields: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array from values.
    pub fn arr(values: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(values.into_iter().collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A number value.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Member of an object by key (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as a usize, if integral and in range.
    pub fn as_usize(&self) -> Option<usize> {
        let n = self.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0 && n <= usize::MAX as f64).then_some(n as usize)
    }

    /// The boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Serializes with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// Serializes on a single line with no whitespace — the framing the
    /// line-delimited socket protocols need (one JSON document per
    /// line; embedded newlines in strings are escaped by the writer).
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(values) => {
                out.push('[');
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(values) => {
                if values.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 1);
                    v.write(out, indent + 1);
                }
                newline(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                newline(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document from raw bytes: strict UTF-8 validation
    /// first (a readable error instead of a panic or lossy decode),
    /// then [`Json::parse`]. This is the entry point for protocol
    /// front-ends that frame bytes off a socket — the HTTP body and
    /// line-JSON paths both funnel through it, so "invalid UTF-8 in a
    /// request" is one error shape everywhere.
    pub fn parse_bytes(bytes: &[u8]) -> Result<Json, String> {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| format!("invalid UTF-8 in JSON document: {e}"))?;
        Json::parse(text)
    }

    /// Parses a JSON document (strict; trailing content is an error).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn newline(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, n: f64) {
    if n.is_finite() {
        // `{:?}` is Rust's shortest round-trip float formatting; strip
        // the ".0" suffix for integral values so counts stay integers.
        let s = format!("{n:?}");
        let _ = write!(out, "{}", s.strip_suffix(".0").unwrap_or(&s));
    } else {
        out.push_str("null");
    }
}

fn write_str(out: &mut String, s: &str) {
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

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while self
            .bytes()
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn eat(&mut self, token: &str) -> Result<(), String> {
        if self.bytes()[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            Ok(())
        } else {
            Err(format!("expected {token:?} at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.eat("null").map(|()| Json::Null),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes()[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes()
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let code = u32::from_str_radix(std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?, 16)
            .map_err(|_| "bad \\u escape")?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Combine UTF-16 surrogate pairs (how
                            // standard serializers escape non-BMP
                            // characters).
                            let scalar = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes().get(self.pos) == Some(&b'\\')
                                    && self.bytes().get(self.pos + 1) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if (0xDC00..0xE000).contains(&low) {
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                                    } else {
                                        return Err(format!(
                                            "unpaired surrogate \\u{code:04x} before \\u{low:04x}"
                                        ));
                                    }
                                } else {
                                    return Err(format!("unpaired surrogate \\u{code:04x}"));
                                }
                            } else {
                                code
                            };
                            out.push(char::from_u32(scalar).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // Copy the unescaped run up to the next quote or
                    // backslash in one go. Both are ASCII, so the run
                    // starts and ends on character boundaries.
                    let run = &self.text[self.pos..];
                    let len = run.find(['"', '\\']).unwrap_or(run.len());
                    out.push_str(&run[..len]);
                    self.pos += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat("[")?;
        let mut values = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(values));
        }
        loop {
            self.skip_ws();
            values.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(values));
                }
                other => return Err(format!("expected , or ] but got {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat("{")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(":")?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected , or }} but got {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_round_trips() {
        let v = Json::obj([
            ("name", Json::str("kri \"kri\" taverna")),
            ("count", Json::num(3u32)),
            ("ratio", Json::Num(0.6)),
            ("flag", Json::Bool(true)),
            ("nothing", Json::Null),
            ("list", Json::arr([Json::num(1u32), Json::num(2u32)])),
            ("empty", Json::arr([])),
        ]);
        let text = v.pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn compact_is_single_line_and_round_trips() {
        let v = Json::obj([
            ("s", Json::str("multi\nline \u{1}ctrl \"q\"")),
            ("n", Json::Num(2.5)),
            (
                "a",
                Json::arr([Json::Null, Json::Bool(false), Json::str("x")]),
            ),
            ("o", Json::obj([("inner", Json::num(1u32))])),
            ("e", Json::arr([])),
        ]);
        let line = v.compact();
        assert!(!line.contains('\n'), "compact output must be one line");
        assert_eq!(Json::parse(&line).unwrap(), v);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for f in [0.6, 1.025, 1e-9, 123456.789, f64::MIN_POSITIVE] {
            let text = Json::Num(f).pretty();
            assert_eq!(Json::parse(&text).unwrap().as_f64(), Some(f), "{text}");
        }
    }

    #[test]
    fn integers_have_no_decimal_point() {
        assert_eq!(Json::num(42u32).pretty(), "42");
        assert_eq!(Json::Num(-7.0).pretty(), "-7");
    }

    #[test]
    fn accessors() {
        let v = Json::obj([("a", Json::num(2u32)), ("s", Json::str("x"))]);
        assert_eq!(v.get("a").and_then(Json::as_usize), Some(2));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert_eq!(Json::Num(1.5).as_usize(), None);
    }

    #[test]
    fn parses_nested_documents() {
        let v = Json::parse(r#"{"a": [1, {"b": "c\nd"}], "e": null}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Json::arr([Json::num(1u32), Json::obj([("b", Json::str("c\nd"))]),])
        );
        assert_eq!(v.get("e"), Some(&Json::Null));
    }

    #[test]
    fn unicode_strings_survive() {
        let v = Json::str("πολύ 🏛️");
        let back = Json::parse(&v.pretty()).unwrap();
        assert_eq!(back.as_str(), Some("πολύ 🏛️"));
        // Multi-byte characters on both sides of every escape: each
        // unescaped run is copied whole and must end exactly there.
        let text = "é\"ü\\ñ\n🏛\té";
        let wire = Json::str(text).compact();
        assert_eq!(wire, r#""é\"ü\\ñ\n🏛\té""#);
        assert_eq!(Json::parse(&wire).unwrap().as_str(), Some(text));
        assert_eq!(Json::parse(r#""ü\u00e9ü""#).unwrap().as_str(), Some("üéü"));
    }

    /// A `PATCH` body may be 4 MiB; the string reader once re-validated
    /// the whole remaining document per character, so parse time grew
    /// with the square of the size. Linear is 8× from 512 KiB to 4 MiB;
    /// quadratic is 64×.
    #[test]
    fn parse_time_is_linear_in_document_size() {
        fn string_heavy(bytes: usize) -> String {
            let mut doc = String::with_capacity(bytes + 128);
            doc.push_str(r#"{"deltas":["#);
            let mut i = 0usize;
            while doc.len() < bytes {
                if i > 0 {
                    doc.push(',');
                }
                let _ = write!(
                    doc,
                    r#"{{"uri":"a:r{i}","value":"Kri Kri Taverna №{i} \"Minos\" Ave\nHeraklion, Κρήτη"}}"#
                );
                i += 1;
            }
            doc.push_str("]}");
            doc
        }
        fn min_of_3(doc: &str) -> std::time::Duration {
            (0..3)
                .map(|_| {
                    let t0 = std::time::Instant::now();
                    let parsed = Json::parse(std::hint::black_box(doc)).unwrap();
                    let elapsed = t0.elapsed();
                    std::hint::black_box(parsed);
                    elapsed
                })
                .min()
                .expect("three runs")
        }
        let small = min_of_3(&string_heavy(512 << 10));
        let large = min_of_3(&string_heavy(4 << 20));
        assert!(
            large < small * 24,
            "512 KiB parses in {small:?}, 4 MiB in {large:?}: more than 24x"
        );
    }

    #[test]
    fn surrogate_pair_escapes_decode_to_one_character() {
        // U+1F3DB escaped the way standard serializers emit non-BMP
        // characters: a surrogate pair of \u escapes.
        let v = Json::parse(r#""\ud83c\udfdb""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F3DB}"));
        // BMP escapes still work.
        assert_eq!(Json::parse(r#""A""#).unwrap().as_str(), Some("A"));
        // Unpaired surrogates are rejected, not mangled.
        assert!(Json::parse(r#""\ud83c""#).is_err());
        assert!(Json::parse(r#""\ud83cA""#).is_err());
        assert!(Json::parse(r#""\udfdb""#).unwrap().as_str() == Some("\u{fffd}"));
    }

    #[test]
    fn parse_bytes_validates_utf8_before_parsing() {
        assert_eq!(
            Json::parse_bytes(br#"{"a": 1}"#).unwrap(),
            Json::obj([("a", Json::num(1u32))])
        );
        let err = Json::parse_bytes(b"{\"a\": \xff}").unwrap_err();
        assert!(err.contains("invalid UTF-8"), "{err}");
        assert!(Json::parse_bytes(b"{").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }
}
