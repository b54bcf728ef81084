//! Parsers for loading KBs from files.
//!
//! Two formats are supported:
//!
//! - A pragmatic **N-Triples subset**: `<s> <p> <o> .` and
//!   `<s> <p> "literal"(^^<dt>|@lang)? .` lines, `#` comments, blank lines.
//!   Datatype/language tags are dropped; the lexical form is kept.
//!   Numeric escapes (`\uXXXX`, `\UXXXXXXXX`) are decoded in **both**
//!   term kinds — literals and IRIs — with surrogate halves and
//!   out-of-range code points rejected with line-numbered errors.
//! - A simple **TSV** format used by the synthetic datasets:
//!   `subject \t predicate \t kind \t object` with `kind ∈ {uri, lit}`.
//!
//! Each format has two entry points:
//!
//! - a **whole-string** parser ([`parse_ntriples`], [`parse_tsv`]) for
//!   input already in memory, and
//! - a **streaming chunked** parser ([`parse_ntriples_reader`],
//!   [`parse_tsv_reader`]) that never materializes the input as one
//!   `String`: it reads line-aligned byte blocks, fans each block out
//!   over the executor into per-thread [`KbBuilder`]s (chunk-local
//!   interners, no shared state) and merges them in input order via
//!   [`KbBuilder::absorb`]. Because lines parse independently and the
//!   merge preserves first-seen order, the streaming parser produces a
//!   [`KnowledgeBase`] **identical** to the whole-string parser —
//!   including the error (line number and message) it reports on bad
//!   input. It returns a [`StreamError`], which also tells a reader
//!   failure from bad input. An executor carrying a cancel token stops
//!   the parse at its next chunk wave (see [`minoan_exec::cancel`]).

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::io::Read;

use minoan_exec::Executor;

use crate::model::{KbBuilder, KnowledgeBase};

/// A parse failure, with 1-based line number and description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Description of the failure.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Failure of a streaming parse: the input was bad, or the underlying
/// reader failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The input failed to parse. Parse failures are *permanent*: the
    /// same bytes fail the same way on every attempt.
    Parse(ParseError),
    /// The underlying reader failed mid-stream (or the
    /// `kb.parse.read` fault site injected a failure). IO failures are
    /// *transient* from the job supervisor's point of view: a retry
    /// against the same path may succeed. Carries the line the stream
    /// had reached and the IO error text.
    Io(ParseError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Parse(e) | StreamError::Io(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<ParseError> for StreamError {
    fn from(e: ParseError) -> Self {
        StreamError::Parse(e)
    }
}

/// Forgets whether the stream failed on bad input or on the reader,
/// for callers that only report the failure.
impl From<StreamError> for ParseError {
    fn from(e: StreamError) -> Self {
        match e {
            StreamError::Parse(e) | StreamError::Io(e) => e,
        }
    }
}

/// The failure's text, for callers that only report it.
impl From<StreamError> for String {
    fn from(e: StreamError) -> Self {
        e.to_string()
    }
}

/// Options for the streaming chunked parsers.
#[derive(Debug, Clone, Copy)]
pub struct StreamOptions {
    /// Target bytes handed to each worker per fan-out. The reader
    /// accumulates roughly `chunk_bytes × threads` of line-complete input
    /// before fanning a block out; chunk boundaries always land just
    /// after a newline, so no line (and therefore no UTF-8 sequence and
    /// no N-Triples escape) is ever split across workers.
    pub chunk_bytes: usize,
}

/// Default worker-chunk size of the streaming parsers (1 MiB).
pub const DEFAULT_CHUNK_BYTES: usize = 1 << 20;

impl Default for StreamOptions {
    fn default() -> Self {
        Self {
            chunk_bytes: DEFAULT_CHUNK_BYTES,
        }
    }
}

/// A parsed object term: a URI or a literal (borrowed unless escape
/// processing forced a copy).
enum ObjTerm<'a> {
    Uri(Cow<'a, str>),
    Literal(Cow<'a, str>),
}

// ---------------------------------------------------------------------
// N-Triples
// ---------------------------------------------------------------------

/// Parses N-Triples text into a KB named `name`.
pub fn parse_ntriples(name: &str, text: &str) -> Result<KnowledgeBase, ParseError> {
    let mut builder = KbBuilder::new(name);
    parse_ntriples_into(text, &mut builder)?;
    Ok(builder.finish())
}

/// Streams N-Triples from `reader` into a KB named `name`, parsing
/// line-aligned chunks in parallel on `exec`. Produces a KB identical to
/// [`parse_ntriples`] over the concatenated input.
pub fn parse_ntriples_reader<R: Read>(
    name: &str,
    reader: R,
    exec: &Executor,
    opts: StreamOptions,
) -> Result<KnowledgeBase, StreamError> {
    stream_parse(name, reader, exec, opts, parse_ntriples_into)
}

/// Parses every line of `text` into `builder`; returns the number of lines
/// seen. Error line numbers are 1-based relative to `text`.
fn parse_ntriples_into(text: &str, builder: &mut KbBuilder) -> Result<usize, ParseError> {
    let mut lines = 0usize;
    for (idx, raw_line) in text.lines().enumerate() {
        lines = idx + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (subject, rest) = parse_uri_term(line, lines)?;
        let rest = rest.trim_start();
        let (predicate, rest) = parse_uri_term(rest, lines)?;
        let rest = rest.trim_start();
        let (object, rest) = parse_object_term(rest, lines)?;
        let rest = rest.trim_start();
        if !rest.starts_with('.') {
            return Err(err(lines, "expected terminating '.'"));
        }
        match object {
            ObjTerm::Uri(u) => builder.add_uri(&subject, &predicate, &u),
            ObjTerm::Literal(l) => builder.add_literal(&subject, &predicate, &l),
        }
    }
    Ok(lines)
}

/// Parses one `<...>` IRI term. The scan looks for a **raw** `>` — a
/// numeric escape can only *decode* to `>`, never put one in the source
/// text, so the first raw `>` always terminates the term — and escapes
/// are decoded afterwards (the common escape-free IRI stays borrowed).
fn parse_uri_term(s: &str, line: usize) -> Result<(Cow<'_, str>, &str), ParseError> {
    let rest = s
        .strip_prefix('<')
        .ok_or_else(|| err(line, "expected '<' opening a URI term"))?;
    let end = rest
        .find('>')
        .ok_or_else(|| err(line, "unterminated URI term"))?;
    let body = &rest[..end];
    let uri = if body.contains('\\') {
        Cow::Owned(decode_uri_escapes(body, line)?)
    } else {
        Cow::Borrowed(body)
    };
    Ok((uri, &rest[end + 1..]))
}

/// Decodes `\uXXXX` / `\UXXXXXXXX` numeric escapes in an IRI body.
/// Other backslash sequences are kept verbatim (Web data is messy and
/// the lexical form is all we need), mirroring the literal policy.
fn decode_uri_escapes(body: &str, line: usize) -> Result<String, ParseError> {
    let mut out = String::with_capacity(body.len());
    let mut chars = body.char_indices();
    while let Some((_, c)) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some((_, 'u')) => out.push(decode_numeric_escape(&mut chars, 'u', line)?),
            Some((_, 'U')) => out.push(decode_numeric_escape(&mut chars, 'U', line)?),
            Some((_, other)) => {
                out.push('\\');
                out.push(other);
            }
            None => return Err(err(line, "dangling escape in URI term")),
        }
    }
    Ok(out)
}

/// Decodes the digits of a numeric escape (`\uXXXX`: 4 hex digits,
/// `\UXXXXXXXX`: 8), with `chars` positioned just after the `u`/`U`.
/// Surrogate halves and code points beyond U+10FFFF are rejected — they
/// are not Unicode scalar values and silently keeping them verbatim
/// would corrupt every downstream tokenization of the term.
fn decode_numeric_escape(
    chars: &mut std::str::CharIndices<'_>,
    kind: char,
    line: usize,
) -> Result<char, ParseError> {
    let digits = if kind == 'u' { 4 } else { 8 };
    let mut code: u32 = 0;
    for _ in 0..digits {
        let Some((_, h)) = chars.next() else {
            return Err(err(line, format!("truncated \\{kind} escape")));
        };
        let Some(d) = h.to_digit(16) else {
            return Err(err(line, format!("bad hex digit {h:?} in \\{kind} escape")));
        };
        code = code * 16 + d;
    }
    if (0xD800..=0xDFFF).contains(&code) {
        return Err(err(
            line,
            format!("surrogate code point U+{code:04X} in \\{kind} escape"),
        ));
    }
    char::from_u32(code).ok_or_else(|| {
        err(
            line,
            format!("code point U+{code:X} in \\{kind} escape is beyond U+10FFFF"),
        )
    })
}

fn parse_object_term(s: &str, line: usize) -> Result<(ObjTerm<'_>, &str), ParseError> {
    if s.starts_with('<') {
        let (uri, rest) = parse_uri_term(s, line)?;
        return Ok((ObjTerm::Uri(uri), rest));
    }
    let rest = s
        .strip_prefix('"')
        .ok_or_else(|| err(line, "expected URI or literal object"))?;
    // Fast path: no escapes — borrow the literal straight from the line.
    // Both stop bytes are ASCII, so a byte scan finds the same index a
    // char scan would, without decoding.
    let stop = rest
        .bytes()
        .position(|b| b == b'"' || b == b'\\')
        .ok_or_else(|| err(line, "unterminated literal"))?;
    let (literal, end) = if rest.as_bytes()[stop] == b'"' {
        (Cow::Borrowed(&rest[..stop]), stop)
    } else {
        parse_escaped_literal(rest, line)?
    };
    let mut rest = &rest[end + 1..];
    // Skip datatype (^^<...>) or language (@lang) suffixes.
    if let Some(dt) = rest.strip_prefix("^^") {
        let (_, r) = parse_uri_term(dt, line)?;
        rest = r;
    } else if let Some(lang) = rest.strip_prefix('@') {
        let stop = lang
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .unwrap_or(lang.len());
        rest = &lang[stop..];
    }
    Ok((ObjTerm::Literal(literal), rest))
}

/// Slow path for literals containing escapes: processes `\n \t \r \" \\`
/// plus the numeric escapes `\uXXXX` / `\UXXXXXXXX`, which are decoded
/// to their scalar values (surrogate halves and out-of-range code points
/// are line-numbered errors). Unknown escapes are kept verbatim — Web
/// data is messy and the lexical form is all we need. Returns the
/// unescaped literal and the byte offset of the closing quote within
/// `rest`.
fn parse_escaped_literal(rest: &str, line: usize) -> Result<(Cow<'_, str>, usize), ParseError> {
    let mut out = String::new();
    let mut chars = rest.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((Cow::Owned(out), i)),
            '\\' => match chars.next() {
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'u')) => out.push(decode_numeric_escape(&mut chars, 'u', line)?),
                Some((_, 'U')) => out.push(decode_numeric_escape(&mut chars, 'U', line)?),
                Some((_, other)) => {
                    out.push('\\');
                    out.push(other);
                }
                None => return Err(err(line, "dangling escape in literal")),
            },
            c => out.push(c),
        }
    }
    Err(err(line, "unterminated literal"))
}

/// Serializes a KB to the N-Triples subset accepted by
/// [`parse_ntriples`], escaping `\ " \n \t \r` (plus other control
/// characters as `\uXXXX`) in literals and IRI-illegal characters
/// (whitespace, controls, `<>"{}|^` backtick and `\`) as `\uXXXX` in
/// URI terms, so every KB round-trips byte-identically.
pub fn to_ntriples(kb: &KnowledgeBase) -> String {
    let mut out = String::new();
    for e in kb.entities() {
        let uri = kb.entity_uri(e);
        for stmt in kb.statements(e) {
            let attr = kb.attr_name(stmt.attr);
            push_iri(&mut out, uri);
            out.push(' ');
            push_iri(&mut out, attr);
            out.push(' ');
            match &stmt.value {
                crate::model::Value::Literal(l) => {
                    out.push('"');
                    for c in l.chars() {
                        match c {
                            '\\' => out.push_str("\\\\"),
                            '"' => out.push_str("\\\""),
                            '\n' => out.push_str("\\n"),
                            '\t' => out.push_str("\\t"),
                            '\r' => out.push_str("\\r"),
                            c if (c as u32) < 0x20 => {
                                let _ = write!(out, "\\u{:04X}", c as u32);
                            }
                            c => out.push(c),
                        }
                    }
                    out.push('"');
                }
                crate::model::Value::Entity(n) => {
                    push_iri(&mut out, kb.entity_uri(*n));
                }
            }
            out.push_str(" .\n");
        }
    }
    out
}

/// Writes `<uri>`, escaping the characters the N-Triples IRIREF
/// production forbids (`#x00`–`#x20`, `<`, `>`, `"`, `{`, `}`, `|`,
/// `^`, backtick, `\`) as `\uXXXX` numeric escapes — the inverse of
/// [`decode_uri_escapes`], so URIs containing them survive a
/// serialize/parse round trip instead of producing unparseable output.
fn push_iri(out: &mut String, uri: &str) {
    out.push('<');
    for c in uri.chars() {
        match c {
            '\u{00}'..='\u{20}' | '<' | '>' | '"' | '{' | '}' | '|' | '^' | '`' | '\\' => {
                let _ = write!(out, "\\u{:04X}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('>');
}

// ---------------------------------------------------------------------
// TSV
// ---------------------------------------------------------------------

/// Parses the 4-column TSV format into a KB named `name`.
pub fn parse_tsv(name: &str, text: &str) -> Result<KnowledgeBase, ParseError> {
    let mut builder = KbBuilder::new(name);
    parse_tsv_into(text, &mut builder)?;
    Ok(builder.finish())
}

/// Streams TSV from `reader` into a KB named `name`, parsing
/// line-aligned chunks in parallel on `exec`. Produces a KB identical to
/// [`parse_tsv`] over the concatenated input.
pub fn parse_tsv_reader<R: Read>(
    name: &str,
    reader: R,
    exec: &Executor,
    opts: StreamOptions,
) -> Result<KnowledgeBase, StreamError> {
    stream_parse(name, reader, exec, opts, parse_tsv_into)
}

fn parse_tsv_into(text: &str, builder: &mut KbBuilder) -> Result<usize, ParseError> {
    let mut lines = 0usize;
    for (idx, raw_line) in text.lines().enumerate() {
        lines = idx + 1;
        let line = raw_line.trim_end_matches(['\r', '\n']);
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut cols = line.splitn(4, '\t');
        let subject = cols.next().filter(|s| !s.is_empty());
        let predicate = cols.next().filter(|s| !s.is_empty());
        let kind = cols.next();
        let object = cols.next();
        match (subject, predicate, kind, object) {
            (Some(s), Some(p), Some("uri"), Some(o)) => builder.add_uri(s, p, o),
            (Some(s), Some(p), Some("lit"), Some(o)) => builder.add_literal(s, p, o),
            (_, _, Some(k), _) if k != "uri" && k != "lit" => {
                return Err(err(lines, format!("unknown object kind {k:?}")))
            }
            _ => return Err(err(lines, "expected 4 tab-separated columns")),
        }
    }
    Ok(lines)
}

/// Serializes a KB to the TSV format accepted by [`parse_tsv`].
///
/// Round-trips entities and statements (modulo the uri-vs-literal
/// distinction for unresolvable URIs, which were already downgraded).
pub fn to_tsv(kb: &KnowledgeBase) -> String {
    let mut out = String::new();
    for e in kb.entities() {
        let uri = kb.entity_uri(e);
        for stmt in kb.statements(e) {
            let attr = kb.attr_name(stmt.attr);
            match &stmt.value {
                crate::model::Value::Literal(l) => {
                    out.push_str(uri);
                    out.push('\t');
                    out.push_str(attr);
                    out.push_str("\tlit\t");
                    out.push_str(&l.replace(['\t', '\n'], " "));
                    out.push('\n');
                }
                crate::model::Value::Entity(n) => {
                    out.push_str(uri);
                    out.push('\t');
                    out.push_str(attr);
                    out.push_str("\turi\t");
                    out.push_str(kb.entity_uri(*n));
                    out.push('\n');
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Streaming driver
// ---------------------------------------------------------------------

/// The chunked streaming driver shared by both formats.
///
/// Reads up to `chunk_bytes` at a time, accumulating raw bytes until
/// roughly `chunk_bytes × threads` of line-complete input is pending,
/// then fans the block out over `exec` (each worker parses a line-aligned
/// sub-chunk into a [`KbBuilder`] of its own) and absorbs the partials in
/// chunk order.
/// The trailing partial line is carried into the next block, so the full
/// input is never resident and every worker sees whole lines only.
///
/// A cancel token on `exec` is observed by every chunk wave, so a
/// cancelled parse unwinds with [`Cancelled`](minoan_exec::Cancelled)
/// within one wave of work and never produces a partially-merged KB
/// (an aborted wave's partials are simply dropped).
fn stream_parse<R, F>(
    name: &str,
    mut reader: R,
    exec: &Executor,
    opts: StreamOptions,
    parse_into: F,
) -> Result<KnowledgeBase, StreamError>
where
    R: Read,
    F: Fn(&str, &mut KbBuilder) -> Result<usize, ParseError> + Sync,
{
    let chunk_bytes = opts.chunk_bytes.max(1);
    let batch_bytes = chunk_bytes.saturating_mul(exec.threads().max(1));
    let mut builder = KbBuilder::new(name);
    let mut pending: Vec<u8> = Vec::new();
    let mut lines_done = 0usize;
    loop {
        minoan_exec::faults::point("kb.parse.read")
            .map_err(|e| StreamError::Io(err(lines_done + 1, format!("read error: {e}"))))?;
        // Up to one chunk straight into the pending bytes: no staging
        // buffer, and a small file costs no more than its own size.
        let n = (&mut reader)
            .take(chunk_bytes as u64)
            .read_to_end(&mut pending)
            .map_err(|e| StreamError::Io(err(lines_done + 1, format!("read error: {e}"))))?;
        if n == 0 {
            break;
        }
        if pending.len() >= batch_bytes {
            // Cut at the last complete line; carry the tail. A pending
            // buffer with no newline yet (one enormous line) keeps
            // accumulating until its newline arrives.
            if let Some(pos) = pending.iter().rposition(|&b| b == b'\n') {
                let tail = pending.split_off(pos + 1);
                let block = std::mem::replace(&mut pending, tail);
                lines_done += parse_block(&block, &mut builder, exec, lines_done, &parse_into)?;
            }
        }
    }
    if !pending.is_empty() {
        let block = std::mem::take(&mut pending);
        parse_block(&block, &mut builder, exec, lines_done, &parse_into)?;
    }
    Ok(builder.finish())
}

/// Parses one line-complete block: fans line-aligned sub-chunks out over
/// the executor, then absorbs the per-chunk partials in chunk order.
/// Returns the number of lines in the block; errors are rebased from
/// chunk-relative to absolute line numbers, and the earliest failing
/// chunk wins — exactly the line the sequential parser would report.
fn parse_block<F>(
    block: &[u8],
    builder: &mut KbBuilder,
    exec: &Executor,
    line_offset: usize,
    parse_into: &F,
) -> Result<usize, ParseError>
where
    F: Fn(&str, &mut KbBuilder) -> Result<usize, ParseError> + Sync,
{
    let align = |p: usize| {
        block[p..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|off| p + off + 1)
            .unwrap_or(block.len())
    };
    let results: Vec<Result<(KbBuilder, usize), ParseError>> =
        exec.map_chunks(block.len(), align, |range| {
            let bytes = &block[range];
            let text = std::str::from_utf8(bytes).map_err(|e| {
                let bad_line = 1 + count_newlines(&bytes[..e.valid_up_to()]);
                err(bad_line, "invalid UTF-8 in input")
            })?;
            let mut chunk = KbBuilder::default();
            let lines = parse_into(text, &mut chunk)?;
            Ok((chunk, lines))
        });
    let mut lines = 0usize;
    for result in results {
        match result {
            Ok((chunk, chunk_lines)) => {
                builder.absorb(chunk);
                lines += chunk_lines;
            }
            Err(mut e) => {
                e.line += line_offset + lines;
                return Err(e);
            }
        }
    }
    Ok(lines)
}

fn count_newlines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_ntriples() {
        let text = r#"
# a comment
<http://a/r1> <http://v/name> "Kri Kri" .
<http://a/r1> <http://v/address> <http://a/addr1> .
<http://a/addr1> <http://v/street> "12 Minos Ave"@en .
<http://a/addr1> <http://v/zip> "71202"^^<http://www.w3.org/2001/XMLSchema#string> .
"#;
        let kb = parse_ntriples("t", text).unwrap();
        assert_eq!(kb.entity_count(), 2);
        assert_eq!(kb.triple_count(), 4);
        let r1 = kb.entity_by_uri("http://a/r1").unwrap();
        assert!(kb.literals(r1).any(|l| l == "Kri Kri"));
        assert_eq!(kb.out_edges(r1).count(), 1);
        let a1 = kb.entity_by_uri("http://a/addr1").unwrap();
        assert!(kb.literals(a1).any(|l| l == "71202"));
    }

    #[test]
    fn literal_escapes() {
        let text = r#"<e:s> <e:p> "a \"quoted\" va\\lue\nnext" ."#;
        let kb = parse_ntriples("t", text).unwrap();
        let e = kb.entity_by_uri("e:s").unwrap();
        assert_eq!(kb.literals(e).next().unwrap(), "a \"quoted\" va\\lue\nnext");
    }

    #[test]
    fn unknown_escape_is_kept_verbatim() {
        let text = r#"<e:s> <e:p> "weird \q escape" ."#;
        let kb = parse_ntriples("t", text).unwrap();
        let e = kb.entity_by_uri("e:s").unwrap();
        assert_eq!(kb.literals(e).next().unwrap(), "weird \\q escape");
    }

    #[test]
    fn numeric_escapes_decode_in_literals() {
        // \u0041 = 'A', \u00e9 = 'é', \U0001F3DB = 🏛, \u0022 = '"'
        // (decoded quotes are content, not terminators).
        let text = r#"<e:s> <e:p> "\u0041lpha \u00e9 \U0001F3DB \u0022quoted\u0022" ."#;
        let kb = parse_ntriples("t", text).unwrap();
        let e = kb.entity_by_uri("e:s").unwrap();
        assert_eq!(kb.literals(e).next().unwrap(), "Alpha é 🏛 \"quoted\"");
    }

    #[test]
    fn numeric_escapes_decode_in_uri_terms() {
        // Subject, predicate and object IRIs all carry escapes; a
        // decoded \u003E ('>') must not terminate the term early. The
        // object URI also appears as a subject so it stays an entity.
        let text = "<e:\\u0073ubject> <e:p\\U00000072ed> <e:a\\u003Eb> .\n\
                    <e:a\\u003Eb> <e:p> \"v\" .\n";
        let kb = parse_ntriples("t", text).unwrap();
        let s = kb.entity_by_uri("e:subject").expect("subject decoded");
        assert!(kb.entity_by_uri("e:a>b").is_some(), "object decoded");
        assert_eq!(kb.out_edges(s).count(), 1);
    }

    #[test]
    fn surrogate_halves_are_line_numbered_errors() {
        for bad in [
            "<e:s> <e:p> \"x\\uD800y\" .", // high surrogate in literal
            "<e:s> <e:p> \"x\\uDFFFy\" .", // low surrogate in literal
            "<e:s\\uDC00> <e:p> \"ok\" .", // surrogate in IRI
            "<e:s> <e:p> \"\\U0001D800ok\" .\n<e:s> <e:p> \"\\uDabcy\" .", // line 2
        ] {
            let text = format!("<e:a> <e:p> \"fine\" .\n{bad}");
            let e = parse_ntriples("t", &text).unwrap_err();
            let expect_line = 1 + text.lines().count();
            assert_eq!(e.line + 1, expect_line, "{bad}: wrong line");
            assert!(e.message.contains("surrogate"), "{bad}: {}", e.message);
        }
    }

    #[test]
    fn out_of_range_and_malformed_numeric_escapes_are_errors() {
        let e = parse_ntriples("t", "<e:s> <e:p> \"\\U00110000\" .").unwrap_err();
        assert!(e.message.contains("beyond U+10FFFF"), "{}", e.message);
        let e = parse_ntriples("t", "<e:s> <e:p> \"\\u12G4\" .").unwrap_err();
        assert!(e.message.contains("bad hex digit"), "{}", e.message);
        let e = parse_ntriples("t", "<e:s> <e:p> \"\\u12").unwrap_err();
        assert!(e.message.contains("truncated \\u"), "{}", e.message);
        let e = parse_ntriples("t", "<e:s\\u00> <e:p> \"x\" .").unwrap_err();
        assert!(
            e.message.contains("bad hex digit") || e.message.contains("truncated"),
            "{}",
            e.message
        );
    }

    #[test]
    fn iris_with_forbidden_characters_round_trip_via_escapes() {
        // A URI containing '>' , '"', space and a backslash can only be
        // written with numeric escapes; serialization must regenerate
        // them instead of emitting unparseable raw characters.
        let text = "<e:a\\u003Eb\\u0020c\\u0022d\\u005C> <e:p> \"v\" .\n";
        let kb = parse_ntriples("t", text).unwrap();
        assert!(kb.entity_by_uri("e:a>b c\"d\\").is_some());
        let dumped = to_ntriples(&kb);
        let kb2 = parse_ntriples("t", &dumped).unwrap();
        assert_eq!(kb, kb2);
        assert_eq!(dumped, to_ntriples(&kb2), "serialization is stable");
    }

    #[test]
    fn control_characters_in_literals_round_trip() {
        let text = "<e:s> <e:p> \"bell\\u0007 esc\\u001b\" .\n";
        let kb = parse_ntriples("t", text).unwrap();
        let e = kb.entity_by_uri("e:s").unwrap();
        assert_eq!(kb.literals(e).next().unwrap(), "bell\u{7} esc\u{1b}");
        let dumped = to_ntriples(&kb);
        assert!(dumped.contains("\\u0007"), "controls re-escape: {dumped}");
        assert_eq!(kb, parse_ntriples("t", &dumped).unwrap());
    }

    #[test]
    fn cancelled_stream_parse_unwinds_cleanly() {
        use minoan_exec::{catch_cancel, CancelToken, Cancelled};
        let text = "s\tp\tlit\tv\n".repeat(100);
        let cancel = CancelToken::new();
        cancel.cancel();
        let exec = Executor::sequential().with_cancel(cancel);
        let unwound =
            catch_cancel(|| Ok(parse_tsv_reader("t", text.as_bytes(), &exec, tiny_opts(16))));
        assert_eq!(unwound, Err(Cancelled));
        // An executor with a live token parses normally.
        let exec = Executor::sequential().with_cancel(CancelToken::new());
        let kb = parse_tsv_reader("t", text.as_bytes(), &exec, tiny_opts(16)).unwrap();
        assert_eq!(kb.triple_count(), 100);
    }

    #[test]
    fn missing_dot_is_an_error() {
        let text = "<e:s> <e:p> <e:o>";
        let e = parse_ntriples("t", text).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("terminating"));
    }

    #[test]
    fn unterminated_literal_is_an_error() {
        let text = "<e:s> <e:p> \"oops .";
        let e = parse_ntriples("t", text).unwrap_err();
        assert!(e.message.contains("unterminated literal"));
        // Same failure through the escaped-literal slow path.
        let text = "<e:s> <e:p> \"oops \\t .";
        let e = parse_ntriples("t", text).unwrap_err();
        assert!(e.message.contains("unterminated literal"));
    }

    #[test]
    fn bad_subject_reports_line_number() {
        let text = "<e:a> <e:p> \"x\" .\nnot-a-uri <e:p> \"y\" .";
        let e = parse_ntriples("t", text).unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn tsv_round_trip() {
        let text = "s1\tname\tlit\tAlpha Beta\ns1\tknows\turi\ts2\ns2\tname\tlit\tGamma\n";
        let kb = parse_tsv("t", text).unwrap();
        assert_eq!(kb.entity_count(), 2);
        let dumped = to_tsv(&kb);
        let kb2 = parse_tsv("t2", &dumped).unwrap();
        assert_eq!(kb2.entity_count(), 2);
        assert_eq!(kb2.triple_count(), 3);
        let s1 = kb2.entity_by_uri("s1").unwrap();
        assert!(kb2.literals(s1).any(|l| l == "Alpha Beta"));
        assert_eq!(kb2.out_edges(s1).count(), 1);
    }

    #[test]
    fn ntriples_round_trip() {
        let text = "<e:s> <e:p> \"a \\\"q\\\" \\\\ tab\\there\" .\n<e:s> <e:q> <e:o> .\n<e:o> <e:p> \"plain\" .\n";
        let kb = parse_ntriples("t", text).unwrap();
        let dumped = to_ntriples(&kb);
        let kb2 = parse_ntriples("t", &dumped).unwrap();
        assert_eq!(kb, kb2);
        let s = kb2.entity_by_uri("e:s").unwrap();
        assert_eq!(kb2.literals(s).next().unwrap(), "a \"q\" \\ tab\there");
    }

    #[test]
    fn tsv_rejects_unknown_kind() {
        let e = parse_tsv("t", "s\tp\tblank\tx").unwrap_err();
        assert!(e.message.contains("unknown object kind"));
    }

    #[test]
    fn tsv_rejects_short_rows() {
        let e = parse_tsv("t", "s\tp\tlit").unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn tsv_object_may_contain_further_tabs_no() {
        // The object is the 4th column onward (splitn keeps the tail intact).
        let kb = parse_tsv("t", "s\tp\tlit\ta\tb").unwrap();
        let s = kb.entity_by_uri("s").unwrap();
        assert_eq!(kb.literals(s).next().unwrap(), "a\tb");
    }

    fn tiny_opts(chunk_bytes: usize) -> StreamOptions {
        StreamOptions { chunk_bytes }
    }

    fn execs() -> [Executor; 3] {
        use minoan_exec::ExecutorKind;
        [
            Executor::sequential(),
            Executor::new(ExecutorKind::Pool, 3),
            Executor::new(ExecutorKind::Pool, 7),
        ]
    }

    #[test]
    fn streaming_tsv_matches_whole_string() {
        let text = "s1\tname\tlit\tAlpha Beta\ns1\tknows\turi\ts2\ns2\tname\tlit\tGamma\n";
        let whole = parse_tsv("t", text).unwrap();
        for exec in execs() {
            for chunk_bytes in [1, 3, 7, 64, 4096] {
                let streamed =
                    parse_tsv_reader("t", text.as_bytes(), &exec, tiny_opts(chunk_bytes)).unwrap();
                assert_eq!(whole, streamed, "chunk_bytes={chunk_bytes}");
            }
        }
    }

    #[test]
    fn streaming_ntriples_matches_whole_string() {
        let text = "<e:s> <e:p> \"multi βψτε ütf\\n\\\"quoted\\\"\" .\n<e:s> <e:q> <e:o> .\n<e:o> <e:p> \"plain\" .\n";
        let whole = parse_ntriples("t", text).unwrap();
        for exec in execs() {
            for chunk_bytes in [1, 2, 7, 64] {
                let streamed =
                    parse_ntriples_reader("t", text.as_bytes(), &exec, tiny_opts(chunk_bytes))
                        .unwrap();
                assert_eq!(whole, streamed, "chunk_bytes={chunk_bytes}");
            }
        }
    }

    #[test]
    fn streaming_errors_carry_absolute_line_numbers() {
        let mut text = String::new();
        for i in 0..100 {
            text.push_str(&format!("s{i}\tname\tlit\tvalue {i}\n"));
        }
        text.push_str("broken row without enough columns\n");
        let whole = parse_tsv("t", &text).unwrap_err();
        assert_eq!(whole.line, 101);
        for exec in execs() {
            for chunk_bytes in [1, 17, 256] {
                let streamed =
                    parse_tsv_reader("t", text.as_bytes(), &exec, tiny_opts(chunk_bytes))
                        .unwrap_err();
                assert_eq!(
                    streamed,
                    StreamError::Parse(whole.clone()),
                    "chunk_bytes={chunk_bytes}"
                );
            }
        }
    }

    #[test]
    fn streaming_reports_earliest_error_like_sequential() {
        // Two bad lines; the earlier one must win even when they land in
        // different parallel chunks.
        let text = "s\tp\tlit\tok\nbad line one\nmore\tbad\tnope\tx\n";
        let whole = parse_tsv("t", text).unwrap_err();
        for exec in execs() {
            let streamed = parse_tsv_reader("t", text.as_bytes(), &exec, tiny_opts(4)).unwrap_err();
            assert_eq!(streamed, StreamError::Parse(whole.clone()));
        }
    }

    #[test]
    fn streaming_invalid_utf8_is_an_error_with_line() {
        let mut bytes = b"s\tp\tlit\tfine\n".to_vec();
        bytes.extend_from_slice(b"s\tp\tlit\t\xff\xfe\n");
        let e = parse_tsv_reader(
            "t",
            bytes.as_slice(),
            &Executor::sequential(),
            tiny_opts(4096),
        )
        .unwrap_err();
        let StreamError::Parse(e) = e else {
            panic!("bad bytes are a parse error, got {e:?}")
        };
        assert_eq!(e.line, 2);
        assert!(e.message.contains("UTF-8"));
    }

    #[test]
    fn streaming_handles_input_without_trailing_newline() {
        let text = "s1\tname\tlit\tAlpha\ns2\tname\tlit\tBeta";
        let whole = parse_tsv("t", text).unwrap();
        let streamed =
            parse_tsv_reader("t", text.as_bytes(), &Executor::sequential(), tiny_opts(5)).unwrap();
        assert_eq!(whole, streamed);
    }

    #[test]
    fn streaming_empty_input_is_an_empty_kb() {
        let kb = parse_tsv_reader(
            "t",
            &b""[..],
            &Executor::sequential(),
            StreamOptions::default(),
        )
        .unwrap();
        assert_eq!(kb.entity_count(), 0);
        assert_eq!(kb.triple_count(), 0);
    }
}
