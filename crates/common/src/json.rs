//! The workspace's hand-rolled JSON value model and parser.
//!
//! The build environment is hermetic (no serde), so this module carries a
//! deliberately tiny JSON document model ([`Json`]) and serializer —
//! objects preserve insertion order, strings are escaped per RFC 8259,
//! floats print in Rust's shortest round-trip form. It started life as
//! the artifact writer in `dmt-runner` and moved here so crates below
//! the runner in the dependency graph (the observability layer, the
//! cycle engines) can emit and consume the same documents;
//! `dmt_runner::artifact::Json` re-exports it, so the rendered bytes of
//! every existing artifact are unchanged.
//!
//! # Parser cost and limits
//!
//! [`Json::parse`] is linear in the input: it takes a `&str`, so the
//! bytes are already valid UTF-8, and every string body is consumed as
//! whole runs between escapes (one slice copy per run, nothing
//! re-validated per character). A cache hit therefore costs its entry's
//! bytes once. The parser is a recursive descent, so nesting is bounded
//! by [`MAX_DEPTH`] containers; a deeper document is an `Err` naming the
//! byte offset, never a stack overflow. Both are properties of the
//! parser, not options.

use std::fmt::Write as _;

/// The deepest container nesting [`Json::parse`] accepts (objects and
/// arrays both count). The writer's own documents nest less than ten
/// deep; the bound exists so hostile input costs an error, not the stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON document: the minimal value model the artifact writer needs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (all counters are u64).
    U64(u64),
    /// A float, serialized in shortest round-trip form.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    #[must_use]
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends a key to an object (panics on non-objects — construction
    /// bugs, not data).
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(entries) => entries.push((key.to_owned(), value.into())),
            _ => panic!("Json::with on a non-object"),
        }
        self
    }

    /// Serializes with two-space indentation and a trailing newline.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes onto a single line with no whitespace — the wire
    /// format of line-delimited protocols (`dmt-serve`), where a
    /// newline terminates the message. Scalars render exactly as in
    /// [`Json::render`], so `parse ∘ render_compact = id` too.
    #[must_use]
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
            scalar => scalar.write(out, 0),
        }
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) => {
                if x.is_finite() {
                    // `{}` on f64 is shortest-round-trip but renders
                    // integral values without a decimal point; keep them
                    // unambiguously floats at any magnitude ({:.1} is the
                    // exact decimal expansion, so parse() recovers the
                    // same bits — a bare integer spelling would come back
                    // as U64 instead).
                    if x.fract() == 0.0 {
                        let _ = write!(out, "{x:.1}");
                    } else {
                        let _ = write!(out, "{x}");
                    }
                } else {
                    // JSON has no NaN/Inf; null is the conventional spelling.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

impl Json {
    /// Parses a JSON document (the inverse of [`Json::render`]).
    ///
    /// The grammar is RFC 8259 minus nothing the writer emits: objects,
    /// arrays, strings (with escapes), numbers, booleans and `null`.
    /// Non-negative integers without a fraction or exponent parse as
    /// [`Json::U64`]; every other number parses as [`Json::F64`] — the
    /// exact split the writer produces, so `parse(render(doc)) == doc`
    /// for any document the writer can emit (NaN/Inf excepted: the
    /// writer spells them `null`, which stays `null`).
    ///
    /// # Errors
    ///
    /// Returns a message with a byte offset for malformed input or for
    /// containers nested deeper than [`MAX_DEPTH`] — callers (the result
    /// cache) treat any error as a miss.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Looks up a key in an object (`None` on non-objects and missing
    /// keys; first match wins, as in the writer's insertion order).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, when it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a float (unsigned integers coerce losslessly where
    /// they fit `f64`'s 53-bit mantissa; larger ones do not coerce).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(x) => Some(*x),
            Json::U64(n) if *n <= (1u64 << 53) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a string slice, when it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, when it is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Recursive-descent parser over the raw bytes (JSON structure is ASCII;
/// string contents pass through as slices of the already-valid `text`).
struct Parser<'a> {
    text: &'a str,
    /// `text.as_bytes()`.
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open, bounded by [`MAX_DEPTH`].
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.container(Parser::object),
            Some(b'[') => self.container(Parser::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("expected a value at byte {}", self.pos)),
        }
    }

    /// Parses one object or array, one level deeper; the recursion this
    /// bounds is `value → container → object|array → value`.
    fn container(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self)?;
        self.depth -= 1;
        Ok(v)
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            entries.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut out = String::new();
        loop {
            // One run of ordinary characters, up to the next quote or
            // backslash. Both delimiters are ASCII, so the run starts and
            // ends on character boundaries of the already-valid `text`.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| format!("unterminated string at byte {start}"))?;
            let chunk = &self.text[self.pos..self.pos + run];
            self.pos += run;
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                if out.is_empty() {
                    // No escape seen: the string is this one slice.
                    return Ok(chunk.to_owned());
                }
                out.push_str(chunk);
                return Ok(out);
            }
            // An escape follows, so the string needs a buffer of its own:
            // this run plus some slack, and a string with a few escapes
            // grows once.
            out.reserve(chunk.len() + 16);
            out.push_str(chunk);
            self.pos += 1;
            let esc = self
                .peek()
                .ok_or_else(|| format!("unterminated escape at byte {}", self.pos))?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => out.push(self.unicode_escape()?),
                _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.pos))?;
        let v = u32::from_str_radix(hex, 16)
            .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos = end;
        Ok(v)
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: a low surrogate escape must follow.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(format!("unpaired surrogate before byte {}", self.pos));
                }
                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
            } else {
                return Err(format!("unpaired surrogate before byte {}", self.pos));
            }
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| format!("invalid scalar before byte {}", self.pos))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if float || text.starts_with('-') {
            text.parse::<f64>()
                .map(Json::F64)
                .map_err(|_| format!("bad number at byte {start}"))
        } else {
            text.parse::<u64>()
                .map(Json::U64)
                .map_err(|_| format!("bad number at byte {start}"))
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
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

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::U64(v.into())
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

/// Writes any [`Json`] document to `path`, creating parent directories.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_json(path: &std::path::Path, doc: &Json) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, doc.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_escapes_and_numbers() {
        let doc = Json::obj()
            .with("s", "a\"b\\c\nd")
            .with("i", 42u64)
            .with("f", 1.5)
            .with("whole", 2.0)
            .with("nan", f64::NAN)
            .with("arr", vec![Json::U64(1), Json::Null])
            .with("empty", Json::obj());
        let text = doc.render();
        assert!(text.contains(r#""s": "a\"b\\c\nd""#), "{text}");
        assert!(text.contains("\"i\": 42"), "{text}");
        assert!(text.contains("\"f\": 1.5"), "{text}");
        assert!(text.contains("\"whole\": 2.0"), "{text}");
        assert!(text.contains("\"nan\": null"), "{text}");
        assert!(text.contains("\"empty\": {}"), "{text}");
        assert!(text.ends_with("}\n"), "{text}");
    }

    #[test]
    fn compact_rendering_is_one_line_and_round_trips() {
        let doc = Json::obj()
            .with("verb", "status")
            .with("f", 2.0)
            .with("arr", vec![Json::U64(1), Json::Null])
            .with("nested", Json::obj().with("k", "v\n"))
            .with("empty", Json::Arr(Vec::new()));
        let line = doc.render_compact();
        assert!(!line.contains('\n'), "{line}");
        assert!(!line.contains(' '), "{line}");
        assert_eq!(
            line,
            r#"{"verb":"status","f":2.0,"arr":[1,null],"nested":{"k":"v\n"},"empty":[]}"#
        );
        // The same parser reads both renderings back to the same doc.
        assert_eq!(Json::parse(&line).unwrap(), doc);
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn parse_inverts_render() {
        let doc = Json::obj()
            .with("s", "a\"b\\c\nd\te\u{1}ü€")
            .with("i", 42u64)
            .with("big", u64::MAX)
            .with("f", 1.5)
            .with("tiny", 1.25e-6)
            .with("whole", 2.0)
            .with("huge_whole", 1e16)
            .with("past_mantissa", 9_007_199_254_740_994.0_f64)
            .with("t", true)
            .with("nil", Json::Null)
            .with(
                "arr",
                vec![Json::U64(1), Json::F64(0.1), Json::Str("x".into())],
            )
            .with("empty_arr", Json::Arr(Vec::new()))
            .with("nested", Json::obj().with("k", Json::obj()));
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc, "{text}");
    }

    #[test]
    fn parse_accepts_foreign_spellings() {
        // Whitespace layouts and escapes the writer never emits.
        let v = Json::parse(" { \"a\" : [ 1 , -2.5 , \"\\u0041\\u00e9\" ] } ").unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap(),
            &[Json::U64(1), Json::F64(-2.5), Json::Str("Aé".into())]
        );
        let v = Json::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1f600}"));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1 2]",
            "{\"a\":1} trailing",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\ud800 lone\"",
            "nul",
            "01x",
            "1.2.3",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn malformed_strings_keep_their_messages_and_offsets() {
        // Byte-for-byte what the per-character parser reported: the run
        // scanner may not move an offset or reword an error.
        for (bad, want) in [
            ("\"unterminated", "unterminated string at byte 1"),
            ("[1, \"né", "unterminated string at byte 5"),
            ("\"a\\nb", "unterminated string at byte 1"),
            ("\"tail\\", "unterminated escape at byte 6"),
            ("\"bad \\q escape\"", "bad escape at byte 6"),
            ("\"é\\x\"", "bad escape at byte 4"),
            ("\"\\u12", "truncated \\u escape at byte 3"),
            ("\"\\u123é\"", "truncated \\u escape at byte 3"),
            ("\"\\u12é\"", "bad \\u escape at byte 3"),
            ("\"\\u12zz\"", "bad \\u escape at byte 3"),
            ("\"\\ud800 lone\"", "unpaired surrogate before byte 7"),
            ("\"\\ud800\\u0041\"", "unpaired surrogate before byte 13"),
            ("\"\\udc00\"", "invalid scalar before byte 7"),
            ("{\"k\" 1}", "expected ':' at byte 5"),
            ("{\"a\":1} trailing", "trailing content at byte 8"),
        ] {
            assert_eq!(Json::parse(bad).unwrap_err(), want, "{bad:?}");
        }
    }

    #[test]
    fn strings_pass_raw_control_and_multibyte_characters_through() {
        // Neither parser validates the characters between escapes, so a
        // raw tab or newline inside a string is accepted as itself.
        let v = Json::parse("\"a\tb\nc\u{1}é€\u{1f600}\\u0041z\"").unwrap();
        assert_eq!(v.as_str(), Some("a\tb\nc\u{1}é€\u{1f600}Az"));
        assert_eq!(Json::parse("\"\"").unwrap(), Json::Str(String::new()));
        assert_eq!(Json::parse("\"\\n\"").unwrap().as_str(), Some("\n"));
    }

    #[test]
    fn nesting_is_bounded_with_an_offset_not_a_stack_overflow() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err(),
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        // Objects count against the same bound, and closing a container
        // gives its level back: siblings do not accumulate.
        let mixed = "{\"k\":".repeat(MAX_DEPTH) + "[]" + &"}".repeat(MAX_DEPTH);
        assert!(Json::parse(&mixed)
            .unwrap_err()
            .starts_with("nesting deeper"));
        let wide = format!("[{}]", vec![nested(MAX_DEPTH - 1); 4].join(","));
        assert!(Json::parse(&wide).is_ok());
        // The hostile case: unclosed brackets far past any stack.
        let err = Json::parse(&"[".repeat(100_000)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
    }

    #[test]
    fn parse_time_is_linear_in_one_long_string() {
        // 2 MB, nearly all of it one string with an escape every 64
        // characters and multi-byte text throughout. Re-validating the
        // tail of the document per character (the parser this replaced)
        // needs minutes here; one pass needs milliseconds, so the bound
        // has a 100x margin against a slow host.
        let unit = "0123456789abcdef".repeat(3) + "éé€€€€" + "\\n";
        let body = unit.repeat(2_000_000 / unit.len());
        let text = format!("{{\"k\": \"{body}\", \"n\": 1}}");
        assert!(text.len() >= 1_900_000);
        let start = std::time::Instant::now();
        let doc = Json::parse(&text).unwrap();
        let elapsed = start.elapsed();
        let s = doc.get("k").unwrap().as_str().unwrap();
        assert_eq!(s.len(), body.len() - body.matches("\\n").count());
        assert!(s.ends_with("€€\n"));
        assert!(elapsed.as_secs() < 5, "2 MB took {elapsed:?}");
    }

    #[test]
    fn accessors_navigate_and_type_check() {
        let doc = Json::obj()
            .with("n", 7u64)
            .with("f", 0.5)
            .with("s", "str")
            .with("a", vec![Json::Null]);
        assert_eq!(doc.get("n").unwrap().as_u64(), Some(7));
        assert_eq!(doc.get("n").unwrap().as_f64(), Some(7.0));
        assert_eq!(doc.get("f").unwrap().as_f64(), Some(0.5));
        assert_eq!(doc.get("f").unwrap().as_u64(), None);
        assert_eq!(doc.get("s").unwrap().as_str(), Some("str"));
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert!(doc.get("missing").is_none());
        assert!(Json::Null.get("n").is_none());
        // u64s beyond f64's mantissa must not silently lose precision.
        assert_eq!(Json::U64(u64::MAX).as_f64(), None);
    }
}
