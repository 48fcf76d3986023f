//! A minimal, dependency-free JSON reader/writer.
//!
//! The repository's policy is hand-rolled serialization (like the
//! `BENCH_*.json` writers) — no serde. This module is the shared
//! substrate: a tiny recursive-descent parser into [`Json`] values plus
//! string-escaping helpers for writers. It is used by
//! [`TestCase`](crate::TestCase) JSON round-trips and by the campaign
//! report serialization in the `fuzzyflow` core crate.
//!
//! Numbers are kept as their raw source token ([`Json::Num`]) so callers
//! decide the numeric type; integers round-trip exactly and `f64`s
//! written with Rust's `{:?}` formatting parse back bit-identically
//! (Rust float formatting is shortest-round-trip).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number, as its raw source token (e.g. `"42"`, `"-1.5e-3"`).
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    /// Object entries, keyed (duplicate keys keep the last).
    Obj(BTreeMap<String, Json>),
}

/// Parse errors, with a byte offset into the source.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, nothing
    /// else after the value).
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
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
            return Err(p.err("trailing content after JSON value"));
        }
        Ok(v)
    }

    /// The value of an object key, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.get(key),
            _ => None,
        }
    }

    /// String contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number parsed as `i64`, if this is an integer token.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as `f64` (exact for tokens written with `{:?}`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }
}

/// Nesting ceiling: far above anything the in-tree writers emit (a
/// campaign report nests ~5 deep), and low enough that parsing hostile
/// input can never overflow the stack — documents come from untrusted
/// sources, so deep nesting must be a parse error, not a process abort.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    /// `text.as_bytes()`; `pos` always sits on a char boundary of `text`.
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Runs a container parser one nesting level down, erroring instead
    /// of recursing past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonParseError>,
    ) -> Result<Json, JsonParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let result = parse(self);
        self.depth -= 1;
        result
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut entries = BTreeMap::new();
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
            let v = self.value()?;
            entries.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed for this
                            // codebase's output (writers escape only
                            // control characters); reject them plainly.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("unsupported \\u code point"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy the run of plain characters up to the next
                    // quote, escape or control byte. Those delimiters are
                    // ASCII, so the run ends on a char boundary.
                    let start = self.pos;
                    while self
                        .peek()
                        .is_some_and(|b| b >= 0x20 && b != b'"' && b != b'\\')
                    {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let tok = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ASCII number token")
            .to_string();
        // The greedy scan accepts shapes like `1.2.3`, `--1` or `1e`;
        // validate the whole token (the scanned alphabet cannot spell
        // `inf`/`NaN`, so f64 parsing is a sound JSON-number check —
        // marginally lenient about forms like `1.` or `.5`).
        if tok.parse::<f64>().is_err() {
            return Err(self.err("malformed number"));
        }
        Ok(Json::Num(tok))
    }
}

/// Escapes a string for embedding in a JSON document (quotes not
/// included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Writes a quoted, escaped JSON string.
pub fn quote(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap().as_i64(), Some(42));
        assert_eq!(Json::parse("-7").unwrap().as_i64(), Some(-7));
        assert_eq!(Json::parse("1e-5").unwrap().as_f64(), Some(1e-5));
        assert_eq!(Json::parse("\"hi\"").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, 2, {"b": "x"}], "c": {}}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("c"), Some(&Json::Obj(BTreeMap::new())));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "quote \" backslash \\ newline \n tab \t unicode é 中 control \u{0001}";
        let doc = format!("{{\"k\": {}}}", quote(nasty));
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn f64_debug_format_round_trips_exactly() {
        for x in [1.5e-300, -0.0, 0.1 + 0.2, f64::MAX, 1e-5, 3.25] {
            let doc = format!("{x:?}");
            let back = Json::parse(&doc).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x:?}");
        }
    }

    #[test]
    fn rejects_deep_nesting_instead_of_overflowing_the_stack() {
        // Hostile nesting must be a parse error, not a stack overflow.
        let deep = "[".repeat(2_000_000);
        assert!(Json::parse(&deep).is_err());
        let deep_obj = "{\"a\":".repeat(500_000);
        assert!(Json::parse(&deep_obj).is_err());
        // Reasonable nesting still parses.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn rejects_malformed_numbers() {
        for bad in ["1.2.3", "--1", "1e", "1-2", "1e++5", "{\"a\": 1.2.3}"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"open",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "nul",
            "-",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    /// Regression: the string reader used to re-validate the whole rest
    /// of the document for every character (quadratic — seconds per
    /// 100 KB). A multi-megabyte document of strings must parse in time
    /// linear in its size and round-trip.
    #[test]
    fn large_string_documents_parse_in_linear_time() {
        let item =
            "plain ascii, \"quoted\" \\ back\\slash \n newline, é 中 \u{1F600} control \u{0001}";
        let items: Vec<String> = (0..30_000).map(|i| format!("{i} {item}")).collect();
        let quoted: Vec<String> = items.iter().map(|s| quote(s)).collect();
        let doc = format!("[{}]", quoted.join(", "));
        assert!(doc.len() >= 2 << 20, "document is only {} bytes", doc.len());
        let start = std::time::Instant::now();
        let parsed = Json::parse(&doc).unwrap();
        let elapsed = start.elapsed();
        let back: Vec<&str> = parsed
            .as_arr()
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap())
            .collect();
        assert_eq!(back, items);
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "parsing {} bytes took {elapsed:?}",
            doc.len()
        );
    }

    #[test]
    fn rejects_trailing_content() {
        assert!(Json::parse("{} x").is_err());
    }
}
