//! Minimal JSON parser (recursive descent, no dependencies).
//!
//! The workspace is dependency-free by design, yet the observability layer
//! both writes JSON (hand-rendered) and needs to *read* it back: the
//! `trace_inspect` bin summarizes exported Chrome traces and the trace
//! integration tests assert the export is well-formed. This parser covers
//! the full JSON grammar at the fidelity those consumers need (numbers are
//! held as `f64`; no surrogate-pair decoding beyond the BMP escape form).

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (held as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (ordered map for deterministic iteration).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object member by key, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
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

    /// The numeric value as u64 (truncating), if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().map(|n| n as u64)
    }

    /// Build an object from key/value pairs (keys sort, duplicates last-win).
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Build a number value.
    pub fn num(n: f64) -> Json {
        Json::Num(n)
    }

    /// Serialize to compact JSON text.
    ///
    /// Deterministic: objects render in key order (they are `BTreeMap`s)
    /// and numbers use Rust's shortest-round-trip `f64` formatting, so
    /// `parse(render(v)) == v` bit-exactly for finite numbers. Non-finite
    /// numbers become `null` (JSON has no representation for them).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                out.push_str(&crate::trace::escape(s));
                out.push('"');
            }
            Json::Arr(v) => {
                out.push('[');
                for (i, e) in v.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    e.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&crate::trace::escape(k));
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a cap one short line of `[`s overflows the
/// thread's stack.
pub const MAX_DEPTH: usize = 128;

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset into the input where parsing failed.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
    /// Which kind of failure this is.
    pub kind: ParseErrorKind,
}

/// The kind of a [`ParseError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The input is not JSON.
    Syntax,
    /// Arrays and objects nest deeper than [`MAX_DEPTH`].
    TooDeep,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document (trailing whitespace allowed, nothing
/// else after the top-level value).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after top-level value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            pos: self.pos,
            msg: msg.to_string(),
            kind: ParseErrorKind::Syntax,
        }
    }

    /// Parse an array or object one level deeper than `depth`.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(ParseError {
                kind: ParseErrorKind::TooDeep,
                ..self.err(&format!("nesting deeper than {MAX_DEPTH} levels"))
            });
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
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

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
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

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            m.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{0008}'),
                        b'f' => s.push('\u{000c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is valid UTF-8: it
                    // came from a &str).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    s.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
        assert_eq!(parse("\"\\u0041\"").unwrap(), Json::Str("A".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"traceEvents":[{"ts":1.500,"ph":"X"},{"ph":"i"}],"n":3}"#).unwrap();
        let evs = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].get("ts").unwrap().as_f64(), Some(1.5));
        assert_eq!(evs[1].get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("{\"a\" 1}").is_err());
    }

    #[test]
    fn unicode_passthrough() {
        assert_eq!(parse("\"héllo\"").unwrap(), Json::Str("héllo".into()));
    }

    // The guideline + audit exporters render JSON by hand with
    // `trace::escape` and parse it back here (trace_inspect, the
    // integration tests); the tests below pin that round-trip on the
    // document shapes those exporters actually produce.

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let e = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((e.kind, e.pos), (ParseErrorKind::TooDeep, MAX_DEPTH));
        // Far past any stack: one request line's worth of `[`.
        let e = parse(&"[".repeat(65_000)).unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::TooDeep);
        assert_eq!(parse("[1,").unwrap_err().kind, ParseErrorKind::Syntax);
    }

    #[test]
    fn parses_deeply_nested_arrays_and_objects() {
        // 64 levels of alternating array/object nesting around one leaf.
        let depth = 64;
        let mut doc = String::from("7");
        for i in 0..depth {
            doc = if i % 2 == 0 {
                format!("[{doc}]")
            } else {
                format!("{{\"k\":{doc}}}")
            };
        }
        let mut v = &parse(&doc).unwrap();
        for i in (0..depth).rev() {
            v = if i % 2 == 0 {
                let arr = v.as_arr().expect("array level");
                assert_eq!(arr.len(), 1);
                &arr[0]
            } else {
                v.get("k").expect("object level")
            };
        }
        assert_eq!(v.as_f64(), Some(7.0));
    }

    #[test]
    fn parses_heterogeneous_nesting() {
        let v = parse(
            r#"{"a":[[1,[2,{"b":[{"c":null},[],{}]}]],[]],"d":{"e":{"f":[true,false,"x"]}}}"#,
        )
        .unwrap();
        let b = v.get("a").unwrap().as_arr().unwrap()[0].as_arr().unwrap()[1]
            .as_arr()
            .unwrap()[1]
            .get("b")
            .unwrap()
            .as_arr()
            .unwrap()
            .to_vec();
        assert_eq!(b.len(), 3);
        assert_eq!(b[0].get("c"), Some(&Json::Null));
        assert_eq!(b[1].as_arr().map(|a| a.len()), Some(0));
        let f = v
            .get("d")
            .and_then(|d| d.get("e"))
            .and_then(|e| e.get("f"))
            .and_then(|f| f.as_arr())
            .unwrap();
        assert_eq!(f[2].as_str(), Some("x"));
    }

    #[test]
    fn escaped_strings_roundtrip_through_escape_then_parse() {
        // Every shape the exporters can emit: quotes, backslashes,
        // control characters, unicode, and strings that look like JSON.
        let cases = [
            "plain",
            "with \"quotes\" and \\backslashes\\",
            "control\tchars\nnewline\rreturn",
            "null bytes \u{0} and bells \u{7}",
            "unicode héllo → ∞ ≤ 日本",
            "{\"looks\": [\"like\", \"json\"]}",
            "trailing backslash \\",
            "",
        ];
        for case in cases {
            let doc = format!("{{\"s\": \"{}\"}}", crate::trace::escape(case));
            let v = parse(&doc).unwrap_or_else(|e| panic!("case {case:?}: {e}"));
            assert_eq!(v.get("s").and_then(|s| s.as_str()), Some(case), "{case:?}");
        }
    }

    #[test]
    fn escaped_keys_and_nested_escapes_roundtrip() {
        let key = "weird \"key\"\n\\";
        let val = "x\ty";
        let doc = format!(
            "{{\"{}\": [{{\"{}\": \"{}\"}}]}}",
            crate::trace::escape(key),
            crate::trace::escape(key),
            crate::trace::escape(val),
        );
        let v = parse(&doc).unwrap();
        let inner = &v.get(key).unwrap().as_arr().unwrap()[0];
        assert_eq!(inner.get(key).and_then(|s| s.as_str()), Some(val));
    }

    #[test]
    fn render_roundtrips_bit_exactly() {
        let v = Json::obj([
            ("pi", Json::num(std::f64::consts::PI)),
            ("neg", Json::num(-1.5e-300)),
            ("int", Json::num(42.0)),
            ("s", Json::str("quote \" tab \t nl \n unicode é")),
            (
                "arr",
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::num(0.1)]),
            ),
            ("empty", Json::Obj(Default::default())),
        ]);
        let text = v.render();
        assert_eq!(parse(&text).unwrap(), v, "parse(render(v)) != v");
        // Rendering is canonical: a second round-trip is byte-identical.
        assert_eq!(parse(&text).unwrap().render(), text);
    }

    #[test]
    fn render_is_deterministic_and_sorted() {
        let v = Json::obj([("b", Json::num(2.0)), ("a", Json::num(1.0))]);
        assert_eq!(v.render(), r#"{"a":1,"b":2}"#);
        assert_eq!(v.to_string(), v.render());
    }

    #[test]
    fn render_maps_nonfinite_to_null() {
        assert_eq!(Json::num(f64::INFINITY).render(), "null");
        assert_eq!(Json::num(f64::NAN).render(), "null");
    }
}
