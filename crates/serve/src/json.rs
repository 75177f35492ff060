//! Minimal JSON value, parser, and writer.
//!
//! The workspace builds offline (no `serde`), so the job server carries
//! its own small JSON layer. Two properties matter more than speed here:
//!
//! * **Deterministic serialisation** — objects keep insertion order and
//!   numbers render via Rust's shortest-round-trip `f64` formatting, so
//!   serialising the same value twice produces the same bytes. The WAL
//!   checksums and the content-addressed cache keys depend on it.
//! * **Lossless `u64`s** — seeds and digests exceed the 2^53 window JSON
//!   numbers round-trip exactly; [`Json::u64`] stores large values as
//!   decimal strings and [`Json::as_u64`] accepts either form.

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so an unbounded document — a request body of
/// nothing but `[` — would overflow the parsing thread's stack, and a
/// stack overflow aborts the whole process. Job specs nest two levels;
/// this leaves room for any reasonable document.
const MAX_DEPTH: usize = 128;

/// A JSON value. Objects preserve insertion order (they are association
/// lists, not maps), which keeps serialisation deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds a number from a `u64`, losslessly: values above 2^53 are
    /// stored as decimal strings (see [`Json::as_u64`]).
    pub fn u64(v: u64) -> Json {
        if v <= (1u64 << 53) {
            Json::Num(v as f64)
        } else {
            Json::Str(v.to_string())
        }
    }

    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`: an integral non-negative number, or a decimal
    /// (optionally `0x`-prefixed hex) string — the forms [`Json::u64`] and
    /// callers write.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= (1u64 << 53) as f64 => {
                Some(*n as u64)
            }
            Json::Str(s) => {
                if let Some(hex) = s.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16).ok()
                } else {
                    s.parse().ok()
                }
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (a single value with optional surrounding
    /// whitespace).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(value)
    }
}

/// A parse failure, with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            at: self.pos,
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

    fn eat(&mut self, token: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{token}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.eat("null").map(|()| Json::Null),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        let n = text
            .parse::<f64>()
            .map_err(|_| self.err("malformed number"))?;
        // `1e400` parses to infinity, which the writer can only render as
        // `null`: admitting it would journal a value that no longer
        // parses as a number on replay.
        if n.is_finite() {
            Ok(Json::Num(n))
        } else {
            Err(JsonError {
                at: start,
                message: format!("number `{text}` is out of range"),
            })
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat("\"")?;
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
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
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
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect a trailing \uXXXX.
                                self.eat("\\u")?;
                                let lo = self.hex4()?;
                                0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00))
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let ch = rest.chars().next().expect("peeked non-empty");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(text, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat("[")?;
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat("{")?;
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
            self.eat(":")?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for ch in s.chars() {
        match ch {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    /// Compact serialisation. Deterministic: object order is insertion
    /// order and floats use Rust's shortest-round-trip formatting.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.is_finite() {
                    write!(f, "{n}")
                } else {
                    // JSON has no NaN/Inf; the engines never produce them,
                    // but render defensively rather than emit garbage.
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let text = r#"{"a":[1,2.5,-3e2],"b":{"c":null,"d":true},"s":"hi\n\"there\""}"#;
        let v = Json::parse(text).expect("parses");
        let re = Json::parse(&v.to_string()).expect("re-parses");
        assert_eq!(v, re);
    }

    #[test]
    fn serialisation_is_deterministic() {
        let v = Json::obj(vec![
            ("z", Json::Num(1.5)),
            ("a", Json::Arr(vec![Json::Bool(false), Json::Null])),
        ]);
        assert_eq!(v.to_string(), v.clone().to_string());
        assert_eq!(v.to_string(), r#"{"z":1.5,"a":[false,null]}"#);
    }

    #[test]
    fn u64_round_trips_losslessly() {
        for v in [0u64, 1, 1 << 53, u64::MAX, 0xC0FF_EE00] {
            let j = Json::u64(v);
            let parsed = Json::parse(&j.to_string()).expect("parses");
            assert_eq!(parsed.as_u64(), Some(v), "{v}");
        }
        assert_eq!(Json::parse("\"0x1f\"").unwrap().as_u64(), Some(31));
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn numbers_that_overflow_are_rejected() {
        for text in ["1e400", "-1e400", "[0.1,1e400]", "{\"sigma\":-1E999}"] {
            let e = Json::parse(text).expect_err(text);
            assert!(e.message.contains("out of range"), "{text}: {e}");
        }
        let big = Json::parse("1e308").expect("the largest decade parses");
        assert_eq!(big.as_f64(), Some(1e308));
        assert_eq!(Json::parse(&big.to_string()), Ok(big), "and round-trips");
        assert_eq!(Json::parse("-1e-400").unwrap().as_f64(), Some(-0.0));
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(Json::parse(r#""é😀""#).unwrap().as_str(), Some("é😀"));
    }

    #[test]
    fn errors_carry_positions() {
        let e = Json::parse("{\"a\" 1}").expect_err("bad object");
        assert!(e.at > 0, "{e}");
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("[1] trailing").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let limit = nested(open, close, MAX_DEPTH).replace("{\"k\":}", "{}");
            assert!(
                Json::parse(&limit).is_ok(),
                "{open}: depth {MAX_DEPTH} parses"
            );
            let deeper = nested(open, close, MAX_DEPTH + 1).replace("{\"k\":}", "{}");
            let e = Json::parse(&deeper).expect_err("one level deeper");
            assert!(e.message.contains("nesting"), "{e}");
        }
        // Nesting is depth, not count: siblings at the limit are fine.
        let wide = format!("[{}]", vec![nested("[", "]", MAX_DEPTH - 1); 3].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn a_mebibyte_of_brackets_is_rejected_without_overflow() {
        let e = Json::parse(&"[".repeat(1 << 20)).expect_err("unbounded nesting");
        assert_eq!(e.at, MAX_DEPTH, "{e}");
    }

    #[test]
    fn object_lookup_and_accessors() {
        let v = Json::parse(r#"{"n":4,"s":"x","b":true,"a":[1]}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(v.get("missing"), None);
    }
}
