//! The wire format's one JSON type: [`parse`] reads a line into a
//! [`Value`], and [`Value::to_json`] writes one back out.
//!
//! Every daemon response, every request `cspm client` sends and every
//! CLI `--json` document is a `Value` serialised by `to_json`, so a
//! wire document round-trips through `parse` then `to_json` on this one
//! type. Strings are escaped per RFC 8259; numbers print in the
//! shortest form that round-trips, and non-finite floats (which JSON
//! cannot represent) serialise as `null`. A few `From` conversions let
//! a document be written as one `Value::Obj(vec![…])` literal.
//!
//! The daemon parses one JSON object per request line from untrusted
//! clients, so the parser is defensive: every syntax error is a typed
//! [`JsonError`] with a byte offset (surfaced verbatim in
//! `malformed_json` protocol errors), nesting depth is capped so a
//! pathological `[[[[…` line cannot blow the connection thread's
//! stack, and nothing here panics on any input.
//!
//! Objects preserve insertion order in a flat `Vec<(String, Value)>` —
//! request objects have a handful of keys, so linear [`Value::get`] is
//! faster than hashing, and duplicate keys resolve deterministically
//! (first wins, matching the common serde configuration).

use std::fmt;

/// Nesting cap: a request line is a flat object with at most a graph /
/// delta payload two levels down; 64 leaves two orders of magnitude of
/// headroom while keeping recursion trivially stack-safe.
const MAX_DEPTH: usize = 64;

/// A JSON value: what [`parse`] returns and what [`Value::to_json`] writes.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member of an object by key (first occurrence), if this is an
    /// object that has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly
    /// (protocol counts and ids must not be silently truncated floats).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Serialises to compact JSON on one line (RFC 8259 escaping,
    /// shortest round-trip numbers, `null` for non-finite floats).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // `{}` prints the shortest representation that round-trips,
            // which is valid JSON for every finite float ("1", not "1.0").
            Value::Num(n) if n.is_finite() => out.push_str(&format!("{n}")),
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(k, out);
                    out.push_str("\":");
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn escape_into(s: &str, out: &mut String) {
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
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

/// Counts travel as JSON numbers; below 2^53 (the bound
/// [`Value::as_u64`] enforces on the way in) they print exactly.
impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Num(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Num(n as f64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

/// Why a line failed to parse, with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub kind: ErrorKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorKind {
    /// Input ended inside a value.
    UnexpectedEnd,
    /// A byte that cannot start or continue the expected production.
    UnexpectedChar(char),
    /// `\x` where `x` is not a JSON escape, or a bad `\uXXXX`.
    BadEscape,
    /// A number token that does not parse as a finite f64.
    BadNumber,
    /// A lone or mismatched UTF-16 surrogate in a `\u` escape.
    BadSurrogate,
    /// Nesting deeper than the parser's 64-level cap.
    TooDeep,
    /// Valid JSON value followed by trailing non-whitespace.
    TrailingData,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match &self.kind {
            ErrorKind::UnexpectedEnd => "unexpected end of input".to_string(),
            ErrorKind::UnexpectedChar(c) => format!("unexpected character {c:?}"),
            ErrorKind::BadEscape => "invalid escape sequence".to_string(),
            ErrorKind::BadNumber => "invalid number".to_string(),
            ErrorKind::BadSurrogate => "invalid unicode surrogate".to_string(),
            ErrorKind::TooDeep => format!("nesting deeper than {MAX_DEPTH}"),
            ErrorKind::TrailingData => "trailing data after value".to_string(),
        };
        write!(f, "{what} at byte {}", self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses exactly one JSON value spanning the whole input (surrounding
/// whitespace allowed).
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err(ErrorKind::TrailingData));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, kind: ErrorKind) -> JsonError {
        JsonError {
            offset: self.pos,
            kind,
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        match self.peek() {
            Some(got) if got == b => {
                self.pos += 1;
                Ok(())
            }
            Some(got) => Err(self.err(ErrorKind::UnexpectedChar(got as char))),
            None => Err(self.err(ErrorKind::UnexpectedEnd)),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(ErrorKind::UnexpectedChar(self.bytes[self.pos] as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err(ErrorKind::TooDeep));
        }
        match self.peek() {
            None => Err(self.err(ErrorKind::UnexpectedEnd)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(ErrorKind::UnexpectedChar(other as char))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                Some(other) => return Err(self.err(ErrorKind::UnexpectedChar(other as char))),
                None => return Err(self.err(ErrorKind::UnexpectedEnd)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                Some(other) => return Err(self.err(ErrorKind::UnexpectedChar(other as char))),
                None => return Err(self.err(ErrorKind::UnexpectedEnd)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err(ErrorKind::UnexpectedEnd)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| self.err(ErrorKind::UnexpectedEnd))?;
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
                        _ => {
                            self.pos -= 1;
                            return Err(self.err(ErrorKind::BadEscape));
                        }
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err(ErrorKind::UnexpectedChar(b as char)));
                }
                Some(_) => {
                    // Copy one whole UTF-8 scalar (input is a &str, so
                    // boundaries are trustworthy).
                    let rest = &self.bytes[self.pos..];
                    let len = utf8_len(rest[0]);
                    let s = std::str::from_utf8(&rest[..len])
                        .map_err(|_| self.err(ErrorKind::BadEscape))?;
                    out.push_str(s);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            self.pos = self.bytes.len();
            return Err(self.err(ErrorKind::UnexpectedEnd));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .ok()
            // Exactly four hex digits (RFC 8259): `from_str_radix`
            // alone would also take a leading `+`.
            .filter(|s| s.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or_else(|| self.err(ErrorKind::BadEscape))?;
        self.pos = end;
        Ok(hex)
    }

    /// After `\u`: one BMP scalar, or a UTF-16 surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        match hi {
            0xD800..=0xDBFF => {
                // High surrogate: a `\uXXXX` low surrogate must follow.
                if self.bytes[self.pos..].starts_with(b"\\u") {
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..=0xDFFF).contains(&lo) {
                        return Err(self.err(ErrorKind::BadSurrogate));
                    }
                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(c).ok_or_else(|| self.err(ErrorKind::BadSurrogate))
                } else {
                    Err(self.err(ErrorKind::BadSurrogate))
                }
            }
            0xDC00..=0xDFFF => Err(self.err(ErrorKind::BadSurrogate)),
            c => char::from_u32(c).ok_or_else(|| self.err(ErrorKind::BadSurrogate)),
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(match self.peek() {
                Some(b) => self.err(ErrorKind::UnexpectedChar(b as char)),
                None => self.err(ErrorKind::UnexpectedEnd),
            });
        }
        // JSON forbids leading zeros ("01"); tolerate them here — the
        // value is unambiguous and strictness buys no safety.
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err(ErrorKind::BadNumber));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err(ErrorKind::BadNumber));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number token");
        let n: f64 = text.parse().map_err(|_| JsonError {
            offset: start,
            kind: ErrorKind::BadNumber,
        })?;
        if !n.is_finite() {
            // e.g. "1e999": syntactically fine, not representable.
            return Err(JsonError {
                offset: start,
                kind: ErrorKind::BadNumber,
            });
        }
        Ok(Value::Num(n))
    }
}

/// Length of the UTF-8 sequence starting with `first` (input comes from
/// a `&str`, so the byte is always a valid sequence start).
fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(pairs: &[(&str, Value)]) -> Value {
        Value::Obj(
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), Value::Num(-1250.0));
        assert_eq!(parse("0").unwrap(), Value::Num(0.0));
        assert_eq!(parse(r#""hi""#).unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"op":"mine","n":3,"tags":["a",null,[1,2]],"deep":{"x":{}}}"#).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("mine"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        let tags = v.get("tags").unwrap().as_arr().unwrap();
        assert_eq!(tags.len(), 3);
        assert_eq!(tags[1], Value::Null);
        assert!(v
            .get("deep")
            .unwrap()
            .get("x")
            .unwrap()
            .as_obj()
            .unwrap()
            .is_empty());
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = parse(r#""a\"b\\c\/\n\tAé😀""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c/\n\tAé😀"));
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("3.0").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn errors_carry_offsets() {
        let e = parse(r#"{"a":}"#).unwrap_err();
        assert_eq!(e.offset, 5);
        assert_eq!(e.kind, ErrorKind::UnexpectedChar('}'));
        assert_eq!(parse("").unwrap_err().kind, ErrorKind::UnexpectedEnd);
        assert_eq!(parse("{}x").unwrap_err().kind, ErrorKind::TrailingData);
        assert_eq!(parse(r#""\q""#).unwrap_err().kind, ErrorKind::BadEscape);
        assert_eq!(parse(r#""\u+041""#).unwrap_err().kind, ErrorKind::BadEscape);
        assert_eq!(parse("1e999").unwrap_err().kind, ErrorKind::BadNumber);
        assert_eq!(
            parse(r#""\ud800x""#).unwrap_err().kind,
            ErrorKind::BadSurrogate
        );
        // Leading zeros are tolerated (unambiguous, see number()).
        assert_eq!(parse("01").unwrap(), Value::Num(1.0));
    }

    #[test]
    fn depth_bomb_is_rejected_not_overflowed() {
        let bomb = "[".repeat(100_000);
        assert_eq!(parse(&bomb).unwrap_err().kind, ErrorKind::TooDeep);
    }

    #[test]
    fn duplicate_keys_resolve_first_wins() {
        let v = parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(v.get("k").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn strings_are_escaped() {
        let v = obj(&[("k\"ey", Value::from("a\\b\n\tc\u{1}"))]);
        assert_eq!(v.to_json(), "{\"k\\\"ey\":\"a\\\\b\\n\\tc\\u0001\"}");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let v = obj(&[
            ("nan", Value::from(f64::NAN)),
            ("inf", Value::from(f64::INFINITY)),
            ("int_like", Value::from(3.0)),
            ("count", Value::from(207u64)),
        ]);
        assert_eq!(
            v.to_json(),
            r#"{"nan":null,"inf":null,"int_like":3,"count":207}"#
        );
    }

    #[test]
    fn to_json_roundtrips() {
        let v = obj(&[
            ("s", Value::Str("a\"b\n".into())),
            ("n", Value::Num(1.5)),
            ("b", Value::Bool(false)),
            ("z", Value::Null),
            (
                "a",
                Value::Arr(vec![Value::Num(1.0), Value::Str("x".into())]),
            ),
        ]);
        let text = v.to_json();
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(
            text,
            r#"{"s":"a\"b\n","n":1.5,"b":false,"z":null,"a":[1,"x"]}"#
        );
    }
}
