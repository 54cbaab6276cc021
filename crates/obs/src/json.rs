//! Minimal dependency-free JSON: an RFC 8259 string writer plus a
//! small recursive-descent parser.
//!
//! The writer backs [`crate::Snapshot::to_json`] and the trace export;
//! the parser backs [`crate::Snapshot::from_json`] and its round-trip
//! tests. Both are panic-free: the parser returns
//! `None` on malformed input (including inputs nested deeper than
//! [`MAX_DEPTH`]) instead of recursing unboundedly or indexing out of
//! bounds.

use std::collections::BTreeMap;

/// Maximum nesting depth the parser accepts.
pub const MAX_DEPTH: usize = 64;

/// Appends `s` as a quoted JSON string with RFC 8259 escaping.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that is an exact non-negative integer.
    UInt(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (keys sorted).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, trailing
    /// garbage rejected). Returns `None` on malformed input.
    pub fn parse(text: &str) -> Option<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos == bytes.len() {
            Some(value)
        } else {
            None
        }
    }

    /// The object map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
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

    /// The exact `u64` value, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as `f64` (exact integers included).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while bytes
        .get(*pos)
        .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
    {
        *pos += 1;
    }
}

fn eat(bytes: &[u8], pos: &mut usize, expected: u8) -> Option<()> {
    if bytes.get(*pos) == Some(&expected) {
        *pos += 1;
        Some(())
    } else {
        None
    }
}

fn eat_keyword(bytes: &[u8], pos: &mut usize, word: &str) -> Option<()> {
    let end = pos.checked_add(word.len())?;
    if bytes.get(*pos..end) == Some(word.as_bytes()) {
        *pos = end;
        Some(())
    } else {
        None
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Option<Json> {
    if depth > MAX_DEPTH {
        return None;
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos)? {
        b'n' => eat_keyword(bytes, pos, "null").map(|_| Json::Null),
        b't' => eat_keyword(bytes, pos, "true").map(|_| Json::Bool(true)),
        b'f' => eat_keyword(bytes, pos, "false").map(|_| Json::Bool(false)),
        b'"' => parse_string(bytes, pos).map(Json::Str),
        b'[' => parse_array(bytes, pos, depth),
        b'{' => parse_object(bytes, pos, depth),
        b'-' | b'0'..=b'9' => parse_number(bytes, pos),
        _ => None,
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Option<Json> {
    eat(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Some(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(Json::Arr(items));
            }
            _ => return None,
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Option<Json> {
    eat(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Some(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        eat(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth + 1)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(Json::Obj(map));
            }
            _ => return None,
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Option<String> {
    eat(bytes, pos, b'"')?;
    let mut out = Vec::new();
    loop {
        match bytes.get(*pos)? {
            b'"' => {
                *pos += 1;
                return String::from_utf8(out).ok();
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos)? {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'n' => out.push(b'\n'),
                    b'r' => out.push(b'\r'),
                    b't' => out.push(b'\t'),
                    b'b' => out.push(0x08),
                    b'f' => out.push(0x0c),
                    b'u' => {
                        let hex = bytes.get(pos.checked_add(1)?..pos.checked_add(5)?)?;
                        let hex = std::str::from_utf8(hex).ok()?;
                        let code = u32::from_str_radix(hex, 16).ok()?;
                        // Surrogate pairs are out of scope for the
                        // snapshot schema; reject rather than mangle.
                        let c = char::from_u32(code)?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            _ => {
                // Copy one UTF-8 unit verbatim (validated at the end).
                let b = *bytes.get(*pos)?;
                if b < 0x20 {
                    return None; // unescaped control character
                }
                out.push(b);
                *pos += 1;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Option<Json> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while bytes
        .get(*pos)
        .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(bytes.get(start..*pos)?).ok()?;
    if !text.contains(['.', 'e', 'E', '-']) {
        if let Ok(n) = text.parse::<u64>() {
            return Some(Json::UInt(n));
        }
    }
    text.parse::<f64>().ok().map(Json::Num)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_escaped_strings() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null"), Some(Json::Null));
        assert_eq!(Json::parse(" true "), Some(Json::Bool(true)));
        assert_eq!(Json::parse("42"), Some(Json::UInt(42)));
        assert_eq!(
            Json::parse("18446744073709551615"),
            Some(Json::UInt(u64::MAX))
        );
        assert_eq!(Json::parse("-1.5"), Some(Json::Num(-1.5)));
        assert_eq!(Json::parse("\"hi\""), Some(Json::Str("hi".into())));
    }

    #[test]
    fn parses_structures() {
        let doc = Json::parse("{\"a\":[1,2,{\"b\":\"c\"}],\"d\":{}}").unwrap();
        let obj = doc.as_object().unwrap();
        let arr = obj.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(
            arr[2].as_object().unwrap().get("b").unwrap().as_str(),
            Some("c")
        );
        assert!(obj.get("d").unwrap().as_object().unwrap().is_empty());
    }

    #[test]
    fn escape_round_trip() {
        let original = "quote\" slash\\ newline\n tab\t ctrl\u{2} unicode→";
        let mut encoded = String::new();
        write_str(&mut encoded, original);
        assert_eq!(Json::parse(&encoded), Some(Json::Str(original.into())));
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"unterminated",
            "{\"a\":1}extra",
            "\"bad\u{1}ctrl\"",
        ] {
            assert!(Json::parse(bad).is_none(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_overdeep_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_none());
    }

    #[test]
    fn numbers_with_huge_magnitude_fall_back_to_f64() {
        // Larger than u64::MAX: still parses, as an approximate float.
        let doc = Json::parse("999999999999999999999").unwrap();
        assert_eq!(doc.as_u64(), None);
        assert!(doc.as_f64().unwrap() > 1e20);
    }
}
