//! Minimal JSON for the wire protocol: a recursive-descent parser and a
//! string renderer, dependency-free by construction (the build container
//! has no registry access, and the server must not drag serde into the
//! core dependency graph anyway).
//!
//! The dialect is full RFC 8259 minus two deliberate cuts that keep the
//! parser small and the protocol honest:
//!
//! * numbers are parsed through [`f64`]; integers are exact up to 2^53,
//!   far beyond any trajectory-ID or offset this workspace produces;
//! * `\uXXXX` escapes outside the BMP (surrogate pairs) are rejected —
//!   edge IDs and error strings are ASCII.
//!
//! Parsing is depth-limited so a hostile request body cannot overflow the
//! worker stack.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Maximum nesting depth accepted by [`Json::parse`]. Protocol bodies
/// nest at most 3 deep (`{"batches": [[...]]}`); 64 leaves headroom
/// without letting `[[[[…` recurse to a stack overflow.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Object keys are kept sorted (`BTreeMap`) so
/// rendering is deterministic — handy for tests and diffable responses.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; see the module docs for integer exactness.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parse `text` as a single JSON value (trailing whitespace allowed,
    /// trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Member lookup; `None` for non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if numeric, integral, and in
    /// the exact range. This is the accessor protocol fields use — edge
    /// IDs, row numbers, limits — so `1.5`, `-3`, and `1e300` are all
    /// rejected rather than truncated.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Render to compact JSON text (no whitespace, keys in sorted order).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => render_num(*n, out),
            Json::Str(s) => render_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_str(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}
impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Num(n as f64)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// Build a [`Json::Obj`] from key/value pairs:
/// `obj(&[("count", 3.into()), ("cached", true.into())])`.
pub fn obj(pairs: &[(&str, Json)]) -> Json {
    Json::Obj(
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

/// Like [`obj`], but takes ownership of the values — the batch response
/// paths use this so a large `counts`/`results` array is moved into the
/// object instead of deep-cloned.
pub fn obj_move(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The dominant query-body shape, pre-extracted without building a
/// [`Json`] tree. See [`parse_fast_query`].
#[derive(Debug, Default, PartialEq)]
pub struct FastQuery {
    /// `"path"`: one edge-ID path.
    pub path: Option<Vec<u32>>,
    /// `"paths"`: a batch of edge-ID paths.
    pub paths: Option<Vec<Vec<u32>>>,
    /// `"cache"` flag, if present.
    pub cache: Option<bool>,
    /// `"limit"`, if present.
    pub limit: Option<usize>,
}

/// Single-scan parser for the count/occurrences request shape — an
/// object of `path`/`paths`/`cache`/`limit` members whose numbers are
/// plain non-negative integers. This is the serving hot path: a batched
/// count spends more time building the generic `Json` tree than
/// executing the backward searches it asks for, so the common shape is
/// extracted without one.
///
/// **Strictness is the correctness contract**: any deviation — an
/// unknown member, a duplicate key, an escape in a key, a float, a
/// sign, an exponent, an integer beyond `u32` (for path edges) or 15
/// digits, trailing garbage — returns `None`, and the caller falls back
/// to [`Json::parse`] + generic extraction, which remains the single
/// source of truth for errors. The fast path therefore never *rejects*
/// a request the generic path would accept differently; it only
/// *accepts* bodies both parse identically (asserted by tests).
pub fn parse_fast_query(text: &str) -> Option<FastQuery> {
    let b = text.as_bytes();
    let mut i = 0usize;
    let mut q = FastQuery::default();
    skip_ws(b, &mut i);
    if b.get(i) != Some(&b'{') {
        return None;
    }
    i += 1;
    skip_ws(b, &mut i);
    if b.get(i) == Some(&b'}') {
        i += 1;
    } else {
        loop {
            if b.get(i) != Some(&b'"') {
                return None;
            }
            let key_start = i + 1;
            let mut j = key_start;
            while j < b.len() && b[j] != b'"' && b[j] != b'\\' {
                j += 1;
            }
            if b.get(j) != Some(&b'"') {
                return None; // escape or EOF in key: fall back
            }
            let key = &text[key_start..j];
            i = j + 1;
            skip_ws(b, &mut i);
            if b.get(i) != Some(&b':') {
                return None;
            }
            i += 1;
            skip_ws(b, &mut i);
            match key {
                "cache" => {
                    if q.cache.is_some() {
                        return None;
                    }
                    if b[i..].starts_with(b"true") {
                        q.cache = Some(true);
                        i += 4;
                    } else if b[i..].starts_with(b"false") {
                        q.cache = Some(false);
                        i += 5;
                    } else {
                        return None;
                    }
                }
                "limit" => {
                    if q.limit.is_some() {
                        return None;
                    }
                    q.limit = Some(usize::try_from(fast_uint(b, &mut i)?).ok()?);
                }
                "path" => {
                    if q.path.is_some() {
                        return None;
                    }
                    q.path = Some(fast_u32_array(b, &mut i)?);
                }
                "paths" => {
                    if q.paths.is_some() {
                        return None;
                    }
                    if b.get(i) != Some(&b'[') {
                        return None;
                    }
                    i += 1;
                    skip_ws(b, &mut i);
                    let mut paths = Vec::new();
                    if b.get(i) == Some(&b']') {
                        i += 1;
                    } else {
                        loop {
                            paths.push(fast_u32_array(b, &mut i)?);
                            skip_ws(b, &mut i);
                            match b.get(i) {
                                Some(b',') => {
                                    i += 1;
                                    skip_ws(b, &mut i);
                                }
                                Some(b']') => {
                                    i += 1;
                                    break;
                                }
                                _ => return None,
                            }
                        }
                    }
                    q.paths = Some(paths);
                }
                _ => return None,
            }
            skip_ws(b, &mut i);
            match b.get(i) {
                Some(b',') => {
                    i += 1;
                    skip_ws(b, &mut i);
                }
                Some(b'}') => {
                    i += 1;
                    break;
                }
                _ => return None,
            }
        }
    }
    skip_ws(b, &mut i);
    if i != b.len() {
        return None;
    }
    Some(q)
}

/// Plain non-negative integer, at most 15 digits (exact in `f64`, so
/// the fast and generic paths can never disagree on a value). Anything
/// else — sign, leading `.`/`e`, a 16th digit — bails to the fallback.
fn fast_uint(b: &[u8], i: &mut usize) -> Option<u64> {
    let start = *i;
    let mut v = 0u64;
    while let Some(d) = b.get(*i).filter(|d| d.is_ascii_digit()) {
        v = v * 10 + u64::from(d - b'0');
        *i += 1;
    }
    if *i == start || *i - start > 15 {
        return None;
    }
    // A continuation byte means this was really a float/exponent.
    if matches!(b.get(*i), Some(b'.' | b'e' | b'E')) {
        return None;
    }
    Some(v)
}

/// `[u32, u32, ...]` — one path of edge IDs.
fn fast_u32_array(b: &[u8], i: &mut usize) -> Option<Vec<u32>> {
    if b.get(*i) != Some(&b'[') {
        return None;
    }
    *i += 1;
    skip_ws(b, i);
    let mut out = Vec::new();
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Some(out);
    }
    loop {
        out.push(u32::try_from(fast_uint(b, i)?).ok()?);
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => {
                *i += 1;
                skip_ws(b, i);
            }
            Some(b']') => {
                *i += 1;
                return Some(out);
            }
            _ => return None,
        }
    }
}

fn render_num(n: f64, out: &mut String) {
    if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
        let _ = write!(out, "{}", n as i64);
    } else if n.is_finite() {
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null"); // NaN/inf have no JSON spelling
    }
}

fn render_str(s: &str, out: &mut String) {
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH}"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(bytes, pos, depth),
        Some(b'[') => parse_arr(bytes, pos, depth),
        Some(b'"') => parse_str(bytes, pos).map(Json::Str),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(bytes, pos),
        Some(c) => Err(format!("unexpected byte {:?} at {}", *c as char, *pos)),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let tok = &bytes[start..*pos];
    // Fast path: plain non-negative integers — the protocol's dominant
    // number shape (edge IDs by the thousands per batched request). At
    // most 15 digits, so the f64 is exact and matches the slow path.
    if !tok.is_empty() && tok.len() <= 15 && tok.iter().all(u8::is_ascii_digit) {
        let mut v = 0u64;
        for &b in tok {
            v = v * 10 + u64::from(b - b'0');
        }
        return Ok(Json::Num(v as f64));
    }
    let text = std::str::from_utf8(tok).expect("ascii digits");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_str(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(cp).ok_or("surrogate \\u escape unsupported")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => return Err("raw control byte in string".into()),
            Some(_) => {
                // Copy one UTF-8 scalar (body bytes were validated as UTF-8
                // by the HTTP layer before parsing).
                let s = std::str::from_utf8(&bytes[*pos..]).map_err(|_| "invalid utf-8")?;
                let c = s.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut members = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected string key at byte {}", *pos));
        }
        let key = parse_str(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth + 1)?;
        members.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_protocol_shapes() {
        for text in [
            r#"{"path":[0,1,4],"cache":false}"#,
            r#"{"batches":[[0,1],[2]],"limit":32}"#,
            r#"{"count":3,"cached":true,"elapsed_ns":1234}"#,
            r#"[]"#,
            r#"{"s":"a\"b\\c\nd"}"#,
        ] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.render()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn rejects_malformed() {
        for text in [
            "",
            "{",
            "[1,",
            r#"{"a":}"#,
            r#"{"a":1}extra"#,
            "tru",
            "\"unterminated",
            "{1:2}",
            "nan",
            "[1 2]",
            "\"\u{1}\"",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn depth_limit_stops_recursion() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn usize_accessor_is_exact() {
        assert_eq!(Json::parse("7").unwrap().as_usize(), Some(7));
        assert_eq!(Json::parse("0").unwrap().as_usize(), Some(0));
        assert_eq!(Json::parse("1.5").unwrap().as_usize(), None);
        assert_eq!(Json::parse("-3").unwrap().as_usize(), None);
        assert_eq!(Json::parse("1e300").unwrap().as_usize(), None);
    }

    #[test]
    fn renders_integers_without_exponent() {
        assert_eq!(Json::from(1_234_567_890usize).render(), "1234567890");
        assert_eq!(Json::Num(0.5).render(), "0.5");
    }

    #[test]
    fn obj_builder_sorts_keys() {
        let v = obj(&[("b", 1usize.into()), ("a", 2usize.into())]);
        assert_eq!(v.render(), r#"{"a":2,"b":1}"#);
    }

    /// Re-extract a [`FastQuery`] through the generic parser, so the
    /// fast path can be checked member-for-member against it.
    fn generic_query(text: &str) -> FastQuery {
        let v = Json::parse(text).expect("generic parse");
        let path_of = |p: &Json| -> Vec<u32> {
            p.as_arr()
                .unwrap()
                .iter()
                .map(|e| u32::try_from(e.as_usize().unwrap()).unwrap())
                .collect()
        };
        FastQuery {
            path: v.get("path").map(&path_of),
            paths: v
                .get("paths")
                .map(|ps| ps.as_arr().unwrap().iter().map(&path_of).collect()),
            cache: v.get("cache").and_then(Json::as_bool),
            limit: v.get("limit").and_then(Json::as_usize),
        }
    }

    #[test]
    fn fast_query_matches_generic_parser() {
        for text in [
            r#"{"path":[0,1,4]}"#,
            r#"{"path":[0,1,4],"cache":false}"#,
            r#"{"paths":[[0,1],[2],[]],"cache":true,"limit":0}"#,
            r#"{"paths":[],"limit":32}"#,
            r#"{ "path" : [ 7 ] , "cache" : true }"#,
            r#"{"limit":4294967296,"path":[4294967295]}"#,
            "{}",
            r#"{"cache":false}"#,
        ] {
            let fast =
                parse_fast_query(text).unwrap_or_else(|| panic!("fast path rejected {text}"));
            assert_eq!(fast, generic_query(text), "{text}");
        }
    }

    #[test]
    fn fast_query_falls_back_on_any_deviation() {
        for text in [
            r#"{"path":[0,1]"#,               // truncated
            r#"{"path":[0,1],"extra":1}"#,    // unknown member
            r#"{"path":[0],"path":[1]}"#,     // duplicate key
            r#"{"path":[-1]}"#,               // signed
            r#"{"path":[1.5]}"#,              // float
            r#"{"path":[1e3]}"#,              // exponent
            r#"{"path":[4294967296]}"#,       // beyond u32
            r#"{"path":[1111111111111111]}"#, // 16 digits
            r#"{"path":"01"}"#,               // not an array
            r#"{"pa\th":[0]}"#,               // escaped key
            r#"{"path":[0]} "#,               // trailing space is fine...
            r#"{"path":[0]}x"#,               // ...trailing garbage is not
            r#"[{"path":[0]}]"#,              // not an object
        ] {
            // Trailing whitespace IS accepted by the fast path; list it
            // above only to document the boundary.
            if text == r#"{"path":[0]} "# {
                assert!(parse_fast_query(text).is_some(), "{text:?}");
                continue;
            }
            assert!(parse_fast_query(text).is_none(), "{text:?} must fall back");
        }
    }

    /// Every single-byte replacement, insertion and deletion (from a
    /// small alphabet of JSON-significant bytes) of valid count/locate
    /// bodies: the fast path either falls back or agrees with the
    /// generic parser exactly, and the generic parser never panics.
    #[test]
    fn mutated_query_bodies_fall_back_or_match_generic() {
        const ALPHABET: &[u8] = b"{}[],:\"0019-.eE tfn\\x";
        let bodies = [
            r#"{"path":[0,1,4]}"#,
            r#"{"path":[7],"cache":false}"#,
            r#"{"path":[0,12],"limit":32,"cache":true}"#,
            r#"{"paths":[[0,1],[2],[]],"cache":true}"#,
            r#"{"paths":[[3,40]],"limit":5}"#,
        ];
        let check = |bytes: &[u8]| {
            let Ok(text) = std::str::from_utf8(bytes) else {
                return;
            };
            let generic = Json::parse(text);
            if let Some(fast) = parse_fast_query(text) {
                assert!(generic.is_ok(), "fast path accepted {text:?}");
                assert_eq!(fast, generic_query(text), "{text:?}");
            }
        };
        for body in bodies {
            let b = body.as_bytes();
            for i in 0..=b.len() {
                for &c in ALPHABET {
                    check(&[&b[..i], &[c], &b[i..]].concat());
                    if i < b.len() {
                        check(&[&b[..i], &[c], &b[i + 1..]].concat());
                    }
                }
                if i < b.len() {
                    check(&[&b[..i], &b[i + 1..]].concat());
                }
            }
        }
    }
}
