//! The shared wire format of every line-oriented JSON surface: a minimal
//! recursive-descent JSON reader, the matching string escaper, and the
//! FNV-1a content hash.
//!
//! This workspace vendors no serde; the [`ResultStore`](crate::ResultStore)
//! file, the serve-mode WAL and the serve-mode request/response protocol
//! all speak hand-rolled single-line JSON instead. The grammar support
//! lives here, in one audited place, so the surfaces cannot drift: objects,
//! arrays, strings (with the standard escapes), numbers, booleans, null.
//!
//! Numbers parse through `str::parse::<f64>`, which inverts Rust's
//! shortest-round-trip `Display` serialization **bit-exactly** — the
//! foundation of both the store's byte-identical replay contract and
//! the serve front-end's byte-deterministic replay contract. Writers
//! simply `format!` floats with `Display` and strings through
//! [`escape`]; there is no writer object to misuse.

use crate::failpoint;
use std::fmt;

/// FNV-1a over a byte string — the content hash behind result-store
/// scenario keys (see [`fingerprint`](crate::fingerprint)). Stable,
/// dependency-free, and plenty for cache keying.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Escapes a string for embedding in a double-quoted JSON string literal
/// (the standard short escapes, `\u` for remaining control bytes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(&mut out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// A parsed JSON value. Objects keep their fields in document order (a
/// `Vec`, not a map), so round-tripping through a writer that emits
/// insertion-ordered fields is byte-stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `{...}` — fields in document order.
    Object(Vec<(String, Json)>),
    /// `[...]`.
    Array(Vec<Json>),
    /// A string.
    Str(String),
    /// A number (always carried as `f64`; integers survive exactly up to
    /// 2^53).
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl Json {
    /// The object's fields, or `None` for a non-object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// The array's items, or `None` for a non-array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string's contents, or `None` for a non-string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, or `None` for a non-number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Looks up a field of an object (the slice form [`Json::as_object`]
/// yields), erroring with the field name when absent.
///
/// # Errors
///
/// Returns a message naming the missing field.
pub fn get<'a>(obj: &'a [(String, Json)], name: &str) -> Result<&'a Json, String> {
    obj.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field `{name}`"))
}

/// [`get`] for a string-typed field.
///
/// # Errors
///
/// Returns a message when the field is absent or not a string.
pub fn get_str<'a>(obj: &'a [(String, Json)], name: &str) -> Result<&'a str, String> {
    match get(obj, name)? {
        Json::Str(s) => Ok(s),
        _ => Err(format!("field `{name}` is not a string")),
    }
}

/// [`get`] for a numeric field.
///
/// # Errors
///
/// Returns a message when the field is absent or not a number.
pub fn get_f64(obj: &[(String, Json)], name: &str) -> Result<f64, String> {
    match get(obj, name)? {
        Json::Num(n) => Ok(*n),
        _ => Err(format!("field `{name}` is not a number")),
    }
}

/// [`get`] for a non-negative integer field (carried as `f64` on the
/// wire, checked to be integral).
///
/// # Errors
///
/// Returns a message when the field is absent, not a number, or not a
/// non-negative integer.
pub fn get_usize(obj: &[(String, Json)], name: &str) -> Result<usize, String> {
    let n = get_f64(obj, name)?;
    if n.fract() == 0.0 && (0.0..=(u64::MAX as f64)).contains(&n) {
        Ok(n as usize)
    } else {
        Err(format!("field `{name}` is not a non-negative integer"))
    }
}

/// [`get`] for a boolean field.
///
/// # Errors
///
/// Returns a message when the field is absent or not a boolean.
pub fn get_bool(obj: &[(String, Json)], name: &str) -> Result<bool, String> {
    match get(obj, name)? {
        Json::Bool(b) => Ok(*b),
        _ => Err(format!("field `{name}` is not a boolean")),
    }
}

/// [`get_bool`] with a default for an *absent* field — for schema fields
/// added after records were already on disk (e.g. the campaign outcome's
/// `warm_started` flag): a present field must still be a boolean, an
/// absent one means `default`.
///
/// # Errors
///
/// Returns a message when the field is present but not a boolean.
pub fn get_bool_or(obj: &[(String, Json)], name: &str, default: bool) -> Result<bool, String> {
    match obj.iter().find(|(k, _)| k == name) {
        None => Ok(default),
        Some((_, Json::Bool(b))) => Ok(*b),
        Some(_) => Err(format!("field `{name}` is not a boolean")),
    }
}

/// The parsed contents of one line-oriented record log (see
/// [`read_line_log`]): successfully parsed entries and quarantined
/// corrupt lines, both tagged with their 1-based line numbers.
#[derive(Debug, Clone)]
pub struct LineLog<T> {
    /// Parsed entries in file order, each with its 1-based line number.
    pub entries: Vec<(usize, T)>,
    /// Lines that failed to parse (torn appends, garbled bytes), each
    /// with its 1-based line number and the parse failure.
    pub corrupt: Vec<(usize, String)>,
}

/// Reads a line-oriented record log: a mandatory header line followed by
/// one record per line, in the hand-rolled single-line JSON style shared
/// by the [`ResultStore`](crate::ResultStore) and the serve-mode session
/// WAL.
///
/// The two surfaces share the same robustness posture, implemented once
/// here: the *header* is checked strictly (an unrecognized header means
/// the whole file is of unknown provenance — a hard error), while
/// *entry* corruption is quarantined per line so a torn tail from a
/// crash mid-append never takes the readable prefix down with it. Blank
/// lines are skipped. How quarantined lines are treated — keyed
/// last-write-wins for the store, durable-prefix truncation for the
/// WAL — is the caller's policy, applied to the returned [`LineLog`].
///
/// `failpoint_site` names the fault-injection site fired per entry line
/// (with the 1-based line number as detail); a triggered fault truncates
/// the line to half its length before parsing, simulating a torn append.
///
/// # Errors
///
/// Returns a message when the header line is missing or mismatched.
pub fn read_line_log<T>(
    text: &str,
    header: &str,
    failpoint_site: &str,
    mut parse_entry: impl FnMut(&str) -> Result<T, String>,
) -> Result<LineLog<T>, String> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, first)) if first.trim() == header => {}
        _ => {
            return Err(format!(
                "missing or unrecognized header (expected `{header}`)"
            ))
        }
    }
    let mut entries = Vec::new();
    let mut corrupt = Vec::new();
    for (idx, raw) in lines {
        let line_no = idx + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let line = if failpoint::fire(failpoint_site, &line_no.to_string()) {
            &raw[..raw.len() / 2]
        } else {
            raw
        };
        match parse_entry(line) {
            Ok(entry) => entries.push((line_no, entry)),
            Err(message) => corrupt.push((line_no, message)),
        }
    }
    Ok(LineLog { entries, corrupt })
}

/// Parses one complete JSON document (trailing bytes are an error, so a
/// line-oriented caller can hand whole lines in directly).
///
/// # Errors
///
/// Returns a human-readable message with the byte offset of the problem.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
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
            Err(format!(
                "expected `{}` at offset {}",
                char::from(b),
                self.pos
            ))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so
                    // char boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8")?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number".to_string())?;
        token
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number `{token}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_handles_the_grammar() {
        let v = parse("{\"a\": [1, -2.5e3, \"x\\u0041\\n\"], \"b\": true, \"c\": null, \"d\": {}}")
            .expect("valid json");
        let obj = v.as_object().unwrap();
        assert_eq!(
            get(obj, "a").unwrap(),
            &Json::Array(vec![
                Json::Num(1.0),
                Json::Num(-2500.0),
                Json::Str("xA\n".to_string())
            ])
        );
        assert_eq!(get_bool(obj, "b"), Ok(true));
        assert_eq!(get(obj, "c").unwrap(), &Json::Null);
        assert!(get(obj, "d").unwrap().as_object().unwrap().is_empty());
        // Malformed inputs error instead of panicking.
        for bad in ["", "{", "{\"a\":}", "[1,]", "\"unterminated", "01x", "{}{}"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn accessors_discriminate_types() {
        let v = parse("{\"s\":\"x\",\"n\":2.5,\"a\":[1]}").unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(get(obj, "s").unwrap().as_str(), Some("x"));
        assert_eq!(get(obj, "n").unwrap().as_f64(), Some(2.5));
        assert_eq!(
            get(obj, "a").unwrap().as_array().map(<[Json]>::len),
            Some(1)
        );
        assert!(get(obj, "s").unwrap().as_f64().is_none());
        assert!(get(obj, "n").unwrap().as_str().is_none());
        assert!(get(obj, "s").unwrap().as_array().is_none());
        assert!(v.as_str().is_none());
        assert!(get_str(obj, "n").is_err());
        assert!(get_f64(obj, "s").is_err());
        assert!(get_bool(obj, "s").is_err());
        assert!(get(obj, "zzz").is_err());
        // Defaulted booleans: absent → default, present-but-wrong-type →
        // error, present boolean → its value.
        assert_eq!(get_bool_or(obj, "zzz", true), Ok(true));
        assert_eq!(get_bool_or(obj, "zzz", false), Ok(false));
        assert!(get_bool_or(obj, "s", false).is_err());
        let v = parse("{\"b\":true}").unwrap();
        assert_eq!(get_bool_or(v.as_object().unwrap(), "b", false), Ok(true));
    }

    #[test]
    fn usize_fields_reject_fractions_and_negatives() {
        let v = parse("{\"i\":3,\"f\":3.5,\"m\":-1}").unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(get_usize(obj, "i"), Ok(3));
        assert!(get_usize(obj, "f").is_err());
        assert!(get_usize(obj, "m").is_err());
    }

    #[test]
    fn floats_round_trip_bit_exactly_through_display() {
        for x in [0.1 + 0.2, 123.456_789_012_345_67, f64::MIN_POSITIVE, 1e300] {
            let rendered = format!("{x}");
            let back = parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{rendered}");
        }
    }

    #[test]
    fn escape_covers_specials_and_control_bytes() {
        assert_eq!(escape("a\"b\\c\nd\te\r"), "a\\\"b\\\\c\\nd\\te\\r");
        assert_eq!(escape("\u{1}"), "\\u0001");
        // Escaped text parses back to the original.
        let original = "weird \"name\"\\with\tescapes\u{2}";
        let line = format!("\"{}\"", escape(original));
        assert_eq!(parse(&line).unwrap().as_str(), Some(original));
    }

    #[test]
    fn line_log_reader_checks_header_and_quarantines_entries() {
        let parse = |line: &str| {
            let v = parse(line)?;
            let obj = v.as_object().ok_or("not an object")?;
            get_usize(obj, "n")
        };
        let log = read_line_log(
            "{\"h\":1}\n{\"n\":1}\n\n{\"n\":tor\n{\"n\":3}\n",
            "{\"h\":1}",
            "wire_test::read",
            parse,
        )
        .expect("valid header");
        assert_eq!(log.entries, vec![(2, 1), (5, 3)]);
        assert_eq!(log.corrupt.len(), 1);
        assert_eq!(log.corrupt[0].0, 4);
        // A wrong (or absent) header is a hard error, not quarantine.
        assert!(read_line_log("{\"other\":2}\n{\"n\":1}\n", "{\"h\":1}", "s", parse).is_err());
        assert!(read_line_log("", "{\"h\":1}", "s", parse).is_err());
        // An armed failpoint tears the matching line before parsing.
        let _fp = crate::failpoint::arm(
            "wire_test::read",
            Some("2"),
            crate::failpoint::FaultAction::Trigger,
        );
        let log = read_line_log(
            "{\"h\":1}\n{\"n\":1}\n{\"n\":2}\n",
            "{\"h\":1}",
            "wire_test::read",
            parse,
        )
        .expect("header fine");
        assert_eq!(log.entries, vec![(3, 2)]);
        assert_eq!(log.corrupt.len(), 1);
    }

    #[test]
    fn fnv1a_is_stable_and_separates_inputs() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
    }
}
