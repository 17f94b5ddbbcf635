//! A minimal, dependency-free JSON value model, parser and writer.
//!
//! Two wire formats of this crate are built on it: the run-record JSON
//! lines of [`crate::record`] (`imc.experiment-run`) and the experiment
//! request documents of [`crate::spec`] (`imc.experiment-spec`). No
//! serde-style dependency is available offline, so — like the bench
//! harness's `BENCH_results.json` sink these formats are modeled on — both
//! the parser and the writer are hand-rolled here and shared.
//!
//! Design points:
//!
//! * **Numbers keep their raw source token** ([`JsonValue::Number`]), so
//!   integer fields of any magnitude and floating-point fields both convert
//!   losslessly at the access site, and re-serializing a parsed document
//!   reproduces every number byte for byte.
//! * **`f64` writing is shortest-round-trip** ([`json_f64`]): parsing a
//!   written token back reconstructs the identical bit pattern, which is
//!   what makes the run-record format bit-exact.
//! * **Objects preserve member order**, so a parse → write round-trip is
//!   canonical: the same value always serializes to the same bytes.
//! * **The parser is safe on untrusted input** — the evaluation server
//!   ([`crate::serve`]) feeds it bytes straight off the network. Nesting
//!   deeper than [`MAX_PARSE_DEPTH`] is rejected (a recursive-descent
//!   parser would otherwise overflow its stack on `[[[[…`), and duplicate
//!   object keys are a parse error rather than a silent
//!   last-or-first-wins ambiguity.

use crate::{Error, Result};

/// A parsed JSON value.
///
/// Numbers keep their **raw token** instead of eagerly converting to `f64`,
/// so integer fields of any magnitude and floating-point fields both convert
/// losslessly at the access site ([`JsonValue::as_u64`] /
/// [`JsonValue::as_f64`]).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw source token (e.g. `"-12.5e3"`).
    Number(String),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, as key/value pairs in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Record`] describing the first syntax error.
    pub fn parse(input: &str) -> Result<JsonValue> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_whitespace();
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parse_error(
                parser.pos,
                "trailing characters after JSON value",
            ));
        }
        Ok(value)
    }

    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find_map(|(k, v)| (k == key).then_some(v)),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `f64` (exact for every value this crate writes, which
    /// uses shortest round-trip formatting).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// The number as `u64`, when it is a non-negative integer token.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// The number as `usize`, when it is a non-negative integer token.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Number(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object members in source order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Serializes the value as compact JSON (no whitespace), preserving
    /// member order and raw number tokens — a parse → `to_json` round-trip
    /// of compact output is byte-identical.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Number(token) => out.push_str(token),
            JsonValue::String(s) => out.push_str(&json_string(s)),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            JsonValue::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&json_string(key));
                    out.push(':');
                    value.write_json(out);
                }
                out.push('}');
            }
        }
    }
}

fn parse_error(pos: usize, what: &str) -> Error {
    Error::Record {
        what: format!("JSON parse error at byte {pos}: {what}"),
    }
}

/// Maximum container nesting the parser accepts. Every legitimate document
/// of this crate's wire formats nests a handful of levels; 64 leaves wide
/// headroom while keeping the recursive descent far from stack exhaustion
/// on adversarial `[[[[…` input.
pub const MAX_PARSE_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<()> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(parse_error(
                self.pos,
                &format!("expected '{}'", byte as char),
            ))
        }
    }

    fn eat_literal(&mut self, literal: &str, value: JsonValue) -> Result<JsonValue> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(parse_error(self.pos, &format!("expected '{literal}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.eat_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.eat_literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.eat_literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(parse_error(self.pos, "expected a JSON value")),
        }
    }

    /// Counts one level of container nesting; errors past
    /// [`MAX_PARSE_DEPTH`]. Paired with `leave` in `object`/`array`.
    fn enter(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            return Err(parse_error(
                self.pos,
                &format!("nesting deeper than {MAX_PARSE_DEPTH} levels"),
            ));
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn object(&mut self) -> Result<JsonValue> {
        self.expect(b'{')?;
        self.enter()?;
        let mut members: Vec<(String, JsonValue)> = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.leave();
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_whitespace();
            let key_pos = self.pos;
            let key = self.string()?;
            if members.iter().any(|(existing, _)| *existing == key) {
                return Err(parse_error(
                    key_pos,
                    &format!("duplicate object key '{key}'"),
                ));
            }
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            members.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.leave();
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(parse_error(self.pos, "expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.leave();
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.leave();
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(parse_error(self.pos, "expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(parse_error(self.pos, "unterminated string")),
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
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| parse_error(self.pos, "invalid \\u escape"))?;
                            // Surrogate pairs are not produced by this
                            // crate's writer; reject rather than mis-decode.
                            let c = char::from_u32(hex).ok_or_else(|| {
                                parse_error(self.pos, "\\u escape is not a scalar value")
                            })?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(parse_error(self.pos, "invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(b) => {
                    // Consume one multi-byte UTF-8 scalar. The input is a
                    // `&str` and the cursor only ever advances by whole
                    // scalars, so the lead byte determines the width exactly;
                    // validating just that slice keeps string parsing linear.
                    let width = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = (self.pos + width).min(self.bytes.len());
                    let c = std::str::from_utf8(&self.bytes[self.pos..end])
                        .ok()
                        .and_then(|s| s.chars().next())
                        .ok_or_else(|| parse_error(self.pos, "invalid UTF-8 in string"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue> {
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
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number token");
        if token.is_empty() || token == "-" || token.parse::<f64>().is_err() {
            return Err(parse_error(start, "invalid number"));
        }
        Ok(JsonValue::Number(token.to_owned()))
    }
}

/// Escapes a string as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` with Rust's shortest round-trip `Display` — parsing the
/// token back yields the identical bit pattern for every finite value.
///
/// # Errors
///
/// Returns [`Error::Record`] for non-finite values (JSON has no encoding for
/// them); `field` names the offender in the message.
pub fn json_f64(value: f64, field: &str) -> Result<String> {
    if !value.is_finite() {
        return Err(Error::Record {
            what: format!("field '{field}' is {value}, which JSON cannot represent"),
        });
    }
    Ok(format!("{value}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_handles_the_grammar() {
        let doc = r#"{"a":[1,-2.5e3,true,null,"x\n\"yé"],"b":{"c":0.1}, "d": [] }"#;
        let v = JsonValue::parse(doc).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(-2500.0));
        assert_eq!(a[1].as_u64(), None);
        assert_eq!(a[2], JsonValue::Bool(true));
        assert_eq!(a[2].as_bool(), Some(true));
        assert_eq!(a[3], JsonValue::Null);
        assert_eq!(a[4].as_str(), Some("x\n\"y\u{e9}"));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_f64(), Some(0.1));
        assert_eq!(v.get("d").unwrap().as_array().unwrap().len(), 0);

        for bad in ["{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated", "-"] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn escape_sequences_round_trip_both_ways() {
        // Reader: every escape the grammar defines.
        let doc = r#""q\" b\\ s\/ \b \f \n \r \t A é""#;
        let v = JsonValue::parse(doc).unwrap();
        assert_eq!(v.as_str(), Some("q\" b\\ s/ \u{8} \u{c} \n \r \t A \u{e9}"));
        // Writer: quotes/backslashes escaped, control characters as \u00xx,
        // everything else (including non-ASCII) verbatim.
        let s = "tab\t nl\n quote\" back\\ nul\u{0} é";
        let written = json_string(s);
        assert_eq!(
            written,
            "\"tab\\u0009 nl\\u000a quote\\\" back\\\\ nul\\u0000 é\""
        );
        assert_eq!(JsonValue::parse(&written).unwrap().as_str(), Some(s));
        // Invalid escapes are rejected.
        for bad in [r#""\x""#, r#""\u12""#, r#""\ud800""#] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn nested_containers_round_trip_byte_identically() {
        // Compact JSON: parse → to_json reproduces the input bytes, member
        // order and raw number tokens included.
        let doc = r#"{"a":{"b":[1,[2.50,{"c":null}],{"d":[]}],"e":{}},"f":[true,false,"g"]}"#;
        let v = JsonValue::parse(doc).unwrap();
        assert_eq!(v.to_json(), doc);
        assert_eq!(JsonValue::parse(&v.to_json()).unwrap(), v);
        // Member order is preserved, not sorted.
        let swapped = r#"{"f":1,"a":2}"#;
        assert_eq!(JsonValue::parse(swapped).unwrap().to_json(), swapped);
    }

    #[test]
    fn nesting_past_the_depth_limit_is_a_parse_error_not_a_crash() {
        // Exactly at the limit: accepted (arrays, objects, and a mix).
        let deep_arrays = format!(
            "{}{}",
            "[".repeat(MAX_PARSE_DEPTH),
            "]".repeat(MAX_PARSE_DEPTH)
        );
        assert!(JsonValue::parse(&deep_arrays).is_ok());
        let deep_objects = format!(
            "{}null{}",
            "{\"k\":".repeat(MAX_PARSE_DEPTH),
            "}".repeat(MAX_PARSE_DEPTH)
        );
        assert!(JsonValue::parse(&deep_objects).is_ok());

        // One level past: rejected with the depth in the message.
        let over = format!(
            "{}{}",
            "[".repeat(MAX_PARSE_DEPTH + 1),
            "]".repeat(MAX_PARSE_DEPTH + 1)
        );
        let err = JsonValue::parse(&over).unwrap_err();
        assert!(
            format!("{err}").contains("nesting deeper than"),
            "unexpected error: {err}"
        );

        // The adversarial case the limit exists for: an unclosed open-bracket
        // flood must error out, not exhaust the parser's stack.
        let flood = "[".repeat(1 << 20);
        assert!(JsonValue::parse(&flood).is_err());
        let object_flood = "{\"k\":".repeat(1 << 18);
        assert!(JsonValue::parse(&object_flood).is_err());

        // Depth is structural, not cumulative: many shallow siblings stay
        // fine.
        let wide = format!("[{}]", vec!["[1]"; 1000].join(","));
        assert!(JsonValue::parse(&wide).is_ok());
    }

    #[test]
    fn duplicate_object_keys_are_rejected_with_the_offending_key() {
        let err = JsonValue::parse(r#"{"a":1,"b":2,"a":3}"#).unwrap_err();
        let text = format!("{err}");
        assert!(text.contains("duplicate object key 'a'"), "{text}");

        // Escapes are unescaped before comparison: "a" is 'a'.
        assert!(JsonValue::parse(r#"{"a":1,"\u0061":2}"#).is_err());

        // Same key in *different* objects is legal.
        assert!(JsonValue::parse(r#"{"x":{"a":1},"y":{"a":2}}"#).is_ok());
        assert!(JsonValue::parse(r#"[{"a":1},{"a":2}]"#).is_ok());
    }

    #[test]
    fn f64_tokens_round_trip_bit_for_bit() {
        for value in [
            0.0,
            -0.0,
            1.0,
            91.6,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            6.02214076e23,
            30719.999999999996,
        ] {
            let token = json_f64(value, "x").unwrap();
            let parsed: f64 = token.parse().unwrap();
            assert_eq!(parsed.to_bits(), value.to_bits(), "token {token}");
        }
        assert!(json_f64(f64::NAN, "x").is_err());
        assert!(json_f64(f64::INFINITY, "x").is_err());
    }

    #[test]
    fn seeded_f64_fuzz_round_trips_through_parse_and_write() {
        // SplitMix64 over raw bit patterns: every finite f64 — subnormals,
        // extreme exponents, full mantissas — must survive write → parse →
        // write with identical bits and an identical token.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut checked = 0;
        for _ in 0..4096 {
            let value = f64::from_bits(next());
            if !value.is_finite() {
                continue;
            }
            let token = json_f64(value, "fuzz").unwrap();
            let reparsed = JsonValue::parse(&token).unwrap();
            let back = reparsed.as_f64().unwrap();
            assert_eq!(back.to_bits(), value.to_bits(), "token {token}");
            assert_eq!(json_f64(back, "fuzz").unwrap(), token);
            checked += 1;
        }
        assert!(checked > 3000, "only {checked} finite samples");
    }
}
