//! The workspace's one JSON reader (hand-rolled like every serializer in
//! this dependency-free workspace), in the leaf crate so `schemes`,
//! `bench`, `serve` and the CLI all read documents through it.
//!
//! The service's request bodies, journal lines and cell reproducers are
//! small documents of objects, arrays, strings, booleans and **integer**
//! numbers. Integer tokens are carried as `i128` so the full `u64` seed
//! range survives parsing (an `f64`-backed number type would silently
//! round seeds above 2^53 — the content hash would then collide configs
//! that differ only in their high seed bits). A token with a fraction
//! or an exponent (the `BENCH_*.json` reports carry rates and ratios)
//! becomes [`Json::Real`], which only [`Json::as_f64`] reads: the
//! integer getters refuse it, so `"seed": 1.5` is still rejected by
//! every wire-format reader, at the field that asked for an integer.

/// A parsed JSON value. Object member order is preserved (the canonical
/// cell serializer in `datasync_serve::spec` depends on *emitting* a
/// fixed order, never on the order it reads).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer token (the wire format has no fractional fields).
    Num(i128),
    /// A number token with a fraction or an exponent; finite.
    Real(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in source order; duplicate keys keep the last
    /// occurrence (matching serde_json's default).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (`None` for other variants or a
    /// missing key). Duplicate keys resolve to the last occurrence.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an in-range number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an in-range number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as an `f64`: any number, integer tokens included
    /// (rounded to the nearest representable value past 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n as f64),
            Json::Real(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The object's keys, in source order (empty for non-objects).
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }
}

/// Parses a complete JSON document (rejecting trailing garbage).
///
/// # Errors
///
/// Returns a human-readable message with a byte offset on malformed
/// input, numbers outside the `i128` / finite `f64` range, or nesting
/// deeper than 32 levels.
pub fn parse(doc: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: doc.as_bytes(), at: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.at));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

const MAX_DEPTH: usize = 32;

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.at), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.at))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", self.at));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!("unexpected '{}' at byte {}", other as char, self.at)),
            None => Err("unexpected end of document".into()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("malformed literal at byte {}", self.at))
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.at;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        self.at - start
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        let mut malformed = self.digits() == 0;
        let mut real = false;
        if self.peek() == Some(b'.') {
            self.at += 1;
            real = true;
            malformed |= self.digits() == 0;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            real = true;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            malformed |= self.digits() == 0;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("digits are utf-8");
        let value = if malformed {
            None
        } else if real {
            text.parse::<f64>().ok().filter(|x| x.is_finite()).map(Json::Real)
        } else {
            text.parse::<i128>().ok().map(Json::Num)
        };
        value.ok_or_else(|| format!("malformed number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.at += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            return Err(format!(
                                "unknown escape '\\{}' at byte {}",
                                other as char, self.at
                            ));
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through unvalidated-per-byte; the source &str is
                    // already valid UTF-8).
                    let rest = std::str::from_utf8(&self.bytes[self.at..])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.at += c.len_utf8();
                }
            }
        }
    }

    /// Reads the four hex digits of a `\u` escape (the `\u` itself is
    /// already consumed).
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.at..self.at + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or("truncated \\u escape")?;
        let code = u32::from_str_radix(hex, 16)
            .map_err(|_| format!("malformed \\u escape at byte {}", self.at))?;
        self.at += 4;
        Ok(code)
    }

    /// Decodes one `\uXXXX` escape body into a scalar. A high surrogate
    /// must be followed by a `\uDC00`–`\uDFFF` escape and the pair is
    /// combined into its astral character; unpaired surrogates are
    /// rejected — replacing them with U+FFFD would silently corrupt
    /// client strings, and the content hash with them.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let code = self.hex4()?;
        match code {
            0xD800..=0xDBFF => {
                if self.peek() == Some(b'\\') && self.bytes.get(self.at + 1) == Some(&b'u') {
                    self.at += 2;
                    let low_at = self.at;
                    let low = self.hex4()?;
                    if !(0xDC00..=0xDFFF).contains(&low) {
                        return Err(format!(
                            "high surrogate not followed by a low surrogate at byte {low_at}"
                        ));
                    }
                    let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    char::from_u32(combined)
                        .ok_or_else(|| format!("malformed surrogate pair at byte {low_at}"))
                } else {
                    Err(format!("unpaired high surrogate ends at byte {}", self.at))
                }
            }
            0xDC00..=0xDFFF => Err(format!("unpaired low surrogate ends at byte {}", self.at)),
            _ => char::from_u32(code)
                .ok_or_else(|| format!("invalid \\u escape ends at byte {}", self.at)),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(members));
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
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
    }
}

/// Escapes a string for embedding in a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_wire_shapes() {
        let doc = r#"{"a": 1, "b": [2, 3], "c": {"d": "x", "e": true}, "f": null, "g": -7}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("b").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        assert_eq!(v.get("c").and_then(|c| c.get("d")).and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("c").and_then(|c| c.get("e")).and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("f"), Some(&Json::Null));
        assert_eq!(v.get("g").and_then(Json::as_i64), Some(-7));
        assert_eq!(v.keys(), vec!["a", "b", "c", "f", "g"]);
    }

    #[test]
    fn full_u64_seed_range_survives() {
        let doc = format!("{{\"seed\": {}}}", u64::MAX);
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("seed").and_then(Json::as_u64), Some(u64::MAX));
        // An f64-backed parser would have collapsed nearby seeds; i128
        // keeps adjacent values distinct.
        let near = format!("{{\"seed\": {}}}", u64::MAX - 1);
        assert_ne!(parse(&near).unwrap(), v);
    }

    #[test]
    fn duplicate_keys_keep_the_last() {
        let v = parse(r#"{"a": 1, "a": 2}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse(r#"{"s": "a\"b\\c\ndA"}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("a\"b\\c\ndA"));
        let original = "quote\" slash\\ newline\n tab\t control\u{1}";
        let doc = format!("{{\"s\": \"{}\"}}", escape(original));
        assert_eq!(parse(&doc).unwrap().get("s").and_then(Json::as_str), Some(original));
    }

    #[test]
    fn unicode_escapes_decode_including_surrogate_pairs() {
        let v = parse(r#"{"s": "\u0041\u00e9\u4e2d"}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("A\u{e9}\u{4e2d}"));
        // A surrogate pair combines into its astral scalar, not two
        // replacement characters.
        let v = parse(r#"{"s": "\ud83d\ude00"}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("\u{1f600}"));
        let v = parse(r#"{"s": "a\ud83d\ude00b"}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("a\u{1f600}b"));
    }

    #[test]
    fn unpaired_surrogates_are_rejected_not_replaced() {
        for bad in [
            r#""\ud83d""#,       // lone high surrogate
            r#""\ud83dxx""#,     // high surrogate then plain text
            r#""\ud83d\n""#,     // high surrogate then a non-\u escape
            r#""\ud83d\ud83d""#, // high followed by high
            r#""\ude00""#,       // lone low surrogate
            r#""\ude00\ud83d""#, // pair in the wrong order
        ] {
            assert!(parse(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\"}",
            "{\"a\": }",
            "[1, ]",
            "{\"a\": 1} x",
            "nul",
            "1.",
            ".5",
            "1e",
            "1e+",
            "-.5e1",
            "1e999",
            "\"abc",
            "{\"a\": 01x}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn fractions_are_read_only_by_as_f64() {
        let v = parse(r#"{"rate": 15957362.851, "big": 2.5e9, "neg": -3.0, "n": 4}"#).unwrap();
        assert_eq!(v.get("rate").and_then(Json::as_f64), Some(15_957_362.851));
        assert_eq!(v.get("big").and_then(Json::as_f64), Some(2.5e9));
        assert_eq!(v.get("neg").and_then(Json::as_f64), Some(-3.0));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(4.0));
        // A fraction never passes for an integer, even a whole one.
        for key in ["rate", "big", "neg"] {
            assert_eq!(v.get(key).and_then(Json::as_u64), None, "{key}");
            assert_eq!(v.get(key).and_then(Json::as_i64), None, "{key}");
        }
        assert_eq!(parse("4.0").unwrap().as_u64(), None);
        assert_eq!(parse("1e3").unwrap().as_i64(), None);
    }

    #[test]
    fn rejects_absurd_nesting() {
        let deep = "[".repeat(64) + &"]".repeat(64);
        let e = parse(&deep).unwrap_err();
        assert!(e.contains("nesting"), "{e}");
    }

    #[test]
    fn empty_containers_parse() {
        assert_eq!(parse("{}").unwrap(), Json::Obj(vec![]));
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse(" [ ] ").unwrap(), Json::Arr(vec![]));
    }
}
