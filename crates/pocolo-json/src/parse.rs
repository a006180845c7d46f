//! Recursive-descent JSON parser for [`Value`](crate::Value).

use crate::Value;
use std::fmt;

/// Parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Maximum container nesting the parser will descend into. Deeper
/// documents return a typed [`ParseError`] instead of overflowing the
/// stack — the wire path feeds this parser untrusted bytes.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document.
pub fn from_str(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
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

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", byte as char)))
        }
    }

    fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error("maximum nesting depth exceeded"));
        }
        Ok(())
    }

    fn parse_value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => {
                self.descend()?;
                let v = self.parse_object();
                self.depth -= 1;
                v
            }
            Some(b'[') => {
                self.descend()?;
                let v = self.parse_array();
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{word}'")))
        }
    }

    fn parse_object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                            self.pos += 1;
                            let code = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&code) {
                                // High surrogate: must be followed by \uXXXX low half.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.parse_hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    let combined =
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.error("invalid unicode escape")),
                            }
                            continue; // parse_hex4 already advanced past the digits
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.error("control character in string")),
                Some(_) => {
                    let start = self.pos;
                    while self
                        .peek()
                        .is_some_and(|c| c != b'"' && c != b'\\' && c >= 0x20)
                    {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.error("invalid unicode escape"))?;
        let code =
            u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid unicode escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn eat_digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn parse_number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.eat_digits() == 0 {
            return Err(self.error("expected digit in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.eat_digits() == 0 {
                return Err(self.error("expected digit after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.eat_digits() == 0 {
                return Err(self.error("expected digit in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        let n: f64 = text.parse().map_err(|_| self.error("invalid number"))?;
        // The writer never emits non-finite numbers (they serialize as
        // null), so a document whose literal overflows f64 is malformed
        // rather than silently infinite.
        if !n.is_finite() {
            return Err(self.error("number out of range"));
        }
        Ok(Value::Number(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(from_str("null").unwrap(), Value::Null);
        assert_eq!(from_str("true").unwrap(), Value::Bool(true));
        assert_eq!(from_str(" -2.5e2 ").unwrap(), Value::Number(-250.0));
        assert_eq!(
            from_str("\"hi\\nthere\"").unwrap(),
            Value::String("hi\nthere".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = from_str(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v["a"][0].as_f64(), Some(1.0));
        assert_eq!(v["a"][1]["b"], Value::Null);
        assert_eq!(v["c"].as_str(), Some("x"));
    }

    #[test]
    fn parses_unicode_escapes() {
        assert_eq!(
            from_str("\"\\u00e9\\uD83D\\uDE00\"").unwrap(),
            Value::String("é😀".into())
        );
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str("").is_err());
        assert!(from_str("{").is_err());
        assert!(from_str("[1,]").is_err());
        assert!(from_str("nul").is_err());
        assert!(from_str("1 2").is_err());
        assert!(from_str("\"\\x\"").is_err());
    }

    #[test]
    fn empty_containers() {
        assert_eq!(from_str("{}").unwrap(), Value::Object(vec![]));
        assert_eq!(from_str("[ ]").unwrap(), Value::Array(vec![]));
    }

    #[test]
    fn rejects_lone_and_unpaired_surrogates() {
        // Lone high surrogate, high followed by non-escape, and a low
        // half outside the surrogate range must all fail typed.
        assert!(from_str("\"\\uD83D\"").is_err());
        assert!(from_str("\"\\uD83Dx\"").is_err());
        assert!(from_str("\"\\uD83D\\u0041\"").is_err());
        // Lone low surrogate.
        assert!(from_str("\"\\uDE00\"").is_err());
        // Truncated escape at end of input.
        assert!(from_str("\"\\uD83D\\u").is_err());
        assert!(from_str("\"\\u12").is_err());
    }

    #[test]
    fn rejects_incomplete_number_literals() {
        for bad in ["1.", "-", "-.", "1e", "1e+", "1E-", ".5", "1.e3"] {
            assert!(from_str(bad).is_err(), "{bad:?} should not parse");
        }
        // The strict grammar still accepts the full shape.
        assert_eq!(from_str("-12.5e-2").unwrap(), Value::Number(-0.125));
    }

    #[test]
    fn rejects_numbers_that_overflow_f64() {
        let e = from_str("1e999").unwrap_err();
        assert!(e.message.contains("out of range"), "got: {e}");
        assert!(from_str("-1e999").is_err());
        // Underflow to zero is representable, not an error.
        assert_eq!(from_str("1e-999").unwrap(), Value::Number(0.0));
    }

    #[test]
    fn depth_limit_is_a_typed_error_not_a_stack_overflow() {
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(from_str(&deep(super::MAX_DEPTH)).is_ok());
        let e = from_str(&deep(super::MAX_DEPTH + 1)).unwrap_err();
        assert!(e.message.contains("nesting depth"), "got: {e}");
        // Far past the limit: still a clean error (would overflow the
        // stack without the guard).
        assert!(from_str(&deep(100_000)).is_err());
        // Mixed object/array nesting counts against the same budget.
        let mixed = "{\"a\":".repeat(super::MAX_DEPTH) + "1" + &"}".repeat(super::MAX_DEPTH);
        assert!(from_str(&mixed).is_ok());
        let mixed =
            "{\"a\":".repeat(super::MAX_DEPTH + 1) + "1" + &"}".repeat(super::MAX_DEPTH + 1);
        assert!(from_str(&mixed).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Writes `s` as a JSON string using an explicit `\uXXXX` escape for
    /// every char (surrogate pairs for astral-plane chars), exercising
    /// the escape decoder rather than the raw-chunk fast path.
    fn fully_escaped(s: &str) -> String {
        let mut out = String::from("\"");
        let mut units = [0u16; 2];
        for c in s.chars() {
            for u in c.encode_utf16(&mut units) {
                out.push_str(&format!("\\u{u:04x}"));
            }
        }
        out.push('"');
        out
    }

    fn arb_unicode_string() -> impl Strategy<Value = String> {
        proptest::collection::vec(0u32..0x11_0000, 0..24).prop_map(|codes| {
            codes
                .into_iter()
                .filter_map(char::from_u32) // drops the surrogate gap
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every unicode string survives escape-encoding → parse,
        /// including astral-plane chars that need surrogate pairs.
        #[test]
        fn unicode_escapes_round_trip(s in arb_unicode_string()) {
            let parsed = from_str(&fully_escaped(&s)).unwrap();
            prop_assert_eq!(parsed, Value::String(s));
        }

        /// Writer → parser round-trip over the raw-char path too.
        #[test]
        fn writer_strings_round_trip(s in arb_unicode_string()) {
            let doc = Value::String(s.clone()).to_compact_string();
            prop_assert_eq!(from_str(&doc).unwrap(), Value::String(s));
        }

        /// Any nesting depth up to the limit parses; anything past it is
        /// a typed error, never a crash.
        #[test]
        fn nesting_depth_is_exact(depth in 1usize..=2 * MAX_DEPTH) {
            let doc = "[".repeat(depth) + &"]".repeat(depth);
            let r = from_str(&doc);
            if depth <= MAX_DEPTH {
                prop_assert!(r.is_ok());
            } else {
                prop_assert!(r.unwrap_err().message.contains("nesting depth"));
            }
        }

        /// Finite f64s of any bit pattern round-trip exactly through the
        /// compact writer and the parser.
        #[test]
        fn extreme_numbers_round_trip(bits in proptest::prelude::any::<u64>()) {
            let n = f64::from_bits(bits);
            if n.is_finite() {
                let doc = Value::Number(n).to_compact_string();
                let back = from_str(&doc).unwrap();
                prop_assert_eq!(back, Value::Number(n));
            }
        }

        /// Arbitrary bytes never panic the parser — they parse or they
        /// return a typed error.
        #[test]
        fn arbitrary_input_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..64)) {
            let s = String::from_utf8_lossy(&bytes);
            let _ = from_str(&s);
        }

        /// JSON-alphabet soup reaches deeper into the grammar than raw
        /// bytes do; it must also never panic.
        #[test]
        fn structural_soup_never_panics(picks in proptest::collection::vec(0usize..20, 0..48)) {
            const ALPHABET: [&str; 20] = [
                "{", "}", "[", "]", "\"", ",", ":", "0", "9", "-",
                ".", "e", "E", "+", "\\u", "\\", "true", "null", " ", "1",
            ];
            let s: String = picks.into_iter().map(|i| ALPHABET[i]).collect();
            let _ = from_str(&s);
        }
    }
}
