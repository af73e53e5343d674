//! Minimal, offline stand-in for the `serde_json` crate: a JSON writer and
//! recursive-descent parser over the vendored serde shim's [`Value`] model.
//!
//! Supports exactly what the repository uses: [`to_string`],
//! [`to_string_pretty`] and [`from_str`]. Numbers are written with Rust's
//! shortest-round-trip formatting; integers and floats round-trip losslessly
//! for the value ranges the repo serializes.

pub use serde::Error;
use serde::{Deserialize, Serialize, Value};

/// Result alias matching the real crate's signature shapes.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes `value` to a compact JSON string.
///
/// # Errors
/// Never fails in this shim; the `Result` mirrors the real API.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_json_value(), None, 0);
    Ok(out)
}

/// Serializes `value` to a two-space-indented JSON string.
///
/// # Errors
/// Never fails in this shim; the `Result` mirrors the real API.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_json_value(), Some(2), 0);
    Ok(out)
}

/// Parses a value of type `T` from JSON text.
///
/// # Errors
/// Returns an error on malformed JSON or a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg(format!(
            "trailing characters at offset {}",
            p.pos
        )));
    }
    T::from_json_value(&v)
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(n) => {
            out.push_str(&n.to_string());
        }
        Value::Float(x) => {
            if x.is_finite() {
                out.push_str(&x.to_string());
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            write_seq(out, items.iter(), indent, depth, '[', ']', |out, item, ind, d| {
                write_value(out, item, ind, d);
            });
        }
        Value::Object(fields) => {
            write_seq(out, fields.iter(), indent, depth, '{', '}', |out, (k, v), ind, d| {
                write_string(out, k);
                out.push(':');
                if ind.is_some() {
                    out.push(' ');
                }
                write_value(out, v, ind, d);
            });
        }
    }
}

fn write_seq<I: ExactSizeIterator>(
    out: &mut String,
    items: I,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    mut write_item: impl FnMut(&mut String, I::Item, Option<usize>, usize),
) {
    out.push(open);
    let n = items.len();
    for (i, item) in items.enumerate() {
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
        }
        write_item(out, item, indent, depth + 1);
        if i + 1 < n {
            out.push(',');
        }
    }
    if n > 0 {
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * depth));
        }
    }
    out.push(close);
}

fn write_string(out: &mut String, s: &str) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected `{}` at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(Error::msg(format!("bad array at offset {}", self.pos))),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    fields.push((key, self.parse_value()?));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(fields));
                        }
                        _ => return Err(Error::msg(format!("bad object at offset {}", self.pos))),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            other => Err(Error::msg(format!(
                "unexpected {other:?} at offset {}",
                self.pos
            ))),
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // The run of plain bytes up to the next quote or escape: one
            // scan and one UTF-8 check (neither byte occurs inside a
            // multi-byte sequence).
            let rest = &self.bytes[self.pos..];
            let n = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| Error::msg("unterminated string"))?;
            let run = std::str::from_utf8(&rest[..n])
                .map_err(|_| Error::msg("invalid UTF-8 in string"))?;
            s.push_str(run);
            self.pos += n + 1;
            if rest[n] == b'"' {
                return Ok(s);
            }
            let Some(esc) = self.peek() else {
                return Err(Error::msg("unterminated escape"));
            };
            self.pos += 1;
            match esc {
                b'"' => s.push('"'),
                b'\\' => s.push('\\'),
                b'/' => s.push('/'),
                b'n' => s.push('\n'),
                b'r' => s.push('\r'),
                b't' => s.push('\t'),
                b'b' => s.push('\u{8}'),
                b'f' => s.push('\u{c}'),
                b'u' => {
                    let hi = self.parse_hex4()?;
                    let code = if (0xD800..0xDC00).contains(&hi) {
                        // Surrogate pair: expect `\uXXXX` low half.
                        self.expect(b'\\')?;
                        self.expect(b'u')?;
                        let lo = self.parse_hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(Error::msg("bad surrogate pair"));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        hi
                    };
                    s.push(char::from_u32(code).ok_or_else(|| Error::msg("bad unicode escape"))?);
                }
                other => return Err(Error::msg(format!("bad escape `\\{}`", other as char))),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::msg("truncated \\u escape"))?;
        let text = std::str::from_utf8(chunk).map_err(|_| Error::msg("bad \\u escape"))?;
        let v = u32::from_str_radix(text, 16).map_err(|_| Error::msg("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::msg("bad number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::msg(format!("bad number `{text}`")))
        } else {
            match text.parse::<i64>() {
                Ok(n) => Ok(Value::Int(n)),
                // Fall back to float for out-of-range integers.
                Err(_) => text
                    .parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| Error::msg(format!("bad number `{text}`"))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        assert_eq!(to_string(&5u32).unwrap(), "5");
        assert_eq!(from_str::<u32>("5").unwrap(), 5);
        assert_eq!(to_string(&-3i64).unwrap(), "-3");
        assert_eq!(from_str::<i64>("-3").unwrap(), -3);
        assert_eq!(to_string(&2.5f64).unwrap(), "2.5");
        assert_eq!(from_str::<f64>("2.5").unwrap(), 2.5);
        // Whole floats print without a fraction and come back via the Int path.
        assert_eq!(to_string(&1.0f64).unwrap(), "1");
        assert_eq!(from_str::<f64>("1").unwrap(), 1.0);
        assert_eq!(to_string(&true).unwrap(), "true");
        assert!(!from_str::<bool>("false").unwrap());
    }

    #[test]
    fn roundtrip_containers() {
        let v = vec![(String::from("a\n\"x"), 1i64), (String::from("ü"), -2)];
        let json = to_string(&v).unwrap();
        let back: Vec<(String, i64)> = from_str(&json).unwrap();
        assert_eq!(v, back);

        let opt: Option<u32> = None;
        assert_eq!(to_string(&opt).unwrap(), "null");
        assert_eq!(from_str::<Option<u32>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<u32>>("7").unwrap(), Some(7));
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = vec![1u32, 2];
        assert_eq!(to_string_pretty(&v).unwrap(), "[\n  1,\n  2\n]");
    }

    #[test]
    fn strings_decode_runs_escapes_and_unicode() {
        let s = |json: &str| from_str::<String>(json);
        assert_eq!(s(r#""""#).unwrap(), "");
        assert_eq!(s(r#""plain run""#).unwrap(), "plain run");
        // Every escape, at the start, between runs and at the end.
        assert_eq!(s(r#""\"a\\b\/c\nd\re\tf\bg\fh""#).unwrap(), "\"a\\b/c\nd\re\tf\u{8}g\u{c}h");
        assert_eq!(s(r#""x\u0041\u00fc\u20acy""#).unwrap(), "xAü€y");
        // A surrogate pair is one scalar; a lone or mismatched half is an error.
        assert_eq!(s(r#""\ud83d\ude00!""#).unwrap(), "😀!");
        assert!(s(r#""\ud83d""#).is_err());
        assert!(s(r#""\ud83d\u0041""#).is_err());
        assert!(s(r#""\ude00""#).is_err());
        // Multi-byte UTF-8 right next to the quotes and to an escape.
        assert_eq!(s("\"ü\"").unwrap(), "ü");
        assert_eq!(s("\"€\\n😀\"").unwrap(), "€\n😀");
        assert_eq!(s("\"a€\\\"€\"").unwrap(), "a€\"€");
        // Unterminated forms.
        for bad in [r#"""#, r#""abc"#, r#""abc\"#, r#""abc\""#, r#""\u00"#, r#""\q""#, "\"ü"] {
            assert!(s(bad).is_err(), "{bad}");
        }
        // Keys go through the same path.
        let kv: Vec<(String, i64)> = from_str(r#"[["k\u00e9y", 1]]"#).unwrap();
        assert_eq!(kv, vec![("kéy".to_string(), 1)]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<u32>("{").is_err());
        assert!(from_str::<u32>("5 x").is_err());
        assert!(from_str::<bool>("tru").is_err());
    }
}
