//! Minimal JSON parser and record extraction.
//!
//! Written from scratch per the dependency budget in DESIGN.md. The
//! parser accepts standard JSON (RFC 8259) with the usual escape
//! sequences; numbers are held as `f64`.

use crate::error::StoreError;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object (insertion-ordered).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup.
    pub(crate) fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Flatten to the string form used for table cells.
    pub(crate) fn cell_string(&self) -> String {
        match self {
            JsonValue::Null => String::new(),
            JsonValue::Bool(b) => b.to_string(),
            JsonValue::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    format!("{}", *n as i64)
                } else {
                    n.to_string()
                }
            }
            JsonValue::Str(s) => s.clone(),
            // Nested structures stringify (documented lossy behaviour;
            // Symphony's layouts bind flat fields).
            JsonValue::Arr(items) => items
                .iter()
                .map(|v| v.cell_string())
                .collect::<Vec<_>>()
                .join("; "),
            JsonValue::Obj(_) => to_string(self),
        }
    }
}

/// Serialize a [`JsonValue`] back to compact JSON text.
pub fn to_string(v: &JsonValue) -> String {
    let mut out = String::new();
    write_value(&mut out, v);
    out
}

fn write_value(out: &mut String, v: &JsonValue) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 1e15 {
                out.push_str(&format!("{}", *n as i64));
            } else {
                out.push_str(&n.to_string());
            }
        }
        JsonValue::Str(s) => write_json_string(out, s),
        JsonValue::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        JsonValue::Obj(members) => {
            out.push('{');
            for (i, (k, val)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(out, k);
                out.push(':');
                write_value(out, val);
            }
            out.push('}');
        }
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// The deepest array/object nesting a document may have. The parser
/// recurses once per level, so an upload must not choose the depth of
/// the stack.
const MAX_DEPTH: usize = 256;

/// Parse JSON text.
pub fn parse(input: &str) -> Result<JsonValue, StoreError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> StoreError {
        StoreError::Parse(format!("json: {msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), StoreError> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, StoreError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, StoreError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn number(&mut self) -> Result<JsonValue, StoreError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(JsonValue::Num)
            .ok_or_else(|| self.err("invalid number"))
    }

    fn string(&mut self) -> Result<String, StoreError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let code = self.hex4()?;
                        // Surrogate pairs.
                        let ch = if (0xD800..0xDC00).contains(&code) {
                            self.expect(b'\\')?;
                            self.expect(b'u')?;
                            let low = self.hex4()?;
                            let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(c)
                        } else {
                            char::from_u32(code)
                        };
                        out.push(ch.ok_or_else(|| self.err("invalid unicode escape"))?);
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(c) if c < 0x80 => out.push(c as char),
                Some(c) => {
                    // Multi-byte UTF-8: copy the full sequence.
                    let len = utf8_len(c);
                    let start = self.pos - 1;
                    let end = start + len;
                    let s = self
                        .bytes
                        .get(start..end)
                        .and_then(|b| std::str::from_utf8(b).ok())
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, StoreError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .bump()
                .ok_or_else(|| self.err("short unicode escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn array(&mut self) -> Result<JsonValue, StoreError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(JsonValue::Arr(items)),
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, StoreError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(JsonValue::Obj(members)),
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Extract tabular records from parsed JSON: the document must be an
/// array of objects (or an object with a single array-of-objects
/// member, the common `{"items": [...]}` envelope). Column order is
/// first-seen order.
pub(crate) fn records(doc: &JsonValue) -> Result<(Vec<String>, Vec<Vec<String>>), StoreError> {
    let arr = match doc {
        JsonValue::Arr(a) => a,
        JsonValue::Obj(members) => members
            .iter()
            .find_map(|(_, v)| match v {
                JsonValue::Arr(a) if a.iter().all(|x| matches!(x, JsonValue::Obj(_))) => Some(a),
                _ => None,
            })
            .ok_or_else(|| {
                StoreError::Parse("json: no array of objects found for records".into())
            })?,
        _ => {
            return Err(StoreError::Parse(
                "json: records require an array of objects".into(),
            ))
        }
    };
    let mut names: Vec<String> = Vec::new();
    for item in arr {
        if let JsonValue::Obj(members) = item {
            for (k, _) in members {
                if !names.contains(k) {
                    names.push(k.clone());
                }
            }
        } else {
            return Err(StoreError::Parse(
                "json: records array contains a non-object".into(),
            ));
        }
    }
    let rows = arr
        .iter()
        .map(|item| {
            names
                .iter()
                .map(|n| item.get(n).map(|v| v.cell_string()).unwrap_or_default())
                .collect()
        })
        .collect();
    Ok((names, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("42").unwrap(), JsonValue::Num(42.0));
        assert_eq!(parse("-3.5e2").unwrap(), JsonValue::Num(-350.0));
        assert_eq!(parse("\"hi\"").unwrap(), JsonValue::Str("hi".into()));
    }

    #[test]
    fn escapes() {
        assert_eq!(
            parse(r#""a\"b\\c\ndA""#).unwrap(),
            JsonValue::Str("a\"b\\c\ndA".into())
        );
    }

    #[test]
    fn surrogate_pair() {
        assert_eq!(parse(r#""😀""#).unwrap(), JsonValue::Str("😀".into()));
    }

    #[test]
    fn utf8_passthrough() {
        assert_eq!(
            parse("\"Café 😀\"").unwrap(),
            JsonValue::Str("Café 😀".into())
        );
    }

    #[test]
    fn nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":null}],"c":{"d":true}}"#).unwrap();
        assert_eq!(
            v.get("c").and_then(|c| c.get("d")),
            Some(&JsonValue::Bool(true))
        );
    }

    #[test]
    fn whitespace_tolerated() {
        assert!(parse(" { \"a\" : [ 1 , 2 ] } ").is_ok());
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(parse("{}x").is_err());
        assert!(parse("[1,").is_err());
        assert!(parse("{\"a\"").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn roundtrip() {
        let src = r#"{"t":"Galactic \"R\"","n":3,"f":1.5,"b":false,"x":null,"a":[1,"two"]}"#;
        let v = parse(src).unwrap();
        let back = parse(&to_string(&v)).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn records_from_array() {
        let v = parse(r#"[{"t":"A","p":1},{"t":"B","q":2}]"#).unwrap();
        let (names, rows) = records(&v).unwrap();
        assert_eq!(names, vec!["t", "p", "q"]);
        assert_eq!(rows[0], vec!["A", "1", ""]);
        assert_eq!(rows[1], vec!["B", "", "2"]);
    }

    #[test]
    fn records_from_envelope() {
        let v = parse(r#"{"count":2,"items":[{"t":"A"},{"t":"B"}]}"#).unwrap();
        let (names, rows) = records(&v).unwrap();
        assert_eq!(names, vec!["t"]);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn records_reject_scalars() {
        assert!(records(&parse("[1,2]").unwrap()).is_err());
        assert!(records(&parse("3").unwrap()).is_err());
    }

    #[test]
    fn cell_string_flattening() {
        let v = parse(r#"{"a":[1,2],"o":{"x":1}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().cell_string(), "1; 2");
        assert_eq!(v.get("o").unwrap().cell_string(), r#"{"x":1}"#);
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 256"), "{err}");
        let objects = format!("{}1{}", r#"{"a":"#.repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(parse(&objects).is_ok());
        assert!(parse(&format!("[{objects}]")).is_err());
    }
}
