//! A minimal JSON reader for the workspace's own artifacts.
//!
//! The harness writes `BENCH_*.json`, `le-obs` writes `OBS_*.json` and
//! `TRACE_*.json`; this module parses them back so tests and the `obsctl`
//! regression gate can round-trip the documents without an external JSON
//! dependency. It accepts standard JSON (objects, arrays, strings with the
//! common escapes, numbers, booleans, null) — enough for any document this
//! workspace produces. It lives in `le-obs` (the lowest layer) so both the
//! bench harness and `obsctl` can share it.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object (None for other variants / missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a usize (rejects negatives and fractions).
    pub fn as_usize(&self) -> Option<usize> {
        let n = self.as_f64()?;
        if n >= 0.0 && n.fract() == 0.0 && n <= usize::MAX as f64 { // lint:allow(float-hygiene): integrality check, not a tolerance comparison
            Some(n as usize)
        } else {
            None
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse a JSON document. Returns `None` on any syntax error or trailing
/// garbage.
pub fn parse(doc: &str) -> Option<Value> {
    let bytes = doc.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos == bytes.len() {
        Some(v)
    } else {
        None
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Option<Value> {
    skip_ws(b, pos);
    match *b.get(*pos)? {
        b'{' => parse_obj(b, pos),
        b'[' => parse_arr(b, pos),
        b'"' => parse_str(b, pos).map(Value::Str),
        b't' => parse_lit(b, pos, "true", Value::Bool(true)),
        b'f' => parse_lit(b, pos, "false", Value::Bool(false)),
        b'n' => parse_lit(b, pos, "null", Value::Null),
        _ => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Option<Value> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Some(v)
    } else {
        None
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Option<Value> {
    let start = *pos;
    while *pos < b.len()
        && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()?
        .parse::<f64>()
        .ok()
        .map(Value::Num)
}

fn parse_str(b: &[u8], pos: &mut usize) -> Option<String> {
    if *b.get(*pos)? != b'"' {
        return None;
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match *b.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match *b.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b.get(*pos + 1..*pos + 5)?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        out.push(char::from_u32(code)?);
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            _ => {
                // Consume one UTF-8 scalar (multi-byte sequences included).
                let rest = std::str::from_utf8(&b[*pos..]).ok()?;
                let ch = rest.chars().next()?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Option<Value> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if *b.get(*pos)? == b']' {
        *pos += 1;
        return Some(Value::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match *b.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(Value::Arr(items));
            }
            _ => return None,
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Option<Value> {
    *pos += 1; // consume '{'
    let mut members = Vec::new();
    skip_ws(b, pos);
    if *b.get(*pos)? == b'}' {
        *pos += 1;
        return Some(Value::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        if *b.get(*pos)? != b':' {
            return None;
        }
        *pos += 1;
        let value = parse_value(b, pos)?;
        members.push((key, value));
        skip_ws(b, pos);
        match *b.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(Value::Obj(members));
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null"), Some(Value::Null));
        assert_eq!(parse("true"), Some(Value::Bool(true)));
        assert_eq!(parse("false"), Some(Value::Bool(false)));
        assert_eq!(parse("-1.5e3"), Some(Value::Num(-1500.0)));
        assert_eq!(parse("\"hi\""), Some(Value::Str("hi".into())));
    }

    #[test]
    fn parses_escapes() {
        let v = parse(r#""a\"b\\c\nA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nA"));
    }

    #[test]
    fn parses_every_named_escape_and_unicode() {
        let v = parse(r#""\"\\\/\n\r\t\b\f\u0041\u00e9\u2713""#).unwrap();
        assert_eq!(v.as_str(), Some("\"\\/\n\r\t\u{8}\u{c}Aé✓"));
        // Escapes inside object keys work too.
        let v = parse(r#"{"a\nb": 1}"#).unwrap();
        assert_eq!(v.get("a\nb").and_then(Value::as_f64), Some(1.0));
        // Raw multi-byte UTF-8 passes through unescaped.
        assert_eq!(parse("\"π≈3\"").unwrap().as_str(), Some("π≈3"));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#"{"a": [1, 2, {"b": "x"}], "c": {"d": null}}"#;
        let v = parse(doc).unwrap();
        let arr = v.get("a").and_then(Value::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("c").and_then(|c| c.get("d")), Some(&Value::Null));
    }

    #[test]
    fn parses_deeply_nested_mixed_structures() {
        let doc = r#"[[[{"k": [{"deep": [0, [1, [2]]]}]}]], {}, []]"#;
        let v = parse(doc).unwrap();
        let outer = v.as_arr().unwrap();
        assert_eq!(outer.len(), 3);
        let deep = outer[0].as_arr().unwrap()[0].as_arr().unwrap()[0]
            .get("k")
            .and_then(Value::as_arr)
            .unwrap()[0]
            .get("deep")
            .and_then(Value::as_arr)
            .unwrap();
        assert_eq!(deep[0].as_f64(), Some(0.0));
        assert_eq!(outer[1], Value::Obj(vec![]));
        assert_eq!(outer[2], Value::Arr(vec![]));
        // Object member insertion order is preserved.
        let v = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        match v {
            Value::Obj(ms) => assert_eq!(ms[0].0, "z"),
            _ => assert!(false, "expected object"),
        }
    }

    #[test]
    fn numeric_edge_cases() {
        // Negative zero keeps its sign bit.
        let nz = parse("-0.0").unwrap().as_f64().unwrap();
        assert_eq!(nz.to_bits(), (-0.0f64).to_bits());
        // Exponent forms, as the snapshot writer's `{:e}` emits them.
        assert_eq!(parse("2.5e-3").unwrap().as_f64(), Some(0.0025));
        assert_eq!(parse("1E+2").unwrap().as_f64(), Some(100.0));
        assert_eq!(parse("5e0").unwrap().as_f64(), Some(5.0));
        assert_eq!(parse("1e308").unwrap().as_f64(), Some(1e308));
        // i64::MIN is exactly representable as f64 (−2^63).
        assert_eq!(
            parse("-9223372036854775808").unwrap().as_f64(),
            Some(i64::MIN as f64)
        );
        // i64::MAX is not: values round to the nearest f64 — documented
        // lossiness of the Num(f64) representation.
        assert_eq!(
            parse("9223372036854775807").unwrap().as_f64(),
            Some(9223372036854775807u64 as f64)
        );
        // 2^53 + 1 rounds down to 2^53: callers must not rely on exact
        // integers beyond f64's 53-bit mantissa.
        assert_eq!(parse("9007199254740993").unwrap().as_f64(), Some(9.007199254740992e15));
        // Everything the workspace writes (ns counts < 2^53) is exact.
        assert_eq!(parse("9007199254740992").unwrap().as_usize(), Some(1usize << 53));
    }

    #[test]
    fn rejects_malformed_documents() {
        // One entry per failure class: truncation, missing separators,
        // bad literals, bad numbers, bad escapes, trailing garbage.
        let table: &[(&str, &str)] = &[
            ("", "empty document"),
            ("{", "unterminated object"),
            ("[1,", "unterminated array"),
            ("[1 2]", "missing array comma"),
            ("{\"a\" 1}", "missing colon"),
            ("{\"a\":}", "missing member value"),
            ("{a: 1}", "unquoted key"),
            ("{]}", "mismatched brackets"),
            ("\"unterminated", "unterminated string"),
            ("nul", "truncated null literal"),
            ("tru", "truncated true literal"),
            ("falsy", "mangled false literal"),
            ("+", "sign with no digits"),
            ("--1", "double sign"),
            ("1e", "exponent with no digits"),
            ("1.2.3", "two decimal points"),
            ("\"\\x\"", "unknown escape"),
            ("\"\\u12\"", "short unicode escape"),
            ("\"\\ud800\"", "lone surrogate code point"),
            ("1 2", "trailing garbage"),
            ("{} []", "second document"),
        ];
        for (bad, why) in table {
            assert_eq!(parse(bad), None, "should reject {bad:?} ({why})");
        }
    }

    #[test]
    fn as_usize_rejects_non_integers() {
        assert_eq!(parse("3").unwrap().as_usize(), Some(3));
        assert_eq!(parse("3.5").unwrap().as_usize(), None);
        assert_eq!(parse("-1").unwrap().as_usize(), None);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]"), Some(Value::Arr(vec![])));
        assert_eq!(parse("{}"), Some(Value::Obj(vec![])));
    }
}
