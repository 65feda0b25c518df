//! A minimal recursive-descent JSON parser for the tests in this
//! directory.
//!
//! The workspace has no JSON dependency, and the lint report's emitter
//! (`asyncfl_lint::report`) is hand-rolled. Reading its output back with
//! an independent parser pins the escaping contract by test. The parser
//! reads arbitrary JSON, not only the lint report's schema.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (held as `f64`; report counts stay well inside the
    /// 2^53 integer-exact range).
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number this value holds, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string this value holds, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array this value holds, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error.
pub fn parse_json(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|e| format!("bad \\u escape at byte {pos}: {e}"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?} at byte {pos}")),
                }
                *pos += 1;
            }
            _ => {
                // Copy the raw UTF-8 byte run up to the next quote/escape.
                let start = *pos;
                while *pos < bytes.len() && bytes[*pos] != b'"' && bytes[*pos] != b'\\' {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
    Err("unterminated string".into())
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            other => return Err(format!("expected ',' or ']' at byte {pos}, got {other:?}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    *pos += 1; // consume '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            other => return Err(format!("expected ',' or '}}' at byte {pos}, got {other:?}")),
        }
    }
}

#[test]
fn parser_reads_nested_documents() {
    let v = parse_json(
        r#"{
  "schema": "example-v2",
  "total": 10.5,
  "runs": [{"name": "table2", "secs": 10.5}],
  "probe": {"threads": 2, "skipped": "single-cpu host"},
  "missing": null
}
"#,
    )
    .expect("parses");
    assert_eq!(v.get("schema").and_then(Value::as_str), Some("example-v2"));
    assert_eq!(v.get("total").and_then(Value::as_f64), Some(10.5));
    let runs = v.get("runs").and_then(Value::as_arr).expect("runs array");
    assert_eq!(runs[0].get("name").and_then(Value::as_str), Some("table2"));
    assert_eq!(
        v.get("probe")
            .and_then(|p| p.get("skipped"))
            .and_then(Value::as_str),
        Some("single-cpu host")
    );
    assert_eq!(v.get("missing"), Some(&Value::Null));
}

#[test]
fn parser_rejects_garbage() {
    assert!(parse_json("").is_err());
    assert!(parse_json("{").is_err());
    assert!(parse_json("{\"a\": }").is_err());
    assert!(parse_json("[1, 2").is_err());
    assert!(parse_json("{} trailing").is_err());
    assert!(parse_json("\"unterminated").is_err());
}

#[test]
fn parser_handles_escapes_and_nesting() {
    let v = parse_json(r#"{"a": "x\"y\\z\nwA", "b": [1, -2.5e3, true, null]}"#).expect("parses");
    assert_eq!(v.get("a").and_then(Value::as_str), Some("x\"y\\z\nwA"));
    let b = v.get("b").and_then(Value::as_arr).unwrap();
    assert_eq!(b[1].as_f64(), Some(-2500.0));
    assert_eq!(b[2], Value::Bool(true));
    assert_eq!(b[3], Value::Null);
}
