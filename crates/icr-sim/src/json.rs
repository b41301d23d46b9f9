//! The one JSON emission path shared by every report type and binary.
//!
//! The workspace deliberately carries no JSON dependency, so serialisation
//! is hand-rolled — but in exactly one place. [`esc`] and [`num`] are the
//! primitives every `to_json` builds on (strings escaped per RFC 8259,
//! non-finite numbers mapped to `null`), and [`write_output`] is the one
//! `--json <path>` convention the three binaries converge on: a path
//! writes a file, `-` writes stdout, and both receive identical bytes.

use icr_core::Scheme;
use std::io::Write;

/// A parsed JSON value.
///
/// Numbers keep their source token **verbatim** rather than converting
/// through `f64`: the reports carry `u64` counters and
/// shortest-round-trip floats side by side, and the bit-identical-JSON
/// invariant is about bytes, not numeric values. Object member order is
/// preserved for the same reason.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// The unparsed number token, e.g. `"-1.5e-3"`.
    Num(String),
    /// The unescaped string contents.
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object; `None` for other variants or a
    /// missing key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Serialises back to JSON in the canonical compact form: no
    /// whitespace, member order preserved, strings through [`esc`],
    /// number tokens verbatim. `parse` ∘ `to_json` is the identity on
    /// `Value`, so canonical documents round-trip byte-for-byte.
    pub fn to_json(&self) -> String {
        match self {
            Value::Null => "null".into(),
            Value::Bool(b) => b.to_string(),
            Value::Num(tok) => tok.clone(),
            Value::Str(s) => esc(s),
            Value::Arr(items) => {
                let inner: Vec<String> = items.iter().map(Value::to_json).collect();
                format!("[{}]", inner.join(","))
            }
            Value::Obj(members) => {
                let inner: Vec<String> = members
                    .iter()
                    .map(|(k, v)| format!("{}:{}", esc(k), v.to_json()))
                    .collect();
                format!("{{{}}}", inner.join(","))
            }
        }
    }
}

/// Parses one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// A strict recursive-descent parser over the RFC 8259 grammar as the
/// workspace's emitters use it. The one narrowing: a `\uXXXX` escape
/// must be a scalar value — surrogate halves are rejected rather than
/// paired, which is fine because [`esc`] only emits `\u` escapes for
/// control characters.
///
/// # Errors
///
/// Returns a description and byte offset of the first syntax error.
pub fn parse(s: &str) -> Result<Value, String> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while let Some(&c) = b.get(*pos) {
        if matches!(c, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {pos}", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(c) if *c == b'-' || c.is_ascii_digit() => parse_num(b, pos),
        _ => Err(format!("expected a value at byte {pos}")),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("expected {lit:?} at byte {pos}"))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| {
        let from = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > from
    };
    if !digits(b, pos) {
        return Err(format!("malformed number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return Err(format!("malformed number at byte {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return Err(format!("malformed number at byte {start}"));
        }
    }
    let tok = std::str::from_utf8(&b[start..*pos]).expect("ascii");
    Ok(Value::Num(tok.to_string()))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        *pos += 4;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("\\u{hex} is not a scalar value"))?,
                        );
                    }
                    c => return Err(format!("bad escape \\{}", *c as char)),
                }
            }
            Some(&c) if c < 0x20 => return Err(format!("raw control byte {c:#04x} in string")),
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so the
                // encoding is already valid).
                let rest = std::str::from_utf8(&b[*pos..]).expect("valid utf-8");
                let ch = rest.chars().next().expect("non-empty");
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        members.push((key, parse_value(b, pos)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

/// Escapes `s` as a JSON string literal (quotes included).
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// The `"schemes"` and `"apps"` members with which every scheme × app
/// report echoes its spec, indented for the spec object and without a
/// trailing comma or newline.
pub(crate) fn matrix_echo(schemes: &[Scheme], apps: &[String]) -> String {
    let names: Vec<String> = schemes.iter().map(|s| esc(&s.name())).collect();
    let apps: Vec<String> = apps.iter().map(|a| esc(a)).collect();
    format!(
        "    \"schemes\": [{}],\n    \"apps\": [{}]",
        names.join(", "),
        apps.join(", ")
    )
}

/// Renders a float as a JSON number; non-finite values become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Writes `json` (plus a trailing newline) to `path`, where `-` means
/// stdout. This is the `--json <path>` convention shared by `icr-run`,
/// `icr-exp` and `icr-campaign`; both destinations receive identical
/// bytes.
///
/// File writes are atomic **and durable**: the bytes land in a sibling
/// temporary file that is fsynced, renamed into place, and then the
/// parent directory is fsynced. A crash at any point leaves either the
/// previous file or the new one — never a truncated, parseable-looking
/// prefix — and once `write_output` returns, the rename itself has
/// reached stable storage (without the directory sync a power loss
/// right after the rename could roll the directory entry back to the
/// old file, or to nothing for a first write).
///
/// # Errors
///
/// Returns any I/O error from the destination; on error the temporary
/// file is removed and `path` is left untouched.
pub fn write_output(json: &str, path: &str) -> std::io::Result<()> {
    if path == "-" {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        out.write_all(json.as_bytes())?;
        out.write_all(b"\n")?;
        out.flush()
    } else {
        // The temp file must live in the same directory for the rename
        // to stay a single-filesystem (hence atomic) operation.
        let tmp = format!("{path}.tmp.{}", std::process::id());
        let result = write_durable(json, &tmp, path);
        if result.is_err() {
            std::fs::remove_file(&tmp).ok();
        }
        result
    }
}

/// The write → fsync → rename → fsync-dir sequence behind
/// [`write_output`], factored out so the error path above can clean up
/// the temp file after a failure at any step.
fn write_durable(json: &str, tmp: &str, path: &str) -> std::io::Result<()> {
    {
        let mut f = std::fs::File::create(tmp)?;
        f.write_all(json.as_bytes())?;
        f.write_all(b"\n")?;
        // The data must be on stable storage *before* the rename
        // publishes it, or the published name can point at garbage.
        f.sync_all()?;
    }
    std::fs::rename(tmp, path)?;
    sync_parent_dir(path)
}

/// Fsyncs the directory containing `path`, making a just-completed
/// rename durable. On Unix a directory opens like a file and
/// `sync_all` flushes its entries; elsewhere this is a no-op (Windows
/// cannot open directories with `File::open`, and NTFS metadata
/// journaling covers the rename).
fn sync_parent_dir(path: &str) -> std::io::Result<()> {
    if cfg!(unix) {
        let parent = std::path::Path::new(path)
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
            .unwrap_or_else(|| std::path::Path::new("."));
        std::fs::File::open(parent)?.sync_all()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn esc_quotes_and_escapes() {
        assert_eq!(esc("plain"), "\"plain\"");
        assert_eq!(esc("a \"q\"\nb\\c"), r#""a \"q\"\nb\\c""#);
        assert_eq!(esc("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn parse_handles_the_emitted_grammar() {
        let v = parse("{\"a\": [1, -2.5e3, true, null], \"b\": \"x\\ny\"}").unwrap();
        assert_eq!(v.to_json(), "{\"a\":[1,-2.5e3,true,null],\"b\":\"x\\ny\"}");
        assert_eq!(v.get("b"), Some(&Value::Str("x\ny".into())));
        assert_eq!(parse("[]").unwrap(), Value::Arr(vec![]));
        assert_eq!(parse(" {} ").unwrap(), Value::Obj(vec![]));
    }

    #[test]
    fn parse_round_trips_escapes_through_esc() {
        let original = "quote \" backslash \\ tab \t ctrl \u{1} unicode é";
        let doc = esc(original);
        assert_eq!(parse(&doc).unwrap(), Value::Str(original.into()));
        assert_eq!(parse(&doc).unwrap().to_json(), doc);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "01x",
            "1.",
            "1e",
            "nul",
            "\"abc",
            "{} {}",
            "[1] trailing",
            "\"\\q\"",
            "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn num_maps_non_finite_to_null() {
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }

    #[test]
    fn write_output_appends_one_newline_to_files() {
        let path = std::env::temp_dir().join("icr_json_write_test.json");
        let path = path.to_str().unwrap();
        write_output("{}", path).unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), "{}\n");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn write_output_replaces_atomically_and_cleans_up() {
        let dir = std::env::temp_dir();
        let path = dir.join("icr_json_atomic_test.json");
        let path = path.to_str().unwrap();
        write_output("{\"v\": 1}", path).unwrap();
        // Overwriting goes through a sibling temp file that must not
        // survive the rename.
        write_output("{\"v\": 2}", path).unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), "{\"v\": 2}\n");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("icr_json_atomic_test.json.tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_file(path).ok();

        // A failed write (the destination directory does not exist) must
        // leave nothing behind and report the error.
        let missing = dir.join("icr_json_no_such_dir").join("out.json");
        assert!(write_output("{}", missing.to_str().unwrap()).is_err());
    }

    #[test]
    fn write_output_failed_rename_leaves_no_temp_files() {
        // Make the final rename fail by pointing `path` at an existing
        // non-empty directory: the temp file is created and fsynced,
        // the rename errors, and the error path must clean up.
        let dir = std::env::temp_dir().join("icr_json_rename_fail_test");
        let blocker = dir.join("out.json");
        std::fs::create_dir_all(blocker.join("occupied")).unwrap();
        let err = write_output("{}", blocker.to_str().unwrap());
        assert!(err.is_err(), "renaming onto a non-empty directory fails");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
