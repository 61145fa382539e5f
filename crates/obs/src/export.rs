//! Export surfaces for drained spans — JSON-lines for machines, a compact
//! text tree for humans — plus the tiny JSON-lines validator CI uses to
//! check the machine format without any external tooling (no serde).

use crate::span::{FieldValue, SpanRecord};
use std::collections::BTreeMap;

/// Escape a string for inclusion inside a JSON string literal (quotes not
/// included). Hand-rolled: the stack is std-only by design.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

fn field_json(v: &FieldValue) -> String {
    match v {
        FieldValue::U64(v) => v.to_string(),
        FieldValue::F64(v) => {
            if v.is_finite() {
                format!("{v}")
            } else {
                // JSON has no Infinity/NaN; stringify the degenerate cases.
                format!("\"{v}\"")
            }
        }
        FieldValue::Str(s) => format!("\"{}\"", json_escape(s)),
        FieldValue::Bool(b) => b.to_string(),
    }
}

/// Render spans as JSON-lines: one JSON object per line, sorted by
/// `(start_ns, id)` so a tree reads roughly in execution order. Validated
/// by [`validate_jsonl`].
pub fn export_jsonl(spans: &[SpanRecord]) -> String {
    let mut sorted: Vec<&SpanRecord> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start_ns, s.id));
    let mut out = String::new();
    for s in sorted {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"kind\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"thread\":{}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.kind.name(),
            json_escape(&s.label),
            s.start_ns,
            s.end_ns,
            s.thread,
        ));
        if !s.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (k, v)) in s.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":{}", json_escape(k), field_json(v)));
            }
            out.push('}');
        }
        out.push_str("}\n");
    }
    out
}

/// Render spans as an indented text tree, children under parents sorted by
/// start time, durations in microseconds, fields inline. Spans whose
/// parent is missing from the slice (e.g. evicted from the bounded ring)
/// are promoted to roots rather than dropped.
pub fn render_text_tree(spans: &[SpanRecord]) -> String {
    let mut children: BTreeMap<Option<u64>, Vec<&SpanRecord>> = BTreeMap::new();
    let present: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
    for s in spans {
        let parent = s.parent.filter(|p| present.contains(p));
        children.entry(parent).or_default().push(s);
    }
    for v in children.values_mut() {
        v.sort_by_key(|s| (s.start_ns, s.id));
    }
    let mut out = String::new();
    fn walk(
        out: &mut String,
        children: &BTreeMap<Option<u64>, Vec<&SpanRecord>>,
        parent: Option<u64>,
        depth: usize,
    ) {
        let Some(nodes) = children.get(&parent) else {
            return;
        };
        for s in nodes {
            for _ in 0..depth {
                out.push_str("  ");
            }
            out.push_str(&format!(
                "{} {} [{:.1}us]",
                s.kind,
                s.label,
                s.duration_ns() as f64 / 1_000.0
            ));
            for (k, v) in &s.fields {
                // Keep the tree one line per span even when a string field
                // carries control characters.
                let rendered = v.to_string().replace(['\n', '\r', '\t'], " ");
                out.push_str(&format!(" {k}={rendered}"));
            }
            out.push('\n');
            walk(out, children, Some(s.id), depth + 1);
        }
    }
    walk(&mut out, &children, None, 0);
    out
}

// ---------------------------------------------------------------------------
// Validators (the CI "tiny checker").
// ---------------------------------------------------------------------------

/// Validate a JSON-lines document: every non-empty line must be a
/// standalone valid JSON value. Returns the number of lines checked.
pub fn validate_jsonl(text: &str) -> Result<usize, String> {
    let mut n = 0;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate_json(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        n += 1;
    }
    Ok(n)
}

/// Validate that `text` is exactly one JSON value (a minimal recursive
/// parser over objects/arrays/strings/numbers/literals).
fn validate_json(text: &str) -> Result<(), String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_literal(b, pos, "true"),
        Some(b'f') => parse_literal(b, pos, "false"),
        Some(b'n') => parse_literal(b, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {:?} at {pos:?}", *c as char)),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos:?}"));
        }
        parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos:?}"));
        }
        *pos += 1;
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos:?}")),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos:?}")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // opening quote
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        for i in 1..=4 {
                            if !b.get(*pos + i).is_some_and(|c| c.is_ascii_hexdigit()) {
                                return Err(format!("bad \\u escape at byte {pos:?}"));
                            }
                        }
                        *pos += 5;
                    }
                    _ => return Err(format!("bad escape at byte {pos:?}")),
                }
            }
            c if c < 0x20 => return Err(format!("raw control byte at {pos:?}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

/// A JSON number: `-`? then `0` or a nonzero digit and more digits, then
/// an optional `.` fraction and an optional `e`/`E` exponent, each with at
/// least one digit.
fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    let bad = || format!("bad number at byte {start}");
    let digits = |pos: &mut usize| {
        let from = *pos;
        while b.get(*pos).is_some_and(|c| c.is_ascii_digit()) {
            *pos += 1;
        }
        *pos - from
    };
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    let n = digits(pos);
    if n == 0 || (n > 1 && b[int_start] == b'0') {
        return Err(bad());
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if digits(pos) == 0 {
            return Err(bad());
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if digits(pos) == 0 {
            return Err(bad());
        }
    }
    Ok(())
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Observer, SpanKind};

    fn sample_spans() -> Vec<SpanRecord> {
        let obs = Observer::enabled();
        {
            let mut root = obs.span(SpanKind::Request, "req \"q\"");
            root.field("note", "line\nbreak");
            root.field("bound", 1.5f64);
            let _child = obs.span(SpanKind::Solve, "csma");
        }
        obs.drain_spans()
    }

    #[test]
    fn jsonl_round_trips_through_validator() {
        let spans = sample_spans();
        let jsonl = export_jsonl(&spans);
        let n = validate_jsonl(&jsonl).expect("exported JSONL validates");
        assert_eq!(n, spans.len());
        assert!(jsonl.contains("\"kind\":\"solve\""));
        assert!(jsonl.contains("req \\\"q\\\""));
        assert!(jsonl.contains("line\\nbreak"));
    }

    #[test]
    fn text_tree_nests_children() {
        let spans = sample_spans();
        let tree = render_text_tree(&spans);
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("request"));
        assert!(lines[1].starts_with("  solve csma"));
    }

    #[test]
    fn orphans_are_promoted_not_dropped() {
        let mut spans = sample_spans();
        // Simulate ring eviction of the root.
        spans.retain(|s| s.kind == SpanKind::Solve);
        let tree = render_text_tree(&spans);
        assert!(tree.starts_with("solve csma"));
    }

    #[test]
    fn json_validator_accepts_and_rejects() {
        validate_json("{\"a\":[1,2.5,-3e2,\"x\\n\",true,null]}").unwrap();
        assert!(validate_json("{\"a\":}").is_err());
        assert!(validate_json("{\"a\":1} extra").is_err());
        assert!(validate_json("\"unterminated").is_err());
        assert!(validate_jsonl("{\"a\":1}\n\n{\"b\":2}\n").is_ok());
        assert!(validate_jsonl("{\"a\":1}\nnot json\n").is_err());
        for ok in ["0", "-0", "0.5", "1e-3", "-1.5E+2"] {
            assert!(validate_json(ok).is_ok(), "{ok} is a JSON number");
        }
        for bad in ["1.", "1e", "1e+", "-.5", "01", "-", "[1.]", "{\"a\":-.5}"] {
            assert!(validate_json(bad).is_err(), "{bad} is not JSON");
        }
    }
}
