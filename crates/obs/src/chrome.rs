//! Chrome trace-event JSON export for [`crate::trace`] spans.
//!
//! Emits the [trace-event format] consumed by `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev): a top-level object with a
//! `traceEvents` array of complete (`"ph": "X"`) events plus
//! `process_name` metadata events naming each process lane. Events are
//! sorted by timestamp, so `ts` is monotone within every `(pid, tid)` lane.
//!
//! The module also carries a minimal JSON parser for exactly the subset
//! this exporter emits (objects, arrays, strings, integers, bools, null) —
//! enough for the e2e tests and smoke scripts to validate an exported
//! `trace.json` without any external dependency.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::trace::ExportSpan;
use std::fmt::Write as _;

/// Renders spans to a Chrome trace-event JSON document. `process_names`
/// maps pid lanes to display names (e.g. `(1, "twodprof-client")`,
/// `(2, "twodprofd")`); lanes without an entry get `"pid N"`. Span pid `0`
/// ("this process") is rendered as lane 1.
pub fn to_json(spans: &[ExportSpan], process_names: &[(u32, &str)]) -> String {
    let mut events: Vec<&ExportSpan> = spans.iter().collect();
    events.sort_by_key(|s| (s.start_us, s.tid, s.id));

    let mut pids: Vec<u32> = events.iter().map(|s| lane(s)).collect();
    pids.sort_unstable();
    pids.dedup();

    let mut out = String::with_capacity(128 + events.len() * 160);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for pid in &pids {
        let name = process_names
            .iter()
            .find(|(p, _)| p == pid)
            .map(|(_, n)| (*n).to_owned())
            .unwrap_or_else(|| format!("pid {pid}"));
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":{}}}}}",
            quote(&name)
        );
    }
    for s in &events {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":{},\"cat\":\"twodprof\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":{},\"tid\":{},\"args\":{{\"trace\":\"{:032x}\",\"span\":\"{:016x}\",\
             \"parent\":\"{:016x}\"}}}}",
            quote(&s.name),
            s.start_us,
            s.dur_us,
            lane(s),
            s.tid,
            s.trace,
            s.id,
            s.parent
        );
    }
    out.push_str("]}");
    out
}

fn lane(s: &ExportSpan) -> u32 {
    if s.pid == 0 {
        1
    } else {
        s.pid
    }
}

/// JSON string literal with the escapes the format requires. Shared by
/// every JSON the workspace emits (this exporter, the daemon's `/vars`).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------------
// Minimal JSON parser (validation side)
// ---------------------------------------------------------------------------

/// A parsed JSON value — just enough structure to validate trace exports.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as `f64` (the exporter only emits integers).
    Num(f64),
    /// String with escapes resolved.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses a complete JSON document, rejecting trailing garbage.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        _ => Err(format!("unexpected input at byte {pos}")),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        members.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
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
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_owned())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape".to_owned())?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape".to_owned())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so boundaries
                // are valid by construction).
                let rest = &b[*pos..];
                let s = unsafe { std::str::from_utf8_unchecked(rest) };
                let c = s.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number".to_owned())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("bad number '{text}': {e}"))
}

// ---------------------------------------------------------------------------
// Trace-export validation helpers
// ---------------------------------------------------------------------------

/// One `"ph": "X"` event pulled back out of an exported document.
#[derive(Clone, Debug, PartialEq)]
pub struct ChromeEvent {
    /// Span name.
    pub name: String,
    /// Start timestamp, microseconds.
    pub ts: u64,
    /// Duration, microseconds.
    pub dur: u64,
    /// Process lane.
    pub pid: u32,
    /// Thread lane.
    pub tid: u64,
    /// 32-hex-digit trace id from `args.trace`.
    pub trace: String,
    /// 16-hex-digit span id from `args.span`.
    pub span: String,
    /// 16-hex-digit parent span id from `args.parent`.
    pub parent: String,
}

/// Parses an exported document and returns its complete (`"X"`) events in
/// document order, validating the invariants the exporter guarantees:
/// a well-formed `traceEvents` array, every `X` event carrying
/// name/ts/dur/pid/tid/args, and `ts` monotone non-decreasing within every
/// `(pid, tid)` lane.
pub fn parse_events(doc: &str) -> Result<Vec<ChromeEvent>, String> {
    let root = parse(doc)?;
    let events = root
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing traceEvents array".to_owned())?;
    let mut out = Vec::new();
    let mut last_ts: std::collections::HashMap<(u32, u64), u64> = std::collections::HashMap::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        if ph != "X" {
            continue;
        }
        let field = |key: &str| {
            ev.get(key)
                .ok_or_else(|| format!("event {i}: missing {key}"))
        };
        let name = field("name")?
            .as_str()
            .ok_or_else(|| format!("event {i}: name not a string"))?
            .to_owned();
        let ts = field("ts")?
            .as_u64()
            .ok_or_else(|| format!("event {i}: bad ts"))?;
        let dur = field("dur")?
            .as_u64()
            .ok_or_else(|| format!("event {i}: bad dur"))?;
        let pid = field("pid")?
            .as_u64()
            .ok_or_else(|| format!("event {i}: bad pid"))? as u32;
        let tid = field("tid")?
            .as_u64()
            .ok_or_else(|| format!("event {i}: bad tid"))?;
        let args = field("args")?;
        let hex = |key: &str| -> Result<String, String> {
            let v = args
                .get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("event {i}: missing args.{key}"))?;
            if v.is_empty() || !v.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(format!("event {i}: args.{key} not hex"));
            }
            Ok(v.to_owned())
        };
        let event = ChromeEvent {
            name,
            ts,
            dur,
            pid,
            tid,
            trace: hex("trace")?,
            span: hex("span")?,
            parent: hex("parent")?,
        };
        let lane = (event.pid, event.tid);
        if let Some(prev) = last_ts.get(&lane) {
            if event.ts < *prev {
                return Err(format!(
                    "event {i}: ts {} regresses below {} in lane {lane:?}",
                    event.ts, prev
                ));
            }
        }
        last_ts.insert(lane, event.ts);
        out.push(event);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, dur: u64, tid: u64, pid: u32) -> ExportSpan {
        ExportSpan {
            trace: 0xABCD,
            id: start + 1,
            parent: 0,
            name: name.to_owned(),
            start_us: start,
            dur_us: dur,
            tid,
            pid,
        }
    }

    #[test]
    fn export_parses_back_with_lanes_and_ids() {
        let spans = vec![
            span("client.replay", 0, 100, 1, 1),
            span("serve.session", 10, 50, 3, 2),
            span("engine.job", 20, 5, 3, 2),
        ];
        let doc = to_json(&spans, &[(1, "twodprof-client"), (2, "twodprofd")]);
        let events = parse_events(&doc).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, "client.replay");
        assert!(events
            .iter()
            .all(|e| e.trace == format!("{:032x}", 0xABCDu128)));
        assert_eq!(events.iter().filter(|e| e.pid == 1).count(), 1);
        assert_eq!(events.iter().filter(|e| e.pid == 2).count(), 2);
        // Metadata names both processes.
        assert!(doc.contains("\"twodprof-client\""));
        assert!(doc.contains("\"twodprofd\""));
    }

    #[test]
    fn events_are_sorted_by_timestamp() {
        let spans = vec![
            span("later", 500, 10, 1, 1),
            span("earlier", 5, 10, 1, 1),
            span("middle", 50, 10, 1, 1),
        ];
        let doc = to_json(&spans, &[]);
        let events = parse_events(&doc).unwrap();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["earlier", "middle", "later"]);
    }

    #[test]
    fn names_are_escaped() {
        let spans = vec![span("odd \"name\"\\with\nescapes", 0, 1, 1, 1)];
        let doc = to_json(&spans, &[]);
        let events = parse_events(&doc).unwrap();
        assert_eq!(events[0].name, "odd \"name\"\\with\nescapes");
    }

    #[test]
    fn quote_escapes_the_awkward_cases() {
        assert_eq!(quote("serve_events_total"), "\"serve_events_total\"");
        assert_eq!(quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(quote("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
        assert_eq!(quote("bell\u{7}"), "\"bell\\u0007\"");
    }

    #[test]
    fn pid_zero_maps_to_lane_one() {
        let spans = vec![span("local", 0, 1, 1, 0)];
        let doc = to_json(&spans, &[(1, "repro")]);
        let events = parse_events(&doc).unwrap();
        assert_eq!(events[0].pid, 1);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse_events("{\"notTraceEvents\":[]}").is_err());
        // ts regression within one lane is an invariant violation.
        let bad = "{\"traceEvents\":[\
            {\"name\":\"a\",\"ph\":\"X\",\"ts\":10,\"dur\":1,\"pid\":1,\"tid\":1,\
             \"args\":{\"trace\":\"ab\",\"span\":\"01\",\"parent\":\"00\"}},\
            {\"name\":\"b\",\"ph\":\"X\",\"ts\":5,\"dur\":1,\"pid\":1,\"tid\":1,\
             \"args\":{\"trace\":\"ab\",\"span\":\"02\",\"parent\":\"00\"}}]}";
        assert!(parse_events(bad).is_err());
    }

    #[test]
    fn parser_handles_escapes_and_numbers() {
        let doc = "{\"s\":\"a\\u0041\\n\",\"n\":-3.5,\"b\":true,\"z\":null,\"arr\":[1,2]}";
        let v = parse(doc).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("aA\n"));
        assert_eq!(v.get("n"), Some(&Json::Num(-3.5)));
        assert_eq!(v.get("b"), Some(&Json::Bool(true)));
        assert_eq!(v.get("z"), Some(&Json::Null));
        assert_eq!(v.get("arr").unwrap().as_array().unwrap().len(), 2);
    }
}
