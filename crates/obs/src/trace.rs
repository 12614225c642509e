//! A minimal JSON parser and a Chrome-trace validator, used by the trace
//! round-trip tests and the `tracecheck` CI smoke step. Dependency-free by
//! design: the workspace builds offline.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion order not preserved; keys sorted).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object field lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses a complete JSON document, rejecting trailing garbage.
pub fn parse_json(input: &str) -> Result<Json, String> {
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

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    let Some(&c) = b.get(*pos) else {
        return Err("unexpected end of input".to_string());
    };
    match c {
        b'{' => parse_obj(b, pos),
        b'[' => parse_arr(b, pos),
        b'"' => Ok(Json::Str(parse_string(b, pos)?)),
        b't' => parse_lit(b, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(b, pos, "false", Json::Bool(false)),
        b'n' => parse_lit(b, pos, "null", Json::Null),
        b'-' | b'0'..=b'9' => parse_num(b, pos),
        _ => Err(format!("unexpected byte {:?} at {}", c as char, *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&c) = b.get(*pos) else {
            return Err("unterminated string".to_string());
        };
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = b.get(*pos) else {
                    return Err("unterminated escape".to_string());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        *pos += 4;
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape \\{}", esc as char)),
                }
            }
            _ => {
                // Re-decode the UTF-8 sequence starting at c.
                let len = utf8_len(c);
                let start = *pos - 1;
                *pos = start + len;
                let s = b
                    .get(start..start + len)
                    .and_then(|s| std::str::from_utf8(s).ok())
                    .ok_or("invalid utf-8 in string")?;
                out.push_str(s);
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
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
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        let value = parse_value(b, pos)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// What [`validate_chrome`] learned about a well-formed trace.
#[derive(Debug, Default)]
pub struct TraceSummary {
    /// Total `traceEvents` entries.
    pub events: usize,
    /// Count of completed spans (matched B/E pairs).
    pub spans: usize,
    /// Distinct span names seen.
    pub span_names: Vec<String>,
    /// Distinct counter track names.
    pub counters: Vec<String>,
    /// Distinct instant marker names.
    pub instants: Vec<String>,
}

impl TraceSummary {
    /// Whether any recorded span name starts with `prefix` — used to assert
    /// stage coverage (`normalize.`, `profile.`, `select.`, ...).
    pub fn has_span_prefix(&self, prefix: &str) -> bool {
        self.span_names.iter().any(|n| n.starts_with(prefix))
    }
}

/// Parses `input` as a Chrome trace-format document and checks structural
/// invariants: every event has `ph`/`pid`/`tid` (+`ts` for timed phases),
/// `B`/`E` events are balanced per thread with matching names, and
/// timestamps are non-decreasing within each thread.
pub fn validate_chrome(input: &str) -> Result<TraceSummary, String> {
    let doc = parse_json(input)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut summary = TraceSummary {
        events: events.len(),
        ..TraceSummary::default()
    };
    let mut stacks: BTreeMap<i64, Vec<String>> = BTreeMap::new();
    let mut last_ts: BTreeMap<i64, f64> = BTreeMap::new();
    let mut span_names: BTreeMap<String, ()> = BTreeMap::new();
    let mut counters: BTreeMap<String, ()> = BTreeMap::new();
    let mut instants: BTreeMap<String, ()> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let tid = e
            .get("tid")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: missing tid"))? as i64;
        e.get("pid")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: missing pid"))?;
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?
            .to_string();
        if ph != "M" {
            let ts = e
                .get("ts")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("event {i}: missing ts"))?;
            let last = last_ts.entry(tid).or_insert(f64::NEG_INFINITY);
            if ts < *last {
                return Err(format!(
                    "event {i} ({name}): timestamp {ts} < {last} on tid {tid}"
                ));
            }
            *last = ts;
        }
        match ph {
            "B" => {
                span_names.insert(name.clone(), ());
                stacks.entry(tid).or_default().push(name);
            }
            "E" => {
                let top = stacks.entry(tid).or_default().pop().ok_or_else(|| {
                    format!("event {i} ({name}): E without matching B on tid {tid}")
                })?;
                if top != name {
                    return Err(format!(
                        "event {i}: E \"{name}\" closes span \"{top}\" on tid {tid}"
                    ));
                }
                summary.spans += 1;
            }
            "C" => {
                counters.insert(name, ());
            }
            "i" | "I" => {
                instants.insert(name, ());
            }
            // Metadata (thread names and the like, from other writers)
            // carries no timing.
            "M" => {}
            other => return Err(format!("event {i}: unknown phase {other:?}")),
        }
    }
    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("unclosed span \"{open}\" on tid {tid}"));
        }
    }
    summary.span_names = span_names.into_keys().collect();
    summary.counters = counters.into_keys().collect();
    summary.instants = instants.into_keys().collect();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_roundtrips_basic_values() {
        let doc =
            parse_json(r#"{"a":[1,2.5,-3e2],"b":"x\n\"y\"","c":true,"d":null,"e":{}}"#).unwrap();
        assert_eq!(doc.get("b").and_then(Json::as_str), Some("x\n\"y\""));
        assert_eq!(
            doc.get("a").and_then(Json::as_arr).map(|a| a.len()),
            Some(3)
        );
        assert_eq!(doc.get("d"), Some(&Json::Null));
        assert!(parse_json("{\"a\":1} trailing").is_err());
        assert!(parse_json("{\"a\":}").is_err());
    }

    #[test]
    fn validator_rejects_unbalanced_and_nonmonotone() {
        let unbalanced = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":1.0,"pid":1,"tid":0}
        ]}"#;
        assert!(validate_chrome(unbalanced)
            .unwrap_err()
            .contains("unclosed"));
        let crossed = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":1.0,"pid":1,"tid":0},
            {"name":"b","ph":"E","ts":2.0,"pid":1,"tid":0}
        ]}"#;
        assert!(validate_chrome(crossed).unwrap_err().contains("closes"));
        let backwards = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":5.0,"pid":1,"tid":0},
            {"name":"a","ph":"E","ts":1.0,"pid":1,"tid":0}
        ]}"#;
        assert!(validate_chrome(backwards)
            .unwrap_err()
            .contains("timestamp"));
    }

    #[test]
    fn validator_accepts_well_formed_trace_with_lanes() {
        let ok = r#"{"traceEvents":[
            {"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"conn.0"}},
            {"name":"select.dp","ph":"B","ts":1.0,"pid":1,"tid":3},
            {"name":"cache.mem.hits","ph":"C","ts":1.5,"pid":1,"tid":3,"args":{"value":1}},
            {"name":"interp.fallback","ph":"i","ts":2.0,"pid":1,"tid":3,"s":"t"},
            {"name":"select.dp","ph":"E","ts":3.0,"pid":1,"tid":3}
        ],"displayTimeUnit":"ms"}"#;
        let s = validate_chrome(ok).unwrap();
        assert_eq!(
            (s.events, s.spans),
            (5, 1),
            "the lane is an event, not a span"
        );
        assert!(s.has_span_prefix("select."));
        assert_eq!(s.counters, vec!["cache.mem.hits"]);
        assert_eq!(s.instants, vec!["interp.fallback"]);
    }
}
