//! Export of a drained event stream as Chrome trace JSON and a
//! human-readable summary.

use crate::recorder::{ArgValue, Event, EventKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A frozen, per-thread-ordered snapshot of everything the recorder
/// collected, produced by [`crate::drain`].
pub struct Trace {
    /// Events sorted by `(tid, seq)`.
    pub events: Vec<Event>,
}

impl Trace {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Renders the trace in Chrome trace-event format (the JSON-object form
    /// with a `traceEvents` array), loadable in `chrome://tracing` and
    /// Perfetto. Spans become `B`/`E` pairs on the recording thread's lane,
    /// counters become cumulative `C` tracks, instants `i` markers, and
    /// lane events `thread_name` metadata so each work-stealing worker gets
    /// a named lane.
    pub fn to_chrome(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96 + 64);
        out.push_str("{\"traceEvents\":[\n");
        let mut first = true;
        let mut cumulative: BTreeMap<String, u64> = BTreeMap::new();
        for e in &self.events {
            let mut line = String::with_capacity(96);
            let ts = e.ts_nanos as f64 / 1000.0;
            match &e.kind {
                EventKind::Begin => {
                    write!(
                        line,
                        "{{\"name\":\"{}\",\"ph\":\"B\",\"ts\":{ts:.3},\"pid\":1,\"tid\":{}",
                        escape(&e.name.to_string()),
                        e.tid
                    )
                    .unwrap();
                    write_args(&mut line, &e.args);
                    line.push('}');
                }
                EventKind::End => {
                    write!(
                        line,
                        "{{\"name\":\"{}\",\"ph\":\"E\",\"ts\":{ts:.3},\"pid\":1,\"tid\":{}}}",
                        escape(&e.name.to_string()),
                        e.tid
                    )
                    .unwrap();
                }
                EventKind::Counter { delta } => {
                    let name = e.name.to_string();
                    let total = cumulative.entry(name.clone()).or_insert(0);
                    *total += delta;
                    write!(
                        line,
                        "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{ts:.3},\"pid\":1,\"tid\":{},\
                         \"args\":{{\"value\":{}}}}}",
                        escape(&name),
                        e.tid,
                        *total
                    )
                    .unwrap();
                }
                EventKind::Instant => {
                    write!(
                        line,
                        "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{ts:.3},\"pid\":1,\"tid\":{},\
                         \"s\":\"t\"",
                        escape(&e.name.to_string()),
                        e.tid
                    )
                    .unwrap();
                    write_args(&mut line, &e.args);
                    line.push('}');
                }
                EventKind::Lane => {
                    write!(
                        line,
                        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                         \"args\":{{\"name\":\"{}\"}}}}",
                        e.tid,
                        escape(&e.name.to_string())
                    )
                    .unwrap();
                }
            }
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&line);
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// Renders a human-readable summary: per-span total/self time and call
    /// counts, counter totals, and the set of named lanes.
    pub fn summary(&self) -> String {
        #[derive(Default)]
        struct SpanAgg {
            calls: u64,
            total_nanos: u64,
        }
        let mut spans: BTreeMap<String, SpanAgg> = BTreeMap::new();
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut lanes: Vec<String> = Vec::new();
        // Per-tid stack of (name, begin-ts) to pair B/E events.
        let mut stacks: BTreeMap<u32, Vec<(String, u64)>> = BTreeMap::new();
        for e in &self.events {
            match &e.kind {
                EventKind::Begin => stacks
                    .entry(e.tid)
                    .or_default()
                    .push((e.name.to_string(), e.ts_nanos)),
                EventKind::End => {
                    if let Some((name, begin)) = stacks.entry(e.tid).or_default().pop() {
                        let agg = spans.entry(name).or_default();
                        agg.calls += 1;
                        agg.total_nanos += e.ts_nanos.saturating_sub(begin);
                    }
                }
                EventKind::Counter { delta } => {
                    *counters.entry(e.name.to_string()).or_insert(0) += delta;
                }
                EventKind::Lane => lanes.push(e.name.to_string()),
                _ => {}
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== cayman-obs summary ({} events) ==",
            self.events.len()
        );
        if !spans.is_empty() {
            let _ = writeln!(out, "spans:");
            let mut rows: Vec<_> = spans.into_iter().collect();
            rows.sort_by_key(|r| std::cmp::Reverse(r.1.total_nanos));
            for (name, agg) in rows {
                let _ = writeln!(
                    out,
                    "  {:<32} {:>8} calls  {:>12.3} ms",
                    name,
                    agg.calls,
                    agg.total_nanos as f64 / 1e6
                );
            }
        }
        if !counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (name, total) in counters {
                let _ = writeln!(out, "  {name:<32} {total:>12}");
            }
        }
        if !lanes.is_empty() {
            lanes.sort();
            let _ = writeln!(out, "lanes: {}", lanes.join(", "));
        }
        out
    }
}

fn write_args(out: &mut String, args: &[(&'static str, ArgValue)]) {
    if args.is_empty() {
        return;
    }
    out.push_str(",\"args\":{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":", escape(k));
        match v {
            ArgValue::U64(n) => {
                let _ = write!(out, "{n}");
            }
            ArgValue::I64(n) => {
                let _ = write!(out, "{n}");
            }
            ArgValue::F64(f) => {
                let _ = write!(out, "{}", fmt_f64(*f));
            }
            ArgValue::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            ArgValue::Str(s) => {
                let _ = write!(out, "\"{}\"", escape(s));
            }
        }
    }
    out.push('}');
}

/// Formats an `f64` as valid JSON (no NaN/Infinity literals).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` on a whole float prints without a dot; either form is valid
        // JSON, so keep it.
        s
    } else {
        "null".to_string()
    }
}

/// Escapes a string for inclusion in a JSON string literal.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}
