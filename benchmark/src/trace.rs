//! In-memory spans recorded by the benchmark's own clocks around calls into
//! each layer, their self-time attribution, and Chrome-trace export.
//!
//! A span is `(name, start, end, id, parent, op, thread)`. After each traced
//! op, [`Recorder::finish_op`] attributes every instant of the op to the
//! deepest span active at that instant, on any thread. For spans nested on
//! one thread this is "duration minus the part its children cover"; where
//! children run in parallel on worker threads (model calls under a
//! two-thread select), the children's covered time counts once.
//!
//! Only the spans of the first [`KEEP_OPS`] traced ops are kept for the
//! trace file, so memory stays bounded however long a run is.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Traced ops whose spans are written to the trace file.
pub const KEEP_OPS: usize = 128;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    id: u32,
    parent: u32,
    op: u64,
    tid: u32,
}

/// A started span; hand it back to [`Recorder::close`].
#[derive(Debug)]
pub struct Open {
    pub id: u32,
    name: &'static str,
    parent: u32,
    op: u64,
    start: u64,
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static TID: Cell<u32> = const { Cell::new(0) };
}

fn tid() -> u32 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Nanoseconds attributed to each span name (self time).
pub type SelfTimes = BTreeMap<&'static str, u64>;

pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU32,
    in_flight: Mutex<Vec<Span>>,
    kept: Mutex<(usize, Vec<Span>)>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            in_flight: Mutex::new(Vec::new()),
            kept: Mutex::new((0, Vec::new())),
        }
    }
}

impl Recorder {
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a span (`parent` 0 for an op's root).
    pub fn open(&self, name: &'static str, parent: u32, op: u64) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            name,
            parent,
            op,
            start: self.now(),
        }
    }

    /// Ends a span; returns its duration in nanoseconds.
    pub fn close(&self, open: Open) -> u64 {
        let end = self.now();
        self.push(Span {
            name: open.name,
            start: open.start,
            end,
            id: open.id,
            parent: open.parent,
            op: open.op,
            tid: tid(),
        });
        end - open.start
    }

    /// Records a span timed elsewhere on this recorder's clock, on trace
    /// lane `tid`; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u32,
        op: u64,
        (start, end): (u64, u64),
        tid: u32,
    ) -> u32 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            name,
            start,
            end,
            id,
            parent,
            op,
            tid,
        });
        id
    }

    fn push(&self, span: Span) {
        self.in_flight.lock().expect("span buffer").push(span);
    }

    /// Takes `op`'s spans out of the in-flight buffer, adds their self times
    /// into `into`, and keeps them for the trace file while under the cap.
    pub fn finish_op(&self, op: u64, into: &mut SelfTimes) {
        let spans: Vec<Span> = {
            let mut buf = self.in_flight.lock().expect("span buffer");
            let (mine, rest) = buf.drain(..).partition(|s| s.op == op);
            *buf = rest;
            mine
        };
        for (name, ns) in self_times(&spans) {
            *into.entry(name).or_default() += ns;
        }
        let mut kept = self.kept.lock().expect("kept spans");
        if kept.0 < KEEP_OPS {
            kept.0 += 1;
            kept.1.extend(spans);
        }
    }

    /// The kept spans as a Chrome trace (`B`/`E` pairs per thread).
    pub fn chrome_json(&self) -> String {
        let mut spans = self.kept.lock().expect("kept spans").1.clone();
        // Parents open before their children, so ids break start ties.
        spans.sort_by_key(|s| (s.tid, s.start, std::cmp::Reverse(s.end), s.id));
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut event = |out: &mut String, ph: char, s: &Span, ns: u64| {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"{ph}\",\"ts\":{},\"pid\":1,\"tid\":{}",
                s.name,
                ns as f64 / 1000.0,
                s.tid
            );
            if ph == 'B' {
                let _ = write!(
                    out,
                    ",\"args\":{{\"op\":{},\"id\":{},\"parent\":{}}}",
                    s.op, s.id, s.parent
                );
            }
            out.push('}');
        };
        let mut stack: Vec<Span> = Vec::new();
        for s in &spans {
            while let Some(top) = stack.last() {
                if top.tid == s.tid && top.end > s.start {
                    break;
                }
                event(&mut out, 'E', top, top.end);
                stack.pop();
            }
            event(&mut out, 'B', s, s.start);
            stack.push(*s);
        }
        while let Some(top) = stack.pop() {
            event(&mut out, 'E', &top, top.end);
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    pub fn kept_spans(&self) -> usize {
        self.kept.lock().expect("kept spans").1.len()
    }
}

/// Self time per span name: each instant goes to the deepest span active at
/// it (ties go to the earlier-opened span).
fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let by_id: HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let depth = |s: &Span| {
        let mut d = 0;
        let mut p = s.parent;
        while let Some(parent) = by_id.get(&p) {
            d += 1;
            p = parent.parent;
        }
        d
    };
    let depths: Vec<usize> = spans.iter().map(depth).collect();
    let mut cuts: Vec<u64> = spans.iter().flat_map(|s| [s.start, s.end]).collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let owner = spans
            .iter()
            .zip(&depths)
            .filter(|(s, _)| s.start <= a && s.end >= b)
            .max_by_key(|(s, d)| (**d, std::cmp::Reverse(s.id)));
        if let Some((s, _)) = owner {
            *out.entry(s.name).or_default() += b - a;
        }
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, id: u32, parent: u32, tid: u32) -> Span {
        Span {
            name,
            start,
            end,
            id,
            parent,
            op: 1,
            tid,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_counts_parallel_children_once() {
        let spans = [
            span("op", 0, 100, 1, 0, 1),
            span("analyse", 0, 40, 2, 1, 1),
            span("select", 40, 90, 3, 1, 1),
            // two model calls on worker threads, overlapping 55..60
            span("model", 45, 60, 4, 3, 2),
            span("model", 55, 70, 5, 3, 3),
        ];
        let st: BTreeMap<_, _> = self_times(&spans).into_iter().collect();
        assert_eq!(st["op"], 10);
        assert_eq!(st["analyse"], 40);
        assert_eq!(st["model"], 25);
        assert_eq!(st["select"], 25);
        assert_eq!(st.values().sum::<u64>(), 100);
    }

    #[test]
    fn chrome_export_validates_and_keeps_nesting() {
        let rec = Recorder::default();
        for op in 0..3u64 {
            let root = rec.open("op", 0, op);
            let a = rec.open("analyse", root.id, op);
            rec.close(a);
            let s = rec.open("select", root.id, op);
            std::thread::scope(|sc| {
                for _ in 0..2 {
                    sc.spawn(|| {
                        let m = rec.open("model", s.id, op);
                        rec.close(m);
                    });
                }
            });
            rec.close(s);
            rec.close(root);
            let mut into = SelfTimes::new();
            rec.finish_op(op, &mut into);
            assert!(into.contains_key("op"));
        }
        let summary = cayman_obs::trace::validate_chrome(&rec.chrome_json()).expect("valid trace");
        assert_eq!(summary.spans, 15);
        assert_eq!(rec.kept_spans(), 15);
        assert!(summary.has_span_prefix("model"));
    }
}
