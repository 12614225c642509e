//! The global **metric registry** and the one counter type, [`Counter`].
//!
//! Counters and [`Histogram`]s are *always on* (unlike the event recorder,
//! which only collects when tracing is enabled). A [`Counter`] has one of
//! two scopes: **process** counters are registered here by name
//! ([`counter`]) and every [`snapshot`] includes them; **instance**
//! counters are fields of the one object whose API reports them (a
//! server's request count, a store's hits), which pushes them into a scrape
//! with [`MetricsSnapshot::push_counter`].
//!
//! Call sites register once ([`hist`], [`counter`]) and keep the returned
//! `&'static` handle; recording through a handle is a plain atomic
//! operation — no lock, no allocation, no registry lookup. Registration
//! itself takes the registry lock and leaks one small allocation per
//! distinct name, which is the price of handing out `'static` handles.
//! [`MetricsSnapshot::to_prometheus`] renders a snapshot as a
//! Prometheus-style text exposition.

use crate::hist::{HistSnapshot, Histogram};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A named, monotone `u64` event count: the single source of both the
/// METRICS scrape and the trace's counter track of the same name.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter. Names are dot-separated (`store.hits`); the
    /// exposition renders them as `cayman_store_hits`.
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// Counts `n` events: one relaxed `fetch_add`, plus a Chrome counter
    /// event under the same name when tracing is enabled. Adding zero
    /// touches nothing, so run-end totals cost only what they count.
    #[inline]
    pub fn add(&self, n: u64) {
        if n == 0 {
            return;
        }
        self.value.fetch_add(n, Ordering::Relaxed);
        if crate::enabled() {
            let event = crate::EventKind::Counter { delta: n };
            crate::recorder::push(event, crate::Name::Static(self.name), Vec::new());
        }
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[derive(Default)]
struct Registry {
    hists: Mutex<Vec<(&'static str, &'static Histogram)>>,
    counters: Mutex<Vec<&'static Counter>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// The registered histogram named `name`, registering an empty one on
/// first use. The registry is process-global and entries live forever:
/// fetch the handle once (startup / struct field), record through it on
/// the hot path.
pub fn hist(name: &'static str) -> &'static Histogram {
    let mut hists = registry().hists.lock().expect("metric registry poisoned");
    if let Some((_, h)) = hists.iter().find(|(n, _)| *n == name) {
        return h;
    }
    let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
    hists.push((name, h));
    h
}

/// The process-scope counter named `name`, registering a zeroed one on
/// first use. Like [`hist`], fetch the handle once and count through it.
pub fn counter(name: &'static str) -> &'static Counter {
    let mut counters = registry()
        .counters
        .lock()
        .expect("metric registry poisoned");
    if let Some(c) = counters.iter().find(|c| c.name == name) {
        return c;
    }
    let c: &'static Counter = Box::leak(Box::new(Counter::new(name)));
    counters.push(c);
    c
}

/// Freezes every registered metric, in registration order.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    let hists = reg
        .hists
        .lock()
        .expect("metric registry poisoned")
        .iter()
        .map(|(n, h)| (*n, h.snapshot()))
        .collect();
    let counters = reg
        .counters
        .lock()
        .expect("metric registry poisoned")
        .iter()
        .map(|c| (c.name, c.get()))
        .collect();
    MetricsSnapshot {
        counters,
        gauges: Vec::new(),
        hists,
    }
}

/// A frozen set of named metrics, extendable with caller-owned series
/// before rendering.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Monotone counters.
    pub counters: Vec<(&'static str, u64)>,
    /// Point values.
    pub gauges: Vec<(&'static str, f64)>,
    /// Latency/size distributions.
    pub hists: Vec<(&'static str, HistSnapshot)>,
}

impl MetricsSnapshot {
    /// Appends an instance-scope counter under its own name.
    pub fn push_counter(&mut self, counter: &Counter) {
        self.counters.push((counter.name, counter.get()));
    }

    /// Appends a point-in-time gauge series (`value` must be finite).
    pub fn push_gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.push((name, value));
    }

    /// Renders the snapshot as a Prometheus-style text exposition.
    ///
    /// Every metric name is prefixed `cayman_` and sanitized (characters
    /// outside `[a-zA-Z0-9_:]` become `_`). Counters render as one sample
    /// with a `# TYPE … counter` header, gauges as `# TYPE … gauge`, and
    /// each histogram as `# TYPE … histogram` with cumulative
    /// `…_bucket{le="…"}` samples over its non-empty buckets (the `le`
    /// bound is the bucket's inclusive upper value), a final
    /// `le="+Inf"` bucket, and `…_sum` / `…_count` samples. Values are
    /// raw recorded units (the server records nanoseconds and says so in
    /// the metric name).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let name = metric_name(name);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in &self.gauges {
            let name = metric_name(name);
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, snap) in &self.hists {
            let name = metric_name(name);
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for b in snap.buckets() {
                cumulative += b.count;
                let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cumulative}", b.hi);
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", snap.count());
            let _ = writeln!(out, "{name}_sum {}", snap.sum());
            let _ = writeln!(out, "{name}_count {}", snap.count());
        }
        out
    }
}

/// `cayman_`-prefixed, exposition-safe metric name.
fn metric_name(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 7);
    out.push_str("cayman_");
    for c in raw.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_stable_and_shared() {
        let a = hist("test.registry.hist");
        let b = hist("test.registry.hist");
        assert!(std::ptr::eq(a, b), "same name returns the same histogram");
        a.record(7);
        assert_eq!(b.count(), 1);

        let c = counter("test.registry.counter");
        c.add(3);
        assert!(std::ptr::eq(c, counter("test.registry.counter")));

        let snap = snapshot();
        let hist_snap = &snap
            .hists
            .iter()
            .find(|(n, _)| *n == "test.registry.hist")
            .expect("registered")
            .1;
        assert!(hist_snap.count() >= 1);
        assert!(snap
            .counters
            .iter()
            .any(|(n, v)| *n == "test.registry.counter" && *v >= 3));
    }

    #[test]
    fn prometheus_rendering_shape() {
        let mut snap = MetricsSnapshot::default();
        let requests = Counter::new("server.requests");
        requests.add(12);
        snap.push_counter(&requests);
        snap.push_gauge("server.uptime.seconds", 1.5);
        let h = Histogram::new();
        for v in [1u64, 1, 2, 1000] {
            h.record(v);
        }
        snap.hists.push(("req.total.nanos", h.snapshot()));
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE cayman_server_requests counter"));
        assert!(text.contains("cayman_server_requests 12"));
        assert!(text.contains("cayman_server_uptime_seconds 1.5"));
        assert!(text.contains("# TYPE cayman_req_total_nanos histogram"));
        assert!(text.contains("cayman_req_total_nanos_bucket{le=\"1\"} 2"));
        assert!(text.contains("cayman_req_total_nanos_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("cayman_req_total_nanos_sum 1004"));
        assert!(text.contains("cayman_req_total_nanos_count 4"));
        // cumulative buckets are monotone
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "bucket counts must be cumulative: {line}");
            last = v;
        }
    }
}
