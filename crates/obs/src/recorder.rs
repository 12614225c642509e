//! The global, lock-striped event recorder and its recording entry points.

use crate::export::Trace;
use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Number of independently locked event stripes. A power of two so the
/// stripe pick is a mask; 16 matches the selection scheduler's worker-count
/// regime so concurrent workers rarely share a lock.
pub const STRIPES: usize = 16;

/// An event or span name: static for hot paths (no allocation), joined for
/// `prefix + static-suffix` names (per-pass spans), owned for labels only
/// computed when tracing is enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Name {
    /// A `'static` name — the common, allocation-free case.
    Static(&'static str),
    /// Two static halves rendered back-to-back (`"normalize."` + pass name).
    Joined(&'static str, &'static str),
    /// A runtime-computed label (allocates; only build one when
    /// [`enabled`] is true).
    Owned(String),
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Name::Static(s) => f.write_str(s),
            Name::Joined(a, b) => {
                f.write_str(a)?;
                f.write_str(b)
            }
            Name::Owned(s) => f.write_str(s),
        }
    }
}

impl From<&'static str> for Name {
    fn from(s: &'static str) -> Self {
        Name::Static(s)
    }
}

impl From<(&'static str, &'static str)> for Name {
    fn from((a, b): (&'static str, &'static str)) -> Self {
        Name::Joined(a, b)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name::Owned(s)
    }
}

/// A structured argument value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String (allocates; only build when tracing is enabled).
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(u64::from(v))
    }
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

/// What an [`Event`] records.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// Span opened (`ph: "B"`).
    Begin,
    /// Span closed (`ph: "E"`).
    End,
    /// A named counter increment; exported cumulatively (`ph: "C"`).
    Counter {
        /// Amount added to the counter.
        delta: u64,
    },
    /// A point-in-time marker (`ph: "i"`), e.g. a work steal.
    Instant,
    /// Names the calling thread's lane (`ph: "M"`, `thread_name`).
    Lane,
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Recorder-assigned thread id (dense, starting at 0).
    pub tid: u32,
    /// Per-thread sequence number — total order within a thread.
    pub seq: u32,
    /// Nanoseconds since the recorder's epoch (monotonic).
    pub ts_nanos: u64,
    /// What happened.
    pub kind: EventKind,
    /// Event name.
    pub name: Name,
    /// Structured arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

struct Recorder {
    epoch: Instant,
    stripes: [Mutex<Vec<Event>>; STRIPES],
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: OnceLock<Recorder> = OnceLock::new();
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static TID: Cell<u32> = const { Cell::new(u32::MAX) };
    static SEQ: Cell<u32> = const { Cell::new(0) };
}

fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        stripes: std::array::from_fn(|_| Mutex::new(Vec::new())),
    })
}

fn thread_id() -> u32 {
    TID.with(|t| {
        let mut id = t.get();
        if id == u32::MAX {
            id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(id);
        }
        id
    })
}

pub(crate) fn push(kind: EventKind, name: Name, args: Vec<(&'static str, ArgValue)>) {
    let rec = recorder();
    let tid = thread_id();
    let seq = SEQ.with(|s| {
        let v = s.get();
        s.set(v.wrapping_add(1));
        v
    });
    let ts_nanos = rec.epoch.elapsed().as_nanos() as u64;
    let event = Event {
        tid,
        seq,
        ts_nanos,
        kind,
        name,
        args,
    };
    rec.stripes[tid as usize % STRIPES]
        .lock()
        .expect("obs stripe poisoned")
        .push(event);
}

/// Whether tracing is enabled — one relaxed atomic load, the only cost a
/// disabled recording call pays.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the recorder on (idempotent). Events recorded before `enable` are
/// not retroactively created; events already collected are kept.
pub fn enable() {
    recorder(); // pin the epoch before the first event
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the recorder off (idempotent). Already-collected events stay until
/// [`drain`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Enables tracing when either observability environment variable is set:
/// `CAYMAN_TRACE=<chrome-trace.json>` or `CAYMAN_OBS_SUMMARY=1`. Returns
/// whether tracing ended up enabled.
pub fn init_from_env() -> bool {
    let any = std::env::var_os("CAYMAN_TRACE").is_some()
        || std::env::var_os("CAYMAN_OBS_SUMMARY").is_some();
    if any {
        enable();
    }
    any
}

/// Drains the recorder into the sinks named by the environment:
/// `CAYMAN_TRACE` gets the Chrome trace and `CAYMAN_OBS_SUMMARY=1` prints
/// the human summary to stderr.
/// Returns one `(what, destination)` pair per sink written.
pub fn flush_to_env() -> Vec<(&'static str, String)> {
    if !enabled() {
        return Vec::new();
    }
    let trace = drain();
    let mut written = Vec::new();
    if let Some(path) = std::env::var_os("CAYMAN_TRACE") {
        let path = std::path::PathBuf::from(path);
        if let Err(e) = std::fs::write(&path, trace.to_chrome()) {
            eprintln!("CAYMAN_TRACE: failed to write {}: {e}", path.display());
        } else {
            written.push(("chrome-trace", path.display().to_string()));
        }
    }
    if std::env::var_os("CAYMAN_OBS_SUMMARY").is_some() {
        eprintln!("{}", trace.summary());
        written.push(("summary", "stderr".to_string()));
    }
    written
}

/// Freezes and clears everything recorded so far into a [`Trace`], sorted by
/// `(tid, seq)` so every thread's stream is in program order.
pub fn drain() -> Trace {
    let rec = recorder();
    let mut events = Vec::new();
    for stripe in &rec.stripes {
        events.append(&mut *stripe.lock().expect("obs stripe poisoned"));
    }
    events.sort_by_key(|e| (e.tid, e.seq));
    Trace { events }
}

/// RAII span: records `Begin` on construction (via [`crate::span!`] or
/// [`SpanGuard::enter`]) and `End` on drop. The disabled form is a no-op
/// carrying no data.
#[must_use = "the span ends when the guard drops"]
pub struct SpanGuard {
    name: Option<Name>,
}

impl SpanGuard {
    /// Opens a span unconditionally (callers should check [`enabled`]
    /// first — the [`crate::span!`] macro does).
    pub fn enter(name: impl Into<Name>) -> SpanGuard {
        let name = name.into();
        push(EventKind::Begin, name.clone(), Vec::new());
        SpanGuard { name: Some(name) }
    }

    /// Opens a span with structured arguments.
    pub fn enter_with(name: impl Into<Name>, args: Vec<(&'static str, ArgValue)>) -> SpanGuard {
        let name = name.into();
        push(EventKind::Begin, name.clone(), args);
        SpanGuard { name: Some(name) }
    }

    /// The disabled no-op guard.
    pub fn noop() -> SpanGuard {
        SpanGuard { name: None }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(name) = self.name.take() {
            push(EventKind::End, name, Vec::new());
        }
    }
}

/// A span that *always* measures elapsed time (stats need the number whether
/// or not tracing is on) and additionally emits `Begin`/`End` events when
/// tracing is enabled. This is the single measurement mechanism behind
/// `SelectStats` and `PipelineStats`.
#[must_use = "call finish() to read the elapsed time"]
pub struct TimedSpan {
    start: Instant,
    name: Option<Name>,
    traced: bool,
}

/// Starts a [`TimedSpan`]. Allocation-free when `name` is
/// [`Name::Static`]/[`Name::Joined`] and tracing is disabled.
pub fn timed(name: impl Into<Name>) -> TimedSpan {
    let traced = enabled();
    let name = name.into();
    if traced {
        push(EventKind::Begin, name.clone(), Vec::new());
    }
    TimedSpan {
        start: Instant::now(),
        name: Some(name),
        traced,
    }
}

/// [`timed`] with structured arguments on the `Begin` event (built only when
/// tracing is enabled).
pub fn timed_with(
    name: impl Into<Name>,
    args: impl FnOnce() -> Vec<(&'static str, ArgValue)>,
) -> TimedSpan {
    let traced = enabled();
    let name = name.into();
    if traced {
        push(EventKind::Begin, name.clone(), args());
    }
    TimedSpan {
        start: Instant::now(),
        name: Some(name),
        traced,
    }
}

impl TimedSpan {
    /// Closes the span and returns the elapsed nanoseconds.
    pub fn finish(mut self) -> u64 {
        let nanos = self.start.elapsed().as_nanos() as u64;
        if let Some(name) = self.name.take() {
            if self.traced {
                push(EventKind::End, name, Vec::new());
            }
        }
        nanos
    }
}

impl Drop for TimedSpan {
    fn drop(&mut self) {
        if let Some(name) = self.name.take() {
            if self.traced {
                push(EventKind::End, name, Vec::new());
            }
        }
    }
}

/// Records a point-in-time marker (e.g. one work steal). No-op when
/// disabled.
#[inline]
pub fn instant(name: impl Into<Name>) {
    if enabled() {
        push(EventKind::Instant, name.into(), Vec::new());
    }
}

/// [`instant`] with structured arguments (built only when enabled).
#[inline]
pub fn instant_with(name: impl Into<Name>, args: impl FnOnce() -> Vec<(&'static str, ArgValue)>) {
    if enabled() {
        push(EventKind::Instant, name.into(), args());
    }
}

/// A structured diagnostic from library code (libraries never print on their
/// own — anomalies flow through the event sink instead). Rendered as an
/// instant marker with a `message` argument.
#[inline]
pub fn diag(name: impl Into<Name>, message: impl FnOnce() -> String) {
    if enabled() {
        push(
            EventKind::Instant,
            name.into(),
            vec![("message", ArgValue::Str(message()))],
        );
    }
}

/// Names the calling thread's lane in the trace viewer (e.g.
/// `select.worker.3`). The label closure is only invoked when tracing is
/// enabled, so formatting costs nothing otherwise.
#[inline]
pub fn lane(label: impl FnOnce() -> String) {
    if enabled() {
        push(EventKind::Lane, Name::Owned(label()), Vec::new());
    }
}
