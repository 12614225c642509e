//! # cayman-obs
//!
//! Dependency-free observability substrate for the whole Cayman pipeline:
//! one instrumentation mechanism shared by every crate, one artifact out.
//!
//! * **Spans** — hierarchical begin/end pairs ([`span!`], [`SpanGuard`])
//!   recorded per thread with nanosecond timestamps. Spans are the one
//!   clock of the pipeline: the per-run statistics snapshots
//!   (`SelectStats`, `PipelineStats`) only count, and a run with tracing
//!   off reads no clock at all.
//! * **Phases** — [`PhaseTimer`]: an always-on timed phase (`caymand`'s
//!   request phases). Its two clock readings feed one histogram and, when
//!   tracing is on, stamp the same-named span, so METRICS and the trace
//!   hold one measurement.
//! * **Counters** — one type, [`Counter`]: an always-on named atomic whose
//!   [`Counter::add`] also emits a same-named Chrome counter event when
//!   tracing is on, so METRICS and the trace read one source (scopes: see
//!   [`registry`]). **Instants** ([`instant_with`], [`diag`]) mark points in time.
//! * **Histograms & metrics** — [`hist`] provides fixed-size log-bucketed
//!   (HDR-style) latency histograms whose record path is lock- and
//!   allocation-free, mergeable across threads and queryable for
//!   p50/p90/p99/max; [`registry`] holds the *always-on* named
//!   counter/histogram registry behind the Prometheus-style text
//!   exposition ([`registry::MetricsSnapshot::to_prometheus`]), and
//!   [`promtext`] parses/validates that exposition for CI gates.
//! * **Sinks** — [`drain`] freezes everything into a [`Trace`], exportable
//!   as a human summary or as a Chrome trace-format file (the one
//!   machine-readable trace) loadable in `chrome://tracing` / Perfetto.
//!   [`init_from_env`] / [`flush_to_env`] wire the `CAYMAN_TRACE` and
//!   `CAYMAN_OBS_SUMMARY` environment variables so binaries need exactly
//!   two calls.
//!
//! ## Cost model
//!
//! Tracing is **off by default**. Every recording entry point starts with a
//! single relaxed atomic load ([`enabled`]); when disabled, no event is
//! constructed, no argument expression of [`span!`] is evaluated, and no
//! allocation happens (verified by the `zero_overhead` test with a counting
//! global allocator). When enabled, events are appended to one of
//! [`STRIPES`] independently locked stripes picked by thread id, so
//! concurrent threads do not serialise on a global lock.
//!
//! Determinism: the recorder only *observes* — it never feeds back into
//! selection, profiling, or merging, so fronts and profiles are bit-identical
//! with tracing on or off.

#![forbid(unsafe_code)]

mod export;
pub mod hist;
pub mod promtext;
mod recorder;
pub mod registry;
pub mod trace;

pub use export::{escape, Trace};
pub use recorder::{
    diag, disable, drain, enable, enabled, flush_to_env, init_from_env, instant_with, ArgValue,
    Event, EventKind, Name, PhaseTimer, SpanGuard, STRIPES,
};
pub use registry::Counter;

/// Opens a span over the enclosing scope; the returned guard ends it on
/// drop. Near-zero cost when tracing is disabled: one relaxed atomic check,
/// and the argument expressions are **not** evaluated.
///
/// ```
/// let _g = cayman_obs::span!("select.dp");
/// let _g = cayman_obs::span!("select.combine", vertex = 7usize);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        if $crate::enabled() {
            $crate::SpanGuard::enter($name)
        } else {
            $crate::SpanGuard::noop()
        }
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        if $crate::enabled() {
            $crate::SpanGuard::enter_with(
                $name,
                vec![$((stringify!($k), $crate::ArgValue::from($v))),+],
            )
        } else {
            $crate::SpanGuard::noop()
        }
    };
}
