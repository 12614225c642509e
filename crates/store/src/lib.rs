//! # cayman-store
//!
//! Cayman-as-a-service: the content-addressed **persistent design store**
//! and the **batch analyse/select server** (DESIGN.md §11).
//!
//! * [`codec`] — hand-rolled, versioned, bit-exact binary serialization of
//!   design keys, design vectors and Pareto fronts (entry format + wire
//!   bodies),
//! * [`disk`] — [`disk::DiskStore`]: the on-disk second level under the
//!   16-stripe `DesignCache` (atomic writes, corruption-tolerant reads,
//!   mtime-LRU size-bounded eviction, shared safely across processes),
//! * [`wire`] — length-prefixed framing and the request/response protocol,
//! * [`server`] — the `caymand` accept loop batching concurrent clients
//!   through shared warm `Framework`s + one shared store, with
//!   request-scoped telemetry (server-assigned request ids, per-phase
//!   latency histograms, a slow-request log) and one METRICS wire
//!   surface (DESIGN.md §12),
//! * [`client`] — a minimal blocking client.
//!
//! The store plugs in under any `Framework` via
//! `Framework::set_design_store`; the bench binaries attach it when
//! `CAYMAN_STORE_DIR` is set, so a second `table2 --corpus` run is served
//! disk-warm with zero model evaluations.

#![forbid(unsafe_code)]

pub mod client;
pub mod codec;
pub mod disk;
pub mod server;
pub mod wire;

pub use client::Client;
pub use codec::{designs_bits_equal, fronts_bits_equal, DecodeError};
pub use disk::{DiskStore, StoreOptions, StoreStats, STORE_DIR_ENV, STORE_MAX_BYTES_ENV};
pub use server::{
    serve, Endpoint, ServerHandle, ServerOptions, METRICS_INTERVAL_MS_ENV, REQ_TIMEOUT_MS_ENV,
    SLOW_REQ_MS_ENV,
};
pub use wire::{MetricsReply, SelectReply, WireError};
