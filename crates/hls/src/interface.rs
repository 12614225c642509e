//! Processor–accelerator data-access interfaces (§III-C, Fig. 3).
//!
//! Interfaces are described by an [`InterfaceSpec`]: a kind plus its
//! banking factor, buffering depth and port count, with per-spec
//! latency/area cost functions. Six kinds:
//!
//! * **coupled** — a plain load/store unit; the accelerator stalls for the
//!   full memory round-trip and all coupled accesses serialise on one port.
//! * **decoupled** — a dedicated address-generation unit (AGU) + FIFO per
//!   access; addresses are produced independently of the datapath, so loads
//!   complete ahead of use and stores drain behind. Only legal for *stream*
//!   accesses (the AGU must be able to compute the address sequence).
//! * **scratchpad** — a private buffer caching the access footprint, filled
//!   and drained by a DMA engine at region entry/exit; single-cycle access
//!   and partitionable for parallelism, at a prominent area cost.
//! * **banked scratchpad** — a scratchpad cyclically interleaved across
//!   `banks` independent SRAMs. Legal only when the analyzer proves every
//!   unrolled access stride conflict-free
//!   (`cayman_analysis::banking::bank_conflict_free`); buys `banks × 2`
//!   ports for a per-bank area overhead.
//! * **double-buffered scratchpad** — two copies of the buffer in
//!   ping-pong: the DMA fills one while compute reads the other, hiding the
//!   fill behind the previous entry's compute on all but the first entry.
//!   Twice the buffer area.
//! * **line buffer** — `rows - 1` row shift-registers plus a tap window for
//!   stencil loads; each iteration fetches one new element and re-reads the
//!   rest from the buffer. Legal only when the loads form a provable
//!   stencil window (`cayman_analysis::banking::stencil_window`). No DMA,
//!   no port contention, small area.

use crate::oplib;
use std::fmt;

/// Coupled-interface load latency (accelerator cycles): request, memory
/// round-trip, response.
pub const COUPLED_LOAD_LATENCY: u64 = 4;
/// Coupled-interface store latency (posted to the port).
pub const COUPLED_STORE_LATENCY: u64 = 1;
/// Decoupled-interface effective latency: data waits in the FIFO.
pub const DECOUPLED_LATENCY: u64 = 1;
/// Scratchpad access latency.
pub const SCRATCHPAD_LATENCY: u64 = 1;
/// Line-buffer tap latency: the window is held in registers.
pub const LINE_BUFFER_LATENCY: u64 = 1;

/// Area of the single shared coupled load/store unit.
pub const COUPLED_LSU_AREA: f64 = 1_500.0;
pub use crate::oplib::AGU_FIFO_AREA;
/// Area of the DMA engine (one per accelerator that uses scratchpads).
pub const DMA_AREA: f64 = 5_000.0;
/// Scratchpad SRAM area per byte.
pub const SPAD_BYTE_AREA: f64 = 5.0;
/// Extra banking overhead per additional scratchpad partition or bank
/// (fraction of the buffer area: decoders, bank muxes).
pub const SPAD_BANK_OVERHEAD: f64 = 0.10;
/// Scratchpad ports per partition (dual-ported SRAM).
pub const SPAD_PORTS_PER_PARTITION: u64 = 2;
/// DMA transfer bandwidth in bytes per accelerator cycle.
pub const DMA_BYTES_PER_CYCLE: f64 = 8.0;
/// Default scratchpad capacity cap in bytes.
pub const SPAD_MAX_BYTES: f64 = 32.0 * 1024.0;
/// Off-chip stream bandwidth in words per accelerator cycle, shared by all
/// decoupled FIFOs and line-buffer fill streams of one accelerator. A line
/// buffer pulls **one** new word per iteration however wide its tap window
/// is — which is exactly where it beats a bundle of decoupled streams.
pub const STREAM_WORDS_PER_CYCLE: u64 = 2;
/// Area of one line-buffer tap: window register + shift mux. Cheaper than
/// an AGU+FIFO — the address sequence is implicit in the shift.
pub const LINE_BUFFER_TAP_AREA: f64 = 400.0;

/// The species of interface assigned to one memory access operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InterfaceKind {
    /// Stalling load/store unit.
    Coupled,
    /// AGU + FIFO stream interface.
    Decoupled,
    /// Private buffer + DMA (partitioned by the unroll heuristic).
    Scratchpad,
    /// Cyclically banked scratchpad (conflict-freedom proven).
    BankedScratchpad,
    /// Ping-pong double-buffered scratchpad (fill hidden behind compute).
    DoubleBuffered,
    /// Row shift-registers + tap window for stencil loads.
    LineBuffer,
}

impl fmt::Display for InterfaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InterfaceKind::Coupled => "coupled",
            InterfaceKind::Decoupled => "decoupled",
            InterfaceKind::Scratchpad => "scratchpad",
            InterfaceKind::BankedScratchpad => "banked-scratchpad",
            InterfaceKind::DoubleBuffered => "double-buffered",
            InterfaceKind::LineBuffer => "linebuf",
        };
        f.write_str(s)
    }
}

impl InterfaceKind {
    /// Whether this kind caches data in a DMA-filled private buffer.
    pub fn is_scratchpad_family(self) -> bool {
        matches!(
            self,
            InterfaceKind::Scratchpad
                | InterfaceKind::BankedScratchpad
                | InterfaceKind::DoubleBuffered
        )
    }

    /// Datapath-visible latency of a load through this interface.
    pub fn load_latency(self) -> u64 {
        match self {
            InterfaceKind::Coupled => COUPLED_LOAD_LATENCY,
            InterfaceKind::Decoupled => DECOUPLED_LATENCY,
            InterfaceKind::LineBuffer => LINE_BUFFER_LATENCY,
            _ => SCRATCHPAD_LATENCY,
        }
    }

    /// Datapath-visible latency of a store through this interface.
    pub fn store_latency(self) -> u64 {
        match self {
            InterfaceKind::Coupled => COUPLED_STORE_LATENCY,
            InterfaceKind::Decoupled => DECOUPLED_LATENCY,
            InterfaceKind::LineBuffer => LINE_BUFFER_LATENCY,
            _ => SCRATCHPAD_LATENCY,
        }
    }

    /// Per-access interface area (buffers are charged separately per array;
    /// see [`crate::design`]).
    pub fn per_access_area(self) -> f64 {
        match self {
            InterfaceKind::Decoupled => AGU_FIFO_AREA,
            InterfaceKind::LineBuffer => LINE_BUFFER_TAP_AREA,
            _ => oplib::fu_area(oplib::FuClass::Mem),
        }
    }
}

/// A concrete interface configuration: kind plus banking factor, buffering
/// depth and port count. This is what designs carry per access, what the
/// scheduler prices, and what the selection front keys fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InterfaceSpec {
    /// Interface species.
    pub kind: InterfaceKind,
    /// Banks (scratchpad family: partitions/banks; otherwise 1).
    pub banks: u16,
    /// Buffering depth: 2 for ping-pong double buffering, the window height
    /// (rows) for line buffers, 1 otherwise.
    pub depth: u16,
    /// Structural memory ports the interface exposes to the datapath.
    pub ports: u16,
}

impl InterfaceSpec {
    /// The stalling load/store-unit interface.
    pub fn coupled() -> Self {
        InterfaceSpec {
            kind: InterfaceKind::Coupled,
            banks: 1,
            depth: 1,
            ports: 1,
        }
    }

    /// The AGU + FIFO stream interface.
    pub fn decoupled() -> Self {
        InterfaceSpec {
            kind: InterfaceKind::Decoupled,
            banks: 1,
            depth: 1,
            ports: 1,
        }
    }

    /// A plain scratchpad with `parts` partitions (the legacy unroll-driven
    /// partitioning; `parts` is clamped to at least 1).
    pub fn scratchpad(parts: u32) -> Self {
        let parts = parts.max(1).min(u16::MAX as u32) as u16;
        InterfaceSpec {
            kind: InterfaceKind::Scratchpad,
            banks: parts,
            depth: 1,
            ports: saturating_ports(parts),
        }
    }

    /// A conflict-proven cyclically banked scratchpad.
    pub fn banked(banks: u32) -> Self {
        let banks = banks.max(1).min(u16::MAX as u32) as u16;
        InterfaceSpec {
            kind: InterfaceKind::BankedScratchpad,
            banks,
            depth: 1,
            ports: saturating_ports(banks),
        }
    }

    /// A ping-pong double-buffered scratchpad over `banks` banks.
    pub fn double_buffered(banks: u32) -> Self {
        let banks = banks.max(1).min(u16::MAX as u32) as u16;
        InterfaceSpec {
            kind: InterfaceKind::DoubleBuffered,
            banks,
            depth: 2,
            ports: saturating_ports(banks),
        }
    }

    /// A line buffer retaining a `rows`-high stencil window.
    pub fn line_buffer(rows: u32) -> Self {
        let rows = rows.max(2).min(u16::MAX as u32) as u16;
        InterfaceSpec {
            kind: InterfaceKind::LineBuffer,
            banks: 1,
            depth: rows,
            ports: rows,
        }
    }

    /// Datapath-visible latency of a load through this interface.
    pub fn load_latency(&self) -> u64 {
        self.kind.load_latency()
    }

    /// Datapath-visible latency of a store through this interface.
    pub fn store_latency(&self) -> u64 {
        self.kind.store_latency()
    }

    /// Per-access interface area (buffer storage is charged separately via
    /// [`InterfaceSpec::buffer_area`]).
    pub fn per_access_area(&self) -> f64 {
        self.kind.per_access_area()
    }

    /// Area of the private buffer holding `bytes` of footprint, including
    /// banking overhead and double-buffer duplication. Zero for interfaces
    /// without a buffer (coupled; decoupled's FIFO is in the per-access
    /// area).
    pub fn buffer_area(&self, bytes: f64) -> f64 {
        let banked =
            |b: f64| b * SPAD_BYTE_AREA * (1.0 + (self.banks as f64 - 1.0) * SPAD_BANK_OVERHEAD);
        match self.kind {
            InterfaceKind::Coupled | InterfaceKind::Decoupled => 0.0,
            InterfaceKind::Scratchpad | InterfaceKind::BankedScratchpad => banked(bytes),
            InterfaceKind::DoubleBuffered => 2.0 * banked(bytes),
            // rows-1 row shift registers; the tap window itself is in
            // per-access area.
            InterfaceKind::LineBuffer => bytes * SPAD_BYTE_AREA,
        }
    }

    /// Memory ports bounding concurrent same-array accesses in the
    /// scheduler, or `None` when the interface does not contend (streams:
    /// every decoupled access owns its FIFO, every line-buffer tap its
    /// register).
    pub fn mem_ports(&self) -> Option<u64> {
        match self.kind {
            InterfaceKind::Decoupled | InterfaceKind::LineBuffer => None,
            _ => Some(self.ports as u64),
        }
    }

    /// Whether region entry/exit must run DMA fill/drain for this
    /// interface.
    pub fn needs_dma(&self) -> bool {
        self.kind.is_scratchpad_family()
    }

    /// Parses the [`fmt::Display`] surface back into a spec:
    /// `coupled`, `decoupled`, `scratchpad`, `scratchpad[parts=2]`,
    /// `scratchpad[banks=4]`, `scratchpad[banks=4,dbl]`, `scratchpad[dbl]`,
    /// `linebuf[rows=3]`.
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        let (head, params) = match s.find('[') {
            Some(i) => {
                let rest = s[i + 1..].strip_suffix(']')?;
                (&s[..i], Some(rest))
            }
            None => (s, None),
        };
        let mut parts: Option<u32> = None;
        let mut banks: Option<u32> = None;
        let mut rows: Option<u32> = None;
        let mut dbl = false;
        if let Some(params) = params {
            for p in params.split(',') {
                let p = p.trim();
                if p == "dbl" {
                    dbl = true;
                } else if let Some(v) = p.strip_prefix("parts=") {
                    parts = Some(v.parse().ok()?);
                } else if let Some(v) = p.strip_prefix("banks=") {
                    banks = Some(v.parse().ok()?);
                } else if let Some(v) = p.strip_prefix("rows=") {
                    rows = Some(v.parse().ok()?);
                } else {
                    return None;
                }
            }
        }
        match head {
            "coupled" if params.is_none() => Some(InterfaceSpec::coupled()),
            "decoupled" if params.is_none() => Some(InterfaceSpec::decoupled()),
            "scratchpad" if rows.is_none() => match (parts, banks, dbl) {
                (None, None, false) => Some(InterfaceSpec::scratchpad(1)),
                (Some(p), None, false) => Some(InterfaceSpec::scratchpad(p)),
                (None, Some(b), false) => Some(InterfaceSpec::banked(b)),
                (None, b, true) => Some(InterfaceSpec::double_buffered(b.unwrap_or(1))),
                _ => None,
            },
            "linebuf" => match (parts, banks, rows, dbl) {
                (None, None, Some(r), false) if r >= 2 => Some(InterfaceSpec::line_buffer(r)),
                _ => None,
            },
            _ => None,
        }
    }
}

fn saturating_ports(banks: u16) -> u16 {
    u64::from(banks)
        .saturating_mul(SPAD_PORTS_PER_PARTITION)
        .min(u16::MAX as u64) as u16
}

impl fmt::Display for InterfaceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            InterfaceKind::Coupled => f.write_str("coupled"),
            InterfaceKind::Decoupled => f.write_str("decoupled"),
            InterfaceKind::Scratchpad => {
                if self.banks > 1 {
                    write!(f, "scratchpad[parts={}]", self.banks)
                } else {
                    f.write_str("scratchpad")
                }
            }
            InterfaceKind::BankedScratchpad => write!(f, "scratchpad[banks={}]", self.banks),
            InterfaceKind::DoubleBuffered => {
                if self.banks > 1 {
                    write!(f, "scratchpad[banks={},dbl]", self.banks)
                } else {
                    f.write_str("scratchpad[dbl]")
                }
            }
            InterfaceKind::LineBuffer => write!(f, "linebuf[rows={}]", self.depth),
        }
    }
}

/// Options steering interface selection and configuration generation.
#[derive(Debug, Clone)]
pub struct ModelOptions {
    /// Scratchpad heuristic threshold β: use a scratchpad when the total
    /// access count is at least β × footprint (§III-C).
    pub beta: f64,
    /// Candidate unroll factors explored for eligible innermost loops.
    pub unroll_factors: Vec<u32>,
    /// Candidate duplication factors: parallel pipeline instances created by
    /// unrolling a dependence-free *outer* loop (§III-C "tries unrolling
    /// loops without loop-carried dependencies"). Spends area for speedup
    /// when the inner II is dependence-bound.
    pub duplication_factors: Vec<u32>,
    /// Restrict every access to the coupled interface (the paper's
    /// "coupled-only Cayman" ablation in Fig. 6).
    pub coupled_only: bool,
    /// Scratchpad capacity cap in bytes.
    pub spad_max_bytes: f64,
    /// Enumerate the extended interfaces (banked / double-buffered
    /// scratchpads, line buffers) in addition to the classic three. `false`
    /// reproduces the 3-kind baseline exactly.
    pub extended: bool,
    /// Candidate banking factors tried for conflict-proven banked
    /// scratchpads.
    pub bank_factors: Vec<u32>,
    /// Tallest stencil window a line buffer may retain.
    pub lb_max_rows: u32,
}

impl Default for ModelOptions {
    fn default() -> Self {
        ModelOptions {
            beta: 4.0,
            unroll_factors: vec![1, 2, 4, 8],
            duplication_factors: vec![1, 2, 4, 8, 16],
            coupled_only: false,
            spad_max_bytes: SPAD_MAX_BYTES,
            extended: true,
            bank_factors: vec![2, 4, 8],
            lb_max_rows: 8,
        }
    }
}

impl ModelOptions {
    /// The coupled-only ablation configuration.
    pub fn coupled_only() -> Self {
        ModelOptions {
            coupled_only: true,
            ..Default::default()
        }
    }

    /// The classic 3-kind interface model (coupled/decoupled/scratchpad
    /// only) — the baseline the extended model is ablated against.
    pub fn baseline3() -> Self {
        ModelOptions {
            extended: false,
            ..Default::default()
        }
    }

    /// A stable 64-bit fingerprint of this configuration, usable as (part
    /// of) a design-cache key. Two options with equal fingerprints generate
    /// identical designs for the same candidate.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash as _, Hasher as _};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

// `ModelOptions` must be usable as a `HashMap` key for design memoisation.
// The `f64` fields are compared/hashed by bit pattern: configurations are
// constructed from literals, so bitwise identity is the right equivalence
// (and NaN never appears in a sane configuration).
impl PartialEq for ModelOptions {
    fn eq(&self, other: &Self) -> bool {
        self.beta.to_bits() == other.beta.to_bits()
            && self.unroll_factors == other.unroll_factors
            && self.duplication_factors == other.duplication_factors
            && self.coupled_only == other.coupled_only
            && self.spad_max_bytes.to_bits() == other.spad_max_bytes.to_bits()
            && self.extended == other.extended
            && self.bank_factors == other.bank_factors
            && self.lb_max_rows == other.lb_max_rows
    }
}

impl Eq for ModelOptions {}

impl std::hash::Hash for ModelOptions {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.beta.to_bits().hash(state);
        self.unroll_factors.hash(state);
        self.duplication_factors.hash(state);
        self.coupled_only.hash(state);
        self.spad_max_bytes.to_bits().hash(state);
        self.extended.hash(state);
        self.bank_factors.hash(state);
        self.lb_max_rows.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_favor_specialised_interfaces() {
        assert!(InterfaceKind::Coupled.load_latency() > InterfaceKind::Decoupled.load_latency());
        assert_eq!(
            InterfaceKind::Scratchpad.load_latency(),
            InterfaceKind::Decoupled.load_latency()
        );
        assert_eq!(
            InterfaceSpec::line_buffer(3).load_latency(),
            LINE_BUFFER_LATENCY
        );
    }

    #[test]
    fn areas_favor_coupled() {
        assert!(
            InterfaceKind::Decoupled.per_access_area() > InterfaceKind::Coupled.per_access_area()
        );
        // A line-buffer tap undercuts a full AGU+FIFO.
        assert!(InterfaceKind::LineBuffer.per_access_area() < AGU_FIFO_AREA);
    }

    #[test]
    fn display_names() {
        assert_eq!(InterfaceKind::Coupled.to_string(), "coupled");
        assert_eq!(InterfaceKind::Decoupled.to_string(), "decoupled");
        assert_eq!(InterfaceKind::Scratchpad.to_string(), "scratchpad");
    }

    #[test]
    fn spec_display_parse_roundtrip() {
        let specs = [
            InterfaceSpec::coupled(),
            InterfaceSpec::decoupled(),
            InterfaceSpec::scratchpad(1),
            InterfaceSpec::scratchpad(4),
            InterfaceSpec::banked(2),
            InterfaceSpec::banked(8),
            InterfaceSpec::double_buffered(1),
            InterfaceSpec::double_buffered(4),
            InterfaceSpec::line_buffer(3),
            InterfaceSpec::line_buffer(5),
        ];
        for s in specs {
            let text = s.to_string();
            let back = InterfaceSpec::parse(&text)
                .unwrap_or_else(|| panic!("`{text}` failed to parse back"));
            assert_eq!(s, back, "roundtrip through `{text}`");
        }
    }

    #[test]
    fn parse_named_forms() {
        assert_eq!(
            InterfaceSpec::parse("scratchpad[banks=4,dbl]"),
            Some(InterfaceSpec::double_buffered(4))
        );
        assert_eq!(
            InterfaceSpec::parse(" scratchpad[dbl] "),
            Some(InterfaceSpec::double_buffered(1))
        );
        assert_eq!(
            InterfaceSpec::parse("linebuf[rows=3]"),
            Some(InterfaceSpec::line_buffer(3))
        );
        assert_eq!(
            InterfaceSpec::parse("scratchpad[banks=4]"),
            Some(InterfaceSpec::banked(4))
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "coupledd",
            "coupled[banks=2]",
            "scratchpad[banks=4,parts=2]",
            "scratchpad[rows=3]",
            "scratchpad[banks=x]",
            "linebuf",
            "linebuf[rows=1]",
            "linebuf[rows=3,dbl]",
            "linebuf[rows=3",
        ] {
            assert_eq!(InterfaceSpec::parse(bad), None, "`{bad}` should not parse");
        }
    }

    #[test]
    fn cost_functions_follow_the_descriptor() {
        // More banks: same bytes cost more area but expose more ports.
        let plain = InterfaceSpec::scratchpad(1);
        let banked = InterfaceSpec::banked(4);
        assert!(banked.buffer_area(1024.0) > plain.buffer_area(1024.0));
        assert!(banked.mem_ports().unwrap() > plain.mem_ports().unwrap());
        // Double buffering doubles the banked buffer area.
        let dbl = InterfaceSpec::double_buffered(4);
        assert_eq!(dbl.buffer_area(1024.0), 2.0 * banked.buffer_area(1024.0));
        // Streams do not contend on ports and need no DMA.
        assert_eq!(InterfaceSpec::decoupled().mem_ports(), None);
        assert_eq!(InterfaceSpec::line_buffer(3).mem_ports(), None);
        assert!(!InterfaceSpec::line_buffer(3).needs_dma());
        assert!(dbl.needs_dma());
        // Coupled buffers nothing.
        assert_eq!(InterfaceSpec::coupled().buffer_area(1024.0), 0.0);
    }

    #[test]
    fn default_options() {
        let o = ModelOptions::default();
        assert_eq!(o.beta, 4.0);
        assert!(!o.coupled_only);
        assert!(o.extended);
        assert!(ModelOptions::coupled_only().coupled_only);
        assert!(!ModelOptions::baseline3().extended);
    }

    #[test]
    fn options_hash_and_eq_follow_configuration() {
        let a = ModelOptions::default();
        let b = ModelOptions::default();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = ModelOptions::coupled_only();
        assert_ne!(a, c);
        assert_ne!(a.fingerprint(), c.fingerprint());
        let d = ModelOptions {
            beta: 8.0,
            ..Default::default()
        };
        assert_ne!(a, d);
        assert_ne!(a.fingerprint(), d.fingerprint());
        // The extended-model dimension is part of the key: baseline and
        // extended fronts must never share design-cache entries.
        let e = ModelOptions::baseline3();
        assert_ne!(a, e);
        assert_ne!(a.fingerprint(), e.fingerprint());
    }
}
