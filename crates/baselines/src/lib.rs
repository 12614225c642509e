//! # cayman-baselines
//!
//! Models of the two state-of-the-art frameworks Cayman is evaluated against
//! (paper §IV, Table II, Fig. 6):
//!
//! * [`novia`] — **NOVIA** \[MICRO'21\], a custom-functional-unit (CFU)
//!   synthesis framework: candidates are *data-flow graphs inside basic
//!   blocks only* — no control flow, no memory access; operands enter and
//!   results leave through scalar registers. The win is intra-block ILP; the
//!   cost is that loads, stores and all loop control stay on the CPU.
//! * [`qscores`] — **QsCores** \[MICRO'11\], an off-core accelerator (OCA)
//!   synthesis framework: candidates may contain control flow and memory
//!   accesses, but the synthesised control logic is *sequential* (no
//!   pipelining, no unrolling) and data access goes through a slow
//!   scan-chain-style interface with high latency and low bandwidth.
//!
//! Both are implemented as [`cayman_select::AccelModel`]s so the identical
//! Algorithm 1 selection machinery (with the identical profile) produces
//! their Pareto fronts — the comparison isolates the *accelerator model*
//! differences exactly as Table I frames them.

#![forbid(unsafe_code)]

pub mod novia;
pub mod qscores;

pub use novia::NoviaModel;
pub use qscores::QsCoresModel;
