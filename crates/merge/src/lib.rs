//! # cayman-merge
//!
//! Accelerator merging (paper §III-E): program regions with *distinct
//! control flows* share one reusable accelerator by fusing their datapaths —
//! operations common to two basic blocks are implemented once behind
//! multiplexers with reconfiguration-bit registers, while each original
//! kernel keeps its own control FSM. A global `Ctrl` unit configures the
//! muxes and triggers the right FSM per invocation.
//!
//! The pass is the paper's greedy heuristic: estimate the area saving of
//! merging every datapath-unit pair in a solution, merge the best positive
//! pair, treat the merged unit as a normal unit, repeat until no saving
//! remains.
//!
//! * [`dfg`] — datapath-unit extraction from configured accelerators and the
//!   pairwise merge cost model,
//! * [`merge`] — the greedy loop and [`merge::MergeResult`] (reusable
//!   accelerator grouping + area-saving percentages).

#![forbid(unsafe_code)]

pub mod dfg;
pub mod merge;

pub use dfg::{merge_units, DatapathUnit};
pub use merge::{merge_solution, MergeResult, ReusableAccelerator};
