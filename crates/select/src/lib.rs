//! # cayman-select
//!
//! Candidate selection for the Cayman reproduction (paper §III-D): the wPST
//! is a tree-constrained knapsack — every region vertex is an item whose
//! profit is the modelled time saving and whose weight is the accelerator
//! area, with the constraint that selecting a vertex excludes all of its
//! descendants.
//!
//! * [`mod@pareto`] — [`pareto::Solution`]s, Pareto reduction, the α-spacing
//!   `filter`, and the `⊗` combination operator,
//! * [`dp`] — Algorithm 1 ([`dp::run_selection`], the one entry point) with
//!   heuristic pruning, design memoisation and per-function front reuse
//!   (a caller-owned table keyed by [`dp::FrontKey`]); its recursive engine
//!   runs when [`dp::SelectOptions::threads`] `<= 1`,
//! * [`sched`] — the work-stealing engine, run when `threads > 1`; both
//!   engines produce bit-identical fronts,
//! * [`cache`] — the thread-safe [`cache::DesignCache`] memoising
//!   `accel(v, R)` results across selection runs,
//! * [`stats`] — the [`stats::SelectStats`] observability snapshot carried
//!   on every [`dp::SelectionResult`].
//!
//! See [`dp::SelectionResult::best_under`] for extracting the best solution
//! under an area budget (the paper's 25% / 65% CVA6-tile budgets).

pub mod cache;
pub mod dp;
pub mod pareto;
pub mod sched;
pub mod stats;

pub use cache::{DesignCache, DesignKey, DesignStoreBackend, ModelId};
pub use dp::{run_selection, AccelModel, CaymanModel, FrontKey, SelectOptions, SelectionResult};
pub use pareto::{combine, filter, pareto, SelectedKernel, Solution};
pub use sched::SchedKind;
pub use stats::{AccelCallStat, SelectStats, TOP_ACCEL_K};
