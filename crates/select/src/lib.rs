//! # cayman-select
//!
//! Candidate selection for the Cayman reproduction (paper §III-D): the wPST
//! is a tree-constrained knapsack — every region vertex is an item whose
//! profit is the modelled time saving and whose weight is the accelerator
//! area, with the constraint that selecting a vertex excludes all of its
//! descendants.
//!
//! * [`mod@pareto`] — [`pareto::Solution`]s, Pareto reduction, the α-spacing
//!   `filter`, the `⊗` combination operator and the per-vertex fold, all
//!   ranking candidates on their totals before building any,
//! * [`dp`] — Algorithm 1 ([`dp::run_selection`], the one entry point): one
//!   recursive engine with heuristic pruning, design memoisation and
//!   per-function front reuse (a caller-owned table keyed by
//!   [`dp::FrontKey`]),
//! * [`cache`] — the thread-safe [`cache::DesignCache`] memoising
//!   `accel(v, R)` results across selection runs,
//! * [`stats`] — the [`stats::SelectStats`] observability snapshot carried
//!   on every [`dp::SelectionResult`].
//!
//! See [`dp::SelectionResult::best_under`] for extracting the best solution
//! under an area budget (the paper's 25% / 65% CVA6-tile budgets).

#![forbid(unsafe_code)]

pub mod cache;
pub mod dp;
pub mod pareto;
pub mod stats;

pub use cache::{DesignCache, DesignKey, DesignStoreBackend, ModelId};
pub use dp::{
    front_keys, run_selection, AccelModel, CaymanModel, FrontKey, FrontTable, SelectOptions,
    SelectionResult,
};
pub use pareto::{combine, filter, fold, pareto, with_designs, SelectedKernel, Solution};
pub use stats::SelectStats;
