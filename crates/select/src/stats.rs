//! Observability for Algorithm 1: design-cache effectiveness and
//! search-space counters, counted by the one engine that runs the DP.
//! These are counts only, so two runs over the same inputs and cache state
//! report equal snapshots. Time lives in the trace: the `select.run`,
//! `select.combine` and `model.accel` spans (the last tagged with its
//! `region`, `function#vN:{bb|ctrl-flow}`) under `CAYMAN_TRACE` or
//! `CAYMAN_OBS_SUMMARY`.

use cayman_analysis::wpst::WpstNodeId;
use cayman_ir::{FuncId, Module};
use std::fmt;

/// A snapshot of one selection run's statistics, carried on
/// [`crate::SelectionResult`] and printed by the bench binaries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SelectStats {
    /// wPST vertices visited (not pruned).
    pub visited: usize,
    /// wPST vertices pruned by the hotspot threshold (subtrees skipped).
    pub pruned: usize,
    /// Accelerator configurations that entered the DP (cached or fresh).
    pub configs_considered: usize,
    /// Accelerator configurations actually produced by a model invocation
    /// (cache misses; equals `configs_considered` when running uncached).
    pub configs_evaluated: usize,
    /// Design-cache hits (`accel(v)` answered from memoised designs).
    pub cache_hits: u64,
    /// The part of `cache_hits` answered by the design cache's backing
    /// store rather than its memory.
    pub disk_hits: u64,
    /// Design-cache misses (model invoked, result memoised).
    pub cache_misses: u64,
    /// Function-subtree fronts answered from the caller's front table.
    pub front_hits: u64,
    /// Function-subtree fronts folded for keys the front table missed (and
    /// then inserted into it).
    pub front_misses: u64,
}

impl SelectStats {
    /// Cache hit rate in `[0, 1]`; `0` when the run made no cacheable
    /// `accel` calls.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

impl fmt::Display for SelectStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "visited {} (pruned {}), configs {} ({} modeled), cache {}/{} hit ({:.0}%)",
            self.visited,
            self.pruned,
            self.configs_considered,
            self.configs_evaluated,
            self.cache_hits,
            self.cache_hits + self.cache_misses,
            self.cache_hit_rate() * 100.0,
        )
    }
}

/// `function#vN:kind`: the `region` argument of a `model.accel` trace span,
/// naming the vertex whose candidate was modelled and its region kind.
pub(crate) fn accel_label(module: &Module, func: FuncId, node: WpstNodeId, is_bb: bool) -> String {
    format!(
        "{}#v{}:{}",
        module.function(func).name,
        node.index(),
        if is_bb { "bb" } else { "ctrl-flow" }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_empty_and_mixed() {
        let mut s = SelectStats::default();
        assert_eq!(s.cache_hit_rate(), 0.0);
        s.cache_hits = 3;
        s.cache_misses = 1;
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-12);
        // the Display line mentions the key numbers
        s.visited = 5;
        let line = s.to_string();
        assert!(line.contains("visited 5"), "{line}");
        assert!(line.contains("75%"), "{line}");
    }
}
