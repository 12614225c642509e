//! Observability for Algorithm 1: per-phase wall time, design-cache
//! effectiveness, and search-space counters, counted by the one engine that
//! runs the DP. Timing numbers come from `cayman-obs`
//! [`TimedSpan`](cayman_obs::TimedSpan)s — the snapshot here is a *view over
//! the same recorder* that feeds the Chrome trace, not a parallel
//! measurement mechanism.

use cayman_analysis::wpst::WpstNodeId;
use cayman_ir::{FuncId, Module};
use std::fmt;

/// How many of the most expensive `accel(v, R)` model invocations a
/// [`SelectStats`] snapshot keeps.
pub const TOP_ACCEL_K: usize = 8;

/// One recorded `accel(v, R)` model invocation (a design-cache miss — cache
/// hits cost nothing and are not recorded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccelCallStat {
    /// `function#vN:kind` — the vertex whose candidate was modeled, with
    /// the region kind (`bb` / `ctrl-flow`), matching the `model.accel`
    /// trace span's `region` argument.
    pub label: String,
    /// Nanoseconds spent inside the model for this call.
    pub nanos: u64,
    /// Number of designs the call produced.
    pub designs: usize,
}

/// A snapshot of one selection run's statistics, carried on
/// [`crate::SelectionResult`] and printed by the bench binaries.
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// Nanoseconds spent inside the accelerator model.
    pub model_nanos: u64,
    /// Nanoseconds spent in Pareto combine/filter.
    pub combine_nanos: u64,
    /// End-to-end wall-clock nanoseconds of the selection run.
    pub wall_nanos: u64,
    /// The up-to-[`TOP_ACCEL_K`] most expensive `accel(v, R)` model
    /// invocations, most expensive first.
    pub top_accel: Vec<AccelCallStat>,
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

    /// Seconds spent in the accelerator model.
    pub fn model_seconds(&self) -> f64 {
        self.model_nanos as f64 * 1e-9
    }

    /// The top-k `accel(v, R)` breakdown as printable lines, most expensive
    /// first. Empty when the run was fully memoised (no model invocations).
    pub fn top_accel_lines(&self) -> Vec<String> {
        self.top_accel
            .iter()
            .map(|c| {
                format!(
                    "{:<32} {:>9.3} ms {:>4} designs",
                    c.label,
                    c.nanos as f64 * 1e-6,
                    c.designs
                )
            })
            .collect()
    }
}

impl fmt::Display for SelectStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "visited {} (pruned {}), configs {} ({} modeled), cache {}/{} hit ({:.0}%), \
             model {:.2}ms + combine {:.2}ms, wall {:.2}ms",
            self.visited,
            self.pruned,
            self.configs_considered,
            self.configs_evaluated,
            self.cache_hits,
            self.cache_hits + self.cache_misses,
            self.cache_hit_rate() * 100.0,
            self.model_seconds() * 1e3,
            self.combine_nanos as f64 * 1e-6,
            self.wall_nanos as f64 * 1e-6,
        )
    }
}

/// One model invocation as a run records it: the vertex and region kind,
/// not the label, which is rendered only for the calls a snapshot keeps.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AccelCall {
    pub func: FuncId,
    pub node: WpstNodeId,
    pub is_bb: bool,
    pub nanos: u64,
    pub designs: usize,
}

/// `function#vN:kind`: the label of a model invocation, shared by the
/// `model.accel` trace span and the top-k breakdown.
pub(crate) fn accel_label(module: &Module, func: FuncId, node: WpstNodeId, is_bb: bool) -> String {
    format!(
        "{}#v{}:{}",
        module.function(func).name,
        node.index(),
        if is_bb { "bb" } else { "ctrl-flow" }
    )
}

/// The per-run accumulator behind [`SelectStats`]: plain counters, owned
/// by the engine that runs the DP.
#[derive(Debug, Default)]
pub(crate) struct RunStats {
    pub visited: usize,
    pub pruned: usize,
    pub configs_considered: usize,
    pub configs_evaluated: usize,
    pub mem_hits: u64,
    pub disk_hits: u64,
    pub cache_misses: u64,
    pub front_hits: u64,
    pub front_misses: u64,
    pub model_nanos: u64,
    pub combine_nanos: u64,
    /// Candidates for the top-k `accel` breakdown. Pushes append; past
    /// `4 × TOP_ACCEL_K` the pool is sorted by [`costlier`] and cut back to
    /// `TOP_ACCEL_K`, which bounds its memory and keeps the exact top-k.
    top_accel: Vec<AccelCall>,
}

/// The top-k order: most expensive first, the vertex as tiebreak.
fn costlier(a: &AccelCall, b: &AccelCall) -> std::cmp::Ordering {
    b.nanos
        .cmp(&a.nanos)
        .then_with(|| (a.func, a.node, a.is_bb).cmp(&(b.func, b.node, b.is_bb)))
}

impl RunStats {
    /// Records one `accel(v, R)` model invocation for the top-k breakdown.
    pub fn record_accel(&mut self, call: AccelCall) {
        self.top_accel.push(call);
        if self.top_accel.len() > 4 * TOP_ACCEL_K {
            self.keep_top();
        }
    }

    /// Sorts the pool by [`costlier`] and keeps its first `TOP_ACCEL_K`.
    fn keep_top(&mut self) {
        self.top_accel.sort_unstable_by(costlier);
        self.top_accel.truncate(TOP_ACCEL_K);
    }

    /// Freezes the accumulator into a snapshot, labelling the kept model
    /// invocations with `module`'s function names.
    pub fn snapshot(&mut self, module: &Module, wall_nanos: u64) -> SelectStats {
        self.keep_top();
        let top_accel = self
            .top_accel
            .iter()
            .map(|c| AccelCallStat {
                label: accel_label(module, c.func, c.node, c.is_bb),
                nanos: c.nanos,
                designs: c.designs,
            })
            .collect();
        SelectStats {
            visited: self.visited,
            pruned: self.pruned,
            configs_considered: self.configs_considered,
            configs_evaluated: self.configs_evaluated,
            cache_hits: self.mem_hits + self.disk_hits,
            disk_hits: self.disk_hits,
            cache_misses: self.cache_misses,
            front_hits: self.front_hits,
            front_misses: self.front_misses,
            model_nanos: self.model_nanos,
            combine_nanos: self.combine_nanos,
            wall_nanos,
            top_accel,
        }
    }
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
    }

    /// A module with functions `f` and `hot`, for labels.
    fn two_functions() -> Module {
        let mut mb = cayman_ir::builder::ModuleBuilder::new("t");
        for name in ["f", "hot"] {
            mb.function(name, &[], None, |fb| fb.ret(None));
        }
        mb.finish()
    }

    fn call(func: u32, node: usize, nanos: u64, designs: usize) -> AccelCall {
        AccelCall {
            func: FuncId(func),
            node: WpstNodeId(node as u32),
            is_bb: node.is_multiple_of(2),
            nanos,
            designs,
        }
    }

    #[test]
    fn snapshot_carries_all_counters() {
        let mut a = RunStats {
            visited: 5,
            pruned: 2,
            configs_considered: 10,
            configs_evaluated: 7,
            mem_hits: 3,
            disk_hits: 1,
            cache_misses: 6,
            front_hits: 2,
            front_misses: 1,
            model_nanos: 1_000,
            combine_nanos: 2_000,
            ..RunStats::default()
        };
        let s = a.snapshot(&two_functions(), 5_000);
        assert_eq!(s.visited, 5);
        assert_eq!(s.pruned, 2);
        assert_eq!(s.configs_considered, 10);
        assert_eq!(s.configs_evaluated, 7);
        assert_eq!(s.cache_hits, 4, "memory and store hits");
        assert_eq!(s.disk_hits, 1);
        assert_eq!(s.cache_misses, 6);
        assert_eq!((s.front_hits, s.front_misses), (2, 1));
        assert_eq!((s.model_nanos, s.combine_nanos), (1_000, 2_000));
        assert_eq!(s.wall_nanos, 5_000);
        // the Display line mentions the key numbers
        let line = s.to_string();
        assert!(line.contains("visited 5"), "{line}");
        assert!(line.contains("40%"), "{line}");
    }

    #[test]
    fn keeps_exact_top_k_under_overflow() {
        let mut a = RunStats::default();
        for i in 0..100u64 {
            // Insertion order scrambled so truncation sees mixed costs; two
            // vertices per cost, so the tiebreak decides between them.
            let cost = (i * 37) % 50;
            a.record_accel(call(0, i as usize, cost, 0));
            assert!(a.top_accel.len() <= 4 * TOP_ACCEL_K, "bounded");
        }
        let s = a.snapshot(&two_functions(), 1);
        let kept: Vec<(u64, &str)> = s
            .top_accel
            .iter()
            .map(|c| (c.nanos, c.label.as_str()))
            .collect();
        // Cost 49 is vertices 27 and 77, 48 is 4 and 54, 47 is 31 and 81,
        // 46 is 8 and 58: the lower vertex first within a cost.
        assert_eq!(
            kept,
            vec![
                (49, "f#v27:ctrl-flow"),
                (49, "f#v77:ctrl-flow"),
                (48, "f#v4:bb"),
                (48, "f#v54:bb"),
                (47, "f#v31:ctrl-flow"),
                (47, "f#v81:ctrl-flow"),
                (46, "f#v8:bb"),
                (46, "f#v58:bb"),
            ]
        );
    }

    #[test]
    fn top_accel_is_sorted_bounded_and_deterministic() {
        let mut a = RunStats::default();
        // Overflow the pool to exercise the bounded-truncate path.
        for i in 0..(4 * TOP_ACCEL_K + 10) {
            a.record_accel(call(0, i, (i as u64 % 37) * 1000, i));
        }
        a.record_accel(call(1, 0, 1_000_000, 3));
        let s = a.snapshot(&two_functions(), 1);
        assert_eq!(s.top_accel.len(), TOP_ACCEL_K);
        assert_eq!(s.top_accel[0].label, "hot#v0:bb");
        assert!(s.top_accel[1].label.starts_with("f#v"), "{:?}", s.top_accel);
        assert_eq!(s.top_accel[0].designs, 3);
        for w in s.top_accel.windows(2) {
            assert!(w[0].nanos >= w[1].nanos, "descending cost order");
        }
        let lines = s.top_accel_lines();
        assert_eq!(lines.len(), TOP_ACCEL_K);
        assert!(lines[0].contains("hot#v0"), "{}", lines[0]);
        assert!(lines[0].contains("designs"), "{}", lines[0]);
    }
}
