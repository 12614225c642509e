//! Observability for Algorithm 1: per-phase wall time, design-cache
//! effectiveness, and search-space counters, collected lock-free so the
//! work-stealing engine can update them from every worker thread. Timing numbers
//! come from `cayman-obs` [`TimedSpan`](cayman_obs::TimedSpan)s — the
//! snapshot here is a *view over the same recorder* that feeds the Chrome
//! trace, not a parallel measurement mechanism.

use cayman_obs::pool::TopPool;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

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
    /// Nanoseconds spent inside the accelerator model, summed over threads.
    pub model_nanos: u64,
    /// Nanoseconds spent in Pareto combine/filter, summed over threads.
    pub combine_nanos: u64,
    /// End-to-end wall-clock nanoseconds of the selection run.
    pub wall_nanos: u64,
    /// The `threads` knob the run used.
    pub threads: usize,
    /// The up-to-[`TOP_ACCEL_K`] most expensive `accel(v, R)` model
    /// invocations, most expensive first.
    pub top_accel: Vec<AccelCallStat>,
    /// Which engine ran the DP: `"seq"` (the recursive reference) or
    /// `"steal"` (work stealing); empty on hand-built snapshots.
    pub scheduler: &'static str,
    /// Per-worker busy CPU nanoseconds, largest first, one entry per
    /// work-stealing worker thread; empty for sequential runs.
    pub worker_busy_nanos: Vec<u64>,
    /// CPU nanoseconds of the most expensive single task the work-stealing
    /// scheduler executed (a model call, or a fold cascade reaching the
    /// root); `0` for sequential runs. An indivisible-work floor for the
    /// modeled makespan.
    pub max_task_nanos: u64,
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

    /// Wall-clock seconds of the whole run.
    pub fn wall_seconds(&self) -> f64 {
        self.wall_nanos as f64 * 1e-9
    }

    /// Seconds spent in the accelerator model (CPU time summed over
    /// threads, so this can exceed [`wall_seconds`](Self::wall_seconds) when
    /// `threads > 1`).
    pub fn model_seconds(&self) -> f64 {
        self.model_nanos as f64 * 1e-9
    }

    /// Seconds spent combining/filtering Pareto sequences (summed over
    /// threads).
    pub fn combine_seconds(&self) -> f64 {
        self.combine_nanos as f64 * 1e-9
    }

    /// Total worker CPU seconds — the parallelisable work the scheduler
    /// distributes. `0` for sequential runs (no workers were spawned).
    pub fn busy_seconds(&self) -> f64 {
        self.worker_busy_nanos.iter().sum::<u64>() as f64 * 1e-9
    }

    /// Modeled makespan in seconds: how long the run would take on a host
    /// with at least `threads` free cores. `0` for sequential runs.
    ///
    /// The per-worker split measured on an oversubscribed host is an
    /// artefact of OS scheduling — one worker can drain every queue before
    /// the others are even dispatched — so the greedy-scheduling bound
    /// `max(total work / workers, most expensive single task)` is used
    /// instead. Both terms are measured CPU time, and the bound never
    /// exceeds the busiest worker.
    pub fn makespan_seconds(&self) -> f64 {
        let n = self.worker_busy_nanos.len();
        if n == 0 {
            return 0.0;
        }
        let ideal = self.busy_seconds() / n as f64;
        ideal.max(self.max_task_nanos as f64 * 1e-9)
    }

    /// Load balance in `(0, 1]`: total busy time over `workers × busiest
    /// worker`. `1.0` means every worker carried the same load (and for runs
    /// with no workers, where there is nothing to balance).
    pub fn load_balance(&self) -> f64 {
        let n = self.worker_busy_nanos.len();
        if n == 0 || self.worker_busy_nanos[0] == 0 {
            return 1.0;
        }
        self.busy_seconds() / (n as f64 * self.makespan_seconds())
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
             model {:.2}ms + combine {:.2}ms, wall {:.2}ms on {} thread(s)",
            self.visited,
            self.pruned,
            self.configs_considered,
            self.configs_evaluated,
            self.cache_hits,
            self.cache_hits + self.cache_misses,
            self.cache_hit_rate() * 100.0,
            self.model_seconds() * 1e3,
            self.combine_seconds() * 1e3,
            self.wall_seconds() * 1e3,
            self.threads.max(1),
        )?;
        if !self.scheduler.is_empty() {
            write!(f, " [{}]", self.scheduler)?;
        }
        if !self.worker_busy_nanos.is_empty() {
            write!(f, ", balance {:.2}", self.load_balance())?;
        }
        Ok(())
    }
}

/// The live, thread-shared accumulator behind [`SelectStats`]. All updates
/// are relaxed atomics: counters are independent, and the final snapshot
/// happens after every worker has joined (scoped threads), so no ordering
/// stronger than `Relaxed` is needed.
#[derive(Debug)]
pub(crate) struct AtomicStats {
    pub visited: AtomicUsize,
    pub pruned: AtomicUsize,
    pub configs_considered: AtomicUsize,
    pub configs_evaluated: AtomicUsize,
    pub mem_hits: AtomicU64,
    pub disk_hits: AtomicU64,
    pub cache_misses: AtomicU64,
    pub front_hits: AtomicU64,
    pub front_misses: AtomicU64,
    pub model_nanos: AtomicU64,
    pub combine_nanos: AtomicU64,
    /// Candidate pool for the top-k `accel` breakdown (most expensive
    /// first, label as tiebreak). Bounded by the pool itself: model
    /// invocations are orders of magnitude more expensive than the push, so
    /// contention is negligible.
    top_accel: TopPool<AccelCallStat>,
    /// One busy-CPU-nanoseconds entry per worker (pushed once at worker
    /// exit, so contention is a non-issue).
    worker_busy: Mutex<Vec<u64>>,
    /// CPU nanoseconds of the most expensive single scheduler task seen so
    /// far (work-stealing runs only).
    max_task: AtomicU64,
}

impl Default for AtomicStats {
    fn default() -> Self {
        AtomicStats {
            visited: AtomicUsize::new(0),
            pruned: AtomicUsize::new(0),
            configs_considered: AtomicUsize::new(0),
            configs_evaluated: AtomicUsize::new(0),
            mem_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            front_hits: AtomicU64::new(0),
            front_misses: AtomicU64::new(0),
            model_nanos: AtomicU64::new(0),
            combine_nanos: AtomicU64::new(0),
            top_accel: TopPool::new(TOP_ACCEL_K, |a, b| {
                b.nanos.cmp(&a.nanos).then_with(|| a.label.cmp(&b.label))
            }),
            worker_busy: Mutex::new(Vec::new()),
            max_task: AtomicU64::new(0),
        }
    }
}

impl AtomicStats {
    pub fn add_usize(counter: &AtomicUsize, n: usize) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_u64(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one `accel(v, R)` model invocation for the top-k breakdown.
    pub fn record_accel(&self, label: String, nanos: u64, designs: usize) {
        self.top_accel.push(AccelCallStat {
            label,
            nanos,
            designs,
        });
    }

    /// Records one scheduler task's CPU time; keeps the maximum.
    pub fn record_task_nanos(&self, nanos: u64) {
        self.max_task.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Records one worker thread's busy CPU time, called as the worker
    /// exits.
    pub fn record_worker_busy(&self, nanos: u64) {
        self.worker_busy
            .lock()
            .expect("stats mutex poisoned")
            .push(nanos);
    }

    /// Freezes the accumulator into a snapshot.
    pub fn snapshot(
        &self,
        wall_nanos: u64,
        threads: usize,
        scheduler: &'static str,
    ) -> SelectStats {
        let top_accel = self.top_accel.snapshot();
        let mut worker_busy = self
            .worker_busy
            .lock()
            .expect("stats mutex poisoned")
            .clone();
        worker_busy.sort_unstable_by(|a, b| b.cmp(a));
        let disk_hits = self.disk_hits.load(Ordering::Relaxed);
        SelectStats {
            visited: self.visited.load(Ordering::Relaxed),
            pruned: self.pruned.load(Ordering::Relaxed),
            configs_considered: self.configs_considered.load(Ordering::Relaxed),
            configs_evaluated: self.configs_evaluated.load(Ordering::Relaxed),
            cache_hits: self.mem_hits.load(Ordering::Relaxed) + disk_hits,
            disk_hits,
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            front_hits: self.front_hits.load(Ordering::Relaxed),
            front_misses: self.front_misses.load(Ordering::Relaxed),
            model_nanos: self.model_nanos.load(Ordering::Relaxed),
            combine_nanos: self.combine_nanos.load(Ordering::Relaxed),
            wall_nanos,
            threads,
            top_accel,
            scheduler,
            worker_busy_nanos: worker_busy,
            max_task_nanos: self.max_task.load(Ordering::Relaxed),
        }
    }
}

/// CPU time consumed by the calling thread, in nanoseconds — now provided
/// by the shared observability substrate so busy accounting and trace
/// timestamps come from the same clock family.
pub(crate) use cayman_obs::thread_cpu_nanos;

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

    #[test]
    fn snapshot_carries_all_counters() {
        let a = AtomicStats::default();
        AtomicStats::add_usize(&a.visited, 5);
        AtomicStats::add_usize(&a.pruned, 2);
        AtomicStats::add_usize(&a.configs_considered, 10);
        AtomicStats::add_usize(&a.configs_evaluated, 7);
        AtomicStats::add_u64(&a.mem_hits, 3);
        AtomicStats::add_u64(&a.disk_hits, 1);
        AtomicStats::add_u64(&a.cache_misses, 6);
        AtomicStats::add_u64(&a.model_nanos, 1_000);
        AtomicStats::add_u64(&a.combine_nanos, 2_000);
        a.record_worker_busy(300);
        a.record_worker_busy(900);
        a.record_worker_busy(600);
        a.record_task_nanos(400);
        a.record_task_nanos(700);
        a.record_task_nanos(250);
        let s = a.snapshot(5_000, 4, "steal");
        assert_eq!(s.visited, 5);
        assert_eq!(s.pruned, 2);
        assert_eq!(s.configs_considered, 10);
        assert_eq!(s.configs_evaluated, 7);
        assert_eq!(s.cache_hits, 4, "memory and store hits");
        assert_eq!(s.disk_hits, 1);
        assert_eq!(s.cache_misses, 6);
        assert_eq!(s.wall_nanos, 5_000);
        assert_eq!(s.threads, 4);
        assert_eq!(s.scheduler, "steal");
        assert_eq!(s.worker_busy_nanos, vec![900, 600, 300], "sorted desc");
        assert_eq!(s.max_task_nanos, 700, "fetch_max keeps the largest task");
        assert!((s.busy_seconds() - 1_800e-9).abs() < 1e-15);
        // greedy bound = max(1800/3, 700) = 700ns
        assert!((s.makespan_seconds() - 700e-9).abs() < 1e-15);
        assert!((s.load_balance() - 1800.0 / (3.0 * 700.0)).abs() < 1e-12);
        // no dominant task: ideal split = 1800/3 = 600ns
        let mut even = s.clone();
        even.max_task_nanos = 0;
        assert!((even.makespan_seconds() - 600e-9).abs() < 1e-15);
        // the Display line mentions the key numbers
        let line = s.to_string();
        assert!(line.contains("visited 5"), "{line}");
        assert!(line.contains("40%"), "{line}");
        assert!(line.contains("[steal]"), "{line}");
        assert!(line.contains("balance"), "{line}");
    }

    #[test]
    fn busy_helpers_handle_no_workers() {
        let s = SelectStats::default();
        assert_eq!(s.busy_seconds(), 0.0);
        assert_eq!(s.makespan_seconds(), 0.0);
        assert_eq!(s.load_balance(), 1.0);
        assert!(!s.to_string().contains("balance"));
    }

    #[test]
    fn thread_cpu_clock_is_monotone_and_advances() {
        let a = thread_cpu_nanos();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(i ^ x.rotate_left(7));
        }
        std::hint::black_box(x);
        let b = thread_cpu_nanos();
        assert!(b > a, "spin consumed no CPU time ({a} → {b})");
    }

    #[test]
    fn top_accel_is_sorted_bounded_and_deterministic() {
        let a = AtomicStats::default();
        // Overflow the pool to exercise the bounded-truncate path.
        for i in 0..(4 * TOP_ACCEL_K + 10) {
            a.record_accel(format!("f#v{i}"), (i as u64 % 37) * 1000, i);
        }
        a.record_accel("hot#v0".into(), 1_000_000, 3);
        let s = a.snapshot(1, 1, "seq");
        assert_eq!(s.top_accel.len(), TOP_ACCEL_K);
        assert_eq!(s.top_accel[0].label, "hot#v0");
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
