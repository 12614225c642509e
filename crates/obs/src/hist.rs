//! Fixed-size, log-bucketed (HDR-style) latency histograms.
//!
//! A [`Histogram`] is a flat array of [`BUCKETS`] atomic counters covering
//! the whole `u64` range: values below [`LINEAR`] get one exact bucket each,
//! and every power-of-two octave above that is split into [`LINEAR`]
//! sub-buckets, so the relative error of any bucket is at most
//! `1 / LINEAR` (12.5%). The record path is **allocation-free and
//! lock-free** — one `fetch_add` on the bucket plus count/sum/min/max
//! updates — so it is safe on the server's per-request hot path (pinned by
//! the `zero_overhead` test).
//!
//! Unlike trace events ([`crate::span!`], [`crate::instant`]), histograms
//! are *always on*: they are cheap aggregates, not traces, and the metrics
//! surface must report real distributions whether or not span tracing is
//! enabled.
//!
//! [`Histogram::snapshot`] freezes the counters into a plain
//! [`HistSnapshot`], which is mergeable across threads/processes
//! ([`HistSnapshot::merge`]) and queryable for quantiles
//! ([`HistSnapshot::quantile`], `p50`/`p90`/`p99`). A merged snapshot's
//! quantiles land in the **same bucket** as the quantiles of the
//! concatenated underlying samples (property-tested), which is the precise
//! sense in which log-bucketed histograms are mergeable.

use std::sync::atomic::{AtomicU64, Ordering};

/// log2 of the number of sub-buckets per octave. 3 ⇒ 8 sub-buckets ⇒ worst
/// case relative bucket width 1/8 = 12.5%.
pub const SUB_BITS: u32 = 3;

/// Number of exact low buckets / sub-buckets per octave.
pub const LINEAR: usize = 1 << SUB_BITS;

/// Total bucket count: [`LINEAR`] exact buckets for `0..LINEAR`, then
/// [`LINEAR`] sub-buckets for each leading-bit position `SUB_BITS..=63`.
pub const BUCKETS: usize = LINEAR + (64 - SUB_BITS as usize) * LINEAR;

/// The bucket a value lands in. Total over `u64`, monotone in `value`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < LINEAR as u64 {
        return value as usize;
    }
    // Leading-bit position e >= SUB_BITS; the octave [2^e, 2^(e+1)) is cut
    // into LINEAR slices of width 2^(e - SUB_BITS).
    let e = 63 - value.leading_zeros();
    let sub = (value >> (e - SUB_BITS)) as usize & (LINEAR - 1);
    LINEAR + (e - SUB_BITS) as usize * LINEAR + sub
}

/// Inclusive `(lo, hi)` value range of bucket `index`.
///
/// # Panics
///
/// Panics when `index >= BUCKETS`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < BUCKETS, "bucket index {index} out of range");
    if index < LINEAR {
        return (index as u64, index as u64);
    }
    let e = SUB_BITS + ((index - LINEAR) / LINEAR) as u32;
    let sub = ((index - LINEAR) % LINEAR) as u64;
    let width = 1u64 << (e - SUB_BITS);
    let lo = (1u64 << e) + sub * width;
    (lo, lo + (width - 1))
}

/// A thread-safe log-bucketed histogram. All-atomic, fixed-size; see the
/// module docs for the bucketing scheme and cost model.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram. `const` so histograms can live in `static`s.
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation. Lock-free, allocation-free: five relaxed
    /// atomic RMWs and no branches beyond the bucket pick.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Freezes the counters into a mergeable, queryable snapshot. Not a
    /// single atomic cut across buckets — concurrent `record`s may be
    /// half-visible — but every counter is individually consistent, which
    /// is all a metrics scrape needs.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            counts: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Zeroes every counter (tests and bench resets; production histograms
    /// are cumulative).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// One non-empty bucket of a [`HistSnapshot`], for exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bucket {
    /// Smallest value the bucket holds.
    pub lo: u64,
    /// Largest value the bucket holds (inclusive).
    pub hi: u64,
    /// Observations in `[lo, hi]`.
    pub count: u64,
}

/// A frozen histogram: plain counters, mergeable and queryable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistSnapshot {
    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values (wrapping only past `u64::MAX` total).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observed value, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observed value (exact, not bucketed), or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Adds `other`'s observations into `self`. Merging snapshots is
    /// exactly equivalent to having recorded both snapshots' samples into
    /// one histogram: bucket counts, count, sum, min and max all add up
    /// losslessly.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The estimated `q`-quantile (`0.0 ..= 1.0`): the inclusive upper
    /// bound of the bucket holding the true sample quantile, clamped to the
    /// exact observed maximum. The estimate therefore lands in the same
    /// bucket as the true quantile — within one bucket's relative error
    /// (≤ 1/[`LINEAR`]). Returns 0 on an empty snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // rank in 1..=count: smallest k with cumulative >= k
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// The non-empty buckets in increasing value order.
    pub fn buckets(&self) -> impl Iterator<Item = Bucket> + '_ {
        self.counts.iter().enumerate().filter_map(|(i, &count)| {
            if count == 0 {
                return None;
            }
            let (lo, hi) = bucket_bounds(i);
            Some(Bucket { lo, hi, count })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_u64_range() {
        // every bucket's hi + 1 is the next bucket's lo, starting at 0
        let mut expect_lo = 0u64;
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expect_lo, "bucket {i} lo");
            assert!(hi >= lo);
            assert_eq!(bucket_index(lo), i, "lo maps back to bucket {i}");
            assert_eq!(bucket_index(hi), i, "hi maps back to bucket {i}");
            if hi == u64::MAX {
                assert_eq!(i, BUCKETS - 1, "only the last bucket ends at MAX");
                return;
            }
            expect_lo = hi + 1;
        }
        panic!("last bucket must end at u64::MAX");
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        for i in LINEAR..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            let width = hi - lo + 1;
            assert!(
                width <= lo / LINEAR as u64,
                "bucket {i}: width {width} exceeds lo/{LINEAR} = {}",
                lo / LINEAR as u64
            );
        }
    }

    #[test]
    fn record_and_quantiles_exact_small_values() {
        let h = Histogram::new();
        for v in 0..8u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 8);
        assert_eq!(s.sum(), 28);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 7);
        // values below LINEAR are bucketed exactly
        assert_eq!(s.p50(), 3);
        assert_eq!(s.quantile(1.0), 7);
        assert_eq!(s.quantile(0.0), 0);
    }

    #[test]
    fn empty_snapshot_is_all_zeroes() {
        let s = Histogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!((s.p50(), s.p99(), s.min(), s.max()), (0, 0, 0, 0));
        assert_eq!(s.buckets().count(), 0);
    }

    #[test]
    fn merge_adds_losslessly() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [1u64, 10, 100, 1_000] {
            a.record(v);
        }
        for v in [5u64, 50_000, u64::MAX] {
            b.record(v);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 7);
        assert_eq!(m.min(), 1);
        assert_eq!(m.max(), u64::MAX);
        let both = Histogram::new();
        for v in [1u64, 10, 100, 1_000, 5, 50_000, u64::MAX] {
            both.record(v);
        }
        assert_eq!(m, both.snapshot(), "merge == record-all-into-one");
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000_000 + i);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count(), 40_000);
        assert_eq!(s.counts.iter().sum::<u64>(), 40_000);
    }

    #[test]
    fn quantile_lands_in_true_quantile_bucket() {
        let h = Histogram::new();
        let mut samples: Vec<u64> = (0..500u64).map(|i| i * i * 37 + 13).collect();
        for &v in &samples {
            h.record(v);
        }
        samples.sort_unstable();
        let s = h.snapshot();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize).max(1) - 1;
            let truth = samples[rank];
            let est = s.quantile(q);
            assert_eq!(
                bucket_index(est),
                bucket_index(truth),
                "q={q}: estimate {est} not in true quantile {truth}'s bucket"
            );
        }
    }
}
