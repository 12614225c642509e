//! Percentiles and quartiles.
//!
//! Latencies are reported as nearest-rank percentiles, and a percentile is
//! only reported when at least [`MIN_BEYOND`] samples lie beyond it.
//! Run-to-run spreads use the quartiles Python's
//! `statistics.quantiles(values, n=4)` gives, so `compare` agrees with a
//! Python script over the same results files.

/// Samples a reported percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` in `(0, 1]` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of ascending `sorted` (non-empty).
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank position of `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Whether `n` samples support reporting percentile `p`.
pub fn tail_supported(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// Median and p99 of a latency sample, in the samples' unit.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
}

impl Latency {
    /// Summarises `samples` (sorted in place). `None` when empty.
    pub fn of(samples: &mut [f64]) -> Option<Latency> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(f64::total_cmp);
        Some(Latency {
            n: samples.len(),
            p50: nearest_rank(samples, 0.5),
            p99: nearest_rank(samples, 0.99),
        })
    }
}

/// `(q1, median, q3)` by Python's default (exclusive) method; at least two
/// values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Median of a non-empty slice (the middle pair's mean for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    if n % 2 == 1 {
        d[n / 2]
    } else {
        (d[n / 2 - 1] + d[n / 2]) / 2.0
    }
}

/// Ratio guarded against an empty denominator (layers a workload never
/// calls report 0).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_covering_sample() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50.0);
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(nearest_rank(&v, 1.0), 100.0);
        assert_eq!(nearest_rank(&[3.0], 0.99), 3.0);
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 3.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(5000, 0.99));
        assert_eq!(beyond(5000, 0.99), 50);
        assert!(tail_supported(20, 0.5));
        assert!(!tail_supported(19, 0.5));
        assert_eq!(beyond(0, 0.99), 0);
    }

    #[test]
    fn latency_summary_sorts_and_counts() {
        let mut v: Vec<f64> = (0..2000).rev().map(f64::from).collect();
        let l = Latency::of(&mut v).unwrap();
        assert_eq!(l.n, 2000);
        assert_eq!(l.p50, 999.0);
        assert_eq!(l.p99, 1979.0);
        assert!(Latency::of(&mut []).is_none());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
    }
}
