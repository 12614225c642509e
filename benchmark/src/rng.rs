//! Seeded randomness. Every input a workload draws (kernel order, kernel
//! draws, edit sites and values, arrival times) comes from a stream derived
//! from `--seed`, so one seed always yields the same inputs.

/// SplitMix64: tiny, fast, and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream: `lane` separates the draws of different
    /// threads or purposes under one seed.
    pub fn stream(seed: u64, lane: u64) -> Rng {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2^-50 here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Arrival offsets in seconds of a Poisson process at `rate` per second,
/// up to `horizon` seconds.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, horizon: f64) -> Vec<f64> {
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= horizon {
            return out;
        }
        out.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_per_lane() {
        let draw = |seed, lane| {
            let mut r = Rng::stream(seed, lane);
            (0..64).map(|_| r.below(132)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        assert_ne!(draw(7, 1), draw(8, 1));
    }

    #[test]
    fn poisson_schedule_repeats_exactly_and_has_the_rate() {
        let a = poisson_schedule(&mut Rng::stream(42, 3), 1500.0, 10.0);
        let b = poisson_schedule(&mut Rng::stream(42, 3), 1500.0, 10.0);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        // 15000 expected arrivals; a Poisson count's sd is ~122.
        assert!((14_400..15_600).contains(&a.len()), "{}", a.len());
        let c = poisson_schedule(&mut Rng::stream(43, 3), 1500.0, 10.0);
        assert_ne!(a.len(), c.len());
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<usize> = (0..132).collect();
        let mut b = a.clone();
        Rng::stream(5, 0).shuffle(&mut a);
        Rng::stream(5, 0).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..132).collect::<Vec<_>>());
        assert_ne!(a, sorted);
    }
}
