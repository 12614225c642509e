//! # cayman-testkit
//!
//! A dependency-free test kit so the whole workspace builds and tests with
//! **zero network access**: a deterministic [`Rng`] (splitmix64) replacing
//! `rand`, and a minimal property-test harness ([`prop_check!`]) replacing
//! `proptest`.
//!
//! The harness runs a fixed number of deterministic cases per property; on
//! failure it reports the case index and the 64-bit seed that reproduces it,
//! so a failing case can be replayed with [`Rng::new`] in a scratch test.
//!
//! ## Shrinking
//!
//! On failure the harness additionally *shrinks*: it replays the failing
//! seed with the generator's draw ranges narrowed toward their lower bounds
//! ([`Rng::with_shrink`]), from most to least aggressive factor, and reports
//! the smallest case that still fails alongside the original. Generators get
//! this for free when they put the "simpler" end of every range at `lo` and
//! the simpler variants first in [`Rng::choose`] slices — sizes shrink,
//! optional features (drawn via [`Rng::bool`]) drop out.
//!
//! ```
//! use cayman_testkit::{prop_check, prop_assert, prop_assert_eq};
//!
//! prop_check!(cases = 64, |rng| {
//!     let a = rng.range_i64(-100, 100);
//!     let b = rng.range_i64(-100, 100);
//!     prop_assert_eq!(a + b, b + a);
//!     prop_assert!((a + b) - b == a, "round trip failed for a={a} b={b}");
//!     Ok(())
//! });
//! ```

#![forbid(unsafe_code)]

pub mod program;
pub mod tree;

use std::fmt::Write as _;

/// Default number of cases [`prop_check!`] runs when none is given.
pub const DEFAULT_CASES: u64 = 96;

/// A splitmix64 pseudo-random generator: tiny, fast, and statistically solid
/// for test-data generation. Deterministic for a given seed on every
/// platform.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
    /// Shrink factor in `[0, 1]`: `0.0` draws from full ranges, larger
    /// values narrow every `range_*` toward its lower bound and bias
    /// [`Rng::bool`] toward `false`.
    shrink: f64,
}

impl Rng {
    /// Creates a generator from a seed (no shrinking).
    pub fn new(seed: u64) -> Self {
        Rng::with_shrink(seed, 0.0)
    }

    /// Creates a generator whose draws are shrunk by `shrink`: every
    /// `range_*(lo, hi)` keeps only the lowest `1 - shrink` fraction of its
    /// span (at least one value), and [`Rng::bool`] returns `true` with
    /// probability `(1 - shrink) / 2`. `with_shrink(seed, 0.0)` is exactly
    /// [`Rng::new`]`(seed)`, draw for draw.
    ///
    /// # Panics
    ///
    /// Panics if `shrink` is not in `[0, 1]`.
    pub fn with_shrink(seed: u64, shrink: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&shrink),
            "shrink factor {shrink} outside [0, 1]"
        );
        Rng {
            state: seed,
            shrink,
        }
    }

    /// The shrink factor this generator was built with.
    pub fn shrink_factor(&self) -> f64 {
        self.shrink
    }

    /// The next raw 64-bit value (the splitmix64 step).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The next 32-bit value.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform `f64` in `[0, 1)` (53 random mantissa bits).
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.f64() * (hi - lo) * (1.0 - self.shrink)
    }

    /// A uniform `i64` in `[lo, hi)`; under shrinking, in the lowest
    /// `1 - shrink` fraction of that range.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let mut span = hi.wrapping_sub(lo) as u64;
        if self.shrink > 0.0 {
            span = ((span as f64 * (1.0 - self.shrink)).ceil() as u64).clamp(1, span);
        }
        lo.wrapping_add((self.next_u64() % span) as i64)
    }

    /// A uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_i64(lo as i64, hi as i64) as usize
    }

    /// A uniform `u32` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.range_i64(lo as i64, hi as i64) as u32
    }

    /// A fair coin flip; under shrinking, biased toward `false` (so
    /// bool-gated generator features drop out of shrunk cases).
    pub fn bool(&mut self) -> bool {
        if self.shrink > 0.0 {
            self.f64() < 0.5 * (1.0 - self.shrink)
        } else {
            self.next_u64() & 1 == 1
        }
    }

    /// A uniformly chosen element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.range_usize(0, items.len())]
    }
}

/// Derives the per-case seed for `prop_check!` from a property name and case
/// index. Exposed so a failing case can be replayed exactly.
pub fn case_seed(name: &str, case: u64) -> u64 {
    // FNV-1a over the name, mixed with the case index through one splitmix
    // step for avalanche.
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    Rng::new(h ^ case.wrapping_mul(0x2545_F491_4F6C_DD1D)).next_u64()
}

/// The shrink factors `run_prop` tries on a failing seed, most aggressive
/// first; the first that still fails is reported as the minimal case.
pub const SHRINK_FACTORS: [f64; 3] = [0.75, 0.5, 0.25];

/// Extracts a displayable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => match p.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "<non-string panic>".to_string(),
        },
    }
}

/// Replays `property` on `seed` at each [`SHRINK_FACTORS`] entry (most
/// aggressive narrowing first) and returns the first factor that still
/// fails, with its failure message. Panics inside the property count as
/// failures: a shrunk case may trip a different assertion than the original.
fn shrink_failure<F>(seed: u64, property: &mut F) -> Option<(f64, String)>
where
    F: FnMut(&mut Rng) -> Result<(), String>,
{
    for &factor in &SHRINK_FACTORS {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            property(&mut Rng::with_shrink(seed, factor))
        }));
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(msg)) => return Some((factor, msg)),
            Err(payload) => return Some((factor, panic_message(payload))),
        }
    }
    None
}

/// Runs `cases` deterministic cases of `property`, panicking with a
/// seed-report on the first failure. Before reporting, the failing seed is
/// replayed at the [`SHRINK_FACTORS`] to find a smaller case that still
/// fails (see the module docs on shrinking). Prefer the [`prop_check!`]
/// macro, which fills in the enclosing test's name.
///
/// # Panics
///
/// Panics when the property returns `Err` for any case.
pub fn run_prop<F>(name: &str, cases: u64, mut property: F)
where
    F: FnMut(&mut Rng) -> Result<(), String>,
{
    for case in 0..cases {
        let seed = case_seed(name, case);
        let mut rng = Rng::new(seed);
        if let Err(msg) = property(&mut rng) {
            let mut report = String::new();
            let _ = write!(
                report,
                "property `{name}` failed at case {case}/{cases} (seed {seed:#018x}):\n  {msg}\n"
            );
            match shrink_failure(seed, &mut property) {
                Some((factor, small)) => {
                    let _ = write!(
                        report,
                        "minimal case (shrink factor {factor}):\n  {small}\n\
                         replay with `Rng::with_shrink({seed:#018x}, {factor:?})` \
                         (unshrunk: `Rng::new({seed:#018x})`)"
                    );
                }
                None => {
                    let _ = write!(report, "replay with `Rng::new({seed:#018x})`");
                }
            }
            panic!("{report}");
        }
    }
}

/// Runs a property over `cases` deterministic random cases.
///
/// The closure receives `&mut Rng` and returns `Result<(), String>`; use
/// [`prop_assert!`] / [`prop_assert_eq!`] inside it. On failure the case
/// index and seed are reported.
#[macro_export]
macro_rules! prop_check {
    (cases = $cases:expr, |$rng:ident| $body:block) => {{
        // `concat!(file!(), ...)` keeps seeds stable across runs but distinct
        // across properties.
        let name = concat!(file!(), ":", line!(), ":", column!());
        $crate::run_prop(name, $cases, |$rng: &mut $crate::Rng| $body);
    }};
    (|$rng:ident| $body:block) => {
        $crate::prop_check!(cases = $crate::DEFAULT_CASES, |$rng| $body)
    };
}

/// `assert!` for [`prop_check!`] bodies: returns `Err` with a formatted
/// message instead of panicking, so the harness can attach the seed report.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// `assert_eq!` for [`prop_check!`] bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_matches_reference() {
        // Reference values for splitmix64 with seed 1234567
        // (from the public-domain reference implementation).
        let mut rng = Rng::new(1234567);
        let a = rng.next_u64();
        let b = rng.next_u64();
        let mut rng2 = Rng::new(1234567);
        assert_eq!(a, rng2.next_u64());
        assert_eq!(b, rng2.next_u64());
        assert_ne!(a, b);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Rng::new(42);
        for _ in 0..10_000 {
            let f = rng.range_f64(-2.5, 7.5);
            assert!((-2.5..7.5).contains(&f));
            let i = rng.range_i64(-100, 100);
            assert!((-100..100).contains(&i));
            let u = rng.range_usize(3, 17);
            assert!((3..17).contains(&u));
        }
    }

    #[test]
    fn unit_interval_is_roughly_uniform() {
        let mut rng = Rng::new(7);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn choose_covers_all_items() {
        let mut rng = Rng::new(9);
        let items = [1, 2, 3, 4];
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[*rng.choose(&items) as usize - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn case_seeds_differ_across_cases_and_names() {
        assert_ne!(case_seed("a", 0), case_seed("a", 1));
        assert_ne!(case_seed("a", 0), case_seed("b", 0));
        assert_eq!(case_seed("a", 3), case_seed("a", 3));
    }

    #[test]
    fn shrink_zero_matches_plain_rng_draw_for_draw() {
        let mut a = Rng::new(5);
        let mut b = Rng::with_shrink(5, 0.0);
        for _ in 0..200 {
            assert_eq!(a.range_i64(-50, 50), b.range_i64(-50, 50));
            assert_eq!(a.bool(), b.bool());
            assert_eq!(a.range_f64(0.0, 3.0), b.range_f64(0.0, 3.0));
        }
    }

    #[test]
    fn shrunk_draws_narrow_toward_the_lower_bound() {
        let mut rng = Rng::with_shrink(11, 0.75);
        let mut trues = 0;
        for _ in 0..2000 {
            let v = rng.range_i64(0, 100);
            assert!((0..25).contains(&v), "{v} outside shrunk range");
            let f = rng.range_f64(1.0, 9.0);
            assert!((1.0..3.0).contains(&f), "{f} outside shrunk range");
            trues += rng.bool() as u32;
        }
        // bool() should be true with probability (1 - 0.75) / 2 = 12.5%.
        assert!((100..400).contains(&trues), "{trues} trues out of 2000");
        // Even full shrink keeps every range non-empty.
        let mut hard = Rng::with_shrink(11, 1.0);
        assert_eq!(hard.range_i64(7, 20), 7);
        assert_eq!(hard.range_usize(3, 9), 3);
    }

    #[test]
    fn failing_seed_is_shrunk_to_a_minimal_case() {
        // Fails for any x >= 1: virtually every case fails, and the shrunk
        // replays fail too, so the report must carry a minimal case whose
        // value is drawn from a narrowed range.
        let failed = std::panic::catch_unwind(|| {
            run_prop("shrinks-to-minimal", 8, |rng| {
                let x = rng.range_i64(0, 1000);
                if x >= 1 {
                    Err(format!("x={x}"))
                } else {
                    Ok(())
                }
            });
        });
        let msg = *failed
            .expect_err("must fail")
            .downcast::<String>()
            .expect("string");
        assert!(msg.contains("minimal case (shrink factor 0.75)"), "{msg}");
        assert!(msg.contains("with_shrink"), "{msg}");
        // The shrunk failing value must come from the narrowed range
        // [0, 250) — parse it back out of the minimal-case line.
        let small: i64 = msg
            .lines()
            .skip_while(|l| !l.contains("minimal case"))
            .nth(1)
            .and_then(|l| l.trim().strip_prefix("x="))
            .expect("minimal case line")
            .parse()
            .expect("number");
        assert!(small < 250, "shrunk value {small} not narrowed");
    }

    #[test]
    fn unshrinkable_failure_reports_the_original_seed_only() {
        // Fails only for large x: every shrunk replay draws from at most
        // [0, 750) and passes, so the report falls back to the plain seed
        // line.
        let failed = std::panic::catch_unwind(|| {
            run_prop("never-shrinks", 64, |rng| {
                let x = rng.range_i64(0, 1000);
                if x >= 750 {
                    Err(format!("x={x}"))
                } else {
                    Ok(())
                }
            });
        });
        let msg = *failed
            .expect_err("must fail")
            .downcast::<String>()
            .expect("string");
        assert!(msg.contains("replay with `Rng::new("), "{msg}");
        assert!(!msg.contains("minimal case"), "{msg}");
    }

    #[test]
    fn panicking_shrunk_replay_counts_as_a_reproduction() {
        let failed = std::panic::catch_unwind(|| {
            run_prop("panics-when-shrunk", 4, |rng| {
                let x = rng.range_i64(0, 1000);
                assert!(rng.shrink_factor() == 0.0, "boom at shrink");
                if x >= 0 {
                    Err("always".into())
                } else {
                    Ok(())
                }
            });
        });
        let msg = *failed
            .expect_err("must fail")
            .downcast::<String>()
            .expect("string");
        assert!(msg.contains("boom at shrink"), "{msg}");
        assert!(msg.contains("minimal case"), "{msg}");
    }

    #[test]
    fn prop_check_passes_and_reports_failures() {
        prop_check!(cases = 32, |rng| {
            let x = rng.range_i64(0, 10);
            prop_assert!((0..10).contains(&x));
            prop_assert_eq!(x, x);
            Ok(())
        });
        let failed = std::panic::catch_unwind(|| {
            run_prop("always-fails", 4, |_| Err("nope".into()));
        });
        let msg = *failed
            .expect_err("must fail")
            .downcast::<String>()
            .expect("string");
        assert!(msg.contains("seed"), "{msg}");
        assert!(msg.contains("nope"), "{msg}");
    }
}
