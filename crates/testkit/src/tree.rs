//! Random workload *tree shapes* for selection property tests.
//!
//! The selection DP walks the wPST, whose shape mirrors the loop and call
//! structure of the workload: sibling functions become independent subtrees,
//! nested loops become chains, and one hot function skews the whole tree.
//! [`TreeShape`] describes such a workload abstractly — a list of sibling
//! functions, each a perfect loop nest — so crates that own an IR builder
//! can materialise it into a module while this kit stays dependency-free.
//!
//! Generators follow the shrinking contract (see the crate docs): every
//! drawn range puts the *simpler* end at its lower bound and
//! [`Rng::choose`] slices list simpler variants first, so a failing case
//! shrinks toward fewer, shallower, lighter functions.
//!
//! Generated shapes are deliberately small: [`TreeShape::iterations`] is
//! bounded by [`MAX_CASE_ITERATIONS`], so profiling a materialised case
//! stays fast even over a hundred property cases.

use crate::Rng;

/// Maximum loop-nest depth a generated [`FuncShape`] can have.
pub const MAX_DEPTH: usize = 3;

/// Upper bound (exclusive) on generated per-level trip counts.
pub const MAX_TRIP: u32 = 8;

/// Upper bound on [`TreeShape::iterations`] for any generated shape: one
/// hot function contributes at most `(MAX_TRIP - 1)^MAX_DEPTH` innermost
/// iterations and at most 9 siblings contribute a shallow nest each.
pub const MAX_CASE_ITERATIONS: u64 = 4096;

/// How the work in a generated shape is distributed over the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TreeStyle {
    /// A few similar functions with similar nests: no skew.
    Balanced,
    /// Many shallow sibling functions: wide fan-out at the root.
    Fanout,
    /// One or two deeply nested functions: long wPST chains.
    Chain,
    /// One heavy function plus trivial siblings: a hot single subtree.
    HotSubtree,
}

/// Loop-nest description of one generated function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncShape {
    /// Trip counts, outermost first; the nest depth is `trips.len()` ≥ 1.
    pub trips: Vec<u32>,
    /// Extra floating-point ops in the innermost body (work per iteration).
    pub body_ops: u32,
    /// Whether the innermost body carries an if/else diamond (adds a
    /// ctrl-flow region to the function's wPST subtree).
    pub diamond: bool,
}

impl FuncShape {
    /// Draws a nest of depth `[depth_lo, depth_hi)` with per-level trips in
    /// `[trip_lo, trip_hi)` and up to `ops_hi` extra body ops.
    fn random(
        rng: &mut Rng,
        depth_lo: usize,
        depth_hi: usize,
        trip_lo: u32,
        trip_hi: u32,
        ops_hi: u32,
    ) -> FuncShape {
        let depth = rng.range_usize(depth_lo, depth_hi);
        FuncShape {
            trips: (0..depth)
                .map(|_| rng.range_u32(trip_lo, trip_hi))
                .collect(),
            body_ops: rng.range_u32(0, ops_hi),
            diamond: rng.bool(),
        }
    }

    /// Total innermost iterations of this function's nest.
    pub fn iterations(&self) -> u64 {
        self.trips.iter().map(|&t| u64::from(t)).product()
    }
}

/// An abstract workload: sibling functions called in order from a `main`,
/// each a perfect loop nest described by a [`FuncShape`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeShape {
    /// The skew style this shape was drawn from.
    pub style: TreeStyle,
    /// The functions, in call order.
    pub funcs: Vec<FuncShape>,
}

impl TreeShape {
    /// Draws a random shape: a style first (simpler styles listed first for
    /// shrinking), then functions matching that style's skew.
    pub fn arbitrary(rng: &mut Rng) -> TreeShape {
        let style = *rng.choose(&[
            TreeStyle::Balanced,
            TreeStyle::Fanout,
            TreeStyle::Chain,
            TreeStyle::HotSubtree,
        ]);
        let funcs = match style {
            TreeStyle::Balanced => {
                let n = rng.range_usize(1, 5);
                (0..n)
                    .map(|_| FuncShape::random(rng, 1, 3, 2, 6, 3))
                    .collect()
            }
            TreeStyle::Fanout => {
                let n = rng.range_usize(3, 10);
                (0..n)
                    .map(|_| FuncShape::random(rng, 1, 2, 2, MAX_TRIP, 2))
                    .collect()
            }
            TreeStyle::Chain => {
                let n = rng.range_usize(1, 3);
                (0..n)
                    .map(|_| FuncShape::random(rng, 2, MAX_DEPTH + 1, 2, 5, 2))
                    .collect()
            }
            TreeStyle::HotSubtree => {
                let mut funcs = vec![FuncShape::random(rng, 2, MAX_DEPTH + 1, 4, MAX_TRIP, 6)];
                let n = rng.range_usize(2, 7);
                funcs.extend((0..n).map(|_| FuncShape::random(rng, 1, 2, 2, 3, 1)));
                funcs
            }
        };
        TreeShape { style, funcs }
    }

    /// Total innermost iterations over all functions — the work bound that
    /// keeps generated cases fast to profile.
    pub fn iterations(&self) -> u64 {
        self.funcs.iter().map(FuncShape::iterations).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_shapes_stay_in_bounds() {
        for seed in 0..500 {
            let shape = TreeShape::arbitrary(&mut Rng::new(seed));
            assert!(!shape.funcs.is_empty(), "seed {seed}: no functions");
            for f in &shape.funcs {
                assert!(
                    (1..=MAX_DEPTH).contains(&f.trips.len()),
                    "seed {seed}: depth {}",
                    f.trips.len()
                );
                assert!(
                    f.trips.iter().all(|&t| (2..MAX_TRIP).contains(&t)),
                    "seed {seed}: trips {:?}",
                    f.trips
                );
                assert!(f.body_ops < 8, "seed {seed}: body_ops {}", f.body_ops);
            }
            assert!(
                shape.iterations() <= MAX_CASE_ITERATIONS,
                "seed {seed}: {} iterations",
                shape.iterations()
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = TreeShape::arbitrary(&mut Rng::new(0xFEED));
        let b = TreeShape::arbitrary(&mut Rng::new(0xFEED));
        assert_eq!(a, b);
    }

    #[test]
    fn all_styles_are_reachable() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..200 {
            seen.insert(TreeShape::arbitrary(&mut Rng::new(seed)).style);
        }
        assert_eq!(seen.len(), 4, "styles seen: {seen:?}");
    }

    #[test]
    fn hot_subtree_shapes_are_actually_skewed() {
        for seed in 0..400 {
            let shape = TreeShape::arbitrary(&mut Rng::new(seed));
            if shape.style != TreeStyle::HotSubtree {
                continue;
            }
            let hot = shape.funcs[0].iterations();
            let max_rest = shape.funcs[1..]
                .iter()
                .map(FuncShape::iterations)
                .max()
                .expect("siblings");
            assert!(
                hot >= 4 * max_rest,
                "seed {seed}: hot {hot} vs sibling {max_rest}"
            );
        }
    }

    #[test]
    fn shrunk_shapes_are_simpler_on_average() {
        let total = |shrink: f64| -> u64 {
            (0..200)
                .map(|seed| TreeShape::arbitrary(&mut Rng::with_shrink(seed, shrink)).iterations())
                .sum()
        };
        let full = total(0.0);
        let shrunk = total(0.75);
        assert!(
            shrunk * 2 < full,
            "shrunk cases not smaller: {shrunk} vs {full}"
        );
    }
}
