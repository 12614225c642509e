//! Solutions, Pareto-optimal sequences, the α-spacing `filter`, and the `⊗`
//! combination operator of Algorithm 1.
//!
//! `pareto` and `filter` read only each candidate's totals: its area and its
//! saving. So every reduction here ranks candidates as `(area, saving,
//! payload)` triples and builds a [`Solution`] only for the survivors.
//! [`combine`] ranks the pairwise sums of two fronts and forms only the
//! surviving unions; the DP ranks a vertex's cached designs the same way
//! and copies only the designs that survive. The totals are the float
//! operations a built solution would carry, in the same order, and the sort
//! sees the same sequence, so every front is bit-identical to building all
//! candidates first.

use cayman_analysis::wpst::WpstNodeId;
use cayman_hls::design::AcceleratorDesign;
use cayman_ir::cpu_model::CPU_FREQ_HZ;
use std::borrow::Cow;
use std::cmp::Ordering;

/// One selected kernel: a wPST vertex plus its accelerator configuration.
#[derive(Debug, Clone)]
pub struct SelectedKernel {
    /// The selected region vertex.
    pub node: WpstNodeId,
    /// Its configured accelerator.
    pub design: AcceleratorDesign,
}

/// A selection solution: a set of non-overlapping kernels with accelerator
/// configurations (the `φ` of §III-D).
#[derive(Debug, Clone, Default)]
pub struct Solution {
    /// The selected kernels.
    pub kernels: Vec<SelectedKernel>,
    /// Total accelerator area.
    pub area: f64,
    /// Total wall-clock seconds saved (`Σ T_cand − Cycle_cand/F`).
    pub saved_seconds: f64,
}

impl Solution {
    /// The empty solution (select nothing): area 0, no gain.
    pub fn empty() -> Self {
        Solution::default()
    }

    /// A single-kernel solution.
    pub fn single(node: WpstNodeId, design: AcceleratorDesign) -> Self {
        let area = design.area;
        let saved = design.saved_seconds();
        Solution {
            kernels: vec![SelectedKernel { node, design }],
            area,
            saved_seconds: saved,
        }
    }

    /// Union of two solutions (disjoint kernel sets by construction of the
    /// DP): areas and savings add.
    pub fn union(&self, other: &Solution) -> Solution {
        let mut kernels = self.kernels.clone();
        kernels.extend(other.kernels.iter().cloned());
        Solution {
            kernels,
            area: self.area + other.area,
            saved_seconds: self.saved_seconds + other.saved_seconds,
        }
    }

    /// Overall application speedup per Eq. (1):
    /// `T_all / (T_all − T_cand + Cycle_cand/F)` — equivalently
    /// `T_all / (T_all − saved_seconds)`.
    ///
    /// `total_cycles` is the profiled whole-program CPU cycle count.
    pub fn speedup(&self, total_cycles: u64) -> f64 {
        let t_all = total_cycles as f64 / CPU_FREQ_HZ;
        let remaining = (t_all - self.saved_seconds).max(f64::MIN_POSITIVE);
        t_all / remaining
    }

    /// Aggregate `#SB` / `#PR` over all kernels.
    pub fn sb_pr(&self) -> (usize, usize) {
        let mut sb = 0;
        let mut pr = 0;
        for k in &self.kernels {
            sb += k.design.seq_blocks;
            pr += k.design.pipelined.len();
        }
        (sb, pr)
    }

    /// Aggregate interface counts `(#C, #D, #S, #LB)` over all kernels.
    /// `#S` covers the scratchpad family (plain, banked, double-buffered).
    pub fn iface_counts(&self) -> (usize, usize, usize, usize) {
        let mut t = (0, 0, 0, 0);
        for k in &self.kernels {
            let (c, d, s, lb) = k.design.iface_counts();
            t.0 += c;
            t.1 += d;
            t.2 += s;
            t.3 += lb;
        }
        t
    }
}

/// A candidate ranked on its totals before anything is built: its area, its
/// saving, and a payload saying how to build it. `None` is the `∅` sentinel
/// that the Pareto step re-inserts.
type Ranked<T> = (f64, f64, Option<T>);

/// The Pareto step on totals: a stable sort of `items`, followed by the `∅`
/// sentinel, by increasing area and then decreasing saving; then keep each
/// candidate whose saving strictly improves on the last one kept.
fn pareto_ranked<T>(items: &mut Vec<Ranked<T>>) {
    items.push((0.0, 0.0, None));
    items.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap_or(Ordering::Equal)
            .then(b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal))
    });
    let mut last: Option<f64> = None;
    items.retain(|&(_, saved, _)| {
        let keep = last.is_none_or(|l| saved > l);
        if keep {
            last = Some(saved);
        }
        keep
    });
}

/// The α step on totals: the backward greedy of [`filter`] over a Pareto
/// sequence, in place.
fn filter_ranked<T>(items: &mut Vec<Ranked<T>>, alpha: f64) {
    debug_assert!(alpha > 1.0, "alpha must exceed 1");
    let mut keep = vec![false; items.len()];
    let mut bound = f64::INFINITY;
    for (i, &(area, ..)) in items.iter().enumerate().rev() {
        if area <= bound || area == 0.0 {
            keep[i] = true;
            if area > 0.0 {
                bound = area / alpha;
            }
        }
    }
    let mut keep = keep.into_iter();
    items.retain(|_| keep.next() == Some(true));
}

/// `filter(pareto(·))` on totals: the payloads of the survivors, by
/// increasing area, `None` standing for `∅`. Callers build a solution for
/// each survivor only.
fn survivors<T>(mut items: Vec<Ranked<T>>, alpha: f64) -> impl Iterator<Item = Option<T>> {
    pareto_ranked(&mut items);
    filter_ranked(&mut items, alpha);
    items.into_iter().map(|(_, _, payload)| payload)
}

/// Solutions as ranked candidates that carry themselves.
fn ranked(solutions: Vec<Solution>) -> Vec<Ranked<Solution>> {
    solutions
        .into_iter()
        .map(|s| (s.area, s.saved_seconds, Some(s)))
        .collect()
}

/// Produces the Pareto-optimal sequence of `solutions`, sorted by increasing
/// area, keeping only solutions with strictly increasing savings.
///
/// The empty solution is always re-inserted so that "select nothing from this
/// subtree" remains available to the `⊗` operator.
pub fn pareto(solutions: Vec<Solution>) -> Vec<Solution> {
    let mut items = ranked(solutions);
    pareto_ranked(&mut items);
    items
        .into_iter()
        .map(|(_, _, s)| s.unwrap_or_default())
        .collect()
}

/// The α-spacing `filter` of Algorithm 1: thins a Pareto sequence so that
/// every neighbouring pair of kept solutions differs in area by more than a
/// factor of `α`, bounding the sequence length to `log_α(A)`.
///
/// Within each α-band the *highest-saving* representative is kept (a
/// backward greedy from the largest solution): in a Pareto sequence that is
/// the largest-area member of the band, so no strictly better solution is
/// ever discarded in favour of a worse neighbour.
///
/// The input must already be a Pareto sequence (sorted by increasing area).
/// The empty solution (area 0) is always kept.
pub fn filter(solutions: Vec<Solution>, alpha: f64) -> Vec<Solution> {
    let mut items = ranked(solutions);
    filter_ranked(&mut items, alpha);
    items.into_iter().filter_map(|(_, _, s)| s).collect()
}

/// The `⊗` operator: `filter(pareto(·))` over all pairwise unions of two
/// Pareto sequences. The pairs are ranked on their summed totals, and only
/// the surviving pairs are built into unions.
pub fn combine(a: &[Solution], b: &[Solution], alpha: f64) -> Vec<Solution> {
    let mut items = Vec::with_capacity(a.len() * b.len());
    for (i, x) in a.iter().enumerate() {
        for (j, y) in b.iter().enumerate() {
            items.push((
                x.area + y.area,
                x.saved_seconds + y.saved_seconds,
                Some((i, j)),
            ));
        }
    }
    survivors(items, alpha)
        .map(|pair| match pair {
            Some((i, j)) => a[i].union(&b[j]),
            None => Solution::empty(),
        })
        .collect()
}

/// `filter(pareto(front ∪ {single(v, d) : d ∈ designs}))`: `front`'s
/// members and then the designs are ranked on their totals, and only the
/// surviving designs are cloned into solutions. With an empty `front` this
/// is the `bb` leaf `filter(pareto(accel(v, R)))`; with a folded front it is
/// the `ctrl-flow` step that merges the vertex's own designs.
pub fn with_designs(
    mut front: Vec<Solution>,
    v: WpstNodeId,
    designs: &[AcceleratorDesign],
    alpha: f64,
) -> Vec<Solution> {
    let n = front.len();
    let items = front
        .iter()
        .map(|s| (s.area, s.saved_seconds))
        .chain(designs.iter().map(|d| (d.area, d.saved_seconds())))
        .enumerate()
        .map(|(i, (area, saved))| (area, saved, Some(i)))
        .collect();
    survivors(items, alpha)
        .map(|member| match member {
            Some(i) if i < n => std::mem::take(&mut front[i]),
            Some(i) => Solution::single(v, designs[i - n].clone()),
            None => Solution::empty(),
        })
        .collect()
}

/// Algorithm 1 at one internal vertex: `F ← filter(F ⊗ F[u])` over the
/// children's fronts in child order, then, when `own` carries a `ctrl-flow`
/// vertex and its designs, `F ← filter(pareto(F ∪ accel(v, R)))`.
///
/// Each child must be a front reduced with the same `alpha`, as this
/// module's reductions return. The fold starts from the first child's
/// front, not from `{∅} ⊗ F[u₁]`: `∅ ∪ y` has `y`'s kernels and the totals
/// `0.0 + y`, which are `y`'s own bits (no area or saving is ever `-0.0`),
/// and `filter ∘ pareto` leaves such a front as it is. So an owned first
/// front is moved, not copied.
pub fn fold<'f>(
    children: impl IntoIterator<Item = Cow<'f, [Solution]>>,
    own: Option<(WpstNodeId, &[AcceleratorDesign])>,
    alpha: f64,
) -> Vec<Solution> {
    let mut children = children.into_iter();
    let mut f = children
        .next()
        .map_or_else(|| vec![Solution::empty()], Cow::into_owned);
    for fu in children {
        f = combine(&f, &fu, alpha);
    }
    match own {
        Some((v, designs)) => with_designs(f, v, designs, alpha),
        None => f,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sol(area: f64, saved: f64) -> Solution {
        Solution {
            kernels: Vec::new(),
            area,
            saved_seconds: saved,
        }
    }

    #[test]
    fn pareto_drops_dominated() {
        let s = pareto(vec![
            sol(10.0, 5.0),
            sol(20.0, 4.0), // dominated: more area, less saved
            sol(30.0, 9.0),
            sol(5.0, 1.0),
        ]);
        let areas: Vec<f64> = s.iter().map(|x| x.area).collect();
        assert_eq!(areas, vec![0.0, 5.0, 10.0, 30.0]);
        // savings strictly increase
        for w in s.windows(2) {
            assert!(w[1].saved_seconds > w[0].saved_seconds);
        }
    }

    #[test]
    fn pareto_always_contains_empty() {
        let s = pareto(vec![sol(10.0, 5.0)]);
        assert_eq!(s[0].area, 0.0);
        assert_eq!(s[0].saved_seconds, 0.0);
        // negative-saving solutions are dominated by empty
        let s = pareto(vec![sol(10.0, -5.0)]);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].area, 0.0);
    }

    #[test]
    fn filter_enforces_alpha_spacing() {
        let seq = pareto(
            (1..=100)
                .map(|i| sol(i as f64, i as f64))
                .collect::<Vec<_>>(),
        );
        let f = filter(seq, 1.5);
        // every neighbouring pair (past the empty) spaced by ≥ 1.5×
        for w in f.windows(2) {
            if w[0].area > 0.0 {
                assert!(
                    w[1].area >= 1.5 * w[0].area,
                    "{} vs {}",
                    w[0].area,
                    w[1].area
                );
            }
        }
        // log_1.5(100) ≈ 11.4 → at most ~13 survivors incl. empty and first
        assert!(f.len() <= 14, "{}", f.len());
        // the best solution is always retained
        assert_eq!(f.last().expect("non-empty").area, 100.0);
    }

    #[test]
    fn filter_keeps_best_in_band() {
        // a slightly bigger but much better solution must survive even when
        // its area is within α of a worse neighbour
        let seq = pareto(vec![sol(100.0, 1.0), sol(105.0, 50.0)]);
        let f = filter(seq, 1.1);
        assert!(
            f.iter().any(|s| (s.saved_seconds - 50.0).abs() < 1e-12),
            "best solution dropped: {f:?}"
        );
    }

    #[test]
    fn combine_adds_areas_and_savings() {
        let a = pareto(vec![sol(10.0, 5.0)]);
        let b = pareto(vec![sol(20.0, 7.0)]);
        let c = combine(&a, &b, 1.0001);
        // empty, a alone, b alone, a∪b
        assert_eq!(c.len(), 4);
        let last = c.last().expect("non-empty");
        assert_eq!(last.area, 30.0);
        assert_eq!(last.saved_seconds, 12.0);
    }

    #[test]
    fn speedup_follows_equation_1() {
        // T_all = 1s (1.5e9 cycles at 1.5GHz); saving 0.5s → 2×.
        let mut s = sol(1.0, 0.5);
        s.saved_seconds = 0.5;
        let total_cycles = CPU_FREQ_HZ as u64;
        assert!((s.speedup(total_cycles) - 2.0).abs() < 1e-9);
        // empty solution → 1×
        assert!((Solution::empty().speedup(total_cycles) - 1.0).abs() < 1e-12);
    }
}
